//! Simulation statistics.

use crate::hierarchy::ServicedBy;
use serde::{Deserialize, Serialize};

/// Hit/miss counts of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LevelStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
}

impl LevelStats {
    /// Miss rate in `[0, 1]`; 0 when the level saw no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Aggregate statistics of a (full or partial) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Total cycles (instructions + memory stalls).
    pub cycles: u64,
    /// Data accesses issued.
    pub accesses: u64,
    /// Per-level cache statistics (L1, L2, L3).
    pub levels: [LevelStats; 3],
    /// Accesses serviced by DRAM.
    pub dram_accesses: u64,
    /// Dirty lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Conditional branches resolved (0 when no predictor is modelled).
    pub branches: u64,
    /// Branch mispredictions (0 when no predictor is modelled).
    pub branch_mispredicts: u64,
}

impl SimStats {
    /// Cycles per instruction.
    ///
    /// Returns 0 for an empty run rather than dividing by zero.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L1 misses per 1000 instructions (0 for an empty run).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.levels[0].misses as f64 / self.instructions as f64
        }
    }

    /// DRAM accesses per 1000 instructions (0 for an empty run).
    pub fn dram_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.dram_accesses as f64 / self.instructions as f64
        }
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} instructions, {} cycles (CPI {:.3})",
            self.instructions,
            self.cycles,
            self.cpi()
        )?;
        for (name, l) in [
            ("L1", &self.levels[0]),
            ("L2", &self.levels[1]),
            ("L3", &self.levels[2]),
        ] {
            writeln!(
                f,
                "  {name}: {} hits, {} misses ({:.2}% miss rate)",
                l.hits,
                l.misses,
                100.0 * l.miss_rate()
            )?;
        }
        write!(
            f,
            "  DRAM: {} accesses ({:.3} MPKI), {} writebacks",
            self.dram_accesses,
            self.dram_mpki(),
            self.dram_writebacks
        )?;
        if self.branches > 0 {
            write!(
                f,
                "\n  branches: {} ({} mispredicted, {:.2}%)",
                self.branches,
                self.branch_mispredicts,
                100.0 * self.branch_mispredicts as f64 / self.branches as f64
            )?;
        }
        Ok(())
    }
}

/// Per-interval slice of a sliced simulation: enough to compute the
/// interval's true CPI in context (warm caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IntervalSim {
    /// Instructions committed in the interval.
    pub instructions: u64,
    /// Cycles spent in the interval.
    pub cycles: u64,
    /// Accesses issued in the interval.
    pub accesses: u64,
    /// Accesses that missed the L1 in the interval.
    pub l1_misses: u64,
    /// Accesses serviced by DRAM in the interval.
    pub dram_accesses: u64,
}

impl IntervalSim {
    /// Charges a basic block of `instrs` instructions, one cycle each.
    #[inline]
    pub(crate) fn charge_block(&mut self, instrs: u64) {
        self.instructions += instrs;
        self.cycles += instrs;
    }

    /// Charges one data access serviced by `level` after `latency`
    /// cycles. Every simulation sink charges accesses through this one
    /// rule.
    #[inline]
    pub(crate) fn charge_access(&mut self, level: ServicedBy, latency: u64) {
        self.accesses += 1;
        self.cycles += latency;
        if level != ServicedBy::L1 {
            self.l1_misses += 1;
        }
        if level == ServicedBy::Dram {
            self.dram_accesses += 1;
        }
    }

    /// Cycles per instruction of this interval (0 if empty).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L1 misses per 1000 instructions (0 if empty).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.l1_misses as f64 / self.instructions as f64
        }
    }

    /// DRAM accesses per 1000 instructions (0 if empty).
    pub fn dram_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.dram_accesses as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_handles_empty_runs() {
        assert_eq!(SimStats::default().cpi(), 0.0);
        assert_eq!(IntervalSim::default().cpi(), 0.0);
    }

    #[test]
    fn cpi_is_cycles_over_instructions() {
        let s = SimStats {
            instructions: 100,
            cycles: 250,
            ..SimStats::default()
        };
        assert_eq!(s.cpi(), 2.5);
    }

    #[test]
    fn display_is_informative() {
        let s = SimStats {
            instructions: 1000,
            cycles: 2500,
            accesses: 300,
            levels: [
                LevelStats {
                    hits: 200,
                    misses: 100,
                },
                LevelStats {
                    hits: 60,
                    misses: 40,
                },
                LevelStats {
                    hits: 30,
                    misses: 10,
                },
            ],
            dram_accesses: 10,
            dram_writebacks: 2,
            branches: 50,
            branch_mispredicts: 5,
        };
        let text = s.to_string();
        for needle in [
            "CPI 2.500",
            "L1",
            "33.33% miss rate",
            "MPKI",
            "mispredicted",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn miss_rate() {
        let l = LevelStats {
            hits: 75,
            misses: 25,
        };
        assert_eq!(l.miss_rate(), 0.25);
        assert_eq!(LevelStats::default().miss_rate(), 0.0);
    }
}
