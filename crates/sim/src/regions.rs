//! Region-driven simulation: execute a binary and collect detailed
//! statistics only inside the simulation regions of a
//! [`PinPointsFile`] — the consumption side of the paper's tool chain
//! ("we ran each binary under CMP$im ... with the PinPoints file
//! describing the simulation regions for the binary", §4).
//!
//! The rest of the execution is functionally warmed: it still streams
//! through the cache hierarchy (so each region starts with the memory
//! state it would have in a full run) but is not charged to any region.

use crate::config::MemoryConfig;
use crate::hierarchy::Hierarchy;
use crate::stats::IntervalSim;
use cbsp_profile::{MarkerCounts, PinPointsFile, RegionBound, SimRegion};
use cbsp_program::{run, Binary, BlockId, Input, Marker, TraceSink};
use std::collections::HashMap;

/// How cache state is prepared before each simulation region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Warmup {
    /// Functional warming: out-of-region execution still streams
    /// through the caches, so each region starts with the state it
    /// would have in a full run (what checkpoint-based tool chains
    /// approximate, and what the accuracy evaluation assumes).
    #[default]
    Functional,
    /// Cold start: the hierarchy is emptied when each region begins —
    /// the naive fast-forwarding a simulator does without any warming.
    /// Exists to *measure* the warmup error, not to be used.
    Cold,
}

/// Statistics for one simulation region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionStats {
    /// Phase this region represents.
    pub phase: u32,
    /// Weight from the region file.
    pub weight: f64,
    /// In-region measurements.
    pub stats: IntervalSim,
    /// Whether the region's start (and end) were actually reached.
    pub reached: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionState {
    Pending,
    Active,
    Done,
}

struct TrackedRegion {
    region: SimRegion,
    state: RegionState,
    stats: IntervalSim,
}

/// The region-restricted simulation sink.
///
/// Per-event cost is O(active regions), not O(regions in the file):
/// regions waiting to start sit in index structures keyed by what
/// triggers them — a cursor over a start-instruction-sorted list for
/// instruction bounds, a `(marker, count)` map for marker bounds — and
/// only the (typically zero or one) currently active regions are
/// visited per block or access event.
struct RegionSink {
    hierarchy: Hierarchy,
    counts: MarkerCounts,
    instrs: u64,
    regions: Vec<TrackedRegion>,
    /// Indices of currently active regions.
    active: Vec<usize>,
    /// Pending regions with `Instr` starts, sorted by start descending
    /// (so the back of the vec is the next region to activate).
    instr_pending: Vec<usize>,
    /// Pending regions with `Point` starts, keyed by the exact marker
    /// execution that activates them.
    point_pending: HashMap<(Marker, u64), Vec<usize>>,
    warmup: Warmup,
    fresh: Hierarchy,
}

impl RegionSink {
    /// Retires active regions whose `Instr` end is reached, then
    /// activates pending regions whose `Instr` start is reached.
    /// Activation happens last so a region never ends in the pass that
    /// started it (a region spanning zero instructions still sees the
    /// block that closes it, matching one-pass state-machine order).
    fn roll_instr(&mut self) {
        let instrs = self.instrs;
        let regions = &mut self.regions;
        self.active.retain(|&i| {
            let t = &mut regions[i];
            if matches!(t.region.end, RegionBound::Instr(x) if instrs >= x) {
                t.state = RegionState::Done;
                false
            } else {
                true
            }
        });
        let mut activated = false;
        while let Some(&i) = self.instr_pending.last() {
            if matches!(regions[i].region.start, RegionBound::Instr(x) if instrs >= x) {
                self.instr_pending.pop();
                regions[i].state = RegionState::Active;
                self.active.push(i);
                activated = true;
            } else {
                break;
            }
        }
        if activated && self.warmup == Warmup::Cold {
            self.hierarchy = self.fresh.clone();
        }
    }
}

impl TraceSink for RegionSink {
    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        for &i in &self.active {
            self.regions[i].stats.charge_block(instrs);
        }
        self.instrs += instrs;
        self.roll_instr();
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        // Functional warming: the hierarchy sees every access.
        let (lvl, latency) = self.hierarchy.access(addr, is_write);
        for &i in &self.active {
            self.regions[i].stats.charge_access(lvl, latency);
        }
    }

    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        let count = self.counts.observe(marker);
        let regions = &mut self.regions;
        self.active.retain(|&i| {
            let t = &mut regions[i];
            if matches!(t.region.end, RegionBound::Point(p)
                if p.marker.to_marker() == marker && p.count == count)
            {
                t.state = RegionState::Done;
                false
            } else {
                true
            }
        });
        if let Some(starters) = self.point_pending.remove(&(marker, count)) {
            for i in starters {
                regions[i].state = RegionState::Active;
                self.active.push(i);
            }
            if self.warmup == Warmup::Cold {
                self.hierarchy = self.fresh.clone();
            }
        }
    }
}

/// Simulates only the regions of `file`, with functional warming in
/// between. Returns one [`RegionStats`] per region, in file order.
///
/// A region whose end bound is `Instr(u64::MAX)` runs to the end of
/// execution. Regions that never start are returned with
/// `reached: false` and empty stats — that means the file does not
/// belong to this `(binary, input)` pair.
pub fn simulate_regions(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    file: &PinPointsFile,
) -> Vec<RegionStats> {
    simulate_regions_with(binary, input, config, file, Warmup::Functional)
}

/// [`simulate_regions`] with an explicit [`Warmup`] policy.
pub fn simulate_regions_with(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    file: &PinPointsFile,
    warmup: Warmup,
) -> Vec<RegionStats> {
    let mut instr_pending = Vec::new();
    let mut point_pending: HashMap<(Marker, u64), Vec<usize>> = HashMap::new();
    for (i, region) in file.regions.iter().enumerate() {
        match region.start {
            RegionBound::Instr(_) => instr_pending.push(i),
            RegionBound::Point(p) => point_pending
                .entry((p.marker.to_marker(), p.count))
                .or_default()
                .push(i),
        }
    }
    // Back of the vec = smallest start instruction.
    instr_pending.sort_by_key(|&i| {
        std::cmp::Reverse(match file.regions[i].start {
            RegionBound::Instr(x) => x,
            RegionBound::Point(_) => unreachable!("partitioned above"),
        })
    });
    let mut sink = RegionSink {
        hierarchy: Hierarchy::new(config),
        counts: MarkerCounts::new(binary.procs.len(), binary.loops.len()),
        instrs: 0,
        warmup,
        fresh: Hierarchy::new(config),
        regions: file
            .regions
            .iter()
            .map(|&region| TrackedRegion {
                region,
                state: RegionState::Pending,
                stats: IntervalSim::default(),
            })
            .collect(),
        active: Vec::new(),
        instr_pending,
        point_pending,
    };
    // Instr(0) starts active immediately.
    sink.roll_instr();
    run(binary, input, &mut sink);
    sink.regions
        .iter()
        .map(|t| RegionStats {
            phase: t.region.phase,
            weight: t.region.weight,
            stats: t.stats,
            reached: t.state != RegionState::Pending,
        })
        .collect()
}

/// Weighted whole-program CPI estimate from region measurements (the
/// extrapolation of paper §2.3 step 6, done from a region file alone).
pub fn estimate_cpi_from_regions(regions: &[RegionStats]) -> f64 {
    regions
        .iter()
        .filter(|r| r.reached && r.stats.instructions > 0)
        .map(|r| r.weight * r.stats.cpi())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_profile::{ExecPoint, MarkerRef};
    use cbsp_program::{compile, CompileTarget, ProgramBuilder, Scale};

    fn two_phase_binary() -> Binary {
        let mut b = ProgramBuilder::new("t");
        let small = b.array_f64("small", 1_000);
        let big = b.array_f64("big", 512_000);
        b.proc("main", |p| {
            p.loop_fixed(50, |body| {
                body.compute(50, |k| {
                    k.seq(small, 8);
                });
            });
            p.loop_fixed(50, |body| {
                body.compute(50, |k| {
                    k.random(big, 8);
                });
            });
        });
        compile(&b.finish(), CompileTarget::W32_O2)
    }

    fn file_for(regions: Vec<SimRegion>) -> PinPointsFile {
        PinPointsFile {
            program: "t".into(),
            binary: "t-32o".into(),
            input: "test".into(),
            interval_target: 1_000,
            regions,
        }
    }

    #[test]
    fn marker_bounded_regions_measure_the_right_code() {
        let bin = two_phase_binary();
        let input = Input::new("t", 5, Scale::Test);
        let file = file_for(vec![
            SimRegion {
                phase: 0,
                weight: 0.5,
                start: RegionBound::Point(ExecPoint {
                    marker: MarkerRef::LoopBack(0),
                    count: 10,
                }),
                end: RegionBound::Point(ExecPoint {
                    marker: MarkerRef::LoopBack(0),
                    count: 20,
                }),
            },
            SimRegion {
                phase: 1,
                weight: 0.5,
                start: RegionBound::Point(ExecPoint {
                    marker: MarkerRef::LoopBack(1),
                    count: 10,
                }),
                end: RegionBound::Point(ExecPoint {
                    marker: MarkerRef::LoopBack(1),
                    count: 20,
                }),
            },
        ]);
        let regions = simulate_regions(&bin, &input, &MemoryConfig::table1(), &file);
        assert!(regions.iter().all(|r| r.reached));
        // Both regions span 10 iterations of structurally identical
        // loops: similar instruction counts...
        let ratio = regions[0].stats.instructions as f64 / regions[1].stats.instructions as f64;
        assert!((0.8..1.25).contains(&ratio), "instr ratio {ratio}");
        // ...but the second loop misses to DRAM: much higher CPI.
        assert!(
            regions[1].stats.cpi() > regions[0].stats.cpi() + 1.0,
            "phase CPIs {} vs {}",
            regions[0].stats.cpi(),
            regions[1].stats.cpi()
        );
    }

    #[test]
    fn instruction_bounded_regions_partition_exactly() {
        let bin = two_phase_binary();
        let input = Input::new("t", 5, Scale::Test);
        let full = crate::runner::simulate_full(&bin, &input, &MemoryConfig::table1());
        let half = full.instructions / 2;
        let file = file_for(vec![
            SimRegion {
                phase: 0,
                weight: 0.5,
                start: RegionBound::Instr(0),
                end: RegionBound::Instr(half),
            },
            SimRegion {
                phase: 1,
                weight: 0.5,
                start: RegionBound::Instr(half),
                end: RegionBound::Instr(u64::MAX),
            },
        ]);
        let regions = simulate_regions(&bin, &input, &MemoryConfig::table1(), &file);
        let total: u64 = regions.iter().map(|r| r.stats.instructions).sum();
        assert_eq!(total, full.instructions, "two halves cover the run");
        let cycles: u64 = regions.iter().map(|r| r.stats.cycles).sum();
        assert_eq!(cycles, full.cycles);
    }

    #[test]
    fn unreached_regions_are_flagged() {
        let bin = two_phase_binary();
        let input = Input::new("t", 5, Scale::Test);
        let file = file_for(vec![SimRegion {
            phase: 0,
            weight: 1.0,
            start: RegionBound::Point(ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 1_000_000,
            }),
            end: RegionBound::Instr(u64::MAX),
        }]);
        let regions = simulate_regions(&bin, &input, &MemoryConfig::table1(), &file);
        assert!(!regions[0].reached);
        assert_eq!(regions[0].stats.instructions, 0);
    }

    #[test]
    fn cold_start_inflates_region_cpi() {
        let bin = two_phase_binary();
        let input = Input::new("t", 5, Scale::Test);
        // A mid-run region over the L1-resident loop: warm it is cheap,
        // cold it pays compulsory misses again.
        let file = file_for(vec![SimRegion {
            phase: 0,
            weight: 1.0,
            start: RegionBound::Point(ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 20,
            }),
            end: RegionBound::Point(ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 40,
            }),
        }]);
        let cfg = MemoryConfig::table1();
        let warm = simulate_regions_with(&bin, &input, &cfg, &file, Warmup::Functional);
        let cold = simulate_regions_with(&bin, &input, &cfg, &file, Warmup::Cold);
        assert_eq!(warm[0].stats.instructions, cold[0].stats.instructions);
        assert!(
            cold[0].stats.cpi() > warm[0].stats.cpi(),
            "cold {} should exceed warm {}",
            cold[0].stats.cpi(),
            warm[0].stats.cpi()
        );
    }

    #[test]
    fn estimate_matches_weighted_region_cpis() {
        let regions = vec![
            RegionStats {
                phase: 0,
                weight: 0.75,
                stats: IntervalSim {
                    instructions: 100,
                    cycles: 200,
                    ..IntervalSim::default()
                },
                reached: true,
            },
            RegionStats {
                phase: 1,
                weight: 0.25,
                stats: IntervalSim {
                    instructions: 100,
                    cycles: 600,
                    ..IntervalSim::default()
                },
                reached: true,
            },
        ];
        let est = estimate_cpi_from_regions(&regions);
        assert!((est - (0.75 * 2.0 + 0.25 * 6.0)).abs() < 1e-12);
    }
}
