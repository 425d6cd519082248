//! Architecture sweep: the premise behind the whole SimPoint
//! methodology is that simulation points are chosen *once* (from purely
//! functional profiles) and then reused for every candidate
//! architecture (paper §1: "Architectures can be compared by simulating
//! their behavior on the code samples selected by SimPoint"). This
//! experiment verifies it: one set of mappable points per benchmark,
//! evaluated on several memory-system designs.

use cbsp_core::{relative_error, run_cross_binary, CbspConfig};
use cbsp_program::{workloads, Scale};
use cbsp_sim::{simulate_marker_sliced, CacheLevelConfig, MemoryConfig};
use cbsp_store::{CpiEstimate, Prepared};
use std::fmt::Write as _;

/// A named architecture variant.
pub struct ArchVariant {
    /// Row label.
    pub label: &'static str,
    /// The memory configuration.
    pub config: MemoryConfig,
}

/// The standard design-space sample: the paper's Table 1 plus three
/// plausible next-generation designs.
pub fn standard_archs() -> Vec<ArchVariant> {
    let table1 = MemoryConfig::table1();
    let mut big_l2 = table1;
    big_l2.l2 = CacheLevelConfig {
        capacity_bytes: 1024 * 1024,
        associativity: 16,
        line_bytes: 64,
        hit_latency: 16,
    };
    let mut prefetch = table1;
    prefetch.next_line_prefetch = true;
    let mut slow_dram = table1;
    slow_dram.dram_latency = 400;
    let mut gshare = table1;
    gshare.branch = Some(cbsp_sim::BranchConfig::default());
    vec![
        ArchVariant {
            label: "table1",
            config: table1,
        },
        ArchVariant {
            label: "bigL2",
            config: big_l2,
        },
        ArchVariant {
            label: "prefetch",
            config: prefetch,
        },
        ArchVariant {
            label: "slowDRAM",
            config: slow_dram,
        },
        ArchVariant {
            label: "gshare",
            config: gshare,
        },
    ]
}

/// Result row: per-architecture CPI-estimation error of the mapped
/// points, plus whether the fastest (binary, architecture) pair was
/// identified correctly.
pub struct ArchSweepRow {
    /// Benchmark name.
    pub name: String,
    /// Mean CPI error per architecture (across the four binaries).
    pub cpi_err: Vec<f64>,
    /// True 32o CPI per architecture (context for the reader).
    pub true_cpi_32o: Vec<f64>,
    /// Did the estimates rank the fastest (binary, arch) pair correctly?
    pub best_pair_correct: bool,
}

/// Runs the sweep for one benchmark: points chosen once, evaluated on
/// every architecture.
pub fn sweep_benchmark(
    name: &str,
    scale: Scale,
    interval_target: u64,
    archs: &[ArchVariant],
) -> ArchSweepRow {
    let workload = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let prepared = Prepared::of(&workload, scale);
    let input = prepared.input();
    // Simulation points chosen ONCE — no simulator involved.
    let config = CbspConfig {
        interval_target,
        ..CbspConfig::default()
    };
    let result = run_cross_binary(&prepared.refs(), input, &config).expect("pipeline succeeds");

    // Each (arch, binary) cell is one detailed simulation of the binary.
    let mut cpi_err = Vec::with_capacity(archs.len());
    let mut true_cpi_32o = Vec::with_capacity(archs.len());
    let mut best_true = (f64::INFINITY, usize::MAX, usize::MAX);
    let mut best_est = (f64::INFINITY, usize::MAX, usize::MAX);
    for (ai, arch) in archs.iter().enumerate() {
        let mut err = 0.0;
        for (b, bin) in prepared.binaries().iter().enumerate() {
            let (full, ivs) =
                simulate_marker_sliced(bin, input, &arch.config, &result.boundaries[b]);
            let est = CpiEstimate::from_marker_intervals(&result, b, &full, &ivs).estimated_cpi;
            err += relative_error(full.cpi(), est);
            if b == 1 {
                true_cpi_32o.push(full.cpi());
            }
            if (full.cycles as f64) < best_true.0 {
                best_true = (full.cycles as f64, ai, b);
            }
            let est_cycles = est * full.instructions as f64;
            if est_cycles < best_est.0 {
                best_est = (est_cycles, ai, b);
            }
        }
        cpi_err.push(err / 4.0);
    }
    ArchSweepRow {
        name: name.to_string(),
        cpi_err,
        true_cpi_32o,
        best_pair_correct: (best_true.1, best_true.2) == (best_est.1, best_est.2),
    }
}

/// Renders the sweep table.
pub fn render(rows: &[ArchSweepRow], archs: &[ArchVariant]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Architecture sweep: one set of mappable points, evaluated per design\n\
         (cells = mean CPI-estimation error across the 4 binaries)"
    );
    let _ = write!(s, "{:<10}", "benchmark");
    for a in archs {
        let _ = write!(s, " {:>9}", a.label);
    }
    let _ = writeln!(s, " {:>10}", "best-pair");
    for r in rows {
        let _ = write!(s, "{:<10}", r.name);
        for e in &r.cpi_err {
            let _ = write!(s, " {:>8.2}%", 100.0 * e);
        }
        let _ = writeln!(
            s,
            " {:>10}",
            if r.best_pair_correct {
                "correct"
            } else {
                "WRONG"
            }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_archs_differ_meaningfully() {
        let archs = standard_archs();
        assert_eq!(archs.len(), 5);
        assert!(archs[4].config.branch.is_some());
        assert!(archs[2].config.next_line_prefetch);
        assert!(archs[3].config.dram_latency > archs[0].config.dram_latency);
        assert!(archs[1].config.l2.capacity_bytes > archs[0].config.l2.capacity_bytes);
    }

    #[test]
    fn sweep_runs_and_estimates_stay_accurate() {
        let _guard = cbsp_trace::test_lock();
        let archs = standard_archs();
        let row = sweep_benchmark("gzip", Scale::Train, 50_000, &archs);
        assert_eq!(row.cpi_err.len(), archs.len());
        for (i, e) in row.cpi_err.iter().enumerate() {
            assert!(*e < 0.06, "arch {}: CPI error {e}", archs[i].label);
        }
        assert!(row.best_pair_correct, "design ranking must be right");
        let table = render(&[row], &archs);
        assert!(table.contains("gzip"));
        assert!(table.contains("prefetch"));
    }
}
