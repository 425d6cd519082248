//! Text rendering of the paper's tables and figures.
//!
//! Each function prints one artifact in the same row/series structure
//! the paper reports, so a run of the `experiments` binary can be read
//! side by side with the paper.

use crate::experiment::{Pair, PhaseBias};
use crate::suite::SuiteResults;
use cbsp_sim::MemoryConfig;
use std::fmt::Write as _;

/// Renders Table 1 (the memory-system configuration).
pub fn table1(mem: &MemoryConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 1: Memory System Configuration\n\
         {:<10} {:>9} {:>7} {:>10} {:>12} {:>10}",
        "Level", "Capacity", "Assoc", "Line Size", "Hit Latency", "Type"
    );
    for (name, l) in [
        ("FLC(L1D)", &mem.l1),
        ("MLC(L2D)", &mem.l2),
        ("LLC(L3D)", &mem.l3),
    ] {
        let _ = writeln!(
            s,
            "{:<10} {:>7}KB {:>6}-way {:>8}B {:>10} cy {:>10}",
            name,
            l.capacity_bytes / 1024,
            l.associativity,
            l.line_bytes,
            l.hit_latency,
            "WriteBack"
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>9} {:>7} {:>10} {:>9} cy",
        "DRAM", "-", "-", "-", mem.dram_latency
    );
    s
}

/// Renders Figure 1 (number of SimPoints, FLI vs VLI, per benchmark;
/// bars are averages across the four binaries).
pub fn fig1(r: &SuiteResults) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 1: Number of SimPoints (avg across 4 binaries)\n\
         {:<10} {:>6} {:>6}",
        "benchmark", "FLI", "VLI"
    );
    for e in &r.benchmarks {
        let _ = writeln!(
            s,
            "{:<10} {:>6.1} {:>6.1}",
            e.name,
            e.fli.avg_num_points(),
            e.vli.avg_num_points()
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>6.1} {:>6.1}",
        "Avg",
        r.average(|e| e.fli.avg_num_points()),
        r.average(|e| e.vli.avg_num_points())
    );
    s
}

/// Renders Figure 2 (average VLI interval size; FLI is fixed at the
/// target by construction).
pub fn fig2(r: &SuiteResults) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 2: Average Interval Size for mappable SimPoint (VLI)\n\
         (target = {} instructions; per-binary FLI is fixed at the target)\n\
         {:<10} {:>14} {:>8} {:>14}",
        r.interval_target, "benchmark", "avg interval", "x target", "max interval"
    );
    for e in &r.benchmarks {
        let _ = writeln!(
            s,
            "{:<10} {:>14.0} {:>7.2}x {:>14}",
            e.name,
            e.vli_avg_interval,
            e.vli_avg_interval / r.interval_target as f64,
            e.vli_max_interval
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>14.0} {:>7.2}x",
        "Avg",
        r.average(|e| e.vli_avg_interval),
        r.average(|e| e.vli_avg_interval) / r.interval_target as f64
    );
    s
}

/// Renders Figure 3 (CPI error vs. full simulation, FLI vs VLI,
/// averaged across the four binaries).
pub fn fig3(r: &SuiteResults) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 3: CPI Error (avg across 4 binaries)\n\
         {:<10} {:>8} {:>8}",
        "benchmark", "FLI", "VLI"
    );
    for e in &r.benchmarks {
        let _ = writeln!(
            s,
            "{:<10} {:>7.2}% {:>7.2}%",
            e.name,
            100.0 * e.fli.avg_cpi_err(),
            100.0 * e.vli.avg_cpi_err()
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>7.2}% {:>7.2}%",
        "Avg",
        100.0 * r.average(|e| e.fli.avg_cpi_err()),
        100.0 * r.average(|e| e.vli.avg_cpi_err())
    );
    s
}

fn speedup_figure(r: &SuiteResults, title: &str, pairs: [Pair; 2]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:<10}", "benchmark");
    for p in pairs {
        let _ = write!(
            s,
            " {:>11} {:>11}",
            format!("fli_{}", p.label()),
            format!("vli_{}", p.label())
        );
    }
    let _ = writeln!(s);
    for e in &r.benchmarks {
        let _ = write!(s, "{:<10}", e.name);
        for p in pairs {
            let _ = write!(
                s,
                " {:>10.2}% {:>10.2}%",
                100.0 * e.speedup_err(false, p),
                100.0 * e.speedup_err(true, p)
            );
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<10}", "Avg");
    for p in pairs {
        let _ = write!(
            s,
            " {:>10.2}% {:>10.2}%",
            100.0 * r.avg_speedup_err(false, p),
            100.0 * r.avg_speedup_err(true, p)
        );
    }
    let _ = writeln!(s);
    s
}

/// Renders Figure 4 (speedup error across optimization levels on the
/// same platform).
pub fn fig4(r: &SuiteResults) -> String {
    speedup_figure(
        r,
        "Figure 4: Speedup error, same platform (unopt vs opt)",
        [Pair::P32u32o, Pair::P64u64o],
    )
}

/// Renders Figure 5 (speedup error across platforms at the same
/// optimization level).
pub fn fig5(r: &SuiteResults) -> String {
    speedup_figure(
        r,
        "Figure 5: Speedup error, cross platform (32-bit vs 64-bit)",
        [Pair::P32u64u, Pair::P32o64o],
    )
}

/// Renders a phase-bias table (Tables 2 and 3) for one benchmark pair.
pub fn phase_table(t: &PhaseBias, binary_labels: (&str, &str)) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Phase comparison for {} across {} and {} binaries",
        t.name, binary_labels.0, binary_labels.1
    );
    let _ = writeln!(
        s,
        "{:<6} {:<6} | {:>7} {:>9} {:>8} {:>8} | {:>7} {:>9} {:>8} {:>8}",
        "scheme",
        "phase",
        "weight",
        "true CPI",
        "SP CPI",
        "err",
        "weight",
        "true CPI",
        "SP CPI",
        "err"
    );
    for (scheme, rows) in [("VLI", &t.vli), ("FLI", &t.fli)] {
        for i in 0..rows[0].len().max(rows[1].len()) {
            let left = rows[0].get(i);
            let right = rows[1].get(i);
            let cell = |r: Option<&crate::experiment::PhaseRow>| match r {
                Some(r) => format!(
                    "{:>7.2} {:>9.2} {:>8.2} {:>7.1}%",
                    r.weight,
                    r.true_cpi,
                    r.sp_cpi,
                    100.0 * r.cpi_error()
                ),
                None => format!("{:>7} {:>9} {:>8} {:>8}", "-", "-", "-", "-"),
            };
            let phase = left.or(right).map(|r| r.phase).unwrap_or(0);
            let _ = writeln!(
                s,
                "{:<6} {:<6} | {} | {}",
                if i == 0 { scheme } else { "" },
                i + 1,
                cell(left),
                cell(right)
            );
            let _ = phase;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate_benchmark, phase_bias};
    use crate::suite::run_suite;
    use cbsp_program::Scale;

    #[test]
    fn table1_mentions_every_level() {
        let s = table1(&MemoryConfig::table1());
        for needle in ["FLC(L1D)", "MLC(L2D)", "LLC(L3D)", "DRAM", "32KB", "250"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn figures_render_for_a_small_suite() {
        let _guard = cbsp_trace::test_lock();
        let r = run_suite(
            &["gzip".to_string()],
            Scale::Test,
            20_000,
            &MemoryConfig::table1(),
            1,
            None,
            &[],
        );
        for s in [fig1(&r), fig2(&r), fig3(&r), fig4(&r), fig5(&r)] {
            assert!(s.contains("gzip"));
            assert!(s.contains("Avg"));
        }
    }

    #[test]
    fn phase_table_renders() {
        let _guard = cbsp_trace::test_lock();
        let run = evaluate_benchmark("apsi", Scale::Test, 20_000, &MemoryConfig::table1(), None);
        let t = phase_bias(&run, crate::experiment::Pair::P32o64o, 3);
        let s = phase_table(&t, ("32o", "64o"));
        assert!(s.contains("VLI"));
        assert!(s.contains("FLI"));
        assert!(s.contains("apsi"));
    }
}
