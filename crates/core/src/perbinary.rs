//! The per-binary SimPoint baseline (paper §2).
//!
//! Classic SimPoint applied independently to each binary: fixed-length
//! intervals, per-binary BBVs, per-binary clustering and simulation
//! points. Accurate for each binary against its own full run, but its
//! sampling bias is *not* consistent across binaries — the failure mode
//! the cross-binary technique fixes (§2.4, §5.2).

use cbsp_profile::{profile_fli, Interval, PinPointsFile, RegionBound, SimRegion};
use cbsp_program::{Binary, Input};
use cbsp_simpoint::{analyze, RepresentativePolicy, SimPointConfig, SimPointResult};

/// Result of a per-binary (FLI) SimPoint analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PerBinaryResult {
    /// The profiled fixed-length intervals.
    pub intervals: Vec<Interval>,
    /// SimPoint clustering of those intervals.
    pub simpoint: SimPointResult,
    /// Interval size target used.
    pub interval_target: u64,
}

impl PerBinaryResult {
    /// Number of intervals.
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// Starting dynamic instruction offset of interval `i` (intervals
    /// partition the run contiguously).
    pub fn interval_start(&self, i: usize) -> u64 {
        self.intervals[..i].iter().map(|iv| iv.instrs).sum()
    }

    /// Builds a PinPoints region file (instruction-offset bounds; valid
    /// only for the binary it was produced from).
    pub fn pinpoints(&self, binary: &Binary, input: &Input) -> PinPointsFile {
        let regions = self
            .simpoint
            .points
            .iter()
            .map(|pt| {
                let start = self.interval_start(pt.interval);
                SimRegion {
                    phase: pt.phase,
                    weight: pt.weight,
                    start: RegionBound::Instr(start),
                    end: RegionBound::Instr(start + self.intervals[pt.interval].instrs),
                }
            })
            .collect();
        PinPointsFile {
            program: binary.program.clone(),
            binary: binary.label(),
            input: input.name.clone(),
            interval_target: self.interval_target,
            regions,
        }
    }
}

/// Runs classic per-binary SimPoint on one binary, each phase
/// represented by its centroid-nearest interval.
///
/// # Panics
///
/// Panics if `interval_target` is zero.
pub fn run_per_binary(
    binary: &Binary,
    input: &Input,
    interval_target: u64,
    config: &SimPointConfig,
) -> PerBinaryResult {
    let intervals = profile_fli(binary, input, interval_target);
    let vectors: Vec<Vec<f64>> = intervals.iter().map(|i| i.bbv.clone()).collect();
    let instrs: Vec<u64> = intervals.iter().map(|i| i.instrs).collect();
    let simpoint = analyze(
        &vectors,
        &instrs,
        config,
        RepresentativePolicy::NearestCentroid,
    );
    PerBinaryResult {
        intervals,
        simpoint,
        interval_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::{compile, workloads, CompileTarget, Scale};

    #[test]
    fn per_binary_analysis_is_well_formed() {
        let prog = workloads::by_name("art")
            .expect("in suite")
            .build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W32_O2);
        let input = Input::test();
        let r = run_per_binary(&bin, &input, 20_000, &SimPointConfig::default());
        assert!(r.interval_count() > 3);
        assert!((r.simpoint.total_weight() - 1.0).abs() < 1e-9);
        assert!(r.simpoint.k >= 1 && r.simpoint.k <= 10);
        let pp = r.pinpoints(&bin, &input);
        assert_eq!(pp.validate(), Ok(()));
    }

    #[test]
    fn interval_start_offsets_are_cumulative() {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W64_O0);
        let r = run_per_binary(&bin, &Input::test(), 30_000, &SimPointConfig::default());
        assert_eq!(r.interval_start(0), 0);
        for i in 1..r.interval_count() {
            assert_eq!(
                r.interval_start(i),
                r.interval_start(i - 1) + r.intervals[i - 1].instrs
            );
        }
    }

    #[test]
    fn different_binaries_may_cluster_differently() {
        // Not asserted as a hard property (they *can* agree), but the
        // machinery must at least produce independent results per binary.
        let prog = workloads::by_name("gcc")
            .expect("in suite")
            .build(Scale::Test);
        let input = Input::test();
        let a = run_per_binary(
            &compile(&prog, CompileTarget::W32_O0),
            &input,
            20_000,
            &SimPointConfig::default(),
        );
        let b = run_per_binary(
            &compile(&prog, CompileTarget::W32_O2),
            &input,
            20_000,
            &SimPointConfig::default(),
        );
        // -O0 executes ~3x the instructions: more intervals.
        assert!(a.interval_count() > b.interval_count());
    }
}
