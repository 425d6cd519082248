//! Interpret-vs-replay equivalence: the record-once replay engine must
//! reproduce direct interpretation byte-for-byte for every sink type at
//! any thread count, the fused two-way replay must equal the two
//! single-slicing replays, and damaged trace buffers must come back as
//! typed errors — never panics.

use cbsp_par::Pool;
use cbsp_profile::{ExecPoint, MarkerRef, PinPointsFile, RegionBound, SimRegion};
use cbsp_program::{
    compile, run, workloads, Binary, CompileTarget, Input, Marker, Scale, TraceSink,
};
use cbsp_sim::{
    record_trace, replay, replay_fli_sliced, replay_full, replay_marker_sliced,
    replay_regions_with, replay_slice, replay_sliced_both, simulate_fli_sliced, simulate_full,
    simulate_marker_sliced, simulate_regions_with, slice_trace, BothSlicings, EventTrace,
    MemoryConfig, TraceError, Warmup,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const FLI_TARGET: u64 = 5_000;

fn test_binaries(name: &str) -> (Vec<Binary>, Input) {
    let prog = workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build(Scale::Test);
    let binaries = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    (binaries, Input::test())
}

/// Counts marker executions to derive in-order [`ExecPoint`]
/// boundaries without involving the profiling pipeline.
#[derive(Default)]
struct MarkerTally {
    counts: std::collections::BTreeMap<MarkerRef, u64>,
}

impl TraceSink for MarkerTally {
    fn on_block(&mut self, _block: cbsp_program::BlockId, _instrs: u64) {}

    fn on_marker(&mut self, marker: Marker) {
        let r = match marker {
            Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
            Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
            Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
        };
        *self.counts.entry(r).or_insert(0) += 1;
    }
}

/// Up to `cuts` boundaries at evenly spaced executions of the binary's
/// most frequent marker (in execution order, as the sliced sinks
/// require).
fn marker_boundaries(bin: &Binary, input: &Input, cuts: u64) -> Vec<ExecPoint> {
    let mut tally = MarkerTally::default();
    run(bin, input, &mut tally);
    let (&marker, &execs) = tally
        .counts
        .iter()
        .max_by_key(|(_, &n)| n)
        .expect("binary executes at least one marker");
    let cuts = cuts.min(execs);
    (1..=cuts)
        .map(|i| ExecPoint {
            marker,
            count: i * execs / cuts,
        })
        .collect()
}

/// A small region file mixing instruction and marker bounds.
fn region_file(bin: &Binary, input: &Input, total_instrs: u64) -> PinPointsFile {
    let boundaries = marker_boundaries(bin, input, 4);
    PinPointsFile {
        program: "equivalence".to_string(),
        binary: "test".to_string(),
        input: "test".to_string(),
        interval_target: FLI_TARGET,
        regions: vec![
            SimRegion {
                phase: 0,
                weight: 0.5,
                start: RegionBound::Instr(0),
                end: RegionBound::Instr(total_instrs / 3),
            },
            SimRegion {
                phase: 1,
                weight: 0.3,
                start: RegionBound::Instr(total_instrs / 2),
                end: RegionBound::Point(boundaries[boundaries.len() - 1]),
            },
            SimRegion {
                phase: 2,
                weight: 0.2,
                start: RegionBound::Point(boundaries[0]),
                end: RegionBound::Instr(2 * total_instrs / 3),
            },
        ],
    }
}

/// Every sink type, interpret vs replay, across all four binaries of
/// two benchmarks: results must be byte-identical.
#[test]
fn replay_matches_interpretation_for_every_sink() {
    for name in ["gzip", "swim"] {
        let (binaries, input) = test_binaries(name);
        for bin in &binaries {
            let trace = record_trace(bin, &input);
            let mem = MemoryConfig::table1();

            let full = simulate_full(bin, &input, &mem);
            assert_eq!(full, replay_full(&trace, &mem).expect("decodes"));

            let fli = simulate_fli_sliced(bin, &input, &mem, FLI_TARGET);
            assert_eq!(
                fli,
                replay_fli_sliced(&trace, &mem, FLI_TARGET).expect("decodes")
            );

            let boundaries = marker_boundaries(bin, &input, 4);
            let marker = simulate_marker_sliced(bin, &input, &mem, &boundaries);
            assert_eq!(
                marker,
                replay_marker_sliced(&trace, &mem, &boundaries).expect("decodes")
            );

            let file = region_file(bin, &input, full.instructions);
            for warmup in [Warmup::Functional, Warmup::Cold] {
                let direct = simulate_regions_with(bin, &input, &mem, &file, warmup);
                assert_eq!(
                    direct,
                    replay_regions_with(&trace, &mem, &file, warmup).expect("decodes")
                );
            }
        }
    }
}

/// A branch-predictor-equipped configuration consumes the recorded
/// branch stream identically to live interpretation.
#[test]
fn replay_matches_interpretation_with_branch_predictor() {
    let (binaries, input) = test_binaries("gzip");
    let mut mem = MemoryConfig::table1();
    mem.branch = Some(cbsp_sim::BranchConfig::default());
    for bin in &binaries {
        let trace = record_trace(bin, &input);
        let full = simulate_full(bin, &input, &mem);
        assert!(full.branches > 0, "predictor must see branches");
        assert_eq!(full, replay_full(&trace, &mem).expect("decodes"));
    }
}

/// Replaying the same trace from many pool workers at once — at 1 and
/// at 8 threads — yields the same results as direct interpretation:
/// replay shares nothing mutable, so thread count cannot matter.
#[test]
fn replay_is_deterministic_across_thread_counts() {
    let (binaries, input) = test_binaries("gzip");
    let bin = &binaries[1];
    let trace = record_trace(bin, &input);
    let mem = MemoryConfig::table1();
    let boundaries = marker_boundaries(bin, &input, 4);

    let full = simulate_full(bin, &input, &mem);
    let fli = simulate_fli_sliced(bin, &input, &mem, FLI_TARGET);
    let marker = simulate_marker_sliced(bin, &input, &mem, &boundaries);
    let file = region_file(bin, &input, full.instructions);
    let regions = simulate_regions_with(bin, &input, &mem, &file, Warmup::Functional);

    for threads in [1usize, 8] {
        let pool = Pool::new(threads);
        let outcomes = pool.run_indexed(2 * threads.max(2), |_| {
            (
                replay_full(&trace, &mem).expect("decodes"),
                replay_fli_sliced(&trace, &mem, FLI_TARGET).expect("decodes"),
                replay_marker_sliced(&trace, &mem, &boundaries).expect("decodes"),
                replay_regions_with(&trace, &mem, &file, Warmup::Functional).expect("decodes"),
            )
        });
        for (got_full, got_fli, got_marker, got_regions) in outcomes {
            assert_eq!(full, got_full, "{threads} threads");
            assert_eq!(fli, got_fli, "{threads} threads");
            assert_eq!(marker, got_marker, "{threads} threads");
            assert_eq!(regions, got_regions, "{threads} threads");
        }
    }
}

/// One fused replay reports both slicings exactly as the two separate
/// replays do — whole-run totals and every interval of both, field for
/// field — for every binary of two benchmarks, with and without the
/// branch predictor, from pools of 1 and 8 threads.
#[test]
fn fused_replay_matches_both_separate_replays() {
    let mut predicted = MemoryConfig::table1();
    predicted.branch = Some(cbsp_sim::BranchConfig::default());
    let pools = [Pool::new(1), Pool::new(8)];
    for name in ["gzip", "swim"] {
        let (binaries, input) = test_binaries(name);
        for bin in &binaries {
            let trace = record_trace(bin, &input);
            let boundaries = marker_boundaries(bin, &input, 4);
            for mem in [MemoryConfig::table1(), predicted] {
                let (stats, marker) =
                    replay_marker_sliced(&trace, &mem, &boundaries).expect("decodes");
                let (fli_stats, fli) =
                    replay_fli_sliced(&trace, &mem, FLI_TARGET).expect("decodes");
                assert_eq!(stats, fli_stats, "slicing must not change the simulation");
                assert_eq!(mem.branch.is_some(), stats.branches > 0);
                let expected = BothSlicings { stats, marker, fli };
                for pool in &pools {
                    let outcomes = pool.run_indexed(pool.threads(), |_| {
                        replay_sliced_both(&trace, &mem, &boundaries, FLI_TARGET).expect("decodes")
                    });
                    for got in outcomes {
                        assert_eq!(
                            got,
                            expected,
                            "{name} {}, predictor {}, {} threads",
                            bin.label(),
                            mem.branch.is_some(),
                            pool.threads()
                        );
                    }
                }
            }
        }
    }
}

/// Per-simpoint trace slices are byte-identical to a full-trace replay
/// restricted to their interval: every slice carries an exact state
/// checkpoint, so its replay reproduces the in-context interval
/// statistics bit-for-bit — all fields, every interval — and slice
/// replay is deterministic across pool thread counts.
#[test]
fn slice_replay_matches_full_replay_restricted_to_the_interval() {
    let (binaries, input) = test_binaries("gzip");
    let bin = &binaries[1];
    let trace = record_trace(bin, &input);
    let mem = MemoryConfig::table1();
    let boundaries = marker_boundaries(bin, &input, 4);
    let selected: Vec<usize> = (0..=boundaries.len()).collect();

    let (_, in_context) = replay_marker_sliced(&trace, &mem, &boundaries).expect("decodes");
    let sliced = slice_trace(&trace, &mem, &boundaries, &selected).expect("slices");
    assert_eq!(sliced.slices.len(), selected.len());

    let baseline: Vec<_> = sliced
        .slices
        .iter()
        .map(|s| replay_slice(s, &mem).expect("decodes"))
        .collect();
    for (slice, replayed) in sliced.slices.iter().zip(&baseline) {
        let i = slice.interval;
        assert_eq!(*replayed, in_context[i], "interval {i}");
    }

    // Thread count is invisible: slices share nothing mutable.
    for threads in [1usize, 8] {
        let pool = Pool::new(threads);
        let outcomes = pool.run_indexed(2 * threads.max(2), |_| {
            sliced
                .slices
                .iter()
                .map(|s| replay_slice(s, &mem).expect("decodes"))
                .collect::<Vec<_>>()
        });
        for got in outcomes {
            assert_eq!(baseline, got, "{threads} threads");
        }
    }
}

/// The gzip 32o trace with 32 candidate boundaries, shared by the
/// fused-replay property.
fn fused_fixture() -> &'static (EventTrace, Vec<ExecPoint>) {
    static FIXTURE: OnceLock<(EventTrace, Vec<ExecPoint>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W32_O2);
        let input = Input::test();
        (
            record_trace(&bin, &input),
            marker_boundaries(&bin, &input, 32),
        )
    })
}

fn recorded_trace() -> EventTrace {
    let prog = workloads::by_name("gzip")
        .expect("in suite")
        .build(Scale::Test);
    let bin = compile(&prog, CompileTarget::W32_O2);
    record_trace(&bin, &Input::test())
}

/// Decode sink that exercises every event path but keeps nothing.
struct Discard;

impl TraceSink for Discard {
    fn on_block(&mut self, _block: cbsp_program::BlockId, _instrs: u64) {}
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any truncation of a recorded buffer is a typed decode error —
    /// the event count promises more data than the buffer holds.
    #[test]
    fn truncated_traces_return_typed_errors(frac in 0.0f64..1.0) {
        let mut trace = recorded_trace();
        let cut = ((trace.bytes.len() - 1) as f64 * frac) as usize;
        trace.bytes.truncate(cut);
        let err = replay(&trace, &mut Discard).expect_err("truncated trace must not decode");
        prop_assert!(matches!(
            err,
            TraceError::UnexpectedEof { .. }
                | TraceError::MalformedVarint { .. }
                | TraceError::InvalidMarkerKind { .. }
        ));
    }

    /// Flipping an arbitrary byte never panics: the decoder either
    /// produces a (different) valid event stream or a typed error.
    #[test]
    fn corrupted_traces_never_panic(offset_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let mut trace = recorded_trace();
        let len = trace.bytes.len();
        let offset = ((len - 1) as f64 * offset_frac) as usize;
        trace.bytes[offset] ^= flip;
        let _ = replay(&trace, &mut Discard);
    }

    /// A truncated slice is a typed decode error and a flipped slice
    /// byte never panics — slices reuse the trace decoder, so they
    /// inherit its corruption contract.
    #[test]
    fn damaged_slices_return_typed_errors(frac in 0.0f64..1.0, flip in 1u8..=255) {
        let trace = recorded_trace();
        let mem = MemoryConfig::table1();
        let prog = workloads::by_name("gzip").expect("in suite").build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W32_O2);
        let boundaries = marker_boundaries(&bin, &Input::test(), 4);
        let sliced = slice_trace(&trace, &mem, &boundaries, &[1]).expect("slices");
        let base = &sliced.slices[0];

        let mut truncated = base.clone();
        let cut = ((truncated.trace.bytes.len() - 1) as f64 * frac) as usize;
        truncated.trace.bytes.truncate(cut);
        let err = replay_slice(&truncated, &mem).expect_err("truncated slice must not decode");
        prop_assert!(matches!(
            err,
            TraceError::UnexpectedEof { .. }
                | TraceError::MalformedVarint { .. }
                | TraceError::InvalidMarkerKind { .. }
        ));

        let mut corrupt = base.clone();
        let offset = ((corrupt.trace.bytes.len() - 1) as f64 * frac) as usize;
        corrupt.trace.bytes[offset] ^= flip;
        let _ = replay_slice(&corrupt, &mem);

        // The state checkpoint inherits the same contract: truncation
        // is a typed error, a flipped byte never panics.
        let mut short_state = base.clone();
        let cut = ((short_state.state.len() - 1) as f64 * frac) as usize;
        short_state.state.truncate(cut);
        let err = replay_slice(&short_state, &mem).expect_err("truncated state must not decode");
        prop_assert!(matches!(
            err,
            TraceError::UnexpectedEof { .. }
                | TraceError::MalformedVarint { .. }
                | TraceError::CorruptState
        ));

        let mut flipped_state = base.clone();
        let offset = ((flipped_state.state.len() - 1) as f64 * frac) as usize;
        flipped_state.state[offset] ^= flip;
        let _ = replay_slice(&flipped_state, &mem);
    }

    /// The fused replay equals the two separate replays for any FLI
    /// target — down to 1, which no block is smaller than, so every
    /// block closes an interval — and any in-order subset of the
    /// candidate boundaries, with or without the branch predictor.
    #[test]
    fn fused_replay_matches_for_any_target_and_boundaries(
        target in prop_oneof![Just(1u64), 2u64..1_000, 1_000u64..200_000],
        mask in any::<u64>(),
        predict in any::<bool>(),
    ) {
        let (trace, candidates) = fused_fixture();
        let boundaries: Vec<ExecPoint> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &b)| b)
            .collect();
        let mut mem = MemoryConfig::table1();
        if predict {
            mem.branch = Some(cbsp_sim::BranchConfig::default());
        }
        let (stats, marker) = replay_marker_sliced(trace, &mem, &boundaries).expect("decodes");
        let (fli_stats, fli) = replay_fli_sliced(trace, &mem, target).expect("decodes");
        prop_assert_eq!(stats, fli_stats);
        let got = replay_sliced_both(trace, &mem, &boundaries, target).expect("decodes");
        prop_assert_eq!(got, BothSlicings { stats, marker, fli });
    }

    /// Growing or shrinking the event count against a fixed buffer is
    /// always caught (missing bytes or trailing bytes).
    #[test]
    fn wrong_event_counts_are_caught(delta in 1u64..1000) {
        let base = recorded_trace();

        let mut grown = base.clone();
        grown.events += delta;
        prop_assert!(replay(&grown, &mut Discard).is_err());

        let mut shrunk = base;
        shrunk.events -= delta.min(shrunk.events);
        let err = replay(&shrunk, &mut Discard).expect_err("unconsumed bytes must be flagged");
        prop_assert!(matches!(err, TraceError::TrailingBytes { .. }));
    }
}
