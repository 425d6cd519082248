//! Interpret-vs-replay equivalence: a replayed trace must reproduce
//! direct interpretation byte-for-byte at any thread count, the fused
//! two-way simulation must equal the two single-slicing simulations,
//! every slice replay must equal its interval of a full run, and
//! damaged trace buffers must come back as typed errors — never panics.

use cbsp_par::Pool;
use cbsp_profile::{ExecPoint, MarkerRef};
use cbsp_program::{
    compile, run, workloads, Binary, CompileTarget, Input, Marker, Scale, TraceSink,
};
use cbsp_sim::{
    record_trace, replay, replay_full, replay_slice, simulate_fli_sliced, simulate_full,
    simulate_marker_sliced, simulate_sliced_both, slice_trace, BothSlicings, EventTrace,
    MemoryConfig, TraceError,
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

/// A replayed trace simulates exactly as direct interpretation does,
/// across all four binaries of two benchmarks.
#[test]
fn replay_full_matches_simulate_full() {
    for name in ["gzip", "swim"] {
        let (binaries, input) = test_binaries(name);
        for bin in &binaries {
            let trace = record_trace(bin, &input);
            let mem = MemoryConfig::table1();
            let full = simulate_full(bin, &input, &mem);
            assert_eq!(full, replay_full(&trace, &mem).expect("decodes"));
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
/// at 8 threads — yields the same result as direct interpretation:
/// replay shares nothing mutable, so thread count cannot matter.
#[test]
fn replay_is_deterministic_across_thread_counts() {
    let (binaries, input) = test_binaries("gzip");
    let bin = &binaries[1];
    let trace = record_trace(bin, &input);
    let mem = MemoryConfig::table1();
    let full = simulate_full(bin, &input, &mem);
    for threads in [1usize, 8] {
        let pool = Pool::new(threads);
        let outcomes = pool.run_indexed(2 * threads.max(2), |_| {
            replay_full(&trace, &mem).expect("decodes")
        });
        for got in outcomes {
            assert_eq!(full, got, "{threads} threads");
        }
    }
}

/// One fused simulation reports both slicings exactly as the two
/// separate simulations do — whole-run totals and every interval of
/// both, field for field — for every binary of two benchmarks, with and
/// without the branch predictor, from pools of 1 and 8 threads.
#[test]
fn fused_simulation_matches_both_separate_simulations() {
    let mut predicted = MemoryConfig::table1();
    predicted.branch = Some(cbsp_sim::BranchConfig::default());
    let pools = [Pool::new(1), Pool::new(8)];
    for name in ["gzip", "swim"] {
        let (binaries, input) = test_binaries(name);
        for bin in &binaries {
            let boundaries = marker_boundaries(bin, &input, 4);
            for mem in [MemoryConfig::table1(), predicted] {
                let (stats, marker) = simulate_marker_sliced(bin, &input, &mem, &boundaries);
                let (fli_stats, fli) = simulate_fli_sliced(bin, &input, &mem, FLI_TARGET);
                assert_eq!(stats, fli_stats, "slicing must not change the simulation");
                assert_eq!(mem.branch.is_some(), stats.branches > 0);
                let expected = BothSlicings { stats, marker, fli };
                for pool in &pools {
                    let outcomes = pool.run_indexed(pool.threads(), |_| {
                        simulate_sliced_both(bin, &input, &mem, &boundaries, FLI_TARGET)
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

/// Per-simpoint trace slices are byte-identical to a full run
/// restricted to their interval: every slice carries an exact state
/// checkpoint, so its replay reproduces the in-context interval
/// statistics of [`simulate_marker_sliced`] bit-for-bit — all fields,
/// every interval — and slice replay is deterministic across pool
/// thread counts.
#[test]
fn slice_replay_matches_the_full_run_restricted_to_the_interval() {
    let (binaries, input) = test_binaries("gzip");
    let bin = &binaries[1];
    let mem = MemoryConfig::table1();
    let boundaries = marker_boundaries(bin, &input, 4);
    let selected: Vec<usize> = (0..=boundaries.len()).collect();

    let (full, in_context) = simulate_marker_sliced(bin, &input, &mem, &boundaries);
    let sliced = slice_trace(bin, &input, &mem, &boundaries, &selected);
    assert_eq!(sliced.full, full);
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

/// The gzip 32o binary with 32 candidate boundaries, shared by the
/// fused-simulation property.
fn fused_fixture() -> &'static (Binary, Vec<ExecPoint>) {
    static FIXTURE: OnceLock<(Binary, Vec<ExecPoint>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W32_O2);
        let boundaries = marker_boundaries(&bin, &Input::test(), 32);
        (bin, boundaries)
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
        let mem = MemoryConfig::table1();
        let prog = workloads::by_name("gzip").expect("in suite").build(Scale::Test);
        let bin = compile(&prog, CompileTarget::W32_O2);
        let boundaries = marker_boundaries(&bin, &Input::test(), 4);
        let sliced = slice_trace(&bin, &Input::test(), &mem, &boundaries, &[1]);
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

    /// The fused simulation equals the two separate simulations for
    /// any FLI target — down to 1, which no block is smaller than, so
    /// every block closes an interval — and any in-order subset of the
    /// candidate boundaries, with or without the branch predictor.
    #[test]
    fn fused_simulation_matches_for_any_target_and_boundaries(
        target in prop_oneof![Just(1u64), 2u64..1_000, 1_000u64..200_000],
        mask in any::<u64>(),
        predict in any::<bool>(),
    ) {
        let (bin, candidates) = fused_fixture();
        let input = Input::test();
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
        let (stats, marker) = simulate_marker_sliced(bin, &input, &mem, &boundaries);
        let (fli_stats, fli) = simulate_fli_sliced(bin, &input, &mem, target);
        prop_assert_eq!(stats, fli_stats);
        let got = simulate_sliced_both(bin, &input, &mem, &boundaries, target);
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
