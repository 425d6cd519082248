//! Event-trace replay: feed a recorded [`EventTrace`] into any
//! [`TraceSink`] without re-running the interpreter.
//!
//! Replay is the hot path of record-once/replay-many: a tight decode
//! loop over the flat byte buffer, with none of the executor's
//! statement-tree walking, occurrence counters, RNG, or address
//! arithmetic. The callback sequence is exactly the one the original
//! [`cbsp_program::run`] produced, so any sink computes byte-identical
//! results from a replay (see `tests/replay_equivalence.rs`).
//!
//! Decoding is total: corrupted or truncated buffers yield a typed
//! [`TraceError`], never a panic.

use crate::config::MemoryConfig;
use crate::record::{unzigzag, EventTrace, TAG_ACCESS, TAG_BLOCK, TAG_MARKER};
use crate::regions::{RegionStats, Warmup};
use crate::runner::{BothSlicedSim, BothSlicings, FliSlicedSim, FullSim, MarkerSlicedSim};
use crate::stats::{IntervalSim, SimStats};
use cbsp_profile::{ExecPoint, PinPointsFile};
use cbsp_program::{BinLoopId, BinProcId, BlockId, Marker, TraceSink};
use std::fmt;

/// A structural defect found while decoding an [`EventTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The buffer ended in the middle of an event.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A varint ran past the 64-bit value range.
    MalformedVarint {
        /// Byte offset of the offending varint byte.
        offset: usize,
    },
    /// A marker event carried an out-of-range marker kind.
    InvalidMarkerKind {
        /// Byte offset of the event head.
        offset: usize,
        /// The kind field found (valid kinds are 0, 1, 2).
        kind: u8,
    },
    /// Decoding consumed the declared event count with bytes left over.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A trace slice's packed simulator state failed to decode (see
    /// [`crate::slice::TraceSlice::state`]).
    CorruptState,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnexpectedEof { offset } => {
                write!(f, "trace truncated: event expected at byte {offset}")
            }
            TraceError::MalformedVarint { offset } => {
                write!(f, "malformed varint at byte {offset}")
            }
            TraceError::InvalidMarkerKind { offset, kind } => {
                write!(f, "invalid marker kind {kind} at byte {offset}")
            }
            TraceError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after last event at byte {offset}")
            }
            TraceError::CorruptState => {
                write!(f, "corrupt packed simulator state in trace slice")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Reads one LEB128 varint starting at `pos`, returning the value and
/// the position after it. One- and two-byte varints — the overwhelming
/// majority under delta encoding — decode inline with one branch per
/// byte; longer (or malformed) varints take [`read_varint_tail`].
#[inline(always)]
pub(crate) fn read_varint(bytes: &[u8], pos: usize) -> Result<(u64, usize), TraceError> {
    match bytes.get(pos) {
        Some(&b0) if b0 & 0x80 == 0 => Ok((u64::from(b0), pos + 1)),
        Some(&b0) => match bytes.get(pos + 1) {
            Some(&b1) if b1 & 0x80 == 0 => {
                Ok((u64::from(b0 & 0x7F) | (u64::from(b1) << 7), pos + 2))
            }
            _ => read_varint_tail(bytes, pos, u64::from(b0 & 0x7F)),
        },
        None => Err(TraceError::UnexpectedEof { offset: pos }),
    }
}

/// Continues a varint whose first byte (already folded into `v`) had
/// its continuation bit set and whose second byte does too (or is
/// missing).
fn read_varint_tail(bytes: &[u8], start: usize, mut v: u64) -> Result<(u64, usize), TraceError> {
    let mut pos = start + 1;
    let mut shift = 7u32;
    loop {
        let b = *bytes
            .get(pos)
            .ok_or(TraceError::UnexpectedEof { offset: pos })?;
        if shift == 63 && b > 1 {
            return Err(TraceError::MalformedVarint { offset: pos });
        }
        v |= u64::from(b & 0x7F) << shift;
        pos += 1;
        if b & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::MalformedVarint { offset: pos });
        }
    }
}

/// Replays every recorded event into `sink`, in recorded order.
///
/// # Errors
///
/// Returns a [`TraceError`] if the buffer is truncated, structurally
/// corrupt, or disagrees with the trace's declared event count. Events
/// already decoded will have reached the sink.
pub fn replay<S: TraceSink>(trace: &EventTrace, sink: &mut S) -> Result<(), TraceError> {
    replay_bytes(&trace.bytes, trace.events, sink)
}

/// [`replay`] from a borrowed byte buffer: decodes `events` events out
/// of `bytes` into `sink` without requiring an owning [`EventTrace`].
/// This is the zero-copy entry point for callers holding trace bytes
/// in some other allocation — a store read buffer, a slice of a larger
/// file — who should not have to move or copy them into an
/// [`EventTrace`] just to replay.
///
/// # Errors
///
/// Returns a [`TraceError`] if the buffer is truncated, structurally
/// corrupt, or disagrees with the declared event count. Events already
/// decoded will have reached the sink.
pub fn replay_bytes<S: TraceSink>(
    bytes: &[u8],
    events: u64,
    sink: &mut S,
) -> Result<(), TraceError> {
    let mut pos = 0usize;
    let mut prev_block = 0u64;
    let mut prev_addr = 0u64;
    let mut prev_branch = 0u64;
    for _ in 0..events {
        let head_at = pos;
        let (head, p) = read_varint(bytes, pos)?;
        pos = p;
        match head & 0b11 {
            TAG_BLOCK => {
                let (instrs, p) = read_varint(bytes, pos)?;
                pos = p;
                prev_block = prev_block.wrapping_add(unzigzag(head >> 2) as u64);
                sink.on_block(BlockId::from(prev_block as u32), instrs);
            }
            TAG_ACCESS => {
                let zz = match head >> 3 {
                    0 => {
                        let (zz, p) = read_varint(bytes, pos)?;
                        pos = p;
                        zz
                    }
                    folded => folded - 1,
                };
                prev_addr = prev_addr.wrapping_add(unzigzag(zz) as u64);
                sink.on_access(prev_addr, head & 0b100 != 0);
            }
            TAG_MARKER => {
                let id = (head >> 4) as u32;
                let marker = match (head >> 2) & 0b11 {
                    0 => Marker::ProcEntry(BinProcId::from(id)),
                    1 => Marker::LoopEntry(BinLoopId::from(id)),
                    2 => Marker::LoopBack(BinLoopId::from(id)),
                    kind => {
                        return Err(TraceError::InvalidMarkerKind {
                            offset: head_at,
                            kind: kind as u8,
                        })
                    }
                };
                sink.on_marker(marker);
            }
            _ => {
                let zz = match head >> 3 {
                    0 => {
                        let (zz, p) = read_varint(bytes, pos)?;
                        pos = p;
                        zz
                    }
                    folded => folded - 1,
                };
                prev_branch = prev_branch.wrapping_add(unzigzag(zz) as u64);
                sink.on_branch(prev_branch, head & 0b100 != 0);
            }
        }
    }
    if pos != bytes.len() {
        return Err(TraceError::TrailingBytes { offset: pos });
    }
    cbsp_trace::add("sim/replays", 1);
    cbsp_trace::add("sim/replay_events", events);
    Ok(())
}

/// [`crate::simulate_full`] from a recorded trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
pub fn replay_full(trace: &EventTrace, config: &MemoryConfig) -> Result<SimStats, TraceError> {
    let _span = cbsp_trace::span_labeled("sim/replay_full", || format!("{} events", trace.events));
    let mut sink = FullSim::new(config);
    replay(trace, &mut sink)?;
    let stats = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    Ok(stats)
}

/// [`crate::simulate_fli_sliced`] from a recorded trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
pub fn replay_fli_sliced(
    trace: &EventTrace,
    config: &MemoryConfig,
    target: u64,
) -> Result<(SimStats, Vec<IntervalSim>), TraceError> {
    let _span = cbsp_trace::span_labeled("sim/replay_fli_sliced", || {
        format!("{} events", trace.events)
    });
    let mut sink = FliSlicedSim::new(config, target);
    replay(trace, &mut sink)?;
    let (stats, intervals) = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    Ok((stats, intervals))
}

/// [`crate::simulate_marker_sliced`] from a recorded trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
///
/// # Panics
///
/// Panics if some boundary was never reached — that means the
/// boundaries do not belong to the recorded `(binary, input)` pair
/// (same contract as [`crate::simulate_marker_sliced`]).
pub fn replay_marker_sliced(
    trace: &EventTrace,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
) -> Result<(SimStats, Vec<IntervalSim>), TraceError> {
    let _span = cbsp_trace::span_labeled("sim/replay_marker_sliced", || {
        format!("{} events", trace.events)
    });
    let mut sink = MarkerSlicedSim::with_dims(
        config,
        trace.n_procs as usize,
        trace.n_loops as usize,
        boundaries.to_vec(),
    );
    replay(trace, &mut sink)?;
    assert_eq!(
        sink.unreached_boundaries(),
        0,
        "marker boundaries must all occur in this binary's execution"
    );
    let (stats, intervals) = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    Ok((stats, intervals))
}

/// [`replay_marker_sliced`] and [`replay_fli_sliced`] in one pass: one
/// cache hierarchy (and predictor) simulates the trace once, and each
/// charge lands in both slicings. The result equals the two separate
/// replays field for field at half the simulation work.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
///
/// # Panics
///
/// Panics if `fli_target` is zero, or if some boundary was never
/// reached (same contract as [`replay_marker_sliced`]).
pub fn replay_sliced_both(
    trace: &EventTrace,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    fli_target: u64,
) -> Result<BothSlicings, TraceError> {
    let _span = cbsp_trace::span_labeled("sim/replay_sliced_both", || {
        format!("{} events", trace.events)
    });
    let marker = MarkerSlicedSim::with_dims(
        config,
        trace.n_procs as usize,
        trace.n_loops as usize,
        boundaries.to_vec(),
    );
    let mut sink = BothSlicedSim::new(marker, fli_target);
    replay(trace, &mut sink)?;
    assert_eq!(
        sink.unreached_boundaries(),
        0,
        "marker boundaries must all occur in this binary's execution"
    );
    let both = sink.finish();
    cbsp_trace::add("sim/instructions", both.stats.instructions);
    Ok(both)
}

/// [`crate::simulate_regions`] from a recorded trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
pub fn replay_regions(
    trace: &EventTrace,
    config: &MemoryConfig,
    file: &PinPointsFile,
) -> Result<Vec<RegionStats>, TraceError> {
    replay_regions_with(trace, config, file, Warmup::Functional)
}

/// [`crate::simulate_regions_with`] from a recorded trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
pub fn replay_regions_with(
    trace: &EventTrace,
    config: &MemoryConfig,
    file: &PinPointsFile,
    warmup: Warmup,
) -> Result<Vec<RegionStats>, TraceError> {
    let _span =
        cbsp_trace::span_labeled("sim/replay_regions", || format!("{} events", trace.events));
    let mut sink = crate::regions::region_sink(
        config,
        file,
        warmup,
        trace.n_procs as usize,
        trace.n_loops as usize,
    );
    replay(trace, &mut sink)?;
    Ok(crate::regions::region_results(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{push_varint, RecordSink};
    use cbsp_program::{compile, run, CompileTarget, Input, ProgramBuilder};

    fn small_trace() -> EventTrace {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_i32("a", 64);
        b.proc("main", |p| {
            p.loop_fixed(7, |body| {
                body.compute(10, |k| {
                    k.seq(a, 4);
                });
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W32_O2);
        let mut sink = RecordSink::for_binary(&bin);
        run(&bin, &Input::test(), &mut sink);
        sink.finish()
    }

    /// Sink that records the raw callback sequence for comparison.
    #[derive(Default, PartialEq, Debug)]
    struct EventLog(Vec<(u64, u64, u64)>);

    impl TraceSink for EventLog {
        fn on_block(&mut self, b: BlockId, instrs: u64) {
            self.0.push((0, u64::from(u32::from(b)), instrs));
        }
        fn on_access(&mut self, addr: u64, w: bool) {
            self.0.push((1, addr, u64::from(w)));
        }
        fn on_marker(&mut self, m: Marker) {
            let (k, id) = match m {
                Marker::ProcEntry(p) => (0u64, u64::from(u32::from(p))),
                Marker::LoopEntry(l) => (1, u64::from(u32::from(l))),
                Marker::LoopBack(l) => (2, u64::from(u32::from(l))),
            };
            self.0.push((2, k, id));
        }
        fn on_branch(&mut self, br: u64, taken: bool) {
            self.0.push((3, br, u64::from(taken)));
        }
    }

    #[test]
    fn replay_reproduces_the_exact_event_sequence() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_f64("a", 256);
        b.proc("main", |p| {
            p.loop_random(5, 15, |body| {
                body.compute(20, |k| {
                    k.random(a, 8).seq(a, 3);
                });
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W64_O0);
        let mut direct = EventLog::default();
        let mut rec = RecordSink::for_binary(&bin);
        run(&bin, &Input::test(), &mut direct);
        run(&bin, &Input::test(), &mut rec);
        let trace = rec.finish();
        let mut replayed = EventLog::default();
        replay(&trace, &mut replayed).expect("valid trace");
        assert_eq!(direct, replayed);
    }

    #[test]
    fn huge_deltas_take_the_escape_encoding_and_round_trip() {
        use crate::record::{zigzag, FOLD_LIMIT};
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.work(1);
        });
        let bin = compile(&b.finish(), CompileTarget::W32_O2);
        let mut rec = RecordSink::for_binary(&bin);
        // Address/branch jumps so large their zigzag code cannot be
        // folded into the head varint — the escape encoding must kick
        // in, and the decoder must recover the exact operands.
        let addrs = [0u64, u64::MAX / 2 + 9, 3, u64::MAX, 0x10];
        let mut expected = Vec::new();
        let mut escapes = 0;
        let mut prev = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            rec.on_access(a, i % 2 == 0);
            rec.on_branch(!a, i % 2 == 1);
            expected.push((1, a, u64::from(i % 2 == 0)));
            expected.push((3, !a, u64::from(i % 2 == 1)));
            if zigzag(a.wrapping_sub(prev) as i64) >= FOLD_LIMIT {
                escapes += 1;
            }
            prev = a;
        }
        assert!(escapes > 0, "test must exercise the escape encoding");
        let trace = rec.finish();
        let mut log = EventLog::default();
        replay(&trace, &mut log).expect("valid trace");
        assert_eq!(log.0, expected);
    }

    #[test]
    fn truncated_trace_reports_eof_not_panic() {
        let full = small_trace();
        for cut in [0, 1, full.bytes.len() / 2, full.bytes.len() - 1] {
            let t = EventTrace {
                bytes: full.bytes[..cut].to_vec(),
                ..full.clone()
            };
            let err = replay(&t, &mut cbsp_program::NullSink).expect_err("truncated");
            assert!(
                matches!(err, TraceError::UnexpectedEof { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut t = small_trace();
        t.bytes.push(0);
        let err = replay(&t, &mut cbsp_program::NullSink).expect_err("trailing");
        assert!(matches!(err, TraceError::TrailingBytes { .. }), "{err}");
    }

    #[test]
    fn invalid_marker_kind_is_typed() {
        let mut t = EventTrace {
            n_procs: 1,
            n_loops: 1,
            events: 1,
            bytes: Vec::new(),
        };
        // Marker head with kind field 3 (invalid).
        push_varint(&mut t.bytes, (5 << 4) | (3 << 2) | TAG_MARKER);
        let err = replay(&t, &mut cbsp_program::NullSink).expect_err("bad kind");
        assert_eq!(err, TraceError::InvalidMarkerKind { offset: 0, kind: 3 });
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let t = EventTrace {
            n_procs: 1,
            n_loops: 1,
            events: 1,
            bytes: vec![0x80; 12],
        };
        let err = replay(&t, &mut cbsp_program::NullSink).expect_err("overlong");
        assert!(matches!(err, TraceError::MalformedVarint { .. }), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceError::UnexpectedEof { offset: 42 };
        assert!(e.to_string().contains("42"));
        fn takes_error<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_error(e);
    }
}
