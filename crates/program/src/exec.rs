//! Deterministic execution of a [`Binary`] on an [`Input`].
//!
//! The executor walks the lowered statement tree and emits a stream of
//! trace events to a [`TraceSink`] — basic-block entries, memory
//! accesses, and marker (procedure-entry / loop-entry / loop-back)
//! executions. This plays the role Pin plays in the paper: any analysis
//! (BBV profiling, call/loop profiling, region extraction, cache
//! simulation) is a sink over this stream.
//!
//! # The cross-binary invariant
//!
//! All *semantic* decisions — trip counts, branch outcomes — are pure
//! functions of `(input seed, semantic coordinate, occurrence index)`,
//! where occurrence indices are tracked per `(call-path, source site)`.
//! Consequently every binary compiled from the same source replays the
//! same decisions, and the execution counts of corresponding markers
//! agree across binaries — the property the paper's mappable points
//! rely on (§3.2.2: "the execution count across all binary versions
//! must match").
//!
//! Split-loop clones share the source loop's trip sequence: the clone
//! with [`CloneRole::Original`] evaluates and caches the trip for each
//! semantic entry; later clones replay the cached value.

use crate::binary::{Binary, CloneRole, LStmt, LoweredLoop};
use crate::ids::{BinLoopId, BinProcId, BlockId, Line};
use crate::input::Input;
use crate::memory::OpKind;
use crate::rng::{self, PassThroughBuild, SplitMix64};
use crate::source::Cond;
use std::collections::HashMap;

/// A marker execution: the events cross-binary mapping is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// A procedure entry point was executed.
    ProcEntry(BinProcId),
    /// A loop was entered (once per entry, regardless of iterations).
    LoopEntry(BinLoopId),
    /// The loop-back branch executed (once per iteration, or per
    /// unrolled group in unrolled loops).
    LoopBack(BinLoopId),
}

/// Consumer of the execution event stream.
///
/// All methods have no-op defaults except [`TraceSink::on_block`], so a
/// sink implements only what it needs; unused callbacks compile away.
pub trait TraceSink {
    /// A basic block executed, committing `instrs` instructions.
    fn on_block(&mut self, block: BlockId, instrs: u64);

    /// A data memory access.
    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        let _ = (addr, is_write);
    }

    /// A marker executed. Fires *before* the marker's associated block.
    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        let _ = marker;
    }

    /// A conditional branch resolved. `branch` identifies the static
    /// branch instruction (stable within one binary); `taken` is its
    /// outcome. Loop back-branches report taken while iterating and
    /// not-taken on exit; `If` branches report the condition outcome.
    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        let _ = (branch, taken);
    }
}

/// A sink that ignores every event (counts-only runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn on_block(&mut self, _: BlockId, _: u64) {}
}

/// Aggregate counts of one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Total committed instructions.
    pub instructions: u64,
    /// Total data memory accesses (semantic + spill).
    pub accesses: u64,
    /// Total basic-block executions.
    pub block_executions: u64,
    /// Executions per procedure entry, indexed by [`BinProcId`].
    pub proc_entries: Vec<u64>,
    /// Entries per loop, indexed by [`BinLoopId`].
    pub loop_entries: Vec<u64>,
    /// Back-branch executions per loop, indexed by [`BinLoopId`].
    pub loop_backs: Vec<u64>,
}

/// Runs `binary` on `input`, streaming events into `sink`.
///
/// Returns aggregate counts. The run is fully deterministic: the same
/// `(binary, input)` yields an identical event stream.
pub fn run<S: TraceSink>(binary: &Binary, input: &Input, sink: &mut S) -> ExecSummary {
    let mut exec = Executor {
        bin: binary,
        seed: input.seed,
        sink,
        cursors: vec![0u64; binary.layout.arrays.len()],
        counters: HashMap::with_capacity_and_hasher(1024, PassThroughBuild),
        path: 0,
        depth: 0,
        loop_ctx: Vec::with_capacity(16),
        noise: SplitMix64::new(rng::combine(input.seed, 0x5EED_0F00)),
        summary: ExecSummary {
            proc_entries: vec![0; binary.procs.len()],
            loop_entries: vec![0; binary.loops.len()],
            loop_backs: vec![0; binary.loops.len()],
            ..ExecSummary::default()
        },
    };
    exec.enter_proc(binary.main_proc);
    exec.summary
}

/// Occurrence-counter slot: next occurrence index plus the cached
/// `(trip, entry)` of the most recent loop-entry evaluation (used by
/// split clones).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    next: u64,
    cached_trip: u64,
    cached_entry: u64,
}

#[derive(Debug, Clone, Copy)]
struct LoopCtx {
    /// Current semantic iteration index of the loop.
    iter: u64,
    /// Semantic entry index of the current entry.
    entry: u64,
}

struct Executor<'b, 's, S> {
    bin: &'b Binary,
    seed: u64,
    sink: &'s mut S,
    cursors: Vec<u64>,
    counters: HashMap<u64, Slot, PassThroughBuild>,
    /// Hash of the current call path (sequence of call-site lines).
    path: u64,
    /// Current call depth (stack frame index for spill addresses).
    depth: u64,
    loop_ctx: Vec<LoopCtx>,
    /// Microarchitectural (non-semantic) randomness: random array
    /// indices. Does not need to agree across binaries.
    noise: SplitMix64,
    summary: ExecSummary,
}

impl<'b, S: TraceSink> Executor<'b, '_, S> {
    fn enter_proc(&mut self, proc: BinProcId) {
        self.sink.on_marker(Marker::ProcEntry(proc));
        self.summary.proc_entries[proc.index()] += 1;
        let body: &'b [LStmt] = &self.bin.code[proc.index()];
        self.run_stmts(body);
    }

    fn run_stmts(&mut self, stmts: &'b [LStmt]) {
        for s in stmts {
            match s {
                LStmt::Block(b) => self.exec_block(*b),
                LStmt::Loop(l) => self.run_loop(l),
                LStmt::Call {
                    site,
                    callee,
                    call_block,
                } => {
                    self.exec_block(*call_block);
                    let saved = self.path;
                    self.path = rng::combine(saved, u64::from(site.0));
                    self.depth += 1;
                    self.enter_proc(*callee);
                    self.depth -= 1;
                    self.path = saved;
                }
                LStmt::Inlined {
                    site,
                    glue_block,
                    body,
                } => {
                    self.exec_block(*glue_block);
                    // Identical path update to the out-of-line call so
                    // semantic occurrence keys agree across binaries.
                    let saved = self.path;
                    self.path = rng::combine(saved, u64::from(site.0));
                    self.depth += 1;
                    self.run_stmts(body);
                    self.depth -= 1;
                    self.path = saved;
                }
                LStmt::If {
                    site,
                    cond,
                    cond_block,
                    then_body,
                    else_body,
                } => {
                    self.exec_block(*cond_block);
                    let taken = self.eval_cond(*cond, *site);
                    self.sink
                        .on_branch(0x1F00_0000_0000_0000 | u64::from(site.0), taken);
                    if taken {
                        self.run_stmts(then_body);
                    } else {
                        self.run_stmts(else_body);
                    }
                }
            }
        }
    }

    fn run_loop(&mut self, l: &'b LoweredLoop) {
        self.sink.on_marker(Marker::LoopEntry(l.id));
        self.summary.loop_entries[l.id.index()] += 1;
        self.exec_block(l.entry_block);

        // Semantic trip count for this entry.
        let key = rng::combine(self.path, 0x4C4F_4F50 ^ (u64::from(l.source.0) << 8));
        let (trip, entry) = match l.clone {
            CloneRole::Original => {
                let slot = self.counters.entry(key).or_default();
                let entry = slot.next;
                slot.next += 1;
                let trip = l.trip.eval(self.seed, l.source, entry);
                slot.cached_trip = trip;
                slot.cached_entry = entry;
                (trip, entry)
            }
            CloneRole::SplitClone { .. } => {
                let slot = self
                    .counters
                    .get(&key)
                    .copied()
                    .expect("split clone executed before its Original clone");
                (slot.cached_trip, slot.cached_entry)
            }
        };

        self.loop_ctx.push(LoopCtx { iter: 0, entry });
        let unroll = u64::from(l.unroll.max(1));
        let mut iter = 0u64;
        let mut remaining = trip;
        // Full unrolled groups: one back-branch per `unroll` iterations.
        while remaining >= unroll {
            for _ in 0..unroll {
                self.loop_ctx.last_mut().expect("ctx pushed above").iter = iter;
                self.run_stmts(&l.body);
                iter += 1;
            }
            remaining -= unroll;
            self.loop_back(l, remaining > 0);
        }
        // Leftover iterations: one back-branch each.
        while remaining > 0 {
            self.loop_ctx.last_mut().expect("ctx pushed above").iter = iter;
            self.run_stmts(&l.body);
            iter += 1;
            remaining -= 1;
            self.loop_back(l, remaining > 0);
        }
        self.loop_ctx.pop();
    }

    #[inline]
    fn loop_back(&mut self, l: &LoweredLoop, taken: bool) {
        self.sink.on_marker(Marker::LoopBack(l.id));
        self.summary.loop_backs[l.id.index()] += 1;
        self.exec_block(l.back_block);
        // Static branch identity: loop back-branches are tagged apart
        // from If branches.
        self.sink
            .on_branch(0x4C00_0000_0000_0000 | u64::from(l.id.0), taken);
    }

    fn eval_cond(&mut self, cond: Cond, site: Line) -> bool {
        let ctx = self
            .loop_ctx
            .last()
            .copied()
            .unwrap_or(LoopCtx { iter: 0, entry: 0 });
        match cond {
            Cond::Always => true,
            Cond::Never => false,
            Cond::IterLt(n) => ctx.iter < n,
            Cond::IterMod { m, r } => ctx.iter % m.max(1) == r,
            Cond::EntryLt(n) => ctx.entry < n,
            Cond::Random { num, den } => {
                let key = rng::combine(self.path, 0xC0ED ^ (u64::from(site.0) << 8));
                let slot = self.counters.entry(key).or_default();
                let occurrence = slot.next;
                slot.next += 1;
                let raw = rng::keyed(self.seed, key, occurrence);
                (raw % u64::from(den.max(1))) < u64::from(num)
            }
        }
    }

    fn exec_block(&mut self, bid: BlockId) {
        let block = &self.bin.blocks[bid.index()];
        self.summary.instructions += block.instrs;
        self.summary.block_executions += 1;
        self.sink.on_block(bid, block.instrs);

        // Semantic memory operations.
        for op in &block.ops {
            let layout = &self.bin.layout;
            let a = &layout.arrays[op.array.index()];
            let cursor = &mut self.cursors[op.array.index()];
            for i in 0..op.count {
                let idx = match op.kind {
                    OpKind::Sequential => {
                        let v = *cursor;
                        *cursor += 1;
                        v
                    }
                    OpKind::Strided { stride } => {
                        let v = *cursor;
                        *cursor += u64::from(stride);
                        v
                    }
                    OpKind::RandomUniform => self.noise.next_below(a.len),
                    OpKind::Gather { window } => {
                        let v = *cursor + self.noise.next_below(u64::from(window.max(1)));
                        *cursor += 1;
                        v
                    }
                    OpKind::Stencil { radius } => {
                        let v = if i % 2 == 1 {
                            *cursor + u64::from(radius)
                        } else {
                            *cursor
                        };
                        if i % 2 == 1 {
                            *cursor += 1;
                        }
                        v
                    }
                };
                let addr = a.base + (idx % a.len) * u64::from(a.elem_bytes);
                let is_write = (u64::from(i).wrapping_mul(37) % 100) < u64::from(op.write_pct);
                self.sink.on_access(addr, is_write);
            }
            self.summary.accesses += u64::from(op.count);
        }

        // Spill (stack) traffic: cycles within the current frame.
        if block.stack_accesses > 0 {
            let frame = self.bin.layout.stack_base + self.depth * self.bin.layout.frame_bytes;
            let span = self.bin.layout.frame_bytes.max(8);
            for i in 0..block.stack_accesses {
                let addr = frame + (u64::from(i) * 8) % span;
                self.sink.on_access(addr, i % 3 == 0);
            }
            self.summary.accesses += u64::from(block.stack_accesses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::compiler::{compile, CompileTarget};
    use crate::source::{Cond, LoopHints, TripCount};

    fn run_counts(prog: &crate::source::SourceProgram, t: CompileTarget) -> ExecSummary {
        let bin = compile(prog, t);
        run(&bin, &Input::test(), &mut NullSink)
    }

    #[test]
    fn execution_is_deterministic() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_f64("a", 256);
        b.proc("main", |p| {
            p.loop_random(5, 15, |body| {
                body.compute(20, |k| {
                    k.random(a, 8);
                });
            });
        });
        let prog = b.finish();
        let s1 = run_counts(&prog, CompileTarget::W32_O2);
        let s2 = run_counts(&prog, CompileTarget::W32_O2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn loop_counts_agree_across_all_four_binaries() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(7, |outer| {
                outer.loop_random(3, 9, |inner| inner.work(10));
                outer.call("f");
            });
        });
        b.proc("f", |p| {
            p.loop_random(1, 4, |body| body.work(5));
        });
        let prog = b.finish();

        let summaries: Vec<ExecSummary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| run_counts(&prog, t))
            .collect();
        for s in &summaries[1..] {
            assert_eq!(s.proc_entries, summaries[0].proc_entries);
            assert_eq!(s.loop_entries, summaries[0].loop_entries);
            assert_eq!(s.loop_backs, summaries[0].loop_backs);
        }
        assert_eq!(summaries[0].proc_entries, vec![1, 7]);
        assert_eq!(summaries[0].loop_entries[0], 1);
        assert_eq!(summaries[0].loop_entries[1], 7);
    }

    #[test]
    fn unrolling_divides_back_branch_count_but_not_entries() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_with(
                TripCount::Fixed(10),
                LoopHints {
                    unroll: 4,
                    split: false,
                },
                |body| body.work(10),
            );
        });
        let prog = b.finish();
        let o0 = run_counts(&prog, CompileTarget::W32_O0);
        let o2 = run_counts(&prog, CompileTarget::W32_O2);
        assert_eq!(o0.loop_entries[0], 1);
        assert_eq!(o2.loop_entries[0], 1);
        assert_eq!(o0.loop_backs[0], 10, "-O0: one back-branch per iteration");
        // 10 = 2 groups of 4 + 2 leftover iterations = 2 + 2 = 4 backs.
        assert_eq!(o2.loop_backs[0], 4, "-O2: unrolled back-branch count");
    }

    #[test]
    fn split_clones_replay_the_same_trip_counts() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(6, |outer| {
                outer.loop_with(
                    TripCount::Random { lo: 2, hi: 20 },
                    LoopHints {
                        unroll: 0,
                        split: true,
                    },
                    |body| {
                        body.work(10);
                        body.work(20);
                    },
                );
            });
        });
        let prog = b.finish();
        let o0 = run_counts(&prog, CompileTarget::W32_O0);
        let o2 = run_counts(&prog, CompileTarget::W32_O2);
        // -O0: one inner loop. -O2: two clones. Each clone's back count
        // must equal the original's (same semantic trips).
        let total_o0_inner_backs = o0.loop_backs[1];
        assert_eq!(o2.loop_backs[1], total_o0_inner_backs);
        assert_eq!(o2.loop_backs[2], total_o0_inner_backs);
        // Entries: clone entered once per semantic entry.
        assert_eq!(o2.loop_entries[1], 6);
        assert_eq!(o2.loop_entries[2], 6);
    }

    #[test]
    fn inlining_preserves_semantic_counts() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(5, |outer| {
                outer.call("hot");
                outer.call("hot2");
            });
        });
        b.inline_proc("hot", |p| {
            p.loop_random(2, 8, |body| body.work(10));
        });
        b.inline_proc("hot2", |p| {
            p.loop_random(2, 8, |body| body.work(10));
        });
        let prog = b.finish();
        let o0 = run_counts(&prog, CompileTarget::W64_O0);
        let o2 = run_counts(&prog, CompileTarget::W64_O2);
        // Loop back totals must agree even though O2 has no `hot` procs
        // and its loops are duplicated per inline site.
        let o0_total: u64 = o0.loop_backs.iter().sum();
        let o2_total: u64 = o2.loop_backs.iter().sum();
        assert_eq!(o0_total, o2_total);
        assert_eq!(o2.proc_entries.len(), 1, "only main survives at -O2");
    }

    #[test]
    fn conds_take_the_same_arms_across_binaries() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(50, |body| {
                body.if_else(
                    Cond::Random { num: 1, den: 3 },
                    |t| t.call("taken"),
                    |e| e.call("fallthrough"),
                );
            });
        });
        b.proc("taken", |p| p.work(1));
        b.proc("fallthrough", |p| p.work(1));
        let prog = b.finish();
        let counts: Vec<Vec<u64>> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| run_counts(&prog, t).proc_entries)
            .collect();
        for c in &counts[1..] {
            assert_eq!(*c, counts[0]);
        }
        let taken = counts[0][1];
        let fall = counts[0][2];
        assert_eq!(taken + fall, 50);
        assert!(taken > 0 && fall > 0, "both arms exercised: {taken}/{fall}");
    }

    #[test]
    fn o0_executes_far_more_instructions_than_o2() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_f64("a", 512);
        b.proc("main", |p| {
            p.loop_fixed(100, |body| {
                body.compute(100, |k| {
                    k.seq(a, 8);
                });
            });
        });
        let prog = b.finish();
        let o0 = run_counts(&prog, CompileTarget::W32_O0);
        let o2 = run_counts(&prog, CompileTarget::W32_O2);
        let ratio = o0.instructions as f64 / o2.instructions as f64;
        assert!(ratio > 2.0, "O0/O2 instruction ratio {ratio}");
        assert!(o0.accesses > o2.accesses, "spill traffic adds accesses");
    }

    #[test]
    fn entry_lt_cond_switches_between_entries() {
        use crate::source::Cond;
        // The inner loop is entered once per outer iteration; EntryLt
        // flips behaviour after the 3rd entry.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(10, |outer| {
                outer.loop_fixed(4, |inner| {
                    inner.if_else(Cond::EntryLt(3), |t| t.call("early"), |e| e.call("late"));
                });
            });
        });
        b.proc("early", |p| p.work(1));
        b.proc("late", |p| p.work(1));
        let prog = b.finish();
        for t in CompileTarget::ALL_FOUR {
            let s = run_counts(&prog, t);
            assert_eq!(s.proc_entries[1], 3 * 4, "{t}: early entries");
            assert_eq!(s.proc_entries[2], 7 * 4, "{t}: late entries");
        }
    }

    #[test]
    fn ramp_trip_counts_execute_and_agree() {
        use crate::source::{LoopHints, TripCount};
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(10, |outer| {
                outer.loop_with(
                    TripCount::Ramp {
                        base: 20,
                        slope_num: -2,
                        slope_den: 1,
                    },
                    LoopHints::default(),
                    |body| body.work(5),
                );
            });
        });
        let prog = b.finish();
        let expected: u64 = (0..10).map(|e| 20 - 2 * e).sum();
        for t in CompileTarget::ALL_FOUR {
            let s = run_counts(&prog, t);
            assert_eq!(s.loop_backs[1], expected, "{t}");
        }
    }

    #[test]
    fn stencil_and_strided_addresses_stay_in_bounds() {
        struct BoundsCheck {
            lo: u64,
            hi: u64,
            seen: u64,
        }
        impl TraceSink for BoundsCheck {
            fn on_block(&mut self, _: BlockId, _: u64) {}
            fn on_access(&mut self, addr: u64, _: bool) {
                // Stack accesses live at 0x7000_0000+; array data below.
                if addr < 0x7000_0000 {
                    assert!(
                        addr >= self.lo && addr < self.hi,
                        "addr {addr:#x} outside [{:#x}, {:#x})",
                        self.lo,
                        self.hi
                    );
                }
                self.seen += 1;
            }
        }
        let mut b = ProgramBuilder::new("t");
        let arr = b.array_f64("a", 100);
        b.proc("main", |p| {
            p.loop_fixed(50, |body| {
                body.compute(10, |k| {
                    k.stencil(arr, 7, 5).strided(arr, 13, 3);
                });
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W64_O2);
        let a = &bin.layout.arrays[0];
        let mut sink = BoundsCheck {
            lo: a.base,
            hi: a.base + a.len * u64::from(a.elem_bytes),
            seen: 0,
        };
        run(&bin, &Input::test(), &mut sink);
        assert!(sink.seen > 300);
    }

    #[test]
    fn marker_stream_matches_summary() {
        #[derive(Default)]
        struct CountSink {
            blocks: u64,
            instrs: u64,
            markers: u64,
            accesses: u64,
        }
        impl TraceSink for CountSink {
            fn on_block(&mut self, _: BlockId, instrs: u64) {
                self.blocks += 1;
                self.instrs += instrs;
            }
            fn on_access(&mut self, _: u64, _: bool) {
                self.accesses += 1;
            }
            fn on_marker(&mut self, _: Marker) {
                self.markers += 1;
            }
        }
        let mut b = ProgramBuilder::new("t");
        let a = b.array_i32("a", 64);
        b.proc("main", |p| {
            p.loop_fixed(9, |body| {
                body.compute(10, |k| {
                    k.seq(a, 4);
                });
            });
        });
        let prog = b.finish();
        let bin = compile(&prog, CompileTarget::W32_O2);
        let mut sink = CountSink::default();
        let summary = run(&bin, &Input::test(), &mut sink);
        assert_eq!(sink.blocks, summary.block_executions);
        assert_eq!(sink.instrs, summary.instructions);
        assert_eq!(sink.accesses, summary.accesses);
        let marker_total: u64 = summary.proc_entries.iter().sum::<u64>()
            + summary.loop_entries.iter().sum::<u64>()
            + summary.loop_backs.iter().sum::<u64>();
        assert_eq!(sink.markers, marker_total);
    }
}
