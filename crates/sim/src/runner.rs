//! Simulation drivers: full runs and interval-sliced runs.
//!
//! The performance model is CMP$im's in-order core (§4): every
//! instruction costs one cycle, plus each data access costs the hit
//! latency of the level that services it. Sliced runs additionally
//! report per-interval `(instructions, cycles)` so the harness can
//! compute each interval's *in-context* CPI — the ground truth that
//! simulation-point estimates are judged against.
//!
//! Slicing semantics match the profilers exactly:
//! * fixed-length slices close after the basic block that reaches the
//!   target (same rule as [`cbsp_profile::FliProfiler`]);
//! * marker slices close when the boundary marker fires, *before* the
//!   marker's following block (same rule as the VLI builder in
//!   `cbsp-core`).

use crate::branch::Gshare;
use crate::config::MemoryConfig;
use crate::hierarchy::{Hierarchy, ServicedBy};
use crate::stats::{IntervalSim, SimStats};
use cbsp_profile::{ExecPoint, MarkerCounts};
use cbsp_program::{run, Binary, BlockId, Input, Marker, TraceSink};

/// The shared cache + accounting engine behind every simulation sink.
#[derive(Debug)]
pub(crate) struct Engine {
    hierarchy: Hierarchy,
    predictor: Option<Gshare>,
    stats: SimStats,
    pub(crate) cur: IntervalSim,
    intervals: Vec<IntervalSim>,
}

impl Engine {
    pub(crate) fn new(config: &MemoryConfig) -> Self {
        Engine {
            hierarchy: Hierarchy::new(config),
            predictor: config.branch.as_ref().map(Gshare::new),
            stats: SimStats::default(),
            cur: IntervalSim::default(),
            intervals: Vec::new(),
        }
    }

    // The per-event methods touch only the open interval's counters;
    // whole-run totals are folded in at interval close (`absorb`), so
    // the hot path updates one accumulator instead of two. The sums
    // are associative u64 additions, so the finished totals are
    // identical to per-event accounting.

    /// Resolves a branch and charges its mispredict penalty; returns
    /// the penalty (0 without a predictor) for [`BothSlicedSim`] to
    /// charge again.
    #[inline]
    pub(crate) fn branch(&mut self, branch: u64, taken: bool) -> u64 {
        let Some(p) = &mut self.predictor else {
            return 0;
        };
        let penalty = p.resolve(branch, taken);
        self.cur.cycles += penalty;
        penalty
    }

    #[inline]
    pub(crate) fn block(&mut self, instrs: u64) {
        self.cur.charge_block(instrs);
    }

    /// Services and charges one access; returns the servicing level and
    /// latency for [`BothSlicedSim`] to charge again.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, is_write: bool) -> (ServicedBy, u64) {
        let (level, latency) = self.hierarchy.access(addr, is_write);
        self.cur.charge_access(level, latency);
        (level, latency)
    }

    /// Packs the microarchitectural state — cache hierarchy plus the
    /// optional branch predictor — into a flat byte buffer. Together
    /// with [`Engine::restore_state`] this is the checkpoint mechanism
    /// behind trace slicing: a fresh engine restored from the packed
    /// bytes simulates any future event sequence bit-identically to
    /// the engine that packed them (statistics counters restart at
    /// zero; per-interval `cur` accounting is unaffected by them).
    pub(crate) fn pack_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.hierarchy.pack_state(&mut out);
        if let Some(p) = &self.predictor {
            p.pack_state(&mut out);
        }
        out
    }

    /// Restores state packed by [`Engine::pack_state`] on an engine of
    /// the same [`MemoryConfig`] (which fixes the geometry of every
    /// component, and whether a predictor is present).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::replay::TraceError`] if the bytes are
    /// truncated, structurally invalid, or longer than the
    /// configuration calls for.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> Result<(), crate::replay::TraceError> {
        let pos = self.hierarchy.unpack_state(bytes, 0)?;
        let pos = match &mut self.predictor {
            Some(p) => p.unpack_state(bytes, pos)?,
            None => pos,
        };
        if pos != bytes.len() {
            return Err(crate::replay::TraceError::CorruptState);
        }
        Ok(())
    }

    /// Folds the open interval's counters into the whole-run totals.
    fn absorb(&mut self) {
        self.stats.instructions += self.cur.instructions;
        self.stats.cycles += self.cur.cycles;
        self.stats.accesses += self.cur.accesses;
        self.stats.dram_accesses += self.cur.dram_accesses;
    }

    pub(crate) fn close_interval(&mut self) {
        self.absorb();
        self.intervals.push(self.cur);
        self.cur = IntervalSim::default();
    }

    fn finish(mut self) -> (SimStats, Vec<IntervalSim>) {
        if self.cur.instructions > 0 {
            self.close_interval();
        } else {
            // A tail that executed no instructions is not an interval,
            // but any cycles it carries still belong to the totals.
            self.absorb();
        }
        self.stats.levels = self.hierarchy.level_stats();
        self.stats.dram_writebacks = self.hierarchy.writebacks_to_dram();
        if let Some(p) = &self.predictor {
            self.stats.branches = p.branches();
            self.stats.branch_mispredicts = p.mispredicts();
        }
        (self.stats, self.intervals)
    }
}

/// Sink for an unsliced full-program simulation.
#[derive(Debug)]
pub struct FullSim {
    engine: Engine,
}

impl FullSim {
    /// Creates a full-simulation sink.
    pub fn new(config: &MemoryConfig) -> Self {
        FullSim {
            engine: Engine::new(config),
        }
    }

    /// Finishes and returns the aggregate statistics.
    pub fn finish(self) -> SimStats {
        self.engine.finish().0
    }
}

impl TraceSink for FullSim {
    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.engine.branch(branch, taken);
    }

    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        self.engine.block(instrs);
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.engine.access(addr, is_write);
    }
}

/// Sink that slices the simulation into fixed-length intervals.
#[derive(Debug)]
pub struct FliSlicedSim {
    engine: Engine,
    target: u64,
}

impl FliSlicedSim {
    /// Creates a sliced-simulation sink cutting every `target`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn new(config: &MemoryConfig, target: u64) -> Self {
        assert!(target > 0, "interval target must be positive");
        FliSlicedSim {
            engine: Engine::new(config),
            target,
        }
    }

    /// Finishes, returning aggregate and per-interval statistics.
    pub fn finish(self) -> (SimStats, Vec<IntervalSim>) {
        self.engine.finish()
    }
}

impl TraceSink for FliSlicedSim {
    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.engine.branch(branch, taken);
    }

    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        self.engine.block(instrs);
        if self.engine.cur.instructions >= self.target {
            self.engine.close_interval();
        }
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.engine.access(addr, is_write);
    }
}

/// Sink that slices the simulation at marker execution coordinates
/// (the mapped VLI boundaries of `cbsp-core`).
#[derive(Debug)]
pub struct MarkerSlicedSim {
    engine: Engine,
    boundaries: Vec<ExecPoint>,
    next: usize,
    counts: MarkerCounts,
}

impl MarkerSlicedSim {
    /// Creates a sink cutting at each of `boundaries`, which must be in
    /// execution order for the binary being simulated.
    pub fn new(config: &MemoryConfig, binary: &Binary, boundaries: Vec<ExecPoint>) -> Self {
        MarkerSlicedSim {
            engine: Engine::new(config),
            boundaries,
            next: 0,
            counts: MarkerCounts::new(binary.procs.len(), binary.loops.len()),
        }
    }

    /// Finishes, returning aggregate and per-interval statistics.
    /// There is one interval per boundary plus a final tail (if it
    /// executed any instructions).
    pub fn finish(self) -> (SimStats, Vec<IntervalSim>) {
        self.engine.finish()
    }

    /// Number of boundaries not yet reached (0 after a complete run).
    pub fn unreached_boundaries(&self) -> usize {
        self.boundaries.len() - self.next
    }

    /// Number of intervals closed so far — equivalently, the index of
    /// the interval the next event will be charged to. Trace slicing
    /// uses this to attribute each event to an interval.
    pub fn intervals_closed(&self) -> usize {
        self.next
    }

    /// Packs the engine's microarchitectural state (see
    /// [`Engine::pack_state`]). Trace slicing checkpoints this at each
    /// selected interval's first event so a slice replay can resume
    /// mid-run with the exact cache and predictor contents.
    pub(crate) fn state_snapshot(&self) -> Vec<u8> {
        self.engine.pack_state()
    }
}

impl TraceSink for MarkerSlicedSim {
    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.engine.branch(branch, taken);
    }

    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        self.engine.block(instrs);
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.engine.access(addr, is_write);
    }

    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        let count = self.counts.observe(marker);
        if let Some(b) = self.boundaries.get(self.next) {
            if b.marker.to_marker() == marker && b.count == count {
                self.engine.close_interval();
                self.next += 1;
            }
        }
    }
}

/// Whole-run statistics of one simulation and its two slicings, from
/// [`simulate_sliced_both`].
#[derive(Debug, Clone, PartialEq)]
pub struct BothSlicings {
    /// Whole-program statistics, which slicing does not change.
    pub stats: SimStats,
    /// One interval per marker boundary plus a final tail (if it
    /// executed any instructions), as from [`MarkerSlicedSim`].
    pub marker: Vec<IntervalSim>,
    /// Fixed-length intervals, as from [`FliSlicedSim`].
    pub fli: Vec<IntervalSim>,
}

/// Sink that slices one simulation both ways at once. The marker side
/// is a whole [`MarkerSlicedSim`]; every block, access and branch
/// penalty its engine charges is charged again to a fixed-length open
/// interval, which closes by [`FliSlicedSim`]'s rule. One hierarchy and
/// one predictor serve both slicings.
#[derive(Debug)]
struct BothSlicedSim {
    marker: MarkerSlicedSim,
    target: u64,
    fli_cur: IntervalSim,
    fli: Vec<IntervalSim>,
}

impl BothSlicedSim {
    /// # Panics
    ///
    /// Panics if `target` is zero.
    fn new(marker: MarkerSlicedSim, target: u64) -> Self {
        assert!(target > 0, "interval target must be positive");
        BothSlicedSim {
            marker,
            target,
            fli_cur: IntervalSim::default(),
            fli: Vec::new(),
        }
    }

    fn unreached_boundaries(&self) -> usize {
        self.marker.unreached_boundaries()
    }

    fn finish(mut self) -> BothSlicings {
        // The tail rule of `Engine::finish`.
        if self.fli_cur.instructions > 0 {
            self.fli.push(self.fli_cur);
        }
        let (stats, marker) = self.marker.finish();
        BothSlicings {
            stats,
            marker,
            fli: self.fli,
        }
    }
}

impl TraceSink for BothSlicedSim {
    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.fli_cur.cycles += self.marker.engine.branch(branch, taken);
    }

    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        self.marker.engine.block(instrs);
        self.fli_cur.charge_block(instrs);
        if self.fli_cur.instructions >= self.target {
            self.fli.push(std::mem::take(&mut self.fli_cur));
        }
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        let (level, latency) = self.marker.engine.access(addr, is_write);
        self.fli_cur.charge_access(level, latency);
    }

    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        self.marker.on_marker(marker);
    }
}

/// Simulates `binary` on `input` to completion.
pub fn simulate_full(binary: &Binary, input: &Input, config: &MemoryConfig) -> SimStats {
    let _span = cbsp_trace::span_labeled("sim/full", || binary.label());
    let mut sink = FullSim::new(config);
    run(binary, input, &mut sink);
    let stats = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    stats
}

/// Simulates `binary` sliced into fixed-length intervals of `target`
/// instructions. Returns `(whole-program stats, per-interval stats)`.
pub fn simulate_fli_sliced(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    target: u64,
) -> (SimStats, Vec<IntervalSim>) {
    let _span = cbsp_trace::span_labeled("sim/fli_sliced", || binary.label());
    let mut sink = FliSlicedSim::new(config, target);
    run(binary, input, &mut sink);
    let (stats, intervals) = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    (stats, intervals)
}

/// Simulates `binary` sliced at marker boundaries.
///
/// # Panics
///
/// Panics if some boundary was never reached — that means the
/// boundaries do not belong to this `(binary, input)` pair.
pub fn simulate_marker_sliced(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
) -> (SimStats, Vec<IntervalSim>) {
    let _span = cbsp_trace::span_labeled("sim/marker_sliced", || binary.label());
    let mut sink = MarkerSlicedSim::new(config, binary, boundaries.to_vec());
    run(binary, input, &mut sink);
    assert_eq!(
        sink.unreached_boundaries(),
        0,
        "marker boundaries must all occur in this binary's execution"
    );
    let (stats, intervals) = sink.finish();
    cbsp_trace::add("sim/instructions", stats.instructions);
    (stats, intervals)
}

/// [`simulate_marker_sliced`] and [`simulate_fli_sliced`] in one run:
/// one cache hierarchy (and predictor) simulates the binary once, and
/// each charge lands in both slicings. The result equals the two
/// separate runs field for field at half the simulation work.
///
/// # Panics
///
/// Panics if `fli_target` is zero, or if some boundary was never
/// reached (same contract as [`simulate_marker_sliced`]).
pub fn simulate_sliced_both(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    fli_target: u64,
) -> BothSlicings {
    let _span = cbsp_trace::span_labeled("sim/sliced_both", || binary.label());
    let marker = MarkerSlicedSim::new(config, binary, boundaries.to_vec());
    let mut sink = BothSlicedSim::new(marker, fli_target);
    run(binary, input, &mut sink);
    assert_eq!(
        sink.unreached_boundaries(),
        0,
        "marker boundaries must all occur in this binary's execution"
    );
    let both = sink.finish();
    cbsp_trace::add("sim/instructions", both.stats.instructions);
    both
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::{compile, CompileTarget, ProgramBuilder, Scale};

    fn test_binary() -> Binary {
        let mut b = ProgramBuilder::new("t");
        let small = b.array_f64("small", 1_000); // 8 KB: L1-resident
        let big = b.array_f64("big", 512_000); // 4 MB: DRAM tier
        b.proc("main", |p| {
            p.loop_fixed(60, |body| {
                body.compute(50, |k| {
                    k.seq(small, 8);
                });
            });
            p.loop_fixed(60, |body| {
                body.compute(50, |k| {
                    k.random(big, 8);
                });
            });
        });
        compile(&b.finish(), CompileTarget::W32_O2)
    }

    #[test]
    fn full_stats_are_consistent() {
        let bin = test_binary();
        let input = Input::new("t", 5, Scale::Test);
        let s = simulate_full(&bin, &input, &MemoryConfig::table1());
        assert!(s.instructions > 0);
        assert!(s.cycles > s.instructions, "memory stalls add cycles");
        assert_eq!(s.levels[0].hits + s.levels[0].misses, s.accesses);
        assert!(s.cpi() > 1.0);
    }

    #[test]
    fn random_dram_phase_has_higher_cpi_than_l1_phase() {
        let bin = test_binary();
        let input = Input::new("t", 5, Scale::Test);
        let (_, intervals) = simulate_fli_sliced(&bin, &input, &MemoryConfig::table1(), 1_000);
        assert!(intervals.len() >= 4);
        let first = intervals.first().expect("nonempty").cpi();
        let last = intervals.last().expect("nonempty").cpi();
        assert!(
            last > first + 0.5,
            "random DRAM phase ({last:.2}) must be slower than L1 phase ({first:.2})"
        );
    }

    #[test]
    fn sliced_totals_match_full_run() {
        let bin = test_binary();
        let input = Input::new("t", 5, Scale::Test);
        let cfg = MemoryConfig::table1();
        let full = simulate_full(&bin, &input, &cfg);
        let (sliced_total, intervals) = simulate_fli_sliced(&bin, &input, &cfg, 2_000);
        assert_eq!(full, sliced_total, "slicing must not change the simulation");
        assert_eq!(intervals.iter().map(|i| i.cycles).sum::<u64>(), full.cycles);
        assert_eq!(
            intervals.iter().map(|i| i.instructions).sum::<u64>(),
            full.instructions
        );
    }

    #[test]
    fn marker_sliced_cuts_at_the_requested_points() {
        use cbsp_profile::MarkerRef;
        let bin = test_binary();
        let input = Input::new("t", 5, Scale::Test);
        let cfg = MemoryConfig::table1();
        // Cut at the 30th back-branch of loop 0 and the 10th of loop 1.
        let boundaries = vec![
            ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 30,
            },
            ExecPoint {
                marker: MarkerRef::LoopBack(1),
                count: 10,
            },
        ];
        let (total, intervals) = simulate_marker_sliced(&bin, &input, &cfg, &boundaries);
        assert_eq!(intervals.len(), 3);
        assert_eq!(
            intervals.iter().map(|i| i.instructions).sum::<u64>(),
            total.instructions
        );
        // First interval: ~30 of 60 iterations of the first loop.
        let whole = total.instructions as f64;
        let frac = intervals[0].instructions as f64 / whole;
        assert!((0.15..0.35).contains(&frac), "frac {frac}");
    }

    #[test]
    fn branch_predictor_adds_mispredict_cycles() {
        use cbsp_program::{Cond, ProgramBuilder};
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(2_000, |body| {
                body.if_else(
                    Cond::Random { num: 1, den: 2 },
                    |t| t.work(10),
                    |e| e.work(10),
                );
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W32_O2);
        let input = Input::new("t", 9, Scale::Test);
        let plain = simulate_full(&bin, &input, &MemoryConfig::table1());
        let mut cfg = MemoryConfig::table1();
        cfg.branch = Some(cbsp_sim_branch_default());
        let predicted = simulate_full(&bin, &input, &cfg);
        assert_eq!(plain.branches, 0);
        assert!(predicted.branches > 2_000, "branches resolved");
        // A 50/50 random branch per iteration: mispredict rate near 0.5
        // on those, so cycles must grow measurably.
        assert!(predicted.branch_mispredicts > predicted.branches / 8);
        assert!(predicted.cycles > plain.cycles);
        assert_eq!(predicted.instructions, plain.instructions);
    }

    fn cbsp_sim_branch_default() -> crate::branch::BranchConfig {
        crate::branch::BranchConfig::default()
    }

    #[test]
    #[should_panic(expected = "must all occur")]
    fn unreachable_boundary_panics() {
        use cbsp_profile::MarkerRef;
        let bin = test_binary();
        let input = Input::new("t", 5, Scale::Test);
        let boundaries = vec![ExecPoint {
            marker: MarkerRef::LoopBack(0),
            count: 10_000_000,
        }];
        let _ = simulate_marker_sliced(&bin, &input, &MemoryConfig::table1(), &boundaries);
    }
}
