//! The source-level intermediate representation.
//!
//! A [`SourceProgram`] is the single artifact all binaries of a
//! benchmark are compiled from. Its execution semantics — which loops
//! iterate how often, which branches are taken, which procedure calls
//! happen, how many semantic memory accesses each kernel performs — are
//! fully determined by the program plus an [`Input`](crate::Input), and
//! are therefore *identical across every compilation*. Only the binary
//! realization (basic blocks, instruction counts, inlining, unrolling,
//! data layout) differs per target.

use crate::ids::{Line, LoopId, ProcId};
use crate::memory::{ArrayDecl, ArrayOp};
use serde::{Deserialize, Serialize};

/// How many times a loop iterates per entry.
///
/// All variants are pure functions of the input seed and the loop's
/// semantic entry index (see [`crate::rng::keyed`]), so every binary
/// observes the same trip counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TripCount {
    /// Always exactly `n` iterations.
    Fixed(u64),
    /// Uniformly random in `[lo, hi]`, keyed by `(seed, loop, entry)`.
    Random {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Linear ramp over entries: entry `e` iterates
    /// `base + (e * slope_num) / slope_den` times. Models workloads whose
    /// inner work grows or shrinks as the outer computation proceeds
    /// (drifting phase behaviour).
    Ramp {
        /// Iterations at entry 0.
        base: u64,
        /// Numerator of per-entry growth.
        slope_num: i64,
        /// Denominator of per-entry growth (must be nonzero).
        slope_den: u64,
    },
}

impl TripCount {
    /// Evaluates the trip count for semantic entry `entry` of loop
    /// `loop_id` under `seed`.
    pub fn eval(self, seed: u64, loop_id: LoopId, entry: u64) -> u64 {
        match self {
            TripCount::Fixed(n) => n,
            TripCount::Random { lo, hi } => {
                let raw = crate::rng::keyed(seed, 0x4C50 ^ u64::from(loop_id.0) << 16, entry);
                crate::rng::in_range(raw, lo, hi)
            }
            TripCount::Ramp {
                base,
                slope_num,
                slope_den,
            } => {
                let delta = (entry as i64).saturating_mul(slope_num) / slope_den.max(1) as i64;
                let v = base as i64 + delta;
                v.max(0) as u64
            }
        }
    }
}

/// A branch condition.
///
/// Outcomes are semantic: they evaluate identically in every binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cond {
    /// Always true. (The else branch is dead code — optimizing compilers
    /// remove it.)
    Always,
    /// Always false. (The then branch is dead code.)
    Never,
    /// True while the innermost enclosing loop's current iteration index
    /// is below `n`.
    IterLt(u64),
    /// True when the innermost enclosing loop's current iteration index,
    /// modulo `m`, equals `r`.
    IterMod {
        /// Modulus (must be nonzero).
        m: u64,
        /// Residue selecting the true case.
        r: u64,
    },
    /// True when the *entry index* of the innermost enclosing loop is
    /// below `n` — switches behaviour between early and late entries of
    /// an outer computation (coarse phase changes).
    EntryLt(u64),
    /// True with probability `num/den`, keyed by
    /// `(seed, site, occurrence)`.
    Random {
        /// Numerator of the probability.
        num: u32,
        /// Denominator of the probability (must be nonzero).
        den: u32,
    },
}

/// A straight-line compute kernel.
///
/// `work_units` is an abstract cost; the compiler scales it into a
/// per-target instruction count ([`crate::compiler::scale`]). The memory
/// operations are semantic and identical across binaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeStmt {
    /// Source coordinate.
    pub line: Line,
    /// Abstract work units; roughly "instructions in the optimized
    /// 32-bit binary".
    pub work_units: u32,
    /// Memory operations performed per execution.
    pub ops: Vec<ArrayOp>,
    /// Marked removable: an optimizing compiler deletes this statement
    /// entirely (redundant computation / dead stores). Models part of
    /// the instruction-count gap between -O0 and -O2.
    pub removable: bool,
}

/// A counted loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopStmt {
    /// Loop identity (semantic anchor for trip counts).
    pub id: LoopId,
    /// Source coordinate of the loop branch.
    pub line: Line,
    /// Iterations per entry.
    pub trip: TripCount,
    /// Loop body.
    pub body: Vec<Stmt>,
    /// Optimization hints honoured by the compiler at `-O2`.
    pub hints: LoopHints,
}

/// Compiler hints attached to a loop by the workload author.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LoopHints {
    /// Unroll by this factor at `-O2` (1 = no unrolling). Unrolling
    /// divides the dynamic count of the loop-back branch, which makes
    /// the loop *body* branch unmappable across optimization levels
    /// (entry points stay mappable) — paper §3.2.1.
    pub unroll: u32,
    /// Split this loop into one clone per body statement at `-O2`,
    /// assigning the clones fresh (unmatchable) line numbers. Models the
    /// `applu` failure case of paper §5.1: loop distribution plus code
    /// motion leaves no mappable structure.
    pub split: bool,
}

impl LoopHints {
    /// Effective unroll factor (at least 1).
    pub fn unroll_factor(self) -> u32 {
        self.unroll.max(1)
    }
}

/// A direct call to another procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallStmt {
    /// Source coordinate of the call site.
    pub line: Line,
    /// Callee.
    pub callee: ProcId,
}

/// A two-way branch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IfStmt {
    /// Source coordinate of the condition.
    pub line: Line,
    /// Condition, evaluated semantically.
    pub cond: Cond,
    /// Statements executed when the condition holds.
    pub then_body: Vec<Stmt>,
    /// Statements executed otherwise.
    pub else_body: Vec<Stmt>,
}

/// A source statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Straight-line work.
    Compute(ComputeStmt),
    /// A counted loop.
    Loop(LoopStmt),
    /// A procedure call.
    Call(CallStmt),
    /// A conditional.
    If(IfStmt),
}

/// A source procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure {
    /// Identifier (index into [`SourceProgram::procedures`]).
    pub id: ProcId,
    /// Symbol name; survives into unstripped binaries and is the primary
    /// cross-binary matching key for procedure entry points.
    pub name: String,
    /// Source coordinate of the procedure entry.
    pub line: Line,
    /// Procedure body.
    pub body: Vec<Stmt>,
    /// Force inlining at `-O2`. Inlined procedures lose their symbol
    /// and entry point in optimized binaries (paper §3.3).
    pub inline_always: bool,
}

/// A complete source program: procedures (index 0 is `main`) plus its
/// data arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceProgram {
    /// Benchmark name, e.g. `"gcc"`.
    pub name: String,
    /// All procedures; `procedures[0]` is the entry point.
    pub procedures: Vec<Procedure>,
    /// All data arrays.
    pub arrays: Vec<ArrayDecl>,
}

impl SourceProgram {
    /// Returns the entry procedure (`main`).
    ///
    /// # Panics
    ///
    /// Panics if the program has no procedures (programs built through
    /// [`ProgramBuilder`](crate::ProgramBuilder) always have `main`).
    pub fn main(&self) -> &Procedure {
        &self.procedures[0]
    }

    /// Total number of loops in the program (static count).
    pub fn loop_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Loop(l) => 1 + count(&l.body),
                    Stmt::If(i) => count(&i.then_body) + count(&i.else_body),
                    _ => 0,
                })
                .sum()
        }
        self.procedures.iter().map(|p| count(&p.body)).sum()
    }

    /// Verifies internal consistency: callee ids in range, loop/array
    /// ids unique and in range, lines unique. Returns a description of
    /// the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::BTreeSet;
        if self.procedures.is_empty() {
            return Err("program has no procedures".into());
        }
        let nprocs = self.procedures.len();
        let narrays = self.arrays.len();
        let mut lines = BTreeSet::new();
        let mut loops = BTreeSet::new();

        fn walk(
            stmts: &[Stmt],
            nprocs: usize,
            narrays: usize,
            lines: &mut BTreeSet<Line>,
            loops: &mut BTreeSet<LoopId>,
        ) -> Result<(), String> {
            for s in stmts {
                match s {
                    Stmt::Compute(c) => {
                        if !lines.insert(c.line) {
                            return Err(format!("duplicate {}", c.line));
                        }
                        for op in &c.ops {
                            if op.array.index() >= narrays {
                                return Err(format!("array {} out of range", op.array));
                            }
                            if op.write_pct > 100 {
                                return Err(format!("write_pct {} > 100", op.write_pct));
                            }
                        }
                    }
                    Stmt::Loop(l) => {
                        if !lines.insert(l.line) {
                            return Err(format!("duplicate {}", l.line));
                        }
                        if !loops.insert(l.id) {
                            return Err(format!("duplicate {}", l.id));
                        }
                        walk(&l.body, nprocs, narrays, lines, loops)?;
                    }
                    Stmt::Call(c) => {
                        if !lines.insert(c.line) {
                            return Err(format!("duplicate {}", c.line));
                        }
                        if c.callee.index() >= nprocs {
                            return Err(format!("callee {} out of range", c.callee));
                        }
                    }
                    Stmt::If(i) => {
                        if !lines.insert(i.line) {
                            return Err(format!("duplicate {}", i.line));
                        }
                        walk(&i.then_body, nprocs, narrays, lines, loops)?;
                        walk(&i.else_body, nprocs, narrays, lines, loops)?;
                    }
                }
            }
            Ok(())
        }

        for p in &self.procedures {
            if !lines.insert(p.line) {
                return Err(format!("duplicate {} (procedure {})", p.line, p.name));
            }
            walk(&p.body, nprocs, narrays, &mut lines, &mut loops)?;
        }

        // Call cycles would make execution non-terminating (there is no
        // data-dependent recursion bound in the model): reject them.
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
        fn collect(stmts: &[Stmt], out: &mut Vec<usize>) {
            for s in stmts {
                match s {
                    Stmt::Call(c) => out.push(c.callee.index()),
                    Stmt::Loop(l) => collect(&l.body, out),
                    Stmt::If(i) => {
                        collect(&i.then_body, out);
                        collect(&i.else_body, out);
                    }
                    Stmt::Compute(_) => {}
                }
            }
        }
        for (i, p) in self.procedures.iter().enumerate() {
            collect(&p.body, &mut callees[i]);
        }
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; nprocs];
        fn dfs(
            v: usize,
            callees: &[Vec<usize>],
            state: &mut [u8],
            names: &[Procedure],
        ) -> Result<(), String> {
            state[v] = 1;
            for &w in &callees[v] {
                match state[w] {
                    1 => {
                        return Err(format!(
                            "recursive call cycle through procedure {}",
                            names[w].name
                        ))
                    }
                    0 => dfs(w, callees, state, names)?,
                    _ => {}
                }
            }
            state[v] = 2;
            Ok(())
        }
        for v in 0..nprocs {
            if state[v] == 0 {
                dfs(v, &callees, &mut state, &self.procedures)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_trip_counts_ignore_entry() {
        let t = TripCount::Fixed(7);
        assert_eq!(t.eval(1, LoopId(0), 0), 7);
        assert_eq!(t.eval(99, LoopId(3), 12), 7);
    }

    #[test]
    fn random_trip_counts_are_seed_stable_and_in_range() {
        let t = TripCount::Random { lo: 5, hi: 10 };
        for e in 0..100 {
            let a = t.eval(42, LoopId(1), e);
            let b = t.eval(42, LoopId(1), e);
            assert_eq!(a, b);
            assert!((5..=10).contains(&a));
        }
        // Different loops draw different sequences.
        let spread: Vec<u64> = (0..20).map(|e| t.eval(42, LoopId(2), e)).collect();
        let other: Vec<u64> = (0..20).map(|e| t.eval(42, LoopId(1), e)).collect();
        assert_ne!(spread, other);
    }

    #[test]
    fn ramp_trip_counts_grow_and_saturate_at_zero() {
        let t = TripCount::Ramp {
            base: 10,
            slope_num: 2,
            slope_den: 1,
        };
        assert_eq!(t.eval(0, LoopId(0), 0), 10);
        assert_eq!(t.eval(0, LoopId(0), 5), 20);
        let down = TripCount::Ramp {
            base: 4,
            slope_num: -3,
            slope_den: 1,
        };
        assert_eq!(down.eval(0, LoopId(0), 10), 0, "never negative");
    }

    #[test]
    fn call_cycles_are_rejected() {
        use crate::builder::ProgramBuilder;
        // Direct recursion.
        let prog = {
            let mut b = ProgramBuilder::new("t");
            b.proc("main", |p| p.call("f"));
            b.proc("f", |p| p.call("f"));
            // finish() would panic; build through the raw structs by
            // catching the panic instead.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.finish()))
        };
        assert!(prog.is_err(), "builder must reject direct recursion");

        // Mutual recursion.
        let prog = {
            let mut b = ProgramBuilder::new("t");
            b.proc("main", |p| p.call("a"));
            b.proc("a", |p| p.call("b"));
            b.proc("b", |p| p.call("a"));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.finish()))
        };
        assert!(prog.is_err(), "builder must reject mutual recursion");
    }

    #[test]
    fn unroll_factor_is_at_least_one() {
        assert_eq!(LoopHints::default().unroll_factor(), 1);
        assert_eq!(
            LoopHints {
                unroll: 4,
                split: false
            }
            .unroll_factor(),
            4
        );
    }
}
