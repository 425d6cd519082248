//! # cbsp-program — the program substrate
//!
//! Everything the Cross Binary SimPoint paper takes as given from its
//! environment — SPEC binaries, an optimizing compiler, and Pin-level
//! observability — rebuilt as a deterministic, laptop-scale model:
//!
//! * a **source IR** ([`SourceProgram`]) whose execution semantics are
//!   fixed by an [`Input`] and therefore identical across compilations;
//! * a **workload suite** ([`workloads`]) of 21 benchmarks named after
//!   the paper's SPEC CPU2000 subset, each with its own phase topology
//!   and optimization hazards;
//! * a **compiler** ([`compile`]) producing four [`Binary`] variants per
//!   program ({32, 64-bit} × {`-O0`, `-O2`}) with real structural
//!   transformations — inlining, unrolling, loop splitting, DCE — and
//!   per-target instruction scaling;
//! * an **executor** ([`run`]) that streams basic-block, memory-access,
//!   and marker events to any [`TraceSink`] (the role Pin plays in the
//!   paper).
//!
//! ## Example
//!
//! ```
//! use cbsp_program::{workloads, compile, run, CompileTarget, Input, NullSink};
//!
//! let program = workloads::by_name("gzip").expect("in suite").build(
//!     cbsp_program::Scale::Test,
//! );
//! let binary = compile(&program, CompileTarget::W32_O2);
//! let summary = run(&binary, &Input::test(), &mut NullSink);
//! assert!(summary.instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
mod builder;
pub mod compiler;
mod disasm;
pub mod exec;
mod ids;
mod input;
pub mod memory;
mod pretty;
pub mod rng;
pub mod source;
pub mod workloads;

pub use binary::{
    BinLoop, BinProc, Binary, CloneRole, DataLayout, LStmt, LoweredLoop, StaticBlock,
};
pub use builder::{BodyBuilder, KernelBuilder, ProgramBuilder};
pub use compiler::{compile, compile_with, CompileOptions, CompileTarget, OptLevel, Width};
pub use exec::{run, ExecSummary, Marker, NullSink, TraceSink};
pub use ids::{ArrayId, BinLoopId, BinProcId, BlockId, Line, LoopId, ProcId};
pub use input::{Input, Scale};
pub use memory::{ArrayDecl, ArrayOp, ElemKind, OpKind};
pub use source::{Cond, LoopHints, Procedure, SourceProgram, Stmt, TripCount};
