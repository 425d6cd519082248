//! The compiler model: lowers a [`SourceProgram`] to a [`Binary`] for a
//! [`CompileTarget`].
//!
//! The paper's scenario is four binaries per program — {32-bit, 64-bit}
//! × {unoptimized, optimized} — compiled with `-g` (paper §4). The
//! transformations modelled here are exactly the ones that make
//! cross-binary mapping hard:
//!
//! * **instruction scaling** — `-O0` code executes ~3× the instructions
//!   and adds stack spill traffic; 64-bit code has per-kernel jitter and
//!   pointer-dependent footprints;
//! * **inlining** (`-O2`, hint-driven) — removes procedure symbols and
//!   entry points, and degrades line info of the inlined body;
//! * **loop unrolling** (`-O2`, hint-driven) — divides the dynamic
//!   execution count of the loop-back branch;
//! * **loop splitting + code motion** (`-O2`, hint-driven) — clones a
//!   loop per body statement under fresh, unmatchable lines (the `applu`
//!   failure mode of paper §5.1);
//! * **dead-code elimination** (`-O2`) — folds constant branches and
//!   deletes removable kernels.
//!
//! Compilation is a pure function: the same `(source, target)` always
//! yields an identical binary.

mod layout;
mod lower;
pub mod scale;

use crate::binary::Binary;
use crate::source::SourceProgram;
use serde::{Deserialize, Serialize};

/// Pointer width of a compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Width {
    /// 32-bit (IA32-like): 4-byte pointers.
    W32,
    /// 64-bit (Intel64-like): 8-byte pointers.
    W64,
}

impl Width {
    /// Pointer size in bytes.
    pub fn pointer_bytes(self) -> u32 {
        match self {
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }
}

/// Optimization level of a compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// Unoptimized: no structural transformations, heavy spill traffic,
    /// ~3× instruction expansion.
    O0,
    /// Optimized: inlining, unrolling, splitting, DCE per hints.
    O2,
}

/// A compilation target: width × optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompileTarget {
    /// Pointer width.
    pub width: Width,
    /// Optimization level.
    pub opt: OptLevel,
}

impl CompileTarget {
    /// 32-bit unoptimized (the paper's `32U`).
    pub const W32_O0: CompileTarget = CompileTarget {
        width: Width::W32,
        opt: OptLevel::O0,
    };
    /// 32-bit optimized (`32O`).
    pub const W32_O2: CompileTarget = CompileTarget {
        width: Width::W32,
        opt: OptLevel::O2,
    };
    /// 64-bit unoptimized (`64U`).
    pub const W64_O0: CompileTarget = CompileTarget {
        width: Width::W64,
        opt: OptLevel::O0,
    };
    /// 64-bit optimized (`64O`).
    pub const W64_O2: CompileTarget = CompileTarget {
        width: Width::W64,
        opt: OptLevel::O2,
    };

    /// The paper's standard set of four binaries, in the order
    /// `32U, 32O, 64U, 64O`.
    pub const ALL_FOUR: [CompileTarget; 4] =
        [Self::W32_O0, Self::W32_O2, Self::W64_O0, Self::W64_O2];

    /// Short label: `"32u"`, `"32o"`, `"64u"`, or `"64o"`.
    pub fn suffix(self) -> &'static str {
        match (self.width, self.opt) {
            (Width::W32, OptLevel::O0) => "32u",
            (Width::W32, OptLevel::O2) => "32o",
            (Width::W64, OptLevel::O0) => "64u",
            (Width::W64, OptLevel::O2) => "64o",
        }
    }
}

impl std::fmt::Display for CompileTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Compiler configuration beyond the target itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Whether inlined bodies keep usable line information. Real
    /// compilers of the paper's era did not preserve enough for branch
    /// matching; set `true` only for ablation studies (it makes the
    /// inline-recovery machinery of `cbsp-core` unnecessary).
    pub preserve_inline_lines: bool,
    /// Inline *every* call at `-O2`, not just hinted ones. Deletes the
    /// callee symbols and degrades their loop lines, reproducing the
    /// paper's `applu` marker-loss failure mode on any workload. Used
    /// as a test bed for fuzzy cross-binary mapping.
    pub aggressive_inline: bool,
    /// Split *every* multi-statement loop at `-O2`, not just hinted
    /// ones. Every clone carries `line: None`, so no loop marker in the
    /// result matches across binaries.
    pub split_all_loops: bool,
}

impl CompileOptions {
    /// The marker-destroying preset: aggressive inlining plus
    /// unconditional loop splitting at `-O2`. Binaries compiled with
    /// this preset share (almost) no mappable markers with their
    /// default-compiled siblings — the deliberate worst case the fuzzy
    /// mapping fallback is gated against.
    pub fn marker_destroying() -> Self {
        CompileOptions {
            preserve_inline_lines: false,
            aggressive_inline: true,
            split_all_loops: true,
        }
    }
}

/// Compiles `source` for `target` with default [`CompileOptions`].
///
/// # Panics
///
/// Panics if `source` fails [`SourceProgram::validate`] (programs built
/// through [`ProgramBuilder`](crate::ProgramBuilder) are always valid).
pub fn compile(source: &SourceProgram, target: CompileTarget) -> Binary {
    compile_with(source, target, CompileOptions::default())
}

/// Compiles `source` for `target` with explicit options.
///
/// # Panics
///
/// See [`compile`].
pub fn compile_with(source: &SourceProgram, target: CompileTarget, opts: CompileOptions) -> Binary {
    if let Err(e) = source.validate() {
        panic!("cannot compile invalid program {}: {e}", source.name);
    }
    let bin = lower::lower(source, target, opts);
    debug_assert_eq!(bin.validate(), Ok(()));
    bin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixes_match_paper_notation() {
        assert_eq!(CompileTarget::W32_O0.suffix(), "32u");
        assert_eq!(CompileTarget::W64_O2.suffix(), "64o");
        assert_eq!(CompileTarget::ALL_FOUR.len(), 4);
    }

    #[test]
    fn pointer_bytes() {
        assert_eq!(Width::W32.pointer_bytes(), 4);
        assert_eq!(Width::W64.pointer_bytes(), 8);
    }
}
