//! Program inputs.
//!
//! An [`Input`] plays the role of a SPEC reference input: it fixes every
//! semantic decision of a program's execution (trip counts, branch
//! outcomes, random indices) through its seed, and scales the amount of
//! work through its scale class.

use serde::{Deserialize, Serialize};

/// Work-scale class of an input, analogous to SPEC's `test` / `train` /
/// `ref` input sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny runs for unit tests (tens of thousands of instructions).
    Test,
    /// Medium runs for integration tests (hundreds of thousands).
    Train,
    /// Full experiment runs (millions to tens of millions).
    Reference,
}

impl Scale {
    /// Multiplier applied by workload generators to outer trip counts.
    pub fn work_factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Train => 6,
            Scale::Reference => 48,
        }
    }

    /// Multiplier applied by workload generators to data footprints.
    ///
    /// Kept smaller than [`Self::work_factor`] so test inputs still
    /// exercise multi-level cache behaviour.
    pub fn data_factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Train => 2,
            Scale::Reference => 4,
        }
    }
}

/// A concrete input to a program: a name, a semantic seed, and a scale.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Input {
    /// Input name, e.g. `"ref"`.
    pub name: String,
    /// Seed for all semantic randomness.
    pub seed: u64,
    /// Work-scale class.
    pub scale: Scale,
}

impl Input {
    /// Creates an input with the given name, seed and scale.
    pub fn new(name: impl Into<String>, seed: u64, scale: Scale) -> Self {
        Input {
            name: name.into(),
            seed,
            scale,
        }
    }

    /// The standard reference input used by the experiments.
    pub fn reference() -> Self {
        Input::new("ref", 0xC0FF_EE00_2007, Scale::Reference)
    }

    /// A medium input for integration tests.
    pub fn train() -> Self {
        Input::new("train", 0xC0FF_EE00_2007, Scale::Train)
    }

    /// A small input for unit tests.
    pub fn test() -> Self {
        Input::new("test", 0xC0FF_EE00_2007, Scale::Test)
    }

    /// The standard input of `scale`: [`Input::test`], [`Input::train`]
    /// or [`Input::reference`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Test => Input::test(),
            Scale::Train => Input::train(),
            Scale::Reference => Input::reference(),
        }
    }
}

impl Default for Input {
    fn default() -> Self {
        Input::test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Test < Scale::Reference);
        assert!(Scale::Test.work_factor() < Scale::Train.work_factor());
        assert!(Scale::Train.work_factor() < Scale::Reference.work_factor());
    }

    #[test]
    fn standard_inputs_share_a_seed() {
        // Same seed across scales: a scaled-down run is a shorter replay
        // of the same semantic decision stream, not a different program.
        assert_eq!(Input::reference().seed, Input::test().seed);
        assert_ne!(Input::reference().scale, Input::test().scale);
    }
}
