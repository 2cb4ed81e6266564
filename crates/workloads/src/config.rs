//! Workload build configuration.

/// How many architected registers the "compiler" (the program builder) may
/// use. The paper's baseline is 32 + 32; Figure 9 rebuilds everything with
/// 8 + 8, which forces heavy spilling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegBudget {
    /// Architected integer registers (including r0 and reserved ones).
    pub int: usize,
    /// Architected floating-point registers.
    pub fp: usize,
}

impl RegBudget {
    /// The baseline 32 int / 32 fp machine (Table 1).
    pub const FULL: RegBudget = RegBudget { int: 32, fp: 32 };
    /// The 8 int / 8 fp machine of Figure 9.
    pub const SMALL: RegBudget = RegBudget { int: 8, fp: 8 };
}

impl Default for RegBudget {
    fn default() -> Self {
        RegBudget::FULL
    }
}

/// Overall problem size: how long programs run and how big their data
/// sets are. `Test` keeps unit tests fast; `Reference` is what the
/// figure-regenerating experiments use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny: thousands of dynamic instructions (unit tests).
    Test,
    /// Reduced: hundreds of thousands of instructions (quick runs).
    Small,
    /// Full experiment size: millions of instructions per benchmark.
    Reference,
}

impl Scale {
    /// Parses a scale name: `test`, `small`, or `reference` (also `ref`
    /// or `full`), in any case. Both the figure binaries' first argument
    /// and `hbat --scale` go through it.
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "reference" | "ref" | "full" => Some(Scale::Reference),
            _ => None,
        }
    }

    /// A scale-dependent value: picks `(test, small, reference)`.
    pub fn pick(self, test: u64, small: u64, reference: u64) -> u64 {
        match self {
            Scale::Test => test,
            Scale::Small => small,
            Scale::Reference => reference,
        }
    }
}

/// Everything a workload generator needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    /// Register budget for the builder's allocator.
    pub regs: RegBudget,
    /// Problem size.
    pub scale: Scale,
    /// Seed for input-data generation (not for anything timing-related).
    pub seed: u64,
}

impl WorkloadConfig {
    /// Baseline configuration at the given scale.
    pub fn new(scale: Scale) -> Self {
        WorkloadConfig {
            regs: RegBudget::FULL,
            scale,
            seed: 0x5EED_1996,
        }
    }

    /// Same configuration with the Figure-9 small register file.
    #[must_use]
    pub fn with_small_regs(mut self) -> Self {
        self.regs = RegBudget::SMALL;
        self
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::new(Scale::Small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Test.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Reference.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_parses_every_spelling_in_any_case() {
        for (name, scale) in [
            ("test", Scale::Test),
            ("small", Scale::Small),
            ("reference", Scale::Reference),
            ("ref", Scale::Reference),
            ("full", Scale::Reference),
            ("TEST", Scale::Test),
            ("Small", Scale::Small),
            ("Ref", Scale::Reference),
        ] {
            assert_eq!(Scale::parse(name), Some(scale), "{name}");
        }
        for junk in ["", "referenc", "tests", "big", " test"] {
            assert_eq!(Scale::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn config_builders() {
        let c = WorkloadConfig::new(Scale::Test);
        assert_eq!(c.regs, RegBudget::FULL);
        assert_eq!(c.with_small_regs().regs, RegBudget::SMALL);
        assert_eq!(RegBudget::SMALL.int, 8);
    }
}
