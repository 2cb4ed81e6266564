//! The benchmark suite: ten synthetic analogues of the paper's programs
//! (Table 3).
//!
//! Each workload is a real program in the `hbat-isa` instruction set whose
//! *memory behaviour* — data-set size, locality, load/store fraction,
//! pointer-register usage — mimics what the paper reports for its
//! namesake. See `DESIGN.md` for the substitution argument.

use hbat_isa::executor::Machine;
use hbat_isa::program::Program;
use hbat_isa::tape::Tape;
use hbat_isa::uop::PredecodedTrace;

use crate::config::WorkloadConfig;
use crate::programs;

/// A buildable workload: program plus initial memory image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// The program to execute.
    pub program: Program,
    /// Initial memory contents: `(base address, bytes)` pairs.
    pub mem_image: Vec<(u64, Vec<u8>)>,
    /// Generous upper bound on dynamic instructions (runaway guard).
    pub max_steps: u64,
}

impl Workload {
    /// Creates a machine with the program loaded and memory seeded.
    pub fn instantiate(&self) -> Machine {
        let mut m = Machine::new(self.program.clone());
        for (base, bytes) in &self.mem_image {
            m.memory_mut()
                .write_bytes(hbat_core::addr::VirtAddr(*base), bytes);
        }
        m
    }

    /// Runs the workload to completion, returning its trace as a
    /// [`Tape`]: the stored form sweeps hold.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to halt within `max_steps` (a workload
    /// bug, not an input condition).
    pub fn tape(&self) -> Tape {
        let mut m = self.instantiate();
        let tape = m.run_to_tape(self.max_steps);
        self.check_halted(&m);
        tape
    }

    /// Runs the workload to completion, returning its micro-ops.
    ///
    /// # Panics
    ///
    /// As [`Workload::tape`].
    pub fn uops(&self) -> PredecodedTrace {
        let mut m = self.instantiate();
        let uops = m.run_to_uops(self.max_steps);
        self.check_halted(&m);
        uops
    }

    fn check_halted(&self, m: &Machine) {
        assert!(
            m.is_halted(),
            "workload {} did not halt within {} steps",
            self.name,
            self.max_steps
        );
    }
}

/// The ten analysed programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// LZW compression: sequential input, large scattered hash table —
    /// notably poor reference locality.
    Compress,
    /// Monte-Carlo nuclear-reactor kernel: small working set, FP-heavy.
    Doduc,
    /// Two-level logic minimisation: dense bit-matrix operations, high
    /// locality and IPC.
    Espresso,
    /// Compiler: pointer-chasing over tree structures, data-dependent
    /// branches with poor predictability.
    Gcc,
    /// PostScript rendering: scanline fills over a multi-megabyte frame
    /// buffer (largest data set after TFFT).
    Ghostscript,
    /// MPEG video decode: streaming input, block-structured frame-buffer
    /// writes — poor locality.
    MpegPlay,
    /// Script interpreter: dispatch ladder, operand stack, hash tables —
    /// highest branchiness, heavy memory traffic.
    Perl,
    /// Large FFT: bit-reversal scatter plus long-stride butterfly passes
    /// over the biggest data set — poor locality.
    Tfft,
    /// Vectorised mesh generation: regular row-major sweeps over
    /// ~129×129 grids, very regular.
    Tomcatv,
    /// Lisp interpreter: cons-cell allocation, list walking, GC
    /// mark/sweep — highest load/store fraction.
    Xlisp,
}

impl Benchmark {
    /// All ten benchmarks in the paper's (Table 3) order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Compress,
        Benchmark::Doduc,
        Benchmark::Espresso,
        Benchmark::Gcc,
        Benchmark::Ghostscript,
        Benchmark::MpegPlay,
        Benchmark::Perl,
        Benchmark::Tfft,
        Benchmark::Tomcatv,
        Benchmark::Xlisp,
    ];

    /// The paper's name for the program.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "Compress",
            Benchmark::Doduc => "Doduc",
            Benchmark::Espresso => "Espresso",
            Benchmark::Gcc => "GCC",
            Benchmark::Ghostscript => "Ghostscript",
            Benchmark::MpegPlay => "MPEG_play",
            Benchmark::Perl => "Perl",
            Benchmark::Tfft => "TFFT",
            Benchmark::Tomcatv => "Tomcatv",
            Benchmark::Xlisp => "Xlisp",
        }
    }

    /// Builds the workload for `cfg`.
    pub fn build(self, cfg: &WorkloadConfig) -> Workload {
        match self {
            Benchmark::Compress => programs::compress::build(cfg),
            Benchmark::Doduc => programs::doduc::build(cfg),
            Benchmark::Espresso => programs::espresso::build(cfg),
            Benchmark::Gcc => programs::gcc::build(cfg),
            Benchmark::Ghostscript => programs::ghostscript::build(cfg),
            Benchmark::MpegPlay => programs::mpeg::build(cfg),
            Benchmark::Perl => programs::perl::build(cfg),
            Benchmark::Tfft => programs::tfft::build(cfg),
            Benchmark::Tomcatv => programs::tomcatv::build(cfg),
            Benchmark::Xlisp => programs::xlisp::build(cfg),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_distinct_names() {
        let names: std::collections::HashSet<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 10);
        assert_eq!(Benchmark::Compress.to_string(), "Compress");
    }

    // A stored trace costs 12 heap bytes per op (a template index and an
    // address) plus one 40-byte template per static instruction, where
    // a materialised one costs a whole `MicroOp` per op.
    #[test]
    fn a_tape_holds_twelve_bytes_per_op_plus_the_templates() {
        use hbat_isa::uop::MicroOp;
        let w = Benchmark::Xlisp.build(&crate::WorkloadConfig::new(crate::Scale::Test));
        let tape = w.tape();
        let statics = w.program.instructions().len();
        let budget = 12 * tape.len() + statics * std::mem::size_of::<MicroOp>();
        assert!(tape.len() > 10_000, "{} ops", tape.len());
        assert!(
            tape.heap_bytes() <= budget,
            "{} heap bytes for {} ops of a {statics}-instruction program",
            tape.heap_bytes(),
            tape.len()
        );
    }
}
