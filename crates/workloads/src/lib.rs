//! # hbat-workloads — the synthetic benchmark suite
//!
//! Ten programs mimicking the memory behaviour of the paper's benchmarks
//! (Table 3): Compress, Doduc, Espresso, GCC, Ghostscript, MPEG_play,
//! Perl, TFFT, Tomcatv, and Xlisp. Programs are written in the `hbat-isa`
//! instruction set through a [`builder::Builder`] whose register assigner
//! spills to the stack when the architected register budget is exhausted —
//! which is how the paper's few-registers experiment (Figure 9) is
//! reproduced.
//!
//! ```
//! use hbat_workloads::config::{Scale, WorkloadConfig};
//! use hbat_workloads::suite::Benchmark;
//!
//! let w = Benchmark::Espresso.build(&WorkloadConfig::new(Scale::Test));
//! let tape = w.tape();
//! assert!(tape.iter().any(|op| op.is_mem()));
//! ```

pub mod builder;
pub mod config;
pub mod layout;
pub mod programs;
pub mod suite;
pub mod util;

pub use builder::{Builder, Label, Rhs, Var};
pub use config::{RegBudget, Scale, WorkloadConfig};
pub use suite::{Benchmark, Workload};
