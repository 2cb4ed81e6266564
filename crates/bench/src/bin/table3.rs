//! Regenerates Table 3: program execution performance on the baseline
//! 8-way out-of-order processor with the four-ported TLB.
//!
//! Instruction/load/store counts are totals for our synthetic analogues
//! (the paper's are for the original SPEC binaries); IPC, memory ops per
//! cycle, and branch prediction rate are the comparable columns. Wrong
//! paths are not simulated, so issue and commit rates coincide here.

use hbat_bench::ckpt::ProgramTail;
use hbat_bench::experiment::{run_cell, scale_from_args, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;
use hbat_obs::NullRecorder;
use hbat_stats::table::{fnum, percent, TextTable};
use hbat_workloads::Benchmark;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let mut t = TextTable::new(vec![
        "Program",
        "Insts (K)",
        "Loads (K)",
        "Stores (K)",
        "Issue IPC",
        "C'mit IPC",
        "Issue (Ld+St)/Cyc",
        "C'mit (Ld+St)/Cyc",
        "Br Pred Rate",
    ]);
    t.numeric();
    let (t4, cold) = (DesignSpec::MultiPorted { ports: 4 }, cfg.cold_state());
    for bench in Benchmark::ALL {
        let tail = ProgramTail::program_start(bench, &cfg).unwrap_or_else(|e| panic!("{e}"));
        let m = run_cell(tail.stream(), t4, &cfg, &cold, NullRecorder);
        t.row(vec![
            bench.name().to_owned(),
            fnum(m.committed as f64 / 1e3, 1),
            fnum(m.loads as f64 / 1e3, 1),
            fnum(m.stores as f64 / 1e3, 1),
            fnum(m.issue_ipc(), 2),
            fnum(m.ipc(), 2),
            fnum(m.issue_mem_per_cycle(), 2),
            fnum(m.mem_per_cycle(), 2),
            percent(m.bpred_rate()),
        ]);
    }
    println!(
        "Table 3: Program Execution Performance ({scale:?} scale, T4, out-of-order)\n\n{}",
        t.render()
    );
}
