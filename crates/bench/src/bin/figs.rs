//! Regenerates every IPC figure (5, 7, 8, 9) in a single process.
//!
//! Each figure is its own sweep, which runs every program afresh in
//! each of its cells and stores no trace. Each figure prints
//! as its relative-IPC table and chart followed by the per-benchmark
//! IPC detail, and its scheduling statistics go to stderr.
//!
//! Run: `cargo run --release -p hbat-bench --bin figs [scale]`

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let figures = [
        (
            "Figure 5: Relative Performance on Baseline Simulator",
            ExperimentConfig::baseline(scale),
        ),
        (
            "Figure 7: Relative Performance with In-order Issue",
            ExperimentConfig::baseline(scale).with_inorder(),
        ),
        (
            "Figure 8: Relative Performance with 8k Pages",
            ExperimentConfig::baseline(scale).with_8k_pages(),
        ),
        (
            "Figure 9: Relative Performance with Fewer Registers (8 int/8 fp)",
            ExperimentConfig::baseline(scale).with_small_regs(),
        ),
    ];
    for (title, cfg) in figures {
        let r = sweep(&DesignSpec::TABLE2, &cfg);
        println!("{}", r.render_figure(&format!("{title} ({scale:?} scale)")));
        println!("Per-benchmark IPC detail:\n\n{}", r.render_details());
        eprintln!("[{}] {}", &title[..8], r.telemetry.summary());
    }
}
