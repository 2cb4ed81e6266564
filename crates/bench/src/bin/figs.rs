//! Regenerates every IPC figure (5, 7, 8, 9) in a single process.
//!
//! Running them together exercises the process-wide trace cache: Figures
//! 5, 7 and 8 sweep the same workloads (only the machine model or page
//! size changes), so their traces are generated once and replayed three
//! times; only Figure 9's reduced-register workloads need a second
//! generation pass. The cache and scheduling statistics are printed at
//! the end. Each figure prints as its relative-IPC table and chart
//! followed by the per-benchmark IPC detail.
//!
//! Run: `cargo run --release -p hbat-bench --bin figs [scale]`

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_bench::TraceCache;
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
    let cache = TraceCache::global();
    eprintln!(
        "trace cache: {} built, {} served from cache",
        cache.misses(),
        cache.hits()
    );
}
