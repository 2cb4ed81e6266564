//! Regenerates Figure 5: relative performance of all thirteen designs on
//! the baseline 8-way out-of-order processor with 4 KB pages and 32
//! registers. All values are run-time weighted average IPCs normalised to
//! design T4.

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let r = sweep(&DesignSpec::TABLE2, &cfg);
    println!(
        "{}",
        r.render_figure(&format!(
            "Figure 5: Relative Performance on Baseline Simulator ({scale:?} scale)"
        ))
    );
    println!("Per-benchmark IPC detail:\n\n{}", r.render_details());
}
