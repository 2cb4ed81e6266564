//! Regenerates Figure 8: relative performance with 8 KB pages.

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale).with_8k_pages();
    let r = sweep(&DesignSpec::TABLE2, &cfg);
    println!(
        "{}",
        r.render_figure(&format!(
            "Figure 8: Relative Performance with 8k Pages ({scale:?} scale)"
        ))
    );
    println!("Per-benchmark IPC detail:\n\n{}", r.render_details());
}
