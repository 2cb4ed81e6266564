//! Regenerates Figure 9: relative performance with few architected
//! registers (8 integer / 8 floating-point). The workloads are rebuilt by
//! the spilling register assigner, which inserts the extra stack traffic
//! the paper measures (up to several times more loads and stores).

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale).with_small_regs();
    let r = sweep(&DesignSpec::TABLE2, &cfg);
    println!(
        "{}",
        r.render_figure(&format!(
            "Figure 9: Relative Performance with Fewer Registers (8 int/8 fp) ({scale:?} scale)"
        ))
    );
    println!("Per-benchmark IPC detail:\n\n{}", r.render_details());
}
