//! Machine-scaling study: the paper's motivating claim, measured.
//!
//! "Processor designs are continually exploiting higher levels of
//! instruction-level parallelism, which increases the bandwidth demand on
//! TLB designs" (Section 1). This study scales the machine width from 2
//! to 16 and shows the single-ported TLB's penalty growing with ILP —
//! the reason the paper's mechanisms exist.
//!
//! Run: `cargo run --release -p hbat-bench --bin scaling [scale]`

use hbat_bench::experiment::{scale_from_args, sweep, ExperimentConfig};
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::SimConfig;
use hbat_stats::table::{fnum, TextTable};

fn main() {
    let scale = scale_from_args();
    let designs = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 1 },
        DesignSpec::MultiLevel { l1_entries: 8 },
    ];

    let mut t = TextTable::new(vec![
        "width",
        "ld/st units",
        "T4 IPC",
        "T1 vs T4",
        "M8 vs T4",
    ]);
    t.numeric();
    for (width, ldst) in [(2usize, 1usize), (4, 2), (8, 4), (16, 8)] {
        let base = SimConfig::baseline();
        let cfg = ExperimentConfig {
            sim: SimConfig {
                width,
                ldst_units: ldst,
                int_alu_units: width,
                fp_add_units: ldst.max(2),
                rob_entries: 8 * width,
                lsq_entries: 4 * width,
                ..base
            },
            ..ExperimentConfig::baseline(scale)
        };
        let r = sweep(&designs, &cfg);
        let rel = |d: DesignSpec| r.relative_ipc(d).expect("a complete sweep with T4");
        t.row(vec![
            width.to_string(),
            ldst.to_string(),
            fnum(r.weighted_ipc(designs[0]).expect("T4 swept"), 3),
            format!("{:5.1}%", rel(designs[1]) * 100.0),
            format!("{:5.1}%", rel(designs[2]) * 100.0),
        ]);
    }
    println!(
        "Machine-width scaling ({scale:?} scale): translation bandwidth demand vs ILP\n\n{}",
        t.render()
    );
    println!(
        "As issue width grows, the single-ported TLB falls further behind\n\
         the four-ported one, while the multi-level shield keeps tracking\n\
         it — the paper's opening argument, reproduced quantitatively."
    );
}
