//! Page-size study: how page size changes each design family's behaviour
//! (the paper's Section 4.5, generalised beyond 4 KB vs 8 KB).
//!
//! Larger pages let the same number of TLB entries map more memory, give
//! pretranslations longer lifetimes (pointers stride further before
//! leaving a page), and give piggyback ports more combining opportunities.
//!
//! ```sh
//! cargo run --release --example page_size_study
//! ```

use hbat_suite::prelude::*;

fn main() {
    let workload = Benchmark::Compress.build(&WorkloadConfig::new(Scale::Small));
    let trace = workload.uops();
    println!(
        "Compress ({} instructions) across page sizes\n",
        trace.len()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>11}",
        "design", "pages", "IPC", "miss rate", "shield rate"
    );
    let cfg = SimConfig::baseline();
    for mnemonic in ["T1", "M8", "P8", "PB1"] {
        for page_bits in [12u32, 13, 14] {
            let geom = PageGeometry::new(page_bits);
            let design = DesignSpec::parse(mnemonic).expect("known design");
            let mut tlb = design.build(geom, 1996);
            let m = simulate_uops(&cfg, &trace, tlb.as_mut());
            println!(
                "{:<10} {:>6}KB {:>10.3} {:>9.3}% {:>10.1}%",
                mnemonic,
                1 << (page_bits - 10),
                m.ipc(),
                100.0 * m.tlb.miss_rate(),
                100.0 * m.tlb.shield_rate(),
            );
        }
        println!();
    }
    println!(
        "Bigger pages cut the base-TLB miss rate for every design and\n\
         raise the shield rates of the multi-level, pretranslation, and\n\
         piggyback mechanisms — Figure 8's effect, shown per design."
    );
}
