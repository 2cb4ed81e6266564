//! Quickstart: build a TLB design, run one benchmark through the timing
//! simulator, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hbat_suite::prelude::*;

fn main() {
    // 1. Pick an address-translation design by its Table-2 mnemonic.
    //    "M8" is a multi-level TLB: an 8-entry LRU L1 shielding a
    //    128-entry single-ported L2.
    let design = DesignSpec::parse("M8").expect("known mnemonic");
    let mut tlb = design.build(PageGeometry::KB4, 1996);

    // 2. Build a workload — the Espresso analogue at a small scale — and
    //    run it functionally to obtain the dynamic instruction trace.
    let workload = Benchmark::Espresso.build(&WorkloadConfig::new(Scale::Small));
    let trace = workload.uops();
    println!("{}: {} dynamic instructions", workload.name, trace.len());

    // 3. Replay the trace on the paper's baseline 8-way out-of-order
    //    machine, translating every data access through the design.
    let metrics = simulate_uops(&SimConfig::baseline(), &trace, tlb.as_mut());

    println!(
        "design            : {} ({})",
        design.mnemonic(),
        design.description()
    );
    println!("cycles            : {}", metrics.cycles);
    println!("IPC               : {:.3}", metrics.ipc());
    println!("loads / stores    : {} / {}", metrics.loads, metrics.stores);
    println!("branch prediction : {:.1}%", metrics.bpred_rate() * 100.0);
    println!("TLB accesses      : {}", metrics.tlb.accesses);
    println!(
        "shielded by L1    : {:.1}% (never reached the L2 TLB)",
        metrics.tlb.shield_rate() * 100.0
    );
    println!(
        "TLB miss rate     : {:.3}%",
        metrics.tlb.miss_rate() * 100.0
    );
    println!("port retries      : {}", metrics.tlb.retries);
}
