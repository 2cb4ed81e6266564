//! Design-space exploration: sweep every Table-2 design over one
//! benchmark and print the bandwidth/latency trade-off, a miniature
//! version of the paper's Figure 5 for a single program.
//!
//! ```sh
//! cargo run --release --example design_space [benchmark]
//! ```
//!
//! `benchmark` is a Table-3 program name (default: `Xlisp`).

use hbat_suite::prelude::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "Xlisp".into());
    let bench = Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&which))
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark `{which}`; using Xlisp");
            Benchmark::Xlisp
        });

    let workload = bench.build(&WorkloadConfig::new(Scale::Small));
    let trace = PredecodedTrace::predecode(&workload.trace());
    println!(
        "{}: {} instructions, sweeping {} designs\n",
        bench,
        trace.len(),
        DesignSpec::TABLE2.len()
    );

    let cfg = SimConfig::baseline();
    let mut t4_cycles = None;
    println!(
        "{:<6} {:>10} {:>8} {:>9} {:>10} {:>9}",
        "design", "cycles", "IPC", "vs T4", "shielded", "retries"
    );
    for design in DesignSpec::TABLE2 {
        let mut tlb = design.build(PageGeometry::KB4, 1996);
        let m = simulate_uops(&cfg, &trace, tlb.as_mut());
        let base = *t4_cycles.get_or_insert(m.cycles);
        println!(
            "{:<6} {:>10} {:>8.3} {:>8.1}% {:>9.1}% {:>9}",
            design.mnemonic(),
            m.cycles,
            m.ipc(),
            100.0 * base as f64 / m.cycles as f64,
            100.0 * m.tlb.shield_rate(),
            m.tlb.retries,
        );
    }

    println!(
        "\nReading the table: `vs T4` is performance relative to the\n\
         four-ported TLB; `shielded` is the fraction of requests served\n\
         without touching the base TLB (L1 TLB hits, pretranslation hits,\n\
         or piggybacked requests); `retries` counts cycles a request\n\
         waited for a translation port."
    );
}
