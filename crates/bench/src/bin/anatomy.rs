//! Trace anatomy: the stream properties each design family exploits,
//! measured per benchmark. This is the quantitative backing for the
//! paper's qualitative claims ("many simultaneous accesses are to the
//! same page", "translations between successive uses of a pointer often
//! yield accesses to the same page", ...).
//!
//! Run: `cargo run --release -p hbat-bench --bin anatomy [scale]`

use hbat_analysis::{
    page_stream, working_set, AdjacencyProfile, BankConflictProfile, PointerProfile, ReuseProfile,
};
use hbat_bench::ckpt::ProgramTail;
use hbat_bench::experiment::{scale_from_args, ExperimentConfig};
use hbat_core::designs::interleaved::BankSelect;
use hbat_stats::table::{fnum, TextTable};
use hbat_workloads::Benchmark;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let geom = cfg.geometry;

    let mut t = TextTable::new(vec![
        "Program",
        "pages",      // total footprint
        "WS(1k)",     // mean working set per 1k refs
        "LRU8 miss",  // reuse: an M8-like shield's ceiling
        "combinable", // adjacency: piggyback ceiling (window 4)
        "ptr reuse",  // pointer: pretranslation ceiling
        "ptr life",   // mean dereferences per pointer lifetime
        "bank cfl",   // interleave conflicts (I4 windows)
        "same-pg",    // share of conflicts no bank function can fix
    ]);
    t.numeric();

    for bench in Benchmark::ALL {
        let tail = ProgramTail::program_start(bench, &cfg).unwrap_or_else(|e| panic!("{e}"));
        let pages = page_stream(tail.stream(), geom);
        let reuse = ReuseProfile::of_pages(&pages);
        let adj = AdjacencyProfile::of_pages(&pages, 4);
        let ptr = PointerProfile::of_ops(tail.stream(), geom);
        let bc = BankConflictProfile::of_pages(&pages, BankSelect::BitSelect, 4, 4);
        let (ws_mean, _) = working_set(&pages, 1000);
        t.row(vec![
            bench.name().to_owned(),
            reuse.distinct_pages().to_string(),
            fnum(ws_mean, 1),
            format!("{:.2}%", reuse.lru_miss_rate(8) * 100.0),
            format!("{:.1}%", adj.combinable_fraction() * 100.0),
            format!("{:.1}%", ptr.reuse_fraction() * 100.0),
            fnum(ptr.mean_lifetime(), 1),
            format!("{:.1}%", bc.conflict_fraction() * 100.0),
            format!("{:.1}%", bc.same_page_share() * 100.0),
        ]);
    }

    println!("Trace anatomy ({scale:?} scale)\n\n{}", t.render());
    println!(
        "Columns: total page footprint; mean working set per 1 000 refs;\n\
         miss rate of an ideal 8-entry LRU shield (multi-level ceiling);\n\
         fraction of references a perfect 4-wide combiner absorbs\n\
         (piggyback ceiling); fraction of dereferences staying on the\n\
         previous page of their base register (pretranslation ceiling);\n\
         the mean dereferences per pointer lifetime; the I4 bank-conflict\n\
         rate; and the share of those conflicts that are same-page — the\n\
         collisions no bank-selection function can remove (Section 4.3)."
    );
}
