//! Regenerates Figure 6: TLB miss rates for fully-associative TLBs of 4
//! to 128 entries (LRU replacement up to 16 entries, random from 32), per
//! benchmark plus the run-time weighted average.

use hbat_bench::ckpt::ProgramTail;
use hbat_bench::experiment::{run_cell, scale_from_args, ExperimentConfig};
use hbat_bench::missrate::{miss_rate_percent, FIG6_SIZES};
use hbat_core::designs::spec::DesignSpec;
use hbat_obs::NullRecorder;
use hbat_stats::agg::weighted_average;
use hbat_stats::table::{fnum, TextTable};
use hbat_workloads::Benchmark;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);

    let mut headers = vec!["Program".to_owned()];
    headers.extend(FIG6_SIZES.iter().map(|(n, _)| format!("{n} entries")));
    let mut t = TextTable::new(headers);
    t.numeric();

    // Weights: T4 run time in cycles, per the paper's aggregation.
    let mut weights = Vec::new();
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); FIG6_SIZES.len()];
    let (t4, cold) = (DesignSpec::MultiPorted { ports: 4 }, cfg.cold_state());
    for bench in Benchmark::ALL {
        // Each pass below streams the program again.
        let tail = ProgramTail::program_start(bench, &cfg).unwrap_or_else(|e| panic!("{e}"));
        weights.push(run_cell(tail.stream(), t4, &cfg, &cold, NullRecorder).cycles as f64);
        let mut cells = vec![bench.name().to_owned()];
        for (i, (entries, policy)) in FIG6_SIZES.iter().enumerate() {
            let rate = miss_rate_percent(tail.stream(), *entries, *policy, cfg.geometry, 1996);
            rates[i].push(rate);
            cells.push(fnum(rate, 2));
        }
        t.row(cells);
    }
    let mut avg = vec!["RTW Avg".to_owned()];
    for col in &rates {
        avg.push(fnum(weighted_average(col, &weights), 2));
    }
    t.row(avg);

    println!(
        "Figure 6: TLB Miss Rates, percent of references ({scale:?} scale)\n\n{}",
        t.render()
    );
}
