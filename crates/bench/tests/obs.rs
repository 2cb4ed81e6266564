//! The observability layer's sweep-level contract:
//!
//! * an observed sweep (`SweepOptions::observe`) writes a *byte*-identical
//!   main journal — recording is invisible to the results;
//! * the `.obs.jsonl` sidecar is valid JSONL with a stable schema and
//!   one record per executed cell.

use std::path::{Path, PathBuf};

use hbat_bench::executor::TraceCache;
use hbat_bench::experiment::{obs_sidecar_path, sweep_ft_on, ExperimentConfig, SweepOptions};
use hbat_bench::journal::parse_json_object;
use hbat_core::designs::spec::DesignSpec;
use hbat_workloads::Scale;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-obs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs() -> [DesignSpec; 3] {
    [
        DesignSpec::parse("I4").unwrap(),
        DesignSpec::parse("M8").unwrap(),
        DesignSpec::parse("P8").unwrap(),
    ]
}

fn run_sweep(journal: &Path, observe: bool) -> hbat_bench::SweepResult {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let opts = SweepOptions {
        threads: 1, // deterministic journal line order for byte comparison
        journal: Some(journal.to_path_buf()),
        observe,
        ..SweepOptions::default()
    };
    sweep_ft_on(&designs(), &cfg, &opts, &TraceCache::new()).unwrap()
}

#[test]
fn observed_sweep_journal_is_byte_identical() {
    let dir = tmp_dir("identity");
    let plain_path = dir.join("plain.journal");
    let observed_path = dir.join("observed.journal");

    let plain = run_sweep(&plain_path, false);
    let observed = run_sweep(&observed_path, true);

    // The RunMetrics of every cell are bit-identical.
    assert_eq!(plain.completed(), 30);
    assert_eq!(observed.completed(), 30);
    for (prow, orow) in plain.cells.iter().zip(&observed.cells) {
        for (p, o) in prow.iter().zip(orow) {
            let (p, o) = (p.ok().unwrap(), o.ok().unwrap());
            assert_eq!(
                p.metrics,
                o.metrics,
                "{}/{}: recording changed the metrics",
                p.bench,
                p.design.mnemonic()
            );
        }
    }

    // And so is the journal, byte for byte.
    let plain_bytes = std::fs::read(&plain_path).unwrap();
    let observed_bytes = std::fs::read(&observed_path).unwrap();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes, observed_bytes,
        "observation must not perturb the journal"
    );

    // The unobserved sweep writes no sidecar; the observed one does.
    assert!(!obs_sidecar_path(&plain_path).exists());
    assert!(obs_sidecar_path(&observed_path).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_sidecar_is_valid_jsonl_with_stable_schema() {
    let dir = tmp_dir("schema");
    let journal = dir.join("sweep.journal");
    let result = run_sweep(&journal, true);
    assert_eq!(result.completed(), 30);

    let sidecar = std::fs::read_to_string(obs_sidecar_path(&journal)).unwrap();
    let lines: Vec<&str> = sidecar.lines().collect();
    assert_eq!(lines.len(), 30, "one obs record per executed cell");
    for line in &lines {
        let keys = parse_json_object(line).expect("sidecar line is strict JSON");
        assert_eq!(keys, ["bench", "config", "design", "obs", "seed", "v"]);
        // The stall taxonomy and resources are spelled out by name.
        for name in [
            "\"tlb-port\":",
            "\"tlb-walk\":",
            "\"dcache-port\":",
            "\"dcache-miss\":",
            "\"rob-full\":",
            "\"lsq-full\":",
            "\"fetch-starved\":",
            "\"no-ready-op\":",
            "\"tlb\":",
            "\"dcache\":",
            "\"icache\":",
            "\"walks\":",
            "\"occupancy\":",
        ] {
            assert!(line.contains(name), "missing {name} in {line}");
        }
    }

    // Observation is deterministic: a second observed sweep writes a
    // byte-identical sidecar.
    let dir2 = tmp_dir("schema2");
    let journal2 = dir2.join("sweep.journal");
    run_sweep(&journal2, true);
    let sidecar2 = std::fs::read_to_string(obs_sidecar_path(&journal2)).unwrap();
    assert_eq!(sidecar, sidecar2, "obs output must be deterministic");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}
