//! End-to-end tests of the `hbat` command-line tool.

use std::process::Command;

fn hbat(args: &[&str]) -> (bool, String, String) {
    hbat_env(args, &[])
}

fn hbat_env(args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbat"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("hbat binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_shows_designs_and_benchmarks() {
    let (ok, stdout, _) = hbat(&["list"]);
    assert!(ok);
    for needle in ["T4", "I4/PB", "P8", "Compress", "Xlisp"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
}

#[test]
fn run_reports_metrics() {
    let (ok, stdout, _) = hbat(&["run", "Espresso", "M8", "--scale", "test"]);
    assert!(ok);
    assert!(stdout.contains("IPC (commit)"));
    assert!(stdout.contains("TLB shielded"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let (ok, _, stderr) = hbat(&["run", "NoSuchBench", "T4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown benchmark"));

    let (ok, _, stderr) = hbat(&["run", "Perl", "Z9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown design mnemonic"));

    let (ok, _, stderr) = hbat(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    // Trace files are gone: `dump` and `replay` are unknown commands.
    for cmd in ["dump", "replay"] {
        let (ok, _, stderr) = hbat(&[cmd, "/nonexistent/trace.trc", "T4"]);
        assert!(!ok);
        assert!(stderr.contains("unknown command"), "{cmd}: {stderr}");
    }
}

#[test]
fn faulted_sweep_fails_visibly_and_resume_completes_it() {
    let dir = std::env::temp_dir().join("hbat-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep-resume.journal");
    std::fs::remove_file(&journal).ok();
    let journal_s = journal.to_str().unwrap();

    // Sweep with two injected panics: partial results, a manifest on
    // stderr, and a failing exit code.
    let (ok, stdout, stderr) = hbat_env(
        &["sweep", "--scale", "test", "--journal", journal_s],
        &[("HBAT_FAULT_PLAN", "panic@5,panic@17")],
    );
    assert!(!ok, "a sweep with failed cells must exit nonzero");
    assert!(stdout.contains("n/a"), "failed cells marked n/a:\n{stdout}");
    assert!(stderr.contains("2 cell(s) failed"), "{stderr}");
    assert!(stderr.contains("--resume"), "points at recovery: {stderr}");

    // --resume re-executes only the failed cells and succeeds; the
    // merged output shows no missing cells.
    let (ok, stdout, stderr) = hbat(&[
        "sweep",
        "--scale",
        "test",
        "--journal",
        journal_s,
        "--resume",
    ]);
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("n/a"), "no cells missing after resume");
    assert!(stderr.contains("resumed 128 cell(s)"), "{stderr}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_without_journal_is_an_error() {
    let (ok, _, stderr) = hbat(&["sweep", "--resume", "--scale", "test"]);
    assert!(!ok);
    assert!(stderr.contains("--journal"), "{stderr}");
}

#[test]
fn observe_without_journal_is_rejected_before_running() {
    let (ok, stdout, stderr) = hbat(&["sweep", "--observe", "--scale", "test"]);
    assert!(!ok);
    assert!(
        stderr.contains("--observe needs --journal <path> (the sidecar lives next to it)"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "no cell ran: {stdout}");
}

#[test]
fn trace_prints_attribution_and_writes_valid_jsonl() {
    use hbat_suite::bench::journal::parse_json_object;

    let dir = std::env::temp_dir().join("hbat-cli-test");
    std::fs::create_dir_all(&dir).unwrap();

    // The three design families the paper's figures lean on.
    for design in ["I4", "M8", "P8"] {
        let out = dir.join(format!("espresso-{design}.jsonl"));
        std::fs::remove_file(&out).ok();
        let (ok, stdout, stderr) = hbat(&[
            "trace",
            "Espresso",
            design,
            "--scale",
            "test",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{stderr}");
        // Full stall taxonomy in the table, plus the chart and summary.
        for needle in [
            "cycles charged to",
            "issue",
            "tlb-port",
            "tlb-walk",
            "dcache-port",
            "dcache-miss",
            "rob-full",
            "lsq-full",
            "fetch-starved",
            "no-ready-op",
            "where the cycles went",
            "port conflicts",
            "page-table walks",
            "occupancy (max)",
        ] {
            assert!(
                stdout.contains(needle),
                "{design}: missing {needle}:\n{stdout}"
            );
        }
        // The event stream is valid JSONL: every line one strict JSON
        // object whose first key is the cycle stamp.
        let jsonl = std::fs::read_to_string(&out).unwrap();
        assert!(!jsonl.is_empty(), "{design}: no events written");
        for line in jsonl.lines() {
            let keys = parse_json_object(line)
                .unwrap_or_else(|e| panic!("{design}: bad JSONL line {line}: {e}"));
            assert!(keys.contains(&"cycle".to_owned()), "{design}: {line}");
            assert!(keys.contains(&"event".to_owned()), "{design}: {line}");
        }
        std::fs::remove_file(&out).ok();
    }
}

#[test]
fn trace_is_deterministic() {
    let (ok1, out1, _) = hbat(&["trace", "Xlisp", "T1", "--scale", "test"]);
    let (ok2, out2, _) = hbat(&["trace", "Xlisp", "T1", "--scale", "test"]);
    assert!(ok1 && ok2);
    assert_eq!(out1, out2, "trace output must be deterministic");
}

#[test]
fn trace_sample_prints_the_window_table_deterministically() {
    let args = [
        "trace",
        "Compress",
        "M8",
        "--scale",
        "test",
        "--sample",
        "6:400:100",
    ];
    let (ok1, out1, stderr) = hbat(&args);
    assert!(ok1, "{stderr}");
    for needle in [
        "sampled 6:400:100 (windows:len:warmup)",
        "op index",
        "committed",
        "tlb hit",
        "IPC (95% CI)",
        "in 6 window(s)",
    ] {
        assert!(out1.contains(needle), "missing {needle}:\n{out1}");
    }
    let (ok2, out2, _) = hbat(&args);
    assert!(ok2);
    assert_eq!(out1, out2, "sampled trace output must be deterministic");
}

#[test]
fn an_oversized_window_count_runs_the_windows_that_fit() {
    // Both counts ask for more windows than memory can hold; only the
    // 24 windows that fit in the trace are planned, as for a count of
    // 100,000. Only the header line, which echoes the plan, differs.
    let run = |count: &str| {
        let args = [
            "trace", "Compress", "T4", "--scale", "test", "--sample", count,
        ];
        let (ok, stdout, stderr) = hbat(&args);
        assert!(ok, "--sample {count}: {stderr}");
        stdout.lines().skip(1).collect::<Vec<_>>().join("\n")
    };
    let fit = run("100000");
    assert!(fit.contains("in 24 window(s)"), "{fit}");
    for count in ["1000000000000", "18446744073709551615"] {
        assert_eq!(run(count), fit, "--sample {count}");
    }
}

#[test]
fn trace_intervals_prints_time_series_and_writes_interval_jsonl() {
    use hbat_suite::bench::journal::parse_json_object;

    let dir = std::env::temp_dir().join("hbat-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("espresso-iv.jsonl");
    std::fs::remove_file(&out).ok();

    let (ok, stdout, stderr) = hbat(&[
        "trace",
        "Espresso",
        "M8",
        "--scale",
        "test",
        "--intervals",
        "256",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    for needle in [
        "interval telemetry:",
        "window(s) of 256 cycles",
        "IPC over time",
        "IPC per window",
        "tlb hit",
        "wrote",
        "interval windows",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }

    // With --intervals, --out carries the interval stream: one strict
    // JSON object per window with the pinned schema, "v" included.
    let jsonl = std::fs::read_to_string(&out).unwrap();
    assert!(!jsonl.is_empty(), "no windows written");
    for line in jsonl.lines() {
        let keys = parse_json_object(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        assert_eq!(
            keys,
            [
                "committed",
                "cycles",
                "dcache",
                "issue",
                "issued",
                "occupancy",
                "stalls",
                "start",
                "tlb",
                "v",
                "walks"
            ]
        );
    }
    // Interval recording is deterministic end to end: same stdout,
    // byte-identical interval stream.
    let (ok2, stdout2, _) = hbat(&[
        "trace",
        "Espresso",
        "M8",
        "--scale",
        "test",
        "--intervals",
        "256",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok2);
    assert_eq!(stdout, stdout2, "interval output must be deterministic");
    assert_eq!(jsonl, std::fs::read_to_string(&out).unwrap());
    std::fs::remove_file(&out).ok();
}

#[test]
fn interval_flag_is_validated() {
    for bad in ["0", "1"] {
        let (ok, _, stderr) = hbat(&["trace", "Espresso", "M8", "--intervals", bad]);
        assert!(!ok, "width {bad} must be rejected");
        assert!(stderr.contains("interval width"), "{stderr}");
    }
    let (ok, _, stderr) = hbat(&["trace", "Espresso", "M8", "--intervals", "many"]);
    assert!(!ok);
    assert!(stderr.contains("bad interval width"), "{stderr}");

    // On sweep, the interval sidecar needs a journal to live next to.
    let (ok, _, stderr) = hbat(&["sweep", "--scale", "test", "--intervals", "512"]);
    assert!(!ok);
    assert!(stderr.contains("--journal"), "{stderr}");
}

#[test]
fn sampled_sweep_rejects_observe_and_intervals_before_writing() {
    let dir = std::env::temp_dir().join(format!("hbat-cli-sample-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal");
    let journal_s = journal.to_str().unwrap();
    for extra in [&["--observe"][..], &["--intervals", "512"][..]] {
        let mut args = vec!["sweep", "--scale", "test", "--journal", journal_s];
        args.extend_from_slice(&["--sample", "4:200:50"]);
        args.extend_from_slice(extra);
        let (ok, _, stderr) = hbat(&args);
        assert!(!ok, "{extra:?} with --sample must be rejected");
        assert!(stderr.contains("mutually exclusive"), "{stderr}");
        assert!(!journal.exists(), "a rejected sweep writes no journal");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prof_flag_prints_the_self_profile() {
    let (ok, _, stderr) = hbat(&["run", "Espresso", "M8", "--scale", "test", "--prof"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("self-profile (wall clock):"), "{stderr}");

    // Without the flag (and without HBAT_PROF) there is no report.
    let (ok, _, stderr) = hbat(&["run", "Espresso", "M8", "--scale", "test"]);
    assert!(ok);
    assert!(!stderr.contains("self-profile"), "{stderr}");
}

#[test]
fn observed_sweep_writes_sidecar_and_heartbeat_is_controllable() {
    let dir = std::env::temp_dir().join("hbat-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep-observe.journal");
    let sidecar = dir.join("sweep-observe.journal.obs.jsonl");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&sidecar).ok();

    // Observed sweep with a sub-second heartbeat: the progress line
    // appears on stderr and the sidecar lands next to the journal.
    let (ok, _, stderr) = hbat(&[
        "sweep",
        "--scale",
        "test",
        "--journal",
        journal.to_str().unwrap(),
        "--observe",
        "--heartbeat",
        "0.01",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("heartbeat:"), "{stderr}");
    assert!(stderr.contains("cells"), "{stderr}");
    let side = std::fs::read_to_string(&sidecar).expect("obs sidecar written");
    assert_eq!(side.lines().count(), 130, "one obs record per cell");

    // Test scale defaults the heartbeat off.
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&sidecar).ok();
    let (ok, _, stderr) = hbat(&["sweep", "--scale", "test"]);
    assert!(ok, "{stderr}");
    assert!(
        !stderr.contains("heartbeat:"),
        "heartbeat must default off at test scale: {stderr}"
    );
}

#[test]
fn checkpointed_sweep_snapshots_inspect_and_recover() {
    use hbat_suite::bench::journal::parse_json_object;

    let dir = std::env::temp_dir().join("hbat-cli-ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snaps = dir.join("snapshots");
    let snaps_s = snaps.to_str().unwrap().to_owned();
    let journal = dir.join("sweep.journal");
    let journal_s = journal.to_str().unwrap().to_owned();

    // A checkpointed sweep with one injected cell panic: snapshots land
    // on disk, the failed cell is journalled as missing.
    let (ok, _, stderr) = hbat_env(
        &[
            "sweep",
            "--scale",
            "test",
            "--ff",
            "1000",
            "--ckpt-dir",
            &snaps_s,
            "--ckpt-interval",
            "400",
            "--journal",
            &journal_s,
        ],
        &[("HBAT_FAULT_PLAN", "panic@7")],
    );
    assert!(!ok, "a sweep with a failed cell must exit nonzero");
    assert!(stderr.contains("1 of 130 cell(s) failed"), "{stderr}");

    let mut files: Vec<_> = std::fs::read_dir(&snaps)
        .expect("snapshot dir created")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fast-forward must publish snapshots");

    // `hbat ckpt` inspects and integrity-checks a snapshot.
    let snap_s = files[0].to_str().unwrap();
    let (ok, stdout, stderr) = hbat(&["ckpt", snap_s]);
    assert!(ok, "{stderr}");
    for needle in [
        "benchmark",
        "fingerprint",
        "instruction index",
        "checksum",
        "status            : valid",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }

    // --json emits one strict JSON object.
    let (ok, stdout, stderr) = hbat(&["ckpt", snap_s, "--json"]);
    assert!(ok, "{stderr}");
    let keys = parse_json_object(stdout.trim()).expect("ckpt --json is strict JSON");
    for key in [
        "v",
        "bench",
        "fingerprint",
        "index",
        "checksum",
        "mem_chunks",
    ] {
        assert!(
            keys.contains(&key.to_owned()),
            "missing key {key}: {stdout}"
        );
    }

    // A flipped bit is a typed error and a nonzero exit, not a panic.
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let bad = dir.join("bad.ckpt");
    std::fs::write(&bad, &bytes).unwrap();
    let (ok, _, stderr) = hbat(&["ckpt", bad.to_str().unwrap()]);
    assert!(!ok, "corrupt snapshot must be rejected");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");

    // Resume completes only the missing cell — while an injected
    // fast-forward crash on its benchmark forces the retry to restore
    // from the snapshots the first run published.
    let (ok, stdout, stderr) = hbat_env(
        &[
            "sweep",
            "--scale",
            "test",
            "--ff",
            "1000",
            "--ckpt-dir",
            &snaps_s,
            "--ckpt-interval",
            "400",
            "--journal",
            &journal_s,
            "--resume",
            "--retries",
            "1",
        ],
        &[("HBAT_FAULT_PLAN", "ff_panic@0")],
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("resumed 129 cell(s)"), "{stderr}");
    assert!(!stdout.contains("n/a"), "no cells missing after resume");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_flags_are_validated() {
    let (ok, _, stderr) = hbat(&["sweep", "--scale", "test", "--ckpt-dir", "/tmp/x"]);
    assert!(!ok);
    assert!(stderr.contains("--ff"), "{stderr}");

    let (ok, _, stderr) = hbat(&["sweep", "--scale", "test", "--ff", "1000"]);
    assert!(!ok);
    assert!(stderr.contains("--ckpt-dir"), "{stderr}");

    let (ok, _, stderr) = hbat(&["sweep", "--scale", "test", "--ckpt-interval", "10"]);
    assert!(!ok);
    assert!(stderr.contains("--ckpt-dir"), "{stderr}");

    let (ok, _, stderr) = hbat(&["ckpt"]);
    assert!(!ok);
    assert!(stderr.contains("missing snapshot path"), "{stderr}");

    let (ok, _, stderr) = hbat(&["ckpt", "/nonexistent/snap.ckpt"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

#[test]
fn anatomy_prints_ceilings() {
    let (ok, stdout, _) = hbat(&["anatomy", "Tomcatv", "--scale", "test"]);
    assert!(ok);
    assert!(stdout.contains("LRU-8"));
    assert!(stdout.contains("pointer-page reuse"));
}
