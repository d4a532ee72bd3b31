//! Binary-level tests for `bandwall bench` and for the `--seed`/`--jobs`
//! determinism contract of `bandwall run`.

use std::process::Command;

fn bandwall(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bandwall"))
        .args(args)
        .output()
        .expect("bandwall runs")
}

#[test]
fn bench_list_names_every_group() {
    let out = bandwall(&["bench", "--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let groups: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        groups,
        ["sim_engine", "compress", "experiments", "serve", "model"]
    );
}

#[test]
fn run_rejects_a_repeated_id() {
    let out = bandwall(&["run", "fig02_traffic_vs_cores", "fig02_traffic_vs_cores"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "bandwall: experiment id 'fig02_traffic_vs_cores' is repeated\n"
    );
}

#[test]
fn bench_rejects_unknown_group_and_bad_flags() {
    let out = bandwall(&["bench", "no_such_group"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown bench group"));

    let out = bandwall(&["bench", "--iters", "0"]);
    assert!(!out.status.success());
}

#[test]
fn bench_json_and_snapshot_match_the_schema() {
    let dir = std::env::temp_dir().join("bandwall_bench_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bandwall(&[
        "bench",
        "sim_engine",
        "--warmup",
        "0",
        "--iters",
        "2",
        "--accesses",
        "3000",
        "--format",
        "json",
        "--snapshot",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Stdout: one JSON array holding the group report.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("[{\"id\":\"bench_sim_engine\""));
    assert!(stdout.trim_end().ends_with("]"));
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());

    // Snapshot: the machine-readable bandwall-bench/3 document.
    let snap = std::fs::read_to_string(dir.join("BENCH_sim_engine.json")).unwrap();
    for key in [
        "\"schema\":\"bandwall-bench/3\"",
        "\"group\":\"sim_engine\"",
        "\"warmup\":0",
        "\"iters\":2",
        "\"accesses\":3000",
        "\"host_parallelism\":",
        "\"results\":[",
        "\"id\":\"fig14_sim_seq\"",
        "\"id\":\"fig14_sim_par4\"",
        "\"median_ns\":",
        "\"p10_ns\":",
        "\"p90_ns\":",
        "\"p99_ns\":",
        "\"items_per_sec\":",
        "\"speedup_vs_sequential\":",
    ] {
        assert!(snap.contains(key), "snapshot missing {key}: {snap}");
    }
    assert_eq!(snap.matches('{').count(), snap.matches('}').count());
    assert_eq!(snap.matches('[').count(), snap.matches(']').count());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_output_is_independent_of_jobs() {
    // The determinism contract: with a fixed --seed, the emitted reports
    // are byte-identical whatever --jobs is. Seeds are derived at
    // registry construction (before any threading) and reports are
    // emitted in registry order, so scheduling cannot leak into output.
    let subset = [
        "coherence_study",
        "validate_writeback",
        "fig14_parsec_sharing",
    ];
    let run = |jobs: &str| {
        let mut args = vec!["run"];
        args.extend(subset);
        args.extend(["--seed", "7", "--jobs", jobs, "--format", "json"]);
        let out = bandwall(&args);
        assert!(out.status.success(), "jobs {jobs}");
        String::from_utf8(out.stdout).unwrap()
    };
    let serial = run("1");
    let parallel = run("8");
    assert_eq!(serial, parallel, "--jobs must never change the output");
    // All three reports present, in registry order.
    for id in subset {
        assert!(serial.contains(&format!("\"id\":\"{id}\"")), "{id} missing");
    }
}
