//! CLI-level tests of the `repro` binary: output contracts that unit
//! tests of the library cannot see (notices, summary lines, exit
//! codes), exercised through a real subprocess.

use std::process::Command;

/// A scratch results dir unique to this test process, so parallel test
/// runs never share cache or artifact state.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prdrb-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

/// `repro list` names every registered target and its usage line —
/// the discovery surface the other tests lean on.
#[test]
fn list_names_targets_and_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    for needle in ["wl_collectives", "usage: repro <id>... | all"] {
        assert!(stdout.contains(needle), "missing `{needle}`:\n{stdout}");
    }
}

/// `bench` and `gate` are not targets: host-time measurement lives in
/// the standalone `prdrb-benchmark` crate, so `repro` rejects both
/// names like any other unknown target. So is `workloads`: the `wl_*`
/// targets are named one by one.
#[test]
fn bench_and_gate_are_unknown_targets() {
    for name in ["bench", "gate", "workloads"] {
        let results = scratch(name);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(name)
            .env("PRDRB_RESULTS", &results)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`repro {name}` exit code");
        assert!(
            stderr.contains(&format!("unknown target: {name}")),
            "`repro {name}` stderr:\n{stderr}"
        );
        let _ = std::fs::remove_dir_all(&results);
    }
}

/// Run `repro fig4_13` with one environment variable set (scratch
/// results dir, cache off) and return (exit code, stderr).
fn repro_with_env(tag: &str, var: &str, value: &str) -> (Option<i32>, String) {
    let results = scratch(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig4_13")
        .env("PRDRB_RESULTS", &results)
        .env("PRDRB_CACHE", "off")
        .env(var, value)
        .output()
        .expect("run repro");
    let _ = std::fs::remove_dir_all(&results);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A bad value must stop `repro` at startup: exit 2, a message naming
/// the variable, and no panic.
fn assert_rejected(tag: &str, var: &str, value: &str) {
    let (code, stderr) = repro_with_env(tag, var, value);
    assert_eq!(code, Some(2), "{var}={value} exit code\nstderr:\n{stderr}");
    assert!(
        stderr.contains(var) && !stderr.contains("panicked"),
        "{var}={value} stderr:\n{stderr}"
    );
}

#[test]
fn bad_seeds_are_rejected() {
    // Zero replicas used to panic in the replica fold; text used to run
    // the default five seeds.
    assert_rejected("seeds0", "PRDRB_SEEDS", "0");
    assert_rejected("seedsabc", "PRDRB_SEEDS", "abc");
}

#[test]
fn bad_scale_is_rejected() {
    // A negative scale used to clamp every run to 1 ns.
    assert_rejected("scaleneg", "PRDRB_SCALE", "-1");
    assert_rejected("scalenan", "PRDRB_SCALE", "NaN");
}

/// A flag `repro` does not know is an unknown argument wherever it
/// sits, even next to `all`, instead of being silently ignored. The
/// `--shards` and `--topo` flags are no exception.
#[test]
fn stray_flags_are_unknown_targets() {
    let cases: [(&[&str], &str); 4] = [
        (&["--no-such-flag", "fig4_13"], "--no-such-flag"),
        (&["all", "--no-such-flag"], "--no-such-flag"),
        (&["--shards", "2", "fig4_13"], "--shards"),
        (&["--topo", "dragonfly72", "fig_dfly"], "--topo"),
    ];
    for (args, flag) in cases {
        let results = scratch("stray");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("PRDRB_RESULTS", &results)
            .env("PRDRB_CACHE", "off")
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} exit code");
        assert!(
            stderr.contains(&format!("unknown target: {flag}")),
            "{args:?} stderr:\n{stderr}"
        );
        let _ = std::fs::remove_dir_all(&results);
    }
}

/// `fig4_10` and `fig4_11` render from the same runs. Targets run one
/// after another, so the second target replays every run the first one
/// stored instead of simulating it again beside it.
#[test]
fn a_config_shared_by_two_targets_is_simulated_once() {
    let results = scratch("shared");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig4_10", "fig4_11"])
        .env("PRDRB_RESULTS", &results)
        .env("PRDRB_CACHE", results.join("cache"))
        .env("PRDRB_SEEDS", "1")
        .env("PRDRB_SCALE", "0.05")
        .output()
        .expect("run repro");
    let _ = std::fs::remove_dir_all(&results);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro failed:\n{stdout}");
    // "... run cache: {hits} hit(s), {misses} miss(es) in {dir}"
    let summary = stdout
        .split("run cache: ")
        .nth(1)
        .unwrap_or_else(|| panic!("no cache summary:\n{stdout}"));
    let counts: Vec<u64> = summary
        .split_whitespace()
        .take(4)
        .step_by(2)
        .map(|n| n.parse().expect("a hit or miss count"))
        .collect();
    let (hits, misses) = (counts[0], counts[1]);
    assert!(
        hits > 0 && hits == misses,
        "the second target must replay every run of the first: \
         {hits} hit(s), {misses} miss(es)"
    );
}
