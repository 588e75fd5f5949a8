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

/// `--shards N` with a collective workload must say — once, out loud —
/// that trace replay (collective runs are lowered to traces) runs on
/// the serial player and the run falls back to serial, instead of
/// silently ignoring the knob.
#[test]
fn shards_on_collectives_notices_serial_fallback() {
    let results = scratch("fallback");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--shards", "2", "wl_collectives"])
        .env("PRDRB_RESULTS", &results)
        .env("PRDRB_CACHE", "off")
        .env("PRDRB_SCALE", "0.05")
        .env("PRDRB_SEEDS", "1")
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "repro failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("trace replay lower onto the serial player")
            && stderr.contains("--shards 2 falls back to serial"),
        "missing serial-fallback notice\nstderr:\n{stderr}"
    );
    assert_eq!(
        stderr.matches("falls back to serial").count(),
        1,
        "the fallback notice must print exactly once per process\nstderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&results);
}

/// `repro list` names every registered target, the `--shards` flag
/// and the `workloads` alias in its usage line — the discovery
/// surface the other tests lean on.
#[test]
fn list_names_targets_and_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    for needle in ["wl_collectives", "--shards N", "workloads [--quick]"] {
        assert!(stdout.contains(needle), "missing `{needle}`:\n{stdout}");
    }
}

/// `bench` and `gate` are not targets: host-time measurement lives in
/// the standalone `prdrb-benchmark` crate, so `repro` rejects both
/// names like any other unknown target.
#[test]
fn bench_and_gate_are_unknown_targets() {
    for name in ["bench", "gate"] {
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

#[test]
fn bad_shards_are_rejected() {
    // Both used to run serial without a word.
    assert_rejected("shards0", "PRDRB_SHARDS", "0");
    assert_rejected("shardsabc", "PRDRB_SHARDS", "abc");
}

#[test]
fn unknown_topo_is_rejected() {
    let (code, stderr) = repro_with_env("topo", "PRDRB_TOPO", "torus9");
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("PRDRB_TOPO") && stderr.contains("dragonfly72"),
        "the message must name the variable and the valid names:\n{stderr}"
    );
}

/// A flag `repro` does not know is an unknown argument wherever it
/// sits, even next to `all`, instead of being silently ignored.
#[test]
fn stray_flags_are_unknown_targets() {
    for args in [["--no-such-flag", "fig4_13"], ["all", "--no-such-flag"]] {
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
            stderr.contains("unknown target: --no-such-flag"),
            "{args:?} stderr:\n{stderr}"
        );
        let _ = std::fs::remove_dir_all(&results);
    }
}
