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
/// silently ignoring the knob. With `--speculate` also in force, the
/// commit/abort summary line must still print (all-zero here: serial
/// fallbacks never speculate), so a reader sees both why the knob did
/// nothing and that nothing was speculated.
#[test]
fn shards_on_collectives_notices_serial_fallback() {
    let results = scratch("fallback");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--shards", "2", "--speculate", "wl_collectives"])
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
    assert!(
        stdout.contains("speculation:") && stdout.contains("committed clean"),
        "missing speculation summary line\nstdout:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&results);
}

/// `repro list` names every registered target, the shard/speculate
/// flags and the `workloads` alias in its usage line — the discovery
/// surface the other tests lean on.
#[test]
fn list_names_targets_and_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    for needle in [
        "wl_collectives",
        "--shards N",
        "--speculate",
        "workloads [--quick]",
    ] {
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
