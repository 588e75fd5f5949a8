//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! repro list            # all targets
//! repro fig4_13         # one target
//! repro fig4_13 fig4_14 # several
//! repro all             # everything (rayon-parallel)
//! repro all --shards 4  # same outputs, sharded fabric execution
//! repro all --shards 4 --speculate # plus optimistic (checkpoint/rollback) windows
//! repro workloads       # the wl_* application-workload targets
//! repro workloads --quick # same, shrunk for CI smoke use
//! ```
//!
//! `workloads` is a group alias expanding to every `wl_*` target;
//! `--quick` there shrinks the runs by defaulting `PRDRB_SCALE=0.2` and
//! `PRDRB_SEEDS=2` (explicit environment settings win).
//!
//! `--shards N` runs every figure simulation through the conservative
//! windowed fabric at N shards. The outputs are bit-identical to serial
//! by construction, so the flag is a determinism cross-check, not a
//! speed-up: the shards run one after another and cost 1.1–1.5× the
//! serial wall time (`load_sweep`: 0.71 s at `--shards 2` against
//! 0.53 s serial on a 2-core Xeon). At N ≥ 2 the chosen partition is summarized up front — cut size, per-shard
//! router/NIC balance and the window lookahead the cut earns — for the
//! two canonical figure topologies.
//!
//! `--speculate` additionally runs each sharded simulation under the
//! optimistic (checkpoint/rollback) window driver; committed outputs
//! remain bit-identical, and the run ends with one commit/abort
//! summary line totalled over every speculative window executed.
//!
//! `--topo <name>` selects a named topology from the engine's
//! `NAMED_TOPOLOGIES` table (`mesh8x8`, `fattree443`, `dragonfly72`,
//! `megafly20`); unknown names abort with the valid list. The flag
//! narrows the `--shards` plan summary and is exported to targets via
//! `PRDRB_TOPO` / `prdrb_bench::topo_override`.
//!
//! Environment: `PRDRB_RESULTS` (output dir, default `results/`),
//! `PRDRB_SCALE` (duration multiplier for quick runs, default 1.0),
//! `PRDRB_SEEDS` (replicas per config, default 5), `PRDRB_CACHE`
//! (run-cache dir; `off`/`0` disables, default `results/.cache`),
//! `PRDRB_SHARDS` (what `--shards` sets, default 1), `PRDRB_SPECULATE`
//! (what `--speculate` sets; `1`/`true` enables, default off),
//! `PRDRB_TOPO` (what `--topo` sets, default unset).

use prdrb_bench::figures::{registry, Target};
use rayon::prelude::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        match args.get(i + 1).and_then(|s| s.parse::<u32>().ok()) {
            Some(n) if n >= 1 => {
                std::env::set_var("PRDRB_SHARDS", n.to_string());
                args.drain(i..=i + 1);
                if n >= 2 {
                    print_shard_plans(n);
                }
            }
            _ => {
                eprintln!("--shards needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--speculate") {
        std::env::set_var("PRDRB_SPECULATE", "1");
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--topo") {
        // One table rules the CLI surface: a name is valid iff it is in
        // `NAMED_TOPOLOGIES` (the same table `TopologyKind::build`
        // round-trips through), so the flag can never drift from the
        // builders.
        match args.get(i + 1).map(String::as_str) {
            Some(name) if prdrb_engine::TopologyKind::parse(name).is_some() => {
                std::env::set_var("PRDRB_TOPO", name);
                args.drain(i..=i + 1);
            }
            _ => {
                let names: Vec<&str> = prdrb_engine::NAMED_TOPOLOGIES
                    .iter()
                    .map(|(n, _)| *n)
                    .collect();
                eprintln!("--topo needs one of: {}", names.join(", "));
                std::process::exit(2);
            }
        }
    }
    let targets = registry();
    if args.is_empty() || args[0] == "list" {
        println!("repro targets ({}):", targets.len());
        for t in &targets {
            println!("  {:<22} {}", t.id, t.title);
        }
        println!(
            "\nusage: repro [--shards N] [--speculate] [--topo NAME] <id>... | all | \
             workloads [--quick]"
        );
        return;
    }
    if args[0] == "workloads" {
        // Group alias: every wl_* target. --quick shrinks the runs for
        // CI smoke use without clobbering explicit env overrides.
        if args.iter().any(|a| a == "--quick") {
            if std::env::var("PRDRB_SCALE").is_err() {
                std::env::set_var("PRDRB_SCALE", "0.2");
            }
            if std::env::var("PRDRB_SEEDS").is_err() {
                std::env::set_var("PRDRB_SEEDS", "2");
            }
        }
        args = targets
            .iter()
            .filter(|t| t.id.starts_with("wl_"))
            .map(|t| t.id.to_string())
            .collect();
    }
    let selected: Vec<&Target> = if args.iter().any(|a| a == "all") {
        targets.iter().collect()
    } else {
        let sel: Vec<&Target> = targets
            .iter()
            .filter(|t| args.iter().any(|a| a == t.id))
            .collect();
        let known: Vec<&str> = sel.iter().map(|t| t.id).collect();
        for a in &args {
            if !known.contains(&a.as_str()) {
                eprintln!("unknown target: {a} (see `repro list`)");
                std::process::exit(2);
            }
        }
        sel
    };
    let started = std::time::Instant::now();
    let outputs: Vec<(String, String, bool, f64)> = selected
        .par_iter()
        .map(|t| {
            let t0 = std::time::Instant::now();
            let out = (t.run)();
            let ok = out.all_hold();
            (
                t.id.to_string(),
                out.finish(),
                ok,
                t0.elapsed().as_secs_f64(),
            )
        })
        .collect();
    let mut failed = 0;
    for (_, text, ok, _) in &outputs {
        println!("{text}");
        if !ok {
            failed += 1;
        }
    }
    let rows: Vec<(String, f64, bool)> = outputs
        .iter()
        .map(|(id, _, ok, secs)| (id.clone(), *secs, *ok))
        .collect();
    print!(
        "{}",
        prdrb_bench::report::timing_block("per-target wall-clock", &rows)
    );
    if let Some((csv, json)) = prdrb_bench::export_probe_artifacts() {
        println!("probe artifacts: {} {}", csv.display(), json.display());
    }
    if prdrb_bench::speculate() {
        // Process-wide totals: cache hits run no fabric, and serial
        // fallbacks never speculate, so all-zero lines are expected on
        // fully cached (or --shards 1) invocations.
        let (commits, aborts, replays) = prdrb_network::spec_stats();
        println!(
            "speculation: {commits} window(s) committed clean, {aborts} aborted \
             ({replays} shard replays, {:.1}% commit rate)",
            if commits + aborts == 0 {
                100.0
            } else {
                100.0 * commits as f64 / (commits + aborts) as f64
            }
        );
    }
    let cache_line = prdrb_bench::report::cache_line();
    println!(
        "\n{} target(s) in {:.1} s; {} with all checks holding, {} with deviations; \
         {cache_line}; artifacts in {}",
        outputs.len(),
        started.elapsed().as_secs_f64(),
        outputs.len() - failed,
        failed,
        prdrb_bench::results_dir().display()
    );
}

/// Summarize the partition `--shards N` puts the canonical figure
/// topologies under: the cut size bounds handoff traffic, the
/// router/NIC balance bounds per-window skew, and the lookahead (under
/// default link parameters) is the window width the cut earns.
fn print_shard_plans(shards: u32) {
    use prdrb_network::{shard_lookahead, NetworkConfig};
    use prdrb_topology::{ShardPlan, Topology};
    let net = NetworkConfig::default();
    println!("shard plans at K={shards} (default link parameters):");
    // `--topo <name>` narrows the summary to one named topology;
    // otherwise every entry of the NAMED table is summarized.
    let only = prdrb_bench::topo_override();
    for (name, kind) in prdrb_engine::NAMED_TOPOLOGIES {
        if only.is_some_and(|k| k != kind) {
            continue;
        }
        let topo = kind.build();
        let plan = ShardPlan::new(&topo, shards);
        println!(
            "  {name:<12} {:<28} cut {:>3} link(s), lookahead {} ns, routers/shard {:?}, \
             nics/shard {:?}",
            topo.label(),
            plan.cut_size(&topo),
            shard_lookahead(&plan, &topo, &net),
            plan.shard_sizes(),
            plan.nic_counts(),
        );
    }
}
