//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! repro list            # all targets
//! repro fig4_13         # one target
//! repro fig4_13 fig4_14 # several
//! repro all             # everything, one target after another
//! repro workloads       # the wl_* application-workload targets
//! repro workloads --quick # same, shrunk for CI smoke use
//! ```
//!
//! `workloads` is a group alias expanding to every `wl_*` target;
//! `--quick` there shrinks the runs by defaulting `PRDRB_SCALE=0.2` and
//! `PRDRB_SEEDS=2` (explicit environment settings win).
//!
//! Any other argument — a stray flag included — is an unknown target
//! and stops `repro` with exit status 2.
//!
//! Targets run one after another; each spreads its own runs over the
//! cores through `run_many`. So a config that two targets share is
//! simulated once and replayed from the run cache the second time.
//!
//! Environment: `PRDRB_RESULTS` (output dir, default `results/`),
//! `PRDRB_SCALE` (duration multiplier for quick runs, default 1.0),
//! `PRDRB_SEEDS` (replicas per config, default 5), `PRDRB_CACHE`
//! (run-cache dir; `off`/`0` disables, default `results/.cache`).
//! `PRDRB_SEEDS` takes a positive integer and `PRDRB_SCALE` a positive
//! finite number; any other set value stops `repro` at startup with
//! exit status 2.

use prdrb_bench::figures::{registry, Target};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = prdrb_bench::check_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let targets = registry();
    if args.is_empty() || args[0] == "list" {
        println!("repro targets ({}):", targets.len());
        for t in &targets {
            println!("  {:<22} {}", t.id, t.title);
        }
        println!("\nusage: repro <id>... | all | workloads [--quick]");
        return;
    }
    // Every remaining argument must name something: a target, `all`,
    // or the leading `workloads` alias with its `--quick` flag. A
    // stray flag is rejected here rather than ignored.
    let group = args[0] == "workloads";
    for (i, a) in args.iter().enumerate() {
        let known = a == "all"
            || (group && (i == 0 || a == "--quick"))
            || targets.iter().any(|t| t.id == a);
        if !known {
            eprintln!("unknown target: {a} (see `repro list`)");
            std::process::exit(2);
        }
    }
    if group {
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
        targets
            .iter()
            .filter(|t| args.iter().any(|a| a == t.id))
            .collect()
    };
    let started = std::time::Instant::now();
    let outputs: Vec<(String, String, bool, f64)> = selected
        .iter()
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
