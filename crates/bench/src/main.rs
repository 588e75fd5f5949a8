//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! repro list            # all targets
//! repro fig4_13         # one target
//! repro fig4_13 fig4_14 # several
//! repro all             # everything, one target after another
//! ```
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
    let args: Vec<String> = std::env::args().skip(1).collect();
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
        println!("\nusage: repro <id>... | all");
        return;
    }
    // Every argument must name a target or `all`. A stray flag is
    // rejected here rather than ignored.
    for a in &args {
        if a != "all" && !targets.iter().any(|t| t.id == a) {
            eprintln!("unknown target: {a} (see `repro list`)");
            std::process::exit(2);
        }
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
