//! # prdrb-engine — full simulation assembly
//!
//! Ties the substrate together into the experiments of Chapter 4: a
//! topology + fabric (`prdrb-network`), a source routing policy
//! (`prdrb-core`), and a workload — synthetic traffic (`prdrb-traffic`)
//! or a point-to-point trace (`prdrb-apps` lowers application traces and
//! collective schedules to one) replayed by the [`player`] — producing
//! the metrics the figures plot.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod player;
pub mod report;
pub mod runner;

pub use cache::{RunCache, RunKey};
pub use config::{SimConfig, TopologyKind, Workload, NAMED_TOPOLOGIES};
pub use player::Player;
pub use report::RunReport;
pub use runner::Simulation;

/// Run one simulation to completion (convenience wrapper).
pub fn run(cfg: SimConfig) -> RunReport {
    Simulation::new(cfg).run()
}

/// Run one simulation through the cache: replay the stored report when
/// `cfg` was run before, otherwise simulate and store. Returns the
/// report and whether it was a cache hit. `None` disables caching.
pub fn run_cached(cfg: SimConfig, cache: Option<&RunCache>) -> (RunReport, bool) {
    let Some(cache) = cache else {
        return (run(cfg), false);
    };
    let key = RunKey::of(&cfg);
    if let Some(report) = cache.load(key) {
        return (report, true);
    }
    let report = run(cfg);
    cache.store(key, &report);
    (report, false)
}

/// The parallel sweep executor: run every configuration (on rayon worker
/// threads, through the cache when one is given) and return the reports
/// **in input order**. Each run is a pure function of its config and the
/// merge order is fixed, so the output is byte-identical to running the
/// same list serially — parallelism and caching are invisible to
/// downstream consumers.
pub fn run_many(cfgs: Vec<SimConfig>, cache: Option<&RunCache>) -> Vec<RunReport> {
    use rayon::prelude::*;
    cfgs.into_par_iter()
        .map(|c| run_cached(c, cache).0)
        .collect()
}

/// Run `seeds.len()` replicas in parallel and return their reports in
/// seed order (§4.3: "multiple instances of the simulation with a
/// different set of random seeds … averaged to estimate the typical
/// behavior"). Equivalent to [`run_replicas_serial`], faster.
pub fn run_replicas(cfg: &SimConfig, seeds: &[u64]) -> Vec<RunReport> {
    let cfgs = seeds
        .iter()
        .map(|&s| {
            let mut c = cfg.clone();
            c.seed = s;
            c
        })
        .collect();
    run_many(cfgs, None)
}

/// Serial reference implementation of [`run_replicas`] — kept for the
/// determinism property tests that prove the parallel executor returns
/// bit-identical reports.
pub fn run_replicas_serial(cfg: &SimConfig, seeds: &[u64]) -> Vec<RunReport> {
    seeds
        .iter()
        .map(|&s| {
            let mut c = cfg.clone();
            c.seed = s;
            run(c)
        })
        .collect()
}
