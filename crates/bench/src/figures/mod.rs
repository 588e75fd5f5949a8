//! The per-figure / per-table regeneration targets.
//!
//! Grouped by chapter: [`ch2`] (application-characterization tables and
//! matrices), [`hotspot`] (§4.5/§4.6.2 mesh experiments), [`permutation`]
//! (§4.6.3 fat-tree permutation experiments), [`apps`] (§4.8 application
//! experiments), [`ablations`] (design-choice studies), [`resilience`]
//! (fault-injection recovery), [`workloads`] (application-level
//! workload extensions: collectives, phase loops, open-loop arrivals)
//! and [`dfly`] (dragonfly noise scenario with adaptive-routing
//! baselines).

pub mod ablations;
pub mod apps;
pub mod ch2;
pub mod dfly;
pub mod hotspot;
pub mod permutation;
pub mod resilience;
pub mod workloads;

use crate::{scaled, FigureOutput};
use prdrb_apps::Trace;
use prdrb_core::PolicyKind;
use prdrb_engine::{RunReport, SimConfig, TopologyKind};
use prdrb_simcore::time::MILLISECOND;
use prdrb_traffic::{BurstSchedule, TrafficPattern};

/// A registered repro target.
pub struct Target {
    /// CLI id (e.g. `fig4_13`).
    pub id: &'static str,
    /// Paper item it regenerates.
    pub title: &'static str,
    /// Runner.
    pub run: fn() -> FigureOutput,
}

/// Every target, in paper order.
pub fn registry() -> Vec<Target> {
    let mut v = Vec::new();
    v.extend(ch2::targets());
    v.extend(hotspot::targets());
    v.extend(permutation::targets());
    v.extend(apps::targets());
    v.extend(ablations::targets());
    v.extend(resilience::targets());
    v.extend(workloads::targets());
    v.extend(dfly::targets());
    v
}

/// Table 4.3 synthetic fat-tree configuration: repetitive permutation
/// bursts at `mbps` per node over `nodes` communicating nodes.
pub fn ft_cfg(policy: PolicyKind, pattern: TrafficPattern, mbps: f64, nodes: usize) -> SimConfig {
    // Long bursts relative to DRB's adaptation time, as in the thesis'
    // figures (whose x-axes span whole seconds): the predictive gain is
    // the skipped transitory state at each burst head.
    let schedule = BurstSchedule::repetitive(pattern, mbps, 1_000_000, 500_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, policy, schedule, nodes);
    cfg.duration_ns = scaled(9 * MILLISECOND);
    cfg.net.monitor.router_threshold_ns = 4_000;
    cfg.max_ns = 4000 * MILLISECOND;
    set_load_proportional_thresholds(&mut cfg, mbps);
    cfg
}

/// Zone thresholds bracket the working zone (Fig 3.9), whose latency
/// level scales with the offered load; place them proportionally.
fn set_load_proportional_thresholds(cfg: &mut SimConfig, mbps: f64) {
    let low_us = (mbps / 75.0).max(4.0);
    cfg.drb.threshold_low_ns = (low_us * 1_000.0) as u64;
    cfg.drb.threshold_high_ns = (low_us * 2_500.0) as u64;
}

/// Table 4.2 mesh configuration: bursty shuffle over uniform noise.
pub fn mesh_cfg(policy: PolicyKind, mbps: f64) -> SimConfig {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, mbps, 1_000_000, 500_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::Mesh8x8, policy, schedule, 64);
    cfg.duration_ns = scaled(9 * MILLISECOND);
    cfg.net.monitor.router_threshold_ns = 4_000;
    cfg.max_ns = 4000 * MILLISECOND;
    set_load_proportional_thresholds(&mut cfg, mbps);
    cfg
}

/// Application-trace configuration on the 64-node fat-tree (§4.8.1).
pub fn trace_cfg(policy: PolicyKind, trace: Trace) -> SimConfig {
    let mut cfg = SimConfig::trace(TopologyKind::FatTree443, policy, trace);
    // Track per-router contention series for the map/contention figures.
    cfg.net.contention_series_bucket_ns = Some(200_000);
    // Application phases are short: keep the low threshold under the
    // zero-load metapath latency so opened paths survive across phases
    // instead of flapping (Fig 3.9's zones bracket the app's own
    // working-zone latency).
    cfg.drb.threshold_low_ns = 500;
    cfg.drb.threshold_high_ns = 10_000;
    cfg
}

/// The baseline-versus-DRB trio most figures compare.
pub const TRIO: [PolicyKind; 3] = [
    PolicyKind::Deterministic,
    PolicyKind::Drb,
    PolicyKind::PrDrb,
];

/// The report of policy `k` among `reports`.
pub fn by(reports: &[RunReport], k: PolicyKind) -> &RunReport {
    reports
        .iter()
        .find(|r| r.policy == k.label())
        .expect("policy present")
}

/// Run one configuration with a label, through the shared run cache.
pub fn run_labeled(mut cfg: SimConfig, label: impl Into<String>) -> RunReport {
    cfg.label = label.into();
    prdrb_engine::run_cached(cfg, crate::run_cache()).0
}

/// Run the same config under several policies, each averaged over the
/// seeded replicas, through the engine's parallel sweep executor (and
/// the shared run cache). The returned report is the seed-1 run (for
/// series/maps) with the headline scalars replaced by the cross-seed
/// folds of [`RunReport::fold_replicas`].
pub fn run_policies(
    make: impl Fn(PolicyKind) -> SimConfig,
    kinds: &[PolicyKind],
) -> Vec<RunReport> {
    let mut cfgs: Vec<SimConfig> = Vec::with_capacity(kinds.len());
    for &k in kinds {
        let mut cfg = make(k);
        if cfg.label.is_empty() {
            cfg.label = k.label().into();
        } else {
            cfg.label = format!("{}/{}", cfg.label, k.label());
        }
        cfgs.push(cfg);
    }
    run_replicated(cfgs)
}

/// Run each configuration over the seeded replicas (§4.3) through the
/// engine's parallel sweep executor and the shared run cache, folding
/// each config's replicas into one report. Input order is preserved.
pub fn run_replicated(cfgs: Vec<SimConfig>) -> Vec<RunReport> {
    let seeds: Vec<u64> = (1..=crate::num_seeds()).collect();
    let jobs: Vec<SimConfig> = cfgs
        .iter()
        .flat_map(|c| {
            seeds.iter().map(move |&s| {
                let mut c = c.clone();
                c.seed = s;
                c
            })
        })
        .collect();
    let mut runs = prdrb_engine::run_many(jobs, crate::run_cache()).into_iter();
    cfgs.iter()
        .map(|_| RunReport::fold_replicas(runs.by_ref().take(seeds.len()).collect()))
        .collect()
}
