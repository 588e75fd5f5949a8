//! Ablations of the design choices DESIGN.md calls out:
//!
//! * threshold placement (the SBAC-PAD'11 companion paper's study);
//! * destination- vs router-based notification (§3.4 design
//!   alternatives);
//! * the 80 % similarity bar of the solution database (§3.2.8);
//! * the settle window behind "one path at a time" (§4.5.1);
//! * the metapath size cap (4 paths in the evaluation).

use super::{ft_cfg, Target};
use crate::FigureOutput;
use prdrb_core::{PolicyKind, Similarity};
use prdrb_engine::RunReport;
use prdrb_simcore::time::MICROSECOND;
use prdrb_traffic::TrafficPattern;

/// Registry entries for this module.
pub fn targets() -> Vec<Target> {
    vec![
        Target {
            id: "ablate_thresholds",
            title: "Ablation — zone thresholds",
            run: thresholds,
        },
        Target {
            id: "ablate_notification",
            title: "Ablation — destination vs router notification",
            run: notification,
        },
        Target {
            id: "ablate_similarity",
            title: "Ablation — pattern-similarity bar",
            run: similarity,
        },
        Target {
            id: "ablate_settle",
            title: "Ablation — path-opening settle window",
            run: settle,
        },
        Target {
            id: "ablate_maxpaths",
            title: "Ablation — metapath size cap",
            run: maxpaths,
        },
        Target {
            id: "ablate_trend",
            title: "Extension — §5.2 latency-trend prediction",
            run: trend,
        },
        Target {
            id: "ablate_static",
            title: "Extension — §5.2 static (offline) variant",
            run: static_variant,
        },
        Target {
            id: "ablate_adaptive",
            title: "Extension — fully adaptive per-hop reference",
            run: adaptive,
        },
    ]
}

fn base_cfg(
    mutate: impl Fn(&mut prdrb_engine::SimConfig),
    label: String,
) -> prdrb_engine::SimConfig {
    let mut cfg = ft_cfg(PolicyKind::PrDrb, TrafficPattern::Shuffle, 600.0, 32);
    mutate(&mut cfg);
    cfg.label = label;
    cfg
}

fn base_run(mutate: impl Fn(&mut prdrb_engine::SimConfig), label: String) -> RunReport {
    sweep(vec![base_cfg(mutate, label)])
        .pop()
        .expect("one report")
}

/// Run an ablation grid through the engine's parallel sweep executor and
/// the shared run cache, each point averaged over the seeded replicas
/// (§4.3) so single-seed noise cannot flip a comparison; reports come
/// back in grid order.
fn sweep(cfgs: Vec<prdrb_engine::SimConfig>) -> Vec<RunReport> {
    super::run_replicated(cfgs)
}

fn thresholds() -> FigureOutput {
    let mut out = FigureOutput::new("ablate_thresholds", "zone thresholds (low/high µs)");
    let grid: Vec<(u64, u64)> = vec![(4, 10), (8, 20), (12, 40), (20, 80)];
    let reports = sweep(
        grid.iter()
            .map(|&(lo, hi)| {
                base_cfg(
                    |c| {
                        c.drb.threshold_low_ns = lo * MICROSECOND;
                        c.drb.threshold_high_ns = hi * MICROSECOND;
                    },
                    format!("thr {lo}/{hi}"),
                )
            })
            .collect(),
    );
    for r in &reports {
        out.push(r.oneline());
    }
    let best = reports
        .iter()
        .map(|r| r.global_avg_latency_us)
        .fold(f64::INFINITY, f64::min);
    let worst = reports
        .iter()
        .map(|r| r.global_avg_latency_us)
        .fold(0.0, f64::max);
    out.check(
        "threshold placement matters: aggressive thresholds adapt earlier",
        format!("best {best:.2} us vs worst {worst:.2} us"),
        worst > best,
    );
    out
}

fn notification() -> FigureOutput {
    let mut out = FigureOutput::new(
        "ablate_notification",
        "destination-based vs router-based (§3.4)",
    );
    let dest = base_run(|c| c.drb.router_based = false, "destination-based".into());
    let router = base_run(|c| c.drb.router_based = true, "router-based".into());
    out.push(dest.oneline());
    out.push(router.oneline());
    out.push(format!(
        "notifications: dest {} vs router {}; ACKs: {} vs {}",
        dest.notifications, router.notifications, dest.acks_sent, router.acks_sent
    ));
    out.check(
        "router-based notification reacts without hurting latency (more robust under congestion)",
        format!(
            "dest {:.2} us vs router {:.2} us",
            dest.global_avg_latency_us, router.global_avg_latency_us
        ),
        router.global_avg_latency_us <= dest.global_avg_latency_us * 1.15,
    );
    out.check(
        "both schemes detect congestion",
        format!("{} / {}", dest.notifications, router.notifications),
        dest.notifications > 0 && router.notifications > 0,
    );
    out
}

fn similarity() -> FigureOutput {
    let mut out = FigureOutput::new("ablate_similarity", "pattern-similarity bar (0.5–1.0)");
    let bars = [0.5, 0.8, 0.95];
    let reports = sweep(
        bars.iter()
            .map(|&s| base_cfg(|c| c.drb.min_similarity = s, format!("sim {s}")))
            .collect(),
    );
    for r in &reports {
        out.push(format!(
            "{}  (reuse {} / saved {})",
            r.oneline(),
            r.policy_stats.reuse_applications,
            r.policy_stats.patterns_found
        ));
    }
    out.check(
        "a lower similarity bar reuses solutions at least as often",
        format!(
            "reuse at 0.5: {}, at 0.95: {}",
            reports[0].policy_stats.reuse_applications, reports[2].policy_stats.reuse_applications
        ),
        reports[0].policy_stats.reuse_applications >= reports[2].policy_stats.reuse_applications,
    );
    let jaccard = base_run(|c| c.drb.similarity = Similarity::Jaccard, "jaccard".into());
    out.push(jaccard.oneline());
    out.check(
        "the 0.8 overlap default keeps latency within the family's band",
        format!(
            "{:.2} us (default) vs {:.2} us (jaccard)",
            reports[1].global_avg_latency_us, jaccard.global_avg_latency_us
        ),
        reports[1].global_avg_latency_us <= jaccard.global_avg_latency_us * 1.25,
    );
    out
}

fn settle() -> FigureOutput {
    let mut out = FigureOutput::new("ablate_settle", "path-opening settle window");
    let windows = [20u64, 120, 400];
    let reports = sweep(
        windows
            .iter()
            .map(|&w| {
                let mut drb_cfg = ft_cfg(PolicyKind::Drb, TrafficPattern::Shuffle, 600.0, 32);
                drb_cfg.drb.adjust_settle_ns = w * MICROSECOND;
                drb_cfg.label = format!("drb settle {w}us");
                drb_cfg
            })
            .collect(),
    );
    for r in &reports {
        out.push(format!(
            "{}  (expansions {})",
            r.oneline(),
            r.policy_stats.expansions
        ));
    }
    out.check(
        "slower settling (fewer, more deliberate openings) costs DRB adaptation speed",
        format!(
            "20us: {:.2} us vs 400us: {:.2} us",
            reports[0].global_avg_latency_us, reports[2].global_avg_latency_us
        ),
        reports[2].global_avg_latency_us >= reports[0].global_avg_latency_us * 0.95,
    );
    out.check(
        "expansions decrease as the window grows",
        format!(
            "{} vs {} expansions",
            reports[0].policy_stats.expansions, reports[2].policy_stats.expansions
        ),
        reports[0].policy_stats.expansions >= reports[2].policy_stats.expansions,
    );
    out
}

fn trend() -> FigureOutput {
    let mut out = FigureOutput::new(
        "ablate_trend",
        "latency-trend prediction (react before Threshold_High is hit)",
    );
    let base = base_run(|_| {}, "pr-drb".into());
    let trended = base_run(|c| c.drb.trend_window = 8, "pr-drb + trend".into());
    out.push(base.oneline());
    out.push(trended.oneline());
    out.push(format!(
        "trend predictions fired: {} (early reactions before the threshold)",
        trended.policy_stats.trend_predictions
    ));
    out.check(
        "the trend detector fires on rising latency ramps",
        format!("{} early reactions", trended.policy_stats.trend_predictions),
        trended.policy_stats.trend_predictions > 0,
    );
    out.check(
        "early reaction does not hurt latency ('this trend analysis could improve performance')",
        format!(
            "{:.2} us (trend) vs {:.2} us (plain)",
            trended.global_avg_latency_us, base.global_avg_latency_us
        ),
        trended.global_avg_latency_us <= base.global_avg_latency_us * 1.1,
    );
    out
}

fn static_variant() -> FigureOutput {
    let mut out = FigureOutput::new(
        "ablate_static",
        "static variant: offline-preloaded solution database",
    );
    // Offline profile: the shuffle permutation's heavy flows (what a
    // PAS2P-style comm-matrix extraction would provide).
    let profile: Vec<prdrb_core::ProfiledFlow> = {
        use prdrb_simcore::SimRng;
        use prdrb_traffic::TrafficPattern;
        let mut rng = SimRng::new(0);
        (0..32u32)
            .map(|s| prdrb_core::ProfiledFlow {
                src: prdrb_topology::NodeId(s),
                dst: TrafficPattern::Shuffle.dest(prdrb_topology::NodeId(s), 64, &mut rng),
                bytes: 1_000_000,
            })
            .collect()
    };
    let cold = base_run(|_| {}, "pr-drb (cold)".into());
    let profile2 = profile.clone();
    let warm = base_run(
        move |c| c.preload_profile = profile2.clone(),
        "pr-drb (preloaded)".into(),
    );
    out.push(cold.oneline());
    out.push(warm.oneline());
    out.push(format!(
        "solution applications: cold {} vs preloaded {}",
        cold.policy_stats.reuse_applications, warm.policy_stats.reuse_applications
    ));
    out.check(
        "preloaded solutions are applied from the first episode onward",
        format!(
            "{} applications in the preloaded run",
            warm.policy_stats.reuse_applications
        ),
        warm.policy_stats.reuse_applications > 0,
    );
    out.check(
        "offline knowledge shortens the learning stage ('help leverage the predictive phases')",
        format!(
            "{:.2} us (preloaded) vs {:.2} us (cold)",
            warm.global_avg_latency_us, cold.global_avg_latency_us
        ),
        warm.global_avg_latency_us <= cold.global_avg_latency_us,
    );
    out.check(
        "offline meta-information does not hurt the dynamic policy",
        format!(
            "{:.2} us (preloaded) vs {:.2} us (cold)",
            warm.global_avg_latency_us, cold.global_avg_latency_us
        ),
        warm.global_avg_latency_us <= cold.global_avg_latency_us * 1.1,
    );
    out
}

fn adaptive() -> FigureOutput {
    let mut out = FigureOutput::new(
        "ablate_adaptive",
        "fully adaptive per-hop routing as an upper-reference baseline",
    );
    let runs = sweep(
        [
            PolicyKind::Deterministic,
            PolicyKind::Adaptive,
            PolicyKind::PrDrb,
        ]
        .iter()
        .map(|&k| {
            let mut cfg = ft_cfg(k, TrafficPattern::Shuffle, 600.0, 32);
            cfg.label = k.label().to_string();
            cfg
        })
        .collect(),
    );
    for r in &runs {
        out.push(r.oneline());
    }
    let det = &runs[0];
    let ada = &runs[1];
    let pr = &runs[2];
    out.check(
        "per-hop adaptivity beats the fixed route (taxonomy of Fig 2.5)",
        format!(
            "{:.2} us vs det {:.2} us",
            ada.global_avg_latency_us, det.global_avg_latency_us
        ),
        ada.global_avg_latency_us < det.global_avg_latency_us,
    );
    out.check(
        "PR-DRB approaches the adaptive reference without per-hop hardware state",
        format!(
            "pr {:.2} us vs adaptive {:.2} us",
            pr.global_avg_latency_us, ada.global_avg_latency_us
        ),
        pr.global_avg_latency_us <= ada.global_avg_latency_us * 3.0,
    );
    out
}

fn maxpaths() -> FigureOutput {
    let mut out = FigureOutput::new("ablate_maxpaths", "metapath size cap");
    let caps = [1usize, 2, 4, 8];
    let reports = sweep(
        caps.iter()
            .map(|&m| base_cfg(|c| c.drb.max_paths = m, format!("max {m} paths")))
            .collect(),
    );
    for r in &reports {
        out.push(r.oneline());
    }
    out.check(
        "a single path (no balancing) is worst; 4 paths capture most of the gain",
        format!(
            "1: {:.2} us, 2: {:.2}, 4: {:.2}, 8: {:.2}",
            reports[0].global_avg_latency_us,
            reports[1].global_avg_latency_us,
            reports[2].global_avg_latency_us,
            reports[3].global_avg_latency_us
        ),
        reports[2].global_avg_latency_us <= reports[0].global_avg_latency_us,
    );
    out
}
