//! Dragonfly noise scenario (extension beyond the thesis' mesh/tree
//! comparison set, after De Sensi et al.'s global-link noise studies):
//! a latency-sensitive ring stencil crosses one global link per hop
//! while noisy neighbors in the same groups run the classic
//! adversarial shift (group g → group g+1) plus background uniform
//! spray. Minimal routing has exactly one global per ordered group
//! pair, so the stencil and the noise collide by construction —
//! 1800 Mbps offered against one 2 Gbps wire; Valiant/UGAL misrouting
//! and PR-DRB's metapaths are the escape hatches under comparison.

use super::{run_policies, Target};
use crate::{pct, scaled, write_artifact, FigureOutput};
use prdrb_core::PolicyKind;
use prdrb_engine::{RunReport, SimConfig, TopologyKind, Workload};
use prdrb_metrics::{Cell, Table};
use prdrb_simcore::time::MILLISECOND;
use prdrb_topology::{NodeId, LINK_CLASS_GLOBAL};
use prdrb_traffic::{BurstSchedule, TrafficPattern};

/// Registry entries for this module.
pub fn targets() -> Vec<Target> {
    vec![Target {
        id: "fig_dfly",
        title: "dragonfly noise — stencil vs noisy neighbor (minimal / Valiant / UGAL / PR-DRB)",
        run: fig_dfly,
    }]
}

/// The canonical dragonfly of the extension experiments: 9 groups of
/// 4 routers, 2 terminals and 2 global ports per router (palm-tree
/// fully wired: exactly one global link per ordered group pair).
const DFLY: TopologyKind = TopologyKind::Dragonfly { a: 9, r: 4, h: 2 };
const GROUPS: u32 = 9;
const PER_GROUP: u32 = 8; // terminals per group (r * h)

/// The ring stencil: terminal 0 of group g sends to terminal 0 of
/// group g+1 — every flow crosses that pair's single global link.
fn stencil() -> Vec<(NodeId, NodeId)> {
    (0..GROUPS)
        .map(|g| {
            (
                NodeId(g * PER_GROUP),
                NodeId(((g + 1) % GROUPS) * PER_GROUP),
            )
        })
        .collect()
}

/// The noisy neighbors: terminals 1..=5 of group g all talk to their
/// peers in group g+1 — the classic dragonfly adversarial shift. Under
/// minimal routing all six flows of a group (stencil + these five)
/// funnel through the one g→g+1 global link, 1800 Mbps offered against
/// a 2 Gbps wire; misrouting spreads them over the eight other globals.
fn adversarial() -> Vec<(NodeId, NodeId)> {
    (0..GROUPS)
        .flat_map(|g| {
            (1..=5).map(move |k| {
                (
                    NodeId(g * PER_GROUP + k),
                    NodeId(((g + 1) % GROUPS) * PER_GROUP + k),
                )
            })
        })
        .collect()
}

/// Uniform sprayers on terminal 7 of every group: background jitter on
/// every global link, so the adversarial load is noisy rather than a
/// clean periodic pattern.
fn noise_nodes() -> Vec<NodeId> {
    (0..GROUPS).map(|g| NodeId(g * PER_GROUP + 7)).collect()
}

fn dfly_cfg(policy: PolicyKind, noisy: bool) -> SimConfig {
    let mut cfg = SimConfig::synthetic(
        DFLY,
        policy,
        BurstSchedule::continuous(TrafficPattern::Uniform, 1.0),
        0,
    );
    let mut flows = stencil();
    if noisy {
        flows.extend(adversarial());
    }
    cfg.workload = Workload::Flows {
        flows,
        mbps: 300.0,
        noise_nodes: if noisy { noise_nodes() } else { Vec::new() },
        noise_mbps: if noisy { 900.0 } else { 0.0 },
        msg_bytes: 1024,
    };
    // Global wires are long: 500 ns extra on every inter-group link.
    cfg.net.wire_class_extra_ns[LINK_CLASS_GLOBAL as usize] = 500;
    // Zone thresholds bracketing the stencil's working zone: diameter-3
    // paths with one long global sit around 10 µs loaded.
    cfg.drb.threshold_low_ns = 6_000;
    cfg.drb.threshold_high_ns = 15_000;
    cfg.duration_ns = scaled(2 * MILLISECOND);
    cfg.max_ns = 2000 * MILLISECOND;
    cfg
}

fn lat(r: &RunReport) -> f64 {
    r.global_avg_latency_us
}

fn fig_dfly() -> FigureOutput {
    let mut out = FigureOutput::new(
        "fig_dfly",
        "dragonfly noise — stencil vs noisy neighbor (minimal / Valiant / UGAL / PR-DRB)",
    );
    out.push(format!(
        "topology: dragonfly a=9 r=4 h=2 (72 terminals); stencil: {} ring flows at 300 Mbps; \
         noise: {} adversarial g->g+1 flows at 300 Mbps + {} uniform sprayers at 900 Mbps",
        stencil().len(),
        adversarial().len(),
        noise_nodes().len()
    ));
    let kinds = [
        PolicyKind::Deterministic,
        PolicyKind::Valiant,
        PolicyKind::Ugal,
        PolicyKind::PrDrb,
    ];
    let noisy = run_policies(|p| dfly_cfg(p, true), &kinds);
    // The quiet reference: the same stencil with the neighbors silent,
    // under minimal routing — the latency the noise takes away.
    let quiet = run_policies(|p| dfly_cfg(p, false), &[PolicyKind::Deterministic]);
    let quiet_us = lat(&quiet[0]);
    let (det, val, ugal, prdrb) = (
        lat(&noisy[0]),
        lat(&noisy[1]),
        lat(&noisy[2]),
        lat(&noisy[3]),
    );

    let mut table = Table::new(["policy", "scenario", "avg_latency_us"]);
    let row = |policy: &str, scenario: &str, us: f64| {
        vec![
            Cell::Text(policy.into()),
            Cell::Text(scenario.into()),
            Cell::Num(us, 4),
        ]
    };
    table.push_row(row("deterministic", "quiet", quiet_us));
    for (k, r) in kinds.iter().zip(&noisy) {
        table.push_row(row(k.label(), "adversarial", lat(r)));
    }
    out.artifacts
        .push(write_artifact("fig_dfly.csv", &table.to_csv()));

    out.push(format!("quiet minimal reference : {quiet_us:9.2} us"));
    for (k, r) in kinds.iter().zip(&noisy) {
        out.push(format!(
            "{:<24}: {:9.2} us ({:+6.1}% vs quiet), {} diversions/expansions",
            k.label(),
            lat(r),
            pct(lat(r), quiet_us),
            r.policy_stats.expansions
        ));
    }
    // Fraction of the noise-induced latency each adaptive scheme claws
    // back relative to saturated minimal routing.
    let recovered = |x: f64| {
        if det > quiet_us {
            100.0 * (det - x) / (det - quiet_us)
        } else {
            0.0
        }
    };
    out.push(format!(
        "recovered vs minimal    : ugal {:5.1}%, pr-drb {:5.1}%",
        recovered(ugal),
        recovered(prdrb)
    ));

    out.check(
        "minimal saturates under the noisy neighbor (latency well above quiet)",
        format!("det {det:.2} us vs quiet {quiet_us:.2} us"),
        det > 2.0 * quiet_us,
    );
    out.check(
        "PR-DRB recovers latency where minimal saturates",
        format!(
            "pr-drb {prdrb:.2} us vs det {det:.2} us ({:.1}% recovered)",
            recovered(prdrb)
        ),
        prdrb < det && recovered(prdrb) > 30.0,
    );
    out.check(
        "UGAL is competitive (beats minimal under noise)",
        format!("ugal {ugal:.2} us vs det {det:.2} us"),
        ugal < det,
    );
    out.check(
        "adaptive schemes actually misroute (diversions / expansions > 0)",
        format!(
            "ugal {} diversions, pr-drb {} expansions",
            noisy[2].policy_stats.expansions, noisy[3].policy_stats.expansions
        ),
        noisy[2].policy_stats.expansions > 0 && noisy[3].policy_stats.expansions > 0,
    );
    out.check(
        "oblivious Valiant spreads the load (beats minimal) but pays a fixed detour tax",
        format!("valiant {val:.2} us vs det {det:.2} us and quiet {quiet_us:.2} us"),
        val < det && val > quiet_us,
    );
    out
}
