//! §4.6.3 — fat-tree permutation traffic (Table 4.3): Figs 4.13–4.18 and
//! the appendix variants A.1–A.4. Each figure compares DRB against
//! PR-DRB under one (pattern, node count, rate) cell; the paper's gains
//! range from 18 % to 40 %.

use super::{ft_cfg, run_policies, Target};
use crate::{pct, write_artifact, FigureOutput};
use prdrb_core::PolicyKind;
use prdrb_metrics::{render_series, series_csv, Cell, SeriesSummary, Table};
use prdrb_network::config::LINK_GBPS;
use prdrb_traffic::TrafficPattern;

/// Registry entries for this module.
pub fn targets() -> Vec<Target> {
    vec![
        Target {
            id: "table4_3",
            title: "Table 4.3 — systematic-traffic parameters",
            run: table4_3,
        },
        Target {
            id: "fig4_13",
            title: "Fig 4.13 — FT shuffle, 32 nodes, 400 Mbps",
            run: || permutation("fig4_13", TrafficPattern::Shuffle, 32, 400.0, 29.0),
        },
        Target {
            id: "fig4_14",
            title: "Fig 4.14 — FT shuffle, 32 nodes, 600 Mbps",
            run: || permutation("fig4_14", TrafficPattern::Shuffle, 32, 600.0, 22.0),
        },
        Target {
            id: "fig4_15",
            title: "Fig 4.15 — FT bit reversal, 32 nodes, 400 Mbps",
            run: || permutation("fig4_15", TrafficPattern::BitReversal, 32, 400.0, 23.0),
        },
        Target {
            id: "fig4_16",
            title: "Fig 4.16 — FT bit reversal, 32 nodes, 600 Mbps",
            run: || permutation("fig4_16", TrafficPattern::BitReversal, 32, 600.0, 18.0),
        },
        Target {
            id: "fig4_17",
            title: "Fig 4.17 — FT transpose, 64 nodes, 400 Mbps",
            run: || permutation("fig4_17", TrafficPattern::Transpose, 64, 400.0, 31.0),
        },
        Target {
            id: "fig4_18",
            title: "Fig 4.18 — FT transpose, 64 nodes, 600 Mbps",
            run: || permutation("fig4_18", TrafficPattern::Transpose, 64, 600.0, 40.0),
        },
        Target {
            id: "figa_1",
            title: "Fig A.1 — FT transpose, 32 nodes, 400 Mbps",
            run: || permutation("figa_1", TrafficPattern::Transpose, 32, 400.0, 20.0),
        },
        Target {
            id: "figa_2",
            title: "Fig A.2 — FT transpose, 32 nodes, 600 Mbps",
            run: || permutation("figa_2", TrafficPattern::Transpose, 32, 600.0, 20.0),
        },
        Target {
            id: "figa_3",
            title: "Fig A.3 — FT shuffle, 64 nodes, 400 Mbps",
            run: || permutation("figa_3", TrafficPattern::Shuffle, 64, 400.0, 20.0),
        },
        Target {
            id: "figa_4",
            title: "Fig A.4 — FT bit reversal, 64 nodes, 400 Mbps",
            run: || permutation("figa_4", TrafficPattern::BitReversal, 64, 400.0, 20.0),
        },
        Target {
            id: "load_sweep",
            title: "§5.1 — saturation: latency vs offered load",
            run: load_sweep,
        },
    ]
}

/// Latency-vs-offered-load curves (the classic saturation plot): §5.1
/// claims "saturation is reduced allowing the use of the network at
/// higher loads" — DRB-family curves must stay flat past the point
/// where the deterministic route blows up.
fn load_sweep() -> FigureOutput {
    let mut out = FigureOutput::new("load_sweep", "latency vs offered load");
    let rates: Vec<f64> = vec![200.0, 400.0, 600.0, 800.0, 1000.0];
    let kinds = [
        PolicyKind::Deterministic,
        PolicyKind::Drb,
        PolicyKind::PrDrb,
    ];
    let jobs: Vec<(f64, PolicyKind)> = rates
        .iter()
        .flat_map(|&r| kinds.iter().map(move |&k| (r, k)))
        .collect();
    let cfgs: Vec<_> = jobs
        .iter()
        .map(|&(rate, k)| {
            let mut cfg = ft_cfg(k, TrafficPattern::Shuffle, rate, 32);
            cfg.duration_ns = crate::scaled(4_000_000);
            cfg.label = format!("load {rate} {}", k.label());
            cfg
        })
        .collect();
    let reports = prdrb_engine::run_many(cfgs, crate::run_cache());
    let runs: Vec<(f64, PolicyKind, f64, f64)> = jobs
        .iter()
        .zip(&reports)
        .map(|(&(rate, k), r)| {
            let (_, _, p99) = r.tail_latency_us();
            (rate, k, r.global_avg_latency_us, p99)
        })
        .collect();
    let mut table = Table::new(["mbps", "policy", "avg_us", "p99_us"]);
    out.push(format!(
        "{:<8} {:<15} {:>10} {:>10}",
        "Mbps", "policy", "avg us", "p99 us"
    ));
    for &(rate, k, avg, p99) in &runs {
        out.push(format!(
            "{:<8} {:<15} {:>10.2} {:>10.2}",
            rate,
            k.label(),
            avg,
            p99
        ));
        table.push_row(vec![
            Cell::Text(rate.to_string()),
            Cell::Text(k.label().into()),
            Cell::Num(avg, 3),
            Cell::Num(p99, 3),
        ]);
    }
    out.artifacts
        .push(crate::write_artifact("load_sweep.csv", &table.to_csv()));
    let at = |rate: f64, k: PolicyKind| {
        runs.iter()
            .find(|&&(r, p, _, _)| r == rate && p == k)
            .map(|&(_, _, a, _)| a)
            .unwrap()
    };
    out.check(
        "at low load all policies are equivalent (no congestion to fix)",
        format!(
            "200 Mbps: det {:.2}, drb {:.2}, pr {:.2} us",
            at(200.0, PolicyKind::Deterministic),
            at(200.0, PolicyKind::Drb),
            at(200.0, PolicyKind::PrDrb)
        ),
        (at(200.0, PolicyKind::Drb) - at(200.0, PolicyKind::Deterministic)).abs()
            < at(200.0, PolicyKind::Deterministic) * 0.3 + 1.0,
    );
    out.check(
        "past saturation the deterministic route blows up while the DRB family stays usable (§5.1)",
        format!(
            "800 Mbps: det {:.1} vs pr {:.1} us; 1000 Mbps: det {:.1} vs pr {:.1} us",
            at(800.0, PolicyKind::Deterministic),
            at(800.0, PolicyKind::PrDrb),
            at(1000.0, PolicyKind::Deterministic),
            at(1000.0, PolicyKind::PrDrb)
        ),
        at(800.0, PolicyKind::PrDrb) < at(800.0, PolicyKind::Deterministic) * 0.7
            && at(1000.0, PolicyKind::PrDrb) < at(1000.0, PolicyKind::Deterministic) * 0.7,
    );
    out
}

fn table4_3() -> FigureOutput {
    let mut out = FigureOutput::new("table4_3", "systematic traffic parameters");
    let cfg = ft_cfg(PolicyKind::PrDrb, TrafficPattern::Shuffle, 400.0, 32);
    out.push("Topology            : fat-tree 4-ary 3-tree (64 terminals)");
    out.push("Flow control        : virtual cut-through (credits)");
    out.push(format!("Link bandwidth      : {LINK_GBPS} Gbps"));
    out.push(format!(
        "Packet size         : {} bytes",
        cfg.net.packet_bytes
    ));
    out.push("Generation rate     : 400 / 600 Mbps per node");
    out.push("Patterns            : bit reversal, perfect shuffle, matrix transpose");
    out.push(format!("Max alternative paths: {}", cfg.drb.max_paths));
    out.check(
        "parameters match Table 4.3",
        "4-ary 3-tree, 2 Gbps, 1024 B, 4 paths",
        true,
    );
    out
}

/// One permutation figure: DRB vs PR-DRB (plus the deterministic
/// reference) under repetitive bursts.
fn permutation(
    id: &'static str,
    pattern: TrafficPattern,
    nodes: usize,
    mbps: f64,
    paper_gain_pct: f64,
) -> FigureOutput {
    let mut out = FigureOutput::new(id, "fat-tree permutation latency (DRB vs PR-DRB)");
    out.push(format!(
        "pattern {}, {} communicating nodes, {} Mbps/node, repetitive bursts",
        pattern.label(),
        nodes,
        mbps
    ));
    let p = pattern.clone();
    let reports = run_policies(
        move |k| ft_cfg(k, p.clone(), mbps, nodes),
        &[
            PolicyKind::Deterministic,
            PolicyKind::Drb,
            PolicyKind::PrDrb,
        ],
    );
    let (det, drb, pr) = (&reports[0], &reports[1], &reports[2]);
    let pairs: Vec<(&str, _)> = vec![
        ("deterministic", &det.series),
        ("drb", &drb.series),
        ("pr-drb", &pr.series),
    ];
    out.push(render_series(&pairs, 12));
    out.artifacts
        .push(write_artifact(&format!("{id}.csv"), &series_csv(&pairs)));
    // Headline gain from the cross-seed averaged global latencies
    // (Eq 4.2), not the single-seed plot.
    let sp = SeriesSummary::of(&pr.series);
    let gain = -pct(pr.global_avg_latency_us, drb.global_avg_latency_us);
    out.push(format!(
        "measured PR-DRB gain over DRB: {gain:+.1} % (paper: ~{paper_gain_pct:.0} %); \
         PR-DRB learning: {} saved / {} reapplied",
        pr.policy_stats.patterns_found, pr.policy_stats.reuse_applications
    ));
    out.check(
        format!("PR-DRB achieves lower latency than DRB (paper ~{paper_gain_pct:.0} %)"),
        format!(
            "{gain:+.1} % (drb {:.2} us, pr {:.2} us)",
            drb.global_avg_latency_us, pr.global_avg_latency_us
        ),
        pr.global_avg_latency_us <= drb.global_avg_latency_us * 1.03,
    );
    out.check(
        "both adaptive policies beat the deterministic route under load",
        format!(
            "det {:.2} us, drb {:.2} us, pr {:.2} us",
            det.global_avg_latency_us, drb.global_avg_latency_us, pr.global_avg_latency_us
        ),
        drb.global_avg_latency_us <= det.global_avg_latency_us * 1.05
            && pr.global_avg_latency_us <= det.global_avg_latency_us * 1.05,
    );
    out.check(
        "curves stabilize after the transitory state (final <= peak)",
        format!(
            "pr final {:.2} us vs peak {:.2} us",
            sp.final_us, sp.peak_us
        ),
        sp.final_us <= sp.peak_us * 1.01,
    );
    out.check(
        "PR-DRB reuses saved solutions on repeated bursts",
        format!("{} applications", pr.policy_stats.reuse_applications),
        pr.policy_stats.reuse_applications > 0,
    );
    out
}
