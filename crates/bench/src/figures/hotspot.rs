//! §4.5 / §4.6.2 — hot-spot experiments on the 8×8 mesh: path-opening
//! analysis (Figs 4.8/4.9), latency maps (Figs 4.10/4.11) and the
//! mesh average-latency curve (Fig 4.12), under the Table 4.2
//! parameters.

use super::{mesh_cfg, run_labeled, run_policies, Target};
use crate::{pct, scaled, write_artifact, FigureOutput};
use prdrb_core::PolicyKind;
use prdrb_engine::{SimConfig, TopologyKind, Workload};
use prdrb_metrics::{render_series, series_csv, SeriesSummary};
use prdrb_network::config::{INPUT_BUF_BYTES, LINK_GBPS, OUTPUT_BUF_BYTES};
use prdrb_simcore::time::MILLISECOND;
use prdrb_topology::Mesh2D;
use prdrb_traffic::{BurstSchedule, HotSpotScenario, TrafficPattern};

/// Registry entries for this module.
pub fn targets() -> Vec<Target> {
    vec![
        Target {
            id: "table4_2",
            title: "Table 4.2 — hot-spot simulation parameters",
            run: table4_2,
        },
        Target {
            id: "fig4_8",
            title: "Fig 4.8 — path opening, hot-spot situation 1",
            run: fig4_8,
        },
        Target {
            id: "fig4_9",
            title: "Fig 4.9 — path opening, hot-spot situations 2 & 3",
            run: fig4_9,
        },
        Target {
            id: "fig4_10",
            title: "Fig 4.10 — mesh latency map, DRB",
            run: fig4_10_11,
        },
        Target {
            id: "fig4_11",
            title: "Fig 4.11 — mesh latency map, PR-DRB",
            run: fig4_10_11,
        },
        Target {
            id: "fig4_12",
            title: "Fig 4.12 — mesh average latency over bursts",
            run: fig4_12,
        },
    ]
}

fn table4_2() -> FigureOutput {
    let mut out = FigureOutput::new("table4_2", "simulation parameters (hot-spot)");
    let cfg = mesh_cfg(PolicyKind::PrDrb, 400.0);
    out.push("Topology            : mesh 8x8");
    out.push("Flow control        : virtual cut-through (credits)");
    out.push(format!("Link bandwidth      : {LINK_GBPS} Gbps"));
    out.push(format!(
        "Packet size         : {} bytes",
        cfg.net.packet_bytes
    ));
    out.push(format!(
        "Buffers             : {} KiB/input-VC, {} KiB/output",
        INPUT_BUF_BYTES / 1024,
        OUTPUT_BUF_BYTES / 1024
    ));
    out.push("Generation rate     : 400 / 600 Mbps per node");
    out.push("Patterns            : perfect shuffle bursts + uniform noise");
    out.check(
        "parameters match Table 4.2",
        "2 Gbps, 1024 B, VCT, mesh 8x8",
        true,
    );
    out
}

/// Hot-spot flow scenario as a Flows workload.
fn scenario_cfg(policy: PolicyKind, scenario: &HotSpotScenario, mbps: f64) -> SimConfig {
    let mut cfg = SimConfig::synthetic(
        TopologyKind::Mesh8x8,
        policy,
        BurstSchedule::continuous(TrafficPattern::Uniform, 1.0),
        0,
    );
    cfg.workload = Workload::Flows {
        flows: scenario.flows.clone(),
        mbps,
        noise_nodes: scenario.noise_nodes.clone(),
        noise_mbps: mbps * scenario.noise_fraction,
        msg_bytes: 1024,
    };
    cfg.duration_ns = scaled(3 * MILLISECOND);
    cfg.max_ns = 3000 * MILLISECOND;
    cfg
}

fn path_opening(id: &'static str, title: &'static str, scenario: HotSpotScenario) -> FigureOutput {
    let mut out = FigureOutput::new(id, title);
    out.push(format!(
        "scenario: {} — {} hot flows + {} noise nodes",
        scenario.name,
        scenario.flows.len(),
        scenario.noise_nodes.len()
    ));
    let det = run_labeled(
        scenario_cfg(PolicyKind::Deterministic, &scenario, 700.0),
        "det",
    );
    let drb = run_labeled(scenario_cfg(PolicyKind::Drb, &scenario, 700.0), "drb");
    out.push(format!(
        "deterministic: avg latency {:8.2} us, {} contended routers",
        det.global_avg_latency_us,
        det.latency_map.contended_routers()
    ));
    out.push(format!(
        "drb          : avg latency {:8.2} us, {} contended routers, {} paths opened / {} closed",
        drb.global_avg_latency_us,
        drb.latency_map.contended_routers(),
        drb.policy_stats.expansions,
        drb.policy_stats.shrinks
    ));
    out.push("\nDeterministic contention map:");
    out.push(det.latency_map.render());
    out.push("DRB contention map (traffic spread over alternative paths):");
    out.push(drb.latency_map.render());
    out.check(
        "DRB opens alternative paths under the hot-spot (one at a time)",
        format!("{} expansions", drb.policy_stats.expansions),
        drb.policy_stats.expansions >= 1,
    );
    out.check(
        "alternative paths reduce the average latency vs deterministic",
        format!(
            "det {:.2} us -> drb {:.2} us ({:+.1} %)",
            det.global_avg_latency_us,
            drb.global_avg_latency_us,
            pct(drb.global_avg_latency_us, det.global_avg_latency_us)
        ),
        drb.global_avg_latency_us < det.global_avg_latency_us,
    );
    out.check(
        "DRB uses more routers (spreads load wider) than the deterministic corridor",
        format!(
            "{} vs {} contended routers",
            drb.latency_map.contended_routers(),
            det.latency_map.contended_routers()
        ),
        drb.latency_map.contended_routers() >= det.latency_map.contended_routers(),
    );
    out
}

fn fig4_8() -> FigureOutput {
    path_opening(
        "fig4_8",
        "hot-spot situation 1",
        HotSpotScenario::situation1(&Mesh2D::new(8, 8)),
    )
}

fn fig4_9() -> FigureOutput {
    path_opening(
        "fig4_9",
        "hot-spot situations 2 & 3",
        HotSpotScenario::situation2(&Mesh2D::new(8, 8)),
    )
}

fn fig4_10_11() -> FigureOutput {
    let mut out = FigureOutput::new("fig4_10_11", "mesh latency maps: DRB vs PR-DRB (bursty)");
    let reports = run_policies(
        |k| mesh_cfg(k, 600.0),
        &[PolicyKind::Drb, PolicyKind::PrDrb],
    );
    let (drb, pr) = (&reports[0], &reports[1]);
    out.push("DRB latency map:");
    out.push(drb.latency_map.render());
    out.push("PR-DRB latency map:");
    out.push(pr.latency_map.render());
    out.push(format!(
        "peaks: drb {:.2} us, pr-drb {:.2} us; global latency drb {:.2}, pr-drb {:.2} us",
        drb.latency_map.peak_us(),
        pr.latency_map.peak_us(),
        drb.global_avg_latency_us,
        pr.global_avg_latency_us
    ));
    out.artifacts.push(write_artifact(
        "fig4_10_drb_map.csv",
        &drb.latency_map.to_csv(),
    ));
    out.artifacts.push(write_artifact(
        "fig4_11_prdrb_map.csv",
        &pr.latency_map.to_csv(),
    ));
    out.check(
        "PR-DRB's highest map value is lower than DRB's (better distribution)",
        format!(
            "{:.2} vs {:.2} us",
            pr.latency_map.peak_us(),
            drb.latency_map.peak_us()
        ),
        pr.latency_map.peak_us() <= drb.latency_map.peak_us() * 1.05,
    );
    out.check(
        "global latency reduction of about 20 % (paper) — direction must hold",
        format!(
            "{:+.1} %",
            pct(pr.global_avg_latency_us, drb.global_avg_latency_us)
        ),
        pr.global_avg_latency_us <= drb.global_avg_latency_us * 1.02,
    );
    out.check(
        "PR-DRB re-applies saved solutions on repeated bursts",
        format!("{} applications", pr.policy_stats.reuse_applications),
        pr.policy_stats.reuse_applications > 0,
    );
    out
}

fn fig4_12() -> FigureOutput {
    let mut out = FigureOutput::new(
        "fig4_12",
        "average latency in the mesh over repetitive bursts",
    );
    let reports = run_policies(
        |k| mesh_cfg(k, 600.0),
        &[PolicyKind::Drb, PolicyKind::PrDrb],
    );
    let (drb, pr) = (&reports[0], &reports[1]);
    let pairs: Vec<(&str, _)> = vec![("drb", &drb.series), ("pr-drb", &pr.series)];
    out.push(render_series(&pairs, 12));
    out.artifacts
        .push(write_artifact("fig4_12.csv", &series_csv(&pairs)));
    let sd = SeriesSummary::of(&drb.series);
    let sp = SeriesSummary::of(&pr.series);
    out.check(
        "PR-DRB reaches better global latency in less time (mean below DRB)",
        format!(
            "drb {:.2} us vs pr-drb {:.2} us ({:+.1} %)",
            sd.mean_us,
            sp.mean_us,
            pct(sp.mean_us, sd.mean_us)
        ),
        sp.mean_us <= sd.mean_us * 1.02,
    );
    out.check(
        "throughput is not penalized (offered == accepted for both)",
        format!(
            "drb {}/{}, pr {}/{}",
            drb.accepted, drb.offered, pr.accepted, pr.offered
        ),
        drb.offered == drb.accepted && pr.offered == pr.accepted,
    );
    out
}
