//! Static (offline) variant — the second open line of §5.2.
//!
//! "PR-DRB routers could have offline meta-information about the
//! communication patterns and communication requirements. This
//! information could help leverage the predictive phases … One of the
//! items of our future work proposal includes a *static* variation of
//! our method."
//!
//! Given a communication profile extracted offline (e.g. from the
//! application's communication matrix, §2.2.6), [`preload`] pre-populates
//! each source's solution database before the run: for every heavy flow
//! it precomputes the full alternative-path set and stores it keyed by
//! the other heavy flows it is likely to contend with (those sharing its
//! destination subtree / corridor). The dynamic PR-DRB machinery is
//! unchanged — the first congestion episode already finds a saved
//! solution instead of learning from scratch.

use crate::config::DrbConfig;
use crate::drb::DrbPolicy;
use prdrb_network::FlowPair;
use prdrb_topology::{
    route_len, walk_route, AltPathProvider, AnyTopology, NodeId, PathDescriptor, Topology,
};

/// One flow of the offline communication profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledFlow {
    /// Source rank/terminal.
    pub src: NodeId,
    /// Destination rank/terminal.
    pub dst: NodeId,
    /// Total bytes exchanged (from the communication matrix).
    pub bytes: u64,
}

/// Select the heavy flows: those carrying at least `fraction` of the
/// heaviest flow's volume.
pub fn heavy_flows(profile: &[ProfiledFlow], fraction: f64) -> Vec<ProfiledFlow> {
    let max = profile.iter().map(|f| f.bytes).max().unwrap_or(0);
    if max == 0 {
        return Vec::new();
    }
    let bar = (max as f64 * fraction) as u64;
    profile
        .iter()
        .copied()
        .filter(|f| f.bytes >= bar && f.src != f.dst)
        .collect()
}

/// Flows whose *original* routes share at least one router with `flow`'s
/// original route — the statically predicted contending set.
pub fn predicted_contenders(
    topo: &AnyTopology,
    flow: &ProfiledFlow,
    heavy: &[ProfiledFlow],
) -> Vec<FlowPair> {
    let provider = AltPathProvider::new(topo);
    let original = |f: &ProfiledFlow| {
        let d = provider.alternatives(f.src, f.dst, 1)[0];
        walk_route(topo, f.src, f.dst, d, 4 * topo.num_routers()).unwrap_or_default()
    };
    let mine = original(flow);
    heavy
        .iter()
        .filter(|f| (f.src, f.dst) != (flow.src, flow.dst))
        .filter(|f| {
            let theirs = original(f);
            mine.iter().any(|r| theirs.contains(r))
        })
        .map(|f| (f.src, f.dst))
        .chain(std::iter::once((flow.src, flow.dst)))
        .collect()
}

/// Pre-populate `policy`'s solution databases from an offline profile
/// (over the policy's own topology). Returns the number of solutions
/// installed.
pub fn preload(policy: &mut DrbPolicy, profile: &[ProfiledFlow]) -> usize {
    let cfg: DrbConfig = *policy.config();
    assert!(
        policy.is_predictive(),
        "preloading is only meaningful for the predictive variants"
    );
    // Two phases: plan every solution while borrowing the policy's
    // topology immutably, then install them all mutably — no topology
    // clone in between.
    type Plan = (NodeId, NodeId, Vec<FlowPair>, Vec<(PathDescriptor, u32)>);
    let plans: Vec<Plan> = {
        let topo = policy.topology();
        let heavy = heavy_flows(profile, 0.5);
        let provider = AltPathProvider::new(topo);
        heavy
            .iter()
            .filter_map(|flow| {
                let contenders = predicted_contenders(topo, flow, &heavy);
                if contenders.len() < 2 {
                    return None; // nothing to contend with — no congestion expected
                }
                let paths: Vec<(PathDescriptor, u32)> = provider
                    .alternatives(flow.src, flow.dst, cfg.max_paths)
                    .into_iter()
                    .map(|d| {
                        let len = route_len(topo, flow.src, flow.dst, d).unwrap_or(u32::MAX / 2);
                        (d, len)
                    })
                    .collect();
                (paths.len() >= 2).then_some((flow.src, flow.dst, contenders, paths))
            })
            .collect()
    };
    let installed = plans.len();
    for (src, dst, contenders, paths) in plans {
        policy.preload_solution(src, dst, contenders, paths);
    }
    installed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyKind, RoutingPolicy};
    use prdrb_network::PredictiveHeader;
    use prdrb_simcore::time::MICROSECOND;
    use prdrb_simcore::SimRng;
    use prdrb_topology::RouterId;

    fn profile_mesh_corridor() -> Vec<ProfiledFlow> {
        // Three heavy row-3 flows sharing the corridor + one light flow.
        vec![
            ProfiledFlow {
                src: NodeId(24),
                dst: NodeId(23),
                bytes: 1_000_000,
            },
            ProfiledFlow {
                src: NodeId(25),
                dst: NodeId(47),
                bytes: 900_000,
            },
            ProfiledFlow {
                src: NodeId(26),
                dst: NodeId(15),
                bytes: 800_000,
            },
            ProfiledFlow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1_000,
            },
        ]
    }

    #[test]
    fn heavy_flow_selection() {
        let h = heavy_flows(&profile_mesh_corridor(), 0.5);
        assert_eq!(h.len(), 3, "the light flow is excluded");
        assert!(heavy_flows(&[], 0.5).is_empty());
        // Self-flows are never heavy.
        let selfish = [ProfiledFlow {
            src: NodeId(1),
            dst: NodeId(1),
            bytes: 10,
        }];
        assert!(heavy_flows(&selfish, 0.1).is_empty());
    }

    #[test]
    fn contenders_share_the_corridor() {
        let topo = AnyTopology::mesh8x8();
        let heavy = heavy_flows(&profile_mesh_corridor(), 0.5);
        let c = predicted_contenders(&topo, &heavy[0], &heavy);
        // All three row-3 flows share row-3 routers.
        assert!(c.len() >= 3, "expected the corridor set, got {c:?}");
        assert!(c.contains(&(NodeId(24), NodeId(23))));
    }

    #[test]
    fn preload_seeds_the_database_and_first_episode_hits() {
        let topo = AnyTopology::mesh8x8();
        let mut p = DrbPolicy::new(
            topo.clone(),
            PolicyKind::PrDrb,
            DrbConfig {
                adjust_settle_ns: 0,
                ..DrbConfig::default()
            },
        );
        let n = preload(&mut p, &profile_mesh_corridor());
        assert_eq!(n, 3, "three heavy flows preloaded");
        assert!(p.solution_db(NodeId(24)).is_some());
        // First congestion episode: a single high-latency ACK carrying
        // the (statically predicted) contending flows applies the
        // preloaded solution at once — no gradual opening.
        let mut rng = SimRng::new(1);
        let _ = p.choose(NodeId(24), NodeId(23), 0, &mut rng);
        let mut ack = crate::test_util::ack(24, 23, 100 * MICROSECOND, 0);
        ack.predictive = Some(Box::new(PredictiveHeader {
            router: Some(RouterId(27)),
            flows: vec![
                (NodeId(24), NodeId(23)),
                (NodeId(25), NodeId(47)),
                (NodeId(26), NodeId(15)),
            ],
        }));
        p.on_ack(&ack, 1_000);
        assert_eq!(
            p.open_paths(NodeId(24), NodeId(23)),
            4,
            "preloaded solution installed wholesale on first detection"
        );
        assert_eq!(p.stats().reuse_applications, 1);
    }

    #[test]
    #[should_panic(expected = "predictive")]
    fn preload_rejects_plain_drb() {
        let topo = AnyTopology::mesh8x8();
        let mut p = DrbPolicy::new(topo.clone(), PolicyKind::Drb, DrbConfig::default());
        let _ = preload(&mut p, &profile_mesh_corridor());
    }

    #[test]
    fn tree_profiles_preload_too() {
        let topo = AnyTopology::fat_tree_64();
        let mut p = DrbPolicy::new(topo.clone(), PolicyKind::PrDrb, DrbConfig::default());
        // Four same-leaf sources all crossing to the far subtree share
        // their column's uplinks under the deterministic routing.
        let profile: Vec<ProfiledFlow> = (0..4)
            .map(|i| ProfiledFlow {
                src: NodeId(i),
                dst: NodeId(60 + i),
                bytes: 1_000_000,
            })
            .collect();
        let n = preload(&mut p, &profile);
        assert_eq!(n, 4);
    }
}
