//! Hot-spot specific traffic scenarios (§4.5).
//!
//! "A set of paths are strategically defined in the network so that they
//! collide and produce high network congestion load. The paths that
//! collide do not share the source and destination nodes, but they do
//! share some portion of their trajectories."
//!
//! The scenarios below reproduce the situations of Figs 4.8/4.9 on the
//! 8×8 mesh: several west-side sources whose XY routes funnel through a
//! shared corridor, plus one initially unaffected bystander flow, and a
//! two-hot-zone variant.

use prdrb_topology::{Mesh2D, NodeId};

/// A fixed set of colliding flows plus uniform background noise.
#[derive(Debug, Clone)]
pub struct HotSpotScenario {
    /// Human-readable name.
    pub name: &'static str,
    /// The deliberately colliding flows.
    pub flows: Vec<(NodeId, NodeId)>,
    /// Nodes injecting uniform noise ("remaining network nodes inject
    /// uniform load", §4.6.1).
    pub noise_nodes: Vec<NodeId>,
    /// Noise rate as a fraction of the hot flows' rate.
    pub noise_fraction: f64,
}

impl HotSpotScenario {
    /// Situation 1 (Fig 4.8): three west-side sources in the same row
    /// whose XY routes share the row-3 eastbound corridor toward
    /// *distinct* east-side destinations ("the paths that collide do not
    /// share the source and destination nodes, but they do share some
    /// portion of their trajectories"); a fourth "bystander" flow in the
    /// adjacent row, initially outside the congestion, later affected by
    /// the alternative paths DRB opens around the corridor (Fig 4.8c).
    pub fn situation1(mesh: &Mesh2D) -> Self {
        let w = mesh.width() - 1;
        let flows = vec![
            (mesh.node_at(0, 3), mesh.node_at(w, 2)),
            (mesh.node_at(1, 3), mesh.node_at(w, 5)),
            (mesh.node_at(2, 3), mesh.node_at(w, 1)),
            // Bystander in the adjacent row.
            (mesh.node_at(3, 4), mesh.node_at(w, 4)),
        ];
        Self::with_noise(mesh, "hot-spot situation 1", flows)
    }

    /// Situations 2 & 3 (Fig 4.9): two distinct hot zones along one long
    /// trajectory — packets of the long flow must cross both congested
    /// areas before reaching their destination.
    pub fn situation2(mesh: &Mesh2D) -> Self {
        let w = mesh.width() - 1;
        let flows = vec![
            // Zone A: collisions on row 3, west half.
            (mesh.node_at(1, 3), mesh.node_at(3, 0)),
            (mesh.node_at(2, 3), mesh.node_at(3, 6)),
            // Zone B: collisions on row 3, east half.
            (mesh.node_at(4, 3), mesh.node_at(w, 6)),
            (mesh.node_at(5, 3), mesh.node_at(w, 0)),
            // The long flow crossing both zones.
            (mesh.node_at(0, 3), mesh.node_at(w, 3)),
        ];
        Self::with_noise(mesh, "hot-spot situations 2 & 3", flows)
    }

    fn with_noise(mesh: &Mesh2D, name: &'static str, flows: Vec<(NodeId, NodeId)>) -> Self {
        let hot: std::collections::HashSet<NodeId> = flows.iter().map(|f| f.0).collect();
        let noise_nodes = (0..mesh.width())
            .flat_map(|x| (0..mesh.height()).map(move |y| (x, y)))
            .map(|(x, y)| mesh.node_at(x, y))
            .filter(|n| !hot.contains(n))
            .collect();
        Self {
            name,
            flows,
            noise_nodes,
            noise_fraction: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::{route_len, AnyTopology, PathDescriptor, Topology};

    #[test]
    fn situation1_flows_share_trajectory_but_not_endpoints() {
        let mesh = Mesh2D::new(8, 8);
        let s = HotSpotScenario::situation1(&mesh);
        assert_eq!(s.flows.len(), 4);
        // Endpoints are pairwise distinct.
        let mut srcs: Vec<_> = s.flows.iter().map(|f| f.0).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), 4);
        let mut dsts: Vec<_> = s.flows.iter().map(|f| f.1).collect();
        dsts.sort();
        dsts.dedup();
        assert_eq!(dsts.len(), 4);
        // The XY walks of the first three flows share at least one router.
        let topo = AnyTopology::Mesh(mesh);
        let walks: Vec<_> = s.flows[..3]
            .iter()
            .map(|&(a, b)| {
                prdrb_topology::walk_route(&topo, a, b, PathDescriptor::Minimal, 64).unwrap()
            })
            .collect();
        let shared = walks[0]
            .iter()
            .any(|r| walks[1..].iter().all(|w| w.contains(r)));
        assert!(shared, "the corridor must be shared");
    }

    #[test]
    fn bystander_initially_disjoint() {
        let mesh = Mesh2D::new(8, 8);
        let s = HotSpotScenario::situation1(&mesh);
        let topo = AnyTopology::Mesh(mesh);
        let (bs, bd) = s.flows[3];
        let bw = prdrb_topology::walk_route(&topo, bs, bd, PathDescriptor::Minimal, 64).unwrap();
        let (hs, hd) = s.flows[0];
        let hw = prdrb_topology::walk_route(&topo, hs, hd, PathDescriptor::Minimal, 64).unwrap();
        assert!(
            !bw.iter().any(|r| hw.contains(r)),
            "the bystander's minimal route avoids the hot corridor"
        );
    }

    #[test]
    fn situation2_long_flow_crosses_both_zones() {
        let mesh = Mesh2D::new(8, 8);
        let s = HotSpotScenario::situation2(&mesh);
        let topo = AnyTopology::Mesh(mesh);
        let &(ls, ld) = s.flows.last().unwrap();
        let len = route_len(&topo, ls, ld, PathDescriptor::Minimal).unwrap();
        assert!(len >= 7, "the long flow spans the mesh");
    }

    #[test]
    fn noise_nodes_complement_hot_sources() {
        let mesh = Mesh2D::new(8, 8);
        let s = HotSpotScenario::situation1(&mesh);
        assert_eq!(s.noise_nodes.len() + s.flows.len(), 64);
        let topo = AnyTopology::Mesh(mesh);
        for n in &s.noise_nodes {
            assert!(n.idx() < topo.num_terminals());
        }
    }
}
