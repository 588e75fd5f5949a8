//! Path descriptors and per-hop routing.
//!
//! A packet carries a fixed-size routing header (§3.3.1, Fig 3.16):
//! source, up to two intermediate nodes, destination, and a `Header_id`
//! that points at the segment currently being traversed. Every segment is
//! routed with the topology's minimal static routing; when a packet
//! reaches the router of the intermediate node named by `Header_id`, the
//! header id advances to the next target (the HDP module of Fig 3.19).
//!
//! On the fat-tree, alternative paths are instead encoded as an NCA
//! *seed* — each distinct seed selects one distinct minimal path through
//! a different nearest common ancestor (§2.1.5, §3.2.3).

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::mesh::{self, Mesh2D};
use crate::{AnyTopology, Topology};

/// How a packet's route is chosen. Fits in a machine word; packets carry
/// it by value (no per-packet allocation on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathDescriptor {
    /// The topology's deterministic minimal route.
    Minimal,
    /// Mesh only: dimension-order route, `yx = true` corrects Y first.
    MeshOrder {
        /// Route the Y dimension before X.
        yx: bool,
    },
    /// Multi-step path via two intermediate nodes (Fig 3.7). Valid on
    /// any topology: each segment runs the topology's deterministic
    /// minimal routing, so the walk is well-defined wherever
    /// `minimal_port` is (mesh MSPs, dragonfly detours through
    /// another group, Valiant's random-intermediate misroute).
    Msp {
        /// Intermediate node near the source (IN1).
        in1: NodeId,
        /// Intermediate node near the destination (IN2).
        in2: NodeId,
    },
    /// Fat-tree minimal path through the NCA selected by `seed`.
    TreeSeed {
        /// Base-k digits of the seed pick the up port at each level.
        seed: u32,
    },
    /// Fully adaptive per-hop routing: during the fat-tree's ascending
    /// phase the *router* picks the least-occupied minimal up port
    /// (deadlock-free on up*/down* trees; falls back to the
    /// deterministic route on the mesh, where unrestricted adaptivity
    /// would need extra escape channels).
    AdaptiveUp,
}

/// Mutable per-packet routing state: the descriptor plus the `Header_id`
/// field (which multi-step segment is active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteState {
    /// The chosen path.
    pub descriptor: PathDescriptor,
    /// Active segment: 0 → heading to IN1, 1 → IN2, 2 → destination.
    pub header_id: u8,
}

impl RouteState {
    /// Fresh state for a descriptor (multi-step paths start at IN1).
    pub fn new(descriptor: PathDescriptor) -> Self {
        let header_id = match descriptor {
            PathDescriptor::Msp { .. } => 0,
            _ => 2,
        };
        Self {
            descriptor,
            header_id,
        }
    }

    /// The terminal the packet is currently being routed toward.
    pub fn current_target(&self, dst: NodeId) -> NodeId {
        match (self.descriptor, self.header_id) {
            (PathDescriptor::Msp { in1, .. }, 0) => in1,
            (PathDescriptor::Msp { in2, .. }, 1) => in2,
            _ => dst,
        }
    }
}

/// Compute the output port at router `r` for a packet heading to `dst`
/// with routing state `state`, advancing `Header_id` when an intermediate
/// router is reached. Returns the port (possibly the terminal port when
/// `r` is the destination's router).
pub fn next_port(topo: &AnyTopology, r: RouterId, dst: NodeId, state: &mut RouteState) -> Port {
    match (topo, state.descriptor) {
        (_, PathDescriptor::Minimal) => topo.minimal_port(r, dst),
        (AnyTopology::Mesh(m), PathDescriptor::MeshOrder { yx }) => {
            if yx {
                yx_port(m, r, dst)
            } else {
                m.minimal_port(r, dst)
            }
        }
        (_, PathDescriptor::Msp { .. }) => {
            // Advance the header past any intermediate routers we've
            // reached (IN1 may share the source's router, etc.).
            while state.header_id < 2 {
                let target = state.current_target(dst);
                if topo.router_of(target) == r {
                    state.header_id += 1;
                } else {
                    break;
                }
            }
            topo.minimal_port(r, state.current_target(dst))
        }
        (AnyTopology::Tree(t), PathDescriptor::TreeSeed { seed }) => t.port_with_seed(r, dst, seed),
        // The fabric overrides the ascending choice with queue-state
        // information; this is the fallback (deterministic minimal).
        (_, PathDescriptor::AdaptiveUp) => topo.minimal_port(r, dst),
        // Descriptor/topology mismatches fall back to minimal routing —
        // a misconfiguration, flagged in debug builds.
        (_, d) => {
            debug_assert!(false, "descriptor {d:?} not valid for {}", topo.label());
            topo.minimal_port(r, dst)
        }
    }
}

/// Y-first dimension-order routing on the mesh.
pub(crate) fn yx_port(m: &Mesh2D, r: RouterId, dst: NodeId) -> Port {
    let (x, y) = m.coords(r);
    let (dx, dy) = m.coords(m.router_of(dst));
    if dy > y {
        mesh::NORTH
    } else if dy < y {
        mesh::SOUTH
    } else if dx > x {
        mesh::EAST
    } else if dx < x {
        mesh::WEST
    } else {
        mesh::TERMINAL
    }
}

/// Follow `descriptor`'s static route from `src` toward `dst` — the
/// one walk loop every route query shares. `visit(r, p)` sees each
/// router `r` the route enters, in order, with the port `p` it leaves
/// by (the last one faces `dst`); returning false stops the walk.
///
/// Returns true when the route reached `dst`. A stopped walk, a port
/// into the void or a route of more than `limit` routers returns false.
pub(crate) fn walk_hops(
    topo: &AnyTopology,
    src: NodeId,
    dst: NodeId,
    descriptor: PathDescriptor,
    limit: usize,
    mut visit: impl FnMut(RouterId, Port) -> bool,
) -> bool {
    let mut state = RouteState::new(descriptor);
    let mut r = topo.router_of(src);
    for _ in 0..limit {
        let p = next_port(topo, r, dst, &mut state);
        if !visit(r, p) {
            return false;
        }
        match topo.neighbor(r, p) {
            Some(Endpoint::Terminal(n)) if n == dst => return true,
            Some(Endpoint::Router(nr, _)) => r = nr,
            _ => return false,
        }
    }
    false
}

/// Walk a full route from `src` to `dst`, returning the sequence of
/// routers traversed (used by tests, path-length accounting and the
/// path-distribution analysis of §4.5.1).
///
/// Returns `Err` with the partial walk if the route is broken or
/// exceeds `limit` routers — which would indicate a routing bug
/// (livelock, §3.3).
pub fn walk_route(
    topo: &AnyTopology,
    src: NodeId,
    dst: NodeId,
    descriptor: PathDescriptor,
    limit: usize,
) -> Result<Vec<RouterId>, Vec<RouterId>> {
    let mut path = Vec::new();
    let reached = walk_hops(topo, src, dst, descriptor, limit, |r, _| {
        path.push(r);
        true
    });
    if reached {
        Ok(path)
    } else {
        Err(path)
    }
}

/// Router-hop length of a route (`Eq. 3.2`: the sum of segment lengths).
pub fn route_len(
    topo: &AnyTopology,
    src: NodeId,
    dst: NodeId,
    descriptor: PathDescriptor,
) -> Option<u32> {
    walk_route(topo, src, dst, descriptor, 4 * (topo.num_routers() + 1))
        .ok()
        .map(|p| p.len() as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KAryNTree, Mesh2D};

    fn mesh() -> AnyTopology {
        AnyTopology::Mesh(Mesh2D::new(8, 8))
    }

    fn tree() -> AnyTopology {
        AnyTopology::Tree(KAryNTree::new(4, 3))
    }

    #[test]
    fn minimal_walk_matches_distance() {
        for topo in [mesh(), tree()] {
            for (s, d) in [(0u32, 63u32), (5, 5), (12, 40), (63, 0)] {
                let len = route_len(&topo, NodeId(s), NodeId(d), PathDescriptor::Minimal).unwrap();
                assert_eq!(len, topo.distance(NodeId(s), NodeId(d)), "{s}->{d}");
            }
        }
    }

    #[test]
    fn msp_visits_both_intermediates() {
        let topo = mesh();
        let m = match &topo {
            AnyTopology::Mesh(m) => m.clone(),
            _ => unreachable!(),
        };
        let src = m.node_at(0, 0);
        let dst = m.node_at(7, 0);
        let in1 = m.node_at(0, 1);
        let in2 = m.node_at(7, 1);
        let walk = walk_route(&topo, src, dst, PathDescriptor::Msp { in1, in2 }, 64).unwrap();
        assert!(walk.contains(&m.router_of(in1)));
        assert!(walk.contains(&m.router_of(in2)));
        // Length = sum of DOR segments (Eq. 3.2): 1 + 7 + 1 = 9.
        assert_eq!(walk.len() - 1, 9);
    }

    #[test]
    fn msp_with_degenerate_intermediates_is_minimal() {
        let topo = mesh();
        // IN1 = source, IN2 = destination: the MSP collapses onto the
        // original path.
        let (src, dst) = (NodeId(0), NodeId(7));
        let len = route_len(&topo, src, dst, PathDescriptor::Msp { in1: src, in2: dst }).unwrap();
        assert_eq!(len, topo.distance(src, dst));
    }

    #[test]
    fn yx_routing_takes_other_corner() {
        let topo = mesh();
        let m = match &topo {
            AnyTopology::Mesh(m) => m.clone(),
            _ => unreachable!(),
        };
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 3);
        let xy = walk_route(&topo, src, dst, PathDescriptor::MeshOrder { yx: false }, 64).unwrap();
        let yx = walk_route(&topo, src, dst, PathDescriptor::MeshOrder { yx: true }, 64).unwrap();
        assert_eq!(xy.len(), yx.len()); // both minimal
        assert!(xy.contains(&m.at(3, 0)));
        assert!(yx.contains(&m.at(0, 3)));
    }

    #[test]
    fn tree_seed_walks_are_minimal_and_distinct() {
        let topo = tree();
        let (src, dst) = (NodeId(0), NodeId(63));
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..16 {
            let walk = walk_route(&topo, src, dst, PathDescriptor::TreeSeed { seed }, 64).unwrap();
            assert_eq!(walk.len() - 1, topo.distance(src, dst) as usize);
            distinct.insert(walk);
        }
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn msp_detours_through_another_dragonfly_group() {
        // MSPs are graph-generic now: a detour terminal in a third
        // group turns the single-global minimal route into a two-global
        // multi-step path — the path diversity UGAL/DRB lean on.
        let topo = AnyTopology::dragonfly72();
        let (src, dst) = (NodeId(0), NodeId(8)); // groups 0 -> 1
        let mid = NodeId(16); // detour via group 2
        let d = PathDescriptor::Msp { in1: mid, in2: dst };
        let walk = walk_route(&topo, src, dst, d, 64).unwrap();
        assert!(walk.contains(&topo.router_of(mid)));
        let len = walk.len() as u32 - 1;
        assert!(len >= topo.distance(src, dst), "msp shorter than minimal?");
        assert_eq!(
            len,
            topo.distance(src, mid) + topo.distance(mid, dst),
            "Eq 3.2 segment-sum length"
        );
    }

    #[test]
    fn route_state_targets() {
        let d = PathDescriptor::Msp {
            in1: NodeId(1),
            in2: NodeId(2),
        };
        let mut s = RouteState::new(d);
        assert_eq!(s.current_target(NodeId(9)), NodeId(1));
        s.header_id = 1;
        assert_eq!(s.current_target(NodeId(9)), NodeId(2));
        s.header_id = 2;
        assert_eq!(s.current_target(NodeId(9)), NodeId(9));
        // Non-MSP descriptors always target the destination.
        let s2 = RouteState::new(PathDescriptor::Minimal);
        assert_eq!(s2.header_id, 2);
        assert_eq!(s2.current_target(NodeId(9)), NodeId(9));
    }
}
