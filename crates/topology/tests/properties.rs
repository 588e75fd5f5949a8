//! Property-based tests of the topology invariants: routing validity,
//! minimality, link symmetry and alternative-path soundness for
//! arbitrary shapes and endpoint pairs.

use prdrb_topology::{
    route_len, walk_route, AltPathProvider, AnyTopology, Dragonfly, Endpoint, KAryNTree, Mesh2D,
    NodeId, PathDescriptor, Port, RouterId, Topology,
};
use proptest::prelude::*;

fn mesh_strategy() -> impl Strategy<Value = AnyTopology> {
    (2u32..10, 2u32..10).prop_map(|(w, h)| AnyTopology::Mesh(Mesh2D::new(w, h)))
}

fn tree_strategy() -> impl Strategy<Value = AnyTopology> {
    prop_oneof![
        Just(AnyTopology::Tree(KAryNTree::new(2, 2))),
        Just(AnyTopology::Tree(KAryNTree::new(2, 4))),
        Just(AnyTopology::Tree(KAryNTree::new(3, 3))),
        Just(AnyTopology::Tree(KAryNTree::new(4, 3))),
    ]
}

fn dragonfly_strategy() -> impl Strategy<Value = AnyTopology> {
    // Clamp the group count to the palm-tree bound (G = r·h ≥ a-1)
    // instead of filtering, so every drawn tuple is a valid shape.
    (2u32..9, 1u32..5, 1u32..4)
        .prop_map(|(a, r, h)| AnyTopology::Dragonfly(Dragonfly::new(a.min(r * h + 1), r, h)))
}

fn any_topology() -> impl Strategy<Value = AnyTopology> {
    prop_oneof![mesh_strategy(), tree_strategy(), dragonfly_strategy()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Minimal routing reaches every destination in exactly the
    /// topological distance.
    #[test]
    fn minimal_routes_are_minimal(topo in any_topology(), a in 0u32..4096, b in 0u32..4096) {
        let n = topo.num_terminals() as u32;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        let len = route_len(&topo, src, dst, PathDescriptor::Minimal);
        prop_assert_eq!(len, Some(topo.distance(src, dst)));
    }

    /// Every link is symmetric: the neighbor's reverse port points back.
    #[test]
    fn links_are_symmetric(topo in any_topology()) {
        for r in 0..topo.num_routers() as u32 {
            let rid = RouterId(r);
            for p in 0..topo.num_ports(rid) as u8 {
                if let Some(Endpoint::Router(nr, np)) = topo.neighbor(rid, Port(p)) {
                    prop_assert_eq!(
                        topo.neighbor(nr, np),
                        Some(Endpoint::Router(rid, Port(p)))
                    );
                }
            }
        }
    }

    /// Every terminal attaches consistently: the terminal port of its
    /// router leads back to it.
    #[test]
    fn terminal_attachment_is_consistent(topo in any_topology()) {
        for t in 0..topo.num_terminals() as u32 {
            let n = NodeId(t);
            let r = topo.router_of(n);
            let p = topo.terminal_port(n);
            prop_assert_eq!(topo.neighbor(r, p), Some(Endpoint::Terminal(n)));
        }
    }

    /// Alternative paths are valid, distinct, bounded in length and
    /// start with the original path (livelock freedom, §3.3).
    #[test]
    fn alternative_paths_are_sound(
        topo in any_topology(),
        a in 0u32..4096,
        b in 0u32..4096,
        max in 1usize..8,
    ) {
        let n = topo.num_terminals() as u32;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        let provider = AltPathProvider::new(&topo);
        let alts = provider.alternatives(src, dst, max);
        prop_assert!(!alts.is_empty());
        prop_assert!(alts.len() <= max.max(1));
        let dist = topo.distance(src, dst);
        let mut walks = std::collections::HashSet::new();
        for (i, d) in alts.iter().enumerate() {
            let walk = walk_route(&topo, src, dst, *d, 4 * topo.num_routers() + 8);
            prop_assert!(walk.is_ok(), "alt {i} failed to reach {dst} from {src}");
            let walk = walk.unwrap();
            // Bounded stretch: at most the minimal distance plus the
            // two ring detours of up to 2 hops each way.
            prop_assert!(walk.len() as u32 - 1 <= dist + 16, "alt {i} too long");
            if i == 0 {
                prop_assert_eq!(walk.len() as u32 - 1, dist, "original path not minimal");
            }
            prop_assert!(walks.insert(walk), "duplicate alternative");
        }
    }

    /// All tree seeds route minimally for any pair.
    #[test]
    fn all_tree_seeds_minimal(topo in tree_strategy(), a in 0u32..4096, b in 0u32..4096, seed in 0u32..64) {
        let n = topo.num_terminals() as u32;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        let len = route_len(&topo, src, dst, PathDescriptor::TreeSeed { seed });
        prop_assert_eq!(len, Some(topo.distance(src, dst)));
    }

    /// Mesh XY and YX orders are both minimal.
    #[test]
    fn mesh_orders_minimal(topo in mesh_strategy(), a in 0u32..4096, b in 0u32..4096, yx in proptest::bool::ANY) {
        let n = topo.num_terminals() as u32;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        let len = route_len(&topo, src, dst, PathDescriptor::MeshOrder { yx });
        prop_assert_eq!(len, Some(topo.distance(src, dst)));
    }

    /// MSPs through arbitrary intermediate nodes always terminate.
    #[test]
    fn arbitrary_msps_terminate(
        topo in any_topology(),
        a in 0u32..4096,
        b in 0u32..4096,
        i1 in 0u32..4096,
        i2 in 0u32..4096,
    ) {
        let n = topo.num_terminals() as u32;
        let desc = PathDescriptor::Msp { in1: NodeId(i1 % n), in2: NodeId(i2 % n) };
        let walk = walk_route(&topo, NodeId(a % n), NodeId(b % n), desc, 8 * topo.num_routers());
        prop_assert!(walk.is_ok(), "MSP livelocked or got lost");
    }
}
