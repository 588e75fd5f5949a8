//! Alternative-path (multi-step path) generation — §3.2.3.
//!
//! A *metapath* is a set of alternative paths between a source/destination
//! pair. This module enumerates the candidates in the order DRB opens
//! them:
//!
//! * **graph topologies** (mesh, dragonfly, …) — multi-step
//!   paths through two intermediate nodes chosen from rings of growing
//!   hop distance around the source (IN1) and destination (IN2),
//!   exactly the scheme of Fig 3.6 ("intermediate nodes of 1-hop
//!   distance are considered first, then 2-hop …"); candidates are
//!   ordered by multi-step length (Eq 3.2) and deduplicated by the
//!   actual router walk. The rings are derived from the graph itself —
//!   a BFS over [`Topology::neighbor`] — rather than a per-shape
//!   formula, so any topology exposing adjacency gets MSP generation
//!   for free. On the mesh, BFS hop distance *is* Manhattan distance
//!   and terminals enumerate in the same node-id order the old
//!   closed-form rings produced, so the generated metapaths are
//!   unchanged;
//! * **fat-tree** — one path per distinct nearest common ancestor,
//!   enumerated by rotating the NCA seed starting from the deterministic
//!   d-mod-k choice (a fast path: the NCA structure already names every
//!   minimal path, no enumeration needed).

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::route::{walk_route, PathDescriptor};
use crate::{AnyTopology, Topology};

/// Largest intermediate-node ring distance explored on graph
/// topologies (the fat-tree's seed enumeration ignores it).
const MAX_RING: u32 = 2;

/// Generates the ordered alternative-path list for a source/destination
/// pair. Index 0 is always the original (deterministic minimal) path.
#[derive(Debug, Clone, Copy)]
pub struct AltPathProvider<'a> {
    topo: &'a AnyTopology,
}

impl<'a> AltPathProvider<'a> {
    /// Provider over `topo`.
    pub fn new(topo: &'a AnyTopology) -> Self {
        Self { topo }
    }

    /// The ordered list of up to `max` alternative paths for
    /// `src → dst`. Entry 0 is the original path; subsequent entries are
    /// the MSPs in opening order.
    pub fn alternatives(&self, src: NodeId, dst: NodeId, max: usize) -> Vec<PathDescriptor> {
        match self.topo {
            AnyTopology::Tree(t) => {
                let paths = t.num_minimal_paths(src, dst).min(max as u64) as u32;
                let total = t.num_minimal_paths(src, dst) as u32;
                let det = Self::tree_det_seed(t, src);
                (0..paths.max(1))
                    .map(|i| PathDescriptor::TreeSeed {
                        seed: (det + i) % total.max(1),
                    })
                    .collect()
            }
            _ => self.graph_alternatives(src, dst, max),
        }
    }

    /// Number of alternative paths available (before the `max` cap).
    pub fn available(&self, src: NodeId, dst: NodeId) -> usize {
        match self.topo {
            AnyTopology::Tree(t) => t.num_minimal_paths(src, dst) as usize,
            _ => self.graph_alternatives(src, dst, usize::MAX).len(),
        }
    }

    /// The original (deterministic) fat-tree path: ascend straight up the
    /// source's own column — up digit at level `l` equals the source's
    /// digit `l+1`, i.e. seed `src / k`. This is the single-path
    /// up*/down* routing of table-routed fabrics: every source keeps one
    /// fixed route, leaving the NCA diversity for the adaptive policies
    /// to exploit.
    pub fn tree_det_seed(t: &crate::KAryNTree, src: NodeId) -> u32 {
        src.0 / t.arity()
    }

    /// Ring-by-ring MSP enumeration over the topology graph itself.
    fn graph_alternatives(&self, src: NodeId, dst: NodeId, max: usize) -> Vec<PathDescriptor> {
        let mut out = vec![PathDescriptor::Minimal];
        if max <= 1 {
            return out;
        }
        let limit = 4 * self.topo.num_routers();
        let baseline =
            walk_route(self.topo, src, dst, PathDescriptor::Minimal, limit).unwrap_or_default();
        let mut seen = std::collections::HashSet::new();
        seen.insert(baseline);
        let dist_src = router_distances(self.topo, self.topo.router_of(src));
        let dist_dst = router_distances(self.topo, self.topo.router_of(dst));
        // Enumerate IN pairs ring-by-ring, nearest rings first (Fig 3.6),
        // collecting candidates sorted by multi-step length within a ring.
        for d in 1..=MAX_RING {
            let ring1 = terminal_ring(self.topo, &dist_src, d);
            let ring2 = terminal_ring(self.topo, &dist_dst, d);
            let mut candidates: Vec<(u32, PathDescriptor, Vec<_>)> = Vec::new();
            for &in1 in &ring1 {
                for &in2 in &ring2 {
                    if in1 == dst || in2 == src || in1 == in2 {
                        continue;
                    }
                    let desc = PathDescriptor::Msp { in1, in2 };
                    let Ok(walk) = walk_route(self.topo, src, dst, desc, limit) else {
                        continue;
                    };
                    candidates.push((walk.len() as u32, desc, walk));
                }
            }
            candidates.sort_by_key(|(len, desc, _)| (*len, desc_key(desc)));
            for (_, desc, walk) in candidates {
                if seen.insert(walk) {
                    out.push(desc);
                    if out.len() >= max {
                        return out;
                    }
                }
            }
        }
        out
    }
}

/// BFS hop distance from `from` to every router, over the topology's
/// own adjacency (`u32::MAX` = unreachable). This is the graph-derived
/// replacement for per-shape ring formulas: on the mesh it reproduces
/// Manhattan distance exactly.
fn router_distances(topo: &AnyTopology, from: RouterId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.num_routers()];
    dist[from.idx()] = 0;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(r) = queue.pop_front() {
        for p in 0..topo.num_ports(r) {
            if let Some(Endpoint::Router(nr, _)) = topo.neighbor(r, Port(p as u8)) {
                if dist[nr.idx()] == u32::MAX {
                    dist[nr.idx()] = dist[r.idx()] + 1;
                    queue.push_back(nr);
                }
            }
        }
    }
    dist
}

/// Terminals whose attachment router sits exactly `d` BFS hops from the
/// ring center, in ascending node-id order (the deterministic opening
/// order the mesh rings already used).
fn terminal_ring(topo: &AnyTopology, dist: &[u32], d: u32) -> Vec<NodeId> {
    (0..topo.num_terminals() as u32)
        .map(NodeId)
        .filter(|&n| dist[topo.router_of(n).idx()] == d)
        .collect()
}

fn desc_key(d: &PathDescriptor) -> (u32, u32) {
    match d {
        PathDescriptor::Msp { in1, in2 } => (in1.0, in2.0),
        _ => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route_len;
    use crate::{KAryNTree, Mesh2D};

    fn mesh() -> AnyTopology {
        AnyTopology::Mesh(Mesh2D::new(8, 8))
    }

    fn tree() -> AnyTopology {
        AnyTopology::Tree(KAryNTree::new(4, 3))
    }

    #[test]
    fn first_alternative_is_original_path() {
        for topo in [mesh(), tree()] {
            let p = AltPathProvider::new(&topo);
            let alts = p.alternatives(NodeId(0), NodeId(60), 4);
            let l0 = route_len(&topo, NodeId(0), NodeId(60), alts[0]).unwrap();
            assert_eq!(l0, topo.distance(NodeId(0), NodeId(60)));
        }
    }

    #[test]
    fn mesh_alternatives_are_distinct_valid_walks() {
        let topo = mesh();
        let p = AltPathProvider::new(&topo);
        let (src, dst) = (NodeId(0), NodeId(63));
        let alts = p.alternatives(src, dst, 6);
        assert!(alts.len() >= 4, "expected several MSPs, got {}", alts.len());
        let mut walks = std::collections::HashSet::new();
        for a in &alts {
            let w = walk_route(&topo, src, dst, *a, 256).expect("valid walk");
            assert!(walks.insert(w), "duplicate alternative path");
        }
    }

    #[test]
    fn mesh_alternatives_bounded_length() {
        // Livelock freedom (§3.3): every MSP has finite, bounded length.
        let topo = mesh();
        let p = AltPathProvider::new(&topo);
        for (s, d) in [(0u32, 7u32), (0, 63), (9, 54), (3, 3)] {
            let dist = topo.distance(NodeId(s), NodeId(d));
            for a in p.alternatives(NodeId(s), NodeId(d), 8) {
                let len = route_len(&topo, NodeId(s), NodeId(d), a).unwrap();
                assert!(
                    len <= dist + 4 * 2 * 2,
                    "MSP too long: {len} vs dist {dist}"
                );
            }
        }
    }

    #[test]
    fn nearest_rings_come_first() {
        let topo = mesh();
        let p = AltPathProvider::new(&topo);
        // The 2nd alternative (first MSP) must use 1-hop intermediates.
        let AnyTopology::Mesh(m) = &topo else {
            unreachable!()
        };
        let alts = p.alternatives(NodeId(0), NodeId(7), 3);
        if let PathDescriptor::Msp { in1, in2 } = alts[1] {
            assert!(m.ring(NodeId(0), 1).contains(&in1));
            assert!(m.ring(NodeId(7), 1).contains(&in2));
        } else {
            panic!("expected an MSP at index 1, got {:?}", alts[1]);
        }
    }

    #[test]
    fn graph_rings_match_mesh_rings() {
        // The BFS-derived rings must reproduce the mesh's closed-form
        // Manhattan rings, members and order both — that equivalence is
        // what keeps mesh metapaths (and every cached mesh run)
        // unchanged by the graph generalization.
        let topo = mesh();
        let AnyTopology::Mesh(m) = &topo else {
            unreachable!()
        };
        for center in [NodeId(0), NodeId(27), NodeId(63)] {
            let dist = router_distances(&topo, topo.router_of(center));
            for d in 1..=3 {
                assert_eq!(
                    terminal_ring(&topo, &dist, d),
                    m.ring(center, d),
                    "center {center:?} ring {d}"
                );
            }
        }
    }

    #[test]
    fn dragonfly_alternatives_detour_through_other_groups() {
        let topo = AnyTopology::dragonfly72();
        let p = AltPathProvider::new(&topo);
        let (src, dst) = (NodeId(0), NodeId(topo.num_terminals() as u32 / 2));
        let alts = p.alternatives(src, dst, 6);
        assert!(alts.len() >= 4, "expected several MSPs, got {}", alts.len());
        let mut walks = std::collections::HashSet::new();
        for a in &alts {
            let w = walk_route(&topo, src, dst, *a, 256).expect("valid walk");
            assert!(walks.insert(w), "duplicate path");
        }
    }

    #[test]
    fn tree_alternatives_cap_at_nca_count() {
        let topo = tree();
        let p = AltPathProvider::new(&topo);
        // Same leaf switch: only one minimal path exists.
        assert_eq!(p.alternatives(NodeId(0), NodeId(1), 4).len(), 1);
        // NCA level 1: exactly 4 paths.
        assert_eq!(p.alternatives(NodeId(0), NodeId(4), 16).len(), 4);
        // NCA level 2: 16 available, capped by max.
        assert_eq!(p.alternatives(NodeId(0), NodeId(63), 4).len(), 4);
        assert_eq!(p.available(NodeId(0), NodeId(63)), 16);
    }

    #[test]
    fn tree_alternatives_are_distinct_paths() {
        let topo = tree();
        let p = AltPathProvider::new(&topo);
        let alts = p.alternatives(NodeId(0), NodeId(63), 8);
        let mut walks = std::collections::HashSet::new();
        for a in alts {
            let w = walk_route(&topo, NodeId(0), NodeId(63), a, 64).unwrap();
            assert!(walks.insert(w));
        }
        assert_eq!(walks.len(), 8);
    }

    #[test]
    fn self_traffic_has_single_path() {
        for topo in [mesh(), tree(), AnyTopology::dragonfly72()] {
            let p = AltPathProvider::new(&topo);
            // src == dst is degenerate; provider still returns the
            // original path without panicking.
            let alts = p.alternatives(NodeId(5), NodeId(5), 4);
            assert!(!alts.is_empty());
        }
    }
}
