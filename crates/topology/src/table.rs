//! Memoized routing: flat per-(router, destination) next-hop tables.
//!
//! Static routes never change during a run, yet the fabric recomputes
//! them per hop — coordinate branching on the mesh, repeated base-k
//! digit divisions on the fat-tree. A [`RouteTable`] is built once per
//! run and answers every [`next_port`](route::next_port)-equivalent query with one or two
//! array loads. MSP segments reuse the minimal table (each segment *is*
//! a minimal route toward the segment target, §3.3.1), and fat-tree
//! seed routes split into a tabled descending port plus a single cached
//! digit extraction for the ascending choice.
//!
//! `table_matches_next_port` in the tests proves the lookup path agrees
//! with [`next_port`](route::next_port) on every (router, destination, descriptor).

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::route::{self, PathDescriptor, RouteState};
use crate::{AnyTopology, Topology};

/// Sentinel in the fat-tree down-port table: the router is not an
/// ancestor of the destination, so the packet is still ascending.
const ASCENDING: u8 = u8::MAX;

/// Fat-tree specific lookup state.
#[derive(Debug, Clone)]
struct TreeTable {
    /// Arity (k): up ports are `k..2k`.
    k: u32,
    /// `down[r * nodes + dst]`: descending port when `r` is an ancestor
    /// of `dst`, [`ASCENDING`] otherwise.
    down: Vec<u8>,
    /// `k^level(r)` per router — turns the per-hop `digit(seed, level)`
    /// division chain into one load, one divide, one modulo.
    pow_level: Vec<u32>,
}

/// Per-run memo of every static routing decision.
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    /// `minimal[r * nodes + dst]`: the deterministic minimal port.
    minimal: Vec<Port>,
    /// Mesh only: the Y-first dimension-order port.
    yx: Option<Vec<Port>>,
    tree: Option<TreeTable>,
    /// `neighbors[r * max_ports + p]`: the tabled [`Topology::neighbor`]
    /// — the fabric chases a link per hop for credits and handoffs, and
    /// the fat-tree answer costs a base-k digit chain every time.
    neighbors: Vec<Option<Endpoint>>,
    /// Stride of `neighbors`: the widest router's port count.
    max_ports: usize,
    /// `(router, port)` where each terminal's NIC attaches.
    nic: Vec<(RouterId, Port)>,
}

impl RouteTable {
    /// Precompute the tables for `topo`. Cost is one `minimal_port`
    /// evaluation per (router, destination) pair — microseconds for the
    /// thesis-scale networks, paid once per run.
    pub fn build(topo: &AnyTopology) -> Self {
        let nodes = topo.num_terminals();
        let nr = topo.num_routers();
        let mut minimal = Vec::with_capacity(nr * nodes);
        for r in 0..nr {
            for d in 0..nodes {
                minimal.push(topo.minimal_port(RouterId(r as u32), NodeId(d as u32)));
            }
        }
        let yx = match topo {
            AnyTopology::Mesh(m) => {
                let mut t = Vec::with_capacity(nr * nodes);
                for r in 0..nr {
                    for d in 0..nodes {
                        t.push(route::yx_port(m, RouterId(r as u32), NodeId(d as u32)));
                    }
                }
                Some(t)
            }
            _ => None,
        };
        let tree = match topo {
            AnyTopology::Tree(t) => {
                let mut down = Vec::with_capacity(nr * nodes);
                for r in 0..nr {
                    let rid = RouterId(r as u32);
                    for d in 0..nodes {
                        let dst = NodeId(d as u32);
                        down.push(if t.is_ancestor(rid, dst) {
                            t.minimal_port(rid, dst).0
                        } else {
                            ASCENDING
                        });
                    }
                }
                let pow_level = (0..nr)
                    .map(|r| t.arity().pow(t.level(RouterId(r as u32))))
                    .collect();
                Some(TreeTable {
                    k: t.arity(),
                    down,
                    pow_level,
                })
            }
            _ => None,
        };
        let max_ports = (0..nr)
            .map(|r| topo.num_ports(RouterId(r as u32)))
            .max()
            .unwrap_or(0);
        let mut neighbors = vec![None; nr * max_ports];
        for r in 0..nr {
            let rid = RouterId(r as u32);
            for p in 0..topo.num_ports(rid) {
                neighbors[r * max_ports + p] = topo.neighbor(rid, Port(p as u8));
            }
        }
        let nic = (0..nodes)
            .map(|n| {
                let node = NodeId(n as u32);
                (topo.router_of(node), topo.terminal_port(node))
            })
            .collect();
        Self {
            nodes,
            minimal,
            yx,
            tree,
            neighbors,
            max_ports,
            nic,
        }
    }

    /// The tabled far end of `r`'s port `p` ([`Topology::neighbor`]).
    #[inline]
    pub fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint> {
        self.neighbors[r.idx() * self.max_ports + p.idx()]
    }

    /// The tabled `(router_of, terminal_port)` NIC attachment of `n`.
    #[inline]
    pub fn nic_attach(&self, n: NodeId) -> (RouterId, Port) {
        self.nic[n.idx()]
    }

    /// The tabled deterministic minimal port from `r` toward `dst`.
    #[inline]
    pub fn minimal(&self, r: RouterId, dst: NodeId) -> Port {
        self.minimal[r.idx() * self.nodes + dst.idx()]
    }

    /// Memoized equivalent of `Topology::minimal_candidates`: every
    /// minimal output port from `r` toward `dst`, written into `out`.
    #[inline]
    pub fn minimal_candidates(
        &self,
        topo: &AnyTopology,
        r: RouterId,
        dst: NodeId,
        out: &mut Vec<Port>,
    ) {
        if let Some(t) = &self.tree {
            out.clear();
            let d = t.down[r.idx() * self.nodes + dst.idx()];
            if d != ASCENDING {
                out.push(Port(d));
            } else {
                // Every up port is minimal during the ascending phase.
                for c in 0..t.k {
                    out.push(Port((t.k + c) as u8));
                }
            }
        } else {
            topo.minimal_candidates(r, dst, out);
        }
    }

    /// Memoized equivalent of [`next_port`](route::next_port): the output port at router
    /// `r` for a packet heading to `dst` with routing state `state`,
    /// advancing `Header_id` exactly as the uncached path does.
    #[inline]
    pub fn next_port(
        &self,
        topo: &AnyTopology,
        r: RouterId,
        dst: NodeId,
        state: &mut RouteState,
    ) -> Port {
        match (topo, state.descriptor) {
            (_, PathDescriptor::Minimal) | (_, PathDescriptor::AdaptiveUp) => self.minimal(r, dst),
            (AnyTopology::Mesh(_), PathDescriptor::MeshOrder { yx }) => {
                if yx {
                    self.yx.as_ref().expect("mesh table")[r.idx() * self.nodes + dst.idx()]
                } else {
                    self.minimal(r, dst)
                }
            }
            (_, PathDescriptor::Msp { .. }) => {
                // Topology-generic, like the uncached path: the NIC
                // table doubles as a memoized `router_of`.
                while state.header_id < 2 {
                    let target = state.current_target(dst);
                    if self.nic[target.idx()].0 == r {
                        state.header_id += 1;
                    } else {
                        break;
                    }
                }
                self.minimal(r, state.current_target(dst))
            }
            (AnyTopology::Tree(_), PathDescriptor::TreeSeed { seed }) => {
                let t = self.tree.as_ref().expect("tree table");
                let d = t.down[r.idx() * self.nodes + dst.idx()];
                if d != ASCENDING {
                    Port(d)
                } else {
                    let c = (seed / t.pow_level[r.idx()]) % t.k;
                    Port((t.k + c) as u8)
                }
            }
            // Mismatched descriptor/topology combinations: defer to the
            // uncached path so the debug assertion fires in one place.
            _ => route::next_port(topo, r, dst, state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::next_port;
    use crate::{KAryNTree, Mesh2D};

    fn topologies() -> Vec<AnyTopology> {
        vec![
            AnyTopology::Mesh(Mesh2D::new(8, 8)),
            AnyTopology::Mesh(Mesh2D::new(4, 3)),
            AnyTopology::Tree(KAryNTree::new(4, 3)),
            AnyTopology::Tree(KAryNTree::new(2, 5)),
            AnyTopology::dragonfly72(),
        ]
    }

    /// Every (router, destination, descriptor) answered by the table
    /// matches the uncached computation, including `Header_id` effects.
    #[test]
    fn table_matches_next_port() {
        for topo in topologies() {
            let table = RouteTable::build(&topo);
            let mut descriptors = vec![PathDescriptor::Minimal, PathDescriptor::AdaptiveUp];
            // MSPs are topology-generic; exercise a couple of fixed
            // intermediate pairs everywhere (including degenerate ones).
            let last = NodeId(topo.num_terminals() as u32 - 1);
            descriptors.push(PathDescriptor::Msp {
                in1: NodeId(1),
                in2: last,
            });
            descriptors.push(PathDescriptor::Msp {
                in1: last,
                in2: NodeId(0),
            });
            match &topo {
                AnyTopology::Mesh(_) => {
                    descriptors.push(PathDescriptor::MeshOrder { yx: false });
                    descriptors.push(PathDescriptor::MeshOrder { yx: true });
                }
                AnyTopology::Tree(_) => {
                    for seed in [0u32, 1, 2, 3, 5, 7, 11, 15, 16, 31, 63, 255] {
                        descriptors.push(PathDescriptor::TreeSeed { seed });
                    }
                }
                _ => {}
            }
            for r in 0..topo.num_routers() {
                for d in 0..topo.num_terminals() {
                    let (rid, dst) = (RouterId(r as u32), NodeId(d as u32));
                    for &desc in &descriptors {
                        let mut a = RouteState::new(desc);
                        let mut b = a;
                        assert_eq!(
                            next_port(&topo, rid, dst, &mut a),
                            table.next_port(&topo, rid, dst, &mut b),
                            "{} r{r} d{d} {desc:?}",
                            topo.label()
                        );
                        assert_eq!(a, b, "state divergence");
                    }
                    let (mut ca, mut cb) = (Vec::new(), Vec::new());
                    topo.minimal_candidates(rid, dst, &mut ca);
                    table.minimal_candidates(&topo, rid, dst, &mut cb);
                    assert_eq!(ca, cb, "{} candidates r{r} d{d}", topo.label());
                }
            }
        }
    }

    /// The neighbor and NIC-attachment tables agree with the uncached
    /// topology answers on every slot.
    #[test]
    fn table_matches_neighbor_and_nic() {
        for topo in topologies() {
            let table = RouteTable::build(&topo);
            for r in 0..topo.num_routers() {
                let rid = RouterId(r as u32);
                for p in 0..topo.num_ports(rid) {
                    let port = Port(p as u8);
                    assert_eq!(
                        table.neighbor(rid, port),
                        topo.neighbor(rid, port),
                        "{} r{r} p{p}",
                        topo.label()
                    );
                }
            }
            for n in 0..topo.num_terminals() {
                let node = NodeId(n as u32);
                assert_eq!(
                    table.nic_attach(node),
                    (topo.router_of(node), topo.terminal_port(node)),
                    "{} n{n}",
                    topo.label()
                );
            }
        }
    }

    /// MSP walks (which mutate `Header_id` along the way) agree hop by
    /// hop between the cached and uncached paths.
    #[test]
    fn msp_walks_match_hop_by_hop() {
        let topo = AnyTopology::Mesh(Mesh2D::new(8, 8));
        let table = RouteTable::build(&topo);
        let m = match &topo {
            AnyTopology::Mesh(m) => m.clone(),
            _ => unreachable!(),
        };
        let cases = [
            (
                m.node_at(0, 0),
                m.node_at(7, 0),
                m.node_at(0, 1),
                m.node_at(7, 1),
            ),
            (
                m.node_at(1, 2),
                m.node_at(6, 5),
                m.node_at(3, 0),
                m.node_at(6, 7),
            ),
            (
                m.node_at(0, 0),
                m.node_at(7, 7),
                m.node_at(0, 0),
                m.node_at(7, 7),
            ),
            (
                m.node_at(5, 5),
                m.node_at(5, 5),
                m.node_at(2, 2),
                m.node_at(3, 3),
            ),
        ];
        for (src, dst, in1, in2) in cases {
            let desc = PathDescriptor::Msp { in1, in2 };
            let mut a = RouteState::new(desc);
            let mut b = a;
            let mut r = topo.router_of(src);
            for _ in 0..64 {
                let pa = next_port(&topo, r, dst, &mut a);
                let pb = table.next_port(&topo, r, dst, &mut b);
                assert_eq!(pa, pb, "{src:?}->{dst:?} at {r:?}");
                assert_eq!(a, b);
                match topo.neighbor(r, pa) {
                    Some(crate::ids::Endpoint::Router(nr, _)) => r = nr,
                    _ => break,
                }
            }
        }
    }
}
