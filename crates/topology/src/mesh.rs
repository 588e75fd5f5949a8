//! 2-D mesh topology (§2.1.1, "direct orthogonal networks").
//!
//! One router per terminal; routers at the border have fewer router-to-
//! router links (a mesh, not a torus — "external nodes are not
//! interconnected"). Deterministic minimal routing is dimension-order
//! (X then Y), the classic DOR scheme.

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::{Topology, LINK_CLASS_LOCAL, LINK_CLASS_SERVER};

/// Mesh port layout: 0=east(+x) 1=west(−x) 2=north(+y) 3=south(−y)
/// 4=terminal.
pub const EAST: Port = Port(0);
/// West (−x) port.
pub const WEST: Port = Port(1);
/// North (+y) port.
pub const NORTH: Port = Port(2);
/// South (−y) port.
pub const SOUTH: Port = Port(3);
/// Terminal-facing port.
pub const TERMINAL: Port = Port(4);

/// A `w × h` 2-D mesh with one terminal per router.
#[derive(Debug, Clone)]
pub struct Mesh2D {
    w: u32,
    h: u32,
}

impl Mesh2D {
    /// Build a `w × h` mesh. Both dimensions must be at least 1.
    pub fn new(w: u32, h: u32) -> Self {
        assert!(w >= 1 && h >= 1, "mesh dimensions must be positive");
        Self { w, h }
    }

    /// Mesh width.
    pub fn width(&self) -> u32 {
        self.w
    }

    /// Mesh height.
    pub fn height(&self) -> u32 {
        self.h
    }

    /// Router coordinates.
    pub fn coords(&self, r: RouterId) -> (u32, u32) {
        (r.0 % self.w, r.0 / self.w)
    }

    /// Router at coordinates.
    pub fn at(&self, x: u32, y: u32) -> RouterId {
        debug_assert!(x < self.w && y < self.h);
        RouterId(y * self.w + x)
    }

    /// Terminal node at coordinates (same index space as routers).
    pub fn node_at(&self, x: u32, y: u32) -> NodeId {
        NodeId(self.at(x, y).0)
    }

    /// All terminals whose router is exactly `d` hops (Manhattan) from
    /// the router of `center` — the "intermediate node rings" of Fig 3.6.
    pub fn ring(&self, center: NodeId, d: u32) -> Vec<NodeId> {
        let (cx, cy) = self.coords(self.router_of(center));
        let mut out = Vec::new();
        let (cx, cy) = (cx as i64, cy as i64);
        for y in 0..self.h as i64 {
            for x in 0..self.w as i64 {
                if (x - cx).unsigned_abs() + (y - cy).unsigned_abs() == d as u64 {
                    out.push(self.node_at(x as u32, y as u32));
                }
            }
        }
        out
    }
}

impl Topology for Mesh2D {
    fn num_terminals(&self) -> usize {
        (self.w * self.h) as usize
    }

    fn num_routers(&self) -> usize {
        (self.w * self.h) as usize
    }

    fn num_ports(&self, _r: RouterId) -> usize {
        5
    }

    fn router_of(&self, n: NodeId) -> RouterId {
        debug_assert!((n.0 as usize) < self.num_terminals());
        RouterId(n.0)
    }

    fn terminal_port(&self, _n: NodeId) -> Port {
        TERMINAL
    }

    fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint> {
        let (x, y) = self.coords(r);
        match p {
            EAST if x + 1 < self.w => Some(Endpoint::Router(self.at(x + 1, y), WEST)),
            WEST if x > 0 => Some(Endpoint::Router(self.at(x - 1, y), EAST)),
            NORTH if y + 1 < self.h => Some(Endpoint::Router(self.at(x, y + 1), SOUTH)),
            SOUTH if y > 0 => Some(Endpoint::Router(self.at(x, y - 1), NORTH)),
            TERMINAL => Some(Endpoint::Terminal(NodeId(r.0))),
            _ => None,
        }
    }

    fn minimal_port(&self, r: RouterId, dst: NodeId) -> Port {
        let (x, y) = self.coords(r);
        let (dx, dy) = self.coords(self.router_of(dst));
        // Dimension-order: correct X fully, then Y, then deliver.
        if dx > x {
            EAST
        } else if dx < x {
            WEST
        } else if dy > y {
            NORTH
        } else if dy < y {
            SOUTH
        } else {
            TERMINAL
        }
    }

    fn minimal_candidates(&self, r: RouterId, dst: NodeId, out: &mut Vec<Port>) {
        out.clear();
        let (x, y) = self.coords(r);
        let (dx, dy) = self.coords(self.router_of(dst));
        if dx > x {
            out.push(EAST);
        } else if dx < x {
            out.push(WEST);
        }
        if dy > y {
            out.push(NORTH);
        } else if dy < y {
            out.push(SOUTH);
        }
        if out.is_empty() {
            out.push(TERMINAL);
        }
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(self.router_of(a));
        let (bx, by) = self.coords(self.router_of(b));
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn link_class(&self, _r: RouterId, p: Port) -> u8 {
        // One board: every router-to-router wire is a backplane trace.
        if p == TERMINAL {
            LINK_CLASS_SERVER
        } else {
            LINK_CLASS_LOCAL
        }
    }

    fn label(&self) -> String {
        format!("mesh {}x{}", self.w, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_8x8() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.num_routers(), 64);
        assert_eq!(m.num_terminals(), 64);
        assert_eq!(m.coords(RouterId(0)), (0, 0));
        assert_eq!(m.coords(RouterId(63)), (7, 7));
        assert_eq!(m.at(3, 2), RouterId(19));
    }

    #[test]
    fn border_links_absent() {
        let m = Mesh2D::new(4, 4);
        assert!(m.neighbor(m.at(0, 0), WEST).is_none());
        assert!(m.neighbor(m.at(0, 0), SOUTH).is_none());
        assert!(m.neighbor(m.at(3, 3), EAST).is_none());
        assert!(m.neighbor(m.at(3, 3), NORTH).is_none());
    }

    #[test]
    fn links_are_symmetric() {
        let m = Mesh2D::new(5, 3);
        for r in 0..m.num_routers() as u32 {
            for p in 0..4u8 {
                if let Some(Endpoint::Router(nr, np)) = m.neighbor(RouterId(r), Port(p)) {
                    assert_eq!(
                        m.neighbor(nr, np),
                        Some(Endpoint::Router(RouterId(r), Port(p))),
                        "link ({r},{p}) not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn dor_routes_x_first() {
        let m = Mesh2D::new(8, 8);
        // From (0,0) to node at (3,2): go east while x differs.
        let dst = m.node_at(3, 2);
        assert_eq!(m.minimal_port(m.at(0, 0), dst), EAST);
        assert_eq!(m.minimal_port(m.at(3, 0), dst), NORTH);
        assert_eq!(m.minimal_port(m.at(3, 2), dst), TERMINAL);
    }

    #[test]
    fn dor_reaches_every_destination() {
        let m = Mesh2D::new(6, 6);
        for s in 0..36u32 {
            for d in 0..36u32 {
                let mut r = m.router_of(NodeId(s));
                let mut hops = 0;
                loop {
                    let p = m.minimal_port(r, NodeId(d));
                    if p == TERMINAL {
                        assert_eq!(r, m.router_of(NodeId(d)));
                        break;
                    }
                    match m.neighbor(r, p) {
                        Some(Endpoint::Router(nr, _)) => r = nr,
                        other => panic!("bad hop {other:?}"),
                    }
                    hops += 1;
                    assert!(hops <= 12, "non-minimal DOR walk");
                }
                assert_eq!(hops, m.distance(NodeId(s), NodeId(d)));
            }
        }
    }

    #[test]
    fn candidates_are_minimal_and_nonempty() {
        let m = Mesh2D::new(8, 8);
        let mut c = Vec::new();
        let dst = m.node_at(5, 5);
        m.minimal_candidates(m.at(2, 2), dst, &mut c);
        assert_eq!(c, vec![EAST, NORTH]);
        m.minimal_candidates(m.at(5, 5), dst, &mut c);
        assert_eq!(c, vec![TERMINAL]);
    }

    #[test]
    fn ring_distance_one_has_up_to_four_nodes() {
        let m = Mesh2D::new(8, 8);
        let center = m.node_at(4, 4);
        assert_eq!(m.ring(center, 1).len(), 4);
        // Corner node only has two 1-hop neighbors.
        assert_eq!(m.ring(m.node_at(0, 0), 1).len(), 2);
        // Ring 0 is the node itself.
        assert_eq!(m.ring(center, 0), vec![center]);
    }

    #[test]
    fn router_links_are_local() {
        let m = Mesh2D::new(4, 4);
        for r in 0..m.num_routers() as u32 {
            for p in 0..4u8 {
                assert_eq!(m.link_class(RouterId(r), Port(p)), LINK_CLASS_LOCAL);
            }
            assert_eq!(m.link_class(RouterId(r), TERMINAL), LINK_CLASS_SERVER);
        }
    }

    #[test]
    fn distance_is_manhattan() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.distance(m.node_at(0, 0), m.node_at(7, 7)), 14);
        assert_eq!(m.distance(m.node_at(3, 4), m.node_at(3, 4)), 0);
    }
}
