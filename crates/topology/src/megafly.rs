//! Megafly / dragonfly+ topology: a two-level group-of-fat-trees.
//!
//! Each of the `a` groups is a complete bipartite graph between `l`
//! leaf routers (which carry `p = s` terminals each) and `s` spine
//! routers (which carry `h` global ports each). Groups are joined by
//! the same palm-tree arrangement as [`crate::Dragonfly`], over the
//! group's `G = s·h` spine global ports numbered `k = m·h + j` (spine
//! `m`, port `j`). Because leaves never own global ports, every
//! inter-group minimal route is exactly leaf → spine → spine → leaf
//! (3 hops), and every spine holding *any* global link toward the
//! destination group is a legal minimal ascent — that diversity is
//! what [`Topology::minimal_candidates`] exposes and what per-hop
//! adaptive ascent ([`crate::route::PathDescriptor::AdaptiveUp`])
//! exploits. Link classes: terminal ports SERVER, leaf↔spine LOCAL,
//! inter-group GLOBAL.

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::{Topology, LINK_CLASS_GLOBAL, LINK_CLASS_LOCAL, LINK_CLASS_SERVER};

/// An `a`-group megafly with `l` leaves and `s` spines per group, `h`
/// global ports per spine and `s` terminals per leaf (the balanced
/// `p = s` configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Megafly {
    a: u32,
    l: u32,
    s: u32,
    h: u32,
}

impl Megafly {
    /// Build an `a`-group megafly. Requires `a ≥ 2` and `s·h ≥ a-1`
    /// (round 0 of the palm tree must reach every peer group).
    pub fn new(a: u32, l: u32, s: u32, h: u32) -> Self {
        assert!(a >= 2, "megafly needs at least two groups");
        assert!(l >= 1 && s >= 1 && h >= 1, "megafly needs a real group");
        assert!(
            s * h >= a - 1,
            "palm tree round 0 must reach all {} peer groups, got G = {}",
            a - 1,
            s * h
        );
        let ports = (s + s).max(l + h);
        assert!(ports <= u8::MAX as u32, "port index must fit u8");
        Self { a, l, s, h }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.a
    }

    /// Leaf routers per group.
    pub fn leaves(&self) -> u32 {
        self.l
    }

    /// Spine routers per group.
    pub fn spines(&self) -> u32 {
        self.s
    }

    /// Global ports per spine.
    pub fn global_ports(&self) -> u32 {
        self.h
    }

    /// Routers per group (leaves then spines).
    pub fn routers_per_group(&self) -> u32 {
        self.l + self.s
    }

    /// Group, and Leaf(j) / Spine(m) role of a router.
    fn coords(&self, r: RouterId) -> (u32, Role) {
        let g = r.0 / self.routers_per_group();
        let j = r.0 % self.routers_per_group();
        if j < self.l {
            (g, Role::Leaf(j))
        } else {
            (g, Role::Spine(j - self.l))
        }
    }

    fn leaf(&self, g: u32, j: u32) -> RouterId {
        RouterId(g * self.routers_per_group() + j)
    }

    fn spine(&self, g: u32, m: u32) -> RouterId {
        RouterId(g * self.routers_per_group() + self.l + m)
    }

    /// Destination leaf coordinates of a terminal.
    fn leaf_of(&self, n: NodeId) -> (u32, u32) {
        let leaf = n.0 / self.s;
        (leaf / self.l, leaf % self.l)
    }

    /// Palm-tree group offset (`1..a`) of global index `k`.
    fn offset(&self, k: u32) -> u32 {
        (k % (self.a - 1)) + 1
    }

    /// Reverse global index of `k`, or None when unwired.
    fn reverse_global(&self, k: u32) -> Option<u32> {
        let o = self.offset(k);
        let q = k / (self.a - 1);
        let back = q * (self.a - 1) + (self.a - 1 - o);
        (back < self.s * self.h).then_some(back)
    }

    /// The lowest-indexed global port of spine `(g, m)` wired toward
    /// group `gd`, if it has one.
    fn global_toward(&self, g: u32, m: u32, gd: u32) -> Option<Port> {
        for j in 0..self.h {
            let k = m * self.h + j;
            if (g + self.offset(k)) % self.a == gd && self.reverse_global(k).is_some() {
                return Some(Port((self.l + j) as u8));
            }
        }
        None
    }

    /// Round-0 gateway spine for `g → gd` traffic (always wired).
    fn gateway_spine(&self, g: u32, gd: u32) -> u32 {
        debug_assert_ne!(g, gd);
        let o = (gd + self.a - g) % self.a;
        (o - 1) / self.h
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Leaf(u32),
    Spine(u32),
}

impl Topology for Megafly {
    fn num_terminals(&self) -> usize {
        (self.a * self.l * self.s) as usize
    }

    fn num_routers(&self) -> usize {
        (self.a * self.routers_per_group()) as usize
    }

    fn num_ports(&self, r: RouterId) -> usize {
        match self.coords(r).1 {
            Role::Leaf(_) => (self.s + self.s) as usize,
            Role::Spine(_) => (self.l + self.h) as usize,
        }
    }

    fn router_of(&self, n: NodeId) -> RouterId {
        let (g, j) = self.leaf_of(n);
        self.leaf(g, j)
    }

    fn terminal_port(&self, n: NodeId) -> Port {
        Port((n.0 % self.s) as u8)
    }

    fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint> {
        let (g, role) = self.coords(r);
        let pi = p.0 as u32;
        match role {
            Role::Leaf(j) => {
                if pi < self.s {
                    return Some(Endpoint::Terminal(NodeId((g * self.l + j) * self.s + pi)));
                }
                if pi < self.s + self.s {
                    return Some(Endpoint::Router(self.spine(g, pi - self.s), Port(j as u8)));
                }
                None
            }
            Role::Spine(m) => {
                if pi < self.l {
                    return Some(Endpoint::Router(self.leaf(g, pi), Port((self.s + m) as u8)));
                }
                if pi < self.l + self.h {
                    let k = m * self.h + (pi - self.l);
                    let back = self.reverse_global(k)?;
                    let d = (g + self.offset(k)) % self.a;
                    return Some(Endpoint::Router(
                        self.spine(d, back / self.h),
                        Port((self.l + back % self.h) as u8),
                    ));
                }
                None
            }
        }
    }

    fn minimal_port(&self, r: RouterId, dst: NodeId) -> Port {
        let (g, role) = self.coords(r);
        let (gd, jd) = self.leaf_of(dst);
        match role {
            Role::Leaf(j) => {
                if g == gd && j == jd {
                    return self.terminal_port(dst);
                }
                if g == gd {
                    // Spread intra-group ascents by destination, like
                    // the fat tree's d-mod-k upward digit.
                    return Port((self.s + dst.0 % self.s) as u8);
                }
                Port((self.s + self.gateway_spine(g, gd)) as u8)
            }
            Role::Spine(m) => {
                if g == gd {
                    return Port(jd as u8);
                }
                // Any global toward the destination group keeps the
                // route minimal; a spine with none (reachable only via
                // non-minimal descriptors) drains through leaf 0.
                self.global_toward(g, m, gd).unwrap_or(Port(0))
            }
        }
    }

    fn minimal_candidates(&self, r: RouterId, dst: NodeId, out: &mut Vec<Port>) {
        out.clear();
        let (g, role) = self.coords(r);
        let (gd, jd) = self.leaf_of(dst);
        match role {
            Role::Leaf(j) => {
                if g == gd && j == jd {
                    out.push(self.terminal_port(dst));
                } else if g == gd {
                    // Any spine bridges two leaves of one group.
                    out.extend((0..self.s).map(|m| Port((self.s + m) as u8)));
                } else {
                    // Any spine holding a global link toward the
                    // destination group gives a 3-hop route.
                    out.extend((0..self.s).filter_map(|m| {
                        self.global_toward(g, m, gd)
                            .map(|_| Port((self.s + m) as u8))
                    }));
                }
            }
            Role::Spine(m) => {
                if g == gd {
                    out.push(Port(jd as u8));
                } else if self.global_toward(g, m, gd).is_some() {
                    out.extend((0..self.h).filter_map(|jj| {
                        let k = m * self.h + jj;
                        ((g + self.offset(k)) % self.a == gd && self.reverse_global(k).is_some())
                            .then_some(Port((self.l + jj) as u8))
                    }));
                } else {
                    out.extend((0..self.l).map(|jj| Port(jj as u8)));
                }
            }
        }
        debug_assert!(!out.is_empty());
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (g, j) = self.leaf_of(a);
        let (gd, jd) = self.leaf_of(b);
        if (g, j) == (gd, jd) {
            0
        } else if g == gd {
            2
        } else {
            3
        }
    }

    fn link_class(&self, r: RouterId, p: Port) -> u8 {
        match self.coords(r).1 {
            Role::Leaf(_) => {
                if (p.0 as u32) < self.s {
                    LINK_CLASS_SERVER
                } else {
                    LINK_CLASS_LOCAL
                }
            }
            Role::Spine(_) => {
                if (p.0 as u32) < self.l {
                    LINK_CLASS_LOCAL
                } else {
                    LINK_CLASS_GLOBAL
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("megafly {}x{}+{}x{}", self.a, self.l, self.s, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Megafly> {
        vec![
            Megafly::new(5, 2, 2, 2), // canonical: G = 4 = a-1
            Megafly::new(3, 2, 1, 2), // single spine per group
            Megafly::new(4, 1, 3, 1), // G = 3 = a-1, skinny leaves
            Megafly::new(2, 2, 2, 1), // two groups, partial rounds
        ]
    }

    #[test]
    fn sizes_add_up() {
        let m = Megafly::new(5, 2, 2, 2);
        assert_eq!(m.num_routers(), 20);
        assert_eq!(m.num_terminals(), 20);
        assert_eq!(m.num_ports(RouterId(0)), 4); // leaf: 2 terminals + 2 ups
        assert_eq!(m.num_ports(RouterId(2)), 4); // spine: 2 downs + 2 globals
    }

    #[test]
    fn links_are_symmetric() {
        for m in shapes() {
            for r in 0..m.num_routers() as u32 {
                for p in 0..m.num_ports(RouterId(r)) as u8 {
                    if let Some(Endpoint::Router(nr, np)) = m.neighbor(RouterId(r), Port(p)) {
                        assert_eq!(
                            m.neighbor(nr, np),
                            Some(Endpoint::Router(RouterId(r), Port(p))),
                            "{}: asymmetric wire at r{r} p{p}",
                            m.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn link_classes_are_symmetric_across_wires() {
        for m in shapes() {
            for r in 0..m.num_routers() as u32 {
                for p in 0..m.num_ports(RouterId(r)) as u8 {
                    if let Some(Endpoint::Router(nr, np)) = m.neighbor(RouterId(r), Port(p)) {
                        assert_eq!(
                            m.link_class(RouterId(r), Port(p)),
                            m.link_class(nr, np),
                            "{}: class mismatch at r{r} p{p}",
                            m.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_route_reaches_every_destination_in_distance_hops() {
        for m in shapes() {
            for s in 0..m.num_terminals() as u32 {
                for t in 0..m.num_terminals() as u32 {
                    let (src, dst) = (NodeId(s), NodeId(t));
                    let mut r = m.router_of(src);
                    let mut hops = 0u32;
                    while r != m.router_of(dst) {
                        let p = m.minimal_port(r, dst);
                        match m.neighbor(r, p) {
                            Some(Endpoint::Router(nr, _)) => r = nr,
                            other => panic!("{}: dead end {other:?}", m.label()),
                        }
                        hops += 1;
                        assert!(hops <= 3, "{}: minimal route too long", m.label());
                    }
                    assert_eq!(hops, m.distance(src, dst), "{}: {s}->{t}", m.label());
                    assert_eq!(
                        m.neighbor(r, m.minimal_port(r, dst)),
                        Some(Endpoint::Terminal(dst))
                    );
                }
            }
        }
    }

    #[test]
    fn every_minimal_candidate_preserves_the_distance() {
        for m in shapes() {
            let mut cands = Vec::new();
            for s in 0..m.num_terminals() as u32 {
                for t in 0..m.num_terminals() as u32 {
                    let (src, dst) = (NodeId(s), NodeId(t));
                    let r = m.router_of(src);
                    if r == m.router_of(dst) {
                        continue;
                    }
                    let d = m.distance(src, dst);
                    m.minimal_candidates(r, dst, &mut cands);
                    assert!(!cands.is_empty());
                    for &p in &cands {
                        // Walk greedily after the candidate hop: total
                        // hops must still equal the minimal distance.
                        let Some(Endpoint::Router(mut at, _)) = m.neighbor(r, p) else {
                            panic!("{}: candidate into a terminal", m.label());
                        };
                        let mut hops = 1;
                        while at != m.router_of(dst) {
                            match m.neighbor(at, m.minimal_port(at, dst)) {
                                Some(Endpoint::Router(nr, _)) => at = nr,
                                other => panic!("{}: dead end {other:?}", m.label()),
                            }
                            hops += 1;
                            assert!(hops <= 4);
                        }
                        assert_eq!(hops, d, "{}: candidate {p:?} for {s}->{t}", m.label());
                    }
                }
            }
        }
    }
}
