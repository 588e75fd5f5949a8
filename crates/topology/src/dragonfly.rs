//! Dragonfly topology (Kim et al., ISCA 2008) with the canonical
//! palm-tree global arrangement.
//!
//! `a` groups of `r` routers each; every router carries `p = h`
//! terminals and `h` global ports, and the routers of a group form a
//! complete graph over LOCAL links. The `G = r·h` global ports of a
//! group are numbered `k = i·h + j` (router `i`, port `j`) and wired by
//! offset: port `k` of group `g` reaches group `(g + o) mod a` with
//! `o = (k mod (a-1)) + 1`, so consecutive ports sweep the other
//! groups in "palm tree" order and round `q = k / (a-1)` adds another
//! parallel sweep when `G > a-1`. The reverse port is
//! `k' = q·(a-1) + (a-1-o)`; ports whose reverse index falls outside
//! `G` stay unwired, so any `G ≥ a-1` yields a legal (possibly
//! partial) palm tree. Link classes follow the physical cabling:
//! terminal ports are SERVER, the intra-group clique is LOCAL, the long
//! optical inter-group links are GLOBAL.

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::{Topology, LINK_CLASS_GLOBAL, LINK_CLASS_LOCAL, LINK_CLASS_SERVER};

/// An `a`-group dragonfly, `r` routers per group, `h` global ports and
/// `h` terminals per router (the balanced `p = h` configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dragonfly {
    a: u32,
    r: u32,
    h: u32,
}

impl Dragonfly {
    /// Build an `a × r × h` dragonfly. Requires `a ≥ 2` (there must be
    /// another group to wire to) and `r·h ≥ a-1` (round 0 of the palm
    /// tree must reach every other group, which minimal routing relies
    /// on).
    pub fn new(a: u32, r: u32, h: u32) -> Self {
        assert!(a >= 2, "dragonfly needs at least two groups");
        assert!(r >= 1 && h >= 1, "dragonfly needs routers and globals");
        assert!(
            r * h >= a - 1,
            "palm tree round 0 must reach all {} peer groups, got G = {}",
            a - 1,
            r * h
        );
        let ports = h + (r - 1) + h;
        assert!(ports <= u8::MAX as u32, "port index must fit u8");
        Self { a, r, h }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.a
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> u32 {
        self.r
    }

    /// Group and in-group index of a router.
    fn coords(&self, r: RouterId) -> (u32, u32) {
        (r.0 / self.r, r.0 % self.r)
    }

    /// The local port on router `i` that reaches router `j` of the same
    /// group (`i ≠ j`): the clique skips the self slot.
    fn local_port(&self, i: u32, j: u32) -> Port {
        debug_assert_ne!(i, j);
        let t = if j < i { j } else { j - 1 };
        Port((self.h + t) as u8)
    }

    /// Palm-tree group offset (`1..a`) of global index `k`.
    fn offset(&self, k: u32) -> u32 {
        (k % (self.a - 1)) + 1
    }

    /// Reverse global index of `k`: the port in the destination group
    /// that wires back, or None when it falls outside `G` (partial
    /// palm tree).
    fn reverse_global(&self, k: u32) -> Option<u32> {
        let o = self.offset(k);
        let q = k / (self.a - 1);
        let back = q * (self.a - 1) + (self.a - 1 - o);
        (back < self.r * self.h).then_some(back)
    }

    /// The round-0 gateway for traffic from `g` to `gd ≠ g`: the global
    /// index in the source group (always wired, by the `G ≥ a-1`
    /// constructor bound) and its reverse index in the destination.
    fn gateway(&self, g: u32, gd: u32) -> (u32, u32) {
        debug_assert_ne!(g, gd);
        let o = (gd + self.a - g) % self.a;
        (o - 1, self.a - 1 - o)
    }
}

impl Topology for Dragonfly {
    fn num_terminals(&self) -> usize {
        (self.a * self.r * self.h) as usize
    }

    fn num_routers(&self) -> usize {
        (self.a * self.r) as usize
    }

    fn num_ports(&self, _r: RouterId) -> usize {
        (self.h + (self.r - 1) + self.h) as usize
    }

    fn router_of(&self, n: NodeId) -> RouterId {
        RouterId(n.0 / self.h)
    }

    fn terminal_port(&self, n: NodeId) -> Port {
        Port((n.0 % self.h) as u8)
    }

    fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint> {
        let (g, i) = self.coords(r);
        let pi = p.0 as u32;
        if pi < self.h {
            return Some(Endpoint::Terminal(NodeId(r.0 * self.h + pi)));
        }
        if pi < self.h + (self.r - 1) {
            let t = pi - self.h;
            let j = if t < i { t } else { t + 1 };
            return Some(Endpoint::Router(
                RouterId(g * self.r + j),
                self.local_port(j, i),
            ));
        }
        if pi < self.h + (self.r - 1) + self.h {
            let k = i * self.h + (pi - (self.h + self.r - 1));
            let back = self.reverse_global(k)?;
            let d = (g + self.offset(k)) % self.a;
            return Some(Endpoint::Router(
                RouterId(d * self.r + back / self.h),
                Port((self.h + self.r - 1 + back % self.h) as u8),
            ));
        }
        None
    }

    fn minimal_port(&self, r: RouterId, dst: NodeId) -> Port {
        let (g, i) = self.coords(r);
        let rd = self.router_of(dst);
        let (gd, id) = self.coords(rd);
        if g == gd {
            if i == id {
                return self.terminal_port(dst);
            }
            return self.local_port(i, id);
        }
        let (k, _) = self.gateway(g, gd);
        let gate = k / self.h;
        if i == gate {
            return Port((self.h + self.r - 1 + k % self.h) as u8);
        }
        self.local_port(i, gate)
    }

    fn minimal_candidates(&self, r: RouterId, dst: NodeId, out: &mut Vec<Port>) {
        // The deterministic round-0 route is the one whose hop count
        // `distance` reports; alternate global rounds can add local
        // detours on either side, so only the canonical port is offered
        // as minimal here (path diversity comes from MSP expansion).
        out.clear();
        out.push(self.minimal_port(r, dst));
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ra = self.router_of(a);
        let rb = self.router_of(b);
        if ra == rb {
            return 0;
        }
        let (g, i) = self.coords(ra);
        let (gd, id) = self.coords(rb);
        if g == gd {
            return 1;
        }
        let (k, back) = self.gateway(g, gd);
        u32::from(i != k / self.h) + 1 + u32::from(back / self.h != id)
    }

    fn link_class(&self, _r: RouterId, p: Port) -> u8 {
        let pi = p.0 as u32;
        if pi < self.h {
            LINK_CLASS_SERVER
        } else if pi < self.h + (self.r - 1) {
            LINK_CLASS_LOCAL
        } else {
            LINK_CLASS_GLOBAL
        }
    }

    fn label(&self) -> String {
        format!("dragonfly {}x{}x{}", self.a, self.r, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Dragonfly> {
        vec![
            Dragonfly::new(9, 4, 2), // canonical: G = 8 = a-1, fully wired
            Dragonfly::new(5, 2, 2), // G = 4 = a-1
            Dragonfly::new(3, 3, 2), // G = 6 > a-1 = 2: multi-round palm tree
            Dragonfly::new(2, 1, 1), // degenerate two-group pair
        ]
    }

    #[test]
    fn sizes_add_up() {
        let d = Dragonfly::new(9, 4, 2);
        assert_eq!(d.num_routers(), 36);
        assert_eq!(d.num_terminals(), 72);
        assert_eq!(d.num_ports(RouterId(0)), 7);
    }

    #[test]
    fn links_are_symmetric() {
        for d in shapes() {
            for r in 0..d.num_routers() as u32 {
                for p in 0..d.num_ports(RouterId(r)) as u8 {
                    if let Some(Endpoint::Router(nr, np)) = d.neighbor(RouterId(r), Port(p)) {
                        assert_eq!(
                            d.neighbor(nr, np),
                            Some(Endpoint::Router(RouterId(r), Port(p))),
                            "{}: asymmetric wire at r{r} p{p}",
                            d.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn link_classes_are_symmetric_across_wires() {
        for d in shapes() {
            for r in 0..d.num_routers() as u32 {
                for p in 0..d.num_ports(RouterId(r)) as u8 {
                    if let Some(Endpoint::Router(nr, np)) = d.neighbor(RouterId(r), Port(p)) {
                        assert_eq!(
                            d.link_class(RouterId(r), Port(p)),
                            d.link_class(nr, np),
                            "{}: class mismatch at r{r} p{p}",
                            d.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn palm_tree_connects_every_group_pair_in_round_zero() {
        for d in shapes() {
            for g in 0..d.a {
                for gd in 0..d.a {
                    if g == gd {
                        continue;
                    }
                    let (k, back) = d.gateway(g, gd);
                    let src = RouterId(g * d.r + k / d.h);
                    let p = Port((d.h + d.r - 1 + k % d.h) as u8);
                    let expect = RouterId(gd * d.r + back / d.h);
                    match d.neighbor(src, p) {
                        Some(Endpoint::Router(nr, _)) => assert_eq!(nr, expect),
                        other => panic!("{}: gateway {g}->{gd} unwired: {other:?}", d.label()),
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_route_reaches_every_destination_in_distance_hops() {
        for d in shapes() {
            for s in 0..d.num_terminals() as u32 {
                for t in 0..d.num_terminals() as u32 {
                    let (src, dst) = (NodeId(s), NodeId(t));
                    let mut r = d.router_of(src);
                    let mut hops = 0u32;
                    while r != d.router_of(dst) {
                        let p = d.minimal_port(r, dst);
                        match d.neighbor(r, p) {
                            Some(Endpoint::Router(nr, _)) => r = nr,
                            other => panic!("{}: dead end {other:?}", d.label()),
                        }
                        hops += 1;
                        assert!(hops <= 3, "{}: minimal route too long", d.label());
                    }
                    assert_eq!(hops, d.distance(src, dst), "{}: {s}->{t}", d.label());
                    assert_eq!(
                        d.neighbor(r, d.minimal_port(r, dst)),
                        Some(Endpoint::Terminal(dst))
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "palm tree round 0")]
    fn too_many_groups_for_the_radix_is_rejected() {
        Dragonfly::new(9, 2, 2); // G = 4 < a-1 = 8
    }
}
