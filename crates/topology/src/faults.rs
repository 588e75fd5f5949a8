//! Deterministic fault model: timed link/router failures.
//!
//! A [`FaultPlan`] is a normalized list of timed fault events — part of
//! a run's *configuration*, not of its execution: the same plan replayed
//! against the same workload and seed produces bit-identical results on
//! either calendar backend, because fault application is a pure function
//! of `(plan, simulated time)` and emits no calendar events.
//!
//! [`FaultState`] is the materialized view at one instant: per-port
//! dead-link bits plus dead-router flags. Faults are restricted to
//! router↔router links and whole routers; NIC links never fail (a dead
//! terminal would just shrink the workload, which a workload edit models
//! better). A link failure is bidirectional — both directions of the
//! wire die and recover together. A router failure kills the router and
//! every link touching it, permanently: there is no router-up event,
//! and link-up events on a dead router's ports are ignored.
//!
//! [`route_survives`] walks a descriptor's route and reports whether it
//! crosses any dead link.

use crate::ids::{Endpoint, NodeId, Port, RouterId};
use crate::route::{walk_hops, PathDescriptor};
use crate::{AnyTopology, Topology};
use prdrb_simcore::rng::Splitmix64;

/// One fault event. Link events name a single wire by either endpoint;
/// the state transition always applies to both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// The link at `(router, port)` fails in both directions.
    LinkDown {
        /// Either endpoint router of the wire.
        router: RouterId,
        /// The failing port on that router.
        port: Port,
    },
    /// The link at `(router, port)` recovers (ignored while either
    /// endpoint router is dead).
    LinkUp {
        /// Either endpoint router of the wire.
        router: RouterId,
        /// The recovering port on that router.
        port: Port,
    },
    /// `router` fails permanently, taking every attached link with it.
    RouterDown {
        /// The failing router.
        router: RouterId,
    },
}

impl FaultEvent {
    /// Canonical `(kind-tag, router, port)` encoding — orders
    /// same-instant plan events and feeds the engine's cache-key
    /// folding so the fault plan participates in a run's identity.
    pub fn key(&self) -> (u8, u32, u8) {
        match *self {
            FaultEvent::LinkDown { router, port } => (0, router.0, port.0),
            FaultEvent::LinkUp { router, port } => (1, router.0, port.0),
            FaultEvent::RouterDown { router } => (2, router.0, 0),
        }
    }
}

/// A fault event bound to an absolute simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimedFault {
    /// Simulated time at which the fault takes effect. The fabric
    /// applies it before dispatching any event at `t >= at`.
    pub at: u64,
    /// What fails (or recovers).
    pub fault: FaultEvent,
}

/// A normalized, time-ordered fault schedule. Empty means a fault-free
/// run — the default, and byte-identical to a run from before the fault
/// subsystem existed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// An explicit plan. Events are normalized into `(time, content)`
    /// order so two plans listing the same faults in different input
    /// orders are the same plan (and hash identically in the run key).
    pub fn new(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| (e.at, e.fault.key()));
        Self { events }
    }

    /// A seed-derived plan: `links` link failures on router↔router
    /// wires, times uniform in `[from, to)`, every second failure
    /// recovering halfway between its onset and `to`. Deterministic in
    /// `(topology, seed)` — a splitmix64 stream, independent of the
    /// workload RNG.
    pub fn seeded(topo: &AnyTopology, seed: u64, links: usize, from: u64, to: u64) -> Self {
        assert!(from < to, "empty fault window");
        let wires = router_links(topo);
        if wires.is_empty() || links == 0 {
            return Self::none();
        }
        let mut rng = Splitmix64::new(seed ^ 0x6a09_e667_f3bc_c908);
        let mut next = move || rng.next_u64();
        let mut events = Vec::new();
        for i in 0..links {
            let (router, port) = wires[(next() % wires.len() as u64) as usize];
            let at = from + next() % (to - from);
            events.push(TimedFault {
                at,
                fault: FaultEvent::LinkDown { router, port },
            });
            if i % 2 == 1 {
                events.push(TimedFault {
                    at: at + (to - at) / 2,
                    fault: FaultEvent::LinkUp { router, port },
                });
            }
        }
        Self::new(events)
    }

    /// The events in time order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// True when the plan has no events (fault-free run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Every router↔router wire, listed once per direction.
fn router_links(topo: &AnyTopology) -> Vec<(RouterId, Port)> {
    let mut out = Vec::new();
    for r in 0..topo.num_routers() as u32 {
        let rid = RouterId(r);
        for p in 0..topo.num_ports(rid) as u8 {
            if let Some(Endpoint::Router(..)) = topo.neighbor(rid, Port(p)) {
                out.push((rid, Port(p)));
            }
        }
    }
    out
}

/// The materialized fault view at one instant: which links and routers
/// are currently dead. Cheap point queries for the fabric's hot path
/// (one bit test per hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    /// One bit per port per router (no router has more than 64 ports).
    dead_ports: Vec<u64>,
    dead_router: Vec<bool>,
    /// Dead links + dead routers, for a cheap "anything failed?" gate.
    failures: u32,
}

impl FaultState {
    /// All links and routers live.
    pub fn new(topo: &AnyTopology) -> Self {
        Self {
            dead_ports: vec![0; topo.num_routers()],
            dead_router: vec![false; topo.num_routers()],
            failures: 0,
        }
    }

    /// Apply one fault event. Idempotent; events on NIC links or
    /// nonexistent ports are misconfigurations, ignored (flagged in
    /// debug builds).
    pub fn apply(&mut self, topo: &AnyTopology, fault: &FaultEvent) {
        match *fault {
            FaultEvent::LinkDown { router, port } => self.set_link(topo, router, port, true),
            FaultEvent::LinkUp { router, port } => {
                if let Some(Endpoint::Router(nr, _)) = topo.neighbor(router, port) {
                    if self.dead_router[router.idx()] || self.dead_router[nr.idx()] {
                        return; // dead routers keep their links down
                    }
                }
                self.set_link(topo, router, port, false);
            }
            FaultEvent::RouterDown { router } => {
                if !self.dead_router[router.idx()] {
                    self.dead_router[router.idx()] = true;
                    self.failures += 1;
                }
                for p in 0..topo.num_ports(router) as u8 {
                    self.set_link(topo, router, Port(p), true);
                }
            }
        }
    }

    fn set_link(&mut self, topo: &AnyTopology, router: RouterId, port: Port, dead: bool) {
        // NIC links never fail: a terminal-facing or nonexistent port is
        // a no-op (the RouterDown sweep walks every port, NICs included).
        let Some(Endpoint::Router(nr, np)) = topo.neighbor(router, port) else {
            return;
        };
        debug_assert!(port.idx() < 64 && np.idx() < 64);
        let fwd = 1u64 << port.idx();
        let rev = 1u64 << np.idx();
        let was = self.dead_ports[router.idx()] & fwd != 0;
        if dead {
            self.dead_ports[router.idx()] |= fwd;
            self.dead_ports[nr.idx()] |= rev;
            if !was {
                self.failures += 1;
            }
        } else {
            self.dead_ports[router.idx()] &= !fwd;
            self.dead_ports[nr.idx()] &= !rev;
            if was {
                self.failures -= 1;
            }
        }
    }

    /// True when the link at `(r, p)` is dead (either direction).
    #[inline]
    pub fn link_dead(&self, r: RouterId, p: Port) -> bool {
        self.dead_ports[r.idx()] & (1 << p.idx()) != 0
    }

    /// True when router `r` itself is dead.
    #[inline]
    pub fn router_dead(&self, r: RouterId) -> bool {
        self.dead_router[r.idx()]
    }

    /// True when any link or router is currently dead. The fabric's
    /// per-hop checks gate on this so fault-free runs pay one branch.
    #[inline]
    pub fn any(&self) -> bool {
        self.failures > 0
    }
}

/// Walk `descriptor`'s route from `src` to `dst` and report whether it
/// avoids every dead link and router — the exclusion-set route query
/// saved solutions and metapath entries are validated against. A route
/// that cannot be walked at all (descriptor/topology mismatch, livelock
/// guard) does not survive either.
pub fn route_survives(
    topo: &AnyTopology,
    src: NodeId,
    dst: NodeId,
    descriptor: PathDescriptor,
    faults: &FaultState,
) -> bool {
    if !faults.any() {
        return true;
    }
    let limit = 4 * (topo.num_routers() + 1);
    walk_hops(topo, src, dst, descriptor, limit, |r, p| {
        !faults.router_dead(r) && !faults.link_dead(r, p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mesh2D;

    fn mesh() -> AnyTopology {
        AnyTopology::mesh8x8()
    }

    /// The port on `a`'s router facing `b`'s router (adjacent routers).
    fn port_toward(topo: &AnyTopology, a: RouterId, b: RouterId) -> Port {
        for p in 0..topo.num_ports(a) as u8 {
            if let Some(Endpoint::Router(nr, _)) = topo.neighbor(a, Port(p)) {
                if nr == b {
                    return Port(p);
                }
            }
        }
        panic!("{a} and {b} are not adjacent");
    }

    #[test]
    fn fresh_state_is_all_live() {
        let topo = mesh();
        let f = FaultState::new(&topo);
        assert!(!f.any());
        assert!(route_survives(
            &topo,
            NodeId(0),
            NodeId(63),
            PathDescriptor::Minimal,
            &f
        ));
    }

    #[test]
    fn link_down_is_bidirectional_and_up_restores() {
        let topo = mesh();
        let m = Mesh2D::new(8, 8);
        let (a, b) = (m.at(0, 0), m.at(1, 0));
        let (pa, pb) = (port_toward(&topo, a, b), port_toward(&topo, b, a));
        let mut f = FaultState::new(&topo);
        f.apply(
            &topo,
            &FaultEvent::LinkDown {
                router: a,
                port: pa,
            },
        );
        assert!(f.any());
        assert!(f.link_dead(a, pa));
        assert!(f.link_dead(b, pb), "reverse direction dies too");
        // Naming the wire by its other endpoint recovers both sides.
        f.apply(
            &topo,
            &FaultEvent::LinkUp {
                router: b,
                port: pb,
            },
        );
        assert!(!f.link_dead(a, pa));
        assert!(!f.any());
    }

    #[test]
    fn router_down_kills_all_links_permanently() {
        let topo = mesh();
        let m = Mesh2D::new(8, 8);
        let r = m.at(3, 3);
        let mut f = FaultState::new(&topo);
        f.apply(&topo, &FaultEvent::RouterDown { router: r });
        assert!(f.router_dead(r));
        for p in 0..topo.num_ports(r) as u8 {
            if let Some(Endpoint::Router(..)) = topo.neighbor(r, Port(p)) {
                assert!(f.link_dead(r, Port(p)));
            }
        }
        // Link-up on a dead router's port is ignored.
        let nb = m.at(4, 3);
        let p = port_toward(&topo, r, nb);
        f.apply(&topo, &FaultEvent::LinkUp { router: r, port: p });
        assert!(f.link_dead(r, p));
        f.apply(
            &topo,
            &FaultEvent::LinkUp {
                router: nb,
                port: port_toward(&topo, nb, r),
            },
        );
        assert!(f.link_dead(r, p), "named from the live side too");
    }

    #[test]
    fn route_survival_tracks_the_walked_path() {
        let topo = mesh();
        let m = Mesh2D::new(8, 8);
        // DOR x-first from (0,0) to (3,0): crosses (1,0)->(2,0).
        let (src, dst) = (m.node_at(0, 0), m.node_at(3, 0));
        let (a, b) = (m.at(1, 0), m.at(2, 0));
        let mut f = FaultState::new(&topo);
        f.apply(
            &topo,
            &FaultEvent::LinkDown {
                router: a,
                port: port_toward(&topo, a, b),
            },
        );
        assert!(!route_survives(
            &topo,
            src,
            dst,
            PathDescriptor::Minimal,
            &f
        ));
        // An MSP detouring through row 1 avoids the dead wire.
        let msp = PathDescriptor::Msp {
            in1: m.node_at(0, 1),
            in2: m.node_at(3, 1),
        };
        assert!(route_survives(&topo, src, dst, msp, &f));
    }

    #[test]
    fn plans_normalize_and_seeded_plans_are_reproducible() {
        let topo = mesh();
        let a = TimedFault {
            at: 200,
            fault: FaultEvent::LinkDown {
                router: RouterId(0),
                port: Port(0),
            },
        };
        let b = TimedFault {
            at: 100,
            fault: FaultEvent::RouterDown {
                router: RouterId(5),
            },
        };
        assert_eq!(FaultPlan::new(vec![a, b]), FaultPlan::new(vec![b, a]));
        assert_eq!(FaultPlan::new(vec![a, b]).events()[0].at, 100);

        let p1 = FaultPlan::seeded(&topo, 7, 4, 1_000, 2_000);
        let p2 = FaultPlan::seeded(&topo, 7, 4, 1_000, 2_000);
        assert_eq!(p1, p2, "same seed, same plan");
        assert_ne!(p1, FaultPlan::seeded(&topo, 8, 4, 1_000, 2_000));
        assert!(p1.events().len() >= 4, "downs plus paired recoveries");
        assert!(p1.events().windows(2).all(|w| w[0].at <= w[1].at));
        for e in p1.events() {
            assert!((1_000..2_000 + 1_000).contains(&e.at));
        }
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plan_is_pinned() {
        // The seeded plan feeds the fault figures and golden digests:
        // pin its exact events so a generator change cannot slip by.
        let ev = |at, down, router, port| TimedFault {
            at,
            fault: if down {
                FaultEvent::LinkDown {
                    router: RouterId(router),
                    port: Port(port),
                }
            } else {
                FaultEvent::LinkUp {
                    router: RouterId(router),
                    port: Port(port),
                }
            },
        };
        let want = [
            ev(1026, true, 56, 0),
            ev(1197, true, 54, 3),
            ev(1318, true, 53, 0),
            ev(1513, false, 56, 0),
            ev(1647, true, 11, 0),
            ev(1659, false, 53, 0),
        ];
        assert_eq!(
            FaultPlan::seeded(&mesh(), 7, 4, 1_000, 2_000).events(),
            &want[..]
        );
    }

    #[test]
    fn faults_apply_on_trees_too() {
        let topo = AnyTopology::fat_tree_64();
        let mut f = FaultState::new(&topo);
        // Leaf switch 0's first up link (ports k.. are up ports).
        f.apply(
            &topo,
            &FaultEvent::LinkDown {
                router: RouterId(0),
                port: Port(4),
            },
        );
        assert!(f.any());
        // Seed 0 ascends through up port 4 at the leaf; it must not
        // survive, while some other seed must.
        let (src, dst) = (NodeId(0), NodeId(63));
        let dead = route_survives(&topo, src, dst, PathDescriptor::TreeSeed { seed: 0 }, &f);
        assert!(!dead);
        let live = (0..16u32)
            .any(|s| route_survives(&topo, src, dst, PathDescriptor::TreeSeed { seed: s }, &f));
        assert!(live, "other NCA seeds avoid the dead up link");
    }
}
