//! The network fabric: routers, links, NICs and the event loop.
//!
//! Implements the router architecture of Fig 4.5 at packet granularity:
//!
//! * per-input-port, per-virtual-channel FIFO queues gated by
//!   **credit-based flow control** (§2.1.3) so the network is lossless —
//!   the evaluation guarantees offered load equals accepted load (§4.2);
//! * a routing unit with fixed per-hop delay and **round-robin
//!   arbitration** over the input queues (Fig 4.6: "simultaneous requests
//!   are served by round-robin");
//! * per-output-port queues feeding **virtual cut-through** links: the
//!   downstream router receives the header after the wire + header time
//!   and may forward while the tail still serializes, but the full packet
//!   size is reserved downstream on arrival (§2.1.2);
//! * one sending rule on every wire: a `Link` is the sending end of a
//!   wire — a NIC's injection link or a router output port — holding the
//!   queue, the per-VC credits, the wire's busy horizon and its
//!   propagation delay, and `Link::send` is the only place a packet
//!   leaves a queue onto a wire. Terminal-facing ports hold unbounded
//!   credit (`i64::MAX / 2`), so the credit check never holds them back;
//! * the monitoring modules of the PR-DRB router (Fig 3.19): Latency
//!   Update accumulates queuing delay in the packet header (Eq 3.3),
//!   Contending-Flows Detection fires when an output-queue wait crosses
//!   the threshold, and Generation-of-Predictive-ACKs injects router
//!   notifications in the router-based scheme (§3.4.1).
//!
//! Event model: the calendar holds only events that advance simulated
//! time — a header reaching a router, a routing stage coming due, a link
//! finishing serialization, a credit or a NIC's turn to inject, a packet
//! landing at a terminal. Work that follows at the same instant runs
//! inline instead: a router's transmit attempts are a port mask
//! (`RouterState::tx_pending`) serviced lowest port first, a transmit
//! that frees output space runs the routing stage at once, and a NIC
//! credit tries the NIC queue at once. An event that would find nothing
//! to do is not scheduled: a link-free event exists only while its
//! output queue holds a packet, and a NIC injection event only while the
//! NIC queue does. Every effect that crosses from one router or NIC to
//! another pays a positive delay (wire, header, routing), so a
//! same-instant cascade touches one entity only; running it inline
//! keeps each entity's order of operations exactly as the content keys
//! (`event_key`) would have popped them, and the work of different
//! entities at one instant commutes.
//!
//! The calendar is also the host's: [`Fabric::wake_at`] schedules a
//! host wakeup, keyed after every fabric event of its instant, and
//! [`Fabric::step`] runs the fabric until a fault, a delivery or a
//! wakeup is due and hands it over. A run has one calendar, and the
//! fabric is the fault plan's one reader: the host learns of each plan
//! event as a [`Step::Fault`] once the fabric has applied it.
//!
//! Deadlock freedom: multi-step paths switch to a higher-numbered virtual
//! channel at each intermediate node (the escape-channel-per-segment
//! scheme of §3.2.8), each segment uses minimal static routing, and the
//! VC index only ever increases along a path, so the channel dependency
//! graph is acyclic.

use crate::config::{
    NetworkConfig, NotifyMode, ACK_BYTES, COOLDOWN_NS, HEADER_NS, INPUT_BUF_BYTES, MAX_FLOWS,
    MIN_SHARE, OUTPUT_BUF_BYTES, ROUTING_DELAY_NS,
};
use crate::monitor::{contending_flows, dedup_sources};
use crate::packet::{FlowPair, Packet, PacketKind};
use crate::pool::PacketPool;
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::{ns_to_us, Time};
use prdrb_simcore::EventQueue;
use prdrb_topology::{
    AnyTopology, Endpoint, FaultEvent, FaultPlan, FaultState, NodeId, PathDescriptor, Port,
    RouteState, RouteTable, RouterId, TimedFault, Topology,
};
use std::collections::VecDeque;

/// Virtual channels: one escape layer per multi-step-path segment.
pub const NUM_VCS: usize = 3;

/// Packet-id class flag: destination-generated ACK for data packet `x`
/// carries id `x | ACK_ID_FLAG`. Deriving control-packet ids from
/// content (instead of a shared counter) gives every control packet a
/// unique id without touching the host's id counter.
pub const ACK_ID_FLAG: u64 = 1 << 63;

/// Packet-id class flag for router-generated predictive ACKs (GPA,
/// §3.4.1): id = `GPA_ID_FLAG | (router << 8) | port`. At most one GPA
/// volley fires per (router, port, instant) — the link must have just
/// transmitted, and a busy link blocks a second same-instant transmit —
/// so the id uniquely identifies concurrent control packets.
pub const GPA_ID_FLAG: u64 = 1 << 62;

/// Host-allocated ids must stay below every derived-id class and inside
/// the 29-bit event-key signature window.
const MAX_HOST_ID: u64 = 1 << 27;

/// A packet handed to the host (data at its destination, ACK at the
/// original source).
#[derive(Debug, PartialEq)]
pub struct Delivery {
    /// Arrival time (tail fully received).
    pub at: Time,
    /// The packet.
    pub packet: Box<Packet>,
}

/// What [`Fabric::step`] stopped at.
#[derive(Debug, PartialEq)]
pub enum Step {
    /// The fabric applied this fault-plan event. Handed over once per
    /// plan event, in plan order, before any delivery or wakeup.
    Fault(TimedFault),
    /// A packet reached its host.
    Delivered(Delivery),
    /// A wakeup scheduled with [`Fabric::wake_at`] came due.
    Wake {
        /// The instant it was scheduled for.
        at: Time,
        /// The token it was scheduled with.
        token: u64,
    },
}

/// A calendar event. Each one advances simulated time: every kind is
/// scheduled strictly after the instant that scheduled it, except
/// [`NetEvent::NicTx`] for a packet injected at the current instant and
/// a host [`NetEvent::Wake`].
#[derive(Debug, PartialEq, Eq)]
enum NetEvent {
    /// Packet header reaches a router input port.
    Arrive {
        router: RouterId,
        port: Port,
        packet: Box<Packet>,
    },
    /// Run the routing + arbitration stage of a router.
    RouteTick { router: RouterId },
    /// An output link finished serializing and its queue holds a packet.
    LinkFree { router: RouterId, port: Port },
    /// Credit returned to a router's output port for a downstream VC.
    Credit {
        router: RouterId,
        port: Port,
        vc: u8,
        bytes: u32,
    },
    /// Credit returned to a NIC.
    NicCredit { node: NodeId, vc: u8, bytes: u32 },
    /// A NIC queue's head may leave: its creation time came, or the
    /// NIC link finished serializing.
    NicTx { node: NodeId },
    /// Full packet received by a terminal.
    Deliver { node: NodeId, packet: Box<Packet> },
    /// A host wakeup (see [`Fabric::wake_at`]).
    Wake { token: u64 },
}

/// 29-bit packet-id signature for event keys: the two id-class bits
/// (plain / ACK / GPA) followed by the low 27 id bits. Distinct packets
/// that could meet at one (entity, instant) always differ in it — host
/// ids are unique below [`MAX_HOST_ID`], derived ids are unique per
/// class (see [`ACK_ID_FLAG`] / [`GPA_ID_FLAG`]).
#[inline]
fn id_sig(id: u64) -> u64 {
    ((id >> 62) << 27) | (id & (MAX_HOST_ID - 1))
}

/// Content-derived calendar key: a total priority over same-instant
/// events, making the pop order independent of insertion order (and so
/// of the calendar backend). Any two same-time events with
/// equal keys are interchangeable (identical kind + coordinates + — for
/// packet-carrying events — packet identity), so the residual
/// insertion-order tie-break can never change simulation results.
///
/// Layout: kind (3 bits) | router-or-node (24) | port (8) | vc/id (29),
/// or kind | token for a wakeup. Kinds pop in the order Arrive,
/// RouteTick, LinkFree, Credit, NicCredit, NicTx, Deliver, Wake: the
/// host wakes after the fabric's work of the instant, in token order.
/// Same-instant follow-ups are not events:
/// they run inline right after their cause, which is where their keys
/// placed them when they were events (see the module doc).
fn event_key(ev: &NetEvent) -> u64 {
    const KIND: u32 = 61;
    const ENTITY: u32 = 37;
    const PORT: u32 = 29;
    const VC: u32 = 27;
    match *ev {
        NetEvent::Arrive {
            router,
            port,
            ref packet,
        } => (router.0 as u64) << ENTITY | (port.0 as u64) << PORT | id_sig(packet.id),
        NetEvent::RouteTick { router } => 1 << KIND | (router.0 as u64) << ENTITY,
        NetEvent::LinkFree { router, port } => {
            2 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT
        }
        NetEvent::Credit {
            router, port, vc, ..
        } => 3 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT | (vc as u64) << VC,
        NetEvent::NicCredit { node, vc, .. } => {
            4 << KIND | (node.0 as u64) << ENTITY | (vc as u64) << VC
        }
        NetEvent::NicTx { node } => 5 << KIND | (node.0 as u64) << ENTITY,
        NetEvent::Deliver { node, ref packet } => {
            6 << KIND | (node.0 as u64) << ENTITY | id_sig(packet.id)
        }
        NetEvent::Wake { token } => 7 << KIND | token,
    }
}

/// Degraded-mode divert: the lowest live minimal port from `router`
/// toward `dst` (lowest index, so deterministic), or `None` when every
/// minimal port's wire is dead. `cands` is scratch space.
fn live_minimal_port(
    table: &RouteTable,
    topo: &AnyTopology,
    faults: &FaultState,
    router: RouterId,
    dst: NodeId,
    cands: &mut Vec<Port>,
) -> Option<Port> {
    table.minimal_candidates(topo, router, dst, cands);
    cands
        .iter()
        .copied()
        .filter(|&c| !faults.link_dead(router, c))
        .min_by_key(|c| c.idx())
}

/// The virtual channel a packet occupies: its `Header_id`, capped at
/// the last escape layer.
#[inline]
fn vc_of(pkt: &Packet) -> usize {
    (pkt.route.header_id as usize).min(NUM_VCS - 1)
}

/// The sending end of a wire: a NIC's injection link or a router
/// output port.
#[derive(Debug)]
struct Link {
    /// Packets waiting to cross the wire, head first.
    queue: VecDeque<Box<Packet>>,
    /// Credits toward the downstream input buffer per VC; `i64::MAX / 2`
    /// marks a terminal-facing port (infinite sink).
    credits: [i64; NUM_VCS],
    /// The wire serializes the last packet sent until this instant.
    busy_until: Time,
    /// Propagation delay of the wire — the base `WIRE_DELAY_NS` plus the
    /// per-latency-class extra. Precomputed at build so the hot path
    /// never consults the topology.
    wire_ns: Time,
}

impl Link {
    fn new(credit: i64, wire_ns: Time) -> Self {
        Self {
            queue: VecDeque::new(),
            credits: [credit; NUM_VCS],
            busy_until: 0,
            wire_ns,
        }
    }

    /// Virtual cut-through with credit-based flow control (§2.1.3): the
    /// head leaves once the wire is idle and its VC holds credit for the
    /// whole packet. Sending pops the head, charges its size to its VC,
    /// holds the wire for the serialization time and returns the packet
    /// with that time. `None` leaves the link untouched: the queue is
    /// empty, the wire busy, or the head's VC short of credit.
    fn send(&mut self, now: Time, cfg: &NetworkConfig) -> Option<(Box<Packet>, Time)> {
        let head = self.queue.front()?;
        let vc = vc_of(head);
        if now < self.busy_until || self.credits[vc] < head.size as i64 {
            return None;
        }
        let pkt = self.queue.pop_front().expect("head");
        self.credits[vc] -= pkt.size as i64;
        let ser = cfg.ser_ns(pkt.size);
        self.busy_until = now + ser;
        Some((pkt, ser))
    }
}

#[derive(Debug)]
struct RouterState {
    /// `in_q[port][vc]`.
    in_q: Vec<[VecDeque<Box<Packet>>; NUM_VCS]>,
    /// One bit per input lane (`port * NUM_VCS + vc`): set while the
    /// lane holds packets, so the routing scan skips empty lanes.
    in_occ: u64,
    /// The sending end of the wire behind each port.
    out: Vec<Link>,
    /// Bytes queued per output port (the output buffer's occupancy).
    out_bytes: Vec<u32>,
    /// Output ports with a transmit attempt due at the current instant,
    /// one bit per port; empty between calendar events.
    tx_pending: u64,
    route_pending: bool,
    last_notify: Vec<Time>,
    rr_cursor: usize,
    /// Average contention latency at this router (latency-map metric).
    contention: RunningMean,
    series: Option<TimeSeries>,
}

/// Cumulative fabric counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Data packets injected at sources.
    pub offered_data: u64,
    /// Data packets received at destinations.
    pub accepted_data: u64,
    /// ACK packets created (destination + router notifications).
    pub acks_sent: u64,
    /// ACK packets received back at sources.
    pub acks_received: u64,
    /// CFD trigger count (congestion notifications).
    pub notifications: u64,
    /// Data packets lost to link/router failures: drained from queues
    /// feeding a dead wire, caught in flight at a dead input, or stuck
    /// at a hop with no live output left. Lossless semantics end at a
    /// dead wire — `offered == accepted + dropped` replaces
    /// `offered == accepted` on faulted runs.
    pub dropped_data: u64,
    /// Control packets (ACKs, predictive notifications) lost the same
    /// ways.
    pub dropped_ctrl: u64,
}

/// The simulated interconnection network.
#[derive(Debug)]
pub struct Fabric {
    topo: AnyTopology,
    cfg: NetworkConfig,
    routers: Vec<RouterState>,
    /// Each terminal's injection link.
    nics: Vec<Link>,
    q: EventQueue<NetEvent>,
    deliveries: Vec<Delivery>,
    /// A popped host wakeup `(at, token)` not yet handed over; like a
    /// pending delivery it stops [`Self::step`]'s event loop.
    woken: Option<(Time, u64)>,
    next_id: u64,
    clock: Time,
    /// Per-run memo of every static routing decision.
    table: RouteTable,
    /// Recycles packet boxes and predictive headers.
    pool: PacketPool,
    /// Scratch for adaptive candidate ports (avoids a per-hop Vec).
    cand_scratch: Vec<Port>,
    /// Scratch for a notification's contending flows.
    flow_scratch: Vec<FlowPair>,
    /// Scratch for notified sources (router-based scheme).
    src_scratch: Vec<NodeId>,
    /// Timed fault schedule (usually empty). Applied lazily: every
    /// event in the plan takes effect before any calendar event at
    /// `t >= at` dispatches, and emits no calendar events itself.
    fault_plan: FaultPlan,
    /// Index of the next unapplied plan event.
    fault_cursor: usize,
    /// Index of the next applied plan event not yet handed to the host;
    /// like a pending delivery it stops [`Self::step`]'s event loop.
    fault_handed: usize,
    /// Materialized dead-link / dead-router view at the current time.
    faults: FaultState,
    /// Cumulative counters.
    pub stats: FabricStats,
}

impl Fabric {
    /// Build a fabric over `topo` with configuration `cfg`.
    pub fn new(topo: AnyTopology, cfg: NetworkConfig) -> Self {
        Self::with_faults(topo, cfg, FaultPlan::none())
    }

    /// Build a fabric that replays `fault_plan` as it runs. An empty plan
    /// is byte-identical to [`Self::new`].
    pub fn with_faults(topo: AnyTopology, cfg: NetworkConfig, fault_plan: FaultPlan) -> Self {
        cfg.validate();
        let nr = topo.num_routers();
        assert!(nr < 1 << 24, "event keys hold 24-bit router ids");
        let mut routers = Vec::with_capacity(nr);
        for r in 0..nr {
            let rid = RouterId(r as u32);
            let ports = topo.num_ports(rid);
            debug_assert!(
                ports * NUM_VCS <= 64,
                "input-lane occupancy mask needs ports * NUM_VCS <= 64"
            );
            let out = (0..ports)
                .map(|p| {
                    let port = Port(p as u8);
                    let credit = match topo.neighbor(rid, port) {
                        Some(Endpoint::Router(..)) => INPUT_BUF_BYTES as i64,
                        // Terminals consume at processor speed; links to
                        // nowhere never transmit anyway.
                        _ => i64::MAX / 2,
                    };
                    Link::new(credit, cfg.link_delay_ns(topo.link_class(rid, port)))
                })
                .collect();
            routers.push(RouterState {
                in_q: (0..ports).map(|_| Default::default()).collect(),
                in_occ: 0,
                out,
                out_bytes: vec![0; ports],
                tx_pending: 0,
                route_pending: false,
                last_notify: vec![0; ports],
                rr_cursor: 0,
                contention: RunningMean::new(),
                series: cfg.contention_series_bucket_ns.map(TimeSeries::new),
            });
        }
        let nics = (0..topo.num_terminals())
            .map(|n| {
                let node = NodeId(n as u32);
                let wire_ns = cfg
                    .link_delay_ns(topo.link_class(topo.router_of(node), topo.terminal_port(node)));
                Link::new(INPUT_BUF_BYTES as i64, wire_ns)
            })
            .collect();
        let table = RouteTable::build(&topo);
        let faults = FaultState::new(&topo);
        Self {
            topo,
            cfg,
            routers,
            nics,
            q: EventQueue::with_kind(cfg.queue, 1 << 12),
            deliveries: Vec::new(),
            woken: None,
            next_id: 1,
            clock: 0,
            table,
            pool: PacketPool::new(),
            cand_scratch: Vec::with_capacity(8),
            flow_scratch: Vec::new(),
            src_scratch: Vec::with_capacity(8),
            fault_plan,
            fault_cursor: 0,
            fault_handed: 0,
            faults,
            stats: FabricStats::default(),
        }
    }

    /// The topology the fabric runs over.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Apply every plan event with `at <= t`. Called before dispatching
    /// any calendar event at time `t` (and once more at the end of a
    /// bounded run), so the fault timing is a pure function of the plan
    /// — independent of event density and calendar backend.
    #[inline]
    fn apply_faults_through(&mut self, t: Time) {
        while self.fault_cursor < self.fault_plan.events().len() {
            let tf = self.fault_plan.events()[self.fault_cursor];
            if tf.at > t {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault(&tf.fault);
        }
    }

    /// Flip the fault state for one event and account the consequences:
    /// queues feeding (or fed by) a
    /// dead wire are drained with every packet counted as dropped, and
    /// a recovered wire has its sender-side credits re-initialized to a
    /// full buffer — link retraining resets flow control, and the
    /// receive queue is guaranteed empty because arrivals on a dead
    /// wire were dropped and counted.
    fn apply_fault(&mut self, fault: &FaultEvent) {
        match *fault {
            FaultEvent::LinkDown { router, port } => {
                self.faults.apply(&self.topo, fault);
                if let Some(Endpoint::Router(nr, np)) = self.table.neighbor(router, port) {
                    self.drain_port(router, port.idx());
                    self.drain_port(nr, np.idx());
                }
            }
            FaultEvent::LinkUp { router, port } => {
                let was_dead = self.faults.link_dead(router, port);
                self.faults.apply(&self.topo, fault);
                if was_dead && !self.faults.link_dead(router, port) {
                    if let Some(Endpoint::Router(nr, np)) = self.table.neighbor(router, port) {
                        self.reset_credits(router, port.idx());
                        self.reset_credits(nr, np.idx());
                    }
                }
            }
            FaultEvent::RouterDown { router } => {
                self.faults.apply(&self.topo, fault);
                let ports = self.topo.num_ports(router);
                for p in 0..ports {
                    self.drain_port(router, p);
                }
                for p in 0..ports {
                    if let Some(Endpoint::Router(nr, np)) =
                        self.table.neighbor(router, Port(p as u8))
                    {
                        self.drain_port(nr, np.idx());
                    }
                }
            }
        }
    }

    /// Drop every packet queued at `(r, p)` — input lanes and output
    /// queue — clearing occupancy bits and byte accounting. Upstream
    /// credits are *not* returned: the only caller is fault application,
    /// where the upstream link is the dead wire itself (its credits are
    /// re-initialized on recovery) or a permanently dead router.
    fn drain_port(&mut self, r: RouterId, p: usize) {
        for vc in 0..NUM_VCS {
            while let Some(pkt) = self.routers[r.idx()].in_q[p][vc].pop_front() {
                self.drop_boxed(pkt);
            }
            self.routers[r.idx()].in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        while let Some(pkt) = self.routers[r.idx()].out[p].queue.pop_front() {
            self.drop_boxed(pkt);
        }
        self.routers[r.idx()].out_bytes[p] = 0;
    }

    /// Re-initialize the credits of output port `p` at `r` to a full
    /// downstream buffer (LinkUp retraining).
    fn reset_credits(&mut self, r: RouterId, p: usize) {
        self.routers[r.idx()].out[p].credits = [INPUT_BUF_BYTES as i64; NUM_VCS];
    }

    /// Count and recycle a packet lost to a fault.
    fn drop_boxed(&mut self, pkt: Box<Packet>) {
        if pkt.is_data() {
            self.stats.dropped_data += 1;
        } else {
            self.stats.dropped_ctrl += 1;
        }
        self.pool.free(pkt);
    }

    /// Allocate a unique packet id.
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        debug_assert!(id < MAX_HOST_ID, "host packet ids exhausted the key window");
        id
    }

    /// Schedule a fabric event at its content-derived calendar key.
    #[inline]
    fn sched(&mut self, at: Time, ev: NetEvent) {
        debug_assert!(
            at > self.clock || matches!(ev, NetEvent::NicTx { .. } | NetEvent::Wake { .. }),
            "same-instant work runs inline, but {ev:?} was scheduled at {at}"
        );
        let key = event_key(&ev);
        self.q.schedule_keyed(at, key, ev);
    }

    /// Inject a packet at its source NIC. `packet.created` must not be in
    /// the fabric's past.
    pub fn inject(&mut self, packet: Packet) {
        debug_assert!(packet.src.idx() < self.nics.len(), "unknown source");
        debug_assert!(packet.dst.idx() < self.nics.len(), "unknown destination");
        if packet.is_data() {
            self.stats.offered_data += 1;
        }
        self.inject2(packet);
    }

    /// Time of the next pending event, if any. Takes `&mut self`
    /// because the timing-wheel calendar advances its cursor lazily on
    /// peeks; observable state is unaffected.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.q.peek_time()
    }

    /// Schedule a host wakeup at `at` (not in the fabric's past).
    /// [`Self::step`] hands it back after every fabric event of that
    /// instant; wakeups at one instant come back in `token` order.
    pub fn wake_at(&mut self, at: Time, token: u64) {
        debug_assert!(token < 1 << 61, "wakeup tokens fit below the kind bits");
        self.sched(at, NetEvent::Wake { token });
    }

    /// The one event loop every entry point shares: pop each event with
    /// time ≤ `until`, apply the faults due by then and dispatch it.
    /// With `stop` it stops as soon as a fault, a delivery or a wakeup
    /// is pending. Returns the number of events processed.
    #[inline]
    fn run_events(&mut self, until: Time, stop: bool) -> u64 {
        let mut n = 0;
        while !stop
            || (self.deliveries.is_empty()
                && self.woken.is_none()
                && self.fault_handed == self.fault_cursor)
        {
            let Some(entry) = self.q.pop_before(until) else {
                break;
            };
            self.apply_faults_through(entry.time);
            self.clock = entry.time;
            self.dispatch(entry.event);
            n += 1;
        }
        n
    }

    /// Process all events with time ≤ `until`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let n = self.run_events(until, false);
        self.apply_faults_through(until);
        self.clock = self.clock.max(until);
        n
    }

    /// Run events with time ≤ `until` until a fault, a delivery or a
    /// host wakeup is due, and hand it over; `None` once nothing is due
    /// by `until` (the clock stays at the last event). The host loop
    /// calls this so faults and ACKs reach the policy, received
    /// messages unblock the trace player, and sources fire, each at its
    /// own timestamp. A fault applied before an event comes first.
    pub fn step(&mut self, until: Time) -> Option<Step> {
        self.run_events(until, true);
        if self.fault_handed < self.fault_cursor {
            self.fault_handed += 1;
            return Some(Step::Fault(self.fault_plan.events()[self.fault_handed - 1]));
        }
        if !self.deliveries.is_empty() {
            return Some(Step::Delivered(self.deliveries.remove(0)));
        }
        let (at, token) = self.woken.take()?;
        Some(Step::Wake { at, token })
    }

    /// Drain the network completely (or until `max_t`). Returns the time
    /// the network fell quiet: its last event, or the moment its last
    /// link finished serializing if that is later (and not past
    /// `max_t`). A link that frees with nothing queued behind it
    /// schedules no event, so the clock is moved there explicitly.
    pub fn run_to_quiescence(&mut self, max_t: Time) -> Time {
        self.run_events(max_t, false);
        let links = self.routers.iter().flat_map(|r| &r.out).chain(&self.nics);
        if let Some(idle) = links.map(|l| l.busy_until).filter(|&t| t <= max_t).max() {
            self.clock = self.clock.max(idle);
        }
        self.clock
    }

    /// Swap the deliveries accumulated by [`Self::run_until`] or
    /// [`Self::run_to_quiescence`] into `out` (cleared first), so a
    /// caller reuses one buffer across drains; pair with
    /// [`Self::recycle`] to return the packet boxes once processed.
    pub fn take_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(out, &mut self.deliveries);
    }

    /// Return a delivered packet's allocations to the fabric's pool.
    pub fn recycle(&mut self, packet: Box<Packet>) {
        self.pool.free(packet);
    }

    /// (boxes handed out, boxes served from the free list) — perf
    /// diagnostics for the bench harness.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.allocs, self.pool.reuses)
    }

    /// Calendar events processed so far — the bench harness's events/sec
    /// numerator.
    pub fn events_processed(&self) -> u64 {
        self.q.total_processed()
    }

    /// One line per non-empty queue, naming what its head packet waits
    /// for: a router input lane `(router, port, VC)` waits for room in
    /// its output queue, and a router output queue or a NIC queue waits
    /// for credit on the head's downstream VC. Once the calendar is
    /// empty nothing moves these packets again — they are the lanes of
    /// a stall.
    pub fn blocked_lanes(&self) -> Vec<String> {
        let credit = |lane: String, link: &Link| {
            let head = link.queue.front()?;
            let vc = vc_of(head);
            Some(format!(
                "{lane}: {} packets, head #{} waits for vc{vc} credit ({} of {} bytes)",
                link.queue.len(),
                head.id,
                link.credits[vc],
                head.size
            ))
        };
        let mut lines = Vec::new();
        for (r, rs) in self.routers.iter().enumerate() {
            for (p, lanes) in rs.in_q.iter().enumerate() {
                for (vc, q) in lanes.iter().enumerate() {
                    let Some(head) = q.front() else { continue };
                    let out = head.decided_port.map_or("a route".into(), |o| {
                        let cap = OUTPUT_BUF_BYTES;
                        format!("{o} ({} of {cap} bytes used)", rs.out_bytes[o.idx()])
                    });
                    lines.push(format!(
                        "input r{r} p{p} vc{vc}: {} packets, head #{} waits for \
                         output-queue room at {out}",
                        q.len(),
                        head.id
                    ));
                }
            }
            lines.extend(
                rs.out
                    .iter()
                    .enumerate()
                    .filter_map(|(p, link)| credit(format!("output r{r} p{p}"), link)),
            );
        }
        lines.extend(
            self.nics
                .iter()
                .enumerate()
                .filter_map(|(n, nic)| credit(format!("nic n{n}"), nic)),
        );
        lines
    }

    /// Average contention latency observed at router `r`, in µs.
    pub fn router_contention_us(&self, r: RouterId) -> f64 {
        self.routers[r.idx()].contention.mean()
    }

    /// The contention time series of router `r` (present when
    /// `contention_series_bucket_ns` was configured).
    pub fn router_series(&self, r: RouterId) -> Option<&TimeSeries> {
        self.routers[r.idx()].series.as_ref()
    }

    fn dispatch(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Arrive {
                router,
                port,
                mut packet,
            } => {
                if self.faults.any()
                    && (self.faults.router_dead(router) || self.faults.link_dead(router, port))
                {
                    // The wire (or the whole router) died while the
                    // packet was in flight: lost, counted. The sender's
                    // consumed credit comes back at link retraining.
                    self.drop_boxed(packet);
                    return;
                }
                packet.queued_at = self.clock;
                packet.decided_port = None;
                let vc = vc_of(&packet);
                let r = &mut self.routers[router.idx()];
                r.in_q[port.idx()][vc].push_back(packet);
                r.in_occ |= 1 << (port.idx() * NUM_VCS + vc);
                if !r.route_pending {
                    r.route_pending = true;
                    self.sched(
                        self.clock + ROUTING_DELAY_NS,
                        NetEvent::RouteTick { router },
                    );
                }
            }
            NetEvent::RouteTick { router } => {
                self.route_tick(router);
                self.service_tx(router);
            }
            NetEvent::LinkFree { router, port } => {
                self.routers[router.idx()].tx_pending |= 1 << port.idx();
                self.service_tx(router);
            }
            NetEvent::Credit {
                router,
                port,
                vc,
                bytes,
            } => {
                let rs = &mut self.routers[router.idx()];
                rs.out[port.idx()].credits[vc as usize] += bytes as i64;
                rs.tx_pending |= 1 << port.idx();
                self.service_tx(router);
            }
            NetEvent::NicCredit { node, vc, bytes } => {
                self.nics[node.idx()].credits[vc as usize] += bytes as i64;
                self.nic_tx(node);
            }
            NetEvent::NicTx { node } => self.nic_tx(node),
            NetEvent::Deliver { node, packet } => self.deliver(node, packet),
            NetEvent::Wake { token } => self.woken = Some((self.clock, token)),
        }
    }

    fn nic_tx(&mut self, node: NodeId) {
        if self.faults.any() && self.faults.router_dead(self.table.nic_attach(node).0) {
            // The attach router is gone: the NIC can reach nothing.
            // Drain the queue, counting every packet as dropped (future
            // injections drain the same way at their own NicTx).
            while let Some(pkt) = self.nics[node.idx()].queue.pop_front() {
                self.drop_boxed(pkt);
            }
            return;
        }
        let nic = &mut self.nics[node.idx()];
        let Some(head) = nic.queue.front() else {
            return;
        };
        if head.created > self.clock {
            // The head was queued ahead of time (injection enqueues
            // immediately); it must not leave before its creation time.
            let at = head.created;
            self.sched(at, NetEvent::NicTx { node });
            return;
        }
        // Held back: a busy link has a NicTx pending at
        // end-of-serialization, a credit-short head a NicCredit.
        let Some((mut pkt, ser)) = nic.send(self.clock, &self.cfg) else {
            return;
        };
        pkt.nic_depart = self.clock;
        let wire = nic.wire_ns;
        let (router, port) = self.table.nic_attach(node);
        self.sched(
            self.clock + wire + HEADER_NS,
            NetEvent::Arrive {
                router,
                port,
                packet: pkt,
            },
        );
        // Link free → try the next queued packet, if there is one; a
        // packet queued later schedules its own turn (`inject2`).
        if !self.nics[node.idx()].queue.is_empty() {
            self.sched(self.clock + ser, NetEvent::NicTx { node });
        }
    }

    fn route_tick(&mut self, router: RouterId) {
        self.routers[router.idx()].route_pending = false;
        let ports = self.routers[router.idx()].in_q.len();
        let lanes = ports * NUM_VCS;
        // Round-robin arbitration: each pass walks `lanes` steps from the
        // (live) cursor, and a move re-bases the cursor just past the
        // winning lane. The occupancy mask lets the walk jump straight to
        // the next non-empty lane — empty lanes never move a packet, so
        // only the step budget must account for them.
        loop {
            let mut moved = false;
            let mut step = 0;
            while step < lanes {
                let occ = self.routers[router.idx()].in_occ;
                if occ == 0 {
                    break;
                }
                // cursor < lanes and step < lanes, so one conditional
                // subtract replaces the (hardware-div) modulo.
                let mut l = self.routers[router.idx()].rr_cursor + step;
                if l >= lanes {
                    l -= lanes;
                }
                let ahead = occ & (!0u64 << l);
                let lane = if ahead != 0 {
                    let lane = ahead.trailing_zeros() as usize;
                    step += lane - l;
                    lane
                } else {
                    let lane = occ.trailing_zeros() as usize;
                    step += lanes - l + lane;
                    lane
                };
                if step >= lanes {
                    break;
                }
                let (p, vc) = (lane / NUM_VCS, lane % NUM_VCS);
                if self.try_move_in_to_out(router, p, vc) {
                    self.routers[router.idx()].rr_cursor =
                        if lane + 1 == lanes { 0 } else { lane + 1 };
                    moved = true;
                }
                step += 1;
            }
            if !moved {
                break;
            }
        }
    }

    /// Move the head packet of `in_q[p][vc]` to its output queue if there
    /// is room. Returns true when a packet moved.
    fn try_move_in_to_out(&mut self, router: RouterId, p: usize, vc: usize) -> bool {
        let rs = &mut self.routers[router.idx()];
        let Some(head) = rs.in_q[p][vc].front_mut() else {
            return false;
        };
        let out = match head.decided_port {
            Some(op) => op,
            None => {
                let op = if head.route.descriptor == prdrb_topology::PathDescriptor::AdaptiveUp {
                    // Fully adaptive ascent: among the minimal candidate
                    // ports, take the least-occupied output queue
                    // (deterministic tie-break by port index).
                    let cands = &mut self.cand_scratch;
                    self.table
                        .minimal_candidates(&self.topo, router, head.dst, cands);
                    cands
                        .iter()
                        .copied()
                        .min_by_key(|p| (rs.out_bytes[p.idx()], p.idx()))
                        .unwrap_or_else(|| {
                            self.table
                                .next_port(&self.topo, router, head.dst, &mut head.route)
                        })
                } else {
                    self.table
                        .next_port(&self.topo, router, head.dst, &mut head.route)
                };
                head.decided_port = Some(op);
                op
            }
        };
        // Degraded mode: an output whose wire has died is re-decided
        // over the live minimal candidates toward the final destination
        // (lowest live port — deterministic). The remaining multi-step
        // structure may lead straight back into the dead wire, so the
        // diverted packet switches to plain minimal routing on the
        // escape channel; minimal hops strictly close on the
        // destination, so it cannot livelock. A head with no live
        // escape is dropped and counted.
        let out = if self.faults.any() && self.faults.link_dead(router, out) {
            let live = live_minimal_port(
                &self.table,
                &self.topo,
                &self.faults,
                router,
                head.dst,
                &mut self.cand_scratch,
            );
            match live {
                Some(c) => {
                    head.route = RouteState::new(PathDescriptor::Minimal);
                    head.decided_port = Some(c);
                    c
                }
                None => return self.drop_head(router, p, vc),
            }
        } else {
            out
        };
        let size = head.size;
        if rs.out_bytes[out.idx()] + size > OUTPUT_BUF_BYTES {
            return false;
        }
        let mut pkt = rs.in_q[p][vc].pop_front().expect("head");
        if rs.in_q[p][vc].is_empty() {
            rs.in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        // Contention in the input queue beyond the fixed routing delay.
        let wait = (self.clock - pkt.queued_at).saturating_sub(ROUTING_DELAY_NS);
        pkt.path_latency += wait;
        pkt.queued_at = self.clock;
        pkt.hops += 1;
        self.enqueue_out(router, out, pkt);
        self.sample_contention(router, wait);
        self.return_credit(router, p, vc, size);
        true
    }

    /// Append `pkt` to output queue `out` at `router`. An idle link
    /// owes the port a transmit attempt now; a busy one transmits again
    /// at its LinkFree, which the transmit scheduled only if the queue
    /// was left non-empty — so the first packet into an empty queue
    /// behind a busy link schedules it.
    fn enqueue_out(&mut self, router: RouterId, out: Port, pkt: Box<Packet>) {
        let rs = &mut self.routers[router.idx()];
        let o = out.idx();
        let busy_until = rs.out[o].busy_until;
        let was_empty = rs.out[o].queue.is_empty();
        rs.out_bytes[o] += pkt.size;
        rs.out[o].queue.push_back(pkt);
        if self.clock >= busy_until {
            rs.tx_pending |= 1 << o;
        } else if was_empty {
            self.sched(busy_until, NetEvent::LinkFree { router, port: out });
        }
    }

    /// Run the transmit attempts due at `router` now, lowest port first
    /// — the order their calendar keys would pop them in. An attempt may
    /// run the routing stage, which can mark more ports, lower ones
    /// included.
    fn service_tx(&mut self, router: RouterId) {
        loop {
            let pending = self.routers[router.idx()].tx_pending;
            if pending == 0 {
                break;
            }
            self.routers[router.idx()].tx_pending = pending & (pending - 1);
            self.try_tx(router, Port(pending.trailing_zeros() as u8));
        }
    }

    /// Return `bytes` of credit for the freed slot of input lane
    /// `(p, vc)` at `router` to whoever feeds it. The credit travels
    /// back over the same physical wire the packet came in on, so it
    /// pays that wire's class delay.
    fn return_credit(&mut self, router: RouterId, p: usize, vc: usize, bytes: u32) {
        let at = self.clock + self.routers[router.idx()].out[p].wire_ns;
        let vc = vc as u8;
        match self.table.neighbor(router, Port(p as u8)) {
            Some(Endpoint::Router(ur, up)) => self.sched(
                at,
                NetEvent::Credit {
                    router: ur,
                    port: up,
                    vc,
                    bytes,
                },
            ),
            Some(Endpoint::Terminal(node)) => {
                self.sched(at, NetEvent::NicCredit { node, vc, bytes })
            }
            None => {}
        }
    }

    /// Drop the head of input lane `(p, vc)` at `router` — no live
    /// output remains for it. The freed input slot's credit returns
    /// upstream exactly as a successful move would, so upstream flow
    /// control (over a live wire) stays balanced. Returns true: the
    /// arbitration pass made progress.
    fn drop_head(&mut self, router: RouterId, p: usize, vc: usize) -> bool {
        let rs = &mut self.routers[router.idx()];
        let pkt = rs.in_q[p][vc].pop_front().expect("head");
        if rs.in_q[p][vc].is_empty() {
            rs.in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        let size = pkt.size;
        self.drop_boxed(pkt);
        self.return_credit(router, p, vc, size);
        true
    }

    fn try_tx(&mut self, router: RouterId, port: Port) {
        if self.faults.any() && self.faults.link_dead(router, port) {
            // The queue was drained when the wire died and nothing is
            // admitted onto a dead port afterwards; a stray LinkFree or
            // credit on it is inert.
            debug_assert!(self.routers[router.idx()].out[port.idx()].queue.is_empty());
            return;
        }
        let rs = &mut self.routers[router.idx()];
        // Held back: a busy link with a queued packet has a LinkFree
        // pending, a credit-short head a Credit; either retries.
        let Some((mut pkt, ser)) = rs.out[port.idx()].send(self.clock, &self.cfg) else {
            return;
        };
        rs.out_bytes[port.idx()] -= pkt.size;
        if !rs.out[port.idx()].queue.is_empty() {
            self.sched(self.clock + ser, NetEvent::LinkFree { router, port });
        }
        let wait = self.clock - pkt.queued_at;
        pkt.path_latency += wait;
        self.sample_contention(router, wait);
        // Congestion monitoring: the CFD module fires when the output
        // wait crossed the threshold (only for monitored data packets —
        // control traffic is excluded).
        if pkt.is_data() {
            self.monitor_port(router, port, &mut pkt, wait);
        }
        let wire = self.routers[router.idx()].out[port.idx()].wire_ns;
        match self.table.neighbor(router, port) {
            Some(Endpoint::Terminal(n)) => {
                // Full packet must land before the node consumes it.
                self.sched(
                    self.clock + wire + ser,
                    NetEvent::Deliver {
                        node: n,
                        packet: pkt,
                    },
                );
            }
            Some(Endpoint::Router(nr, np)) => {
                // Cut-through: header hands off while the tail flows.
                self.sched(
                    self.clock + wire + HEADER_NS,
                    NetEvent::Arrive {
                        router: nr,
                        port: np,
                        packet: pkt,
                    },
                );
            }
            None => panic!("transmitting into the void at {router}:{port}"),
        }
        // Output space freed: the routing stage may move more packets.
        // A pending RouteTick is in the future, and runs then.
        if !self.routers[router.idx()].route_pending {
            self.route_tick(router);
        }
    }

    /// CFD + GPA: identify contending flows when `wait` crossed the
    /// threshold, honoring the per-port cooldown.
    fn monitor_port(&mut self, router: RouterId, port: Port, pkt: &mut Packet, wait: Time) {
        let mon = self.cfg.monitor;
        if mon.mode == NotifyMode::Off || wait < mon.router_threshold_ns {
            return;
        }
        let rs = &mut self.routers[router.idx()];
        let last = rs.last_notify[port.idx()];
        if last != 0 && self.clock.saturating_sub(last) < COOLDOWN_NS {
            return;
        }
        let flows = contending_flows(&rs.out[port.idx()].queue, Some(pkt), MIN_SHARE, MAX_FLOWS);
        if flows.is_empty() {
            return;
        }
        rs.last_notify[port.idx()] = self.clock;
        self.stats.notifications += 1;
        let mut pairs = std::mem::take(&mut self.flow_scratch);
        pairs.clear();
        pairs.extend(flows.iter().map(|c| c.flow));
        match mon.mode {
            NotifyMode::Destination => {
                // Ride the leaving packet to its destination; the ACK
                // will carry it back (§3.2.2). Pre-install a pooled
                // header so `attach_flows` never allocates.
                if pkt.predictive.is_none() {
                    pkt.predictive = Some(self.pool.header());
                }
                pkt.attach_flows(router, &pairs, MAX_FLOWS);
            }
            NotifyMode::Router => {
                // GPA: notify each contending source directly (§3.4.1).
                // Global first-occurrence dedup — `Vec::dedup` only
                // removes *adjacent* repeats, and `pairs` is ordered by
                // occupancy share, so a source contending on two
                // interleaved flows used to receive two ACK volleys
                // under one GPA id, breaking the id-uniqueness
                // invariant of [`GPA_ID_FLAG`].
                let mut sources = std::mem::take(&mut self.src_scratch);
                dedup_sources(&pairs, &mut sources);
                for &src in &sources {
                    // One GPA volley per (router, port, instant); see
                    // [`GPA_ID_FLAG`]. (The per-src Deliver events are
                    // disambiguated by their destination NIC.)
                    let id = GPA_ID_FLAG | (router.0 as u64) << 8 | port.0 as u64;
                    let mut header = self.pool.header();
                    header.flows.extend_from_slice(&pairs);
                    let ack = Packet::predictive_ack_with(
                        id, router, src, header, self.clock, ACK_BYTES, pkt.dst,
                    );
                    self.stats.acks_sent += 1;
                    self.router_inject(router, ack);
                }
                self.src_scratch = sources;
            }
            NotifyMode::Off => unreachable!(),
        }
        self.flow_scratch = pairs;
    }

    /// Inject a control packet directly from a router (predictive ACK).
    /// Control packets use a dedicated channel: they bypass output-queue
    /// capacity but share link bandwidth.
    fn router_inject(&mut self, router: RouterId, mut pkt: Packet) {
        let mut out = self
            .table
            .next_port(&self.topo, router, pkt.dst, &mut pkt.route);
        if self.faults.any() && self.faults.link_dead(router, out) {
            // Notification toward a dead wire: divert over the live
            // minimal candidates or count it lost.
            match live_minimal_port(
                &self.table,
                &self.topo,
                &self.faults,
                router,
                pkt.dst,
                &mut self.cand_scratch,
            ) {
                Some(c) => out = c,
                None => {
                    let boxed = self.pool.boxed(pkt);
                    self.drop_boxed(boxed);
                    return;
                }
            }
        }
        pkt.queued_at = self.clock;
        pkt.decided_port = Some(out);
        let boxed = self.pool.boxed(pkt);
        self.enqueue_out(router, out, boxed);
    }

    fn deliver(&mut self, node: NodeId, mut packet: Box<Packet>) {
        match packet.kind {
            PacketKind::Data { needs_ack, .. } => {
                self.stats.accepted_data += 1;
                if needs_ack && self.cfg.acks_enabled {
                    // Content-derived id: see [`ACK_ID_FLAG`].
                    let id = packet.id | ACK_ID_FLAG;
                    let ack = Packet::ack_for(&mut packet, id, self.clock, ACK_BYTES);
                    self.stats.acks_sent += 1;
                    self.inject2(ack);
                }
            }
            PacketKind::Ack { .. } => {
                self.stats.acks_received += 1;
            }
        }
        debug_assert_eq!(packet.dst, node, "misdelivered packet");
        self.deliveries.push(Delivery {
            at: self.clock,
            packet,
        });
    }

    /// Internal injection used by `inject` and ACK generation.
    fn inject2(&mut self, packet: Packet) {
        let at = packet.created.max(self.clock);
        let node = packet.src;
        let packet = self.pool.boxed(packet);
        if packet.src == packet.dst {
            self.sched(
                at + HEADER_NS,
                NetEvent::Deliver {
                    node: packet.dst,
                    packet,
                },
            );
            return;
        }
        let nic = &mut self.nics[node.idx()];
        let was_empty = nic.queue.is_empty();
        let busy_until = nic.busy_until;
        nic.queue.push_back(packet);
        // A new head may leave once created and the link is free; a
        // packet behind the head gets its turn when the head leaves.
        if was_empty {
            self.sched(at.max(busy_until), NetEvent::NicTx { node });
        }
        // Under faults a NIC whose attach router died drains at every
        // injection instant.
        if self.faults.any() && (!was_empty || at < busy_until) {
            self.sched(at, NetEvent::NicTx { node });
        }
    }

    fn sample_contention(&mut self, router: RouterId, wait: Time) {
        let rs = &mut self.routers[router.idx()];
        let us = ns_to_us(wait);
        rs.contention.push(us);
        if let Some(series) = rs.series.as_mut() {
            series.push(self.clock, us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link with `credit` bytes on every VC, queueing packets of the
    /// given sizes on VC 2 (minimal routes), ids from 0.
    fn link(credit: i64, sizes: &[u32]) -> Link {
        let mut l = Link::new(credit, 10);
        for (id, &size) in sizes.iter().enumerate() {
            let route = RouteState::new(PathDescriptor::Minimal);
            let (s, d) = (NodeId(0), NodeId(1));
            let p = Packet::data(id as u64, s, d, size, 0, route, 0, 0, 0, true, false);
            l.queue.push_back(Box::new(p));
        }
        l
    }

    #[test]
    fn an_idle_wire_with_credit_sends_and_charges_the_heads_vc() {
        let cfg = NetworkConfig::default();
        let mut l = link(4096, &[1024, 512]);
        let (p, ser) = l.send(100, &cfg).expect("idle wire, enough credit");
        assert_eq!((p.id, ser, l.busy_until), (0, cfg.ser_ns(1024), 100 + ser));
        assert_eq!(l.credits, [4096, 4096, 4096 - 1024]);
        assert_eq!(l.queue.len(), 1);
    }

    #[test]
    fn a_busy_wire_sends_nothing_and_touches_nothing() {
        let cfg = NetworkConfig::default();
        let mut l = link(4096, &[1024, 1024]);
        let (_, ser) = l.send(0, &cfg).expect("first send");
        assert!(l.send(ser - 1, &cfg).is_none());
        assert_eq!((l.credits[2], l.queue.len(), l.busy_until), (3072, 1, ser));
        assert!(l.send(ser, &cfg).is_some(), "free as serialization ends");
    }

    #[test]
    fn a_head_short_of_credit_waits_for_its_own_vc() {
        let cfg = NetworkConfig::default();
        let mut l = link(1023, &[1024]);
        // Another VC's credit does not release it.
        l.credits[0] = i64::MAX / 2;
        assert!(l.send(0, &cfg).is_none());
        assert_eq!((l.credits[2], l.queue.len()), (1023, 1));
        l.credits[2] += 1;
        assert!(l.send(0, &cfg).is_some(), "exactly enough credit sends");
        assert_eq!(l.credits[2], 0);
    }

    /// Inject one packet `src` → `dst` created at `at`.
    fn inject(f: &mut Fabric, src: u32, dst: u32, at: Time) {
        let route = RouteState::new(PathDescriptor::Minimal);
        let id = f.alloc_id();
        let (s, d) = (NodeId(src), NodeId(dst));
        f.inject(Packet::data(
            id, s, d, 1024, at, route, 0, id, 0, true, false,
        ));
    }

    fn mesh() -> Fabric {
        Fabric::new(AnyTopology::mesh8x8(), NetworkConfig::default())
    }

    fn woke(at: Time, token: u64) -> Option<Step> {
        Some(Step::Wake { at, token })
    }

    #[test]
    fn a_wakeup_comes_back_after_the_fabric_work_of_its_instant() {
        let mut f = mesh();
        inject(&mut f, 0, 63, 0);
        f.run_to_quiescence(Time::MAX / 4);
        let mut out = Vec::new();
        f.take_deliveries(&mut out);
        let at = out[0].at;
        // A wakeup at a delivery's instant comes back after it.
        let mut f = mesh();
        inject(&mut f, 0, 63, 0);
        f.wake_at(at, 3);
        assert!(matches!(f.step(Time::MAX), Some(Step::Delivered(d)) if d.at == at));
        assert_eq!(f.step(Time::MAX), woke(at, 3));
        // One scheduled at the current instant comes back after the NIC
        // sent a packet injected then.
        inject(&mut f, 5, 9, at);
        f.wake_at(at, 1);
        assert_eq!(f.step(Time::MAX), woke(at, 1));
        assert!(f.nics[5].queue.is_empty(), "the NIC sent first");
    }

    #[test]
    fn wakeups_at_one_instant_come_back_in_token_order() {
        for tokens in [[7, 1 << 32, 0, 3], [0, 3, 7, 1 << 32]] {
            let mut f = mesh();
            tokens.iter().for_each(|&t| f.wake_at(1_000, t));
            let back: Vec<_> = std::iter::from_fn(|| f.step(1_000).map(Some)).collect();
            assert_eq!(back, [0, 3, 7, 1 << 32].map(|t| woke(1_000, t)));
        }
    }

    #[test]
    fn step_returns_none_and_keeps_the_clock_when_nothing_is_due() {
        let mut f = mesh();
        assert!(f.step(Time::MAX).is_none());
        assert_eq!(f.now(), 0);
        // A packet created at 10 µs waits in its NIC until then.
        inject(&mut f, 0, 63, 10_000);
        f.wake_at(400, 0);
        assert_eq!(f.step(Time::MAX), woke(400, 0));
        let events = f.events_processed();
        assert!(f.step(9_999).is_none());
        assert_eq!((f.now(), f.events_processed()), (400, events));
    }

    #[test]
    fn step_hands_each_applied_fault_over_once_in_plan_order() {
        const GAP: Time = 1_000;
        let topo = AnyTopology::mesh8x8();
        let mut events = FaultPlan::seeded(&topo, 11, 6, 20_000, 200_000)
            .events()
            .to_vec();
        // Past the calendar's last event: never applied, never handed.
        events.push(TimedFault {
            at: 50_000_000,
            ..events[0]
        });
        let plan = FaultPlan::new(events);
        let mut f = Fabric::with_faults(topo, NetworkConfig::default(), plan.clone());
        for i in 0..300 {
            f.wake_at(i * GAP, i);
            inject(&mut f, (i % 64) as u32, ((i * 29 + 5) % 64) as u32, i * GAP);
        }
        let mut handed = Vec::new();
        while let Some(step) = f.step(Time::MAX) {
            let at = match step {
                // No later than the first event at or after `at`: a
                // wakeup waits on every multiple of `GAP`.
                Step::Fault(tf) => {
                    assert!((tf.at..=tf.at.next_multiple_of(GAP)).contains(&f.now()));
                    handed.push(tf);
                    continue;
                }
                Step::Delivered(d) => d.at,
                Step::Wake { at, .. } => at,
            };
            let due = plan.events().partition_point(|tf| tf.at <= at);
            assert!(
                handed.len() >= due,
                "work at {at} came back before a fault due by then"
            );
        }
        assert_eq!(handed, plan.events()[..plan.events().len() - 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same-instant work runs inline")]
    fn only_nic_turns_and_wakeups_may_be_scheduled_at_the_current_instant() {
        let mut f = mesh();
        f.wake_at(700, 0);
        assert_eq!(f.step(Time::MAX), woke(700, 0));
        f.sched(
            700,
            NetEvent::RouteTick {
                router: RouterId(0),
            },
        );
    }

    #[test]
    fn a_terminal_facing_port_always_sends() {
        let cfg = NetworkConfig::default();
        let mut l = link(i64::MAX / 2, &[1024; 1000]);
        let mut now = 0;
        while let Some((_, ser)) = l.send(now, &cfg) {
            now += ser;
        }
        assert!(l.queue.is_empty(), "an idle wire never waits for credit");
    }
}
