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
//! * the monitoring modules of the PR-DRB router (Fig 3.19): Latency
//!   Update accumulates queuing delay in the packet header (Eq 3.3),
//!   Contending-Flows Detection fires when an output-queue wait crosses
//!   the threshold, and Generation-of-Predictive-ACKs injects router
//!   notifications in the router-based scheme (§3.4.1).
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
use crate::packet::{Packet, PacketKind};
use crate::pool::PacketPool;
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::{ns_to_us, Time};
use prdrb_simcore::EventQueue;
use prdrb_topology::{
    AnyTopology, Endpoint, FaultEvent, FaultPlan, FaultState, NodeId, PathDescriptor, Port,
    RouteState, RouteTable, RouterId, Topology,
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
/// transmitted, and a busy link blocks a second same-instant TryTx — so
/// the id uniquely identifies concurrent control packets.
pub const GPA_ID_FLAG: u64 = 1 << 62;

/// Host-allocated ids must stay below every derived-id class and inside
/// the 29-bit event-key signature window.
const MAX_HOST_ID: u64 = 1 << 27;

/// A packet handed to the host (data at its destination, ACK at the
/// original source).
#[derive(Debug)]
pub struct Delivery {
    /// Arrival time (tail fully received).
    pub at: Time,
    /// The packet.
    pub packet: Box<Packet>,
}

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
    /// Try to transmit from an output port.
    TryTx { router: RouterId, port: Port },
    /// An output link finished serializing.
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
    /// Try to inject from a NIC queue.
    NicTx { node: NodeId },
    /// Full packet received by a terminal.
    Deliver { node: NodeId, packet: Box<Packet> },
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
/// Layout: kind (3 bits) | router-or-node (24) | port (8) | vc/id (29).
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
        NetEvent::TryTx { router, port } => {
            2 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT
        }
        NetEvent::LinkFree { router, port } => {
            3 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT
        }
        NetEvent::Credit {
            router, port, vc, ..
        } => 4 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT | (vc as u64) << VC,
        NetEvent::NicCredit { node, vc, .. } => {
            5 << KIND | (node.0 as u64) << ENTITY | (vc as u64) << VC
        }
        NetEvent::NicTx { node } => 6 << KIND | (node.0 as u64) << ENTITY,
        NetEvent::Deliver { node, ref packet } => {
            7 << KIND | (node.0 as u64) << ENTITY | id_sig(packet.id)
        }
    }
}

/// The virtual channel a packet occupies: its `Header_id`, capped at
/// the last escape layer.
#[inline]
fn vc_of(pkt: &Packet) -> usize {
    (pkt.route.header_id as usize).min(NUM_VCS - 1)
}

#[derive(Debug)]
struct RouterState {
    /// `in_q[port][vc]`.
    in_q: Vec<[VecDeque<Box<Packet>>; NUM_VCS]>,
    /// One bit per input lane (`port * NUM_VCS + vc`): set while the
    /// lane holds packets, so the routing scan skips empty lanes.
    in_occ: u64,
    out_q: Vec<VecDeque<Box<Packet>>>,
    out_bytes: Vec<u32>,
    /// Propagation delay of the wire behind each port — the base
    /// `WIRE_DELAY_NS` plus the
    /// per-latency-class extra. Precomputed at build so the hot path
    /// never consults the topology.
    wire_ns: Vec<Time>,
    /// Credits toward the downstream input queue per (out port, vc);
    /// `i64::MAX / 2` marks terminal-facing ports (infinite sink).
    credits: Vec<[i64; NUM_VCS]>,
    link_busy_until: Vec<Time>,
    route_pending: bool,
    last_notify: Vec<Time>,
    rr_cursor: usize,
    /// Average contention latency at this router (latency-map metric).
    contention: RunningMean,
    series: Option<TimeSeries>,
}

#[derive(Debug)]
struct NicState {
    queue: VecDeque<Box<Packet>>,
    credits: [i64; NUM_VCS],
    link_busy_until: Time,
    /// Propagation delay of the terminal attachment wire.
    wire_ns: Time,
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
    nics: Vec<NicState>,
    q: EventQueue<NetEvent>,
    deliveries: Vec<Delivery>,
    next_id: u64,
    clock: Time,
    /// Per-run memo of every static routing decision.
    table: RouteTable,
    /// Recycles packet boxes and predictive headers.
    pool: PacketPool,
    /// Scratch for adaptive candidate ports (avoids a per-hop Vec).
    cand_scratch: Vec<Port>,
    /// Scratch for notified sources (router-based scheme).
    src_scratch: Vec<NodeId>,
    /// Timed fault schedule (usually empty). Applied lazily: every
    /// event in the plan takes effect before any calendar event at
    /// `t >= at` dispatches, and emits no calendar events itself.
    fault_plan: FaultPlan,
    /// Index of the next unapplied plan event.
    fault_cursor: usize,
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
            let mut credits = Vec::with_capacity(ports);
            for p in 0..ports {
                match topo.neighbor(rid, Port(p as u8)) {
                    Some(Endpoint::Router(..)) => credits.push([INPUT_BUF_BYTES as i64; NUM_VCS]),
                    // Terminals consume at processor speed; links to
                    // nowhere never transmit anyway.
                    _ => credits.push([i64::MAX / 2; NUM_VCS]),
                }
            }
            debug_assert!(
                ports * NUM_VCS <= 64,
                "input-lane occupancy mask needs ports * NUM_VCS <= 64"
            );
            let wire_ns = (0..ports)
                .map(|p| cfg.link_delay_ns(topo.link_class(rid, Port(p as u8))))
                .collect();
            routers.push(RouterState {
                in_q: (0..ports).map(|_| Default::default()).collect(),
                in_occ: 0,
                out_q: (0..ports).map(|_| VecDeque::new()).collect(),
                out_bytes: vec![0; ports],
                wire_ns,
                credits,
                link_busy_until: vec![0; ports],
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
                NicState {
                    queue: VecDeque::new(),
                    credits: [INPUT_BUF_BYTES as i64; NUM_VCS],
                    link_busy_until: 0,
                    wire_ns,
                }
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
            next_id: 1,
            clock: 0,
            table,
            pool: PacketPool::new(),
            cand_scratch: Vec::with_capacity(8),
            src_scratch: Vec::with_capacity(8),
            fault_plan,
            fault_cursor: 0,
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
        while let Some(pkt) = self.routers[r.idx()].out_q[p].pop_front() {
            self.drop_boxed(pkt);
        }
        self.routers[r.idx()].out_bytes[p] = 0;
    }

    /// Re-initialize the credits of output port `p` at `r` to a full
    /// downstream buffer (LinkUp retraining).
    fn reset_credits(&mut self, r: RouterId, p: usize) {
        self.routers[r.idx()].credits[p] = [INPUT_BUF_BYTES as i64; NUM_VCS];
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

    /// The one event loop every `run_*` entry point shares: pop each
    /// event with time ≤ `until`, apply the faults due by then and
    /// dispatch it. With `stop_at_delivery` it stops as soon as a
    /// delivery is pending. Returns the number of events processed.
    #[inline]
    fn run_events(&mut self, until: Time, stop_at_delivery: bool) -> u64 {
        let mut n = 0;
        while !stop_at_delivery || self.deliveries.is_empty() {
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

    /// Process events until either a delivery occurs or `until` is
    /// reached. Returns true when at least one delivery is pending.
    ///
    /// The host loop uses this to react to ACKs and received messages at
    /// their actual timestamps (the trace player must unblock receives
    /// promptly).
    pub fn run_until_delivery(&mut self, until: Time) -> bool {
        self.run_events(until, true);
        if self.deliveries.is_empty() {
            // No event ≤ `until` remains, so time passes to `until`;
            // faults scheduled in the quiet stretch take effect now.
            self.apply_faults_through(until);
            self.clock = self
                .clock
                .max(until.min(self.q.peek_time().unwrap_or(until)));
        }
        !self.deliveries.is_empty()
    }

    /// Drain the network completely (or until `max_t`). Returns the time
    /// of the last event.
    pub fn run_to_quiescence(&mut self, max_t: Time) -> Time {
        self.run_events(max_t, false);
        self.clock
    }

    /// Swap the accumulated deliveries into `out` (cleared first). The
    /// host loop reuses one buffer across ticks instead of allocating a
    /// fresh `Vec` per drain; pair with [`Self::recycle`] to return the
    /// packet boxes once processed.
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
        let credit = |lane: String, q: &VecDeque<Box<Packet>>, credits: &[i64; NUM_VCS]| {
            let head = q.front()?;
            let vc = vc_of(head);
            Some(format!(
                "{lane}: {} packets, head #{} waits for vc{vc} credit ({} of {} bytes)",
                q.len(),
                head.id,
                credits[vc],
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
                rs.out_q
                    .iter()
                    .enumerate()
                    .filter_map(|(p, q)| credit(format!("output r{r} p{p}"), q, &rs.credits[p])),
            );
        }
        lines.extend(
            self.nics
                .iter()
                .enumerate()
                .filter_map(|(n, nic)| credit(format!("nic n{n}"), &nic.queue, &nic.credits)),
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
            NetEvent::RouteTick { router } => self.route_tick(router),
            NetEvent::TryTx { router, port } => self.try_tx(router, port),
            NetEvent::LinkFree { router, port } => {
                self.sched(self.clock, NetEvent::TryTx { router, port });
            }
            NetEvent::Credit {
                router,
                port,
                vc,
                bytes,
            } => {
                self.routers[router.idx()].credits[port.idx()][vc as usize] += bytes as i64;
                self.sched(self.clock, NetEvent::TryTx { router, port });
            }
            NetEvent::NicCredit { node, vc, bytes } => {
                self.nics[node.idx()].credits[vc as usize] += bytes as i64;
                self.sched(self.clock, NetEvent::NicTx { node });
            }
            NetEvent::NicTx { node } => self.nic_tx(node),
            NetEvent::Deliver { node, packet } => self.deliver(node, packet),
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
        if self.clock < nic.link_busy_until {
            // A NicTx is always pending at end-of-serialization while the
            // link is busy, so no extra retry is needed.
            return;
        }
        let vc = vc_of(head);
        if nic.credits[vc] < head.size as i64 {
            return; // NicCredit will retry
        }
        let mut pkt = nic.queue.pop_front().expect("head");
        nic.credits[vc] -= pkt.size as i64;
        pkt.nic_depart = self.clock;
        let ser = self.cfg.ser_ns(pkt.size);
        nic.link_busy_until = self.clock + ser;
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
        // Link free → try the next queued packet.
        self.sched(self.clock + ser, NetEvent::NicTx { node });
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
            let cands = &mut self.cand_scratch;
            self.table
                .minimal_candidates(&self.topo, router, head.dst, cands);
            let live = cands
                .iter()
                .copied()
                .filter(|&c| !self.faults.link_dead(router, c))
                .min_by_key(|c| c.idx());
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
        rs.out_bytes[out.idx()] += size;
        rs.out_q[out.idx()].push_back(pkt);
        self.sample_contention(router, wait);
        self.return_credit(router, p, vc, size);
        self.sched(self.clock, NetEvent::TryTx { router, port: out });
        true
    }

    /// Return `bytes` of credit for the freed slot of input lane
    /// `(p, vc)` at `router` to whoever feeds it. The credit travels
    /// back over the same physical wire the packet came in on, so it
    /// pays that wire's class delay.
    fn return_credit(&mut self, router: RouterId, p: usize, vc: usize, bytes: u32) {
        let at = self.clock + self.routers[router.idx()].wire_ns[p];
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
            // admitted onto a dead port afterwards; stray TryTx /
            // LinkFree events on it are inert.
            debug_assert!(self.routers[router.idx()].out_q[port.idx()].is_empty());
            return;
        }
        let rs = &mut self.routers[router.idx()];
        let Some(head) = rs.out_q[port.idx()].front() else {
            return;
        };
        if self.clock < rs.link_busy_until[port.idx()] {
            // A LinkFree event is always pending while the link is busy;
            // it re-triggers TryTx, so just back off.
            return;
        }
        let neighbor = self.table.neighbor(router, port);
        let vc = vc_of(head);
        if let Some(Endpoint::Router(..)) = neighbor {
            if rs.credits[port.idx()][vc] < head.size as i64 {
                return; // a Credit event will retry
            }
        }
        let mut pkt = rs.out_q[port.idx()].pop_front().expect("head");
        rs.out_bytes[port.idx()] -= pkt.size;
        if matches!(neighbor, Some(Endpoint::Router(..))) {
            rs.credits[port.idx()][vc] -= pkt.size as i64;
        }
        let wait = self.clock - pkt.queued_at;
        pkt.path_latency += wait;
        self.sample_contention(router, wait);
        let ser = self.cfg.ser_ns(pkt.size);
        self.routers[router.idx()].link_busy_until[port.idx()] = self.clock + ser;
        self.sched(self.clock + ser, NetEvent::LinkFree { router, port });
        // Congestion monitoring: the CFD module fires when the output
        // wait crossed the threshold (only for monitored data packets —
        // control traffic is excluded).
        if pkt.is_data() {
            self.monitor_port(router, port, &mut pkt, wait);
        }
        let wire = self.routers[router.idx()].wire_ns[port.idx()];
        match neighbor {
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
        let rs = &mut self.routers[router.idx()];
        if !rs.route_pending {
            rs.route_pending = true;
            self.sched(self.clock, NetEvent::RouteTick { router });
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
        let flows = contending_flows(&rs.out_q[port.idx()], Some(pkt), MIN_SHARE, MAX_FLOWS);
        if flows.is_empty() {
            return;
        }
        rs.last_notify[port.idx()] = self.clock;
        self.stats.notifications += 1;
        let mut pairs = self.pool.flow_vec();
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
        self.pool.free_flow_vec(pairs);
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
            let cands = &mut self.cand_scratch;
            self.table
                .minimal_candidates(&self.topo, router, pkt.dst, cands);
            match cands
                .iter()
                .copied()
                .filter(|&c| !self.faults.link_dead(router, c))
                .min_by_key(|c| c.idx())
            {
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
        let rs = &mut self.routers[router.idx()];
        rs.out_bytes[out.idx()] += boxed.size;
        rs.out_q[out.idx()].push_back(boxed);
        self.sched(self.clock, NetEvent::TryTx { router, port: out });
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
        self.nics[node.idx()].queue.push_back(packet);
        self.sched(at, NetEvent::NicTx { node });
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
