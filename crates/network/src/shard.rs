//! Conservative windowed fabric execution over a [`ShardPlan`].
//!
//! [`ShardedFabric`] splits one logical fabric into `K` per-shard
//! [`Fabric`] instances (each with its own event calendar and packet
//! pool) and advances them in bulk-synchronous *safe windows*:
//!
//! 1. pick the global next event time `t₀` (earliest pending event,
//!    staged boundary event or host injection across all shards),
//! 2. run every shard through `[t₀, t₀ + L - 1]`, where
//!    `L` is the **lookahead** — the minimum simulated latency any
//!    event needs to cross a shard boundary. Per link that latency is
//!    its wire propagation delay, which since the latency-class model
//!    (`NetworkConfig::wire_class_extra_ns`) is *per link*: a cut that
//!    crosses only long inter-board or spine wires yields a wide
//!    window, amortizing every barrier over many more events,
//! 3. barrier: collect each shard's outbox of boundary events and
//!    deliveries, hand the former to their destination shards'
//!    staging lanes *wholesale* (the fabric keeps one outbox lane per
//!    destination shard, so the handoff is a few `Vec::append`s, not
//!    per-event routing), and merge the latter into serial pop order.
//!
//! Within a window, no event on one shard can causally affect another
//! shard (any influence needs ≥ `L` ns of link latency, which lands
//! strictly after the window ends), so the order in which shards run
//! inside a window is irrelevant. Determinism relative to the serial
//! fabric follows from the content-keyed calendar (`(time, key, seq)`
//! ordering in *both* modes, see `fabric::event_key`), content-derived
//! control packet ids, and the deterministic barrier: staged events are
//! accepted in source-shard-major order (their keys make calendar
//! order insertion-order independent anyway) and deliveries are sorted
//! by the serial calendar key. The golden-digest and property tests
//! assert byte-identical results for K ∈ {1, 2, 3, 4, 8}.
//!
//! One driver runs the protocol: the shards advance one after another
//! on the calling thread, and outboxes are collected in a second pass
//! after *every* shard ran, so a boundary event produced in a window is
//! never accepted in that same window. Sharding is a determinism
//! cross-check, not a speed-up — a K-shard run costs more wall time
//! than the serial fabric (EXPERIMENTS.md, "Sharded execution"); sweeps
//! get their parallelism from independent runs side by side
//! (`prdrb_engine::run_many`).
//!
//! Window health is observable two ways: deterministic always-on
//! aggregates ([`ShardedFabric::parallel_stats`]) and `probes`-feature
//! sample streams (`shard_window_width_ns`, `shard_handoff_batch`).

use crate::config::NetworkConfig;
use crate::fabric::{delivery_order_key, Delivery, Fabric, FabricStats, StagedEvent};
use crate::packet::Packet;
use prdrb_simcore::probe_value;
use prdrb_simcore::stats::TimeSeries;
use prdrb_simcore::time::Time;
use prdrb_topology::{AnyTopology, FaultPlan, FaultState, RouterId, ShardPlan, Topology};
use std::sync::Arc;

/// Lookahead of a plan: the minimum simulated latency any event needs
/// to cross a shard boundary. Only `Arrive` (wire + header tail) and
/// `Credit` (wire) events traverse router→router links, so per cut
/// link the bound is that link's propagation delay
/// ([`NetworkConfig::link_delay_ns`] of its latency class — symmetric
/// by the `link_class` contract, so one direction covers both), and
/// the plan-wide bound is the `min` over the cut. Partitions that cut
/// only long (global-class) wires therefore get windows widened by the
/// full inter-board delay. A plan with no cut (K = 1, or every shard
/// but one empty) has unbounded lookahead.
pub fn shard_lookahead(plan: &ShardPlan, topo: &AnyTopology, cfg: &NetworkConfig) -> Time {
    plan.cross_links(topo)
        .iter()
        .map(|&(r, p, _)| cfg.link_delay_ns(topo.link_class(r, p)))
        .min()
        .unwrap_or(Time::MAX / 2)
}

/// [`shard_lookahead`] over the *live* cut only: a dead cross-shard
/// link carries no events, so it cannot bound the window — and a
/// recovered one must bound it again. The window driver re-evaluates
/// this on every fault event it applies (and additionally never lets a
/// window cross a pending fault time, so a stale bound is never used
/// past the instant it changes).
pub fn shard_lookahead_live(
    plan: &ShardPlan,
    topo: &AnyTopology,
    cfg: &NetworkConfig,
    faults: &FaultState,
) -> Time {
    plan.live_cross_links(topo, faults)
        .iter()
        .map(|&(r, p, _)| cfg.link_delay_ns(topo.link_class(r, p)))
        .min()
        .unwrap_or(Time::MAX / 2)
}

/// Always-on aggregates of the window driver. Every field is
/// deterministic: identical inputs give identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Bulk-synchronous windows executed.
    pub windows: u64,
    /// Sum of window widths (ns of simulated time per window); divide
    /// by [`Self::windows`] for the average width the lookahead model
    /// actually achieved after horizon / fault clipping.
    pub width_sum_ns: u64,
    /// Boundary events handed off across shards at barriers.
    pub handoff_events: u64,
}

impl ParallelStats {
    /// Average window width in ns (0 when no window ran).
    pub fn avg_width_ns(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.width_sum_ns as f64 / self.windows as f64
        }
    }
}

/// A `K`-shard fabric with the same host-facing surface as [`Fabric`]
/// (inject / run / deliveries / stats), bit-identical results, and
/// one calendar per shard, advanced window by window.
pub struct ShardedFabric {
    topo: AnyTopology,
    cfg: NetworkConfig,
    plan: Arc<ShardPlan>,
    lookahead: Time,
    /// The shared fault schedule; every shard replays it locally, and
    /// the driver mirrors it here to keep the lookahead honest.
    fault_plan: Arc<FaultPlan>,
    /// Index of the next plan event the *driver* has not yet applied
    /// to its mirror (shards keep their own lazy cursors).
    fault_cursor: usize,
    /// The driver's dead-link view, advanced at each window start.
    faults: FaultState,
    /// The per-shard fabrics, indexed by shard.
    fabs: Vec<Fabric>,
    /// Host-visible clock, mirroring the serial fabric's clamp rules.
    clock: Time,
    /// Host packet-id counter (control-packet ids are content-derived
    /// inside the shards, so this is the only id source).
    next_id: u64,
    events: u64,
    /// Deliveries merged into serial pop order, awaiting the host.
    deliveries: Vec<Delivery>,
    /// Boundary events awaiting acceptance, per destination shard.
    staged: Vec<Vec<StagedEvent>>,
    /// Host injections awaiting the next window start, per shard.
    inject_q: Vec<Vec<Packet>>,
    /// Per-shard next-event time reported at the last barrier.
    next_times: Vec<Option<Time>>,
    /// Scratch for per-shard delivery pickup.
    delivery_buf: Vec<Delivery>,
    /// Window aggregates (see [`Self::parallel_stats`]).
    pstats: ParallelStats,
}

impl ShardedFabric {
    /// Build a `shards`-way partitioned fabric.
    pub fn new(topo: AnyTopology, cfg: NetworkConfig, shards: u32) -> Self {
        Self::with_faults(topo, cfg, shards, FaultPlan::none())
    }

    /// Build with a fault schedule. Every shard replays the full plan
    /// at identical simulated times, so K-shard faulted runs stay
    /// bit-identical to serial.
    pub fn with_faults(
        topo: AnyTopology,
        cfg: NetworkConfig,
        shards: u32,
        faults: FaultPlan,
    ) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        let plan = Arc::new(ShardPlan::new(&topo, shards));
        let lookahead = shard_lookahead(&plan, &topo, &cfg);
        assert!(
            lookahead >= 1,
            "zero-latency cross-shard links leave no conservative window; \
             run serial instead"
        );
        let fault_plan = Arc::new(faults);
        let fault_state = FaultState::new(&topo);
        let fabs = (0..shards)
            .map(|s| {
                Fabric::new_sharded(
                    topo.clone(),
                    cfg,
                    Arc::clone(&plan),
                    s,
                    Arc::clone(&fault_plan),
                )
            })
            .collect();
        Self {
            topo,
            cfg,
            plan,
            lookahead,
            fault_plan,
            fault_cursor: 0,
            faults: fault_state,
            fabs,
            clock: 0,
            next_id: 1,
            events: 0,
            deliveries: Vec::new(),
            staged: (0..shards).map(|_| Vec::new()).collect(),
            inject_q: (0..shards).map(|_| Vec::new()).collect(),
            next_times: vec![None; shards as usize],
            delivery_buf: Vec::new(),
            pstats: ParallelStats::default(),
        }
    }

    /// The partition in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The conservative window width (min cross-shard link latency).
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// The topology the fabric runs over.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current simulated time (same clamp rules as [`Fabric::now`]).
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Always-on window aggregates (see [`ParallelStats`]).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.pstats
    }

    /// Allocate a unique host packet id (mirrors [`Fabric::alloc_id`];
    /// control packets derive their ids in-shard, so host injections
    /// are the only consumers and the sequence matches serial runs).
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Queue a packet for injection at its source NIC. Applied at the
    /// next window start; `packet.created` must not be in the past,
    /// which holds for host-driven injection because windows never run
    /// beyond the host's current event horizon.
    pub fn inject(&mut self, packet: Packet) {
        let s = self.plan.shard_of_node(packet.src);
        self.inject_q[s as usize].push(packet);
    }

    /// Earliest pending work across all shards: local calendar events,
    /// staged boundary events, and buffered injections.
    pub fn next_event_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        let mut fold = |t: Time| match next {
            Some(n) if n <= t => {}
            _ => next = Some(t),
        };
        for nt in &self.next_times {
            if let Some(t) = *nt {
                fold(t);
            }
        }
        for lane in &self.staged {
            for st in lane {
                fold(st.at);
            }
        }
        for lane in &self.inject_q {
            for p in lane {
                // An injection becomes a calendar event no earlier than
                // its creation time (Fabric clamps to its clock, which
                // can only be smaller here: windows end at host time).
                fold(p.created.max(self.clock));
            }
        }
        next
    }

    /// Process all events with time ≤ `until`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let before = self.events;
        while let Some(start) = self.next_event_time() {
            if start > until {
                break;
            }
            self.window(start, until);
        }
        self.clock = self.clock.max(until);
        self.events - before
    }

    /// Process events until either a delivery occurs or `until` is
    /// reached. Returns true when at least one delivery is pending.
    ///
    /// Unlike the serial fabric, which surfaces one delivery at a time,
    /// a window barrier can surface a *batch*; the batch is merged into
    /// the serial pop order, so a host that processes deliveries in
    /// order at their own timestamps observes the identical sequence.
    pub fn run_until_delivery(&mut self, until: Time) -> bool {
        while self.deliveries.is_empty() {
            let Some(start) = self.next_event_time() else {
                break;
            };
            if start > until {
                break;
            }
            self.window(start, until);
        }
        if self.deliveries.is_empty() {
            // No event ≤ `until` remains, so the serial clamp
            // `min(until, peek)` is exactly `until`.
            self.clock = self.clock.max(until);
        }
        !self.deliveries.is_empty()
    }

    /// Drain the network completely (or until `max_t`). Returns the
    /// time of the last event (serial semantics: no clamp to `max_t`).
    pub fn run_to_quiescence(&mut self, max_t: Time) -> Time {
        while let Some(start) = self.next_event_time() {
            if start > max_t {
                break;
            }
            self.window(start, max_t);
        }
        self.clock
    }

    /// Swap the accumulated deliveries into `out` (cleared first), in
    /// serial pop order.
    pub fn take_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(out, &mut self.deliveries);
    }

    /// Return a delivered packet's box to the pool of the shard that
    /// delivered it.
    pub fn recycle(&mut self, packet: Box<Packet>) {
        let s = self.plan.shard_of_node(packet.dst);
        self.fabs[s as usize].recycle(packet);
    }

    /// Calendar events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Cumulative counters, summed over shards (every [`FabricStats`]
    /// field is a plain event count, so the sum is exact).
    pub fn stats(&self) -> FabricStats {
        let mut total = FabricStats::default();
        for f in &self.fabs {
            let s = f.stats;
            total.offered_data += s.offered_data;
            total.accepted_data += s.accepted_data;
            total.acks_sent += s.acks_sent;
            total.acks_received += s.acks_received;
            total.notifications += s.notifications;
            total.dropped_data += s.dropped_data;
            total.dropped_ctrl += s.dropped_ctrl;
        }
        total
    }

    /// Average contention latency observed at router `r`, in µs.
    pub fn router_contention_us(&self, r: RouterId) -> f64 {
        self.owner(r).router_contention_us(r)
    }

    /// Samples folded into router `r`'s contention average.
    pub fn router_contention_count(&self, r: RouterId) -> u64 {
        self.owner(r).router_contention_count(r)
    }

    /// The contention time series of router `r`, if configured.
    pub fn router_series(&self, r: RouterId) -> Option<&TimeSeries> {
        self.owner(r).router_series(r)
    }

    /// (boxes handed out, boxes served from free lists), summed.
    pub fn pool_stats(&self) -> (u64, u64) {
        let mut a = 0;
        let mut r = 0;
        for f in &self.fabs {
            let (fa, fr) = f.pool_stats();
            a += fa;
            r += fr;
        }
        (a, r)
    }

    fn owner(&self, r: RouterId) -> &Fabric {
        &self.fabs[self.plan.shard_of_router(r) as usize]
    }

    /// One bulk-synchronous window starting at `start`, clipped to the
    /// host horizon `until`.
    fn window(&mut self, start: Time, until: Time) {
        // Advance the driver's fault mirror to the window start. Any
        // fault event taking effect here changes the live cut, so the
        // lookahead is recomputed; shards apply the same events lazily
        // inside run_window, before their first event at t >= at.
        let mut cut_changed = false;
        while self.fault_cursor < self.fault_plan.events().len() {
            let tf = self.fault_plan.events()[self.fault_cursor];
            if tf.at > start {
                break;
            }
            self.fault_cursor += 1;
            self.faults.apply(&self.topo, &tf.fault);
            cut_changed = true;
        }
        if cut_changed {
            self.lookahead = shard_lookahead_live(&self.plan, &self.topo, &self.cfg, &self.faults);
            assert!(self.lookahead >= 1, "live cut lookahead collapsed");
        }
        let mut wend = start.saturating_add(self.lookahead - 1).min(until);
        // Never cross a pending fault time with the current lookahead:
        // the event re-shapes the live cut (a recovering link could
        // shrink the bound) from that instant on.
        if self.fault_cursor < self.fault_plan.events().len() {
            let at = self.fault_plan.events()[self.fault_cursor].at;
            wend = wend.min(at - 1); // at > start, so wend >= start
        }
        let merge_from = self.deliveries.len();
        for (s, fab) in self.fabs.iter_mut().enumerate() {
            for st in self.staged[s].drain(..) {
                fab.accept_staged(st);
            }
            for p in self.inject_q[s].drain(..) {
                fab.inject(p);
            }
            self.events += fab.run_window(wend);
        }
        // Second pass, only after every shard ran: a boundary event
        // produced *in* this window is never accepted in the same window.
        for (s, fab) in self.fabs.iter_mut().enumerate() {
            let moved = fab.take_outbox(&mut self.staged);
            self.pstats.handoff_events += moved;
            probe_value!(ShardHandoffBatch, s, moved);
            fab.take_deliveries(&mut self.delivery_buf);
            self.deliveries.append(&mut self.delivery_buf);
            self.clock = self.clock.max(fab.event_clock());
            self.next_times[s] = fab.next_event_time();
        }
        self.pstats.windows += 1;
        self.pstats.width_sum_ns += wend - start + 1;
        probe_value!(ShardWindowWidth, 0u64, wend - start + 1);
        // Every staged event lands after the window it was produced in.
        debug_assert!(
            self.staged.iter().flatten().all(|st| st.at > wend),
            "staged event landed inside its own window"
        );
        // Merge this window's deliveries into the serial pop order.
        self.deliveries[merge_from..].sort_by_key(delivery_order_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NotifyMode;
    use crate::packet::Packet;
    use prdrb_topology::{
        Endpoint, FaultEvent, Mesh2D, NodeId, PathDescriptor, Port, RouteState, TimedFault,
        Topology,
    };

    fn cfg() -> NetworkConfig {
        let mut cfg = NetworkConfig {
            acks_enabled: true,
            ..NetworkConfig::default()
        };
        cfg.monitor.mode = NotifyMode::Destination;
        cfg
    }

    /// Brute-force the min cross-shard latency by walking every port of
    /// every router, independently of `ShardPlan::cross_links`.
    fn brute_lookahead(plan: &ShardPlan, topo: &AnyTopology, cfg: &NetworkConfig) -> Time {
        let mut min = Time::MAX / 2;
        for r in 0..topo.num_routers() as u32 {
            let rid = RouterId(r);
            for p in 0..topo.num_ports(rid) as u8 {
                if let Some(Endpoint::Router(nr, _)) = topo.neighbor(rid, Port(p)) {
                    if plan.shard_of_router(rid) != plan.shard_of_router(nr) {
                        // Credit crosses at +wire, Arrive at +wire+ser;
                        // the wire is per latency class.
                        min = min.min(cfg.link_delay_ns(topo.link_class(rid, Port(p))));
                    }
                }
            }
        }
        min
    }

    #[test]
    fn lookahead_matches_true_min_cut_latency() {
        let cfg = NetworkConfig {
            wire_class_extra_ns: [0, 160, 5],
            ..NetworkConfig::default()
        };
        for topo in [
            AnyTopology::mesh8x8(),
            AnyTopology::fat_tree_64(),
            AnyTopology::Mesh(Mesh2D::with_boards(4, 12, 4)),
        ] {
            for k in [1u32, 2, 3, 4] {
                let plan = ShardPlan::new(&topo, k);
                assert_eq!(
                    shard_lookahead(&plan, &topo, &cfg),
                    brute_lookahead(&plan, &topo, &cfg),
                    "{} k={k}",
                    topo.label()
                );
            }
        }
        // Sanity: with a plain-mesh cut present the lookahead is the
        // base wire delay (all cut links are local-class).
        let plan = ShardPlan::new(&AnyTopology::mesh8x8(), 2);
        assert_eq!(
            shard_lookahead(&plan, &AnyTopology::mesh8x8(), &cfg),
            cfg.wire_delay_ns
        );
    }

    /// The headline mechanism of the wide-window model: a partition
    /// whose cut crosses only global-class wires gets the *full*
    /// inter-board delay as lookahead, not the base wire delay.
    #[test]
    fn board_cuts_widen_the_lookahead_by_the_global_extra() {
        let cfg = NetworkConfig {
            wire_class_extra_ns: [0, 300, 0],
            ..NetworkConfig::default()
        };
        let topo = AnyTopology::Mesh(Mesh2D::with_boards(4, 12, 4));
        for k in [2u32, 3] {
            let plan = ShardPlan::new(&topo, k);
            assert!(
                plan.cross_links(&topo)
                    .iter()
                    .all(|&(r, p, _)| topo.link_class(r, p) == prdrb_topology::LINK_CLASS_GLOBAL),
                "k={k}: boundary snapping must put the whole cut on board seams"
            );
            assert_eq!(
                shard_lookahead(&plan, &topo, &cfg),
                cfg.wire_delay_ns + 300,
                "k={k}"
            );
        }
        // Fat-tree pods cut only root (spine) links, so the same
        // widening applies without any boundary snapping.
        let ft = AnyTopology::fat_tree_64();
        let plan = ShardPlan::new(&ft, 4);
        assert_eq!(shard_lookahead(&plan, &ft, &cfg), cfg.wire_delay_ns + 300);
    }

    /// Deterministic little traffic pattern: every node sends a few
    /// packets to a rotating set of destinations at staggered times.
    fn traffic(topo: &AnyTopology, next_id: &mut u64) -> Vec<Packet> {
        let n = topo.num_terminals() as u32;
        let mut out = Vec::new();
        for src in 0..n {
            for j in 0..3u32 {
                let dst = (src + 7 * j + 1) % n;
                if dst == src {
                    continue;
                }
                let id = *next_id;
                *next_id += 1;
                let created = 100 * (src as u64) + 1_000 * (j as u64);
                out.push(Packet::data(
                    id,
                    NodeId(src),
                    NodeId(dst),
                    256,
                    created,
                    RouteState::new(PathDescriptor::Minimal),
                    0,
                    id,
                    0,
                    true,
                    true,
                ));
            }
        }
        out
    }

    fn run_serial(
        topo: &AnyTopology,
        cfg: NetworkConfig,
        faults: FaultPlan,
    ) -> (Vec<(Time, u64, NodeId)>, FabricStats, Time, u64) {
        let mut fab = Fabric::with_faults(topo.clone(), cfg, faults);
        let mut next_id = 1;
        for p in traffic(topo, &mut next_id) {
            fab.inject(p);
        }
        let end = fab.run_to_quiescence(10_000_000);
        let mut buf = Vec::new();
        fab.take_deliveries(&mut buf);
        let got = buf
            .iter()
            .map(|d| (d.at, d.packet.id, d.packet.dst))
            .collect();
        (got, fab.stats, end, fab.events_processed())
    }

    fn run_sharded(
        topo: &AnyTopology,
        k: u32,
        faults: FaultPlan,
    ) -> (Vec<(Time, u64, NodeId)>, FabricStats, Time, u64) {
        run_sharded_cfg(topo, cfg(), k, faults).0
    }

    #[allow(clippy::type_complexity)]
    fn run_sharded_cfg(
        topo: &AnyTopology,
        cfg: NetworkConfig,
        k: u32,
        faults: FaultPlan,
    ) -> (
        (Vec<(Time, u64, NodeId)>, FabricStats, Time, u64),
        ParallelStats,
    ) {
        let mut fab = ShardedFabric::with_faults(topo.clone(), cfg, k, faults);
        let mut next_id = 1;
        for p in traffic(topo, &mut next_id) {
            fab.inject(p);
        }
        let end = fab.run_to_quiescence(10_000_000);
        let mut buf = Vec::new();
        fab.take_deliveries(&mut buf);
        let got = buf
            .iter()
            .map(|d| (d.at, d.packet.id, d.packet.dst))
            .collect();
        let pstats = fab.parallel_stats();
        ((got, fab.stats(), end, fab.events_processed()), pstats)
    }

    fn assert_same(
        (sd, ss, se, sn): (Vec<(Time, u64, NodeId)>, FabricStats, Time, u64),
        (pd, ps, pe, pn): (Vec<(Time, u64, NodeId)>, FabricStats, Time, u64),
        tag: &str,
    ) {
        assert_eq!(sd, pd, "{tag}: delivery sequences differ");
        assert_eq!(se, pe, "{tag}: end times differ");
        assert_eq!(sn, pn, "{tag}: event counts differ");
        assert_eq!(ss.offered_data, ps.offered_data, "{tag}");
        assert_eq!(ss.accepted_data, ps.accepted_data, "{tag}");
        assert_eq!(ss.acks_sent, ps.acks_sent, "{tag}");
        assert_eq!(ss.acks_received, ps.acks_received, "{tag}");
        assert_eq!(ss.notifications, ps.notifications, "{tag}");
        assert_eq!(ss.dropped_data, ps.dropped_data, "{tag}");
        assert_eq!(ss.dropped_ctrl, ps.dropped_ctrl, "{tag}");
    }

    #[test]
    fn sharded_sequential_matches_serial() {
        for topo in [AnyTopology::mesh8x8(), AnyTopology::fat_tree_64()] {
            let serial = run_serial(&topo, cfg(), FaultPlan::none());
            for k in [1u32, 2, 3, 4, 8] {
                let par = run_sharded(&topo, k, FaultPlan::none());
                assert_same(
                    (serial.0.clone(), serial.1, serial.2, serial.3),
                    par,
                    &format!("{} k={k}", topo.label()),
                );
            }
        }
    }

    /// Wide windows stay deterministic: nonzero per-class extras change
    /// the schedule (longer global wires), but the sharded run must
    /// still match serial event-for-event, and the window aggregates
    /// must show the wide cut at work.
    #[test]
    fn wide_windows_match_serial() {
        let mut c = cfg();
        c.wire_class_extra_ns = [0, 240, 0];
        let topo = AnyTopology::Mesh(Mesh2D::with_boards(4, 12, 4));
        let serial = run_serial(&topo, c, FaultPlan::none());
        let (par, stats) = run_sharded_cfg(&topo, c, 3, FaultPlan::none());
        assert_same(serial, par, "board mesh k=3");
        assert!(stats.windows > 0);
        assert!(
            stats.handoff_events > 0,
            "the cut must actually carry events"
        );
        // The whole cut is on board seams, so the achieved average
        // width must exceed the base wire delay by a wide margin.
        assert!(stats.avg_width_ns() > c.wire_delay_ns as f64);
    }

    /// A plan exercising every fault class mid-traffic: seeded link
    /// failures (some recover), plus an explicit router death. The
    /// seeded wires routinely land on the shard cut, which is the
    /// interesting case for the window driver's live lookahead.
    fn faulty_plan(topo: &AnyTopology) -> FaultPlan {
        let mut ev = FaultPlan::seeded(topo, 11, 6, 1_000, 12_000)
            .events()
            .to_vec();
        ev.push(TimedFault {
            at: 5_000,
            fault: FaultEvent::RouterDown {
                router: RouterId(9),
            },
        });
        FaultPlan::new(ev)
    }

    #[test]
    fn faulted_sharded_matches_serial() {
        for topo in [AnyTopology::mesh8x8(), AnyTopology::fat_tree_64()] {
            let plan = faulty_plan(&topo);
            let serial = run_serial(&topo, cfg(), plan.clone());
            assert!(
                serial.1.dropped_data > 0,
                "{}: the fault plan must actually bite",
                topo.label()
            );
            assert_eq!(
                serial.1.offered_data,
                serial.1.accepted_data + serial.1.dropped_data,
                "{}: drop accounting must balance",
                topo.label()
            );
            for k in [1u32, 2, 4] {
                let par = run_sharded(&topo, k, plan.clone());
                assert_same(
                    (serial.0.clone(), serial.1, serial.2, serial.3),
                    par,
                    &format!("faulted {} k={k}", topo.label()),
                );
            }
        }
    }

    #[test]
    fn contention_queries_match_serial() {
        let topo = AnyTopology::fat_tree_64();
        let mut serial = Fabric::new(topo.clone(), cfg());
        let mut sharded = ShardedFabric::new(topo.clone(), cfg(), 4);
        let mut next_id = 1;
        for p in traffic(&topo, &mut next_id) {
            serial.inject(p);
        }
        let mut next_id = 1;
        for p in traffic(&topo, &mut next_id) {
            sharded.inject(p);
        }
        serial.run_to_quiescence(10_000_000);
        sharded.run_to_quiescence(10_000_000);
        for r in 0..topo.num_routers() as u32 {
            let rid = RouterId(r);
            assert_eq!(
                serial.router_contention_us(rid).to_bits(),
                sharded.router_contention_us(rid).to_bits(),
                "router {r} contention mean"
            );
            assert_eq!(
                serial.router_contention_count(rid),
                sharded.router_contention_count(rid),
                "router {r} contention count"
            );
        }
    }

    #[test]
    fn run_until_delivery_batches_in_serial_order() {
        let topo = AnyTopology::mesh8x8();
        let mut serial = Fabric::new(topo.clone(), cfg());
        let mut sharded = ShardedFabric::new(topo.clone(), cfg(), 2);
        let mut next_id = 1;
        for p in traffic(&topo, &mut next_id) {
            serial.inject(p);
        }
        let mut next_id = 1;
        for p in traffic(&topo, &mut next_id) {
            sharded.inject(p);
        }
        // Pull deliveries incrementally from both and compare streams.
        let horizon = 10_000_000;
        let mut serial_seq = Vec::new();
        let mut buf = Vec::new();
        while serial.run_until_delivery(horizon) {
            serial.take_deliveries(&mut buf);
            for d in &buf {
                serial_seq.push((d.at, d.packet.id));
            }
        }
        let mut shard_seq = Vec::new();
        while sharded.run_until_delivery(horizon) {
            sharded.take_deliveries(&mut buf);
            for d in &buf {
                shard_seq.push((d.at, d.packet.id));
            }
        }
        assert_eq!(serial_seq, shard_seq);
        assert_eq!(serial.now(), sharded.now());
    }

    /// Every window aggregate is deterministic: two identical runs
    /// report equal stats, whole struct.
    #[test]
    fn parallel_stats_are_deterministic() {
        let topo = AnyTopology::mesh8x8();
        let run = || run_sharded_cfg(&topo, cfg(), 4, FaultPlan::none()).1;
        let stats = run();
        assert_eq!(stats, run());
        assert!(stats.windows > 0 && stats.handoff_events > 0);
    }
}
