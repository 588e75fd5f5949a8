//! The simulation runner: co-simulates the network fabric with the
//! traffic sources / trace player and the source routing policy.
//!
//! Two event streams are merged by time: the fabric's internal calendar
//! and the host-side events (synthetic injections, compute wakeups,
//! policy watchdog ticks). The fabric runs ahead only until its next
//! delivery so ACKs reach the policy, and received messages unblock the
//! player, at their true timestamps.

use crate::config::{SimConfig, Workload};
use crate::player::{Player, SendOp};
use crate::report::RunReport;
use prdrb_core::{make_policy, RoutingPolicy};
use prdrb_metrics::{LatencyMap, LatencyQuantiles};
use prdrb_network::{
    Delivery, Fabric, FabricStats, NetworkConfig, Packet, PacketKind, ShardedFabric,
};
use prdrb_simcore::rng::Splitmix64;
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::{interarrival_ns, ns_to_us, Time};
use prdrb_simcore::{EventQueue, SimRng};
use prdrb_topology::{AnyTopology, FaultState, NodeId, RouteState, RouterId, Topology};
use prdrb_traffic::{exp_gap_ns, TrafficPattern};
use std::collections::HashMap;

/// Host-side event kinds, ordered (time, kind, id) for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ext {
    /// Synthetic stream `id` injects.
    Stream(u32),
    /// Player rank `id` wakes from computation.
    Wake(u32),
}

/// Calendar key reproducing the old `(Time, Ext)` binary-heap order:
/// streams before wakes at the same instant, each by ascending id.
fn ext_key(e: Ext) -> u64 {
    match e {
        Ext::Stream(id) => id as u64,
        Ext::Wake(id) => 1 << 32 | id as u64,
    }
}

/// The fabric execution backends behind one dispatch surface: the
/// serial calendar and the K-shard conservative-window driver
/// (bit-identical by construction — see `prdrb_network::shard`).
// The serial `Fabric` stays inline rather than boxed: it is the
// dominant configuration and sits on the simulation's hottest
// dispatch path, so the variant-size skew is a deliberate trade.
#[allow(clippy::large_enum_variant)]
enum NetFabric {
    Serial(Fabric),
    Sharded(ShardedFabric),
}

macro_rules! fab {
    ($self:ident, $f:ident => $body:expr) => {
        match $self {
            NetFabric::Serial($f) => $body,
            NetFabric::Sharded($f) => $body,
        }
    };
}

impl NetFabric {
    fn config(&self) -> &NetworkConfig {
        fab!(self, f => f.config())
    }
    fn now(&self) -> Time {
        fab!(self, f => f.now())
    }
    fn alloc_id(&mut self) -> u64 {
        fab!(self, f => f.alloc_id())
    }
    fn inject(&mut self, p: Packet) {
        fab!(self, f => f.inject(p))
    }
    fn next_event_time(&mut self) -> Option<Time> {
        fab!(self, f => f.next_event_time())
    }
    fn run_until_delivery(&mut self, until: Time) -> bool {
        fab!(self, f => f.run_until_delivery(until))
    }
    fn run_to_quiescence(&mut self, max_t: Time) -> Time {
        fab!(self, f => f.run_to_quiescence(max_t))
    }
    fn take_deliveries(&mut self, out: &mut Vec<Delivery>) {
        fab!(self, f => f.take_deliveries(out))
    }
    fn recycle(&mut self, p: Box<Packet>) {
        fab!(self, f => f.recycle(p))
    }
    fn stats(&self) -> FabricStats {
        match self {
            NetFabric::Serial(f) => f.stats,
            NetFabric::Sharded(f) => f.stats(),
        }
    }
    fn router_contention_us(&self, r: RouterId) -> f64 {
        fab!(self, f => f.router_contention_us(r))
    }
    fn router_series(&self, r: RouterId) -> Option<&TimeSeries> {
        fab!(self, f => f.router_series(r))
    }
}

#[derive(Debug)]
enum StreamKind {
    /// Follows the configured burst schedule + pattern.
    Scheduled,
    /// Fixed destination at a fixed rate (hot-spot flows).
    Fixed { dst: NodeId, mbps: f64 },
    /// Uniform noise at a fixed rate.
    Noise { mbps: f64 },
    /// Follows the phase program in force (mini-app loop); sleeps
    /// through quiet phases and dies when the program completes.
    Phase,
    /// Open-loop Poisson arrivals with heavy-tailed sizes, drawn from
    /// the stream's own seed-derived sampler.
    Open { rng: Splitmix64 },
}

#[derive(Debug)]
struct Stream {
    node: NodeId,
    kind: StreamKind,
    msg_bytes: u32,
}

/// One simulation run in progress.
pub struct Simulation {
    cfg: SimConfig,
    topo: AnyTopology,
    fabric: NetFabric,
    policy: Box<dyn RoutingPolicy>,
    rng: SimRng,
    streams: Vec<Stream>,
    ext: EventQueue<Ext>,
    player: Option<Player>,
    /// Outstanding message metadata: id → (tag).
    msg_tags: HashMap<u64, u32>,
    next_msg: u64,
    messages: u64,
    dest_means: Vec<RunningMean>,
    series: TimeSeries,
    quantiles: LatencyQuantiles,
    next_tick: Option<Time>,
    /// Host-side fault mirror: the same plan the fabric replays, applied
    /// at the same simulated times, so the policy's `on_fault` hook
    /// fires identically under every execution backend.
    faults: FaultState,
    fault_cursor: usize,
    /// Reusable buffers: deliveries swapped out of the fabric per tick
    /// and the send list filled by the trace player per wakeup.
    delivery_buf: Vec<Delivery>,
    send_buf: Vec<SendOp>,
    /// Phase-attribution cursor (`Workload::Phased` only): the global
    /// phase in force and the policy's reuse/expansion counters when it
    /// began, so per-phase deltas can feed the phase probes.
    phase_cursor: Option<(u32, u64, u64)>,
}

/// Trace replay (collective runs included) runs on the serial player
/// (zero host lookahead leaves no conservative window), so a
/// `shards > 1` request cannot take effect on it. Say so explicitly —
/// once per process, on stderr — instead of silently running serial;
/// the `repro` CLI test pins the wording.
fn notice_serial_fallback(cfg: &SimConfig) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let why = match cfg.workload {
            Workload::Trace(_) => "trace replay",
            _ => "zero-latency links",
        };
        eprintln!(
            "note: {why} lower onto the serial player; --shards {} falls back to serial for \
             those runs",
            cfg.shards
        );
    });
}

impl Simulation {
    /// Build a simulation from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let topo = cfg.topology.build();
        let mut net = cfg.net;
        let mut policy = make_policy(cfg.policy, &topo, cfg.drb);
        if !cfg.preload_profile.is_empty() {
            policy.preload_profile(&topo, &cfg.preload_profile);
        }
        net.acks_enabled = policy.needs_acks();
        net.monitor.mode = policy.notify_mode();
        // Trace replay (collective runs included) feeds deliveries
        // straight back into sends (zero host lookahead), and
        // zero-latency links leave no conservative window — both run
        // serial regardless of the shard knob.
        let sharded =
            cfg.shards > 1 && !matches!(cfg.workload, Workload::Trace(_)) && net.wire_delay_ns > 0;
        if cfg.shards > 1 && !sharded {
            notice_serial_fallback(&cfg);
        }
        let fabric = if sharded {
            let mut fab =
                ShardedFabric::with_faults(topo.clone(), net, cfg.shards, cfg.faults.clone());
            if cfg.speculate {
                fab.set_speculation(prdrb_network::SpecConfig::default());
            }
            NetFabric::Sharded(fab)
        } else {
            NetFabric::Serial(Fabric::with_faults(topo.clone(), net, cfg.faults.clone()))
        };
        let rng = SimRng::new(cfg.seed);
        let mut sim = Self {
            streams: Vec::new(),
            ext: EventQueue::new(),
            player: None,
            msg_tags: HashMap::new(),
            next_msg: 1,
            messages: 0,
            dest_means: vec![RunningMean::new(); topo.num_terminals()],
            series: TimeSeries::new(cfg.series_bucket_ns),
            quantiles: LatencyQuantiles::new(),
            next_tick: policy.tick_interval(),
            faults: FaultState::new(&topo),
            fault_cursor: 0,
            delivery_buf: Vec::new(),
            send_buf: Vec::new(),
            phase_cursor: None,
            topo,
            fabric,
            policy,
            rng,
            cfg,
        };
        sim.setup_workload();
        sim
    }

    fn setup_workload(&mut self) {
        match &self.cfg.workload {
            Workload::Synthetic {
                active_nodes,
                msg_bytes,
                ..
            } => {
                let n = (*active_nodes).min(self.topo.num_terminals());
                for i in 0..n {
                    self.streams.push(Stream {
                        node: NodeId(i as u32),
                        kind: StreamKind::Scheduled,
                        msg_bytes: *msg_bytes,
                    });
                }
            }
            Workload::Flows {
                flows,
                mbps,
                noise_nodes,
                noise_mbps,
                msg_bytes,
            } => {
                for &(src, dst) in flows {
                    self.streams.push(Stream {
                        node: src,
                        kind: StreamKind::Fixed { dst, mbps: *mbps },
                        msg_bytes: *msg_bytes,
                    });
                }
                if *noise_mbps > 0.0 {
                    for &node in noise_nodes {
                        self.streams.push(Stream {
                            node,
                            kind: StreamKind::Noise { mbps: *noise_mbps },
                            msg_bytes: *msg_bytes,
                        });
                    }
                }
            }
            Workload::Trace(trace) => {
                assert!(
                    trace.num_ranks() <= self.topo.num_terminals(),
                    "trace has more ranks than the topology has terminals"
                );
                self.player = Some(Player::new(trace.clone()));
            }
            Workload::Phased {
                active_nodes,
                msg_bytes,
                ..
            } => {
                let n = (*active_nodes).min(self.topo.num_terminals());
                for i in 0..n {
                    self.streams.push(Stream {
                        node: NodeId(i as u32),
                        kind: StreamKind::Phase,
                        msg_bytes: *msg_bytes,
                    });
                }
            }
            Workload::OpenLoop { spec, active_nodes } => {
                let n = (*active_nodes).min(self.topo.num_terminals());
                for i in 0..n {
                    self.streams.push(Stream {
                        node: NodeId(i as u32),
                        kind: StreamKind::Open {
                            rng: spec.stream(self.cfg.seed, i as u32),
                        },
                        // The per-flow size is drawn at fire time; this
                        // field is unused for open-loop streams.
                        msg_bytes: 0,
                    });
                }
            }
        }
        // Seed external events: streams start with a small deterministic
        // stagger; all player ranks start at t = 0.
        for (i, _) in self.streams.iter().enumerate() {
            let jitter = (i as Time * 131) % 997;
            let e = Ext::Stream(i as u32);
            self.ext.schedule_keyed(jitter, ext_key(e), e);
        }
        if let Some(p) = &self.player {
            for r in 0..p.num_ranks() as u32 {
                let e = Ext::Wake(r);
                self.ext.schedule_keyed(0, ext_key(e), e);
            }
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> RunReport {
        let max = self.cfg.max_ns;
        let mut truncated = false;
        loop {
            let t_ext = self.ext.peek_time();
            let t_fabric = self.fabric.next_event_time();
            let target = match (t_ext, t_fabric) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if target > max {
                truncated = self.player.as_ref().map(|p| !p.all_done()).unwrap_or(false);
                break;
            }
            // Let the fabric catch up, stopping at any delivery so the
            // host reacts at the true timestamp. The serial fabric
            // surfaces one delivery at a time; the sharded fabric a
            // whole window's batch in serial pop order — processing
            // each at its own timestamp keeps the policy-call sequence
            // identical either way.
            //
            // The horizon handed to the fabric is the next *external*
            // event, not `target`: the fabric never consults host state
            // mid-run, and deliveries stop the advance on their own, so
            // clamping at the fabric's own next event (as `target`
            // does) would hand the windowed backends one zero-width
            // window per timestamp and starve speculation of any
            // horizon to speculate into. The whole host-quiet gap is
            // safe fabric time. When the external queue is empty (the
            // drain phase) the fabric-event target is kept so an idle
            // clamp cannot inflate the fabric clock — and with it the
            // reported `end_ns` — past the last real event.
            let horizon = match t_ext {
                Some(t) => t.min(max),
                None => target,
            };
            if self.fabric.run_until_delivery(horizon) {
                self.pump_deliveries_at_time();
                continue;
            }
            // No deliveries before `target`: fire the host events there.
            self.tick_policy(target);
            while let Some(entry) = self.ext.pop_before(target) {
                match entry.event {
                    Ext::Stream(i) => self.fire_stream(i as usize, entry.time),
                    Ext::Wake(r) => self.advance_rank(r, entry.time),
                }
            }
        }
        self.finish(truncated)
    }

    /// Apply every fault-plan event with `at <= now` to the host mirror
    /// and notify the policy at the event's own timestamp. Called from
    /// [`Self::tick_policy`], i.e. before host events fire at `now` and
    /// before each delivery is handed to the policy — the same points
    /// under the serial and sharded backends, so the `on_fault` call
    /// sequence is backend-independent.
    fn apply_faults_through(&mut self, now: Time) {
        while self.fault_cursor < self.cfg.faults.events().len() {
            let tf = self.cfg.faults.events()[self.fault_cursor];
            if tf.at > now {
                break;
            }
            self.fault_cursor += 1;
            self.faults.apply(&self.topo, &tf.fault);
            self.policy.on_fault(&self.faults, tf.at);
        }
    }

    fn tick_policy(&mut self, now: Time) {
        self.apply_faults_through(now);
        let Some(iv) = self.policy.tick_interval() else {
            return;
        };
        while let Some(t) = self.next_tick {
            if t > now {
                break;
            }
            self.policy.tick(t);
            self.next_tick = Some(t + iv);
        }
    }

    fn fire_stream(&mut self, i: usize, now: Time) {
        if now >= self.cfg.duration_ns {
            return; // injection window over; stream dies
        }
        match self.streams[i].kind {
            StreamKind::Phase => return self.fire_phase_stream(i, now),
            StreamKind::Open { .. } => return self.fire_open_stream(i, now),
            _ => {}
        }
        let (dst, mbps, bytes) = {
            let s = &self.streams[i];
            let n = self.topo.num_terminals();
            match &s.kind {
                StreamKind::Scheduled => {
                    let Workload::Synthetic { schedule, .. } = &self.cfg.workload else {
                        unreachable!()
                    };
                    let (mbps, pattern) = schedule.at(now);
                    let dst = pattern.dest(s.node, n, &mut self.rng);
                    (dst, mbps, s.msg_bytes)
                }
                StreamKind::Fixed { dst, mbps } => (*dst, *mbps, s.msg_bytes),
                StreamKind::Noise { mbps } => {
                    let dst = TrafficPattern::Uniform.dest(s.node, n, &mut self.rng);
                    (dst, *mbps, s.msg_bytes)
                }
                StreamKind::Phase | StreamKind::Open { .. } => {
                    unreachable!("dispatched to their own fire paths above")
                }
            }
        };
        let src = self.streams[i].node;
        if dst != src {
            self.inject_message(src, dst, bytes, 0, now);
        }
        if mbps > 0.0 {
            // Poisson arrivals: the mean gap matches the configured rate
            // but individual gaps are exponential, so realistic queueing
            // appears below link saturation too (deterministic spacing
            // would make a D/D/1 queue that never builds up).
            let mean = interarrival_ns(bytes as u64, mbps) as f64;
            let gap = (-self.rng.unit().max(1e-12).ln() * mean).max(1.0) as Time;
            let e = Ext::Stream(i as u32);
            self.ext.schedule_keyed(now + gap, ext_key(e), e);
        }
    }

    /// One firing of a mini-app phase stream: inject per the phase in
    /// force, sleep through quiet (compute) phases, die at program end.
    fn fire_phase_stream(&mut self, i: usize, now: Time) {
        let (g, dst, mbps, quiet_wake, src, bytes) = {
            let src = self.streams[i].node;
            let bytes = self.streams[i].msg_bytes;
            let Workload::Phased { program, .. } = &self.cfg.workload else {
                unreachable!()
            };
            match program.at(now) {
                None => return, // program complete; the stream dies
                Some((g, p)) if p.mbps <= 0.0 => {
                    // Quiet phase: wake exactly at the next boundary.
                    let wake = program.phase_start_ns(g + 1).unwrap_or(program.total_ns());
                    (g, src, 0.0, Some(wake), src, bytes)
                }
                Some((g, p)) => {
                    let dst = p
                        .pattern
                        .dest(src, self.topo.num_terminals(), &mut self.rng);
                    (g, dst, p.mbps, None, src, bytes)
                }
            }
        };
        self.note_phase(g);
        let e = Ext::Stream(i as u32);
        if let Some(wake) = quiet_wake {
            self.ext.schedule_keyed(wake, ext_key(e), e);
            return;
        }
        if dst != src {
            self.inject_message(src, dst, bytes, 0, now);
        }
        let mean = interarrival_ns(bytes as u64, mbps) as f64;
        let gap = (-self.rng.unit().max(1e-12).ln() * mean).max(1.0) as Time;
        self.ext.schedule_keyed(now + gap, ext_key(e), e);
    }

    /// One firing of an open-loop stream: the flow size and the next
    /// inter-arrival gap come from the stream's own sampler substream
    /// (pure function of the config seed); only the spatial aim shares
    /// the run's global generator, like every other stream kind.
    fn fire_open_stream(&mut self, i: usize, now: Time) {
        let n = self.topo.num_terminals();
        let src = self.streams[i].node;
        let (dst, bytes, gap) = {
            let Workload::OpenLoop { spec, .. } = &self.cfg.workload else {
                unreachable!()
            };
            let StreamKind::Open { rng } = &mut self.streams[i].kind else {
                unreachable!()
            };
            let bytes = spec.sizes().sample(rng) as u32;
            let gap = exp_gap_ns(rng, spec.mean_gap_ns);
            let dst = spec.pattern.dest(src, n, &mut self.rng);
            (dst, bytes, gap)
        };
        if dst != src {
            self.inject_message(src, dst, bytes.max(1), 0, now);
        }
        let e = Ext::Stream(i as u32);
        self.ext.schedule_keyed(now + gap, ext_key(e), e);
    }

    /// Record that global phase `g` is in force. On a boundary crossing
    /// the previous phase's policy-counter deltas flush to the phase
    /// probes (observational only — compiled out without `probes`).
    fn note_phase(&mut self, g: u32) {
        match self.phase_cursor {
            Some((cur, _, _)) if cur == g => {}
            _ => {
                self.flush_phase_probes();
                let st = self.policy.stats();
                self.phase_cursor = Some((g, st.reuse_applications, st.expansions));
            }
        }
    }

    /// Attribute the reuse/expansion counters accumulated since the
    /// current phase began to its global index.
    fn flush_phase_probes(&mut self) {
        if let Some((cur, hits0, exp0)) = self.phase_cursor.take() {
            let st = self.policy.stats();
            let hit_delta = st.reuse_applications.saturating_sub(hits0);
            let exp_delta = st.expansions.saturating_sub(exp0);
            prdrb_simcore::probe_value!(PhaseSolutionHit, cur, hit_delta);
            prdrb_simcore::probe_value!(PhaseExpansion, cur, exp_delta);
            let _ = (cur, hit_delta, exp_delta);
        }
    }

    /// Drain every pending delivery into the policy / player, then hand
    /// the packet boxes back to the fabric's pool.
    fn pump_deliveries(&mut self) {
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.fabric.take_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            self.handle_delivery(d);
        }
        self.delivery_buf = deliveries;
    }

    /// Like [`Self::pump_deliveries`], but advances the policy watchdog
    /// to each delivery's timestamp first, so a batched (sharded)
    /// delivery stream produces the exact tick/on_ack interleaving the
    /// serial one does.
    fn pump_deliveries_at_time(&mut self) {
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.fabric.take_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            self.tick_policy(d.at);
            self.handle_delivery(d);
        }
        self.delivery_buf = deliveries;
    }

    fn advance_rank(&mut self, rank: u32, now: Time) {
        let mut sends = std::mem::take(&mut self.send_buf);
        sends.clear();
        let wake = match self.player.as_mut() {
            Some(p) => p.advance(rank, now, &mut sends),
            None => {
                self.send_buf = sends;
                return;
            }
        };
        for s in sends.drain(..) {
            self.inject_message(NodeId(s.src), NodeId(s.dst), s.bytes.max(1), s.tag, now);
        }
        self.send_buf = sends;
        if let Some(t) = wake {
            let e = Ext::Wake(rank);
            self.ext.schedule_keyed(t, ext_key(e), e);
        }
    }

    /// Fragment and inject one message (Fig 3.16's `F` bit marks the
    /// final fragment; only it requests an ACK so path feedback is
    /// per-message).
    fn inject_message(&mut self, src: NodeId, dst: NodeId, bytes: u32, tag: u32, now: Time) {
        let (desc, msp) = self.policy.choose(src, dst, now, &mut self.rng);
        let msg_id = self.next_msg;
        self.next_msg += 1;
        self.messages += 1;
        if self.player.is_some() {
            self.msg_tags.insert(msg_id, tag);
        }
        let pkt_bytes = self.fabric.config().packet_bytes;
        let frags = bytes.div_ceil(pkt_bytes).max(1);
        let needs_ack = self.policy.needs_acks();
        for f in 0..frags {
            let final_frag = f + 1 == frags;
            let size = if final_frag {
                bytes - f * pkt_bytes
            } else {
                pkt_bytes
            };
            let id = self.fabric.alloc_id();
            self.fabric.inject(Packet::data(
                id,
                src,
                dst,
                size.max(1),
                now,
                RouteState::new(desc),
                msp,
                msg_id,
                f,
                final_frag,
                needs_ack && final_frag,
            ));
        }
    }

    fn handle_delivery(&mut self, d: Delivery) {
        let at = d.at;
        let pkt = d.packet;
        match pkt.kind {
            PacketKind::Ack { .. } => {
                self.policy.on_ack(&pkt, at);
            }
            PacketKind::Data {
                msg_id, final_frag, ..
            } => {
                // Eq 4.1 per-destination incremental mean + the global
                // latency curve. §4.2 measures "since a packet is
                // created", so the source-queue time counts — that is
                // where saturation becomes visible.
                let lat_ns = at.saturating_sub(pkt.created);
                let lat_us = ns_to_us(lat_ns);
                self.dest_means[pkt.dst.idx()].push(lat_us);
                self.series.push(at, lat_us);
                self.quantiles.push(lat_ns);
                // `msg_tags` is only populated for trace runs; skip the
                // hash probe on the synthetic fast path.
                if final_frag && self.player.is_some() {
                    if let Some(tag) = self.msg_tags.remove(&msg_id) {
                        let rank = pkt.dst.0;
                        let ready = self
                            .player
                            .as_mut()
                            .map(|p| p.deliver(rank, pkt.src.0, tag))
                            .unwrap_or(false);
                        if ready {
                            self.advance_rank(rank, at);
                        }
                    }
                }
            }
        }
        // Hand the box (and any predictive header) back for reuse.
        self.fabric.recycle(pkt);
    }

    fn finish(mut self, truncated: bool) -> RunReport {
        // Drain leftover control traffic for final accounting.
        self.fabric.run_to_quiescence(self.cfg.max_ns);
        self.pump_deliveries();
        // The last phase's deltas include the drain's ACK-driven
        // policy activity — flush them now that everything settled.
        self.flush_phase_probes();
        if let Some(p) = &self.player {
            if !p.all_done() && !truncated {
                let stuck: Vec<String> = (0..p.num_ranks() as u32)
                    .map(|r| p.describe_block(r))
                    .filter(|s| !s.contains("done=true"))
                    .take(8)
                    .collect();
                panic!(
                    "trace player deadlocked with no pending events:\n{}",
                    stuck.join("\n")
                );
            }
        }
        let global = {
            // Eq 4.2: average the per-destination means over the
            // destinations that received traffic.
            let active: Vec<&RunningMean> =
                self.dest_means.iter().filter(|m| m.count() > 0).collect();
            if active.is_empty() {
                0.0
            } else {
                active.iter().map(|m| m.mean()).sum::<f64>() / active.len() as f64
            }
        };
        let contention: Vec<f64> = (0..self.topo.num_routers())
            .map(|r| self.fabric.router_contention_us(RouterId(r as u32)))
            .collect();
        let router_series: Vec<Option<TimeSeries>> = (0..self.topo.num_routers())
            .map(|r| self.fabric.router_series(RouterId(r as u32)).cloned())
            .collect();
        let exec = self
            .player
            .as_ref()
            .and_then(|p| p.all_done().then(|| p.finish_time()));
        let stats = self.fabric.stats();
        RunReport {
            quantiles: self.quantiles.clone(),
            label: if self.cfg.label.is_empty() {
                format!("{} on {}", self.policy.name(), self.topo.label())
            } else {
                self.cfg.label.clone()
            },
            policy: self.policy.name().into(),
            topology: self.topo.label(),
            global_avg_latency_us: global,
            series: self.series,
            exec_time_ns: exec,
            messages: self.messages,
            offered: stats.offered_data,
            accepted: stats.accepted_data,
            dropped: stats.dropped_data,
            acks_sent: stats.acks_sent,
            notifications: stats.notifications,
            latency_map: LatencyMap::new(&self.topo, contention),
            router_series,
            policy_stats: self.policy.stats(),
            end_ns: self.fabric.now(),
            truncated,
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("label", &self.cfg.label)
            .field("policy", &self.policy.name())
            .field("messages", &self.messages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use prdrb_apps::{nas_lu, pop, NasClass};
    use prdrb_core::PolicyKind;
    use prdrb_simcore::time::MILLISECOND;
    use prdrb_traffic::BurstSchedule;

    fn quick_synth(policy: PolicyKind) -> SimConfig {
        let mut cfg = SimConfig::synthetic(
            TopologyKind::FatTree443,
            policy,
            BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0),
            32,
        );
        cfg.duration_ns = MILLISECOND / 2;
        cfg.max_ns = 50 * MILLISECOND;
        cfg
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_serial() {
        use crate::cache::{report_to_csv, RunKey};
        for policy in [PolicyKind::Deterministic, PolicyKind::PrDrb] {
            let base = quick_synth(policy);
            let key = RunKey::of(&base);
            let serial = report_to_csv(key, &Simulation::new(base.clone()).run());
            for k in [2u32, 4] {
                let mut cfg = base.clone();
                cfg.shards = k;
                let sharded = report_to_csv(key, &Simulation::new(cfg).run());
                assert_eq!(serial, sharded, "{policy:?} shards={k}");
            }
        }
    }

    #[test]
    fn speculative_runs_are_byte_identical_to_serial() {
        use crate::cache::{report_to_csv, RunKey};
        for policy in [PolicyKind::Deterministic, PolicyKind::PrDrb] {
            let base = quick_synth(policy);
            let key = RunKey::of(&base);
            let serial = report_to_csv(key, &Simulation::new(base.clone()).run());
            for k in [2u32, 4] {
                let mut cfg = base.clone();
                cfg.shards = k;
                cfg.speculate = true;
                assert_eq!(
                    RunKey::of(&cfg),
                    key,
                    "execution knobs must stay out of the run identity"
                );
                let spec = report_to_csv(key, &Simulation::new(cfg).run());
                assert_eq!(serial, spec, "{policy:?} speculate shards={k}");
            }
        }
    }

    /// Golden-digest invariance on the dragonfly family: the serial
    /// wheel-calendar run, the serial heap-calendar run, and every
    /// sharded / speculative execution must serialize byte-identically
    /// — for an oblivious baseline, for UGAL (ACK-adaptive but not
    /// DRB) and for PR-DRB. Global wires carry extra latency so the
    /// partitioner's all-GLOBAL cut has real lookahead to run under.
    #[test]
    fn dragonfly_family_runs_are_backend_and_shard_invariant() {
        use crate::cache::{report_to_csv, RunKey};
        use prdrb_simcore::QueueKind;
        use prdrb_topology::LINK_CLASS_GLOBAL;
        for (topo, nodes) in [
            (TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }, 24usize),
            (
                TopologyKind::Megafly {
                    a: 5,
                    l: 2,
                    s: 2,
                    h: 2,
                },
                16,
            ),
        ] {
            for policy in [
                PolicyKind::Deterministic,
                PolicyKind::Ugal,
                PolicyKind::PrDrb,
            ] {
                let mut base = SimConfig::synthetic(
                    topo,
                    policy,
                    // Uniform works at any size (72 and 20 are not
                    // powers of two, which shuffle would require).
                    BurstSchedule::continuous(TrafficPattern::Uniform, 300.0),
                    nodes,
                );
                base.duration_ns = MILLISECOND / 4;
                base.max_ns = 50 * MILLISECOND;
                base.net.wire_class_extra_ns[LINK_CLASS_GLOBAL as usize] = 500;
                let key = RunKey::of(&base);
                let serial = report_to_csv(key, &Simulation::new(base.clone()).run());
                let mut heap = base.clone();
                heap.net.queue = QueueKind::Heap;
                assert_eq!(RunKey::of(&heap), key, "calendar backend not in the key");
                assert_eq!(
                    serial,
                    report_to_csv(key, &Simulation::new(heap).run()),
                    "{topo:?} {policy:?} heap calendar"
                );
                for k in [2u32, 4] {
                    let mut cfg = base.clone();
                    cfg.shards = k;
                    assert_eq!(
                        serial,
                        report_to_csv(key, &Simulation::new(cfg.clone()).run()),
                        "{topo:?} {policy:?} shards={k}"
                    );
                    cfg.speculate = true;
                    assert_eq!(
                        serial,
                        report_to_csv(key, &Simulation::new(cfg).run()),
                        "{topo:?} {policy:?} speculate shards={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_runs_are_byte_identical_to_serial_and_account_drops() {
        use crate::cache::{report_to_csv, RunKey};
        use prdrb_topology::FaultPlan;
        let mut base = quick_synth(PolicyKind::PrDrb);
        base.faults = FaultPlan::seeded(&TopologyKind::FatTree443.build(), 7, 4, 50_000, 400_000);
        let key = RunKey::of(&base);
        let serial = Simulation::new(base.clone()).run();
        assert!(serial.dropped > 0, "the plan must bite");
        assert_eq!(
            serial.offered,
            serial.accepted + serial.dropped,
            "lossless semantics end at a dead wire"
        );
        let serial_csv = report_to_csv(key, &serial);
        for k in [2u32, 4] {
            let mut cfg = base.clone();
            cfg.shards = k;
            let sharded = report_to_csv(key, &Simulation::new(cfg).run());
            assert_eq!(serial_csv, sharded, "faulted run shards={k}");
        }
    }

    #[test]
    fn synthetic_run_is_lossless_and_produces_latency() {
        let r = Simulation::new(quick_synth(PolicyKind::Deterministic)).run();
        assert!(r.messages > 100, "messages {}", r.messages);
        assert_eq!(r.offered, r.accepted, "lossless guarantee (§4.2)");
        assert!(r.global_avg_latency_us > 0.0);
        assert!(!r.series.is_empty());
        assert_eq!(r.throughput_ratio(), 1.0);
    }

    #[test]
    fn drb_uses_acks_deterministic_does_not() {
        let det = Simulation::new(quick_synth(PolicyKind::Deterministic)).run();
        assert_eq!(det.acks_sent, 0);
        let drb = Simulation::new(quick_synth(PolicyKind::Drb)).run();
        assert!(drb.acks_sent > 0, "DRB needs ACK feedback");
    }

    #[test]
    fn replicas_with_same_seed_are_identical() {
        let a = Simulation::new(quick_synth(PolicyKind::PrDrb)).run();
        let b = Simulation::new(quick_synth(PolicyKind::PrDrb)).run();
        assert_eq!(a.global_avg_latency_us, b.global_avg_latency_us);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.end_ns, b.end_ns);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_synth(PolicyKind::Deterministic);
        cfg.seed = 2;
        let a = Simulation::new(quick_synth(PolicyKind::Deterministic)).run();
        let b = Simulation::new(cfg).run();
        // Uniform noise is seed-dependent only in Scheduled uniform
        // patterns; shuffle is deterministic, so compare end times
        // loosely: they may match. Just check both ran.
        assert!(a.messages > 0 && b.messages > 0);
    }

    #[test]
    fn trace_run_completes_and_reports_exec_time() {
        let cfg = SimConfig::trace(
            TopologyKind::FatTree443,
            PolicyKind::Deterministic,
            nas_lu(NasClass::S, 64),
        );
        let r = Simulation::new(cfg).run();
        assert!(!r.truncated, "trace must complete");
        let exec = r.exec_time_ns.expect("exec time");
        assert!(exec > 0);
        assert_eq!(r.offered, r.accepted);
    }

    #[test]
    fn pop_trace_runs_under_all_policies() {
        for policy in [
            PolicyKind::Deterministic,
            PolicyKind::Drb,
            PolicyKind::PrDrb,
        ] {
            let cfg = SimConfig::trace(TopologyKind::FatTree443, policy, pop(64, 3));
            let r = Simulation::new(cfg).run();
            assert!(!r.truncated, "{policy:?} truncated");
            assert!(r.exec_time_ns.is_some());
        }
    }

    #[test]
    fn hotspot_flows_workload_runs() {
        let mesh = prdrb_topology::Mesh2D::new(8, 8);
        let scenario = prdrb_traffic::HotSpotScenario::situation1(&mesh);
        let mut cfg = SimConfig::synthetic(
            TopologyKind::Mesh8x8,
            PolicyKind::Drb,
            BurstSchedule::continuous(TrafficPattern::Uniform, 100.0),
            0,
        );
        cfg.workload = Workload::Flows {
            flows: scenario.flows.clone(),
            mbps: 600.0,
            noise_nodes: scenario.noise_nodes.clone(),
            noise_mbps: 40.0,
            msg_bytes: 1024,
        };
        cfg.duration_ns = MILLISECOND / 2;
        cfg.max_ns = 50 * MILLISECOND;
        let r = Simulation::new(cfg).run();
        assert_eq!(r.offered, r.accepted);
        assert!(
            r.latency_map.contended_routers() > 0,
            "hot-spot must contend"
        );
    }

    #[test]
    fn collective_workloads_complete_losslessly() {
        use prdrb_apps::{CollectiveKind, CollectiveSpec, ScheduleShape};
        for (kind, shape) in [
            (CollectiveKind::AllToAll, ScheduleShape::Ring),
            (CollectiveKind::AllToAll, ScheduleShape::Tree),
            (CollectiveKind::AllReduce, ScheduleShape::Ring),
            (CollectiveKind::AllReduce, ScheduleShape::Tree),
        ] {
            let spec = CollectiveSpec::new(kind, shape, 16, 8 * 1024);
            let cfg = SimConfig::collective(TopologyKind::FatTree443, PolicyKind::PrDrb, spec, 2);
            let r = Simulation::new(cfg).run();
            assert!(!r.truncated, "{} truncated", spec.label());
            assert!(r.exec_time_ns.expect("collectives report exec time") > 0);
            assert_eq!(r.offered, r.accepted, "{} lossless", spec.label());
            assert!(r.messages > 0);
        }
    }

    #[test]
    fn phased_workload_runs_the_program_and_prdrb_learns() {
        use prdrb_traffic::PhaseProgram;
        let program = PhaseProgram::mini_app(4, 150_000, 500.0);
        let total = program.total_ns();
        let cfg = SimConfig::phased(TopologyKind::Mesh8x8, PolicyKind::PrDrb, program, 32);
        assert_eq!(cfg.duration_ns, total, "injection ends with the program");
        let r = Simulation::new(cfg).run();
        assert!(r.messages > 100, "phases must inject ({})", r.messages);
        assert_eq!(r.offered, r.accepted, "lossless");
        assert!(
            r.end_ns >= total,
            "the run spans the whole program ({} < {total})",
            r.end_ns
        );
    }

    #[test]
    fn quiet_phases_inject_nothing() {
        use prdrb_traffic::{PhaseProgram, PhaseSpec};
        let program = PhaseProgram::new(
            vec![PhaseSpec {
                label: "compute",
                pattern: TrafficPattern::Uniform,
                mbps: 0.0,
                duration_ns: 100_000,
            }],
            3,
        );
        let cfg = SimConfig::phased(
            TopologyKind::Mesh8x8,
            PolicyKind::Deterministic,
            program,
            32,
        );
        let r = Simulation::new(cfg).run();
        assert_eq!(r.messages, 0, "an all-quiet program injects nothing");
    }

    #[test]
    fn open_loop_workload_draws_heavy_tailed_flows() {
        use prdrb_traffic::OpenLoopSpec;
        let mut cfg = SimConfig::open_loop(
            TopologyKind::FatTree443,
            PolicyKind::PrDrb,
            OpenLoopSpec::heavy_tail(40_000.0),
            32,
        );
        cfg.duration_ns = MILLISECOND / 2;
        cfg.max_ns = 50 * MILLISECOND;
        let r = Simulation::new(cfg.clone()).run();
        assert!(r.messages > 100, "open loop must inject ({})", r.messages);
        assert_eq!(r.offered, r.accepted, "lossless without faults");
        // Heavy-tailed sizes: multi-fragment elephants push offered
        // packets well above one per message.
        assert!(
            r.offered > r.messages,
            "bounded-Pareto flows must fragment ({} vs {})",
            r.offered,
            r.messages
        );
        let again = Simulation::new(cfg).run();
        assert_eq!(r.messages, again.messages, "sampler streams are pure");
        assert_eq!(r.end_ns, again.end_ns);
    }

    #[test]
    fn open_loop_stresses_bounded_solution_stores() {
        use prdrb_traffic::OpenLoopSpec;
        let mut cfg = SimConfig::open_loop(
            TopologyKind::FatTree443,
            PolicyKind::PrDrb,
            OpenLoopSpec::heavy_tail(15_000.0),
            48,
        );
        cfg.duration_ns = MILLISECOND;
        cfg.max_ns = 100 * MILLISECOND;
        cfg.drb.max_solutions = 1;
        let tight = Simulation::new(cfg.clone()).run();
        cfg.drb.max_solutions = 1024;
        let roomy = Simulation::new(cfg).run();
        assert!(
            tight.policy_stats.store_evictions >= roomy.policy_stats.store_evictions,
            "a 1-entry store cannot evict less ({} vs {})",
            tight.policy_stats.store_evictions,
            roomy.policy_stats.store_evictions
        );
        assert!(
            roomy.policy_stats.store_lookups > 0,
            "predictive lookups must be counted"
        );
    }

    #[test]
    fn prdrb_learns_on_repetitive_bursts() {
        let mut cfg = SimConfig::synthetic(
            TopologyKind::FatTree443,
            PolicyKind::PrDrb,
            BurstSchedule::repetitive(
                TrafficPattern::Shuffle,
                600.0,
                200_000, // 200 µs bursts
                100_000,
            ),
            64,
        );
        cfg.duration_ns = 2 * MILLISECOND;
        cfg.max_ns = 200 * MILLISECOND;
        let r = Simulation::new(cfg).run();
        assert!(r.notifications > 0, "congestion must be detected");
        assert!(
            r.policy_stats.expansions > 0 || r.policy_stats.reuse_applications > 0,
            "PR-DRB must react to congestion"
        );
    }
}
