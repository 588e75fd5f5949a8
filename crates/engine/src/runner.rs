//! The simulation runner: co-simulates the network fabric with the
//! traffic sources / trace player and the source routing policy.
//!
//! A run has one calendar, the fabric's. Host work rides it as wakeups
//! (a stream's next firing, a trace rank's end of computation), keyed
//! after the fabric's work of their instant. [`Fabric::step`] hands the
//! host each applied fault, each delivery and each wakeup at its own
//! timestamp, so faults and ACKs reach the policy, and received
//! messages unblock the player, when they land. The host keeps no clock
//! of its own: before each delivery or wakeup the policy catches its
//! periodic work (the FR-DRB watchdog) up to that instant.

use crate::config::{SimConfig, Workload};
use crate::player::{Player, SendOp};
use crate::report::RunReport;
use prdrb_core::{make_policy, RoutingPolicy};
use prdrb_metrics::{LatencyMap, LatencyQuantiles};
use prdrb_network::{Delivery, Fabric, Packet, PacketKind, Step};
use prdrb_simcore::rng::Splitmix64;
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::{interarrival_ns, ns_to_us, Time};
use prdrb_simcore::SimRng;
use prdrb_topology::{AnyTopology, NodeId, RouteState, RouterId, Topology};
use prdrb_traffic::bursty::{phase_at, phase_start_ns};
use prdrb_traffic::{exp_gap_ns, PhaseSpec, TrafficPattern};
use std::collections::HashMap;

/// Wakeup tokens order the host's work at one instant: streams before
/// trace ranks, each by ascending id. Stream `i` wakes with token `i`,
/// rank `r` with `RANK | r`.
const RANK: u64 = 1 << 32;

#[derive(Debug)]
enum StreamKind {
    /// Follows the schedule whose loop body is
    /// `Simulation::phases[first..first + len]`: Poisson arrivals of
    /// `msg_bytes` messages at the rate and pattern of the phase in
    /// force; sleeps through quiet phases.
    Scheduled {
        first: u32,
        len: u32,
        msg_bytes: u32,
    },
    /// Open-loop Poisson arrivals with heavy-tailed sizes, drawn from
    /// the stream's own seed-derived sampler.
    Open { rng: Splitmix64 },
}

#[derive(Debug)]
struct Stream {
    node: NodeId,
    kind: StreamKind,
}

impl Stream {
    fn scheduled(node: NodeId, first: usize, len: usize, msg_bytes: u32) -> Self {
        Self {
            node,
            kind: StreamKind::Scheduled {
                first: first as u32,
                len: len as u32,
                msg_bytes,
            },
        }
    }
}

/// One simulation run in progress.
pub struct Simulation {
    cfg: SimConfig,
    topo: AnyTopology,
    fabric: Fabric,
    policy: Box<dyn RoutingPolicy>,
    rng: SimRng,
    /// The loop bodies scheduled streams follow, back to back in one
    /// buffer (no allocation per stream): the synthetic workload's
    /// schedule, or the one-phase constant schedules its flows lower to.
    phases: Vec<PhaseSpec>,
    streams: Vec<Stream>,
    player: Option<Player>,
    /// Outstanding message metadata: id → (tag).
    msg_tags: HashMap<u64, u32>,
    next_msg: u64,
    messages: u64,
    dest_means: Vec<RunningMean>,
    series: TimeSeries,
    quantiles: LatencyQuantiles,
    /// Reusable send list, filled by the trace player per wakeup.
    send_buf: Vec<SendOp>,
    /// Phase attribution (scheduled streams only): the global phase in
    /// force, the policy's `(reuse_applications, expansions)` already
    /// attributed to a phase, and the per-phase totals the report carries.
    phase_cursor: Option<u64>,
    phase_counted: (u64, u64),
    phase_counts: Vec<(u64, u64)>,
}

impl Simulation {
    /// Build a simulation from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let topo = cfg.topology.build();
        let mut net = cfg.net;
        let mut policy = make_policy(cfg.policy, &topo, cfg.drb);
        if !cfg.preload_profile.is_empty() {
            policy.preload_profile(&cfg.preload_profile);
        }
        net.acks_enabled = policy.needs_acks();
        net.monitor.mode = policy.notify_mode();
        let fabric = Fabric::with_faults(topo.clone(), net, cfg.faults.clone());
        let rng = SimRng::new(cfg.seed);
        let mut sim = Self {
            phases: Vec::new(),
            streams: Vec::new(),
            player: None,
            msg_tags: HashMap::new(),
            next_msg: 1,
            messages: 0,
            dest_means: vec![RunningMean::new(); topo.num_terminals()],
            series: TimeSeries::new(cfg.series_bucket_ns),
            quantiles: LatencyQuantiles::new(),
            send_buf: Vec::new(),
            phase_cursor: None,
            phase_counted: (0, 0),
            phase_counts: Vec::new(),
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
                schedule,
                active_nodes,
                msg_bytes,
            } => {
                self.phases = schedule.phases.clone();
                let len = self.phases.len();
                let n = (*active_nodes).min(self.topo.num_terminals());
                for i in 0..n {
                    self.streams
                        .push(Stream::scheduled(NodeId(i as u32), 0, len, *msg_bytes));
                }
            }
            Workload::Flows {
                flows,
                mbps,
                noise_nodes,
                noise_mbps,
                msg_bytes,
            } => {
                // Lower to constant schedules: one hot-spot schedule per
                // flow, then one uniform schedule the noise nodes share.
                self.phases.reserve(flows.len() + 1);
                for &(src, dst) in flows {
                    let first = self.phases.len();
                    self.phases
                        .push(PhaseSpec::steady(TrafficPattern::HotSpot(dst), *mbps));
                    self.streams
                        .push(Stream::scheduled(src, first, 1, *msg_bytes));
                }
                if *noise_mbps > 0.0 {
                    let first = self.phases.len();
                    self.phases
                        .push(PhaseSpec::steady(TrafficPattern::Uniform, *noise_mbps));
                    for &node in noise_nodes {
                        self.streams
                            .push(Stream::scheduled(node, first, 1, *msg_bytes));
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
            Workload::OpenLoop { spec, active_nodes } => {
                let n = (*active_nodes).min(self.topo.num_terminals());
                for i in 0..n {
                    self.streams.push(Stream {
                        node: NodeId(i as u32),
                        kind: StreamKind::Open {
                            rng: spec.stream(self.cfg.seed, i as u32),
                        },
                    });
                }
            }
        }
        // Seed the host's wakeups: streams start with a small
        // deterministic stagger; all player ranks start at t = 0.
        for i in 0..self.streams.len() as u64 {
            self.fabric.wake_at((i * 131) % 997, i);
        }
        let ranks = self.player.as_ref().map_or(0, |p| p.num_ranks() as u64);
        for r in 0..ranks {
            self.fabric.wake_at(0, RANK | r);
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> RunReport {
        while let Some(step) = self.fabric.step(self.cfg.max_ns) {
            match step {
                // Faults up to an instant come before the periodic work up
                // to it, so a fault does not tick.
                Step::Fault(tf) => self.policy.on_fault(&tf.fault, tf.at),
                Step::Delivered(d) => {
                    self.policy.tick(d.at);
                    self.handle_delivery(d);
                }
                Step::Wake { at, token } => {
                    self.policy.tick(at);
                    match token.checked_sub(RANK) {
                        None => self.fire_stream(token as usize, at),
                        Some(r) => self.advance_rank(r as u32, at),
                    }
                }
            }
        }
        // Nothing is due by `max_ns`: an event still pending means the
        // run was cut there.
        let truncated = self.player.as_ref().is_some_and(|p| !p.all_done())
            && self.fabric.next_event_time().is_some();
        self.finish(truncated)
    }

    /// One firing of a stream: inject per the phase in force, then
    /// draw the next Poisson gap. A quiet phase (rate ≤ 0) injects
    /// nothing and wakes the stream at the next phase boundary.
    fn fire_stream(&mut self, i: usize, now: Time) {
        if now >= self.cfg.duration_ns {
            return; // injection window over; stream dies
        }
        let src = self.streams[i].node;
        let (body, bytes) = match self.streams[i].kind {
            StreamKind::Scheduled {
                first,
                len,
                msg_bytes,
            } => (first as usize..(first + len) as usize, msg_bytes),
            StreamKind::Open { .. } => return self.fire_open_stream(i, now),
        };
        let (g, mbps, dst) = {
            let (g, p) = phase_at(&self.phases[body.clone()], now);
            let dst = (p.mbps > 0.0).then(|| {
                p.pattern
                    .dest(src, self.topo.num_terminals(), &mut self.rng)
            });
            (g, p.mbps, dst)
        };
        self.note_phase(g);
        let Some(dst) = dst else {
            // Quiet phase: sleep to the next boundary, or to the end of
            // the injection window if that comes first.
            let wake = phase_start_ns(&self.phases[body], g + 1);
            self.fabric
                .wake_at(wake.min(self.cfg.duration_ns), i as u64);
            return;
        };
        if dst != src {
            self.inject_message(src, dst, bytes, 0, now);
        }
        // Poisson arrivals: the mean gap matches the phase's rate but
        // individual gaps are exponential, so realistic queueing appears
        // below link saturation too (deterministic spacing would make a
        // D/D/1 queue that never builds up).
        let mean = interarrival_ns(bytes as u64, mbps) as f64;
        let gap = exp_gap_ns(self.rng.unit(), mean);
        self.fabric.wake_at(now + gap, i as u64);
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
            let gap = exp_gap_ns(rng.unit(), spec.mean_gap_ns);
            let dst = spec.pattern.dest(src, n, &mut self.rng);
            (dst, bytes, gap)
        };
        if dst != src {
            self.inject_message(src, dst, bytes.max(1), 0, now);
        }
        self.fabric.wake_at(now + gap, i as u64);
    }

    /// Record that global phase `g` is in force. On a boundary crossing
    /// the previous phase's policy-counter deltas flush to its entry.
    fn note_phase(&mut self, g: u64) {
        if self.phase_cursor != Some(g) {
            self.flush_phase_counts();
            self.phase_cursor = Some(g);
        }
    }

    /// Attribute the reuse/expansion counters accumulated since the last
    /// flush to the phase in force. The first phase also takes anything
    /// counted before it began, so the per-phase entries sum exactly to
    /// the run's totals.
    fn flush_phase_counts(&mut self) {
        let Some(g) = self.phase_cursor else {
            return;
        };
        let st = self.policy.stats();
        let now = (st.reuse_applications, st.expansions);
        let (hits0, exp0) = std::mem::replace(&mut self.phase_counted, now);
        let g = g as usize;
        if self.phase_counts.len() <= g {
            self.phase_counts.resize(g + 1, (0, 0));
        }
        self.phase_counts[g].0 += now.0 - hits0;
        self.phase_counts[g].1 += now.1 - exp0;
    }

    fn advance_rank(&mut self, rank: u32, now: Time) {
        let mut sends = std::mem::take(&mut self.send_buf);
        sends.clear();
        let player = self.player.as_mut().expect("only trace runs have ranks");
        let wake = player.advance(rank, now, &mut sends);
        for s in sends.drain(..) {
            self.inject_message(NodeId(s.src), NodeId(s.dst), s.bytes.max(1), s.tag, now);
        }
        self.send_buf = sends;
        if let Some(t) = wake {
            self.fabric.wake_at(t, RANK | rank as u64);
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

    /// Fail loudly when the run stalled: nothing is left to happen (the
    /// fabric calendar is empty and the run was not cut at `max_ns`),
    /// yet data packets are still queued in the fabric or trace ranks
    /// are still blocked. A stalled run would otherwise end silently
    /// with `offered > accepted + dropped`.
    fn check_not_stalled(&mut self, truncated: bool) {
        const MAX_LANES: usize = 32;
        let stats = self.fabric.stats;
        let queued = stats
            .offered_data
            .saturating_sub(stats.accepted_data + stats.dropped_data);
        let blocked = self.player.as_ref().filter(|p| !p.all_done());
        if truncated
            || (queued == 0 && blocked.is_none())
            || self.fabric.next_event_time().is_some()
        {
            return;
        }
        let mut lines = vec![format!(
            "run stalled with no pending events: {queued} data packets still queued \
             ({} offered, {} accepted, {} dropped)",
            stats.offered_data, stats.accepted_data, stats.dropped_data
        )];
        if let Some(p) = blocked {
            lines.push("trace player deadlocked; stuck ranks:".into());
            lines.extend(
                (0..p.num_ranks() as u32)
                    .map(|r| p.describe_block(r))
                    .filter(|s| !s.contains("done=true"))
                    .take(8),
            );
        }
        let lanes = self.fabric.blocked_lanes();
        if !lanes.is_empty() {
            lines.push("blocked lanes:".into());
        }
        lines.extend(lanes.iter().take(MAX_LANES).cloned());
        if lanes.len() > MAX_LANES {
            lines.push(format!("... and {} more", lanes.len() - MAX_LANES));
        }
        panic!("{}", lines.join("\n"));
    }

    fn finish(mut self, truncated: bool) -> RunReport {
        // Nothing is due by `max_ns` (`step` returned `None`), so this
        // runs no event: it only moves the clock on to the moment the
        // last link fell idle.
        let events = self.fabric.events_processed();
        self.fabric.run_to_quiescence(self.cfg.max_ns);
        debug_assert_eq!(self.fabric.events_processed(), events);
        // Every ACK reached the policy inside the step loop; attribute
        // the last phase's counters now that the run is over.
        self.flush_phase_counts();
        self.check_not_stalled(truncated);
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
        let stats = self.fabric.stats;
        RunReport {
            quantiles: self.quantiles.clone(),
            label: if self.cfg.label.is_empty() {
                format!("{} on {}", self.cfg.policy.label(), self.topo.label())
            } else {
                self.cfg.label.clone()
            },
            policy: self.cfg.policy.label().into(),
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
            phase_counts: self.phase_counts,
            end_ns: self.fabric.now(),
            truncated,
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("label", &self.cfg.label)
            .field("policy", &self.cfg.policy.label())
            .field("messages", &self.messages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{report_to_csv, RunKey};
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

    /// Golden-digest invariance on the dragonfly: the
    /// wheel-calendar run and the heap-calendar run must serialize
    /// byte-identically — for an oblivious baseline, for UGAL
    /// (ACK-adaptive but not DRB) and for PR-DRB. Global wires carry
    /// extra latency, as in the dragonfly figure.
    #[test]
    fn dragonfly_runs_are_backend_invariant() {
        use crate::cache::{report_to_csv, RunKey};
        use prdrb_simcore::QueueKind;
        use prdrb_topology::LINK_CLASS_GLOBAL;
        for policy in [
            PolicyKind::Deterministic,
            PolicyKind::Ugal,
            PolicyKind::PrDrb,
        ] {
            let mut base = SimConfig::synthetic(
                TopologyKind::Dragonfly { a: 9, r: 4, h: 2 },
                policy,
                // Uniform works at any size (72 is not a power of two,
                // which shuffle would require).
                BurstSchedule::continuous(TrafficPattern::Uniform, 300.0),
                24,
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
                "{policy:?} heap calendar"
            );
        }
    }

    #[test]
    fn faulted_runs_account_drops() {
        use prdrb_topology::FaultPlan;
        let mut base = quick_synth(PolicyKind::PrDrb);
        base.faults = FaultPlan::seeded(&TopologyKind::FatTree443.build(), 7, 4, 50_000, 400_000);
        let r = Simulation::new(base).run();
        assert!(r.dropped > 0, "the plan must bite");
        assert_eq!(
            r.offered,
            r.accepted + r.dropped,
            "lossless semantics end at a dead wire"
        );
    }

    /// Fat-tree Valiant at twice line rate stalls (ROADMAP item 1): it
    /// used to end silently with 1,276 of 31,229 packets delivered, 0
    /// dropped and `truncated = false`. The end-of-run check must fail
    /// it, naming the blocked lanes and what their heads wait for.
    #[test]
    fn a_stalled_fabric_fails_loudly() {
        let mut cfg = SimConfig::synthetic(
            TopologyKind::FatTree443,
            PolicyKind::Valiant,
            BurstSchedule::continuous(TrafficPattern::Uniform, 4000.0),
            64,
        );
        cfg.duration_ns = MILLISECOND;
        cfg.seed = 1;
        let err = std::panic::catch_unwind(|| Simulation::new(cfg).run())
            .expect_err("the stalled run must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("run stalled with no pending events"), "{msg}");
        assert!(
            msg.contains("31229 offered, 1276 accepted, 0 dropped"),
            "{msg}"
        );
        assert!(msg.contains("waits for vc"), "{msg}");
        assert!(msg.contains("credit"), "{msg}");
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
        let one = quick_synth(PolicyKind::Deterministic);
        let mut two = one.clone();
        two.seed = 2;
        // Both reports serialize under one key, so only their content
        // can tell them apart.
        let key = RunKey::of(&one);
        let a = report_to_csv(key, &Simulation::new(one).run());
        let b = report_to_csv(key, &Simulation::new(two).run());
        assert_ne!(a, b, "seeds 1 and 2 gave the same canonical report");
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
        // The flows lower to constant schedules: one phase.
        assert_phase_counts(&r, 1);
    }

    /// Every scheduled run attributes solution-store activity to the
    /// schedule's global phases: `phases` entries, one per phase the
    /// run reached, that sum to the run's reuse and expansion totals.
    fn assert_phase_counts(r: &RunReport, phases: usize) {
        assert_eq!(r.phase_counts.len(), phases);
        let hits: u64 = r.phase_counts.iter().map(|c| c.0).sum();
        let exps: u64 = r.phase_counts.iter().map(|c| c.1).sum();
        assert!(exps > 0, "the run must congest");
        assert_eq!(hits, r.policy_stats.reuse_applications);
        assert_eq!(exps, r.policy_stats.expansions);
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
        let program = BurstSchedule::mini_app(150_000, 500.0);
        let phases = program.phases.len() * 4;
        let cfg = SimConfig::looped(TopologyKind::Mesh8x8, PolicyKind::PrDrb, program, 32, 4);
        let total = cfg.duration_ns;
        let r = Simulation::new(cfg).run();
        assert!(r.messages > 100, "phases must inject ({})", r.messages);
        assert_eq!(r.offered, r.accepted, "lossless");
        assert!(
            r.end_ns >= total,
            "the run spans the whole program ({} < {total})",
            r.end_ns
        );
        assert_phase_counts(&r, phases);
    }

    #[test]
    fn quiet_phases_inject_nothing() {
        let program = BurstSchedule::new(vec![PhaseSpec {
            label: "compute",
            pattern: TrafficPattern::Uniform,
            mbps: 0.0,
            duration_ns: 100_000,
        }]);
        let cfg = SimConfig::looped(
            TopologyKind::Mesh8x8,
            PolicyKind::Deterministic,
            program,
            32,
            3,
        );
        assert_eq!(cfg.duration_ns, 3 * 100_000);
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
        let schedule = BurstSchedule::repetitive(
            TrafficPattern::Shuffle,
            600.0,
            200_000, // 200 µs bursts
            100_000,
        );
        // One entry per burst and gap phase the run reaches.
        let phases = schedule.at(2 * MILLISECOND - 1).0 as usize + 1;
        let mut cfg =
            SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 64);
        cfg.duration_ns = 2 * MILLISECOND;
        cfg.max_ns = 200 * MILLISECOND;
        let r = Simulation::new(cfg).run();
        assert!(r.notifications > 0, "congestion must be detected");
        assert!(
            r.policy_stats.expansions > 0 || r.policy_stats.reuse_applications > 0,
            "PR-DRB must react to congestion"
        );
        assert_phase_counts(&r, phases);
    }
}
