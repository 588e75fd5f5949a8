//! The DRB-family source policy: DRB, FR-DRB, PR-DRB and PR-FR-DRB.
//!
//! One implementation covers the whole family — exactly how the thesis
//! frames it ("PR-DRB is built in a modular fashion on top of DRB", and
//! the predictive layer "could be positively adapted to work with any
//! current or future DRB implementation", §4.8.4):
//!
//! * plain **DRB**: per-ACK metapath configuration — expand above
//!   `Threshold_High`, keep inside the working zone, shrink below
//!   `Threshold_Low` (§3.2.4, Alg. A.2) — plus Eq 3.6 path selection;
//! * **PR-DRB** adds the predictive procedures of §3.2.6: on the
//!   medium→high transition it searches the per-source solution database
//!   for a saved path set matching the current contending-flow pattern
//!   (80 % approximate match) and installs it wholesale; on high→medium
//!   it saves/updates the best solution; on medium→low it closes paths;
//! * **FR-DRB** adds the watchdog timer: missing ACKs for `WATCHDOG_NS`
//!   is itself a congestion signal and triggers the same reaction
//!   without waiting for a notification.
//!
//! The [`PolicyKind`] alone picks the variant; [`DrbConfig`] only tunes it.

use crate::config::{DrbConfig, EWMA_ALPHA, TREND_HORIZON_NS, WATCHDOG_NS};
use crate::metapath::Metapath;
use crate::policy::{base_path, PolicyKind, PolicyStats, RoutingPolicy};
use crate::solutions::SolutionDb;
use crate::trend::TrendDetector;
use crate::zones::{Transition, Zone, ZoneTracker};
use prdrb_network::{FlowPair, NotifyMode, Packet, PacketKind};
use prdrb_simcore::time::Time;
use prdrb_simcore::SimRng;
use prdrb_topology::{
    route_len, route_survives, AltPathProvider, AnyTopology, FaultEvent, FaultState, NodeId,
    PathDescriptor, Topology,
};

/// Cap on the accumulated contending-flow pattern per congestion episode.
const MAX_PATTERN: usize = 32;

#[derive(Debug)]
struct FlowState {
    metapath: Metapath,
    zone: ZoneTracker,
    /// Candidate alternative paths in opening order (lazy).
    alts: Option<Vec<(PathDescriptor, u32)>>,
    /// Contending flows observed during the current episode, kept sorted
    /// and deduplicated so the database lookup borrows it directly (no
    /// clone + normalize per notification).
    pattern: Vec<FlowPair>,
    /// A saved solution was already installed this episode.
    solution_applied: bool,
    /// §5.2 latency-trend predictor (when enabled).
    trend: Option<TrendDetector>,
    last_send: Time,
    last_ack: Time,
    last_adjust: Time,
    outstanding: u64,
}

/// The DRB-family policy (§3.2). The kind selects the layers: PR-DRB
/// and PR-FR-DRB run the predictive solution database, FR-DRB and
/// PR-FR-DRB the watchdog.
#[derive(Debug)]
pub struct DrbPolicy {
    topo: AnyTopology,
    cfg: DrbConfig,
    /// Save/lookup solutions in the predictive database (PR layer).
    predictive: bool,
    /// Number of terminals — the stride of the dense per-flow table.
    nodes: usize,
    /// Per-flow state, indexed `src.idx() * nodes + dst.idx()`. Dense
    /// so the ACK hot path is one multiply + load instead of a hash.
    /// Boxed, because most of the `nodes²` pairs never carry traffic:
    /// a pointer per pair keeps the table at 41 KB on 72 terminals,
    /// where inline 144-byte states would take 729 KB per job.
    flows: Vec<Option<Box<FlowState>>>,
    /// Flows in creation order — the watchdog scans this instead of a
    /// hash map, so its reaction order is reproducible by construction.
    active: Vec<(NodeId, NodeId)>,
    /// Per-source solution databases — each source only knows what its
    /// own ACKs taught it (Fig 3.14 "Node S1 — Saved Solution").
    dbs: Vec<SolutionDb>,
    /// The host's fault view: every event `on_fault` handed over,
    /// applied in order. New alternative-path candidates are filtered
    /// against it.
    faults: FaultState,
    /// The next scan of the `WATCHDOG_NS` ACK watchdog, every
    /// `WATCHDOG_NS / 2`; `None` without the FR layer.
    next_scan: Option<Time>,
    expansions: u64,
    shrinks: u64,
    watchdog_fires: u64,
    trend_predictions: u64,
    solutions_invalidated: u64,
}

impl DrbPolicy {
    /// A DRB-family policy of variant `kind` over `topo`. Panics when
    /// `kind` is not one of DRB, PR-DRB, FR-DRB and PR-FR-DRB.
    pub fn new(topo: AnyTopology, kind: PolicyKind, cfg: DrbConfig) -> Self {
        cfg.validate();
        use PolicyKind::{Drb, FrDrb, PrDrb, PrFrDrb};
        assert!(
            matches!(kind, Drb | PrDrb | FrDrb | PrFrDrb),
            "{} is not a DRB-family policy",
            kind.label()
        );
        let nodes = topo.num_terminals();
        let faults = FaultState::new(&topo);
        Self {
            topo,
            cfg,
            predictive: matches!(kind, PrDrb | PrFrDrb),
            nodes,
            flows: std::iter::repeat_with(|| None)
                .take(nodes * nodes)
                .collect(),
            active: Vec::new(),
            dbs: std::iter::repeat_with(|| SolutionDb::with_capacity(cfg.max_solutions))
                .take(nodes)
                .collect(),
            faults,
            next_scan: matches!(kind, FrDrb | PrFrDrb).then_some(WATCHDOG_NS / 2),
            expansions: 0,
            shrinks: 0,
            watchdog_fires: 0,
            trend_predictions: 0,
            solutions_invalidated: 0,
        }
    }

    /// The configured tunables.
    pub fn config(&self) -> &DrbConfig {
        &self.cfg
    }

    /// Whether this variant runs the predictive solution database.
    pub(crate) fn is_predictive(&self) -> bool {
        self.predictive
    }

    /// The topology this policy routes over.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// Dense-table index of flow `src → dst`.
    #[inline]
    fn fidx(&self, src: NodeId, dst: NodeId) -> usize {
        src.idx() * self.nodes + dst.idx()
    }

    /// Number of open paths for a flow (1 when never seen).
    pub fn open_paths(&self, src: NodeId, dst: NodeId) -> usize {
        self.flows[self.fidx(src, dst)]
            .as_ref()
            .map(|f| f.metapath.len())
            .unwrap_or(1)
    }

    /// The solution database of one source, if it saved anything.
    pub fn solution_db(&self, src: NodeId) -> Option<&SolutionDb> {
        self.dbs.get(src.idx()).filter(|db| !db.is_empty())
    }

    /// Install an offline-computed solution (§5.2 static variant): save
    /// `paths` for flow `src → dst` keyed by the statically predicted
    /// contending-flow `pattern`.
    pub fn preload_solution(
        &mut self,
        src: NodeId,
        dst: NodeId,
        pattern: Vec<FlowPair>,
        paths: Vec<(PathDescriptor, u32)>,
    ) {
        let cfg = self.cfg;
        self.dbs[src.idx()].save(
            dst,
            pattern,
            paths,
            // Nominal latency: offline solutions are refined by the
            // dynamic machinery once real measurements arrive.
            cfg.threshold_high_ns,
            cfg.min_similarity,
            cfg.similarity,
        );
    }

    fn flow_state(&mut self, src: NodeId, dst: NodeId) -> &mut FlowState {
        let i = self.fidx(src, dst);
        if self.flows[i].is_none() {
            let (desc, len, base) = base_path(&self.topo, src, dst);
            self.flows[i] = Some(Box::new(FlowState {
                metapath: Metapath::new(desc, len, base),
                zone: ZoneTracker::new(),
                alts: None,
                pattern: Vec::new(),
                solution_applied: false,
                trend: (self.cfg.trend_window > 0)
                    .then(|| TrendDetector::new(self.cfg.trend_window)),
                last_send: 0,
                last_ack: 0,
                last_adjust: 0,
                outstanding: 0,
            }));
            self.active.push((src, dst));
        }
        self.flows[i].as_deref_mut().expect("just inserted")
    }

    /// Record contending flows into the episode pattern, keeping it
    /// sorted + deduplicated (the database keys are normalized sets, so
    /// insertion order never mattered — only the cap does, and that
    /// still admits the first [`MAX_PATTERN`] distinct flows observed).
    fn note_contenders(pattern: &mut Vec<FlowPair>, flows: &[FlowPair]) {
        for &f in flows {
            if pattern.len() >= MAX_PATTERN {
                break;
            }
            if let Err(pos) = pattern.binary_search(&f) {
                pattern.insert(pos, f);
            }
        }
    }

    /// Lazily compute the ordered alternative list for a flow. Under an
    /// active fault state only surviving candidates are admitted —
    /// expansion never opens a path through a dead link or router.
    fn ensure_alts(
        topo: &AnyTopology,
        cfg: &DrbConfig,
        faults: &FaultState,
        fs: &mut FlowState,
        src: NodeId,
        dst: NodeId,
    ) {
        if fs.alts.is_some() {
            return;
        }
        let provider = AltPathProvider::new(topo);
        let alts = provider
            .alternatives(src, dst, cfg.max_paths)
            .into_iter()
            .filter(|&d| route_survives(topo, src, dst, d, faults))
            .map(|d| {
                let len = route_len(topo, src, dst, d).unwrap_or(u32::MAX / 2);
                (d, len)
            })
            .collect();
        fs.alts = Some(alts);
    }

    /// Congestion reaction: try the solution database (PR, until a
    /// solution is installed this episode), otherwise open the next
    /// alternative path (Fig 3.10).
    fn react(&mut self, src: NodeId, dst: NodeId, now: Time) {
        let cfg = self.cfg;
        let i = self.fidx(src, dst);
        // Disjoint field borrows: the flow table, the databases and the
        // topology are used side by side — no per-call `topo.clone()`.
        let Self {
            topo,
            flows,
            dbs,
            faults,
            expansions,
            predictive,
            ..
        } = self;
        // Predictive lookup first (Fig 3.8 / Fig 3.15: every congestion
        // notification checks the database until a solution has been
        // installed for the current episode).
        let try_lookup = *predictive
            && flows[i]
                .as_ref()
                .map(|f| !f.solution_applied)
                .unwrap_or(true);
        if try_lookup {
            // `fs.pattern` is maintained sorted + deduplicated, so it is
            // already in the normalized form `find` expects.
            let hit = match flows[i].as_ref() {
                Some(fs) if !fs.pattern.is_empty() => {
                    let db = &mut dbs[src.idx()];
                    db.find(&fs.pattern, cfg.min_similarity, cfg.similarity)
                        // Applying a saved solution is an *expansion*
                        // shortcut (Fig 3.15): never let a stale match
                        // shrink (or sideways-swap) a metapath congestion
                        // already grew past it — fall through to the
                        // normal one-path-at-a-time opening instead.
                        .filter(|&j| db.get(j).paths.len() > fs.metapath.len())
                }
                _ => None,
            };
            if let Some(j) = hit {
                let paths = dbs[src.idx()].apply(j).paths.clone();
                if let Some(fs) = flows[i].as_mut() {
                    // "Maximum path expansion is directly done"
                    // (§4.6.3): install the full saved set at once.
                    fs.metapath.install(&paths);
                    fs.last_adjust = now;
                    fs.solution_applied = true;
                }
                return;
            }
        }
        // Standard opening procedure: next unopened candidate.
        let Some(fs) = flows[i].as_mut() else {
            return;
        };
        if fs.metapath.len() >= cfg.max_paths {
            return;
        }
        // Controlled opening: one path per settle window, so the effect
        // of each new path is evaluated before the next opens (§4.5.1).
        if fs.last_adjust != 0 && now.saturating_sub(fs.last_adjust) < cfg.adjust_settle_ns {
            return;
        }
        Self::ensure_alts(topo, &cfg, faults, fs, src, dst);
        let alts = fs.alts.as_ref().expect("just ensured");
        let open = fs.metapath.entries();
        if let Some(&(desc, len)) = alts
            .iter()
            .find(|(d, _)| !open.iter().any(|e| e.descriptor == *d))
        {
            if fs.metapath.open(desc, len) {
                fs.last_adjust = now;
                *expansions += 1;
            }
        }
    }

    /// Digest a latency sample + contending flows for one flow.
    fn on_flow_ack(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msp: u8,
        latency: Time,
        flows: &[FlowPair],
        now: Time,
    ) {
        let cfg = self.cfg;
        let fs = self.flow_state(src, dst);
        fs.last_ack = now;
        fs.outstanding = fs.outstanding.saturating_sub(1);
        fs.metapath.update(msp as usize, latency, EWMA_ALPHA);
        Self::note_contenders(&mut fs.pattern, flows);
        let mp_latency = fs.metapath.latency_ns();
        let tr = fs
            .zone
            .observe(mp_latency, cfg.threshold_low_ns, cfg.threshold_high_ns);
        let zone = fs.zone.zone();
        // §5.2 trend prediction: react while still in the working zone
        // if the latency trajectory will cross Threshold_High soon.
        let trend_fires = if let Some(t) = fs.trend.as_mut() {
            t.push(now, mp_latency);
            zone == Zone::Medium
                && fs.metapath.len() < cfg.max_paths
                && t.predicts_congestion(TREND_HORIZON_NS, cfg.threshold_high_ns)
        } else {
            false
        };
        if trend_fires {
            self.trend_predictions += 1;
            self.react(src, dst, now);
            return;
        }
        match tr {
            Transition::EnterHigh => self.react(src, dst, now),
            Transition::SettleMedium => {
                // Congestion controlled: save the winning combination
                // (H→M of Fig 3.12).
                if self.predictive {
                    let (pattern, snapshot) = {
                        let i = self.fidx(src, dst);
                        let fs = self.flows[i].as_mut().expect("exists");
                        fs.solution_applied = false;
                        let p = std::mem::take(&mut fs.pattern);
                        (p, fs.metapath.snapshot())
                    };
                    if !pattern.is_empty() && snapshot.len() > 1 {
                        self.dbs[src.idx()].save(
                            dst,
                            pattern,
                            snapshot,
                            mp_latency,
                            cfg.min_similarity,
                            cfg.similarity,
                        );
                    }
                }
            }
            Transition::EnterLow => {
                self.shrink(src, dst, now);
                let i = self.fidx(src, dst);
                let fs = self.flows[i].as_mut().expect("exists");
                fs.pattern.clear();
                fs.solution_applied = false;
                if let Some(t) = fs.trend.as_mut() {
                    t.reset();
                }
            }
            Transition::None => {
                // Alg A.2's continuous rule: keep expanding while the
                // metapath stays saturated, keep shrinking while idle.
                if zone == Zone::High {
                    self.react(src, dst, now);
                } else if zone == Zone::Low {
                    self.shrink(src, dst, now);
                }
            }
        }
    }

    /// Closing procedure (below `Threshold_Low`): once the settle window
    /// since the last adjustment has passed, close the flow's worst
    /// alternative path. The original path never closes.
    fn shrink(&mut self, src: NodeId, dst: NodeId, now: Time) {
        let settle = self.cfg.adjust_settle_ns;
        let i = self.fidx(src, dst);
        let fs = self.flows[i].as_mut().expect("exists");
        if now.saturating_sub(fs.last_adjust) >= settle && fs.metapath.close_worst().is_some() {
            fs.last_adjust = now;
            self.shrinks += 1;
        }
    }
}

impl RoutingPolicy for DrbPolicy {
    fn needs_acks(&self) -> bool {
        true
    }

    fn notify_mode(&self) -> NotifyMode {
        if !self.predictive {
            NotifyMode::Off
        } else if self.cfg.router_based {
            NotifyMode::Router
        } else {
            NotifyMode::Destination
        }
    }

    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: Time,
        rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        let fs = self.flow_state(src, dst);
        fs.last_send = now;
        fs.outstanding += 1;
        let (i, desc) = fs.metapath.select(rng);
        (desc, i as u8)
    }

    fn on_ack(&mut self, ack: &Packet, now: Time) {
        let PacketKind::Ack {
            data_latency,
            data_msp,
            from_router,
        } = ack.kind
        else {
            debug_assert!(false, "on_ack called with a data packet");
            return;
        };
        let me = ack.dst; // ACKs are addressed to the original source
                          // Borrowed straight from the ACK: `self` and `ack` are disjoint,
                          // so the header's flow list never needs cloning.
        let flows: &[FlowPair] = ack
            .predictive
            .as_ref()
            .map(|h| h.flows.as_slice())
            .unwrap_or(&[]);
        if from_router.is_some() {
            // Predictive (router-injected) early notification: act on
            // every listed flow we originate — congestion is live now.
            for &(s, d) in flows.iter().filter(|(s, _)| *s == me) {
                let fs = self.flow_state(s, d);
                Self::note_contenders(&mut fs.pattern, flows);
                self.react(s, d, now);
            }
        } else {
            // Destination ACK: latency sample for the flow it acknowledges.
            let flow_dst = ack.src;
            self.on_flow_ack(me, flow_dst, data_msp, data_latency, flows, now);
        }
    }

    fn tick(&mut self, now: Time) {
        // FR-DRB: an ACK overdue on an active flow is a congestion sign
        // (§4.8.4) — react without waiting for the notification. Each
        // scan walks flows in creation order (`react` never creates
        // flows, so `active` is stable across the loop).
        while let Some(now) = self.next_scan.filter(|&t| t <= now) {
            self.next_scan = Some(now + WATCHDOG_NS / 2);
            for k in 0..self.active.len() {
                let (src, dst) = self.active[k];
                let i = self.fidx(src, dst);
                let overdue = self.flows[i].as_ref().is_some_and(|fs| {
                    fs.outstanding > 0
                        && now.saturating_sub(fs.last_send.max(fs.last_ack)) > WATCHDOG_NS
                });
                if overdue {
                    self.watchdog_fires += 1;
                    self.react(src, dst, now);
                    if let Some(fs) = self.flows[i].as_mut() {
                        fs.last_ack = now; // re-arm instead of firing every scan
                    }
                }
            }
        }
    }

    fn on_fault(&mut self, fault: &FaultEvent, now: Time) {
        self.faults.apply(&self.topo, fault);
        let Self {
            topo,
            nodes,
            flows,
            active,
            dbs,
            faults,
            solutions_invalidated,
            ..
        } = self;
        // Saved solutions are validated against the new exclusion set:
        // MSPs traversing a failed link are cut out of their entries,
        // and entries degraded below two live paths are forgotten.
        for (s, db) in dbs.iter_mut().enumerate() {
            let src = NodeId(s as u32);
            *solutions_invalidated +=
                db.invalidate(|dst, d| route_survives(topo, src, dst, d, faults));
        }
        // Per-flow learned state: dead alternatives close immediately,
        // the candidate cache resets (it is recomputed fault-filtered on
        // the next expansion), and the current episode restarts so the
        // flow re-learns under the degraded topology. This covers
        // recovery too — a LinkUp makes the revived candidates eligible
        // again through the same cache reset.
        for &(src, dst) in active.iter() {
            let fs = flows[src.idx() * *nodes + dst.idx()]
                .as_mut()
                .expect("active flows exist");
            fs.alts = None;
            if fs
                .metapath
                .prune(|d| !route_survives(topo, src, dst, d, faults))
                > 0
            {
                fs.pattern.clear();
                fs.solution_applied = false;
                fs.last_adjust = now;
                if let Some(t) = fs.trend.as_mut() {
                    t.reset();
                }
            }
        }
    }

    fn preload_profile(&mut self, profile: &[crate::offline::ProfiledFlow]) {
        if self.predictive {
            crate::offline::preload(self, profile);
        }
    }

    fn stats(&self) -> PolicyStats {
        let mut s = PolicyStats {
            expansions: self.expansions,
            shrinks: self.shrinks,
            watchdog_fires: self.watchdog_fires,
            trend_predictions: self.trend_predictions,
            solutions_invalidated: self.solutions_invalidated,
            ..Default::default()
        };
        for db in &self.dbs {
            s.patterns_found += db.patterns_found;
            s.patterns_reused += db.patterns_reused;
            s.reuse_applications += db.reuse_applications;
            s.store_lookups += db.store_lookups;
            s.store_evictions += db.store_evictions;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::ack;
    use prdrb_simcore::time::MICROSECOND;
    use prdrb_topology::{Mesh2D, RouterId};

    fn ack_with_flows(
        src_of_flow: u32,
        dst_of_flow: u32,
        latency: Time,
        msp: u8,
        flows: &[(u32, u32)],
    ) -> Packet {
        let mut a = ack(src_of_flow, dst_of_flow, latency, msp);
        a.predictive = Some(Box::new(prdrb_network::PredictiveHeader {
            router: Some(RouterId(9)),
            flows: flows.iter().map(|&(s, d)| (NodeId(s), NodeId(d))).collect(),
        }));
        a
    }

    fn drb_with(topo: AnyTopology, kind: PolicyKind, cfg: DrbConfig) -> DrbPolicy {
        // Tests drive ACKs at arbitrary timestamps; disable the settle
        // pacing except where a test exercises it explicitly.
        DrbPolicy::new(
            topo,
            kind,
            DrbConfig {
                adjust_settle_ns: 0,
                ..cfg
            },
        )
    }

    fn drb(topo: AnyTopology, kind: PolicyKind) -> DrbPolicy {
        drb_with(topo, kind, DrbConfig::default())
    }

    #[test]
    fn names_cover_the_family() {
        let t = AnyTopology::mesh8x8();
        for kind in [
            PolicyKind::Drb,
            PolicyKind::PrDrb,
            PolicyKind::FrDrb,
            PolicyKind::PrFrDrb,
        ] {
            let mut p = drb(t.clone(), kind);
            let predictive = matches!(kind, PolicyKind::PrDrb | PolicyKind::PrFrDrb);
            let watchdog = matches!(kind, PolicyKind::FrDrb | PolicyKind::PrFrDrb);
            assert_eq!(p.notify_mode() != NotifyMode::Off, predictive, "{kind:?}");
            let _ = p.choose(NodeId(0), NodeId(63), 0, &mut SimRng::new(1));
            p.tick(3 * WATCHDOG_NS);
            assert_eq!(p.stats().watchdog_fires > 0, watchdog, "{kind:?}");
        }
    }

    #[test]
    fn high_latency_acks_open_paths_gradually() {
        let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::Drb);
        let mut rng = SimRng::new(1);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 1);
        // Repeated saturated ACKs: one path opens per notification,
        // "opening one path at a time" (§4.5.1).
        for i in 0..3 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), (i + 1) * 1000);
            assert_eq!(p.open_paths(NodeId(0), NodeId(63)), (i + 2) as usize);
        }
        // Cap at max_paths = 4.
        p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), 9000);
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 4);
        assert_eq!(p.stats().expansions, 3);
    }

    #[test]
    fn settle_window_paces_openings() {
        let cfg = DrbConfig {
            adjust_settle_ns: 40_000,
            ..DrbConfig::default()
        };
        let mut p = DrbPolicy::new(AnyTopology::mesh8x8(), PolicyKind::Drb, cfg);
        let mut rng = SimRng::new(1);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        // A burst of saturated ACKs within one settle window opens only
        // one path ("one path at a time, evaluating the effect" §4.5.1).
        for i in 0..10u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), 1_000 + i);
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 2);
        // After the window, the next saturated ACK opens another.
        p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), 50_000);
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 3);
    }

    #[test]
    fn low_latency_acks_close_paths() {
        let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::Drb);
        let mut rng = SimRng::new(1);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        for i in 0..3u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), i + 1);
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 4);
        // Fast ACKs on every path drive the metapath latency into the
        // low zone and paths close again.
        for i in 0..20u64 {
            for msp in 0..4u8 {
                p.on_ack(&ack(0, 63, 2 * MICROSECOND, msp), 100 + i);
            }
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 1);
        assert!(p.stats().shrinks >= 3);
    }

    #[test]
    fn selection_spreads_over_open_paths() {
        let mut p = drb(AnyTopology::fat_tree_64(), PolicyKind::Drb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        for i in 0..3u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), i + 1);
        }
        let mut used = std::collections::HashSet::new();
        for _ in 0..200 {
            used.insert(p.choose(NodeId(0), NodeId(63), 10, &mut rng).0);
        }
        assert!(
            used.len() >= 3,
            "traffic should spread, used {}",
            used.len()
        );
    }

    #[test]
    fn predictive_saves_and_reapplies_solutions() {
        let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::PrDrb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        let pattern = [(0, 63), (1, 62), (2, 61)];
        // Episode 1: congestion with a visible contending pattern.
        for i in 0..3u64 {
            p.on_ack(
                &ack_with_flows(0, 63, 100 * MICROSECOND, 0, &pattern),
                i + 1,
            );
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 4);
        // Latency settles → H→M saves the 4-path solution (60 µs per
        // path over 4 paths gives L(MP) = 15 µs, inside the working
        // zone of the default 8/20 µs thresholds).
        for i in 0..4u8 {
            p.on_ack(&ack(0, 63, 60 * MICROSECOND, i), 100);
        }
        assert_eq!(p.stats().patterns_found, 1);
        // Traffic fades → paths close.
        for i in 0..30u64 {
            for msp in 0..p.open_paths(NodeId(0), NodeId(63)) as u8 {
                p.on_ack(&ack(0, 63, MICROSECOND, msp), 200 + i);
            }
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 1);
        // Episode 2: the same pattern reappears → solution applied at
        // once (full expansion in one step, no gradual opening).
        p.on_ack(
            &ack_with_flows(0, 63, 100 * MICROSECOND, 0, &pattern),
            1_000,
        );
        assert_eq!(
            p.open_paths(NodeId(0), NodeId(63)),
            4,
            "saved solution must be installed wholesale"
        );
        assert_eq!(p.stats().reuse_applications, 1);
        assert_eq!(p.stats().patterns_reused, 1);
    }

    #[test]
    fn plain_drb_never_uses_the_database() {
        let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::Drb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        let pattern = [(0, 63), (1, 62)];
        for i in 0..3u64 {
            p.on_ack(
                &ack_with_flows(0, 63, 100 * MICROSECOND, 0, &pattern),
                i + 1,
            );
        }
        for i in 0..4u8 {
            p.on_ack(&ack(0, 63, 60 * MICROSECOND, i), 100);
        }
        assert_eq!(p.stats().patterns_found, 0);
    }

    #[test]
    fn watchdog_fires_without_acks() {
        let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::FrDrb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        p.tick(WATCHDOG_NS);
        assert_eq!(p.stats().watchdog_fires, 0, "not overdue yet");
        p.tick(2 * WATCHDOG_NS);
        assert_eq!(p.stats().watchdog_fires, 1);
        assert_eq!(
            p.open_paths(NodeId(0), NodeId(63)),
            2,
            "expanded without any ACK"
        );
        // Re-armed: the next tick shortly after does not refire.
        p.tick(2 * WATCHDOG_NS + MICROSECOND);
        assert_eq!(p.stats().watchdog_fires, 1);
    }

    #[test]
    fn one_tick_catches_up_every_scan_due() {
        let until = 1_000 * MICROSECOND;
        let run = |ticks: &mut dyn Iterator<Item = Time>| {
            let mut p = drb(AnyTopology::mesh8x8(), PolicyKind::PrFrDrb);
            let mut rng = SimRng::new(3);
            let flows = (0..12).map(|i| (NodeId(i), NodeId(63 - i)));
            for (s, d) in flows.clone() {
                let _ = p.choose(s, d, s.0 as Time * 7 * MICROSECOND, &mut rng);
            }
            ticks.for_each(|t| p.tick(t));
            (
                p.stats(),
                flows.map(|(s, d)| p.open_paths(s, d)).collect::<Vec<_>>(),
            )
        };
        let once = run(&mut std::iter::once(until));
        assert!(once.0.watchdog_fires > 12, "scans re-fire");
        let mut scans = (1..)
            .map(|k| k * WATCHDOG_NS / 2)
            .take_while(|&t| t <= until);
        assert_eq!(once, run(&mut scans));
        // Calls between scan times change nothing either.
        let odd = (1..)
            .map(|k| k * 7 * MICROSECOND)
            .take_while(|&t| t <= until);
        assert_eq!(once, run(&mut odd.chain([until])));
    }

    #[test]
    fn router_based_predictive_ack_reacts_immediately() {
        let cfg = DrbConfig {
            router_based: true,
            ..DrbConfig::default()
        };
        let mut p = drb_with(AnyTopology::mesh8x8(), PolicyKind::PrDrb, cfg);
        assert_eq!(p.notify_mode(), NotifyMode::Router);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(3), NodeId(60), 0, &mut rng);
        // A router-injected predictive ACK listing our flow.
        let mut a = ack_with_flows(3, 60, 0, 0, &[(3, 60), (4, 59)]);
        if let PacketKind::Ack {
            ref mut from_router,
            ..
        } = a.kind
        {
            *from_router = Some(RouterId(7));
        }
        p.on_ack(&a, 1_000);
        assert_eq!(p.open_paths(NodeId(3), NodeId(60)), 2, "early expansion");
        // Flows we do not originate are ignored.
        let mut b = ack_with_flows(3, 60, 0, 0, &[(9, 50)]);
        if let PacketKind::Ack {
            ref mut from_router,
            ..
        } = b.kind
        {
            *from_router = Some(RouterId(7));
        }
        p.on_ack(&b, 2_000);
        assert_eq!(p.open_paths(NodeId(3), NodeId(60)), 2);
    }

    /// The failure of the wire between adjacent routers `a` and `b`.
    fn wire_down(topo: &AnyTopology, a: RouterId, b: RouterId) -> FaultEvent {
        let port = topo.port_toward(a, b).expect("routers must be adjacent");
        FaultEvent::LinkDown { router: a, port }
    }

    /// The fault view after `events`.
    fn view(topo: &AnyTopology, events: &[FaultEvent]) -> FaultState {
        let mut faults = FaultState::new(topo);
        for e in events {
            faults.apply(topo, e);
        }
        faults
    }

    /// The candidates of flow 0 → 63 (up to 4) that survive `faults`.
    fn live_alts(topo: &AnyTopology, faults: &FaultState) -> Vec<PathDescriptor> {
        AltPathProvider::new(topo)
            .alternatives(NodeId(0), NodeId(63), 4)
            .into_iter()
            .filter(|&d| route_survives(topo, NodeId(0), NodeId(63), d, faults))
            .collect()
    }

    #[test]
    fn faults_prune_metapaths_and_cap_relearning_to_live_paths() {
        let topo = AnyTopology::mesh8x8();
        let mut p = drb(topo.clone(), PolicyKind::Drb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        for i in 0..3u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), i + 1);
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 4);
        // Kill wire a, the first hop of column 0: the YX-order candidate
        // (and any MSP staged through that wire) dies; the XY base
        // survives.
        let m = Mesh2D::new(8, 8);
        let down_a = wire_down(&topo, m.at(0, 0), m.at(0, 1));
        let survivors = live_alts(&topo, &view(&topo, &[down_a])).len();
        assert!(
            (1..4).contains(&survivors),
            "the wire must kill some but not all candidates, got {survivors}"
        );
        p.on_fault(&down_a, 10_000);
        assert_eq!(
            p.open_paths(NodeId(0), NodeId(63)),
            survivors,
            "dead alternatives close at the fault"
        );
        // Re-learning under the exclusion set never reopens dead paths.
        for i in 0..6u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), 11_000 + i);
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), survivors);
        // The policy builds its view event by event: wire b (the last
        // hop into column 7) fails, wire a recovers, and exactly b's
        // candidates stay filtered.
        let down_b = wire_down(&topo, m.at(6, 7), m.at(7, 7));
        let FaultEvent::LinkDown { router, port } = down_a else {
            unreachable!()
        };
        let want = live_alts(&topo, &view(&topo, &[down_b]));
        let both = live_alts(&topo, &view(&topo, &[down_a, down_b]));
        assert!(want.len() < 4 && want != both, "both wires must matter");
        p.on_fault(&down_b, 20_000);
        p.on_fault(&FaultEvent::LinkUp { router, port }, 21_000);
        assert_eq!(p.faults, view(&topo, &[down_b]));
        for i in 0..6u64 {
            p.on_ack(&ack(0, 63, 100 * MICROSECOND, 0), 22_000 + i);
        }
        let fs = p.flows[p.fidx(NodeId(0), NodeId(63))].as_ref().unwrap();
        let open = fs.metapath.entries();
        assert_eq!(open.len(), want.len());
        assert!(open.iter().all(|e| want.contains(&e.descriptor)));
    }

    #[test]
    fn faults_invalidate_saved_solutions_and_the_repaired_set_reapplies() {
        let topo = AnyTopology::mesh8x8();
        let mut p = drb(topo.clone(), PolicyKind::PrDrb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        let pattern = [(0, 63), (1, 62), (2, 61)];
        // Episode 1 teaches a 4-path solution.
        for i in 0..3u64 {
            p.on_ack(
                &ack_with_flows(0, 63, 100 * MICROSECOND, 0, &pattern),
                i + 1,
            );
        }
        for i in 0..4u8 {
            p.on_ack(&ack(0, 63, 60 * MICROSECOND, i), 100);
        }
        assert_eq!(p.stats().patterns_found, 1);
        // The fault cuts the dead MSPs out of the saved entry.
        let m = Mesh2D::new(8, 8);
        let down = wire_down(&topo, m.at(0, 0), m.at(0, 1));
        let survivors = live_alts(&topo, &view(&topo, &[down])).len();
        assert!((2..4).contains(&survivors), "need a repairable entry");
        p.on_fault(&down, 10_000);
        assert_eq!(p.stats().solutions_invalidated, 1);
        // Traffic fades, paths close.
        for i in 0..30u64 {
            for msp in 0..p.open_paths(NodeId(0), NodeId(63)) as u8 {
                p.on_ack(&ack(0, 63, MICROSECOND, msp), 11_000 + i);
            }
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), 1);
        // Episode 2 under the degraded topology: the repaired solution
        // still installs wholesale — warm recovery over live paths only.
        p.on_ack(
            &ack_with_flows(0, 63, 100 * MICROSECOND, 0, &pattern),
            50_000,
        );
        assert_eq!(p.open_paths(NodeId(0), NodeId(63)), survivors);
        assert_eq!(p.stats().reuse_applications, 1);
    }

    #[test]
    fn tree_flows_expand_across_ncas() {
        let mut p = drb(AnyTopology::fat_tree_64(), PolicyKind::Drb);
        let mut rng = SimRng::new(5);
        let _ = p.choose(NodeId(0), NodeId(4), 0, &mut rng);
        for i in 0..5u64 {
            p.on_ack(&ack(0, 4, 100 * MICROSECOND, 0), i + 1);
        }
        // NCA level 1: exactly 4 minimal paths exist.
        assert_eq!(p.open_paths(NodeId(0), NodeId(4)), 4);
        // Same-leaf-switch flow has a single path; expansion is a no-op.
        let _ = p.choose(NodeId(0), NodeId(1), 0, &mut rng);
        for i in 0..3u64 {
            p.on_ack(&ack(0, 1, 100 * MICROSECOND, 0), 100 + i);
        }
        assert_eq!(p.open_paths(NodeId(0), NodeId(1)), 1);
    }
}
