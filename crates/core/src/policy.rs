//! The routing-policy interface and the oblivious baselines.
//!
//! A policy lives at the sources (DRB is a *distributed* source-routing
//! scheme): for every message it chooses the path descriptor the packets
//! will carry, and it digests the ACK notifications coming back. The
//! fabric itself stays policy-agnostic.
//!
//! Baselines used in the evaluation chapter:
//! * **Deterministic** — the topology's fixed minimal route (§4.8);
//! * **Random** — an oblivious uniformly random minimal path (§4.8.4);
//! * **Cyclic** — cyclic-priority rotation over the minimal paths
//!   (§4.8.4).
//!
//! Extension baselines for the low-diameter dragonfly, where the
//! literature's comparison set is different:
//! * **Valiant** — oblivious randomized routing via a per-message
//!   random intermediate terminal (encoded as an MSP, which is
//!   graph-generic);
//! * **UGAL** — source-adaptive minimal-vs-Valiant selection from
//!   ACK-measured latency estimates, the standard adaptive baseline
//!   PR-DRB is pitted against on the dragonfly.

use crate::config::EWMA_ALPHA;
use prdrb_network::{NotifyMode, Packet, PacketKind};
use prdrb_simcore::time::Time;
use prdrb_simcore::SimRng;
use prdrb_topology::{AltPathProvider, AnyTopology, FaultState, NodeId, PathDescriptor};
use std::collections::HashMap;

/// Counters a policy exposes for the evaluation figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyStats {
    /// Path-opening operations (metapath expansions).
    pub expansions: u64,
    /// Path-closing operations.
    pub shrinks: u64,
    /// Distinct congestion patterns saved (Fig 4.26b).
    pub patterns_found: u64,
    /// Patterns matched again at least once.
    pub patterns_reused: u64,
    /// Total saved-solution applications.
    pub reuse_applications: u64,
    /// FR-DRB watchdog expirations.
    pub watchdog_fires: u64,
    /// §5.2 trend-predictor early reactions.
    pub trend_predictions: u64,
    /// Saved solutions discarded because a fault killed one of their
    /// paths (degraded-mode re-learning).
    pub solutions_invalidated: u64,
    /// Solution-store pattern-match scans attempted — the denominator
    /// of the store hit rate (`reuse_applications / store_lookups`).
    pub store_lookups: u64,
    /// Solutions evicted by the store's capacity bound (DESIGN §12's
    /// open-loop stress; distinct from fault invalidation).
    pub store_evictions: u64,
}

impl PolicyStats {
    /// Fraction of solution-store lookups that applied a saved
    /// solution (0 when the store was never consulted).
    pub fn hit_rate(&self) -> f64 {
        if self.store_lookups == 0 {
            0.0
        } else {
            self.reuse_applications as f64 / self.store_lookups as f64
        }
    }
}

/// A source routing policy.
pub trait RoutingPolicy: std::fmt::Debug {
    /// Short name for reports ("deterministic", "drb", "pr-drb", …).
    fn name(&self) -> &'static str;

    /// Whether the fabric should generate destination ACKs.
    fn needs_acks(&self) -> bool {
        false
    }

    /// The congestion-notification scheme the fabric should run.
    fn notify_mode(&self) -> NotifyMode {
        NotifyMode::Off
    }

    /// Choose the path for the next message of flow `src → dst`.
    /// Returns the descriptor and the metapath index it corresponds to.
    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: Time,
        rng: &mut SimRng,
    ) -> (PathDescriptor, u8);

    /// Digest an ACK delivered back at `src` (`ack.dst == src`).
    fn on_ack(&mut self, ack: &Packet, now: Time) {
        let _ = (ack, now);
    }

    /// Periodic tick (FR-DRB watchdog). Called every `tick_interval`.
    fn tick(&mut self, now: Time) {
        let _ = now;
    }

    /// The fault state changed (a link or router failed or recovered).
    /// Oblivious baselines keep their fixed choices — the fabric's
    /// escape-to-minimal divert is their only survival mechanism — but
    /// adaptive policies invalidate whatever they learned over paths
    /// that no longer exist.
    fn on_fault(&mut self, faults: &FaultState, now: Time) {
        let _ = (faults, now);
    }

    /// Requested tick period, if any.
    fn tick_interval(&self) -> Option<Time> {
        None
    }

    /// Evaluation counters.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    /// Install an offline communication profile (§5.2 static variant).
    /// Baseline policies ignore it.
    fn preload_profile(&mut self, profile: &[crate::offline::ProfiledFlow]) {
        let _ = profile;
    }
}

/// Always the same fixed minimal route per source/destination pair:
/// dimension-order on the mesh; on the fat-tree, the single up*/down*
/// path straight up the source's column (the table-routed baseline the
/// evaluation compares against).
#[derive(Debug)]
pub struct Deterministic {
    topo: AnyTopology,
}

impl Deterministic {
    /// Deterministic routing over `topo`.
    pub fn new(topo: AnyTopology) -> Self {
        Self { topo }
    }
}

impl RoutingPolicy for Deterministic {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn choose(
        &mut self,
        src: NodeId,
        _dst: NodeId,
        _now: Time,
        _rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        match &self.topo {
            AnyTopology::Tree(t) => (
                PathDescriptor::TreeSeed {
                    seed: AltPathProvider::tree_det_seed(t, src),
                },
                0,
            ),
            // Mesh DOR; the dragonfly has a single deterministic
            // minimal route already.
            _ => (PathDescriptor::Minimal, 0),
        }
    }
}

/// Oblivious random minimal routing: each source/destination pair draws
/// one random minimal path and keeps it (per-flow, not per-packet — real
/// fabrics pin a path per flow to preserve ordering, e.g. one route per
/// InfiniBand queue pair).
#[derive(Debug)]
pub struct RandomMinimal {
    topo: AnyTopology,
    chosen: HashMap<(NodeId, NodeId), PathDescriptor>,
}

impl RandomMinimal {
    /// Random routing over `topo`.
    pub fn new(topo: AnyTopology) -> Self {
        Self {
            topo,
            chosen: HashMap::new(),
        }
    }
}

impl RoutingPolicy for RandomMinimal {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _now: Time,
        rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        let topo = &self.topo;
        let desc = *self.chosen.entry((src, dst)).or_insert_with(|| match topo {
            AnyTopology::Mesh(_) => {
                if src == dst {
                    PathDescriptor::Minimal
                } else {
                    PathDescriptor::MeshOrder {
                        yx: rng.chance(0.5),
                    }
                }
            }
            AnyTopology::Tree(t) => {
                let n = t.num_minimal_paths(src, dst).max(1) as usize;
                PathDescriptor::TreeSeed {
                    seed: rng.below(n) as u32,
                }
            }
            // Dragonfly routes have one minimal path per pair.
            AnyTopology::Dragonfly(_) => PathDescriptor::Minimal,
        });
        (desc, 0)
    }
}

/// Fully adaptive per-hop routing (the "adaptive" branch of Fig 2.5's
/// taxonomy): routers pick the least-occupied minimal up port during
/// the fat-tree ascent. Provided as an extension baseline beyond the
/// paper's comparison set.
#[derive(Debug)]
pub struct AdaptivePerHop {
    topo: AnyTopology,
}

impl AdaptivePerHop {
    /// Adaptive routing over `topo` (trees only; mesh falls back to the
    /// deterministic route).
    pub fn new(topo: AnyTopology) -> Self {
        Self { topo }
    }
}

impl RoutingPolicy for AdaptivePerHop {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn choose(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _now: Time,
        _rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        match &self.topo {
            // Trees have an ascending phase during which every up port
            // is minimal — safe ground for per-hop adaptivity.
            AnyTopology::Tree(_) => (PathDescriptor::AdaptiveUp, 0),
            // Mesh and dragonfly fall back: unrestricted adaptivity
            // there needs escape channels the fabric doesn't model.
            _ => (PathDescriptor::Minimal, 0),
        }
    }
}

/// Cyclic-priority rotation over the minimal paths of each flow.
#[derive(Debug)]
pub struct CyclicPriority {
    topo: AnyTopology,
    counters: HashMap<(NodeId, NodeId), u32>,
}

impl CyclicPriority {
    /// Cyclic routing over `topo`.
    pub fn new(topo: AnyTopology) -> Self {
        Self {
            topo,
            counters: HashMap::new(),
        }
    }
}

impl RoutingPolicy for CyclicPriority {
    fn name(&self) -> &'static str {
        "cyclic"
    }

    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _now: Time,
        _rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        // Stagger each flow's rotation phase so flows don't march over
        // the same path sequence in lockstep (synchronized rotation
        // recreates the hot-spot it is trying to avoid).
        let c = self
            .counters
            .entry((src, dst))
            .or_insert_with(|| src.0.wrapping_mul(31).wrapping_add(dst.0 * 7));
        let i = *c;
        *c = c.wrapping_add(1);
        match &self.topo {
            AnyTopology::Mesh(_) => {
                if src == dst {
                    (PathDescriptor::Minimal, 0)
                } else {
                    (PathDescriptor::MeshOrder { yx: i % 2 == 1 }, 0)
                }
            }
            AnyTopology::Tree(t) => {
                let n = t.num_minimal_paths(src, dst).max(1) as u32;
                (PathDescriptor::TreeSeed { seed: i % n }, 0)
            }
            // Single minimal path on the dragonfly: the rotation
            // degenerates to the deterministic route.
            _ => (PathDescriptor::Minimal, 0),
        }
    }
}

/// Draw a uniformly random intermediate terminal distinct from both
/// endpoints. The skip mapping keeps the draw rejection-free (exactly
/// one RNG call per message): values `[0, n-2)` are shifted past the
/// two excluded ids in ascending order.
fn random_intermediate(n: u32, src: NodeId, dst: NodeId, rng: &mut SimRng) -> NodeId {
    debug_assert!(n >= 3 && src != dst);
    let (lo, hi) = if src.0 < dst.0 {
        (src.0, dst.0)
    } else {
        (dst.0, src.0)
    };
    let mut v = rng.below((n - 2) as usize) as u32;
    if v >= lo {
        v += 1;
    }
    if v >= hi {
        v += 1;
    }
    NodeId(v)
}

/// Valiant's randomized oblivious routing: every message detours
/// through a fresh uniformly random intermediate terminal, spreading
/// any traffic pattern into two rounds of average-case load. Encoded
/// as `Msp { in1: mid, in2: dst }`, which is valid on every topology
/// (each segment runs the deterministic minimal route).
#[derive(Debug)]
pub struct Valiant {
    topo: AnyTopology,
}

impl Valiant {
    /// Valiant routing over `topo`.
    pub fn new(topo: AnyTopology) -> Self {
        Self { topo }
    }
}

impl RoutingPolicy for Valiant {
    fn name(&self) -> &'static str {
        "valiant"
    }

    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _now: Time,
        rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        use prdrb_topology::Topology;
        let n = self.topo.num_terminals() as u32;
        if src == dst || n < 3 {
            return (PathDescriptor::Minimal, 0);
        }
        let mid = random_intermediate(n, src, dst, rng);
        (PathDescriptor::Msp { in1: mid, in2: dst }, 0)
    }
}

/// UGAL decision offset: the Valiant estimate must beat the minimal
/// estimate by this margin before a flow diverts (hysteresis against
/// flapping on noisy samples; roughly one serialization time).
const UGAL_OFFSET_NS: Time = 1_000;

/// Per-flow UGAL latency estimates, EWMA-folded from destination ACKs.
/// Metapath index 0 tags minimally routed messages, index 1 tags
/// Valiant-routed ones, so the returning ACK tells us which estimate
/// its latency sample belongs to.
#[derive(Debug)]
struct UgalFlow {
    est_min: f64,
    est_val: f64,
}

/// UGAL-style source-adaptive routing: each message goes minimally or
/// via a random Valiant intermediate, whichever the flow's measured
/// latency estimates say is cheaper. The hardware original compares
/// local queue depths (UGAL-L); with source routing the natural
/// congestion sensor is the same ACK latency stream DRB uses, so this
/// is closer to UGAL-G in fidelity while staying fully distributed.
#[derive(Debug)]
pub struct Ugal {
    topo: AnyTopology,
    flows: HashMap<(NodeId, NodeId), UgalFlow>,
    diversions: u64,
}

impl Ugal {
    /// UGAL routing over `topo`. ACK samples fold in with the DRB
    /// family's EWMA weight, so comparisons share one smoothing.
    pub fn new(topo: AnyTopology) -> Self {
        Self {
            topo,
            flows: HashMap::new(),
            diversions: 0,
        }
    }
}

impl RoutingPolicy for Ugal {
    fn name(&self) -> &'static str {
        "ugal"
    }

    fn needs_acks(&self) -> bool {
        true
    }

    fn choose(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _now: Time,
        rng: &mut SimRng,
    ) -> (PathDescriptor, u8) {
        use prdrb_topology::Topology;
        let n = self.topo.num_terminals() as u32;
        if src == dst || n < 3 {
            return (PathDescriptor::Minimal, 0);
        }
        let dist = self.topo.distance(src, dst) as f64;
        let fs = self.flows.entry((src, dst)).or_insert_with(|| UgalFlow {
            // Zero-load priors matching `base_path`'s estimate: Valiant
            // doubles the expected hop count, so flows start minimal
            // and only divert once measurements say otherwise.
            est_min: 4_096.0 + dist * 100.0,
            est_val: 4_096.0 + 2.0 * dist * 100.0,
        });
        let divert = fs.est_min > fs.est_val + UGAL_OFFSET_NS as f64;
        if divert {
            self.diversions += 1;
            let mid = random_intermediate(n, src, dst, rng);
            (PathDescriptor::Msp { in1: mid, in2: dst }, 1)
        } else {
            (PathDescriptor::Minimal, 0)
        }
    }

    fn on_ack(&mut self, ack: &Packet, _now: Time) {
        let PacketKind::Ack {
            data_latency,
            data_msp,
            from_router,
        } = ack.kind
        else {
            debug_assert!(false, "on_ack called with a data packet");
            return;
        };
        // UGAL only consumes destination ACKs; router-injected
        // predictive notifications belong to the DRB family.
        if from_router.is_some() {
            return;
        }
        let (me, flow_dst) = (ack.dst, ack.src); // ACKs travel dst→src
        let Some(fs) = self.flows.get_mut(&(me, flow_dst)) else {
            return;
        };
        let est = if data_msp == 0 {
            &mut fs.est_min
        } else {
            &mut fs.est_val
        };
        *est = (1.0 - EWMA_ALPHA) * *est + EWMA_ALPHA * data_latency as f64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            // Diversions are UGAL's path-opening analogue; surfacing
            // them through `expansions` lets the figures report how
            // often the adaptive baseline actually misroutes.
            expansions: self.diversions,
            ..PolicyStats::default()
        }
    }
}

/// Which policy to instantiate — the x-axis of the POP comparison
/// (Fig 4.27).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Fixed minimal routing.
    Deterministic,
    /// Oblivious random minimal routing.
    Random,
    /// Cyclic-priority rotation.
    Cyclic,
    /// Fully adaptive per-hop routing (extension baseline).
    Adaptive,
    /// Valiant's randomized oblivious routing (extension baseline for
    /// the dragonfly).
    Valiant,
    /// UGAL-style source-adaptive minimal-vs-Valiant selection
    /// (extension baseline for the dragonfly).
    Ugal,
    /// Distributed Routing Balancing (Franco et al.).
    Drb,
    /// Predictive DRB — the paper's contribution.
    PrDrb,
    /// Fast-Response DRB (watchdog-triggered).
    FrDrb,
    /// Predictive Fast-Response DRB.
    PrFrDrb,
}

impl PolicyKind {
    /// All policies compared in the POP experiment (§4.8.4).
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Deterministic,
        PolicyKind::Random,
        PolicyKind::Cyclic,
        PolicyKind::Drb,
        PolicyKind::PrDrb,
        PolicyKind::FrDrb,
        PolicyKind::PrFrDrb,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Deterministic => "deterministic",
            PolicyKind::Random => "random",
            PolicyKind::Cyclic => "cyclic",
            PolicyKind::Adaptive => "adaptive",
            PolicyKind::Valiant => "valiant",
            PolicyKind::Ugal => "ugal",
            PolicyKind::Drb => "drb",
            PolicyKind::PrDrb => "pr-drb",
            PolicyKind::FrDrb => "fr-drb",
            PolicyKind::PrFrDrb => "pr-fr-drb",
        }
    }
}

/// Instantiate a policy over `topo`. `kind` alone selects the DRB
/// variant; DRB-family policies take their tunables from `drb_cfg`.
pub fn make_policy(
    kind: PolicyKind,
    topo: &AnyTopology,
    drb_cfg: crate::config::DrbConfig,
) -> Box<dyn RoutingPolicy> {
    match kind {
        PolicyKind::Deterministic => Box::new(Deterministic::new(topo.clone())),
        PolicyKind::Random => Box::new(RandomMinimal::new(topo.clone())),
        PolicyKind::Cyclic => Box::new(CyclicPriority::new(topo.clone())),
        PolicyKind::Adaptive => Box::new(AdaptivePerHop::new(topo.clone())),
        PolicyKind::Valiant => Box::new(Valiant::new(topo.clone())),
        PolicyKind::Ugal => Box::new(Ugal::new(topo.clone())),
        PolicyKind::Drb | PolicyKind::PrDrb | PolicyKind::FrDrb | PolicyKind::PrFrDrb => {
            Box::new(crate::drb::DrbPolicy::new(topo.clone(), kind, drb_cfg))
        }
    }
}

/// Helper shared by the DRB policy: the original path for a flow plus an
/// initial zero-load latency estimate.
pub(crate) fn base_path(
    topo: &AnyTopology,
    src: NodeId,
    dst: NodeId,
) -> (PathDescriptor, u32, Time) {
    use prdrb_topology::Topology;
    let provider = AltPathProvider::new(topo);
    let alts = provider.alternatives(src, dst, 1);
    let desc = alts.first().copied().unwrap_or(PathDescriptor::Minimal);
    let len = topo.distance(src, dst);
    // Zero-load estimate: one serialization + per-hop pipeline latency.
    let base = 4_096 + (len as Time) * 100;
    (desc, len, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::Topology;

    #[test]
    fn deterministic_is_constant() {
        let mut p = Deterministic::new(AnyTopology::mesh8x8());
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(
                p.choose(NodeId(0), NodeId(9), 0, &mut rng),
                (PathDescriptor::Minimal, 0)
            );
        }
        assert!(!p.needs_acks());
        assert_eq!(p.notify_mode(), NotifyMode::Off);
    }

    #[test]
    fn deterministic_tree_route_is_source_column() {
        let mut p = Deterministic::new(AnyTopology::fat_tree_64());
        let mut rng = SimRng::new(1);
        // All four terminals of one leaf switch share one fixed path
        // family; different leaf switches use different columns.
        let (d0, _) = p.choose(NodeId(0), NodeId(63), 0, &mut rng);
        let (d3, _) = p.choose(NodeId(3), NodeId(63), 0, &mut rng);
        let (d4, _) = p.choose(NodeId(4), NodeId(63), 0, &mut rng);
        assert_eq!(d0, d3, "same leaf switch, same column");
        assert_ne!(d0, d4, "different leaf switch, different column");
        // And the choice never varies per call.
        assert_eq!(p.choose(NodeId(0), NodeId(63), 9, &mut rng).0, d0);
    }

    #[test]
    fn random_is_fixed_per_flow_but_varies_across_flows() {
        let topo = AnyTopology::fat_tree_64();
        let mut p = RandomMinimal::new(topo);
        let mut rng = SimRng::new(2);
        // Same flow: always the same path (per-flow pinning).
        let first = p.choose(NodeId(0), NodeId(63), 0, &mut rng).0;
        for _ in 0..50 {
            assert_eq!(p.choose(NodeId(0), NodeId(63), 0, &mut rng).0, first);
        }
        // Across many flows the seed choices spread over the NCAs.
        let mut seeds = std::collections::HashSet::new();
        for d in 16..64 {
            if let (PathDescriptor::TreeSeed { seed }, _) =
                p.choose(NodeId(0), NodeId(d), 0, &mut rng)
            {
                seeds.insert(seed);
            }
        }
        assert!(
            seeds.len() >= 6,
            "flows should spread over NCAs, got {}",
            seeds.len()
        );
    }

    #[test]
    fn cyclic_rotates_deterministically() {
        let topo = AnyTopology::fat_tree_64();
        let mut p = CyclicPriority::new(topo);
        let mut rng = SimRng::new(3);
        let seeds: Vec<u32> = (0..6)
            .map(|_| match p.choose(NodeId(0), NodeId(4), 0, &mut rng).0 {
                PathDescriptor::TreeSeed { seed } => seed,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seeds, vec![0, 1, 2, 3, 0, 1], "4 paths at NCA level 1");
    }

    #[test]
    fn cyclic_mesh_alternates_orders() {
        let topo = AnyTopology::mesh8x8();
        let mut p = CyclicPriority::new(topo);
        let mut rng = SimRng::new(3);
        let a = p.choose(NodeId(0), NodeId(63), 0, &mut rng).0;
        let b = p.choose(NodeId(0), NodeId(63), 0, &mut rng).0;
        assert_ne!(a, b);
    }

    #[test]
    fn factory_builds_every_kind() {
        let topo = AnyTopology::mesh8x8();
        let acks = [
            PolicyKind::Drb,
            PolicyKind::PrDrb,
            PolicyKind::FrDrb,
            PolicyKind::PrFrDrb,
            PolicyKind::Ugal,
        ];
        for kind in PolicyKind::ALL.into_iter().chain([
            PolicyKind::Adaptive,
            PolicyKind::Valiant,
            PolicyKind::Ugal,
        ]) {
            let p = make_policy(kind, &topo, crate::config::DrbConfig::default());
            assert_eq!(p.name(), kind.label());
            // UGAL needs ACKs without being DRB-family — its congestion
            // sensor is the ACK latency stream.
            assert_eq!(p.needs_acks(), acks.contains(&kind), "{}", kind.label());
        }
    }

    #[test]
    fn baselines_fall_back_to_minimal_on_the_dragonfly() {
        let mut rng = SimRng::new(7);
        let topo = AnyTopology::dragonfly72();
        for kind in [
            PolicyKind::Deterministic,
            PolicyKind::Random,
            PolicyKind::Cyclic,
        ] {
            let mut p = make_policy(kind, &topo, crate::config::DrbConfig::default());
            assert_eq!(
                p.choose(NodeId(0), NodeId(71), 0, &mut rng).0,
                PathDescriptor::Minimal,
                "{}",
                kind.label()
            );
        }
        // Per-hop adaptivity falls back to minimal on the dragonfly (no
        // escape channels).
        let mut df = AdaptivePerHop::new(AnyTopology::dragonfly72());
        assert_eq!(
            df.choose(NodeId(0), NodeId(71), 0, &mut rng).0,
            PathDescriptor::Minimal
        );
    }

    #[test]
    fn valiant_detours_vary_per_message_and_stay_valid() {
        use prdrb_topology::walk_route;
        let topo = AnyTopology::dragonfly72();
        let mut p = Valiant::new(topo.clone());
        let mut rng = SimRng::new(11);
        let (src, dst) = (NodeId(0), NodeId(8)); // group 0 -> group 1
        let mut mids = std::collections::HashSet::new();
        for _ in 0..64 {
            let (desc, i) = p.choose(src, dst, 0, &mut rng);
            assert_eq!(i, 0);
            let PathDescriptor::Msp { in1, in2 } = desc else {
                panic!("valiant should emit an MSP, got {desc:?}");
            };
            assert_eq!(in2, dst);
            assert_ne!(in1, src);
            assert_ne!(in1, dst);
            let walk = walk_route(&topo, src, dst, desc, 64).unwrap();
            assert_eq!(
                walk.len() as u32 - 1,
                topo.distance(src, in1) + topo.distance(in1, dst),
                "Eq 3.2 segment-sum length"
            );
            mids.insert(in1);
        }
        assert!(
            mids.len() >= 16,
            "per-message randomization should spread intermediates, got {}",
            mids.len()
        );
        // Degenerate flows stay minimal.
        assert_eq!(
            p.choose(dst, dst, 0, &mut rng),
            (PathDescriptor::Minimal, 0)
        );
    }

    #[test]
    fn random_intermediate_never_hits_the_endpoints() {
        let mut rng = SimRng::new(13);
        // Adjacent, extreme and far-apart endpoint ids all stay clear.
        for (s, d) in [(0u32, 1u32), (0, 9), (8, 9), (4, 5), (9, 0)] {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..400 {
                let m = random_intermediate(10, NodeId(s), NodeId(d), &mut rng);
                assert_ne!(m.0, s);
                assert_ne!(m.0, d);
                assert!(m.0 < 10);
                seen.insert(m.0);
            }
            assert_eq!(seen.len(), 8, "draw should cover all 8 candidates");
        }
    }

    #[test]
    fn ugal_diverts_when_minimal_estimate_degrades_and_recovers() {
        fn ack(src_of_flow: u32, dst_of_flow: u32, latency: Time, msp: u8) -> Packet {
            Packet {
                id: 0,
                src: NodeId(dst_of_flow), // ACKs travel dst→src
                dst: NodeId(src_of_flow),
                size: 64,
                created: 0,
                nic_depart: 0,
                route: prdrb_topology::RouteState::new(PathDescriptor::Minimal),
                msp_index: 0,
                path_latency: 0,
                hops: 0,
                kind: PacketKind::Ack {
                    data_latency: latency,
                    data_msp: msp,
                    from_router: None,
                },
                predictive: None,
                queued_at: 0,
                decided_port: None,
            }
        }

        let topo = AnyTopology::dragonfly72();
        let mut p = Ugal::new(topo);
        let mut rng = SimRng::new(17);
        let (src, dst) = (NodeId(0), NodeId(8));
        // Fresh flow: priors favor the minimal route.
        assert_eq!(
            p.choose(src, dst, 0, &mut rng),
            (PathDescriptor::Minimal, 0)
        );
        assert_eq!(p.stats().expansions, 0);
        // The minimal path congests: high-latency samples flip the flow
        // onto Valiant detours (metapath index 1).
        for _ in 0..4 {
            p.on_ack(&ack(0, 8, 200_000, 0), 0);
        }
        let (desc, i) = p.choose(src, dst, 0, &mut rng);
        assert!(matches!(desc, PathDescriptor::Msp { .. }), "got {desc:?}");
        assert_eq!(i, 1);
        assert_eq!(p.stats().expansions, 1);
        // Minimal drains again while the detour stays slow: the flow
        // returns to minimal routing.
        for _ in 0..8 {
            p.on_ack(&ack(0, 8, 5_000, 0), 0);
            p.on_ack(&ack(0, 8, 150_000, 1), 0);
        }
        assert_eq!(
            p.choose(src, dst, 0, &mut rng),
            (PathDescriptor::Minimal, 0)
        );
        // Router-injected predictive ACKs are ignored (not UGAL's
        // sensor), as are ACKs for flows we never originated.
        let mut router_ack = ack(0, 8, 900_000, 0);
        router_ack.kind = PacketKind::Ack {
            data_latency: 900_000,
            data_msp: 0,
            from_router: Some(prdrb_topology::RouterId(3)),
        };
        p.on_ack(&router_ack, 0);
        p.on_ack(&ack(5, 9, 900_000, 0), 0);
        assert_eq!(
            p.choose(src, dst, 0, &mut rng),
            (PathDescriptor::Minimal, 0)
        );
    }

    #[test]
    fn adaptive_descriptor_per_topology() {
        let mut rng = SimRng::new(1);
        let mut tree = AdaptivePerHop::new(AnyTopology::fat_tree_64());
        assert_eq!(
            tree.choose(NodeId(0), NodeId(63), 0, &mut rng).0,
            PathDescriptor::AdaptiveUp
        );
        let mut mesh = AdaptivePerHop::new(AnyTopology::mesh8x8());
        assert_eq!(
            mesh.choose(NodeId(0), NodeId(63), 0, &mut rng).0,
            PathDescriptor::Minimal,
            "mesh falls back: unrestricted mesh adaptivity needs escape VCs"
        );
    }

    #[test]
    fn base_path_estimates_scale_with_distance() {
        let topo = AnyTopology::mesh8x8();
        let (_, l1, b1) = base_path(&topo, NodeId(0), NodeId(1));
        let (_, l2, b2) = base_path(&topo, NodeId(0), NodeId(63));
        assert!(l2 > l1);
        assert!(b2 > b1);
        assert_eq!(l2, topo.distance(NodeId(0), NodeId(63)));
    }
}
