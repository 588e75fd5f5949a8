//! Simulation configuration.

use prdrb_apps::{lower_collectives, CollectiveSpec, Trace};
use prdrb_core::{DrbConfig, PolicyKind};
use prdrb_network::NetworkConfig;
use prdrb_simcore::time::{Time, MILLISECOND};
use prdrb_topology::{AnyTopology, Dragonfly, FaultPlan, KAryNTree, Megafly, Mesh2D, NodeId};
use prdrb_traffic::{BurstSchedule, OpenLoopSpec, PhaseProgram};
use std::sync::Arc;

/// Which topology to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The 8×8 mesh of Table 4.2.
    Mesh8x8,
    /// The 4-ary 3-tree (64 terminals) of Table 4.3.
    FatTree443,
    /// An arbitrary mesh.
    Mesh {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
    },
    /// An arbitrary k-ary n-tree.
    Tree {
        /// Arity.
        k: u32,
        /// Levels.
        n: u32,
    },
    /// A mesh assembled from boards of `board_h` rows: links crossing a
    /// board seam are global-class wires, so a partition that cuts only
    /// seams gets the full inter-board delay as lookahead
    /// (`NetworkConfig::wire_class_extra_ns`).
    BoardMesh {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
        /// Rows per board.
        board_h: u32,
    },
    /// A palm-tree-wired dragonfly: `a` groups of `r` fully connected
    /// routers with `h` global ports each (global links carry the
    /// GLOBAL wire class, so shard cuts along group boundaries get the
    /// inter-group delay as lookahead).
    Dragonfly {
        /// Groups.
        a: u32,
        /// Routers per group.
        r: u32,
        /// Global ports (and terminals) per router.
        h: u32,
    },
    /// A megafly / dragonfly+: `a` groups, each a two-level fat tree of
    /// `l` leaves and `s` spines; spines own `h` global ports each.
    Megafly {
        /// Groups.
        a: u32,
        /// Leaf routers per group.
        l: u32,
        /// Spine routers per group.
        s: u32,
        /// Global ports per spine.
        h: u32,
    },
}

/// The named topology instances the `repro` CLI accepts via `--topo`
/// and `print_shard_plans` iterates — one table so the CLI surface and
/// the builders can never drift apart.
pub const NAMED_TOPOLOGIES: [(&str, TopologyKind); 4] = [
    ("mesh8x8", TopologyKind::Mesh8x8),
    ("fattree443", TopologyKind::FatTree443),
    ("dragonfly72", TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }),
    (
        "megafly20",
        TopologyKind::Megafly {
            a: 5,
            l: 2,
            s: 2,
            h: 2,
        },
    ),
];

impl TopologyKind {
    /// Build the topology.
    pub fn build(self) -> AnyTopology {
        match self {
            TopologyKind::Mesh8x8 => AnyTopology::mesh8x8(),
            TopologyKind::FatTree443 => AnyTopology::fat_tree_64(),
            TopologyKind::Mesh { w, h } => AnyTopology::Mesh(Mesh2D::new(w, h)),
            TopologyKind::Tree { k, n } => AnyTopology::Tree(KAryNTree::new(k, n)),
            TopologyKind::BoardMesh { w, h, board_h } => {
                AnyTopology::Mesh(Mesh2D::with_boards(w, h, board_h))
            }
            TopologyKind::Dragonfly { a, r, h } => AnyTopology::Dragonfly(Dragonfly::new(a, r, h)),
            TopologyKind::Megafly { a, l, s, h } => AnyTopology::Megafly(Megafly::new(a, l, s, h)),
        }
    }

    /// The canonical name of this kind in [`NAMED_TOPOLOGIES`], if it
    /// is one of the named instances.
    pub fn name(self) -> Option<&'static str> {
        NAMED_TOPOLOGIES
            .iter()
            .find(|(_, k)| *k == self)
            .map(|(n, _)| *n)
    }

    /// Look up a named instance (`repro --topo` parsing).
    pub fn parse(name: &str) -> Option<TopologyKind> {
        NAMED_TOPOLOGIES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, k)| *k)
    }
}

/// The workload driving the simulation.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Synthetic traffic: the first `active_nodes` terminals inject per
    /// the schedule ("32 communicating nodes" uses 32 of 64).
    Synthetic {
        /// Injection schedule (rate + pattern over time).
        schedule: BurstSchedule,
        /// Number of injecting terminals.
        active_nodes: usize,
        /// Message size in bytes.
        msg_bytes: u32,
    },
    /// Fixed flow set (hot-spot scenarios of §4.5) plus optional noise.
    Flows {
        /// The deliberate flows.
        flows: Vec<(NodeId, NodeId)>,
        /// Injection rate per hot flow (Mbps).
        mbps: f64,
        /// Noise sources injecting uniform traffic.
        noise_nodes: Vec<NodeId>,
        /// Noise rate (Mbps).
        noise_mbps: f64,
        /// Message size in bytes.
        msg_bytes: u32,
    },
    /// Replay a point-to-point logical trace, rank `r` on the `r`-th
    /// NIC. The trace holds no collectives: [`SimConfig::trace`] and
    /// [`SimConfig::collective`] lower them when the run is configured
    /// (`prdrb_apps::collectives`), and the player rejects any left.
    Trace(Arc<Trace>),
    /// Phase-structured mini-app loop: the first `active_nodes`
    /// terminals inject per the phase in force, and per-phase
    /// solution-store probes attribute policy activity to global phase
    /// indices (the `probes` feature).
    Phased {
        /// The phase sequence and iteration count.
        program: PhaseProgram,
        /// Number of injecting terminals.
        active_nodes: usize,
        /// Message size in bytes.
        msg_bytes: u32,
    },
    /// Open-loop arrivals: Poisson flow arrivals with bounded-Pareto
    /// sizes, one deterministic sampler substream per source — the
    /// aperiodic stressor for solution-store capacity and matching.
    OpenLoop {
        /// Arrival/size process parameters.
        spec: OpenLoopSpec,
        /// Number of injecting terminals.
        active_nodes: usize,
    },
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Run label for reports.
    pub label: String,
    /// Topology.
    pub topology: TopologyKind,
    /// Source routing policy.
    pub policy: PolicyKind,
    /// DRB-family tunables.
    pub drb: DrbConfig,
    /// Physical network parameters.
    pub net: NetworkConfig,
    /// Workload.
    pub workload: Workload,
    /// Master seed (replicas vary this, §4.3).
    pub seed: u64,
    /// End of injection for synthetic workloads (traces run to
    /// completion).
    pub duration_ns: Time,
    /// Hard wall for the whole simulation (drain bound / trace safety).
    pub max_ns: Time,
    /// Bucket width of the global latency series.
    pub series_bucket_ns: Time,
    /// Offline communication profile to preload into predictive
    /// policies (§5.2 static variant); empty = fully dynamic.
    pub preload_profile: Vec<prdrb_core::ProfiledFlow>,
    /// Deterministic fault schedule (timed link-down/link-up and
    /// router-down events). Part of the run's identity: a faulted run is
    /// content-addressed like any other, and every shard of a sharded
    /// run replays the same events at the same simulated times.
    pub faults: FaultPlan,
    /// Fabric execution shards (conservative windows). `1` runs the
    /// serial fabric; `K > 1` partitions the topology into K shards
    /// advanced one after another with bit-identical results — a
    /// determinism cross-check that costs 1.1–1.5× the serial wall
    /// time, not part of the run's identity (excluded from the cache
    /// key).
    /// Trace workloads (collective runs included — they are traces
    /// too) and zero-latency links always run serial.
    pub shards: u32,
    /// Optimistic shard execution (checkpoint/rollback speculation
    /// past the conservative window, `network::SpecConfig::default()`
    /// tuning). Only meaningful with `shards > 1`; committed results
    /// stay bit-identical to serial, so — like [`Self::shards`] — this
    /// is an execution knob excluded from the cache key.
    pub speculate: bool,
}

impl SimConfig {
    /// A synthetic run with the defaults of Tables 4.2/4.3.
    pub fn synthetic(
        topology: TopologyKind,
        policy: PolicyKind,
        schedule: BurstSchedule,
        active_nodes: usize,
    ) -> Self {
        Self {
            label: String::new(),
            topology,
            policy,
            drb: DrbConfig::default(),
            net: NetworkConfig::default(),
            workload: Workload::Synthetic {
                schedule,
                active_nodes,
                msg_bytes: 1024,
            },
            seed: 1,
            duration_ns: 2 * MILLISECOND,
            max_ns: 400 * MILLISECOND,
            series_bucket_ns: 50_000,
            preload_profile: Vec::new(),
            faults: FaultPlan::none(),
            shards: 1,
            speculate: false,
        }
    }

    /// A collective workload run (DESIGN §12): `iterations` repetitions
    /// of `spec` with a 50 µs compute gap between them, lowered to a
    /// point-to-point trace and run to completion like one.
    pub fn collective(
        topology: TopologyKind,
        policy: PolicyKind,
        spec: CollectiveSpec,
        iterations: u32,
    ) -> Self {
        Self::trace(topology, policy, spec.lower(iterations, 50_000))
    }

    /// A mini-app phase-loop run: injection ends with the program.
    pub fn phased(
        topology: TopologyKind,
        policy: PolicyKind,
        program: PhaseProgram,
        active_nodes: usize,
    ) -> Self {
        let duration_ns = program.total_ns();
        Self {
            label: String::new(),
            topology,
            policy,
            drb: DrbConfig::default(),
            net: NetworkConfig::default(),
            workload: Workload::Phased {
                program,
                active_nodes,
                msg_bytes: 1024,
            },
            seed: 1,
            duration_ns,
            max_ns: 400 * MILLISECOND,
            series_bucket_ns: 50_000,
            preload_profile: Vec::new(),
            faults: FaultPlan::none(),
            shards: 1,
            speculate: false,
        }
    }

    /// An open-loop arrival run with the synthetic-run time window.
    pub fn open_loop(
        topology: TopologyKind,
        policy: PolicyKind,
        spec: OpenLoopSpec,
        active_nodes: usize,
    ) -> Self {
        Self {
            label: String::new(),
            topology,
            policy,
            drb: DrbConfig::default(),
            net: NetworkConfig::default(),
            workload: Workload::OpenLoop { spec, active_nodes },
            seed: 1,
            duration_ns: 2 * MILLISECOND,
            max_ns: 400 * MILLISECOND,
            series_bucket_ns: 50_000,
            preload_profile: Vec::new(),
            faults: FaultPlan::none(),
            shards: 1,
            speculate: false,
        }
    }

    /// A trace-replay run (§4.8 application experiments). The trace's
    /// collectives are lowered here, once per configuration.
    pub fn trace(topology: TopologyKind, policy: PolicyKind, trace: Trace) -> Self {
        Self {
            label: trace.name.clone(),
            topology,
            policy,
            drb: DrbConfig::default(),
            net: NetworkConfig::default(),
            workload: Workload::Trace(Arc::new(lower_collectives(&trace))),
            seed: 1,
            duration_ns: Time::MAX / 4,
            max_ns: 30_000 * MILLISECOND,
            series_bucket_ns: 100_000,
            preload_profile: Vec::new(),
            faults: FaultPlan::none(),
            shards: 1,
            speculate: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_apps::{nas_mg, CollectiveKind, NasClass, ScheduleShape};
    use prdrb_topology::Topology;
    use prdrb_traffic::TrafficPattern;

    #[test]
    fn topology_kinds_build() {
        assert_eq!(TopologyKind::Mesh8x8.build().num_terminals(), 64);
        assert_eq!(TopologyKind::FatTree443.build().num_terminals(), 64);
        assert_eq!(TopologyKind::Mesh { w: 4, h: 2 }.build().num_terminals(), 8);
        assert_eq!(TopologyKind::Tree { k: 2, n: 3 }.build().num_terminals(), 8);
        let boarded = TopologyKind::BoardMesh {
            w: 4,
            h: 12,
            board_h: 4,
        }
        .build();
        assert_eq!(boarded.num_terminals(), 48);
        assert!(boarded.label().contains("boards"));
        assert_eq!(
            TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }
                .build()
                .num_terminals(),
            72
        );
        assert_eq!(
            TopologyKind::Megafly {
                a: 5,
                l: 2,
                s: 2,
                h: 2
            }
            .build()
            .num_terminals(),
            20
        );
    }

    #[test]
    fn named_topologies_round_trip() {
        for (name, kind) in NAMED_TOPOLOGIES {
            assert_eq!(kind.name(), Some(name));
            assert_eq!(TopologyKind::parse(name), Some(kind));
            // Each named instance must actually build.
            assert!(kind.build().num_terminals() > 0);
        }
        assert_eq!(TopologyKind::parse("nosuch"), None);
        assert_eq!(TopologyKind::Mesh { w: 3, h: 3 }.name(), None);
    }

    #[test]
    fn synthetic_preset_matches_tables() {
        let cfg = SimConfig::synthetic(
            TopologyKind::FatTree443,
            PolicyKind::Drb,
            BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0),
            32,
        );
        assert_eq!(cfg.net.link_gbps, 2.0);
        assert_eq!(cfg.net.packet_bytes, 1024);
        match cfg.workload {
            Workload::Synthetic { active_nodes, .. } => assert_eq!(active_nodes, 32),
            _ => panic!(),
        }
    }

    #[test]
    fn trace_workloads_are_point_to_point_by_construction() {
        let raw = nas_mg(NasClass::S, 8);
        assert!(raw.ranks.iter().flatten().any(|e| e.is_collective()));
        let cfg = SimConfig::trace(TopologyKind::FatTree443, PolicyKind::PrDrb, raw.clone());
        let Workload::Trace(trace) = &cfg.workload else {
            panic!("a trace run holds a trace workload");
        };
        assert!(trace.ranks.iter().flatten().all(|e| !e.is_collective()));
        let lowered = lower_collectives(&raw);
        assert_eq!(trace.name, lowered.name);
        assert_eq!(trace.ranks, lowered.ranks);

        let spec = CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, 8, 4096);
        let cfg = SimConfig::collective(TopologyKind::FatTree443, PolicyKind::PrDrb, spec, 3);
        assert_eq!(cfg.label, "allreduce-tree-8rx3");
        let Workload::Trace(trace) = &cfg.workload else {
            panic!("a collective run holds a trace workload");
        };
        assert_eq!(trace.name, cfg.label);
        assert_eq!(trace.ranks, spec.lower(3, 50_000).ranks);
    }
}
