//! Simulation configuration.

use prdrb_apps::{lower_collectives, CollectiveSpec, Trace};
use prdrb_core::{DrbConfig, PolicyKind};
use prdrb_network::NetworkConfig;
use prdrb_simcore::time::{Time, MILLISECOND};
use prdrb_topology::{AnyTopology, Dragonfly, FaultPlan, KAryNTree, Mesh2D, NodeId};
use prdrb_traffic::{BurstSchedule, OpenLoopSpec};
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
    /// A palm-tree-wired dragonfly: `a` groups of `r` fully connected
    /// routers with `h` global ports each (global links carry the
    /// GLOBAL wire class and pay the inter-group delay).
    Dragonfly {
        /// Groups.
        a: u32,
        /// Routers per group.
        r: u32,
        /// Global ports (and terminals) per router.
        h: u32,
    },
}

impl TopologyKind {
    /// Build the topology.
    pub fn build(self) -> AnyTopology {
        match self {
            TopologyKind::Mesh8x8 => AnyTopology::mesh8x8(),
            TopologyKind::FatTree443 => AnyTopology::fat_tree_64(),
            TopologyKind::Mesh { w, h } => AnyTopology::Mesh(Mesh2D::new(w, h)),
            TopologyKind::Tree { k, n } => AnyTopology::Tree(KAryNTree::new(k, n)),
            TopologyKind::Dragonfly { a, r, h } => AnyTopology::Dragonfly(Dragonfly::new(a, r, h)),
        }
    }
}

/// The workload driving the simulation.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Synthetic traffic: the first `active_nodes` terminals inject per
    /// the schedule ("32 communicating nodes" uses 32 of 64), and the
    /// report attributes solution-store activity to the schedule's
    /// global phases ([`crate::RunReport::phase_counts`]).
    Synthetic {
        /// Injection schedule: a loop of phases, each with its own
        /// pattern and rate, repeated until `duration_ns`.
        schedule: BurstSchedule,
        /// Number of injecting terminals.
        active_nodes: usize,
        /// Message size in bytes.
        msg_bytes: u32,
    },
    /// Fixed flow set (hot-spot scenarios of §4.5) plus optional noise.
    /// The run lowers each hot flow to a constant hot-spot schedule and
    /// each noise node to a constant uniform one.
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
    /// content-addressed like any other, and replays the same events at
    /// the same simulated times on every run.
    pub faults: FaultPlan,
    /// Ignored: no code reads this field, and it is excluded from the
    /// cache key. Sharded (conservative-window) fabric execution was
    /// removed; its output was byte-identical to serial, so ignoring
    /// the count changes no result. The field stays only because the
    /// benchmark crate still sets it, and goes when the benchmark stops
    /// setting it.
    pub shards: u32,
    /// Ignored: no code reads this field, and it is excluded from the
    /// cache key. Optimistic (checkpoint/rollback) shard execution was
    /// removed; its output was byte-identical to serial, so ignoring
    /// the flag changes no result. The field stays only because the
    /// benchmark crate still sets it, and goes when the benchmark stops
    /// setting it.
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
        let workload = Workload::Synthetic {
            schedule,
            active_nodes,
            msg_bytes: 1024,
        };
        Self::base(topology, policy, workload)
    }

    /// The defaults every preset starts from: Tables 4.2/4.3 tunables,
    /// seed 1 and the synthetic-run time window.
    fn base(topology: TopologyKind, policy: PolicyKind, workload: Workload) -> Self {
        Self {
            label: String::new(),
            topology,
            policy,
            drb: DrbConfig::default(),
            net: NetworkConfig::default(),
            workload,
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

    /// A synthetic run of exactly `iterations` passes over the
    /// schedule's loop body (a mini-app loop, DESIGN §12): the run's
    /// `duration_ns` is `iterations` schedule periods.
    pub fn looped(
        topology: TopologyKind,
        policy: PolicyKind,
        schedule: BurstSchedule,
        active_nodes: usize,
        iterations: u64,
    ) -> Self {
        let duration_ns = iterations * schedule.period_ns();
        Self {
            duration_ns,
            ..Self::synthetic(topology, policy, schedule, active_nodes)
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

    /// An open-loop arrival run with the synthetic-run time window.
    pub fn open_loop(
        topology: TopologyKind,
        policy: PolicyKind,
        spec: OpenLoopSpec,
        active_nodes: usize,
    ) -> Self {
        Self::base(topology, policy, Workload::OpenLoop { spec, active_nodes })
    }

    /// A trace-replay run (§4.8 application experiments). The trace's
    /// collectives are lowered here, once per configuration.
    pub fn trace(topology: TopologyKind, policy: PolicyKind, trace: Trace) -> Self {
        let workload = Workload::Trace(Arc::new(lower_collectives(&trace)));
        Self {
            label: trace.name.clone(),
            duration_ns: Time::MAX / 4,
            max_ns: 30_000 * MILLISECOND,
            series_bucket_ns: 100_000,
            ..Self::base(topology, policy, workload)
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
        assert_eq!(
            TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }
                .build()
                .num_terminals(),
            72
        );
    }

    #[test]
    fn synthetic_preset_matches_tables() {
        let cfg = SimConfig::synthetic(
            TopologyKind::FatTree443,
            PolicyKind::Drb,
            BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0),
            32,
        );
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
