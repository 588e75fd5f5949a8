//! # pr-drb — Predictive and Distributed Routing Balancing
//!
//! A full reproduction of *"Predictive and Distributed Routing Balancing
//! for High Speed Interconnection Networks"* (IEEE CLUSTER 2011): the
//! PR-DRB source routing policy, the DRB / FR-DRB baselines, a
//! from-scratch interconnection-network simulator (mesh and k-ary n-tree
//! fat-trees, virtual cut-through routers with credit flow control), the
//! synthetic and application workloads of the evaluation chapter, and a
//! harness regenerating every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use pr_drb::prelude::*;
//!
//! // Fat-tree, 32 communicating nodes, shuffle traffic at 400 Mbps/node
//! // (the setup of Fig 4.13), under PR-DRB.
//! let schedule = BurstSchedule::repetitive(
//!     TrafficPattern::Shuffle, 400.0, 200_000, 100_000);
//! let mut cfg = SimConfig::synthetic(
//!     TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
//! cfg.duration_ns = 500_000; // keep the doctest quick
//! let report = pr_drb::engine::run(cfg);
//! assert_eq!(report.offered, report.accepted); // lossless network
//! ```
//!
//! The crates re-exported below each own one subsystem; see `DESIGN.md`
//! for the full inventory and the experiment index.

#![forbid(unsafe_code)]

pub use prdrb_apps as apps;
pub use prdrb_core as core;
pub use prdrb_engine as engine;
pub use prdrb_metrics as metrics;
pub use prdrb_network as network;
pub use prdrb_simcore as simcore;
pub use prdrb_topology as topology;
pub use prdrb_traffic as traffic;

/// Everything needed to configure and run simulations.
pub mod prelude {
    pub use prdrb_apps::{
        lammps, nas_ft, nas_lu, nas_mg, pop, smg2000, sweep3d, CollectiveKind, CollectiveSpec,
        LammpsProblem, NasClass, ScheduleShape, Trace,
    };
    pub use prdrb_core::{DrbConfig, PolicyKind, Similarity};
    pub use prdrb_engine::{run, run_replicas, RunReport, SimConfig, TopologyKind, Workload};
    pub use prdrb_metrics::{render_series, LatencyMap, SeriesSummary};
    pub use prdrb_network::{MonitorConfig, NetworkConfig, NotifyMode};
    pub use prdrb_simcore::time::{MICROSECOND, MILLISECOND, SECOND};
    pub use prdrb_topology::{AnyTopology, NodeId, Topology};
    pub use prdrb_traffic::{
        BurstSchedule, HotSpotScenario, OpenLoopSpec, PhaseSpec, TrafficPattern,
    };
}
