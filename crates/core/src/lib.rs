//! # prdrb-core — Predictive and Distributed Routing Balancing
//!
//! The paper's primary contribution: the **PR-DRB** source routing
//! policy, together with the **DRB** baseline it extends and the
//! **FR-DRB** fast-response variant it composes with (§4.8.4).
//!
//! The pieces, following Chapter 3 of the thesis:
//!
//! * [`metapath`] — the set of alternative multi-step paths per flow,
//!   Eq 3.4 aggregate latency and Eq 3.6 probabilistic path selection;
//! * [`zones`] — the Low/Medium/High latency zones and the
//!   metapath-configuration FSM (Figs 3.9, 3.12);
//! * [`solutions`] — the predictive database mapping contending-flow
//!   patterns to saved path sets with 80 % approximate matching
//!   (§3.2.8, Fig 3.14);
//! * [`drb`] — the unified DRB/PR-DRB/FR-DRB policy;
//! * [`policy`] — the policy trait plus the deterministic / random /
//!   cyclic oblivious baselines of the evaluation.

#![forbid(unsafe_code)]

pub mod config;
pub mod drb;
pub mod metapath;
pub mod offline;
pub mod policy;
pub mod solutions;
pub mod trend;
pub mod zones;

pub use config::{DrbConfig, Similarity};
pub use drb::DrbPolicy;
pub use metapath::{Metapath, MspEntry};
pub use offline::{heavy_flows, predicted_contenders, preload, ProfiledFlow};
pub use policy::{
    make_policy, AdaptivePerHop, CyclicPriority, Deterministic, PolicyKind, PolicyStats,
    RandomMinimal, RoutingPolicy,
};
pub use solutions::{normalize, similarity, Solution, SolutionDb};
pub use trend::TrendDetector;
pub use zones::{Transition, Zone, ZoneTracker};

#[cfg(test)]
mod test_util {
    use prdrb_network::Packet;
    use prdrb_simcore::time::Time;
    use prdrb_topology::{NodeId, PathDescriptor, RouteState};

    /// The destination ACK of flow `src → dst` (it travels `dst → src`)
    /// carrying a `latency` sample for metapath entry `msp`, built the
    /// way the fabric builds it.
    pub(crate) fn ack(src: u32, dst: u32, latency: Time, msp: u8) -> Packet {
        let route = RouteState::new(PathDescriptor::Minimal);
        let (s, d) = (NodeId(src), NodeId(dst));
        let mut data = Packet::data(0, s, d, 1024, 0, route, msp, 0, 0, true, true);
        Packet::ack_for(&mut data, 0, latency, 64)
    }
}
