//! # prdrb-traffic — synthetic workloads
//!
//! The workload side of the evaluation (§4.4):
//!
//! * [`patterns`] — the systematic permutation benchmarks of Table 4.1
//!   (bit reversal, perfect shuffle, matrix transpose) plus uniform
//!   random traffic;
//! * [`bursty`] — injection schedules: a loop of phases, each with its
//!   own pattern and rate — the bursts over a uniform background of
//!   Fig 2.6, continuous load and the mini-app loops the solution store
//!   is built to learn;
//! * [`hotspot`] — the specific colliding-path scenarios of §4.5 used to
//!   analyze the path-opening procedures (Figs 4.8/4.9);
//! * [`openloop`] + [`sampler`] — Poisson arrivals with bounded-Pareto
//!   flow sizes over deterministic splitmix64 streams, the aperiodic
//!   stress case for solution-DB capacity and matching cost.

#![forbid(unsafe_code)]

pub mod bursty;
pub mod hotspot;
pub mod openloop;
pub mod patterns;
pub mod sampler;

pub use bursty::{BurstSchedule, PhaseSpec};
pub use hotspot::HotSpotScenario;
pub use openloop::OpenLoopSpec;
pub use patterns::TrafficPattern;
pub use sampler::{exp_gap_ns, BoundedPareto};
