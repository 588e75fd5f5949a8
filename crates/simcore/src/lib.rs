//! # prdrb-simcore — discrete-event simulation kernel
//!
//! The substrate underneath the PR-DRB interconnection-network simulator.
//! The paper evaluated PR-DRB on OPNET Modeler's discrete-event engine
//! (thesis §4.1); this crate is the from-scratch replacement: a deterministic
//! event calendar, simulated time, seeded random streams and the incremental
//! statistics the evaluation chapter defines (Eq. 4.1 / 4.2).
//!
//! Design notes (per the HPC-parallel guides):
//! * the event queue is a binary heap of `(Time, seq)`-ordered entries —
//!   ties in time are broken by insertion order so a run is a pure function
//!   of `(configuration, seed)`;
//! * the kernel is single-threaded; parallelism lives one level up, where
//!   independent seeded replicas are fanned out with rayon.

#![forbid(unsafe_code)]

pub mod event;
pub mod hash;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventEntry, EventQueue, QueueKind};
pub use hash::StableHasher;
pub use probe::{ProbeKind, ProbeRow};
pub use rng::SimRng;
pub use stats::{Histogram, RunningMean, TimeSeries};
pub use time::{Time, MICROSECOND, MILLISECOND, NANOSECOND, SECOND};
