//! # prdrb-apps — parallel-application workloads
//!
//! The application side of the evaluation (§2.2, §4.7, §4.8): an
//! MPI-like logical trace model, synthetic generators reproducing the
//! published characteristics of the thesis' applications (NAS LU/MG/FT,
//! LAMMPS chain/comb, POP, Sweep3D, SMG2000), MPI-style collective
//! schedules (DESIGN §12), the one collective lowering that turns every
//! workload into a point-to-point trace for the player,
//! communication-matrix extraction (Figs 2.10–2.13),
//! the MPI call breakdown (Table 2.1) and PAS2P-like phase detection
//! (Table 2.2).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod breakdown;
pub mod collectives;
pub mod commmatrix;
pub mod generators;
pub mod phases;
pub mod trace;

pub use analysis::{Assessment, Suitability};
pub use breakdown::{call_breakdown, render_table, CallBreakdown};
pub use collectives::{
    check_exactly_once, lower_collectives, CollMsg, CollectiveKind, CollectiveSpec, ScheduleShape,
    COLLECTIVE_TAG_BASE,
};
pub use commmatrix::CommMatrix;
pub use generators::{
    grid2d, grid3d, lammps, nas_ft, nas_lu, nas_mg, pop, smg2000, sweep3d, LammpsProblem, NasClass,
};
pub use phases::{analyze_phases, Phase, PhaseReport};
pub use trace::{Rank, Trace, TraceEvent};
