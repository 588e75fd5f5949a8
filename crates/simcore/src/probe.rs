//! Typed probe points — the compile-time-selectable telemetry layer.
//!
//! The evaluation chapter's figures are built from *always-on*
//! instrumentation (the contention series, `FabricStats`, the policy
//! counters): those feed the run reports and participate in the golden
//! digests, so they can never be optional. Everything else — queue-wait
//! distributions per router, arbitration step counts, link occupancy at
//! transmit time, solution-store hit/evict traffic — is diagnostic, and
//! diagnostics must cost nothing when they are not being asked for.
//!
//! The contract (DESIGN §11):
//!
//! * Probe *sites* are written with [`probe_value!`] / [`probe_count!`].
//!   The macros expand to a block whose only statement is gated on
//!   `#[cfg(feature = "probes")]` **of the crate containing the call
//!   site**, so with the feature off the expansion is empty — no branch,
//!   no argument evaluation, no code at all. Zero overhead is by
//!   construction, not by measurement.
//! * With the feature on, every sample folds into a process-wide
//!   registry keyed by `(kind, entity)`. The registry is an observer:
//!   nothing in the simulation ever reads it back, so enabling probes
//!   cannot perturb results — golden digests stay bit-identical (pinned
//!   by a probes-on test in `prdrb-network`).
//! * [`snapshot`] returns the accumulated rows in a deterministic
//!   (kind, entity) order for the structured exporter in
//!   `prdrb-metrics::export`.
//!
//! This module itself always compiles (it is a few dozen lines and has
//! no hot-path cost of its own); only the *call sites* are feature-
//! gated. That keeps the registry API available to exporters without
//! `cfg` contortions in every downstream crate.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// What a probe sample measures. The discriminant order is the export
/// order, so adding kinds at the end keeps existing exports stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbeKind {
    /// Input-queue wait beyond the fixed routing delay (ns), per router.
    QueueWait,
    /// Output-queue wait at link transmission (ns), per router.
    OutputWait,
    /// Arbitration steps consumed by one route tick, per router.
    ArbSteps,
    /// Output-queue occupancy (bytes) at transmit time, per
    /// `(router << 8) | port` entity.
    LinkOccupancy,
    /// Solution-store lookup that matched and was applied.
    SolutionHit,
    /// New pattern saved into the solution store.
    SolutionStore,
    /// Solution-store entries touched by one fault invalidation.
    SolutionEvict,
    /// Run-cache replay served from disk.
    CacheHit,
    /// Run-cache lookup that had to simulate.
    CacheMiss,
    /// Solution-store entry evicted to respect the capacity bound
    /// (distinct from [`ProbeKind::SolutionEvict`], which counts fault
    /// invalidations).
    SolutionCapacityEvict,
    /// Saved-solution application attributed to a workload phase
    /// (entity = global phase index).
    PhaseSolutionHit,
    /// Metapath expansion attributed to a workload phase (entity =
    /// global phase index).
    PhaseExpansion,
}

impl ProbeKind {
    /// Every kind, in export order.
    pub const ALL: [ProbeKind; 12] = [
        ProbeKind::QueueWait,
        ProbeKind::OutputWait,
        ProbeKind::ArbSteps,
        ProbeKind::LinkOccupancy,
        ProbeKind::SolutionHit,
        ProbeKind::SolutionStore,
        ProbeKind::SolutionEvict,
        ProbeKind::CacheHit,
        ProbeKind::CacheMiss,
        ProbeKind::SolutionCapacityEvict,
        ProbeKind::PhaseSolutionHit,
        ProbeKind::PhaseExpansion,
    ];

    /// Stable export name (snake_case, used in CSV/JSON schemas).
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::QueueWait => "queue_wait_ns",
            ProbeKind::OutputWait => "output_wait_ns",
            ProbeKind::ArbSteps => "arb_steps",
            ProbeKind::LinkOccupancy => "link_occupancy_bytes",
            ProbeKind::SolutionHit => "solution_hit",
            ProbeKind::SolutionStore => "solution_store",
            ProbeKind::SolutionEvict => "solution_evict",
            ProbeKind::CacheHit => "cache_hit",
            ProbeKind::CacheMiss => "cache_miss",
            ProbeKind::SolutionCapacityEvict => "solution_cap_evict",
            ProbeKind::PhaseSolutionHit => "phase_solution_hit",
            ProbeKind::PhaseExpansion => "phase_expansion",
        }
    }
}

/// Running aggregate of one `(kind, entity)` stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Accum {
    count: u64,
    sum: f64,
    max: f64,
}

/// One exported registry row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// What was measured.
    pub kind: ProbeKind,
    /// Which entity measured it (router id, packed router/port, or 0
    /// for process-wide counters).
    pub entity: u64,
    /// Samples folded in.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Largest sample value.
    pub max: f64,
}

impl ProbeRow {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<(ProbeKind, u64), Accum>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<(ProbeKind, u64), Accum>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Fold one sample into the registry. Call sites should go through
/// [`probe_value!`] / [`probe_count!`] so the call compiles away with
/// the feature off.
pub fn record(kind: ProbeKind, entity: u64, value: f64) {
    let mut reg = registry().lock().expect("probe registry poisoned");
    let a = reg.entry((kind, entity)).or_default();
    a.count += 1;
    a.sum += value;
    if value > a.max {
        a.max = value;
    }
}

/// The accumulated rows, sorted by `(kind, entity)` — deterministic for
/// a deterministic simulation, so probe exports are reproducible.
pub fn snapshot() -> Vec<ProbeRow> {
    registry()
        .lock()
        .expect("probe registry poisoned")
        .iter()
        .map(|(&(kind, entity), a)| ProbeRow {
            kind,
            entity,
            count: a.count,
            sum: a.sum,
            max: a.max,
        })
        .collect()
}

/// Drop every accumulated sample (between runs / tests).
pub fn reset() {
    registry().lock().expect("probe registry poisoned").clear();
}

/// Record a valued probe sample. Expands to nothing — arguments
/// unevaluated — unless the **calling** crate is compiled with its
/// `probes` feature; `$entity` and `$value` are cast with `as`, so any
/// integer/float expression works at the site.
#[macro_export]
macro_rules! probe_value {
    ($kind:ident, $entity:expr, $value:expr) => {{
        #[cfg(feature = "probes")]
        {
            $crate::probe::record(
                $crate::probe::ProbeKind::$kind,
                ($entity) as u64,
                ($value) as f64,
            );
        }
    }};
}

/// Record a unit-valued probe event (pure counter).
#[macro_export]
macro_rules! probe_count {
    ($kind:ident, $entity:expr) => {
        $crate::probe_value!($kind, $entity, 1.0)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn on purpose: the registry is process-global and the
    // test harness is multi-threaded, so splitting these asserts across
    // tests would race on reset().
    #[test]
    fn registry_accumulates_snapshots_and_resets() {
        reset();
        record(ProbeKind::QueueWait, 3, 2.0);
        record(ProbeKind::QueueWait, 3, 4.0);
        record(ProbeKind::CacheHit, 0, 1.0);
        let rows = snapshot();
        assert_eq!(rows.len(), 2);
        // BTreeMap order: QueueWait < CacheHit by discriminant.
        assert_eq!(rows[0].kind, ProbeKind::QueueWait);
        assert_eq!(rows[0].entity, 3);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].sum, 6.0);
        assert_eq!(rows[0].max, 4.0);
        assert_eq!(rows[0].mean(), 3.0);
        assert_eq!(rows[1].kind, ProbeKind::CacheHit);
        assert_eq!(rows[1].count, 1);
        // The macros compile in this crate iff the feature is on; either
        // way they must be syntactically valid at an expression site.
        probe_value!(ArbSteps, 7u32, 5u64);
        probe_count!(SolutionHit, 0);
        reset();
        assert!(snapshot().is_empty());
        // Names are stable export identifiers.
        for k in ProbeKind::ALL {
            assert!(!k.name().is_empty());
        }
    }
}
