//! Injection schedules: a loop of communication phases (§2.2.3,
//! Fig 2.6, DESIGN §12).
//!
//! HPC traffic alternates computation (low uniform background load) with
//! communication bursts, and that loop repeats. A [`BurstSchedule`] is
//! the loop body — phases in order, each with its own pattern and rate —
//! repeated until the run's injection window closes. The shapes in use:
//!
//! * **fixed-pattern bursts** (Fig 2.6a, [`BurstSchedule::repetitive`]):
//!   a burst, then a gap of low uniform background; every burst replays
//!   the same permutation — the repetitive case PR-DRB learns from;
//! * **variable-pattern bursts** (Fig 2.6b): bodies that chain several
//!   burst/gap pairs, so the pattern changes each burst (task migration
//!   / data-dependent communication) — the stress case where a
//!   predictive policy must not hurt;
//! * **continuous load** ([`BurstSchedule::continuous`]): one phase that
//!   never ends;
//! * **mini-app loops** ([`BurstSchedule::mini_app`]): stencil
//!   exchange, transpose, reduction and compute phases. The pattern seen
//!   in iteration `k`'s transpose phase recurs verbatim in iteration
//!   `k + 1`, so a stored solution re-applies without re-exploring.
//!
//! Phases are numbered globally, `iteration * phases.len() + position`;
//! the engine reports solution-store hits and expansions per global
//! phase.

use crate::patterns::TrafficPattern;
use prdrb_simcore::time::Time;

/// One communication phase of a schedule's loop body.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Stable name for reports ("burst", "transpose", ...).
    pub label: &'static str,
    /// Spatial pattern driven during the phase.
    pub pattern: TrafficPattern,
    /// Per-node injection rate (Mbps). 0 models a compute phase.
    pub mbps: f64,
    /// Phase length (simulated ns, must be ≥ 1).
    pub duration_ns: Time,
}

impl PhaseSpec {
    /// A phase that never ends: the body of a constant schedule.
    pub fn steady(pattern: TrafficPattern, mbps: f64) -> Self {
        Self {
            label: "steady",
            pattern,
            mbps,
            duration_ns: Time::MAX,
        }
    }
}

/// A periodic injection schedule: `phases` in order, repeated for as
/// long as the run injects.
#[derive(Debug, Clone)]
pub struct BurstSchedule {
    /// The loop body.
    pub phases: Vec<PhaseSpec>,
}

impl BurstSchedule {
    /// Construct, validating shape.
    pub fn new(phases: Vec<PhaseSpec>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs phases");
        assert!(
            phases.iter().all(|p| p.duration_ns >= 1),
            "phase durations must be >= 1 ns"
        );
        Self { phases }
    }

    /// The repetitive-burst workload of the hot-spot evaluation
    /// (Table 4.2): `on_ns` of `pattern` bursts at `high_mbps`, then
    /// `off_ns` of uniform background at a tenth of that rate.
    pub fn repetitive(pattern: TrafficPattern, high_mbps: f64, on_ns: Time, off_ns: Time) -> Self {
        Self::new(vec![
            PhaseSpec {
                label: "burst",
                pattern,
                mbps: high_mbps,
                duration_ns: on_ns,
            },
            PhaseSpec {
                label: "gap",
                pattern: TrafficPattern::Uniform,
                mbps: high_mbps * 0.1,
                duration_ns: off_ns,
            },
        ])
    }

    /// Continuous (non-bursty) injection at a fixed rate — the permanent
    /// permutation load of §4.6.3. Its one phase never ends.
    pub fn continuous(pattern: TrafficPattern, mbps: f64) -> Self {
        Self::new(vec![PhaseSpec::steady(pattern, mbps)])
    }

    /// The canonical mini-app loop of the `wl_phases` target: a stencil
    /// halo exchange, a matrix transpose, an all-ranks shuffle
    /// (reduction stand-in) and a compute-quiet gap, each `phase_ns`
    /// long.
    pub fn mini_app(phase_ns: Time, mbps: f64) -> Self {
        let phase = |label, pattern, mbps| PhaseSpec {
            label,
            pattern,
            mbps,
            duration_ns: phase_ns,
        };
        Self::new(vec![
            phase("stencil", TrafficPattern::Neighbor, mbps),
            phase("transpose", TrafficPattern::Transpose, mbps),
            phase("shuffle", TrafficPattern::Shuffle, mbps),
            phase("compute", TrafficPattern::Uniform, mbps * 0.05),
        ])
    }

    /// Length of one loop iteration.
    pub fn period_ns(&self) -> Time {
        span(&self.phases)
    }

    /// The phase in force at `t`: `(global phase index, spec)`.
    pub fn at(&self, t: Time) -> (u64, &PhaseSpec) {
        phase_at(&self.phases, t)
    }

    /// Start time of global phase `g` (saturating at `Time::MAX`).
    pub fn phase_start_ns(&self, g: u64) -> Time {
        phase_start_ns(&self.phases, g)
    }
}

/// [`BurstSchedule::at`] over a loop body stored elsewhere, which must
/// hold what [`BurstSchedule::new`] checks.
pub fn phase_at(body: &[PhaseSpec], t: Time) -> (u64, &PhaseSpec) {
    let period = span(body);
    let iter = t / period;
    let mut into = t % period;
    for (pos, p) in body.iter().enumerate() {
        if into < p.duration_ns {
            return (iter * body.len() as u64 + pos as u64, p);
        }
        into -= p.duration_ns;
    }
    unreachable!("into < period implies a phase matches");
}

/// [`BurstSchedule::phase_start_ns`] over a loop body stored elsewhere.
pub fn phase_start_ns(body: &[PhaseSpec], g: u64) -> Time {
    let np = body.len() as u64;
    let into = span(&body[..(g % np) as usize]);
    (g / np).saturating_mul(span(body)).saturating_add(into)
}

/// Total length of `phases`, saturating at `Time::MAX`.
fn span(phases: &[PhaseSpec]) -> Time {
    phases
        .iter()
        .fold(0, |sum: Time, p| sum.saturating_add(p.duration_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> BurstSchedule {
        BurstSchedule::repetitive(TrafficPattern::Shuffle, 400.0, 1_000, 3_000)
    }

    #[test]
    fn repetitive_bursts_over_a_low_background() {
        let s = two_phase();
        assert_eq!(s.period_ns(), 4_000);
        let (g, p) = s.at(0);
        assert_eq!((g, p.label, p.mbps), (0, "burst", 400.0));
        assert_eq!(p.pattern.label(), "shuffle");
        let (g, p) = s.at(999);
        assert_eq!((g, p.label), (0, "burst"));
        let (g, p) = s.at(1_000);
        assert_eq!((g, p.label, p.mbps), (1, "gap", 400.0 * 0.1));
        assert_eq!(p.pattern.label(), "uniform");
        let (g, p) = s.at(4_000);
        assert_eq!((g, p.label), (2, "burst"), "iteration 1 restarts the body");
        let (g, p) = s.at(11_999);
        assert_eq!((g, p.label), (5, "gap"));
    }

    #[test]
    fn phase_starts_invert_at() {
        let s = two_phase();
        for g in 0..6 {
            let t = s.phase_start_ns(g);
            assert_eq!(s.at(t).0, g, "at(phase_start({g}))");
            if t > 0 {
                assert_eq!(s.at(t - 1).0, g - 1, "boundary is half-open");
            }
        }
    }

    #[test]
    fn chained_bursts_change_pattern_per_burst() {
        let phases = [TrafficPattern::Shuffle, TrafficPattern::BitReversal]
            .into_iter()
            .flat_map(|p| BurstSchedule::repetitive(p, 400.0, 1_000, 3_000).phases)
            .collect();
        let s = BurstSchedule::new(phases);
        assert_eq!(s.at(600).1.pattern.label(), "shuffle"); // burst 0
        assert_eq!(s.at(4_600).1.pattern.label(), "bit-reversal"); // burst 1
        assert_eq!(s.at(8_600).1.pattern.label(), "shuffle"); // burst 2 wraps
    }

    #[test]
    fn continuous_never_pauses() {
        let s = BurstSchedule::continuous(TrafficPattern::Transpose, 600.0);
        for t in [0u64, 1_000_000, 1_000_000_000] {
            let (g, p) = s.at(t);
            assert_eq!((g, p.mbps), (0, 600.0));
            assert_eq!(p.pattern.label(), "transpose");
        }
        assert_eq!(s.phase_start_ns(1), Time::MAX);
    }

    #[test]
    fn mini_app_preset_shape() {
        let s = BurstSchedule::mini_app(200_000, 400.0);
        assert_eq!(s.phases.len(), 4);
        assert_eq!(s.period_ns(), 4 * 200_000);
        // Compute phase is near-quiet.
        assert!(s.phases[3].mbps < s.phases[0].mbps * 0.1);
        // Same position in different iterations replays the pattern.
        let (g0, first) = s.at(0);
        let (g1, again) = s.at(s.period_ns());
        assert_eq!((g0, g1), (0, 4));
        assert_eq!(first.label, again.label);
        assert_eq!(first.pattern.label(), again.pattern.label());
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_schedule_rejected() {
        BurstSchedule::new(vec![]);
    }
}
