//! Phase-structured mini-app loops (DESIGN §12).
//!
//! A mini-app iterates a fixed sequence of communication phases —
//! stencil exchange, transpose, reduction, compute-quiet — and that
//! *repetition across iterations* is the best case for PR-DRB's saved
//! solutions: the pattern observed in iteration `k`'s transpose phase
//! recurs verbatim in iteration `k + 1`, so a stored metapath
//! configuration whose pattern similarity clears the paper's ~80 %
//! threshold re-applies without re-exploring. A [`PhaseProgram`] is the
//! time-indexed schedule; the engine drives per-node injection from
//! [`PhaseProgram::at`] exactly as it does for [`crate::bursty`]
//! schedules, and each run report carries solution-store hits and
//! expansions phase by phase.

use crate::patterns::TrafficPattern;
use prdrb_simcore::time::Time;

/// One communication phase of the loop body.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Stable name for reports ("stencil", "transpose", ...).
    pub label: &'static str,
    /// Spatial pattern driven during the phase.
    pub pattern: TrafficPattern,
    /// Per-node injection rate (Mbps). 0 models a compute phase.
    pub mbps: f64,
    /// Phase length (simulated ns, must be ≥ 1).
    pub duration_ns: Time,
}

/// A mini-app loop: `phases` in order, repeated `iterations` times.
#[derive(Debug, Clone)]
pub struct PhaseProgram {
    /// The loop body.
    pub phases: Vec<PhaseSpec>,
    /// How many times the body repeats (must be ≥ 1).
    pub iterations: u32,
}

impl PhaseProgram {
    /// Construct, validating shape.
    pub fn new(phases: Vec<PhaseSpec>, iterations: u32) -> Self {
        assert!(!phases.is_empty(), "a phase program needs phases");
        assert!(iterations >= 1, "a phase program needs >= 1 iterations");
        assert!(
            phases.iter().all(|p| p.duration_ns >= 1),
            "phase durations must be >= 1 ns"
        );
        Self { phases, iterations }
    }

    /// The canonical mini-app preset used by the `wl_phases` target: a
    /// stencil halo exchange, a matrix transpose, an all-ranks shuffle
    /// (reduction stand-in), and a compute-quiet gap, `iterations`
    /// times. `phase_ns` scales every phase uniformly.
    pub fn mini_app(iterations: u32, phase_ns: Time, mbps: f64) -> Self {
        Self::new(
            vec![
                PhaseSpec {
                    label: "stencil",
                    pattern: TrafficPattern::Neighbor,
                    mbps,
                    duration_ns: phase_ns,
                },
                PhaseSpec {
                    label: "transpose",
                    pattern: TrafficPattern::Transpose,
                    mbps,
                    duration_ns: phase_ns,
                },
                PhaseSpec {
                    label: "shuffle",
                    pattern: TrafficPattern::Shuffle,
                    mbps,
                    duration_ns: phase_ns,
                },
                PhaseSpec {
                    label: "compute",
                    pattern: TrafficPattern::Uniform,
                    mbps: mbps * 0.05,
                    duration_ns: phase_ns,
                },
            ],
            iterations,
        )
    }

    /// Length of one loop iteration.
    pub fn period_ns(&self) -> Time {
        self.phases.iter().map(|p| p.duration_ns).sum()
    }

    /// Length of the whole program.
    pub fn total_ns(&self) -> Time {
        self.period_ns() * self.iterations as Time
    }

    /// The phase in force at `t`: `(global phase index, spec)`, or
    /// `None` once the program has completed. The global index is
    /// `iteration * phases.len() + position` — the index of the run
    /// report's per-phase counts, so hit rates can be compared across
    /// iterations of the *same* position.
    pub fn at(&self, t: Time) -> Option<(u32, &PhaseSpec)> {
        if t >= self.total_ns() {
            return None;
        }
        let period = self.period_ns();
        let iter = (t / period) as u32;
        let mut into = t % period;
        for (pos, p) in self.phases.iter().enumerate() {
            if into < p.duration_ns {
                return Some((iter * self.phases.len() as u32 + pos as u32, p));
            }
            into -= p.duration_ns;
        }
        unreachable!("into < period implies a phase matches");
    }

    /// Start time of global phase `g` (for scheduling phase-boundary
    /// work); `None` past the end.
    pub fn phase_start_ns(&self, g: u32) -> Option<Time> {
        let np = self.phases.len() as u32;
        if g >= np * self.iterations {
            return None;
        }
        let iter = (g / np) as Time;
        let pos = (g % np) as usize;
        let into: Time = self.phases[..pos].iter().map(|p| p.duration_ns).sum();
        Some(iter * self.period_ns() + into)
    }

    /// Total number of global phases.
    pub fn num_phases(&self) -> u32 {
        self.phases.len() as u32 * self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> PhaseProgram {
        PhaseProgram::new(
            vec![
                PhaseSpec {
                    label: "a",
                    pattern: TrafficPattern::Transpose,
                    mbps: 400.0,
                    duration_ns: 1_000,
                },
                PhaseSpec {
                    label: "b",
                    pattern: TrafficPattern::Uniform,
                    mbps: 40.0,
                    duration_ns: 3_000,
                },
            ],
            3,
        )
    }

    #[test]
    fn period_and_total() {
        let p = two_phase();
        assert_eq!(p.period_ns(), 4_000);
        assert_eq!(p.total_ns(), 12_000);
        assert_eq!(p.num_phases(), 6);
    }

    #[test]
    fn at_walks_phases_and_iterations() {
        let p = two_phase();
        let (g, s) = p.at(0).unwrap();
        assert_eq!((g, s.label), (0, "a"));
        let (g, s) = p.at(999).unwrap();
        assert_eq!((g, s.label), (0, "a"));
        let (g, s) = p.at(1_000).unwrap();
        assert_eq!((g, s.label), (1, "b"));
        let (g, s) = p.at(4_000).unwrap();
        assert_eq!((g, s.label), (2, "a"), "iteration 1 restarts the body");
        let (g, s) = p.at(11_999).unwrap();
        assert_eq!((g, s.label), (5, "b"));
        assert!(p.at(12_000).is_none(), "program over");
    }

    #[test]
    fn phase_starts_invert_at() {
        let p = two_phase();
        for g in 0..p.num_phases() {
            let t = p.phase_start_ns(g).unwrap();
            let (got, _) = p.at(t).unwrap();
            assert_eq!(got, g, "at(phase_start({g}))");
            if t > 0 {
                let (prev, _) = p.at(t - 1).unwrap();
                assert_eq!(prev, g - 1, "boundary is half-open");
            }
        }
        assert_eq!(p.phase_start_ns(6), None);
    }

    #[test]
    fn mini_app_preset_shape() {
        let p = PhaseProgram::mini_app(5, 200_000, 400.0);
        assert_eq!(p.phases.len(), 4);
        assert_eq!(p.num_phases(), 20);
        assert_eq!(p.total_ns(), 4 * 200_000 * 5);
        // Compute phase is near-quiet.
        assert!(p.phases[3].mbps < p.phases[0].mbps * 0.1);
        // Same position in different iterations replays the pattern.
        let (_, first) = p.at(0).unwrap();
        let (_, again) = p.at(p.period_ns()).unwrap();
        assert_eq!(first.label, again.label);
        assert_eq!(first.pattern.label(), again.pattern.label());
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_program_rejected() {
        PhaseProgram::new(vec![], 1);
    }
}
