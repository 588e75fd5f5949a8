//! Phase detection — the PAS2P-like repetitiveness analysis (§2.2.5,
//! Table 2.2).
//!
//! Parallel applications are loops of computation + communication; PAS2P
//! extracts "representative phases" and their *weights* (repetition
//! counts). We reproduce the analysis on logical traces:
//!
//! 1. split every rank's stream into **segments** at collective
//!    boundaries (collectives are natural global phase markers — the
//!    thesis' own phase figures end at `MPI_Allreduce`/`MPI_Wait`
//!    clusters);
//! 2. fingerprint each global segment by hashing its communication
//!    structure across ranks (call type, peer, byte volume — not timing);
//! 3. count distinct fingerprints (total phases) and how often each
//!    repeats (weights). Phases repeating at least [`RELEVANT_MIN`]
//!    times are *relevant* — those are the ones PR-DRB can learn from.

use crate::trace::{Trace, TraceEvent};
use prdrb_simcore::hash::StableHasher;
use std::collections::HashMap;

/// Minimum weight for a phase to count as relevant.
pub const RELEVANT_MIN: u64 = 2;

/// One detected phase class.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Fingerprint of the communication structure.
    pub signature: u64,
    /// How many times the phase occurred (Table 2.2 "weight").
    pub weight: u64,
    /// Point-to-point messages per occurrence.
    pub messages: usize,
}

/// Result of the phase analysis.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// All distinct phases.
    pub phases: Vec<Phase>,
}

impl PhaseReport {
    /// Total distinct phases (Table 2.2 column 2).
    pub fn total_phases(&self) -> usize {
        self.phases.len()
    }

    /// Phases repeated at least [`RELEVANT_MIN`] times (column 3).
    pub fn relevant_phases(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.weight >= RELEVANT_MIN)
            .count()
    }

    /// Summed weight of the relevant phases (column 4).
    pub fn total_weight(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.weight >= RELEVANT_MIN)
            .map(|p| p.weight)
            .sum()
    }
}

/// Fingerprint of one event (structure only — no timing): a kind tag,
/// then the event's fields, each widened to `u64`.
fn hash_event(rank: usize, e: &TraceEvent, h: &mut StableHasher) {
    let rank = rank as u64;
    let mut put = |tag: u8, fields: &[u64]| {
        h.write_u8(tag);
        fields.iter().for_each(|&f| h.write_u64(f));
    };
    match *e {
        TraceEvent::Compute { .. } => {} // timing-free
        TraceEvent::Send { dst, bytes, .. } | TraceEvent::Isend { dst, bytes, .. } => {
            put(0, &[rank, dst.into(), bytes.into()])
        }
        TraceEvent::Recv { src, .. } | TraceEvent::Irecv { src, .. } => put(1, &[rank, src.into()]),
        TraceEvent::Wait | TraceEvent::Waitall => put(2, &[rank]),
        TraceEvent::Allreduce { bytes } => put(3, &[bytes.into()]),
        TraceEvent::Reduce { root, bytes } => put(4, &[root.into(), bytes.into()]),
        TraceEvent::Bcast { root, bytes } => put(5, &[root.into(), bytes.into()]),
        TraceEvent::Barrier => put(6, &[]),
    }
}

/// Analyze a trace (with collectives still present) into phases.
pub fn analyze_phases(trace: &Trace) -> PhaseReport {
    // Walk all ranks in lockstep between collective boundaries. Ranks
    // may interleave differently, but the segment *content* per rank
    // between collective k and k+1 is well defined.
    let mut cursors: Vec<usize> = vec![0; trace.num_ranks()];
    let mut counts: HashMap<u64, (u64, usize)> = HashMap::new();
    loop {
        let mut h = StableHasher::new();
        let mut messages = 0usize;
        let mut any = false;
        for (rank, evs) in trace.ranks.iter().enumerate() {
            let c = &mut cursors[rank];
            while *c < evs.len() {
                let e = &evs[*c];
                *c += 1;
                any = true;
                if e.is_collective() {
                    hash_event(rank, e, &mut h);
                    break; // segment boundary for this rank
                }
                hash_event(rank, e, &mut h);
                if matches!(e, TraceEvent::Send { .. } | TraceEvent::Isend { .. }) {
                    messages += 1;
                }
            }
        }
        if !any {
            break;
        }
        let sig = h.finish();
        let entry = counts.entry(sig).or_insert((0, messages));
        entry.0 += 1;
    }
    let mut phases: Vec<Phase> = counts
        .into_iter()
        .map(|(signature, (weight, messages))| Phase {
            signature,
            weight,
            messages,
        })
        .collect();
    phases.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.signature.cmp(&b.signature)));
    PhaseReport { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{lammps, nas_mg, pop, LammpsProblem, NasClass};
    use crate::trace::Trace;

    /// A trace whose body repeats an identical phase `reps` times.
    fn repetitive_trace(reps: usize) -> Trace {
        let mut t = Trace::new("loop", 4);
        for _ in 0..reps {
            for r in 0..4u32 {
                let peer = (r + 1) % 4;
                t.push(
                    r,
                    TraceEvent::Send {
                        dst: peer,
                        bytes: 256,
                        tag: 1,
                    },
                );
                t.push(
                    r,
                    TraceEvent::Recv {
                        src: (r + 3) % 4,
                        tag: 1,
                    },
                );
            }
            t.push_all(TraceEvent::Allreduce { bytes: 8 });
        }
        t
    }

    #[test]
    fn identical_loop_iterations_collapse_to_one_phase() {
        let report = analyze_phases(&repetitive_trace(50));
        assert_eq!(report.total_phases(), 1);
        assert_eq!(report.relevant_phases(), 1);
        assert_eq!(report.total_weight(), 50);
    }

    #[test]
    fn distinct_phases_are_separated() {
        let mut t = repetitive_trace(10);
        // One different phase: a bigger message ring.
        for r in 0..4u32 {
            t.push(
                r,
                TraceEvent::Send {
                    dst: (r + 2) % 4,
                    bytes: 9999,
                    tag: 2,
                },
            );
            t.push(
                r,
                TraceEvent::Recv {
                    src: (r + 2) % 4,
                    tag: 2,
                },
            );
        }
        t.push_all(TraceEvent::Barrier);
        let report = analyze_phases(&t);
        assert_eq!(report.total_phases(), 2);
        assert_eq!(
            report.relevant_phases(),
            1,
            "the one-shot phase is not relevant"
        );
        assert_eq!(report.total_weight(), 10);
    }

    #[test]
    fn compute_durations_do_not_affect_signatures() {
        let mut a = repetitive_trace(5);
        let mut b = repetitive_trace(5);
        a.push(0, TraceEvent::Compute { ns: 1 });
        b.push(0, TraceEvent::Compute { ns: 999_999 });
        let ra = analyze_phases(&a);
        let rb = analyze_phases(&b);
        assert_eq!(
            ra.phases.iter().map(|p| p.signature).collect::<Vec<_>>(),
            rb.phases.iter().map(|p| p.signature).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_apps_show_repetitive_structure() {
        // The thesis' Table 2.2 core claim: real codes have few distinct
        // phases repeated many times. Our generators must reproduce
        // that.
        for (t, min_weight) in [
            (nas_mg(NasClass::A, 64), 5u64),
            (lammps(LammpsProblem::Chain, 64), 20),
            (pop(64, 24), 20),
        ] {
            let r = analyze_phases(&t);
            assert!(r.relevant_phases() >= 1, "{}: no relevant phase", t.name);
            assert!(
                r.total_weight() >= min_weight,
                "{}: weight {} < {min_weight}",
                t.name,
                r.total_weight()
            );
        }
    }

    #[test]
    fn empty_trace_has_no_phases() {
        let t = Trace::new("empty", 4);
        let r = analyze_phases(&t);
        assert_eq!(r.total_phases(), 0);
        assert_eq!(r.total_weight(), 0);
    }

    #[test]
    fn phase_messages_counted_per_occurrence() {
        let r = analyze_phases(&repetitive_trace(3));
        assert_eq!(r.phases[0].messages, 4, "4 ranks × 1 send each");
    }
}
