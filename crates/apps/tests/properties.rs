//! Property-based tests of the application substrate: every generator
//! yields matched, replayable traces for arbitrary rank counts, the
//! collective lowering is always balanced, and every collective
//! schedule delivers each rank's contribution exactly once for
//! randomized rank counts and payloads.

use prdrb_apps::{
    analyze_phases, check_exactly_once, lammps, lower_collectives, nas_ft, nas_lu, nas_mg, pop,
    smg2000, sweep3d, CollectiveKind, CollectiveSpec, LammpsProblem, NasClass, ScheduleShape,
    Trace, TraceEvent,
};
use proptest::prelude::*;

fn class_strategy() -> impl Strategy<Value = NasClass> {
    prop_oneof![Just(NasClass::S), Just(NasClass::A)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generator produces a trace whose point-to-point operations
    /// are exactly matched, for any rank count.
    #[test]
    fn generators_always_matched(ranks in 2usize..40, which in 0usize..8, class in class_strategy()) {
        let t = match which {
            0 => nas_lu(class, ranks),
            1 => nas_mg(class, ranks),
            2 => nas_ft(class, ranks.min(16)),
            3 => lammps(LammpsProblem::Chain, ranks),
            4 => lammps(LammpsProblem::Comb, ranks),
            5 => pop(ranks, 3),
            6 => sweep3d(ranks),
            _ => smg2000(ranks),
        };
        prop_assert!(t.check_matched().is_ok(), "{}: {:?}", t.name, t.check_matched());
        prop_assert!(!t.is_empty());
    }

    /// Lowering removes every collective and preserves matching, for
    /// any rank count (including non-powers-of-two) and any root.
    #[test]
    fn lowering_is_balanced(n in 2usize..50, root in 0u32..50, bytes in 1u32..100_000) {
        let root = root % n as u32;
        let mut t = Trace::new("prop", n);
        t.push_all(TraceEvent::Bcast { root, bytes });
        t.push_all(TraceEvent::Reduce { root, bytes });
        t.push_all(TraceEvent::Allreduce { bytes });
        t.push_all(TraceEvent::Barrier);
        let l = lower_collectives(&t);
        prop_assert!(l.check_matched().is_ok());
        prop_assert!(l.ranks.iter().flatten().all(|e| !e.is_collective()));
        // Bcast and reduce each send n-1 messages; allreduce 2(n-1);
        // barrier 2(n-1).
        let sends = l
            .ranks
            .iter()
            .flatten()
            .filter(|e| matches!(e, TraceEvent::Send { .. } | TraceEvent::Isend { .. }))
            .count();
        prop_assert_eq!(sends, 6 * (n - 1));
    }

    /// Phase analysis conserves the total: weights of all phases sum to
    /// the number of segments, and signatures are stable across calls.
    #[test]
    fn phase_analysis_is_deterministic(ranks in 2usize..24, steps in 1usize..6) {
        let t = pop(ranks, steps);
        let r1 = analyze_phases(&t);
        let r2 = analyze_phases(&t);
        let sig1: Vec<u64> = r1.phases.iter().map(|p| p.signature).collect();
        let sig2: Vec<u64> = r2.phases.iter().map(|p| p.signature).collect();
        prop_assert_eq!(sig1, sig2);
        prop_assert!(r1.total_phases() >= 1);
    }

    /// Repetition scales linearly: doubling the POP steps doubles the
    /// dominant phase weight (the repetitiveness PR-DRB exploits).
    #[test]
    fn repetition_scales_with_steps(ranks in 4usize..20) {
        let short = analyze_phases(&pop(ranks, 4));
        let long = analyze_phases(&pop(ranks, 8));
        let w_short = short.phases.first().map(|p| p.weight).unwrap_or(0);
        let w_long = long.phases.first().map(|p| p.weight).unwrap_or(0);
        prop_assert!(w_long >= w_short, "more steps must not reduce repetition");
    }
}

fn kind_strategy() -> impl Strategy<Value = CollectiveKind> {
    prop_oneof![
        Just(CollectiveKind::AllToAll),
        Just(CollectiveKind::AllReduce)
    ]
}

fn shape_strategy() -> impl Strategy<Value = ScheduleShape> {
    prop_oneof![Just(ScheduleShape::Ring), Just(ScheduleShape::Tree)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once delivery for every (kind, shape) on arbitrary rank
    /// counts — including non-powers-of-two, where the tree all-to-all
    /// falls back to the ring and the binomial tree goes ragged.
    #[test]
    fn collectives_deliver_exactly_once(
        kind in kind_strategy(),
        shape in shape_strategy(),
        ranks in 2u32..65,
        bytes in 1u32..1_000_000,
    ) {
        let spec = CollectiveSpec::new(kind, shape, ranks, bytes);
        prop_assert!(
            check_exactly_once(&spec).is_ok(),
            "{}: {:?}", spec.label(), check_exactly_once(&spec)
        );
    }

    /// Structural invariants every schedule must satisfy for the trace
    /// player: no self-sends, at most one message per ordered (src,
    /// dst) pair per round, ranks in range, payloads non-empty.
    #[test]
    fn schedules_are_player_safe(
        kind in kind_strategy(),
        shape in shape_strategy(),
        ranks in 2u32..33,
        bytes in 1u32..65_536,
    ) {
        let spec = CollectiveSpec::new(kind, shape, ranks, bytes);
        for (rno, round) in spec.rounds().iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for m in round {
                prop_assert!(m.src < ranks && m.dst < ranks, "round {rno}: rank range");
                prop_assert!(m.src != m.dst, "round {rno}: self-send");
                prop_assert!(m.bytes >= 1, "round {rno}: empty payload");
                prop_assert!(seen.insert((m.src, m.dst)), "round {rno}: dup pair");
            }
        }
    }
}
