//! Property-based tests of the PR-DRB core data structures: Eq 3.4/3.6
//! metapath algebra, similarity axioms, zone-FSM sanity and solution-DB
//! behaviour under arbitrary inputs.

use prdrb_core::{
    normalize, similarity, Metapath, Similarity, SolutionDb, Transition, Zone, ZoneTracker,
};
use prdrb_simcore::SimRng;
use prdrb_topology::{NodeId, PathDescriptor};
use proptest::prelude::*;

fn pattern_strategy() -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    proptest::collection::vec((0u32..32, 0u32..32), 1..12)
        .prop_map(|v| v.into_iter().map(|(a, b)| (NodeId(a), NodeId(b))).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Similarity is symmetric for the symmetric measures, bounded in
    /// [0,1], and 1 on identical patterns.
    #[test]
    fn similarity_axioms(a in pattern_strategy(), b in pattern_strategy()) {
        let a = normalize(a);
        let b = normalize(b);
        for m in [Similarity::Jaccard, Similarity::Overlap] {
            let s_ab = similarity(&a, &b, m);
            let s_ba = similarity(&b, &a, m);
            prop_assert!((s_ab - s_ba).abs() < 1e-12, "symmetry violated");
            prop_assert!((0.0..=1.0).contains(&s_ab));
        }
        prop_assert_eq!(similarity(&a, &a, Similarity::Jaccard), 1.0);
        // Jaccard never exceeds the overlap coefficient.
        let j = similarity(&a, &b, Similarity::Jaccard);
        let o = similarity(&a, &b, Similarity::Overlap);
        prop_assert!(j <= o + 1e-12);
    }

    /// Normalize is idempotent, sorted and duplicate-free.
    #[test]
    fn normalize_properties(p in pattern_strategy()) {
        let n1 = normalize(p);
        let n2 = normalize(n1.clone());
        prop_assert_eq!(&n1, &n2);
        prop_assert!(n1.windows(2).all(|w| w[0] < w[1]));
    }

    /// Eq 3.4: the metapath latency never exceeds the fastest member
    /// path and shrinks monotonically as paths open.
    #[test]
    fn metapath_latency_bounds(lats in proptest::collection::vec(100u64..1_000_000, 1..6)) {
        let mut mp = Metapath::new(PathDescriptor::Minimal, 4, lats[0]);
        mp.update(0, lats[0], 1.0);
        let mut prev = mp.latency_ns();
        for (i, &l) in lats.iter().enumerate().skip(1) {
            mp.open(
                PathDescriptor::Msp { in1: NodeId(i as u32), in2: NodeId(50 + i as u32) },
                6,
            );
            mp.update(i, l, 1.0);
            let cur = mp.latency_ns();
            prop_assert!(cur <= prev, "aggregate latency must not grow with more paths");
            prev = cur;
        }
        let min = *lats.iter().min().unwrap();
        prop_assert!(mp.latency_ns() <= min, "aggregate exceeds fastest path");
    }

    /// Eq 3.6: the selection PDF hits every open path and prefers the
    /// fastest.
    #[test]
    fn selection_covers_and_prefers(
        lats in proptest::collection::vec(1_000u64..100_000, 2..5),
        seed in 0u64..1000,
    ) {
        let mut mp = Metapath::new(PathDescriptor::Minimal, 4, lats[0]);
        mp.update(0, lats[0], 1.0);
        for (i, &l) in lats.iter().enumerate().skip(1) {
            mp.open(
                PathDescriptor::Msp { in1: NodeId(i as u32), in2: NodeId(90 + i as u32) },
                4,
            );
            mp.update(i, l, 1.0);
        }
        let mut rng = SimRng::new(seed);
        let mut counts = vec![0u32; lats.len()];
        for _ in 0..4000 {
            counts[mp.select(&mut rng).0] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c > 0), "every path must be probed");
        let fastest = lats.iter().enumerate().min_by_key(|(_, &l)| l).unwrap().0;
        let max_count = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        // With equal lengths, the fastest path must be the most used
        // (ties broken arbitrarily when latencies are close).
        let fastest_lat = lats[fastest] as f64;
        let chosen_lat = lats[max_count] as f64;
        prop_assert!(chosen_lat <= fastest_lat * 1.5, "selection ignored the fast path");
    }

    /// The solution DB round-trips what it saved: an exact lookup after
    /// a save always matches at any bar ≤ 1.0.
    #[test]
    fn db_roundtrip(p in pattern_strategy(), bar in 0.1f64..1.0) {
        let mut db = SolutionDb::new();
        let norm = normalize(p.clone());
        db.save(NodeId(1), p, vec![(PathDescriptor::Minimal, 4)], 1_000, bar, Similarity::Overlap);
        prop_assert!(db.lookup(&norm, bar, Similarity::Overlap).is_some());
    }

    /// Zone classification is monotone in the latency value.
    #[test]
    fn zones_monotone(lo in 1u64..1000, gap in 1u64..1000, x in 0u64..4000) {
        let hi = lo + gap;
        let z = Zone::classify(x, lo, hi);
        match z {
            Zone::Low => prop_assert!(x < lo),
            Zone::Medium => prop_assert!(x >= lo && x <= hi),
            Zone::High => prop_assert!(x > hi),
        }
    }

    /// The FSM emits EnterHigh exactly when crossing into High from a
    /// non-High zone, regardless of the sample sequence.
    #[test]
    fn fsm_enterhigh_exact(samples in proptest::collection::vec(0u64..3000, 1..40)) {
        let (lo, hi) = (500, 1500);
        let mut tracker = ZoneTracker::new();
        let mut prev = Zone::Medium;
        for s in samples {
            let tr = tracker.observe(s, lo, hi);
            let cur = Zone::classify(s, lo, hi);
            if cur == Zone::High && prev != Zone::High {
                prop_assert_eq!(tr, Transition::EnterHigh);
            } else {
                prop_assert!(tr != Transition::EnterHigh);
            }
            prev = cur;
        }
    }
}
