//! Property-based tests of the workload layer: the deterministic
//! samplers are pure functions of their seeds, and schedules are total
//! over their time span.

use prdrb_simcore::rng::Splitmix64;
use prdrb_traffic::{exp_gap_ns, BoundedPareto, BurstSchedule, PhaseSpec, TrafficPattern};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampler streams are pure functions of (seed, index): same
    /// inputs replay byte-identical sequences, different seeds diverge.
    #[test]
    fn sampler_streams_are_pure(seed in 0u64..u64::MAX, index in 0u64..1024) {
        let mut a = Splitmix64::substream(seed, index);
        let mut b = Splitmix64::substream(seed, index);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(sa, sb);
    }

    /// Bounded-Pareto samples always land inside [lo, hi], whatever the
    /// parameters and seed.
    #[test]
    fn pareto_always_in_bounds(
        seed in 0u64..u64::MAX,
        alpha in 0.2f64..4.0,
        lo in 1.0f64..1_000.0,
        span in 0.0f64..1_000_000.0,
    ) {
        let p = BoundedPareto::new(alpha, lo, lo + span);
        let mut rng = Splitmix64::new(seed);
        for _ in 0..64 {
            let x = p.sample(&mut rng);
            prop_assert!(x >= p.lo - 1e-9 && x <= p.hi + 1e-9, "{x} outside [{}, {}]", p.lo, p.hi);
        }
    }

    /// Exponential gaps are >= 1 ns and deterministic per seed.
    #[test]
    fn exp_gaps_floor_and_replay(seed in 0u64..u64::MAX, mean in 1.0f64..1e7) {
        let mut a = Splitmix64::new(seed);
        let mut b = Splitmix64::new(seed);
        for _ in 0..32 {
            let ga = exp_gap_ns(a.unit(), mean);
            prop_assert!(ga >= 1);
            prop_assert_eq!(ga, exp_gap_ns(b.unit(), mean));
        }
    }

    /// Phase lookup is total over `iterations` loops of the body and
    /// consistent with the phase-start inverse for arbitrary schedules.
    #[test]
    fn phase_lookup_is_total(
        durations in proptest::collection::vec(1u64..10_000, 1..6),
        iterations in 1u32..5,
        probe in 0u64..u64::MAX,
    ) {
        let phases: Vec<PhaseSpec> = durations
            .iter()
            .map(|&d| PhaseSpec {
                label: "p",
                pattern: TrafficPattern::Uniform,
                mbps: 100.0,
                duration_ns: d,
            })
            .collect();
        let prog = BurstSchedule::new(phases);
        let np = prog.phases.len() as u64;
        let t = probe % (prog.period_ns() * iterations as u64);
        let (g, _) = prog.at(t);
        prop_assert!(g < np * iterations as u64);
        let start = prog.phase_start_ns(g);
        prop_assert!(start <= t);
        prop_assert!(prog.at(start).0 == g);
    }
}
