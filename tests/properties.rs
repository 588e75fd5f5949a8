//! Workspace-level property-based tests: whole-stack invariants under
//! randomized configurations.

use pr_drb::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No configuration loses packets: the credit-based fabric is
    /// lossless for every policy, load and seed.
    #[test]
    fn lossless_for_any_policy_load_and_seed(
        policy_idx in 0usize..7,
        mbps in 100f64..1200f64,
        seed in 0u64..1000,
        mesh in proptest::bool::ANY,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let topology = if mesh { TopologyKind::Mesh8x8 } else { TopologyKind::FatTree443 };
        let schedule = BurstSchedule::continuous(TrafficPattern::Uniform, mbps);
        let mut cfg = SimConfig::synthetic(topology, policy, schedule, 16);
        cfg.duration_ns = 150_000;
        cfg.max_ns = 4000 * MILLISECOND;
        cfg.seed = seed;
        let r = run(cfg);
        prop_assert_eq!(r.offered, r.accepted);
        prop_assert!(r.end_ns < cfg_max());
    }
}

fn cfg_max() -> u64 {
    4000 * MILLISECOND
}

/// `iterations` loops of the mini-app schedule on `nodes` terminals.
fn mini_app(
    topology: TopologyKind,
    policy: PolicyKind,
    iterations: u64,
    phase_ns: u64,
    mbps: f64,
    nodes: usize,
) -> SimConfig {
    let program = BurstSchedule::mini_app(phase_ns, mbps);
    SimConfig::looped(topology, policy, program, nodes, iterations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any of the generated application traces completes on the fat
    /// tree for any DRB-family policy (no player deadlock, no loss).
    #[test]
    fn traces_complete_for_random_small_rank_counts(
        ranks in 4usize..20,
        app in 0usize..4,
        drb in proptest::bool::ANY,
    ) {
        let trace = match app {
            0 => nas_lu(NasClass::S, ranks),
            1 => sweep3d(ranks),
            2 => pop(ranks, 2),
            _ => smg2000(ranks),
        };
        let policy = if drb { PolicyKind::PrDrb } else { PolicyKind::Deterministic };
        let cfg = SimConfig::trace(TopologyKind::FatTree443, policy, trace);
        let r = run(cfg);
        prop_assert!(!r.truncated);
        prop_assert_eq!(r.offered, r.accepted);
        prop_assert!(r.exec_time_ns.unwrap() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The application-level workload generators preserve packet
    /// conservation: for any collective family, phase program or
    /// open-loop arrival spec, on either topology and any seed, the
    /// fault-free run drains completely with `offered == accepted +
    /// dropped` and nothing dropped.
    #[test]
    fn workload_generators_conserve_packets(
        family in 0usize..6,
        seed in 0u64..500,
        mesh in proptest::bool::ANY,
    ) {
        let topology = if mesh { TopologyKind::Mesh8x8 } else { TopologyKind::FatTree443 };
        let mut cfg = match family {
            0 => SimConfig::collective(topology, PolicyKind::PrDrb,
                CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 8, 4096), 1),
            1 => SimConfig::collective(topology, PolicyKind::Drb,
                CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, 12, 4096), 1),
            2 => mini_app(topology, PolicyKind::PrDrb, 2, 60_000, 400.0, 16),
            3 => mini_app(topology, PolicyKind::Deterministic, 1, 80_000, 600.0, 12),
            4 => {
                let mut c = SimConfig::open_loop(topology, PolicyKind::PrDrb,
                    OpenLoopSpec::heavy_tail(25_000.0), 16);
                c.duration_ns = 150_000;
                c
            }
            _ => {
                let mut c = SimConfig::open_loop(topology, PolicyKind::Drb,
                    OpenLoopSpec::heavy_tail(60_000.0), 24);
                c.duration_ns = 200_000;
                c
            }
        };
        cfg.seed = seed;
        let r = run(cfg);
        prop_assert!(!r.truncated);
        prop_assert_eq!(r.offered, r.accepted + r.dropped);
        prop_assert_eq!(r.dropped, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The parallel replica executor returns bit-identical reports to
    /// the serial reference, proven through the run cache's canonical
    /// CSV encoding (f64s serialize as exact bit patterns, so equal
    /// bytes means equal reports down to the last ULP).
    #[test]
    fn parallel_replicas_match_serial_bit_for_bit(
        policy_idx in 0usize..7,
        mbps in 200f64..900f64,
        base_seed in 0u64..500,
        mesh in proptest::bool::ANY,
    ) {
        use pr_drb::engine::cache::report_to_csv;
        use pr_drb::engine::{run_replicas, run_replicas_serial, RunKey};
        let policy = PolicyKind::ALL[policy_idx];
        let topology = if mesh { TopologyKind::Mesh8x8 } else { TopologyKind::FatTree443 };
        let schedule = BurstSchedule::continuous(TrafficPattern::Uniform, mbps);
        let mut cfg = SimConfig::synthetic(topology, policy, schedule, 16);
        cfg.duration_ns = 120_000;
        cfg.max_ns = 4000 * MILLISECOND;
        let seeds = [base_seed, base_seed.wrapping_add(1), base_seed.wrapping_add(2)];
        let par = run_replicas(&cfg, &seeds);
        let ser = run_replicas_serial(&cfg, &seeds);
        prop_assert_eq!(par.len(), ser.len());
        for ((p, s), &seed) in par.iter().zip(&ser).zip(&seeds) {
            let mut c = cfg.clone();
            c.seed = seed;
            let key = RunKey::of(&c);
            prop_assert_eq!(report_to_csv(key, p), report_to_csv(key, s));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The sweep executor returns `run`'s reports in input order on a
    /// list whose jobs differ in policy, rate, duration and topology, so
    /// their run times differ and the work queue finishes them out of
    /// input order: each report equals a serial `run` of its config byte
    /// for byte through the run cache's canonical CSV encoding.
    #[test]
    fn mixed_sweep_matches_serial_runs_bit_for_bit(
        jobs in proptest::collection::vec(
            (0usize..7, 200f64..900f64, 20_000u64..300_000, 0u64..500, proptest::bool::ANY),
            3..9,
        ),
    ) {
        use pr_drb::engine::cache::report_to_csv;
        use pr_drb::engine::{run_many, RunKey};
        let cfgs: Vec<SimConfig> = jobs
            .iter()
            .map(|&(policy_idx, mbps, duration_ns, seed, mesh)| {
                let topology = if mesh { TopologyKind::Mesh8x8 } else { TopologyKind::FatTree443 };
                let schedule = BurstSchedule::continuous(TrafficPattern::Uniform, mbps);
                let mut cfg =
                    SimConfig::synthetic(topology, PolicyKind::ALL[policy_idx], schedule, 16);
                cfg.duration_ns = duration_ns;
                cfg.max_ns = 4000 * MILLISECOND;
                cfg.seed = seed;
                cfg
            })
            .collect();
        let par = run_many(cfgs.clone(), None);
        prop_assert_eq!(par.len(), cfgs.len());
        for (p, cfg) in par.iter().zip(cfgs) {
            let key = RunKey::of(&cfg);
            prop_assert_eq!(report_to_csv(key, p), report_to_csv(key, &run(cfg)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The calendar backend is invisible in results on randomized
    /// topologies and traffic: for any mesh / fat-tree shape, policy,
    /// load and seed, the heap-calendar run reproduces the default
    /// (timing-wheel) report byte for byte through the run cache's
    /// canonical CSV encoding.
    #[test]
    fn heap_runs_match_wheel_bit_for_bit(
        policy_idx in 0usize..7,
        mbps in 200f64..1000f64,
        seed in 0u64..1000,
        shape in 0usize..4,
        pattern in 0usize..3,
    ) {
        use pr_drb::engine::cache::report_to_csv;
        use pr_drb::engine::RunKey;
        use pr_drb::simcore::QueueKind;
        let policy = PolicyKind::ALL[policy_idx];
        let topology = match shape {
            0 => TopologyKind::Mesh8x8,
            1 => TopologyKind::Mesh { w: 4, h: 8 },
            2 => TopologyKind::FatTree443,
            _ => TopologyKind::Tree { k: 2, n: 4 },
        };
        let pattern = match pattern {
            0 => TrafficPattern::Uniform,
            1 => TrafficPattern::Shuffle,
            _ => TrafficPattern::Transpose,
        };
        let schedule = BurstSchedule::continuous(pattern, mbps);
        let mut cfg = SimConfig::synthetic(topology, policy, schedule, 16);
        cfg.duration_ns = 120_000;
        cfg.max_ns = 4000 * MILLISECOND;
        cfg.seed = seed;
        prop_assert_eq!(cfg.net.queue, QueueKind::Wheel);
        let key = RunKey::of(&cfg);
        let wheel = report_to_csv(key, &run(cfg.clone()));
        let mut c = cfg.clone();
        c.net.queue = QueueKind::Heap;
        prop_assert_eq!(RunKey::of(&c), key);
        let heap = report_to_csv(key, &run(c));
        prop_assert_eq!(
            &wheel, &heap,
            "heap calendar diverged on {:?}/{:?}",
            topology, policy
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized per-link latency classes: for any global/server-class
    /// wire extras, shape (dragonfly72 or the fat-tree — both carry
    /// global-class wires), policy and seed, a repeated run
    /// reproduces the reference report byte for byte under BOTH
    /// calendar backends. The extras move every long-wire crossing in
    /// simulated time, but they must never open a gap between the
    /// backends — and being physical, they must not be erased from the
    /// run key by the calendar exclusion.
    #[test]
    fn latency_classed_heap_runs_match_wheel_bit_for_bit(
        policy_idx in 0usize..7,
        global_extra in 0u64..400,
        server_extra in 0u64..50,
        shape in 0usize..2,
        seed in 0u64..1000,
    ) {
        use pr_drb::engine::cache::report_to_csv;
        use pr_drb::engine::RunKey;
        use pr_drb::simcore::QueueKind;
        let policy = PolicyKind::ALL[policy_idx];
        let topology = match shape {
            0 => TopologyKind::Dragonfly { a: 9, r: 4, h: 2 },
            _ => TopologyKind::FatTree443,
        };
        let schedule = BurstSchedule::continuous(TrafficPattern::Uniform, 500.0);
        let mut cfg = SimConfig::synthetic(topology, policy, schedule, 16);
        cfg.net.wire_class_extra_ns = [0, global_extra, server_extra];
        cfg.duration_ns = 120_000;
        cfg.max_ns = 4000 * MILLISECOND;
        cfg.seed = seed;
        let key = RunKey::of(&cfg);
        let reference = report_to_csv(key, &run(cfg.clone()));
        for queue in [QueueKind::Heap, QueueKind::Wheel] {
            let mut c = cfg.clone();
            c.net.queue = queue;
            prop_assert_eq!(RunKey::of(&c), key,
                "the calendar backend must stay out of the run key");
            let again = report_to_csv(key, &run(c));
            prop_assert_eq!(
                &reference, &again,
                "queue={:?} diverged on {:?}/{:?}",
                queue, topology, policy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-replica quantile sketches is lossless: the merged
    /// sketch answers every quantile exactly like one sketch fed the
    /// concatenated samples, and its p50/p95/p99 stay monotone.
    #[test]
    fn quantile_merge_matches_concatenated_sketch(
        a in proptest::collection::vec(1u64..5_000_000, 1..80),
        b in proptest::collection::vec(1u64..5_000_000, 1..80),
        c in proptest::collection::vec(1u64..5_000_000, 0..80),
    ) {
        use pr_drb::metrics::LatencyQuantiles;
        let mut merged = LatencyQuantiles::new();
        let mut baseline = LatencyQuantiles::new();
        for chunk in [&a, &b, &c] {
            let mut sketch = LatencyQuantiles::new();
            for &v in chunk.iter() {
                sketch.push(v);
                baseline.push(v);
            }
            merged.merge(&sketch);
        }
        prop_assert_eq!(merged.total(), baseline.total());
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            prop_assert_eq!(merged.quantile_ns(q), baseline.quantile_ns(q));
        }
        let (p50, p95, p99) = merged.summary_us();
        prop_assert!(p50 <= p95 && p95 <= p99,
            "merged quantiles must be monotone: {} {} {}", p50, p95, p99);
        let (b50, b95, b99) = baseline.summary_us();
        prop_assert!((p50 - b50).abs() < 1e-9 && (p95 - b95).abs() < 1e-9
            && (p99 - b99).abs() < 1e-9,
            "merged summary must match the single-sketch baseline");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-destination running means (Eq 4.1) aggregate to a global
    /// average (Eq 4.2) bounded by the min/max destination means.
    #[test]
    fn global_latency_is_between_destination_extremes(
        seed in 0u64..100,
    ) {
        let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 500.0);
        let mut cfg = SimConfig::synthetic(
            TopologyKind::FatTree443, PolicyKind::Deterministic, schedule, 32);
        cfg.duration_ns = 150_000;
        cfg.max_ns = 1000 * MILLISECOND;
        cfg.seed = seed;
        let r = run(cfg);
        // The series' overall mean and the global average must agree on
        // the order of magnitude (both built from the same samples).
        let series_mean = SeriesSummary::of(&r.series).mean_us;
        prop_assert!(series_mean > 0.0);
        prop_assert!(r.global_avg_latency_us > 0.0);
        prop_assert!(r.global_avg_latency_us < series_mean * 10.0 + 1.0);
        prop_assert!(series_mean < r.global_avg_latency_us * 10.0 + 1.0);
    }
}
