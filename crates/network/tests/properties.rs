//! Property-based tests of the fabric: losslessness, conservation and
//! determinism under arbitrary packet workloads.

use prdrb_network::{Fabric, NetworkConfig, Packet};
use prdrb_simcore::time::MILLISECOND;
use prdrb_simcore::QueueKind;
use prdrb_topology::{AnyTopology, NodeId, PathDescriptor, RouteState, Topology};
use proptest::prelude::*;

fn inject_batch(f: &mut Fabric, pkts: &[(u32, u32, u64)]) -> u64 {
    let n = f.topology().num_terminals() as u32;
    // The fabric's NIC queues are FIFO: hosts inject in time order (the
    // engine guarantees this), so the batch is sorted first.
    let mut pkts: Vec<_> = pkts.to_vec();
    pkts.sort_by_key(|&(_, _, at)| at % 500_000);
    let mut count = 0;
    for &(src, dst, at) in &pkts {
        let id = f.alloc_id();
        f.inject(Packet::data(
            id,
            NodeId(src % n),
            NodeId(dst % n),
            f.config().packet_bytes,
            at % 500_000,
            RouteState::new(PathDescriptor::Minimal),
            0,
            id,
            0,
            true,
            false,
        ));
        count += 1;
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every injected packet is delivered exactly once,
    /// for arbitrary (src, dst, time) workloads on both topologies.
    #[test]
    fn packets_conserved(
        pkts in proptest::collection::vec((0u32..64, 0u32..64, 0u64..500_000), 1..120),
        mesh in proptest::bool::ANY,
    ) {
        let topo = if mesh { AnyTopology::mesh8x8() } else { AnyTopology::fat_tree_64() };
        let mut f = Fabric::new(topo, NetworkConfig { acks_enabled: false, ..Default::default() });
        let n = inject_batch(&mut f, &pkts);
        f.run_to_quiescence(4000 * MILLISECOND);
        prop_assert_eq!(f.stats.offered_data, n);
        prop_assert_eq!(f.stats.accepted_data, n);
        let mut d = Vec::new();
        f.take_deliveries(&mut d);
        prop_assert_eq!(d.len() as u64, n);
        // Every delivery lands at its own destination.
        for x in &d {
            prop_assert!(x.packet.dst.idx() < 64);
        }
    }

    /// Determinism: the same workload yields bit-identical delivery
    /// schedules.
    #[test]
    fn deliveries_deterministic(
        pkts in proptest::collection::vec((0u32..64, 0u32..64, 0u64..200_000), 1..60),
    ) {
        let run = |pkts: &[(u32, u32, u64)]| {
            let mut f = Fabric::new(AnyTopology::fat_tree_64(), NetworkConfig::default());
            inject_batch(&mut f, pkts);
            f.run_to_quiescence(4000 * MILLISECOND);
            let mut buf = Vec::new();
            f.take_deliveries(&mut buf);
            let mut d: Vec<(u64, u64)> = buf.iter().map(|x| (x.at, x.packet.id)).collect();
            d.sort_unstable();
            d
        };
        prop_assert_eq!(run(&pkts), run(&pkts));
    }

    /// Calendar agreement: for arbitrary workloads and topologies, the
    /// heap and timing-wheel calendars commit the same number of events
    /// and the same delivery schedule, in the same order.
    #[test]
    fn heap_commits_match_wheel(
        pkts in proptest::collection::vec((0u32..64, 0u32..64, 0u64..150_000), 1..80),
        mesh in proptest::bool::ANY,
    ) {
        let topo = if mesh { AnyTopology::mesh8x8() } else { AnyTopology::fat_tree_64() };
        let commits = |queue: QueueKind| {
            let mut f = Fabric::new(topo.clone(), NetworkConfig { queue, ..Default::default() });
            inject_batch(&mut f, &pkts);
            f.run_to_quiescence(4000 * MILLISECOND);
            let mut d = Vec::new();
            f.take_deliveries(&mut d);
            let sched: Vec<(u64, u32, u64)> =
                d.iter().map(|x| (x.at, x.packet.dst.0, x.packet.id)).collect();
            (f.events_processed(), f.stats.offered_data, f.stats.accepted_data, sched)
        };
        prop_assert_eq!(commits(QueueKind::Heap), commits(QueueKind::Wheel));
    }

    /// Latency sanity: no packet arrives before its minimal possible
    /// pipeline time, and path_latency never exceeds total time in the
    /// network.
    #[test]
    fn latency_bounds(
        pkts in proptest::collection::vec((0u32..64, 0u32..64, 0u64..100_000), 1..60),
    ) {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), NetworkConfig { acks_enabled: false, ..Default::default() });
        inject_batch(&mut f, &pkts);
        f.run_to_quiescence(4000 * MILLISECOND);
        let mut deliveries = Vec::new();
        f.take_deliveries(&mut deliveries);
        for d in deliveries {
            let total = d.at - d.packet.created;
            prop_assert!(d.packet.path_latency <= total, "queuing exceeds total time");
            if d.packet.src != d.packet.dst {
                // At least one serialization must have elapsed.
                prop_assert!(total >= 4096, "impossibly fast delivery: {total}");
            }
        }
    }
}
