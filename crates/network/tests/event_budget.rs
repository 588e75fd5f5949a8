//! The fabric's event budget: the calendar holds only events that
//! advance simulated time. Same-instant work (transmit attempts, the
//! routing stage a transmit frees, the NIC retry a credit allows) runs
//! inline, and no event is scheduled that would find nothing to do.
//!
//! On a quiet fabric a packet therefore costs one NIC injection event,
//! three events per router hop — the header's arrival, the routing
//! stage 40 ns later, and the credit its freed input slot sends
//! upstream — and its delivery.

use prdrb_network::{Fabric, NetworkConfig, Packet};
use prdrb_simcore::time::MILLISECOND;
use prdrb_topology::{
    AnyTopology, FaultEvent, FaultPlan, NodeId, PathDescriptor, RouteState, TimedFault, Topology,
};

fn quiet_fat_tree() -> Fabric {
    faulted_fat_tree(FaultPlan::none())
}

fn faulted_fat_tree(plan: FaultPlan) -> Fabric {
    let cfg = NetworkConfig {
        acks_enabled: false,
        ..Default::default()
    };
    Fabric::with_faults(AnyTopology::fat_tree_64(), cfg, plan)
}

/// Inject `k` back-to-back fragments of one message from `src` to
/// `dst`, all created at time 0.
fn inject_message(f: &mut Fabric, src: u32, dst: u32, k: u32) {
    for seq in 0..k {
        let id = f.alloc_id();
        f.inject(Packet::data(
            id,
            NodeId(src),
            NodeId(dst),
            f.config().packet_bytes,
            0,
            RouteState::new(PathDescriptor::Minimal),
            0,
            1,
            seq,
            seq + 1 == k,
            false,
        ));
    }
}

/// Send a `k`-fragment message, run to quiescence and return the hop
/// count every fragment reports at delivery.
fn send_message(f: &mut Fabric, src: u32, dst: u32, k: u32) -> u16 {
    inject_message(f, src, dst, k);
    f.run_to_quiescence(MILLISECOND);
    let mut out = Vec::new();
    f.take_deliveries(&mut out);
    assert_eq!(out.len() as u32, k, "every fragment is delivered");
    let hops = out[0].packet.hops;
    assert!(out.iter().all(|d| d.packet.hops == hops));
    hops
}

#[test]
fn lone_packet_costs_three_events_per_hop() {
    // Same leaf switch (one router), and across the top of the tree
    // (leaf, middle, top, middle, leaf).
    for (dst, want_hops) in [(1, 1), (63, 5)] {
        let mut f = quiet_fat_tree();
        let hops = send_message(&mut f, 0, dst, 1);
        assert_eq!(hops, want_hops, "0 -> {dst}");
        assert_eq!(
            f.events_processed(),
            2 + 3 * u64::from(hops),
            "0 -> {dst}: NicTx + (Arrive, RouteTick, credit) per hop + Deliver"
        );
    }
}

#[test]
fn message_fragments_cost_one_nic_event_each() {
    // The fragments leave the NIC one serialization apart and reach
    // every router as its output link frees, so each costs exactly what
    // a lone packet does: one NicTx (not one per injection plus one per
    // end of serialization), and no LinkFree.
    const K: u32 = 8;
    let mut f = quiet_fat_tree();
    let hops = send_message(&mut f, 0, 63, K);
    assert_eq!(hops, 5);
    assert_eq!(
        f.events_processed(),
        u64::from(K) * (2 + 3 * u64::from(hops))
    );
}

#[test]
fn quiet_time_counts_the_last_serialization() {
    // Node 0's packet to node 63 leaves its leaf router upward at
    // 82 ns (NIC wire 10 + header 32 + routing 40). That wire dies at
    // 100 ns, so the header is lost on arrival at 124 ns — the last
    // event. The link still serializes the tail until 82 + 4096 ns,
    // and no event marks that moment: the drain must still end there.
    let topo = AnyTopology::fat_tree_64();
    let leaf = topo.router_of(NodeId(0));
    let up = topo.minimal_port(leaf, NodeId(63));
    let plan = FaultPlan::new(vec![TimedFault {
        at: 100,
        fault: FaultEvent::LinkDown {
            router: leaf,
            port: up,
        },
    }]);
    let mut f = faulted_fat_tree(plan);
    inject_message(&mut f, 0, 63, 1);
    let end = f.run_to_quiescence(MILLISECOND);
    assert_eq!(f.stats.dropped_data, 1, "the header dies on the cut wire");
    assert_eq!(end, 82 + 4096);
}
