//! # prdrb-network — the interconnection-network substrate
//!
//! The thesis evaluated PR-DRB on OPNET models of an InfiniBand-like
//! network (§4.1). This crate is the from-scratch replacement: packet
//! formats (§3.3.1), the router of Figs 3.19/4.5 with virtual cut-through
//! switching and credit-based flow control, links, NICs, the congestion
//! monitor (LU/CFD/GPA modules), and the event-driven [`Fabric`] that
//! ties them together.
//!
//! The fabric is policy-agnostic: routing *policies* (deterministic,
//! DRB, PR-DRB, …) live in `prdrb-core` and act at the sources by
//! choosing each packet's [`prdrb_topology::PathDescriptor`]; the fabric
//! merely executes the multi-step headers and reports ACK deliveries
//! back to the host.

#![forbid(unsafe_code)]

pub mod config;
pub mod fabric;
pub mod monitor;
pub mod packet;
pub mod pool;

pub use config::{MonitorConfig, NetworkConfig, NotifyMode};
pub use fabric::{Delivery, Fabric, FabricStats, Step, NUM_VCS};
pub use monitor::{contending_flows, dedup_sources, Contender};
pub use packet::{FlowPair, Packet, PacketKind, PredictiveHeader};
pub use pool::PacketPool;

#[cfg(test)]
mod fabric_tests {
    use super::*;
    use prdrb_simcore::time::{Time, MILLISECOND};
    use prdrb_topology::{
        AnyTopology, FaultEvent, FaultPlan, Mesh2D, NodeId, PathDescriptor, RouteState, RouterId,
        TimedFault, Topology,
    };

    fn data(
        f: &mut Fabric,
        src: u32,
        dst: u32,
        at: Time,
        desc: PathDescriptor,
        needs_ack: bool,
    ) -> u64 {
        let id = f.alloc_id();
        let size = f.config().packet_bytes;
        f.inject(Packet::data(
            id,
            NodeId(src),
            NodeId(dst),
            size,
            at,
            RouteState::new(desc),
            0,
            id,
            0,
            true,
            needs_ack,
        ));
        id
    }

    fn quiet_cfg() -> NetworkConfig {
        NetworkConfig {
            acks_enabled: false,
            ..Default::default()
        }
    }

    /// Pull the pending deliveries through the buffer-reusing API.
    fn taken(f: &mut Fabric) -> Vec<Delivery> {
        let mut out = Vec::new();
        f.take_deliveries(&mut out);
        out
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        data(&mut f, 0, 63, 0, PathDescriptor::Minimal, false);
        f.run_to_quiescence(MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.dst, NodeId(63));
        assert_eq!(
            d[0].packet.hops, 15,
            "15 routers traversed corner to corner"
        );
        // Zero-load: no queuing contention anywhere.
        assert_eq!(d[0].packet.path_latency, 0);
        // Cut-through pipelines serialization: it appears once
        // end-to-end, plus per-hop header/routing/wire latencies.
        assert!(d[0].at > 4096, "must include at least one serialization");
        assert_eq!(f.stats.offered_data, 1);
        assert_eq!(f.stats.accepted_data, 1);
    }

    /// The fabric's memoized routing (`RouteTable`) and the static
    /// walker (`walk_route`) agree: for every static descriptor on
    /// every topology, one packet in a quiet fabric crosses as
    /// many routers as its walk lists.
    #[test]
    fn static_routes_match_the_walker_hop_for_hop() {
        use prdrb_topology::{walk_route, AltPathProvider};
        for topo in [
            AnyTopology::mesh8x8(),
            AnyTopology::fat_tree_64(),
            AnyTopology::dragonfly72(),
        ] {
            let n = topo.num_terminals() as u32;
            for (src, dst) in [(0, n - 1), (1, n / 2), (n / 3, 2), (n - 2, n / 4)] {
                let (src, dst) = (NodeId(src), NodeId(dst));
                let mut descs = vec![
                    PathDescriptor::Minimal,
                    PathDescriptor::Msp {
                        in1: NodeId(n / 3 + 1),
                        in2: NodeId(2 * n / 3),
                    },
                ];
                match topo {
                    AnyTopology::Mesh(_) => {
                        descs.extend([false, true].map(|yx| PathDescriptor::MeshOrder { yx }))
                    }
                    AnyTopology::Tree(_) => {
                        descs.extend((0..16).map(|seed| PathDescriptor::TreeSeed { seed }))
                    }
                    _ => {}
                }
                descs.extend(AltPathProvider::new(&topo).alternatives(src, dst, 8));
                for desc in descs {
                    let walk = walk_route(&topo, src, dst, desc, 256).expect("valid walk");
                    let mut f = Fabric::new(topo.clone(), quiet_cfg());
                    data(&mut f, src.0, dst.0, 0, desc, false);
                    f.run_to_quiescence(MILLISECOND);
                    let d = taken(&mut f);
                    assert_eq!(d.len(), 1, "{} {src}->{dst} {desc:?}", topo.label());
                    assert_eq!(
                        d[0].packet.hops as usize,
                        walk.len(),
                        "{} {src}->{dst} {desc:?}",
                        topo.label()
                    );
                }
            }
        }
    }

    #[test]
    fn single_packet_crosses_the_tree() {
        let mut f = Fabric::new(AnyTopology::fat_tree_64(), quiet_cfg());
        data(&mut f, 0, 63, 0, PathDescriptor::Minimal, false);
        f.run_to_quiescence(MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.hops, 5, "up 2, down 2: 5 routers");
    }

    #[test]
    fn loopback_is_delivered_locally() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        data(&mut f, 5, 5, 100, PathDescriptor::Minimal, false);
        f.run_to_quiescence(MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.hops, 0);
    }

    #[test]
    fn no_packet_is_ever_lost() {
        // §4.2: offered load == accepted load always. Blast a hot-spot.
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        let mut n = 0;
        for src in 0..32u32 {
            for i in 0..20u64 {
                data(&mut f, src, 63, i * 1000, PathDescriptor::Minimal, false);
                n += 1;
            }
        }
        f.run_to_quiescence(100 * MILLISECOND);
        assert_eq!(f.stats.offered_data, n);
        assert_eq!(f.stats.accepted_data, n);
        assert_eq!(taken(&mut f).len(), n as usize);
    }

    #[test]
    fn contention_appears_under_hotspot() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        for src in [0u32, 1, 2, 3, 8, 9, 10, 11] {
            for i in 0..50u64 {
                data(&mut f, src, 63, i * 4100, PathDescriptor::Minimal, false);
            }
        }
        f.run_to_quiescence(MILLISECOND * 100);
        let total: f64 = (0..64).map(|r| f.router_contention_us(RouterId(r))).sum();
        assert!(total > 0.0, "eight flows into one sink must contend");
        let d = taken(&mut f);
        assert!(d.iter().any(|d| d.packet.path_latency > 0));
    }

    #[test]
    fn acks_return_to_source_with_latency() {
        let cfg = NetworkConfig::default();
        let mut f = Fabric::new(AnyTopology::mesh8x8(), cfg);
        data(&mut f, 0, 63, 0, PathDescriptor::Minimal, true);
        f.run_to_quiescence(10 * MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(d.len(), 2);
        let ack = d.iter().find(|x| !x.packet.is_data()).expect("an ACK");
        assert_eq!(ack.packet.dst, NodeId(0), "ACK comes home");
        match ack.packet.kind {
            PacketKind::Ack { data_latency, .. } => {
                assert!(data_latency > 0, "network latency was measured")
            }
            _ => unreachable!(),
        }
        assert_eq!(f.stats.acks_sent, 1);
        assert_eq!(f.stats.acks_received, 1);
    }

    #[test]
    fn destination_monitoring_attaches_contending_flows() {
        let cfg = NetworkConfig {
            monitor: MonitorConfig {
                mode: NotifyMode::Destination,
                router_threshold_ns: 2_000,
            },
            ..Default::default()
        };
        let mut f = Fabric::new(AnyTopology::mesh8x8(), cfg);
        // Three flow bundles share the east-bound corridor into node 7.
        for i in 0..120u64 {
            data(&mut f, 0, 7, i * 4096, PathDescriptor::Minimal, true);
            data(&mut f, 8, 7, i * 4096, PathDescriptor::Minimal, true);
            data(&mut f, 16, 7, i * 4096, PathDescriptor::Minimal, true);
        }
        f.run_to_quiescence(MILLISECOND * 200);
        assert!(f.stats.notifications > 0, "CFD should have fired");
        let d = taken(&mut f);
        let with_flows = d
            .iter()
            .filter(|x| !x.packet.is_data())
            .filter(|x| x.packet.predictive.is_some())
            .count();
        assert!(with_flows > 0, "some ACK carries contending flows");
    }

    #[test]
    fn router_based_notification_injects_predictive_acks() {
        let cfg = NetworkConfig {
            monitor: MonitorConfig {
                mode: NotifyMode::Router,
                router_threshold_ns: 2_000,
            },
            acks_enabled: false,
            ..Default::default()
        };
        let mut f = Fabric::new(AnyTopology::mesh8x8(), cfg);
        for i in 0..120u64 {
            data(&mut f, 0, 7, i * 4096, PathDescriptor::Minimal, false);
            data(&mut f, 8, 7, i * 4096, PathDescriptor::Minimal, false);
        }
        f.run_to_quiescence(MILLISECOND * 200);
        assert!(f.stats.notifications > 0);
        let d = taken(&mut f);
        let pred: Vec<_> = d
            .iter()
            .filter(|x| {
                matches!(
                    x.packet.kind,
                    PacketKind::Ack {
                        from_router: Some(_),
                        ..
                    }
                )
            })
            .collect();
        assert!(!pred.is_empty(), "router injected predictive ACKs");
        for p in &pred {
            assert!(p.packet.predictive.is_some());
        }
    }

    #[test]
    fn msp_path_traverses_and_delivers() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        // MSP through the row above.
        let desc = PathDescriptor::Msp {
            in1: NodeId(8),
            in2: NodeId(15),
        };
        data(&mut f, 0, 7, 0, desc, false);
        f.run_to_quiescence(MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.hops, 10, "10 routers: 1 up + 7 across + 1 down");
    }

    #[test]
    fn tree_seeds_spread_load_across_roots() {
        let mut f = Fabric::new(AnyTopology::fat_tree_64(), quiet_cfg());
        for seed in 0..16u32 {
            data(&mut f, 0, 63, 0, PathDescriptor::TreeSeed { seed }, false);
        }
        f.run_to_quiescence(MILLISECOND * 10);
        assert_eq!(taken(&mut f).len(), 16);
    }

    #[test]
    fn saturated_source_backpressures_but_completes() {
        // Inject far beyond link capacity instantaneously; credits must
        // throttle without loss or deadlock.
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        for _ in 0..500u64 {
            data(&mut f, 0, 63, 0, PathDescriptor::Minimal, false);
        }
        let end = f.run_to_quiescence(MILLISECOND * 1000);
        assert_eq!(f.stats.accepted_data, 500);
        // 500 packets × 4096 ns serialization is the line-rate lower
        // bound on the drain time.
        assert!(end >= 500 * 4096);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut f = Fabric::new(AnyTopology::mesh8x8(), NetworkConfig::default());
            for i in 0..50u64 {
                data(
                    &mut f,
                    (i % 16) as u32,
                    ((i * 7) % 64) as u32,
                    i * 997,
                    PathDescriptor::Minimal,
                    true,
                );
            }
            f.run_to_quiescence(MILLISECOND * 100);
            let mut d = taken(&mut f);
            d.sort_by_key(|x| (x.at, x.packet.id));
            d.iter().map(|x| (x.at, x.packet.id)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mixed_msp_traffic_does_not_deadlock() {
        // Crossing MSPs with opposing turn patterns; the per-segment VC
        // scheme must keep everything moving (§3.2.8).
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        let mut n = 0u64;
        for i in 0..200u64 {
            let t = i * 2000;
            data(
                &mut f,
                0,
                63,
                t,
                PathDescriptor::Msp {
                    in1: NodeId(8),
                    in2: NodeId(55),
                },
                false,
            );
            data(
                &mut f,
                63,
                0,
                t,
                PathDescriptor::Msp {
                    in1: NodeId(55),
                    in2: NodeId(8),
                },
                false,
            );
            data(
                &mut f,
                7,
                56,
                t,
                PathDescriptor::Msp {
                    in1: NodeId(6),
                    in2: NodeId(57),
                },
                false,
            );
            data(
                &mut f,
                56,
                7,
                t,
                PathDescriptor::Msp {
                    in1: NodeId(57),
                    in2: NodeId(6),
                },
                false,
            );
            n += 4;
        }
        f.run_to_quiescence(MILLISECOND * 1000);
        assert_eq!(f.stats.accepted_data, n, "deadlock or loss detected");
    }

    #[test]
    fn run_until_respects_time_bound() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        data(&mut f, 0, 63, 0, PathDescriptor::Minimal, false);
        f.run_until(10);
        assert!(taken(&mut f).is_empty(), "too early for delivery");
        assert_eq!(f.now(), 10);
        f.run_until(MILLISECOND);
        assert_eq!(taken(&mut f).len(), 1);
    }

    #[test]
    fn empty_fault_plan_is_identical_to_no_plan() {
        let run = |with_plan: bool| {
            let topo = AnyTopology::mesh8x8();
            let cfg = NetworkConfig::default();
            let mut f = if with_plan {
                Fabric::with_faults(topo, cfg, FaultPlan::none())
            } else {
                Fabric::new(topo, cfg)
            };
            for i in 0..50u64 {
                data(
                    &mut f,
                    (i % 16) as u32,
                    ((i * 7) % 64) as u32,
                    i * 997,
                    PathDescriptor::Minimal,
                    true,
                );
            }
            f.run_to_quiescence(MILLISECOND * 100);
            let d = taken(&mut f);
            d.iter().map(|x| (x.at, x.packet.id)).collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mid_run_link_failure_drops_and_counts() {
        let topo = AnyTopology::mesh8x8();
        let m = Mesh2D::new(8, 8);
        // The 0 -> 7 row-0 corridor crosses (1,0)->(2,0) under DOR.
        let (a, b) = (m.at(1, 0), m.at(2, 0));
        let plan = FaultPlan::new(vec![TimedFault {
            at: 300_000,
            fault: FaultEvent::LinkDown {
                router: a,
                port: topo.port_toward(a, b).unwrap(),
            },
        }]);
        let mut f = Fabric::with_faults(topo, quiet_cfg(), plan);
        let n = 200u64;
        for i in 0..n {
            data(&mut f, 0, 7, i * 5_000, PathDescriptor::Minimal, false);
        }
        f.run_to_quiescence(100 * MILLISECOND);
        let s = f.stats;
        assert_eq!(s.offered_data, n);
        assert!(s.accepted_data > 0, "pre-failure packets landed");
        assert!(s.dropped_data > 0, "post-failure packets are lost");
        assert_eq!(
            s.offered_data,
            s.accepted_data + s.dropped_data,
            "lossless semantics end at a dead wire, but accounting never does"
        );
        assert_eq!(taken(&mut f).len() as u64, s.accepted_data);
    }

    #[test]
    fn link_recovery_restores_forwarding_and_credits() {
        let topo = AnyTopology::mesh8x8();
        let m = Mesh2D::new(8, 8);
        let (a, b) = (m.at(1, 0), m.at(2, 0));
        let p = topo.port_toward(a, b).unwrap();
        let plan = FaultPlan::new(vec![
            TimedFault {
                at: 100_000,
                fault: FaultEvent::LinkDown { router: a, port: p },
            },
            TimedFault {
                at: 200_000,
                fault: FaultEvent::LinkUp { router: a, port: p },
            },
        ]);
        let mut f = Fabric::with_faults(topo, quiet_cfg(), plan);
        // One packet per regime: before, during, after the outage.
        for at in [0, 150_000, 400_000] {
            data(&mut f, 0, 7, at, PathDescriptor::Minimal, false);
        }
        f.run_to_quiescence(100 * MILLISECOND);
        assert_eq!(f.stats.dropped_data, 1, "only the mid-outage packet dies");
        assert_eq!(f.stats.accepted_data, 2);
        // Credits were re-initialized at recovery: a saturating burst
        // still drains completely through the recovered wire.
        for i in 0..100u64 {
            data(&mut f, 0, 7, 500_000 + i, PathDescriptor::Minimal, false);
        }
        f.run_to_quiescence(100 * MILLISECOND);
        assert_eq!(f.stats.accepted_data, 102);
        assert_eq!(f.stats.dropped_data, 1);
    }

    #[test]
    fn router_down_is_permanent_and_isolates_its_traffic() {
        let topo = AnyTopology::mesh8x8();
        let m = Mesh2D::new(8, 8);
        let plan = FaultPlan::new(vec![TimedFault {
            at: 50_000,
            fault: FaultEvent::RouterDown { router: m.at(3, 3) },
        }]);
        let mut f = Fabric::with_faults(topo, quiet_cfg(), plan);
        let victim = m.node_at(3, 3).0;
        // Out of, into, and straight through the dead router — all
        // after the failure, all lost.
        data(&mut f, victim, 63, 100_000, PathDescriptor::Minimal, false);
        data(&mut f, 0, victim, 100_000, PathDescriptor::Minimal, false);
        data(
            &mut f,
            m.node_at(0, 3).0,
            m.node_at(7, 3).0,
            100_000,
            PathDescriptor::Minimal,
            false,
        );
        f.run_to_quiescence(100 * MILLISECOND);
        assert_eq!(f.stats.offered_data, 3);
        assert_eq!(f.stats.accepted_data, 0);
        assert_eq!(f.stats.dropped_data, 3);
    }

    #[test]
    fn diverted_msp_escapes_to_minimal_around_a_dead_wire() {
        let topo = AnyTopology::mesh8x8();
        let m = Mesh2D::new(8, 8);
        // An MSP through row 1 whose middle segment hits a dead wire:
        // the packet escapes to minimal routing and still arrives.
        let (a, b) = (m.at(2, 1), m.at(3, 1));
        let plan = FaultPlan::new(vec![TimedFault {
            at: 0,
            fault: FaultEvent::LinkDown {
                router: a,
                port: topo.port_toward(a, b).unwrap(),
            },
        }]);
        let mut f = Fabric::with_faults(topo, quiet_cfg(), plan);
        let desc = PathDescriptor::Msp {
            in1: NodeId(8),
            in2: NodeId(15),
        };
        data(&mut f, 0, 7, 1_000, desc, false);
        f.run_to_quiescence(100 * MILLISECOND);
        let d = taken(&mut f);
        assert_eq!(f.stats.accepted_data, 1, "the escape found a live route");
        assert_eq!(d[0].packet.dst, NodeId(7));
    }

    #[test]
    fn contention_series_recorded_when_enabled() {
        let cfg = NetworkConfig {
            contention_series_bucket_ns: Some(10_000),
            acks_enabled: false,
            ..Default::default()
        };
        let mut f = Fabric::new(AnyTopology::mesh8x8(), cfg);
        for i in 0..100u64 {
            data(&mut f, 0, 7, i * 4096, PathDescriptor::Minimal, false);
            data(&mut f, 8, 7, i * 4096, PathDescriptor::Minimal, false);
        }
        f.run_to_quiescence(MILLISECOND * 100);
        let topo = AnyTopology::mesh8x8();
        let any = (0..topo.num_routers() as u32).any(|r| {
            f.router_series(RouterId(r))
                .map(|s| !s.is_empty())
                .unwrap_or(false)
        });
        assert!(any, "series should contain samples");
    }
}
