//! Packet formats (§3.3.1, Figs 3.16–3.18).
//!
//! Two packet types exist on the wire: **data** packets and **ACK**
//! (notification) packets. Both carry the multi-step routing header
//! (source, two intermediate nodes, destination, `Header_id`) — here the
//! [`RouteState`] — and the accumulated *path latency* field. Congested
//! routers may attach the optional **predictive header** listing the
//! contending flows (Fig 3.18); it travels boxed so the common
//! uncongested case stays allocation-free.

use prdrb_simcore::time::Time;
use prdrb_topology::{NodeId, Port, RouteState, RouterId};

/// A source/destination pair contending for a router resource (§3.2.7).
pub type FlowPair = (NodeId, NodeId);

/// The optional predictive header (Fig 3.18).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictiveHeader {
    /// Router that detected the congestion (0-filled in the
    /// destination-based scheme per §3.3.1; here `None`).
    pub router: Option<RouterId>,
    /// The contending flows, strongest contributor first.
    pub flows: Vec<FlowPair>,
}

/// Payload-type-specific fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data packet (Fig 3.16).
    Data {
        /// Message this fragment belongs to.
        msg_id: u64,
        /// Fragment sequence within the message (`MPI_sequence`).
        mpi_seq: u32,
        /// `F` bit: last fragment of the message.
        final_frag: bool,
        /// Whether the destination should emit an ACK.
        needs_ack: bool,
    },
    /// An acknowledge / notification packet (Fig 3.17).
    Ack {
        /// Path latency measured by the acknowledged data packet
        /// (network traversal time, Eq 3.3).
        data_latency: Time,
        /// Which metapath alternative the data packet used.
        data_msp: u8,
        /// `Some(router)` when this is a *predictive ACK* injected by a
        /// congested router (router-based scheme, §3.4.1).
        from_router: Option<RouterId>,
    },
}

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (diagnostics, ordering).
    pub id: u64,
    /// Originating terminal. Intermediate routers never change it.
    pub src: NodeId,
    /// Destination terminal.
    pub dst: NodeId,
    /// Size in bytes (headers included).
    pub size: u32,
    /// Creation time at the source (end-to-end latency reference).
    pub created: Time,
    /// Time the packet left the NIC injection queue (network-latency
    /// reference; equals `created` until injection).
    pub nic_depart: Time,
    /// Multi-step routing header + `Header_id`.
    pub route: RouteState,
    /// Index of the metapath alternative this packet was mapped to.
    pub msp_index: u8,
    /// Accumulated queuing delay across routers (the Path-Latency field,
    /// maintained by each router's Latency-Update module).
    pub path_latency: Time,
    /// Routers traversed so far.
    pub hops: u16,
    /// Type-specific fields.
    pub kind: PacketKind,
    /// Optional predictive header (contending flows).
    pub predictive: Option<Box<PredictiveHeader>>,
    /// Bookkeeping: when the packet entered its current queue.
    pub queued_at: Time,
    /// Bookkeeping: output port decided by the routing unit at the
    /// current router.
    pub decided_port: Option<Port>,
}

impl Packet {
    /// A data packet ready for NIC injection.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: u64,
        src: NodeId,
        dst: NodeId,
        size: u32,
        created: Time,
        route: RouteState,
        msp_index: u8,
        msg_id: u64,
        mpi_seq: u32,
        final_frag: bool,
        needs_ack: bool,
    ) -> Self {
        Self {
            id,
            src,
            dst,
            size,
            created,
            nic_depart: created,
            route,
            msp_index,
            path_latency: 0,
            hops: 0,
            kind: PacketKind::Data {
                msg_id,
                mpi_seq,
                final_frag,
                needs_ack,
            },
            predictive: None,
            queued_at: created,
            decided_port: None,
        }
    }

    /// An ACK for `data`, to be injected at the destination NIC
    /// (destination-based notification, §3.2.2). The predictive header
    /// collected along the data packet's path is moved into the ACK.
    pub fn ack_for(data: &mut Packet, id: u64, now: Time, ack_bytes: u32) -> Self {
        let kind = PacketKind::Ack {
            data_latency: now.saturating_sub(data.nic_depart),
            data_msp: data.msp_index,
            from_router: None,
        };
        let header = data.predictive.take();
        Self::control(id, data.dst, data.src, ack_bytes, now, kind, header)
    }

    /// A predictive ACK injected by a congested router (router-based
    /// notification, §3.4.1). Carries no latency sample, only flows, in
    /// a caller-provided (typically pooled) header box; `header.router`
    /// is overwritten with the notifying router.
    pub fn predictive_ack_with(
        id: u64,
        router: RouterId,
        to_source: NodeId,
        mut header: Box<PredictiveHeader>,
        now: Time,
        ack_bytes: u32,
        nominal_src: NodeId,
    ) -> Self {
        header.router = Some(router);
        let kind = PacketKind::Ack {
            data_latency: 0,
            data_msp: 0,
            from_router: Some(router),
        };
        let header = Some(header);
        Self::control(id, nominal_src, to_source, ack_bytes, now, kind, header)
    }

    /// A control packet created at `now` on the minimal route.
    fn control(
        id: u64,
        src: NodeId,
        dst: NodeId,
        size: u32,
        now: Time,
        kind: PacketKind,
        predictive: Option<Box<PredictiveHeader>>,
    ) -> Self {
        Self {
            id,
            src,
            dst,
            size,
            created: now,
            nic_depart: now,
            route: RouteState::new(prdrb_topology::PathDescriptor::Minimal),
            msp_index: 0,
            path_latency: 0,
            hops: 0,
            kind,
            predictive,
            queued_at: now,
            decided_port: None,
        }
    }

    /// The flow pair this packet belongs to.
    pub fn flow(&self) -> FlowPair {
        (self.src, self.dst)
    }

    /// True for data packets.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }

    /// Append contending-flow information observed at `router`, capping
    /// the header at `max_flows` entries (destination-based scheme: the
    /// info rides the data packet to the destination).
    pub fn attach_flows(&mut self, router: RouterId, flows: &[FlowPair], max_flows: usize) {
        let hdr = self.predictive.get_or_insert_with(|| {
            Box::new(PredictiveHeader {
                router: Some(router),
                flows: Vec::new(),
            })
        });
        hdr.router = Some(router);
        for &f in flows {
            if hdr.flows.len() >= max_flows {
                break;
            }
            if !hdr.flows.contains(&f) {
                hdr.flows.push(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::PathDescriptor;

    fn data_packet() -> Packet {
        Packet::data(
            1,
            NodeId(2),
            NodeId(9),
            1024,
            100,
            RouteState::new(PathDescriptor::Minimal),
            0,
            77,
            0,
            true,
            true,
        )
    }

    #[test]
    fn data_packet_fields() {
        let p = data_packet();
        assert_eq!(p.flow(), (NodeId(2), NodeId(9)));
        assert!(p.is_data());
        assert!(p.predictive.is_none());
        assert_eq!(p.path_latency, 0);
    }

    #[test]
    fn ack_reverses_direction_and_takes_header() {
        let mut d = data_packet();
        d.nic_depart = 200;
        d.attach_flows(RouterId(4), &[(NodeId(1), NodeId(5))], 8);
        let ack = Packet::ack_for(&mut d, 2, 1_200, 64);
        assert_eq!(ack.src, NodeId(9));
        assert_eq!(ack.dst, NodeId(2));
        assert_eq!(ack.size, 64);
        match ack.kind {
            PacketKind::Ack {
                data_latency,
                data_msp,
                from_router,
            } => {
                assert_eq!(data_latency, 1_000);
                assert_eq!(data_msp, 0);
                assert_eq!(from_router, None);
            }
            _ => panic!("not an ack"),
        }
        // Header moved, not copied.
        assert!(d.predictive.is_none());
        assert_eq!(ack.predictive.unwrap().flows, vec![(NodeId(1), NodeId(5))]);
    }

    #[test]
    fn attach_flows_caps_and_dedups() {
        let mut p = data_packet();
        let flows: Vec<FlowPair> = (0..10).map(|i| (NodeId(i), NodeId(i + 100))).collect();
        p.attach_flows(RouterId(0), &flows, 4);
        assert_eq!(p.predictive.as_ref().unwrap().flows.len(), 4);
        // Re-attaching the same flows does not duplicate.
        p.attach_flows(RouterId(1), &flows[..2], 8);
        assert_eq!(p.predictive.as_ref().unwrap().flows.len(), 4);
        assert_eq!(p.predictive.as_ref().unwrap().router, Some(RouterId(1)));
    }

    #[test]
    fn predictive_ack_carries_router_identity() {
        let header = Box::new(PredictiveHeader {
            router: None,
            flows: vec![(NodeId(3), NodeId(7))],
        });
        let ack =
            Packet::predictive_ack_with(9, RouterId(12), NodeId(3), header, 500, 64, NodeId(7));
        assert_eq!(ack.dst, NodeId(3));
        match ack.kind {
            PacketKind::Ack { from_router, .. } => assert_eq!(from_router, Some(RouterId(12))),
            _ => panic!(),
        }
        let header = ack.predictive.unwrap();
        assert_eq!(header.router, Some(RouterId(12)));
        assert_eq!(header.flows, vec![(NodeId(3), NodeId(7))]);
    }
}
