//! Packet arena: recycle `Box<Packet>` allocations through the
//! NIC→router→sink→ACK lifecycle.
//!
//! Every data packet and every ACK is heap-boxed once at injection and
//! freed after delivery; at saturation loads that is two allocator
//! round-trips per packet — a dominant DES cost the classic simulators
//! avoid with object pooling. The pool keeps freed boxes (and their
//! inner predictive-header `flows` vectors) on free lists, so a
//! steady-state run allocates only while its in-flight population is
//! still growing.
//!
//! Recycling cannot change simulation results: a recycled box is fully
//! overwritten with the new packet value before re-entering the fabric,
//! and headers hand out empty (cleared) flow vectors.

use crate::packet::{FlowPair, Packet, PredictiveHeader};

/// Free-list caps: bound worst-case retained memory (a few MiB) without
/// limiting steady-state reuse — in-flight populations at thesis scale
/// are far below these.
const MAX_PACKETS: usize = 1 << 14;
const MAX_HEADERS: usize = 1 << 12;
const MAX_FLOW_VECS: usize = 1 << 12;

/// Recycling arena for packets, predictive headers and flow lists.
// The boxes ARE the resource being pooled: the fabric circulates
// `Box<Packet>`/`Box<PredictiveHeader>`, so the free lists must retain
// the allocations themselves, not the values.
#[allow(clippy::vec_box)]
#[derive(Debug, Default)]
pub struct PacketPool {
    packets: Vec<Box<Packet>>,
    headers: Vec<Box<PredictiveHeader>>,
    flow_vecs: Vec<Vec<FlowPair>>,
    /// Boxes handed out (hit or miss).
    pub allocs: u64,
    /// Boxes served from the free list.
    pub reuses: u64,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Box `pkt`, reusing a freed allocation when one is available.
    pub fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        self.allocs += 1;
        match self.packets.pop() {
            Some(mut b) => {
                self.reuses += 1;
                *b = pkt;
                b
            }
            None => Box::new(pkt),
        }
    }

    /// Return a delivered packet's allocations to the pool.
    pub fn free(&mut self, mut b: Box<Packet>) {
        if let Some(h) = b.predictive.take() {
            self.free_header(h);
        }
        if self.packets.len() < MAX_PACKETS {
            self.packets.push(b);
        }
    }

    /// A predictive header with an empty flow list, reusing a freed one
    /// when available.
    pub fn header(&mut self) -> Box<PredictiveHeader> {
        match self.headers.pop() {
            Some(mut h) => {
                h.router = None;
                debug_assert!(h.flows.is_empty());
                h
            }
            None => Box::new(PredictiveHeader {
                router: None,
                flows: self.flow_vec(),
            }),
        }
    }

    /// Return a predictive header (and its flow vector) to the pool.
    pub fn free_header(&mut self, mut h: Box<PredictiveHeader>) {
        h.flows.clear();
        if self.headers.len() < MAX_HEADERS {
            self.headers.push(h);
        }
    }

    /// An empty scratch flow list.
    pub fn flow_vec(&mut self) -> Vec<FlowPair> {
        self.flow_vecs.pop().unwrap_or_default()
    }

    /// Return a scratch flow list.
    pub fn free_flow_vec(&mut self, mut v: Vec<FlowPair>) {
        v.clear();
        if self.flow_vecs.len() < MAX_FLOW_VECS {
            self.flow_vecs.push(v);
        }
    }

    /// Free-listed packet boxes (diagnostics).
    pub fn idle_packets(&self) -> usize {
        self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_simcore::time::Time;
    use prdrb_topology::{NodeId, PathDescriptor, RouteState, RouterId};

    fn pkt(id: u64) -> Packet {
        Packet::data(
            id,
            NodeId(1),
            NodeId(2),
            1024,
            0 as Time,
            RouteState::new(PathDescriptor::Minimal),
            0,
            0,
            0,
            true,
            true,
        )
    }

    #[test]
    fn boxes_are_reused_and_fully_overwritten() {
        let mut pool = PacketPool::new();
        let mut a = pool.boxed(pkt(1));
        a.attach_flows(RouterId(3), &[(NodeId(5), NodeId(6))], 8);
        let addr = &*a as *const Packet as usize;
        pool.free(a);
        let b = pool.boxed(pkt(2));
        // Same allocation, brand-new contents — the stale predictive
        // header must not leak into the recycled packet.
        assert_eq!(&*b as *const Packet as usize, addr);
        assert_eq!(b.id, 2);
        assert!(b.predictive.is_none());
        assert_eq!(pool.reuses, 1);
        assert_eq!(pool.allocs, 2);
    }

    #[test]
    fn headers_come_back_empty() {
        let mut pool = PacketPool::new();
        let mut h = pool.header();
        h.router = Some(RouterId(7));
        h.flows.push((NodeId(1), NodeId(2)));
        pool.free_header(h);
        let h2 = pool.header();
        assert_eq!(h2.router, None);
        assert!(h2.flows.is_empty());
    }

    #[test]
    fn freeing_a_packet_recycles_its_header() {
        let mut pool = PacketPool::new();
        let mut p = pool.boxed(pkt(1));
        p.attach_flows(RouterId(0), &[(NodeId(1), NodeId(2))], 8);
        pool.free(p);
        assert_eq!(pool.headers.len(), 1);
        let h = pool.header();
        assert!(h.flows.is_empty());
    }
}
