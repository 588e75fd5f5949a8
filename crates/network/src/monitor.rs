//! Contending-flows detection — the CFD module of the PR-DRB router
//! (Fig 3.19, §3.2.7).
//!
//! When an output queue's waiting time crosses the congestion threshold,
//! the router inspects the queue and identifies which source/destination
//! pairs contribute most to the contention (the example of Fig 3.13:
//! flows with 50 % and 30 % occupancy get notified; marginal flows do
//! not). Identification is by *occupancy share* — the fraction of queued
//! bytes belonging to each flow.

use crate::packet::{FlowPair, Packet};
use prdrb_topology::NodeId;
use std::collections::VecDeque;

/// One identified contending flow with its occupancy share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contender {
    /// The flow.
    pub flow: FlowPair,
    /// Fraction of queued bytes belonging to the flow, in `[0, 1]`.
    pub share: f64,
}

/// Identify the contending flows in an output queue.
///
/// Returns the flows whose occupancy share is at least `min_share`,
/// strongest first, capped at `max_flows`. `extra` is the packet
/// currently leaving the queue (it contends too, per §3.2.2).
pub fn contending_flows(
    queue: &VecDeque<Box<Packet>>,
    extra: Option<&Packet>,
    min_share: f64,
    max_flows: usize,
) -> Vec<Contender> {
    let mut totals: Vec<(FlowPair, u64)> = Vec::with_capacity(8);
    let mut grand = 0u64;
    let mut add = |flow: FlowPair, bytes: u64| {
        grand += bytes;
        match totals.iter_mut().find(|(f, _)| *f == flow) {
            Some((_, b)) => *b += bytes,
            None => totals.push((flow, bytes)),
        }
    };
    for p in queue {
        add(p.flow(), p.size as u64);
    }
    if let Some(p) = extra {
        add(p.flow(), p.size as u64);
    }
    if grand == 0 {
        return Vec::new();
    }
    // Strongest contributors first; ties broken by flow id for
    // determinism.
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    totals
        .into_iter()
        .map(|(flow, bytes)| Contender {
            flow,
            share: bytes as f64 / grand as f64,
        })
        .filter(|c| c.share >= min_share)
        .take(max_flows)
        .collect()
}

/// The GPA notification targets for a contending-flow set: each distinct
/// source once, in first-occurrence order of `pairs` (which arrives
/// strongest-share-first from [`contending_flows`]). A plain
/// `Vec::dedup` is wrong here — it only removes *adjacent* repeats, and
/// a source contending on two flows that interleave with another
/// source's ([A, B, A]) would be notified twice under the same GPA id.
/// `out` is reused scratch; the pair count is capped by the monitor's
/// `max_flows` (≤ 8 in practice), so the quadratic scan beats hashing.
pub fn dedup_sources(pairs: &[FlowPair], out: &mut Vec<NodeId>) {
    out.clear();
    for f in pairs {
        if !out.contains(&f.0) {
            out.push(f.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_simcore::time::Time;
    use prdrb_topology::{PathDescriptor, RouteState};

    fn pkt(src: u32, dst: u32, size: u32) -> Box<Packet> {
        Box::new(Packet::data(
            0,
            NodeId(src),
            NodeId(dst),
            size,
            0 as Time,
            RouteState::new(PathDescriptor::Minimal),
            0,
            0,
            0,
            true,
            false,
        ))
    }

    #[test]
    fn shares_match_fig_3_13_example() {
        // src-dest (1-5) = 50%, (2-7) = 30%, the rest marginal.
        let mut q = VecDeque::new();
        for _ in 0..5 {
            q.push_back(pkt(1, 5, 100));
        }
        for _ in 0..3 {
            q.push_back(pkt(2, 7, 100));
        }
        q.push_back(pkt(3, 8, 100));
        q.push_back(pkt(4, 9, 100));
        let c = contending_flows(&q, None, 0.2, 8);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].flow, (NodeId(1), NodeId(5)));
        assert!((c[0].share - 0.5).abs() < 1e-12);
        assert_eq!(c[1].flow, (NodeId(2), NodeId(7)));
        assert!((c[1].share - 0.3).abs() < 1e-12);
    }

    #[test]
    fn leaving_packet_counts() {
        let q = VecDeque::from([pkt(1, 2, 100)]);
        let leaving = pkt(3, 4, 300);
        let c = contending_flows(&q, Some(&leaving), 0.0, 8);
        assert_eq!(c[0].flow, (NodeId(3), NodeId(4)));
        assert!((c[0].share - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = VecDeque::new();
        assert!(contending_flows(&q, None, 0.0, 8).is_empty());
    }

    #[test]
    fn max_flows_caps_output() {
        let mut q = VecDeque::new();
        for i in 0..10 {
            q.push_back(pkt(i, i + 50, 100));
        }
        let c = contending_flows(&q, None, 0.0, 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn occupancy_is_by_bytes_not_packets() {
        let mut q = VecDeque::new();
        q.push_back(pkt(1, 2, 900)); // one large packet
        for _ in 0..9 {
            q.push_back(pkt(3, 4, 10)); // many tiny ones
        }
        let c = contending_flows(&q, None, 0.0, 8);
        assert_eq!(c[0].flow, (NodeId(1), NodeId(2)));
        assert!(c[0].share > 0.85);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut q = VecDeque::new();
        q.push_back(pkt(5, 6, 100));
        q.push_back(pkt(1, 2, 100));
        let c = contending_flows(&q, None, 0.0, 8);
        assert_eq!(c[0].flow, (NodeId(1), NodeId(2)));
    }

    #[test]
    fn equal_shares_order_by_flow_key_regardless_of_queue_order() {
        // Three flows with identical occupancy shares, queued in
        // descending key order: the output must come back in ascending
        // FlowPair order, not queue/insertion order, so GPA
        // notification order is stable across runs.
        let mut q = VecDeque::new();
        q.push_back(pkt(7, 9, 100));
        q.push_back(pkt(3, 4, 100));
        q.push_back(pkt(1, 2, 100));
        let c = contending_flows(&q, None, 0.0, 8);
        let flows: Vec<FlowPair> = c.iter().map(|x| x.flow).collect();
        assert_eq!(
            flows,
            vec![
                (NodeId(1), NodeId(2)),
                (NodeId(3), NodeId(4)),
                (NodeId(7), NodeId(9)),
            ]
        );
        for x in &c {
            assert!((x.share - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dedup_sources_is_global_and_first_occurrence_ordered() {
        let a = NodeId(5);
        let b = NodeId(2);
        let c = NodeId(9);
        // Source `a` contends on two flows that interleave with `b` —
        // the adjacent-only dedup this replaced notified `a` twice.
        let pairs = vec![
            (a, NodeId(10)),
            (b, NodeId(11)),
            (a, NodeId(12)),
            (c, NodeId(13)),
        ];
        let mut out = vec![NodeId(99)]; // stale scratch must be cleared
        dedup_sources(&pairs, &mut out);
        assert_eq!(out, vec![a, b, c]);
        dedup_sources(&[], &mut out);
        assert!(out.is_empty());
    }
}
