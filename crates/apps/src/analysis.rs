//! The parallel-application analysis technique of §4.7.
//!
//! "A well defined procedure for estimating the suitability of a given
//! network architecture/topology for a parallel application": extract
//! the communication characteristics (message-size histogram, volume,
//! communication/computation balance, topological connectivity, phase
//! repetitiveness) and decide whether the application is
//! communication-bound enough — and repetitive enough — to benefit from
//! network optimization.
//!
//! The verdicts mirror §2.2.6's own conclusions: POP and the LAMMPS
//! collective phase are "suitable to be used with our proposal", while
//! Sweep3D — neighbors only, network never congests — "is not suitable
//! to be optimized based on its communications characteristics".

use crate::commmatrix::CommMatrix;
use crate::phases::{analyze_phases, PhaseReport};
use crate::trace::{Trace, TraceEvent};
use prdrb_simcore::stats::Histogram;
use prdrb_simcore::time::Time;

/// The §4.7 assessment of one application on one network.
#[derive(Debug)]
pub struct Assessment {
    /// Application name.
    pub name: String,
    /// Total bytes communicated (point-to-point, collectives as issued).
    pub total_bytes: u64,
    /// Total modeled computation time across ranks.
    pub compute_ns: Time,
    /// Estimated serial communication time at `link_gbps` (volume-based
    /// lower bound).
    pub comm_ns_estimate: Time,
    /// Message-size histogram (power-of-two buckets, §4.7.2 "build a
    /// histogram of message sizes").
    pub msg_sizes: Histogram,
    /// Topological degree of communication.
    pub tdc: f64,
    /// Fraction of traffic near the rank diagonal (neighbors).
    pub neighbor_fraction: f64,
    /// Share of collective calls among communication calls.
    pub collective_share: f64,
    /// Phase repetitiveness report (Table 2.2 shape).
    pub phases: PhaseReport,
}

/// Assessment verdict: is this application worth network optimization?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suitability {
    /// Communication-bound, repetitive, with non-local traffic —
    /// PR-DRB-style optimization can pay off.
    Suitable,
    /// Communicates, but almost exclusively with direct neighbors the
    /// network handles without contention (the Sweep3D case).
    NeighborsOnly,
    /// Computation dominates; the network barely matters.
    ComputeBound,
}

impl Assessment {
    /// Analyze a trace against a network of `link_gbps` links.
    pub fn analyze(trace: &Trace, link_gbps: f64) -> Self {
        let mut total_bytes = 0u64;
        let mut compute_ns: Time = 0;
        let mut msg_sizes = Histogram::new();
        let mut comm_calls = 0u64;
        let mut collective_calls = 0u64;
        for e in trace.ranks.iter().flatten() {
            match *e {
                TraceEvent::Compute { ns } => compute_ns += ns,
                TraceEvent::Send { bytes, .. } | TraceEvent::Isend { bytes, .. } => {
                    total_bytes += bytes as u64;
                    msg_sizes.push(bytes as u64);
                    comm_calls += 1;
                }
                TraceEvent::Allreduce { bytes }
                | TraceEvent::Reduce { bytes, .. }
                | TraceEvent::Bcast { bytes, .. } => {
                    total_bytes += bytes as u64;
                    msg_sizes.push(bytes as u64);
                    comm_calls += 1;
                    collective_calls += 1;
                }
                TraceEvent::Barrier => {
                    comm_calls += 1;
                    collective_calls += 1;
                }
                _ => comm_calls += 1,
            }
        }
        let m = CommMatrix::from_trace(trace);
        // A row-major 2-D/3-D stencil's nearest neighbors sit within
        // ±ceil(sqrt(n)) ranks of the diagonal.
        let band = (trace.num_ranks() as f64).sqrt().ceil() as usize;
        Self {
            name: trace.name.clone(),
            total_bytes,
            compute_ns,
            comm_ns_estimate: if total_bytes == 0 {
                0
            } else {
                prdrb_simcore::time::serialization_ns(total_bytes, link_gbps)
            },
            msg_sizes,
            tdc: m.tdc(),
            neighbor_fraction: m.diagonal_fraction(band),
            collective_share: if comm_calls == 0 {
                0.0
            } else {
                collective_calls as f64 / comm_calls as f64
            },
            phases: analyze_phases(trace),
        }
    }

    /// Communication time as a fraction of (comm + compute) — the §4.7.2
    /// "is it communication-bound" estimate.
    pub fn comm_fraction(&self) -> f64 {
        let total = (self.comm_ns_estimate + self.compute_ns) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.comm_ns_estimate as f64 / total
        }
    }

    /// The §4.7 verdict.
    pub fn suitability(&self) -> Suitability {
        if self.comm_fraction() < 0.02 {
            Suitability::ComputeBound
        } else if self.neighbor_fraction > 0.95 && self.collective_share < 0.05 {
            // "Most of the communications are performed among neighbor
            // nodes and the network can handle all the communications
            // without congestion" — §2.2.6 on Sweep3D.
            Suitability::NeighborsOnly
        } else {
            Suitability::Suitable
        }
    }

    /// Render the assessment as the report §4.7 describes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Application analysis — {}\n", self.name));
        out.push_str(&format!(
            "  volume           : {:.2} MiB over {} distinct sizes\n",
            self.total_bytes as f64 / (1024.0 * 1024.0),
            self.msg_sizes.buckets().count()
        ));
        out.push_str("  message sizes    :");
        for (lo, c) in self.msg_sizes.buckets() {
            out.push_str(&format!(" [{lo}B×{c}]"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  comm fraction    : {:.1} % (volume/link-rate vs compute)\n",
            100.0 * self.comm_fraction()
        ));
        out.push_str(&format!(
            "  TDC              : {:.1} distinct peers per rank\n",
            self.tdc
        ));
        out.push_str(&format!(
            "  neighbor traffic : {:.1} %; collectives {:.1} % of calls\n",
            100.0 * self.neighbor_fraction,
            100.0 * self.collective_share
        ));
        out.push_str(&format!(
            "  phases           : {} total, {} relevant, weight {}\n",
            self.phases.total_phases(),
            self.phases.relevant_phases(),
            self.phases.total_weight()
        ));
        out.push_str(&format!("  verdict          : {:?}\n", self.suitability()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{lammps, nas_lu, pop, sweep3d, LammpsProblem, NasClass};
    use crate::trace::Trace;

    #[test]
    fn pop_is_suitable() {
        // §2.2.6: "For this application the analysis and study of its
        // communications characteristics would result in benefits."
        let a = Assessment::analyze(&pop(64, 8), 2.0);
        assert_eq!(a.suitability(), Suitability::Suitable);
        assert!(a.tdc > 4.0);
    }

    #[test]
    fn lammps_is_suitable_via_collectives() {
        // §2.2.6: the comb problem's pure-Allreduce phase "should be
        // considered to be used with our proposal".
        let a = Assessment::analyze(&lammps(LammpsProblem::Comb, 64), 2.0);
        assert_eq!(a.suitability(), Suitability::Suitable);
        assert!(a.collective_share > 0.01);
    }

    #[test]
    fn sweep3d_is_neighbors_only() {
        // §2.2.6: "this application is not suitable to be optimized
        // based on its communications characteristics."
        let a = Assessment::analyze(&sweep3d(64), 2.0);
        assert_eq!(a.suitability(), Suitability::NeighborsOnly);
        assert!(a.neighbor_fraction > 0.95);
    }

    #[test]
    fn compute_dominated_trace_is_compute_bound() {
        let mut t = Trace::new("solo", 4);
        t.push_all(TraceEvent::Compute { ns: 1_000_000_000 });
        t.push(
            0,
            TraceEvent::Send {
                dst: 1,
                bytes: 64,
                tag: 0,
            },
        );
        t.push(1, TraceEvent::Recv { src: 0, tag: 0 });
        let a = Assessment::analyze(&t, 2.0);
        assert_eq!(a.suitability(), Suitability::ComputeBound);
        assert!(a.comm_fraction() < 0.001);
    }

    #[test]
    fn histogram_and_volume_populate() {
        let a = Assessment::analyze(&nas_lu(NasClass::A, 64), 2.0);
        assert!(a.total_bytes > 0);
        assert!(a.msg_sizes.total() > 0);
        assert!(a.comm_ns_estimate > 0);
    }

    #[test]
    fn render_contains_verdict() {
        let a = Assessment::analyze(&sweep3d(16), 2.0);
        let s = a.render();
        assert!(s.contains("verdict"));
        assert!(s.contains("NeighborsOnly"));
        assert!(s.contains("TDC"));
    }

    #[test]
    fn empty_trace_is_compute_bound() {
        let t = Trace::new("empty", 2);
        let a = Assessment::analyze(&t, 2.0);
        assert_eq!(a.suitability(), Suitability::ComputeBound);
        assert_eq!(a.comm_fraction(), 0.0);
    }
}
