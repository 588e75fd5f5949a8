//! Open-loop arrival workload (DESIGN §12).
//!
//! The closed-loop generators (bursts, phases) inject at a rate; an
//! *open-loop* workload instead draws a flow-arrival process that does
//! not react to network backpressure — Poisson arrivals with
//! heavy-tailed (bounded-Pareto) flow sizes, each flow aimed by a
//! spatial pattern. The point is adversarial for PR-DRB: arrivals are
//! *aperiodic*, so the solution store sees a stream of near-miss
//! patterns that stresses capacity, eviction, and the linear matching
//! scan instead of rewarding it, bounding the policy's overhead in the
//! no-repetition regime.
//!
//! Determinism: every draw comes from per-source [`Splitmix64`]
//! substreams of the config seed ([`OpenLoopSpec::stream`]) — no
//! entropy, no wall clock — so the workload folds into the run-cache
//! key exactly like a synthetic schedule.

use crate::patterns::TrafficPattern;
use crate::sampler::BoundedPareto;
use prdrb_simcore::rng::Splitmix64;

/// Parameters of the open-loop arrival process. All fields are plain
/// data (hashable into `RunKey`).
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Mean flow inter-arrival gap per source node (ns).
    pub mean_gap_ns: f64,
    /// Flow-size tail index (smaller = heavier tail).
    pub alpha: f64,
    /// Smallest flow (bytes).
    pub min_bytes: u32,
    /// Largest flow (bytes).
    pub max_bytes: u32,
    /// Spatial pattern aiming each flow.
    pub pattern: TrafficPattern,
}

impl OpenLoopSpec {
    /// A moderate heavy-tail preset: mean gap `gap_ns`, alpha 1.3,
    /// flows 256 B – 256 KiB, uniformly aimed.
    pub fn heavy_tail(gap_ns: f64) -> Self {
        Self {
            mean_gap_ns: gap_ns,
            alpha: 1.3,
            min_bytes: 256,
            max_bytes: 256 * 1024,
            pattern: TrafficPattern::Uniform,
        }
    }

    /// The size distribution.
    pub fn sizes(&self) -> BoundedPareto {
        BoundedPareto::new(self.alpha, self.min_bytes as f64, self.max_bytes as f64)
    }

    /// The dedicated sampler stream for `source`, derived purely from
    /// the run seed — stream `i` is independent of stream `j` and of
    /// how many draws either has made.
    pub fn stream(&self, seed: u64, source: u32) -> Splitmix64 {
        Splitmix64::substream(seed, source as u64)
    }

    /// Expected offered load per source in Mbps (mean size over mean
    /// gap) — lets targets pick gaps that land at a chosen utilization.
    pub fn offered_mbps(&self) -> f64 {
        let bits = self.sizes().mean() * 8.0;
        bits / (self.mean_gap_ns * 1e-9) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::exp_gap_ns;

    #[test]
    fn streams_are_per_source_and_reproducible() {
        let s = OpenLoopSpec::heavy_tail(10_000.0);
        let mut a0 = s.stream(9, 0);
        let mut a1 = s.stream(9, 1);
        assert_ne!(a0.next_u64(), a1.next_u64());
        let mut b0 = s.stream(9, 0);
        let mut c0 = s.stream(9, 0);
        assert_eq!(b0.next_u64(), c0.next_u64());
    }

    #[test]
    fn offered_load_matches_simulated_draws() {
        let s = OpenLoopSpec::heavy_tail(50_000.0);
        let sizes = s.sizes();
        let mut rng = s.stream(3, 0);
        let n = 100_000;
        let mut bytes = 0.0;
        let mut ns = 0.0;
        for _ in 0..n {
            ns += exp_gap_ns(rng.unit(), s.mean_gap_ns) as f64;
            bytes += sizes.sample(&mut rng);
        }
        let emp_mbps = bytes * 8.0 / (ns * 1e-9) / 1e6;
        let want = s.offered_mbps();
        let err = (emp_mbps - want).abs() / want;
        assert!(err < 0.05, "empirical {emp_mbps} vs {want} Mbps ({err})");
    }
}
