//! Deterministic distribution samplers for the open-loop workload.
//!
//! The open-loop arrival generator (DESIGN §12) needs two distributions
//! that the repetitive-burst machinery does not: Poisson inter-arrivals
//! (exponential gaps) and heavy-tailed flow sizes (bounded Pareto, the
//! standard model for datacenter/HPC flow-size distributions). Both are
//! driven by a [`Splitmix64`] stream seeded *only* from `SimConfig`
//! fields — never from wall-clock time or OS entropy — so a workload is
//! a pure function of its config and the run cache stays sound.
//!
//! Splitmix64 is chosen over the workspace's `SimRng` for these streams
//! because its state is one `u64`: the exact sequence is trivially
//! pinned in unit tests, and per-stream seeding (`seed ^ mix(index)`)
//! cannot entangle streams the way splitting a single generator would.

use prdrb_simcore::rng::Splitmix64;

/// Exponential gap: an inter-arrival time of a Poisson process with
/// the given mean, by inversion of the uniform draw `unit` in `[0, 1)`.
/// The draw is clamped away from 0 so `ln` stays finite; gaps are
/// floored at 1 ns (the simulator's time quantum).
pub fn exp_gap_ns(unit: f64, mean_ns: f64) -> u64 {
    (-unit.max(1e-12).ln() * mean_ns).max(1.0) as u64
}

/// Bounded Pareto flow-size distribution on `[lo, hi]` with shape
/// `alpha`. Heavy-tailed for small `alpha` (most mass near `lo`, rare
/// huge flows near `hi`) — the canonical stressor for a solution store:
/// many short flows churn the pattern DB while occasional elephants
/// dominate the byte count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Tail index (must be > 0; heavier tail as it approaches 0).
    pub alpha: f64,
    /// Smallest value (must be > 0).
    pub lo: f64,
    /// Largest value (must be ≥ `lo`).
    pub hi: f64,
}

impl BoundedPareto {
    /// Construct, validating the parameter domain.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "bounded Pareto needs alpha > 0");
        assert!(lo > 0.0 && hi >= lo, "bounded Pareto needs 0 < lo <= hi");
        Self { alpha, lo, hi }
    }

    /// Draw one sample by inverse CDF:
    /// `F^-1(u) = (lo^-a - u (lo^-a - hi^-a))^(-1/a)`.
    pub fn sample(&self, rng: &mut Splitmix64) -> f64 {
        if self.hi == self.lo {
            return self.lo;
        }
        let u = rng.unit();
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
    }

    /// Closed-form mean — the tolerance reference for the sampler tests.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        if h == l {
            return l;
        }
        if (a - 1.0).abs() < 1e-9 {
            // alpha = 1 limit: mean = ln(h/l) / (1/l - 1/h).
            return (h / l).ln() / (1.0 / l - 1.0 / h);
        }
        let la = l.powf(-a);
        let ha = h.powf(-a);
        (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a)) / (la - ha)
    }

    /// Closed-form CDF on `[lo, hi]` — the reference for the empirical
    /// CDF tolerance test.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - x.powf(-self.alpha)) / (la - ha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_gaps_match_closed_form_mean() {
        let mut rng = Splitmix64::new(99);
        let mean = 5_000.0;
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| exp_gap_ns(rng.unit(), mean)).sum();
        let emp = sum as f64 / n as f64;
        let err = (emp - mean).abs() / mean;
        assert!(err < 0.02, "empirical mean {emp} vs {mean} (err {err})");
    }

    #[test]
    fn exp_gap_exact_sequence_per_seed() {
        let mut a = Splitmix64::new(31337);
        let sa: Vec<u64> = (0..8).map(|_| exp_gap_ns(a.unit(), 1000.0)).collect();
        let mut b = Splitmix64::new(31337);
        let sb: Vec<u64> = (0..8).map(|_| exp_gap_ns(b.unit(), 1000.0)).collect();
        assert_eq!(sa, sb);
        let mut c = Splitmix64::new(31338);
        let sc: Vec<u64> = (0..8).map(|_| exp_gap_ns(c.unit(), 1000.0)).collect();
        assert_ne!(sa, sc, "different seed, different gaps");
        assert!(sa.iter().all(|&g| g >= 1), "gaps floored at 1 ns");
    }

    #[test]
    fn pareto_samples_stay_in_bounds() {
        let p = BoundedPareto::new(1.3, 64.0, 1_048_576.0);
        let mut rng = Splitmix64::new(5);
        for _ in 0..50_000 {
            let x = p.sample(&mut rng);
            assert!(x >= p.lo && x <= p.hi, "sample {x} out of bounds");
        }
    }

    #[test]
    fn pareto_mean_matches_closed_form() {
        for alpha in [0.8, 1.0, 1.3, 2.5] {
            let p = BoundedPareto::new(alpha, 100.0, 100_000.0);
            let mut rng = Splitmix64::new(11);
            let n = 400_000;
            let sum: f64 = (0..n).map(|_| p.sample(&mut rng)).sum();
            let emp = sum / n as f64;
            let want = p.mean();
            let err = (emp - want).abs() / want;
            assert!(
                err < 0.03,
                "alpha {alpha}: empirical {emp} vs closed-form {want} (err {err})"
            );
        }
    }

    #[test]
    fn pareto_empirical_cdf_matches_closed_form() {
        let p = BoundedPareto::new(1.5, 64.0, 65_536.0);
        let mut rng = Splitmix64::new(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        for q in [100.0, 500.0, 2_000.0, 10_000.0, 50_000.0] {
            let emp = samples.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            let want = p.cdf(q);
            assert!(
                (emp - want).abs() < 0.01,
                "CDF({q}): empirical {emp} vs closed-form {want}"
            );
        }
        assert_eq!(p.cdf(p.lo), 0.0);
        assert_eq!(p.cdf(p.hi), 1.0);
    }

    #[test]
    fn pareto_exact_sequence_per_seed() {
        let p = BoundedPareto::new(1.3, 64.0, 4096.0);
        let mut a = Splitmix64::new(2024);
        let sa: Vec<u64> = (0..8).map(|_| p.sample(&mut a) as u64).collect();
        let mut b = Splitmix64::new(2024);
        let sb: Vec<u64> = (0..8).map(|_| p.sample(&mut b) as u64).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn degenerate_pareto_is_constant() {
        let p = BoundedPareto::new(1.0, 512.0, 512.0);
        let mut rng = Splitmix64::new(1);
        assert_eq!(p.sample(&mut rng), 512.0);
        assert_eq!(p.mean(), 512.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn pareto_rejects_bad_alpha() {
        BoundedPareto::new(0.0, 1.0, 2.0);
    }
}
