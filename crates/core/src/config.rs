//! Configuration of the DRB-family policies.

use prdrb_simcore::time::{Time, MICROSECOND};

/// Similarity measure for matching a live contending-flow pattern against
/// a saved congestion situation (§3.2.8: "approximation matching", 80 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Similarity {
    /// `|A∩B| / |A∪B|` — symmetric, strict.
    Jaccard,
    /// `|A∩B| / min(|A|,|B|)` — lenient overlap coefficient.
    Overlap,
    /// `|A∩B| / |saved|` — how much of the saved pattern reappeared.
    Containment,
}

/// Tunables shared by DRB, FR-DRB and PR-DRB.
#[derive(Debug, Clone, Copy)]
pub struct DrbConfig {
    /// `Threshold_Low`: below this metapath latency, alternative paths
    /// start closing (§3.2.4).
    pub threshold_low_ns: Time,
    /// `Threshold_High`: above this metapath latency, the metapath
    /// expands (saturation boundary).
    pub threshold_high_ns: Time,
    /// Maximum alternative paths per metapath (the evaluation used 4,
    /// §4.6.3).
    pub max_paths: usize,
    /// EWMA weight for folding ACK latency samples into per-path
    /// estimates.
    pub ewma_alpha: f64,
    /// Minimum time between metapath adjustments (open/close) for one
    /// flow: DRB opens "one path at a time, evaluating the effect of
    /// that path on latency" (§4.5.1), which takes at least a
    /// notification round trip. Applying a saved solution (PR-DRB)
    /// bypasses this — "maximum path expansion is directly done"
    /// (§4.6.3).
    pub adjust_settle_ns: Time,
    /// Minimum pattern similarity to reuse a saved solution (0.8 per
    /// §3.2.8).
    pub min_similarity: f64,
    /// Capacity of each per-source solution database. When a new
    /// pattern arrives at a full store, the entry with the fewest hits
    /// (oldest on ties) is evicted deterministically — the open-loop
    /// workload (DESIGN §12) exists to stress exactly this bound. The
    /// default is far above what any closed-loop evaluation run saves,
    /// so the paper figures are unaffected.
    pub max_solutions: usize,
    /// Which similarity measure to use.
    pub similarity: Similarity,
    /// FR-DRB watchdog: expand when no ACK arrived for this long after a
    /// send (§4.8.4; `None` disables the watchdog).
    pub watchdog_ns: Option<Time>,
    /// Save/lookup solutions in the predictive database (PR-DRB); plain
    /// DRB runs with this off.
    pub predictive: bool,
    /// Use router-based early notification (§3.4.1) instead of the
    /// default destination-based scheme (§3.2.2). Only meaningful when
    /// `predictive` is set.
    pub router_based: bool,
    /// Latency-trend prediction (§5.2 open line): sliding-window size
    /// for the per-flow trend detector; 0 disables it.
    pub trend_window: usize,
    /// Horizon for the trend projection: react early when the projected
    /// latency this far ahead crosses `Threshold_High`.
    pub trend_horizon_ns: Time,
}

impl Default for DrbConfig {
    fn default() -> Self {
        Self {
            threshold_low_ns: 8 * MICROSECOND,
            threshold_high_ns: 20 * MICROSECOND,
            max_paths: 4,
            ewma_alpha: 0.5,
            adjust_settle_ns: 120 * MICROSECOND,
            min_similarity: 0.8,
            max_solutions: 1024,
            similarity: Similarity::Overlap,
            watchdog_ns: None,
            predictive: false,
            router_based: false,
            trend_window: 0,
            trend_horizon_ns: 60 * MICROSECOND,
        }
    }
}

impl DrbConfig {
    /// Plain DRB (the CLUSTER 2011 baseline from Franco et al.).
    pub fn drb() -> Self {
        Self::default()
    }

    /// PR-DRB: DRB plus the predictive solution database.
    pub fn pr_drb() -> Self {
        Self {
            predictive: true,
            ..Self::default()
        }
    }

    /// FR-DRB: DRB with the fast-response watchdog timer.
    pub fn fr_drb() -> Self {
        Self {
            watchdog_ns: Some(60 * MICROSECOND),
            ..Self::default()
        }
    }

    /// Predictive FR-DRB (the modular composition shown for POP, §4.8.4).
    pub fn pr_fr_drb() -> Self {
        Self {
            predictive: true,
            ..Self::fr_drb()
        }
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) {
        assert!(
            self.threshold_low_ns < self.threshold_high_ns,
            "zone thresholds inverted"
        );
        assert!(self.max_paths >= 1);
        assert!(self.max_solutions >= 1, "solution store needs capacity");
        assert!((0.0..=1.0).contains(&self.ewma_alpha));
        assert!((0.0..=1.0).contains(&self.min_similarity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(!DrbConfig::drb().predictive);
        assert!(DrbConfig::pr_drb().predictive);
        assert!(DrbConfig::fr_drb().watchdog_ns.is_some());
        let prfr = DrbConfig::pr_fr_drb();
        assert!(prfr.predictive && prfr.watchdog_ns.is_some());
        DrbConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_thresholds() {
        DrbConfig {
            threshold_low_ns: 10,
            threshold_high_ns: 5,
            ..Default::default()
        }
        .validate();
    }
}
