//! Configuration of the DRB-family policies.

use prdrb_simcore::time::{Time, MICROSECOND};

/// EWMA weight for folding ACK latency samples into per-path estimates
/// (UGAL's estimates use it too, so comparisons share one smoothing).
pub(crate) const EWMA_ALPHA: f64 = 0.5;
/// FR-DRB watchdog: expand when no ACK arrived for this long after a
/// send (§4.8.4). Only FR-DRB and PR-FR-DRB read it.
pub(crate) const WATCHDOG_NS: Time = 60 * MICROSECOND;
/// Horizon for the trend projection: react early when the projected
/// latency this far ahead crosses `Threshold_High`.
pub(crate) const TREND_HORIZON_NS: Time = 60 * MICROSECOND;

/// Similarity measure for matching a live contending-flow pattern against
/// a saved congestion situation (§3.2.8: "approximation matching", 80 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Similarity {
    /// `|A∩B| / |A∪B|` — symmetric, strict.
    Jaccard,
    /// `|A∩B| / min(|A|,|B|)` — lenient overlap coefficient.
    Overlap,
}

/// Tunables shared by DRB, FR-DRB, PR-DRB and PR-FR-DRB. The variant
/// itself is the [`PolicyKind`](crate::PolicyKind), not a field here.
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
    /// Use router-based early notification (§3.4.1) instead of the
    /// default destination-based scheme (§3.2.2). Only PR-DRB and
    /// PR-FR-DRB read it.
    pub router_based: bool,
    /// Latency-trend prediction (§5.2 open line): sliding-window size
    /// for the per-flow trend detector; 0 disables it. The projection
    /// looks `TREND_HORIZON_NS` ahead.
    pub trend_window: usize,
}

impl Default for DrbConfig {
    fn default() -> Self {
        Self {
            threshold_low_ns: 8 * MICROSECOND,
            threshold_high_ns: 20 * MICROSECOND,
            max_paths: 4,
            adjust_settle_ns: 120 * MICROSECOND,
            min_similarity: 0.8,
            max_solutions: 1024,
            similarity: Similarity::Overlap,
            router_based: false,
            trend_window: 0,
        }
    }
}

impl DrbConfig {
    /// Sanity-check the configuration.
    pub fn validate(&self) {
        assert!(
            self.threshold_low_ns < self.threshold_high_ns,
            "zone thresholds inverted"
        );
        assert!(self.max_paths >= 1);
        assert!(self.max_solutions >= 1, "solution store needs capacity");
        assert!((0.0..=1.0).contains(&self.min_similarity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
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
