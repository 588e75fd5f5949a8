//! Bursty traffic schedules (§2.2.3, Fig 2.6).
//!
//! HPC traffic alternates computation (low uniform background load) with
//! communication bursts. Two shapes from Fig 2.6:
//!
//! * **fixed-pattern bursts** (Fig 2.6a): every burst replays the same
//!   permutation — the repetitive case PR-DRB learns from;
//! * **variable-pattern bursts** (Fig 2.6b): the pattern changes each
//!   burst (task migration / data-dependent communication), the stress
//!   case where a predictive policy must not hurt.

use crate::patterns::TrafficPattern;
use prdrb_simcore::time::Time;

/// What a burst sends.
#[derive(Debug, Clone)]
pub enum BurstPattern {
    /// Every burst uses the same pattern (Fig 2.6a).
    Fixed(TrafficPattern),
    /// Burst `i` uses `patterns[i % len]` (Fig 2.6b).
    Cycling(Vec<TrafficPattern>),
}

/// A periodic bursty injection schedule.
#[derive(Debug, Clone)]
pub struct BurstSchedule {
    /// Background (computation-phase) injection rate in Mbps per node.
    pub low_mbps: f64,
    /// Burst (communication-phase) injection rate in Mbps per node.
    pub high_mbps: f64,
    /// Background traffic pattern (uniform noise in the evaluation).
    pub low_pattern: TrafficPattern,
    /// Burst traffic pattern(s).
    pub burst: BurstPattern,
    /// Burst duration.
    pub on_ns: Time,
    /// Gap between bursts.
    pub off_ns: Time,
    /// First burst start.
    pub start_ns: Time,
}

impl BurstSchedule {
    /// The repetitive-burst workload of the hot-spot evaluation
    /// (Table 4.2): uniform background plus periodic permutation bursts.
    pub fn repetitive(pattern: TrafficPattern, high_mbps: f64, on_ns: Time, off_ns: Time) -> Self {
        Self {
            low_mbps: high_mbps * 0.1,
            high_mbps,
            low_pattern: TrafficPattern::Uniform,
            burst: BurstPattern::Fixed(pattern),
            on_ns,
            off_ns,
            start_ns: 0,
        }
    }

    /// Continuous (non-bursty) injection at a fixed rate — the permanent
    /// permutation load of §4.6.3.
    pub fn continuous(pattern: TrafficPattern, mbps: f64) -> Self {
        Self {
            low_mbps: mbps,
            high_mbps: mbps,
            low_pattern: pattern.clone(),
            burst: BurstPattern::Fixed(pattern),
            on_ns: Time::MAX / 4,
            off_ns: 0,
            start_ns: 0,
        }
    }

    /// Which burst (if any) is active at `t`, and its index.
    pub fn burst_index(&self, t: Time) -> Option<u64> {
        if t < self.start_ns {
            return None;
        }
        let period = self.on_ns.saturating_add(self.off_ns);
        if period == 0 {
            return Some(0);
        }
        let since = t - self.start_ns;
        let idx = since / period;
        let into = since % period;
        (into < self.on_ns).then_some(idx)
    }

    /// Injection rate (Mbps) and pattern in force at time `t`.
    pub fn at(&self, t: Time) -> (f64, &TrafficPattern) {
        match self.burst_index(t) {
            None => (self.low_mbps, &self.low_pattern),
            Some(i) => {
                let p = match &self.burst {
                    BurstPattern::Fixed(p) => p,
                    BurstPattern::Cycling(ps) => &ps[(i as usize) % ps.len()],
                };
                (self.high_mbps, p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> BurstSchedule {
        BurstSchedule {
            low_mbps: 40.0,
            high_mbps: 400.0,
            low_pattern: TrafficPattern::Uniform,
            burst: BurstPattern::Fixed(TrafficPattern::Shuffle),
            on_ns: 1_000,
            off_ns: 3_000,
            start_ns: 500,
        }
    }

    #[test]
    fn burst_windows() {
        let s = sched();
        assert_eq!(s.burst_index(0), None, "before start");
        assert_eq!(s.burst_index(500), Some(0));
        assert_eq!(s.burst_index(1_499), Some(0));
        assert_eq!(s.burst_index(1_500), None, "gap");
        assert_eq!(s.burst_index(4_500), Some(1));
    }

    #[test]
    fn rates_and_patterns_switch() {
        let s = sched();
        let (r, p) = s.at(200);
        assert_eq!(r, 40.0);
        assert_eq!(p.label(), "uniform");
        let (r, p) = s.at(600);
        assert_eq!(r, 400.0);
        assert_eq!(p.label(), "shuffle");
    }

    #[test]
    fn cycling_patterns_change_per_burst() {
        let s = BurstSchedule {
            burst: BurstPattern::Cycling(vec![
                TrafficPattern::Shuffle,
                TrafficPattern::BitReversal,
            ]),
            ..sched()
        };
        assert_eq!(s.at(600).1.label(), "shuffle"); // burst 0
        assert_eq!(s.at(4_600).1.label(), "bit-reversal"); // burst 1
        assert_eq!(s.at(8_600).1.label(), "shuffle"); // burst 2 wraps
    }

    #[test]
    fn continuous_never_pauses() {
        let s = BurstSchedule::continuous(TrafficPattern::Transpose, 600.0);
        for t in [0u64, 1_000_000, 1_000_000_000] {
            let (r, p) = s.at(t);
            assert_eq!(r, 600.0);
            assert_eq!(p.label(), "transpose");
        }
    }

    #[test]
    fn repetitive_preset_has_low_background() {
        let s = BurstSchedule::repetitive(TrafficPattern::Shuffle, 400.0, 1_000, 1_000);
        assert!(s.low_mbps < s.high_mbps);
        assert_eq!(s.at(100).1.label(), "shuffle");
        assert_eq!(s.at(1_100).1.label(), "uniform");
    }
}
