//! Run reports: everything a figure needs from one simulation.

use prdrb_core::PolicyStats;
use prdrb_metrics::{LatencyMap, LatencyQuantiles, SeriesSummary};
use prdrb_simcore::stats::TimeSeries;
use prdrb_simcore::time::Time;

/// The outcome of one simulation run.
#[derive(Debug)]
pub struct RunReport {
    /// Run label.
    pub label: String,
    /// Policy name.
    pub policy: String,
    /// Topology label.
    pub topology: String,
    /// Global average network latency in µs (Eq 4.2: the average of the
    /// per-destination incremental means of Eq 4.1).
    pub global_avg_latency_us: f64,
    /// Time-bucketed latency curve (µs).
    pub series: TimeSeries,
    /// Latency quantile sketch (p50/p95/p99 tails).
    pub quantiles: LatencyQuantiles,
    /// Application execution time (trace runs only).
    pub exec_time_ns: Option<Time>,
    /// Messages injected.
    pub messages: u64,
    /// Data packets offered / accepted. Lossless semantics end at a
    /// dead wire: on fault-free runs `offered == accepted` after drain;
    /// under a fault plan `offered == accepted + dropped`.
    pub offered: u64,
    /// Data packets accepted.
    pub accepted: u64,
    /// Data packets dropped on failed links or routers.
    pub dropped: u64,
    /// ACK packets generated.
    pub acks_sent: u64,
    /// Congestion notifications (CFD triggers).
    pub notifications: u64,
    /// Per-router average contention latency (µs) — the latency map.
    pub latency_map: LatencyMap,
    /// Per-router contention time series when enabled.
    pub router_series: Vec<Option<TimeSeries>>,
    /// Policy counters (expansions, solution reuse, …).
    pub policy_stats: PolicyStats,
    /// `(reuse_applications, expansions)` accrued while each global
    /// phase of the injection schedule was in force, indexed by global
    /// phase (scheduled runs — synthetic and flow workloads — only;
    /// empty for trace and open-loop runs). Sums to the matching
    /// `policy_stats`.
    pub phase_counts: Vec<(u64, u64)>,
    /// Simulated time at the end of the run.
    pub end_ns: Time,
    /// True when the run hit the hard time wall before completing.
    pub truncated: bool,
}

impl RunReport {
    /// Fold seeded replicas into one representative report (§4.3): the
    /// first replica's series/maps frame the figures, the headline
    /// scalars and the per-router surface become cross-seed means,
    /// quantile sketches merge losslessly and event counters (per-phase
    /// ones element by element) sum.
    /// Replica order is significant for f64 means, so callers must pass
    /// reports in a deterministic order — the engine's sweep executor
    /// already does.
    pub fn fold_replicas(replicas: Vec<RunReport>) -> RunReport {
        assert!(!replicas.is_empty(), "cannot fold zero replicas");
        let sum = |f: fn(&RunReport) -> u64| replicas.iter().map(f).sum::<u64>();
        let stat =
            |f: fn(&PolicyStats) -> u64| replicas.iter().map(|r| f(&r.policy_stats)).sum::<u64>();
        let global_avg_latency_us = mean(replicas.iter().map(|r| r.global_avg_latency_us));
        // Integer-truncating mean over the replicas that report one.
        let execs: Vec<u64> = replicas.iter().filter_map(|r| r.exec_time_ns).collect();
        let exec_time_ns = (!execs.is_empty())
            .then(|| execs.iter().fold(0.0, |s, &t| s + t as f64) as u64 / execs.len() as u64);
        let mut quantiles = LatencyQuantiles::new();
        for r in &replicas {
            quantiles.merge(&r.quantiles);
        }
        let width = replicas.iter().map(|r| r.latency_map.values_us.len()).max();
        let cell = |i| {
            replicas
                .iter()
                .filter_map(move |r| r.latency_map.values_us.get(i).copied())
        };
        let map_means = (0..width.unwrap_or(0)).map(|i| mean(cell(i))).collect();
        let phases = replicas.iter().map(|r| r.phase_counts.len()).max();
        let mut phase_counts = vec![(0, 0); phases.unwrap_or(0)];
        for r in &replicas {
            for (sum, &(hits, exps)) in phase_counts.iter_mut().zip(&r.phase_counts) {
                sum.0 += hits;
                sum.1 += exps;
            }
        }
        let mut folded = RunReport {
            global_avg_latency_us,
            exec_time_ns,
            quantiles,
            messages: sum(|r| r.messages),
            offered: sum(|r| r.offered),
            accepted: sum(|r| r.accepted),
            dropped: sum(|r| r.dropped),
            acks_sent: sum(|r| r.acks_sent),
            notifications: sum(|r| r.notifications),
            policy_stats: PolicyStats {
                expansions: stat(|p| p.expansions),
                shrinks: stat(|p| p.shrinks),
                patterns_found: stat(|p| p.patterns_found),
                patterns_reused: stat(|p| p.patterns_reused),
                reuse_applications: stat(|p| p.reuse_applications),
                watchdog_fires: stat(|p| p.watchdog_fires),
                trend_predictions: stat(|p| p.trend_predictions),
                solutions_invalidated: stat(|p| p.solutions_invalidated),
                store_lookups: stat(|p| p.store_lookups),
                store_evictions: stat(|p| p.store_evictions),
            },
            phase_counts,
            ..replicas.into_iter().next().expect("non-empty")
        };
        folded.latency_map.values_us = map_means;
        folded
    }

    /// Summary of the global latency curve.
    pub fn summary(&self) -> SeriesSummary {
        SeriesSummary::of(&self.series)
    }

    /// Throughput ratio accepted/offered (must settle at 1.0 — §4.2).
    pub fn throughput_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.accepted as f64 / self.offered as f64
        }
    }

    /// p50/p95/p99 latency in µs.
    pub fn tail_latency_us(&self) -> (f64, f64, f64) {
        self.quantiles.summary_us()
    }

    /// Solution-store hit rate: reuse applications per lookup scan
    /// (0 for non-predictive policies — there are no lookups).
    pub fn solution_hit_rate(&self) -> f64 {
        self.policy_stats.hit_rate()
    }

    /// One-line summary for harness output.
    pub fn oneline(&self) -> String {
        format!(
            "{:<28} {:<13} lat {:>9.2} us  peak {:>9.2} us  exec {}  msgs {:>7}  notif {:>5}",
            self.label,
            self.policy,
            self.global_avg_latency_us,
            self.summary().peak_us,
            match self.exec_time_ns {
                Some(t) => format!("{:>9.3} ms", t as f64 / 1e6),
                None => "        --".into(),
            },
            self.messages,
            self.notifications,
        )
    }
}

/// Left-to-right mean from `0.0` (zero when empty): the same float
/// operations as a hand-written `sum / n` loop, so replica order alone
/// fixes the bits.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::{AnyTopology, Mesh2D};

    fn replica(latency_us: f64, exec_time_ns: Option<Time>, map: [f64; 2]) -> RunReport {
        let mut quantiles = LatencyQuantiles::new();
        quantiles.push(1_000 + exec_time_ns.unwrap_or(0));
        RunReport {
            label: "replica".into(),
            policy: "pr-drb".into(),
            topology: "mesh".into(),
            global_avg_latency_us: latency_us,
            series: TimeSeries::new(100),
            quantiles,
            exec_time_ns,
            messages: 10,
            offered: 8,
            accepted: 7,
            dropped: 1,
            acks_sent: 6,
            notifications: 2,
            latency_map: LatencyMap::new(&AnyTopology::Mesh(Mesh2D::new(2, 1)), map.to_vec()),
            router_series: Vec::new(),
            policy_stats: PolicyStats {
                expansions: 3,
                store_evictions: 4,
                ..PolicyStats::default()
            },
            phase_counts: vec![(1, 2), (3, 4)],
            end_ns: 5,
            truncated: false,
        }
    }

    #[test]
    fn fold_replicas_means_scalars_and_maps_and_sums_counters() {
        let latencies = [0.1, 0.7, 13.9];
        let mut longer = replica(latencies[1], None, [3.0, 30.0]);
        longer.phase_counts.push((5, 6));
        let mut shorter = replica(latencies[2], Some(2_001), [2.0, 20.0]);
        shorter.phase_counts.pop();
        let folded = RunReport::fold_replicas(vec![
            replica(latencies[0], Some(1_000), [1.0, 10.0]),
            longer,
            shorter,
        ]);
        // Bit-identical to a hand-written left-to-right `sum / n`.
        let hand = (0.0 + latencies[0] + latencies[1] + latencies[2]) / 3.0;
        assert_eq!(folded.global_avg_latency_us.to_bits(), hand.to_bits());
        // Integer-truncating mean over the two reporting replicas.
        assert_eq!(folded.exec_time_ns, Some(1_500));
        assert_eq!(folded.latency_map.values_us, vec![2.0, 20.0]);
        assert_eq!(folded.quantiles.total(), 3);
        assert_eq!(
            (
                folded.messages,
                folded.offered,
                folded.accepted,
                folded.dropped
            ),
            (30, 24, 21, 3)
        );
        assert_eq!((folded.acks_sent, folded.notifications), (18, 6));
        assert_eq!(folded.policy_stats.expansions, 9);
        assert_eq!(folded.policy_stats.store_evictions, 12);
        assert_eq!(folded.policy_stats.shrinks, 0);
        // Per-phase counters sum element by element; a replica that
        // reached fewer phases counts zero for the rest.
        assert_eq!(folded.phase_counts, vec![(3, 6), (6, 8), (5, 6)]);
        // The first replica frames everything that is not folded.
        assert_eq!((folded.label.as_str(), folded.end_ns), ("replica", 5));

        let untimed = RunReport::fold_replicas(vec![replica(1.0, None, [0.0; 2])]);
        assert_eq!(untimed.exec_time_ns, None);
    }
}
