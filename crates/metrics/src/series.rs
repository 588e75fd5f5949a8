//! Latency-vs-time curves (Figs 4.12–4.18, 4.22/4.23, 4.28).

use crate::export::{Cell, Table};
use prdrb_simcore::stats::TimeSeries;
use prdrb_simcore::time::{Time, MICROSECOND};

/// Summary statistics of one latency curve.
#[derive(Debug, Clone, Copy)]
pub struct SeriesSummary {
    /// Mean over all samples (µs).
    pub mean_us: f64,
    /// Highest bucket mean (µs) — the transient peak the figures show.
    pub peak_us: f64,
    /// Time of the peak bucket.
    pub peak_at: Time,
    /// Last non-empty bucket's mean — the settled value.
    pub final_us: f64,
}

impl SeriesSummary {
    /// Summarize a series (values assumed in µs).
    pub fn of(series: &TimeSeries) -> Self {
        let mut peak_us = 0.0;
        let mut peak_at = 0;
        let mut final_us = 0.0;
        for (t, v, _) in series.points() {
            if v > peak_us {
                peak_us = v;
                peak_at = t;
            }
            final_us = v;
        }
        Self {
            mean_us: series.overall_mean(),
            peak_us,
            peak_at,
            final_us,
        }
    }

    /// Mean-latency reduction of `self` vs `baseline` (the headline
    /// "PR-DRB achieves X % lower latency than DRB" numbers).
    pub fn reduction_vs(&self, baseline: &SeriesSummary) -> f64 {
        if baseline.mean_us <= 0.0 {
            return 0.0;
        }
        (baseline.mean_us - self.mean_us) / baseline.mean_us
    }
}

/// ASCII plot of one or more labelled series on a shared time axis —
/// the textual analogue of the latency figures.
pub fn render_series(series: &[(&str, &TimeSeries)], height: usize) -> String {
    let height = height.max(2);
    let mut max_v: f64 = 0.0;
    let mut max_t: Time = 0;
    for (_, s) in series {
        for (t, v, _) in s.points() {
            max_v = max_v.max(v);
            max_t = max_t.max(t + s.bucket_ns());
        }
    }
    if max_v <= 0.0 || series.is_empty() {
        return String::from("(no samples)\n");
    }
    let width = 72usize;
    let marks = ['*', 'o', '+', 'x', '#', '@', '%'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        for (t, v, _) in s.points() {
            let col = ((t as f64 / max_t as f64) * (width - 1) as f64) as usize;
            let row = ((v / max_v) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row.min(height - 1);
            grid[row][col.min(width - 1)] = marks[si % marks.len()];
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:>8.1} us ┤\n", max_v));
    for row in grid {
        out.push_str("            │");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "        0.0 └{} {:.2} ms\n",
        "─".repeat(width),
        max_t as f64 / 1e6
    ));
    for (si, (label, s)) in series.iter().enumerate() {
        let sum = SeriesSummary::of(s);
        out.push_str(&format!(
            "  {} {:<14} mean {:>8.2} us  peak {:>8.2} us @ {:.2} ms\n",
            marks[si % marks.len()],
            label,
            sum.mean_us,
            sum.peak_us,
            sum.peak_at as f64 / 1e6,
        ));
    }
    out
}

/// CSV: `time_us,<label1>,<label2>,...` over the union of buckets.
///
/// Built as a [`crate::export::Table`] and rendered through the shared
/// pipeline — the output bytes are unchanged from the hand-formatted
/// writer this replaced, so the committed fig4_2x artifacts stay
/// byte-identical.
pub fn series_csv(series: &[(&str, &TimeSeries)]) -> String {
    series_table(series).to_csv()
}

/// The latency-vs-time curves as a structured table (one `time_us`
/// column plus one column per labelled series; empty buckets are
/// [`Cell::Missing`]).
pub fn series_table(series: &[(&str, &TimeSeries)]) -> Table {
    let mut columns = vec!["time_us".to_string()];
    columns.extend(series.iter().map(|(label, _)| label.to_string()));
    let mut table = Table::new(columns);
    let max_len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let bucket = series
        .first()
        .map(|(_, s)| s.bucket_ns())
        .unwrap_or(MICROSECOND);
    for i in 0..max_len {
        let t = i as Time * bucket;
        let mut row = Vec::with_capacity(series.len() + 1);
        row.push(Cell::Num(t as f64 / 1e3, 1));
        for (_, s) in series {
            let v = s.points().find(|(pt, _, _)| *pt == t).map(|(_, v, _)| v);
            row.push(match v {
                Some(v) => Cell::Num(v, 4),
                None => Cell::Missing,
            });
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(Time, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(1000);
        for &(t, v) in vals {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn summary_finds_peak_and_final() {
        let s = series(&[(0, 1.0), (1500, 8.0), (3500, 2.0)]);
        let sum = SeriesSummary::of(&s);
        assert_eq!(sum.peak_us, 8.0);
        assert_eq!(sum.peak_at, 1000);
        assert_eq!(sum.final_us, 2.0);
        assert!((sum.mean_us - 11.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_math() {
        let drb = SeriesSummary::of(&series(&[(0, 10.0)]));
        let pr = SeriesSummary::of(&series(&[(0, 7.0)]));
        assert!((pr.reduction_vs(&drb) - 0.3).abs() < 1e-12);
        let zero = SeriesSummary::of(&series(&[]));
        assert_eq!(pr.reduction_vs(&zero), 0.0);
    }

    #[test]
    fn render_contains_labels_and_axis() {
        let a = series(&[(0, 1.0), (2000, 4.0)]);
        let b = series(&[(0, 2.0), (2000, 3.0)]);
        let out = render_series(&[("drb", &a), ("pr-drb", &b)], 10);
        assert!(out.contains("drb"));
        assert!(out.contains("pr-drb"));
        assert!(out.contains("us"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn render_empty_is_graceful() {
        let a = series(&[]);
        assert_eq!(render_series(&[("x", &a)], 5), "(no samples)\n");
        assert_eq!(render_series(&[], 5), "(no samples)\n");
    }

    #[test]
    fn table_pipeline_preserves_legacy_csv_bytes() {
        // Pins the exact bytes the pre-Table hand-formatted writer
        // produced — the committed fig4_2x contention artifacts were
        // written in this format and must keep diffing clean.
        let a = series(&[(0, 1.0), (2500, 4.0)]);
        let b = series(&[(1200, 2.0)]);
        let csv = series_csv(&[("a", &a), ("b", &b)]);
        assert_eq!(csv, "time_us,a,b\n0.0,1.0000,\n1.0,,2.0000\n2.0,4.0000,\n");
        assert_eq!(series_csv(&[]), "time_us\n");
        let t = series_table(&[("a", &a)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn csv_includes_all_buckets() {
        let a = series(&[(0, 1.0), (2500, 4.0)]);
        let csv = series_csv(&[("a", &a)]);
        assert!(csv.starts_with("time_us,a\n"));
        assert_eq!(csv.lines().count(), 4, "header + 3 buckets");
        assert!(csv.contains("2.0,4.0000"));
    }
}
