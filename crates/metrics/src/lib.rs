//! # prdrb-metrics — evaluation metrics and renderers
//!
//! The metrics of §4.2: the incremental per-destination average latency
//! (Eq 4.1) and global average (Eq 4.2) come from `prdrb-simcore`; this
//! crate adds the presentation layer the evaluation chapter uses —
//! latency surface maps over routers (Fig 4.7), latency-vs-time curves
//! (Figs 4.12–4.18) and tabular/CSV reports.

#![forbid(unsafe_code)]

pub mod export;
pub mod latmap;
pub mod quantiles;
pub mod series;

pub use export::{probe_table, Cell, Table};
pub use latmap::LatencyMap;
pub use quantiles::LatencyQuantiles;
pub use series::{render_series, series_csv, series_table, SeriesSummary};
