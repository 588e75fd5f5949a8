//! Content-addressed run cache.
//!
//! A simulation run is a pure function of its [`SimConfig`] (seed
//! included), so its [`RunReport`] can be stored on disk under a stable
//! content hash of the configuration — [`RunKey`] — and replayed on the
//! next invocation instead of re-simulated. The sweep harness gets
//! incremental re-runs for free: edit one target and only its points
//! recompute.
//!
//! Storage is one plain-CSV text file per run, `<key>.csv`, in the cache
//! directory (no serde, per DESIGN §7 — results stay greppable ASCII).
//! Floats are written as IEEE-754 bit patterns in hex, so a replayed
//! report is **byte-identical** to the freshly computed one: serializing
//! both sides yields the same bytes, which the property tests assert.
//!
//! Any unreadable, truncated or version-mismatched entry is treated as a
//! miss and overwritten — the cache is an accelerator, never a source of
//! truth. Delete the directory to clear it.

use crate::config::{SimConfig, TopologyKind, Workload};
use crate::report::RunReport;
use prdrb_apps::TraceEvent;
use prdrb_core::{DrbConfig, PolicyKind, PolicyStats, Similarity};
use prdrb_metrics::{LatencyMap, LatencyQuantiles};
use prdrb_network::{MonitorConfig, NetworkConfig};
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::Time;
use prdrb_simcore::StableHasher;
use prdrb_traffic::{BurstSchedule, OpenLoopSpec, PhaseSpec, TrafficPattern};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the simulator's behaviour and of the key encoding; it is
/// the first word every key hashes. Bump it whenever a code change can
/// change a run's report or what the key encodes, so stale entries miss
/// instead of replaying results the current code would not produce.
///
/// v11: the one injection schedule — burst schedules and mini-app phase
/// programs became one phase-loop type, hashed phase by phase, and
/// workload tag 4 (phase programs) is retired. Scheduled runs now
/// report per-phase solution counts.
const CACHE_FORMAT: u32 = 11;

/// First line of every cache file.
const MAGIC: &str = "prdrb-run-cache,v1";

/// Stable 128-bit content hash of a [`SimConfig`] — the identity of a
/// run. Two configs share a key iff every field (seed included) is
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey {
    hi: u64,
    lo: u64,
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl RunKey {
    /// The key of `cfg`: two independent FNV-1a passes over a canonical
    /// field encoding.
    pub fn of(cfg: &SimConfig) -> Self {
        let mut hi = StableHasher::with_basis(0x9e37_79b9_7f4a_7c15);
        let mut lo = StableHasher::new();
        fold_config(cfg, &mut hi);
        fold_config(cfg, &mut lo);
        Self {
            hi: hi.finish(),
            lo: lo.finish(),
        }
    }
}

/// Fold every config field. All structs and enums are destructured
/// exhaustively (no `..`), so adding a field without deciding how it
/// hashes is a compile error — silent key collisions cannot creep in.
fn fold_config(cfg: &SimConfig, h: &mut StableHasher) {
    h.write_u32(CACHE_FORMAT);
    let SimConfig {
        label,
        topology,
        policy,
        drb,
        net,
        workload,
        seed,
        duration_ns,
        max_ns,
        series_bucket_ns,
        preload_profile,
        faults,
        // Ignored fields (see their docs): no code reads them.
        shards: _,
        speculate: _,
    } = cfg;
    h.write_str(label);
    match *topology {
        TopologyKind::Mesh8x8 => h.write_u8(0),
        TopologyKind::FatTree443 => h.write_u8(1),
        TopologyKind::Mesh { w, h: rows } => {
            h.write_u8(2);
            h.write_u32(w);
            h.write_u32(rows);
        }
        TopologyKind::Tree { k, n } => {
            h.write_u8(3);
            h.write_u32(k);
            h.write_u32(n);
        }
        // Tags 4 (the board mesh) and 6 (groups of fat trees) are retired.
        TopologyKind::Dragonfly { a, r, h: gp } => {
            h.write_u8(5);
            h.write_u32(a);
            h.write_u32(r);
            h.write_u32(gp);
        }
    }
    h.write_u8(match policy {
        PolicyKind::Deterministic => 0,
        PolicyKind::Random => 1,
        PolicyKind::Cyclic => 2,
        PolicyKind::Adaptive => 3,
        PolicyKind::Drb => 4,
        PolicyKind::PrDrb => 5,
        PolicyKind::FrDrb => 6,
        PolicyKind::PrFrDrb => 7,
        PolicyKind::Valiant => 8,
        PolicyKind::Ugal => 9,
    });
    let DrbConfig {
        threshold_low_ns,
        threshold_high_ns,
        max_paths,
        adjust_settle_ns,
        min_similarity,
        max_solutions,
        similarity,
        router_based,
        trend_window,
    } = *drb;
    h.write_u64(threshold_low_ns);
    h.write_u64(threshold_high_ns);
    h.write_usize(max_paths);
    h.write_u64(adjust_settle_ns);
    h.write_f64(min_similarity);
    h.write_usize(max_solutions);
    // Tag 2 (containment) is retired.
    h.write_u8(match similarity {
        Similarity::Jaccard => 0,
        Similarity::Overlap => 1,
    });
    h.write_bool(router_based);
    h.write_usize(trend_window);
    let NetworkConfig {
        packet_bytes,
        wire_class_extra_ns,
        // Not hashed: `Simulation::new` overwrites it from the policy
        // (which is hashed), so it cannot change a run.
        acks_enabled: _,
        monitor,
        contention_series_bucket_ns,
        // The calendar backend is deliberately NOT hashed: it cannot
        // change results (golden-digest test), so heap- and wheel-backed
        // runs share cache entries.
        queue: _,
    } = *net;
    h.write_u32(packet_bytes);
    for extra in wire_class_extra_ns {
        h.write_u64(extra);
    }
    let MonitorConfig {
        // Not hashed, like `acks_enabled`: the policy sets it.
        mode: _,
        router_threshold_ns,
    } = monitor;
    h.write_u64(router_threshold_ns);
    fold_option_u64(contention_series_bucket_ns, h);
    match workload {
        Workload::Synthetic {
            schedule,
            active_nodes,
            msg_bytes,
        } => {
            h.write_u8(0);
            fold_schedule(schedule, h);
            h.write_usize(*active_nodes);
            h.write_u32(*msg_bytes);
        }
        Workload::Flows {
            flows,
            mbps,
            noise_nodes,
            noise_mbps,
            msg_bytes,
        } => {
            h.write_u8(1);
            h.write_usize(flows.len());
            for &(s, d) in flows {
                h.write_u32(s.0);
                h.write_u32(d.0);
            }
            h.write_f64(*mbps);
            h.write_usize(noise_nodes.len());
            for n in noise_nodes {
                h.write_u32(n.0);
            }
            h.write_f64(*noise_mbps);
            h.write_u32(*msg_bytes);
        }
        Workload::Trace(trace) => {
            h.write_u8(2);
            h.write_str(&trace.name);
            h.write_usize(trace.ranks.len());
            for rank in &trace.ranks {
                h.write_usize(rank.len());
                for ev in rank {
                    fold_trace_event(ev, h);
                }
            }
        }
        // Tag 3 is retired: collective runs are keyed as the traces they
        // lower to. Tag 4 (phase programs) is retired: they are
        // synthetic schedules.
        Workload::OpenLoop { spec, active_nodes } => {
            h.write_u8(5);
            let OpenLoopSpec {
                mean_gap_ns,
                alpha,
                min_bytes,
                max_bytes,
                pattern,
            } = spec;
            h.write_f64(*mean_gap_ns);
            h.write_f64(*alpha);
            h.write_u32(*min_bytes);
            h.write_u32(*max_bytes);
            fold_pattern(pattern, h);
            h.write_usize(*active_nodes);
        }
    }
    h.write_u64(*seed);
    h.write_u64(*duration_ns);
    h.write_u64(*max_ns);
    h.write_u64(*series_bucket_ns);
    h.write_usize(preload_profile.len());
    for f in preload_profile {
        let prdrb_core::ProfiledFlow { src, dst, bytes } = *f;
        h.write_u32(src.0);
        h.write_u32(dst.0);
        h.write_u64(bytes);
    }
    h.write_usize(faults.events().len());
    for tf in faults.events() {
        let prdrb_topology::TimedFault { at, fault } = *tf;
        h.write_u64(at);
        let (tag, router, port) = fault.key();
        h.write_u8(tag);
        h.write_u32(router);
        h.write_u8(port);
    }
}

fn fold_option_u64(v: Option<Time>, h: &mut StableHasher) {
    match v {
        None => h.write_u8(0),
        Some(t) => {
            h.write_u8(1);
            h.write_u64(t);
        }
    }
}

fn fold_schedule(s: &BurstSchedule, h: &mut StableHasher) {
    let BurstSchedule { phases } = s;
    h.write_usize(phases.len());
    for p in phases {
        let PhaseSpec {
            label,
            pattern,
            mbps,
            duration_ns,
        } = p;
        h.write_str(label);
        fold_pattern(pattern, h);
        h.write_f64(*mbps);
        h.write_u64(*duration_ns);
    }
}

fn fold_pattern(p: &TrafficPattern, h: &mut StableHasher) {
    match p {
        TrafficPattern::Uniform => h.write_u8(0),
        TrafficPattern::BitReversal => h.write_u8(1),
        TrafficPattern::Shuffle => h.write_u8(2),
        TrafficPattern::Transpose => h.write_u8(3),
        TrafficPattern::HotSpot(n) => {
            h.write_u8(4);
            h.write_u32(n.0);
        }
        // Tags 5–7 and 9 are retired.
        TrafficPattern::Neighbor => h.write_u8(8),
    }
}

fn fold_trace_event(ev: &TraceEvent, h: &mut StableHasher) {
    match *ev {
        TraceEvent::Compute { ns } => {
            h.write_u8(0);
            h.write_u64(ns);
        }
        TraceEvent::Send { dst, bytes, tag } => {
            h.write_u8(1);
            h.write_u32(dst);
            h.write_u32(bytes);
            h.write_u32(tag);
        }
        TraceEvent::Isend { dst, bytes, tag } => {
            h.write_u8(2);
            h.write_u32(dst);
            h.write_u32(bytes);
            h.write_u32(tag);
        }
        TraceEvent::Recv { src, tag } => {
            h.write_u8(3);
            h.write_u32(src);
            h.write_u32(tag);
        }
        TraceEvent::Irecv { src, tag } => {
            h.write_u8(4);
            h.write_u32(src);
            h.write_u32(tag);
        }
        TraceEvent::Wait => h.write_u8(5),
        TraceEvent::Waitall => h.write_u8(6),
        TraceEvent::Allreduce { bytes } => {
            h.write_u8(7);
            h.write_u32(bytes);
        }
        TraceEvent::Reduce { root, bytes } => {
            h.write_u8(8);
            h.write_u32(root);
            h.write_u32(bytes);
        }
        TraceEvent::Bcast { root, bytes } => {
            h.write_u8(9);
            h.write_u32(root);
            h.write_u32(bytes);
        }
        TraceEvent::Barrier => h.write_u8(10),
    }
}

// ---------------------------------------------------------------------
// CSV report serialization
// ---------------------------------------------------------------------

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
}

fn series_fields(s: &TimeSeries) -> String {
    let mut out = format!("{},{}", s.bucket_ns(), s.buckets().len());
    for b in s.buckets() {
        out.push(',');
        out.push_str(&f64_hex(b.mean()));
        out.push(':');
        out.push_str(&b.count().to_string());
    }
    out
}

fn parse_series_fields(fields: &[&str]) -> Option<TimeSeries> {
    let bucket_ns: Time = fields.first()?.parse().ok()?;
    let n: usize = fields.get(1)?.parse().ok()?;
    // Two fields are present, so this cannot underflow; `2 + n` could
    // overflow on a forged count.
    if bucket_ns == 0 || fields.len() - 2 != n {
        return None;
    }
    let mut buckets = Vec::with_capacity(n);
    for f in &fields[2..] {
        let (mean, count) = f.split_once(':')?;
        buckets.push(RunningMean::from_parts(
            parse_f64_hex(mean)?,
            count.parse().ok()?,
        ));
    }
    Some(TimeSeries::from_parts(bucket_ns, buckets))
}

/// Serialize a report to the cache's CSV text form. Public so tests can
/// assert byte-identity between fresh, parallel and replayed runs.
pub fn report_to_csv(key: RunKey, r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("key,{key}\n"));
    // Free-form strings go last on their line and are parsed with
    // splitn(2), so embedded commas survive.
    out.push_str(&format!("label,{}\n", r.label));
    out.push_str(&format!("policy,{}\n", r.policy));
    out.push_str(&format!("topology,{}\n", r.topology));
    out.push_str(&format!("lat,{}\n", f64_hex(r.global_avg_latency_us)));
    match r.exec_time_ns {
        Some(t) => out.push_str(&format!("exec,{t}\n")),
        None => out.push_str("exec,none\n"),
    }
    out.push_str(&format!(
        "counters,{},{},{},{},{},{}\n",
        r.messages, r.offered, r.accepted, r.dropped, r.acks_sent, r.notifications
    ));
    let PolicyStats {
        expansions,
        shrinks,
        patterns_found,
        patterns_reused,
        reuse_applications,
        watchdog_fires,
        trend_predictions,
        solutions_invalidated,
        store_lookups,
        store_evictions,
    } = r.policy_stats;
    out.push_str(&format!(
        "stats,{expansions},{shrinks},{patterns_found},{patterns_reused},{reuse_applications},{watchdog_fires},{trend_predictions},{solutions_invalidated},{store_lookups},{store_evictions}\n"
    ));
    out.push_str(&format!("phases,{}", r.phase_counts.len()));
    for (hits, exps) in &r.phase_counts {
        out.push_str(&format!(",{hits},{exps}"));
    }
    out.push('\n');
    out.push_str(&format!("end,{},{}\n", r.end_ns, r.truncated as u8));
    out.push_str(&format!("series,{}\n", series_fields(&r.series)));
    out.push_str(&format!(
        "quantiles,{},{}",
        r.quantiles.total(),
        r.quantiles.max_ns()
    ));
    for (i, &c) in r.quantiles.counts().iter().enumerate() {
        if c > 0 {
            out.push_str(&format!(",{i}:{c}"));
        }
    }
    out.push('\n');
    let (cols, rows) = r.latency_map.shape;
    out.push_str(&format!(
        "latmap,{cols},{rows},{}",
        r.latency_map.values_us.len()
    ));
    for v in &r.latency_map.values_us {
        out.push(',');
        out.push_str(&f64_hex(*v));
    }
    out.push('\n');
    out.push_str("cells");
    for c in r.latency_map.cells() {
        out.push_str(&format!(",{c}"));
    }
    out.push('\n');
    out.push_str(&format!("rseries,{}\n", r.router_series.len()));
    for (i, s) in r.router_series.iter().enumerate() {
        match s {
            None => out.push_str(&format!("rs,{i},none\n")),
            Some(s) => out.push_str(&format!("rs,{i},{}\n", series_fields(s))),
        }
    }
    out
}

/// Parse a report back from its CSV text form. Returns `None` on any
/// structural mismatch (treated as a cache miss).
pub fn report_from_csv(text: &str) -> Option<RunReport> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let mut take = |tag: &str| -> Option<String> {
        let line = lines.next()?;
        let (t, rest) = line.split_once(',')?;
        (t == tag).then(|| rest.to_string())
    };
    let _key = take("key")?;
    let label = take("label")?;
    let policy = take("policy")?;
    let topology = take("topology")?;
    let global_avg_latency_us = parse_f64_hex(&take("lat")?)?;
    let exec_time_ns = match take("exec")?.as_str() {
        "none" => None,
        t => Some(t.parse().ok()?),
    };
    let counters = take("counters")?;
    let mut c = counters.split(',').map(|v| v.parse::<u64>());
    let mut next_u64 = || c.next()?.ok();
    let messages = next_u64()?;
    let offered = next_u64()?;
    let accepted = next_u64()?;
    let dropped = next_u64()?;
    let acks_sent = next_u64()?;
    let notifications = next_u64()?;
    let stats = take("stats")?;
    let mut s = stats.split(',').map(|v| v.parse::<u64>());
    let mut next_stat = || s.next()?.ok();
    let policy_stats = PolicyStats {
        expansions: next_stat()?,
        shrinks: next_stat()?,
        patterns_found: next_stat()?,
        patterns_reused: next_stat()?,
        reuse_applications: next_stat()?,
        watchdog_fires: next_stat()?,
        trend_predictions: next_stat()?,
        solutions_invalidated: next_stat()?,
        store_lookups: next_stat()?,
        store_evictions: next_stat()?,
    };
    let phase_line = take("phases")?;
    let mut p = phase_line.split(',');
    let np: usize = p.next()?.parse().ok()?;
    let values = p.map(|v| v.parse().ok()).collect::<Option<Vec<u64>>>()?;
    let pairs = values.chunks_exact(2);
    if !pairs.remainder().is_empty() || pairs.len() != np {
        return None;
    }
    let phase_counts = pairs.map(|c| (c[0], c[1])).collect();
    let end = take("end")?;
    let (end_ns, truncated) = end.split_once(',')?;
    let end_ns: Time = end_ns.parse().ok()?;
    let truncated = match truncated {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let series_line = take("series")?;
    let series = parse_series_fields(&series_line.split(',').collect::<Vec<_>>())?;
    let q_line = take("quantiles")?;
    let mut q_fields = q_line.split(',');
    let total: u64 = q_fields.next()?.parse().ok()?;
    let max: Time = q_fields.next()?.parse().ok()?;
    let mut counts = vec![0u64; 64 * 16];
    for pair in q_fields {
        let (i, c) = pair.split_once(':')?;
        let i: usize = i.parse().ok()?;
        *counts.get_mut(i)? = c.parse().ok()?;
    }
    // `from_parts` asserts the total in debug builds; a forged total is
    // a miss, not a panic.
    if counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(total) {
        return None;
    }
    let quantiles = LatencyQuantiles::from_parts(counts, total, max);
    let map_line = take("latmap")?;
    let mut m = map_line.split(',');
    let cols: usize = m.next()?.parse().ok()?;
    let rows: usize = m.next()?.parse().ok()?;
    let n: usize = m.next()?.parse().ok()?;
    let values_us = m.map(parse_f64_hex).collect::<Option<Vec<f64>>>()?;
    if values_us.len() != n {
        return None;
    }
    let cells_line = take("cells")?;
    let cell_of = cells_line
        .split(',')
        .map(|v| v.parse::<usize>().ok())
        .collect::<Option<Vec<usize>>>()?;
    // Every map `LatencyMap::new` builds fills its grid exactly; a forged
    // shape would divide by zero in `to_csv` or loop in `render`.
    if cell_of.len() != n
        || n == 0
        || cols.checked_mul(rows) != Some(n)
        || cell_of.iter().any(|&c| c >= n)
    {
        return None;
    }
    let latency_map = LatencyMap::from_parts(values_us, (cols, rows), cell_of);
    let rn: usize = take("rseries")?.parse().ok()?;
    // `rn` is untrusted: the vector grows with the lines present.
    let mut router_series = Vec::new();
    for i in 0..rn {
        let line = lines.next()?;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.first() != Some(&"rs") || fields.get(1)?.parse::<usize>().ok()? != i {
            return None;
        }
        if fields.get(2) == Some(&"none") {
            router_series.push(None);
        } else {
            router_series.push(Some(parse_series_fields(&fields[2..])?));
        }
    }
    Some(RunReport {
        label,
        policy,
        topology,
        global_avg_latency_us,
        series,
        quantiles,
        exec_time_ns,
        messages,
        offered,
        accepted,
        dropped,
        acks_sent,
        notifications,
        latency_map,
        router_series,
        policy_stats,
        phase_counts,
        end_ns,
        truncated,
    })
}

/// A disk-backed store of finished runs, one CSV file per [`RunKey`].
///
/// Each instance carries its own hit/miss counters (shared by clones,
/// which are views of the same logical cache), so concurrent
/// `run_many` calls over *different* caches can be observed
/// independently.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `(hits, misses)` of this cache instance (and its clones) alone,
    /// unaffected by other caches.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn path(&self, key: RunKey) -> PathBuf {
        self.dir.join(format!("{key}.csv"))
    }

    /// Replay the report stored under `key`, if any. Counts a hit or a
    /// miss ([`Self::stats`]).
    pub fn load(&self, key: RunKey) -> Option<RunReport> {
        let loaded = std::fs::read_to_string(self.path(key))
            .ok()
            .and_then(|text| report_from_csv(&text));
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Store `report` under `key` (best-effort: I/O errors only cost the
    /// replay). The write goes to a temp file first and is renamed into
    /// place, so concurrent writers of the same key — which by
    /// construction hold identical content — never expose a torn file.
    pub fn store(&self, key: RunKey, report: &RunReport) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let target = self.path(key);
        let tmp = self.dir.join(format!("{key}.{:x}.tmp", std::process::id()));
        if std::fs::write(&tmp, report_to_csv(key, report)).is_ok() {
            let _ = std::fs::rename(&tmp, &target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_network::NotifyMode;
    use prdrb_simcore::time::MILLISECOND;

    fn cfg() -> SimConfig {
        let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 300.0);
        let mut c = SimConfig::synthetic(TopologyKind::Mesh8x8, PolicyKind::PrDrb, schedule, 8);
        c.duration_ns = 100_000;
        c.max_ns = 100 * MILLISECOND;
        c
    }

    #[test]
    fn key_is_stable_and_seed_sensitive() {
        let a = RunKey::of(&cfg());
        let b = RunKey::of(&cfg());
        assert_eq!(a, b, "same config, same key");
        let mut c = cfg();
        c.seed = 999;
        assert_ne!(RunKey::of(&c), a, "seed is part of the identity");
    }

    #[test]
    fn key_display_is_32_hex() {
        let k = RunKey::of(&cfg());
        let s = k.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    type Mutation = Box<dyn Fn(&mut SimConfig)>;

    fn schedule(c: &mut SimConfig) -> &mut BurstSchedule {
        let Workload::Synthetic { schedule, .. } = &mut c.workload else {
            unreachable!("cfg() is synthetic")
        };
        schedule
    }

    #[test]
    fn every_config_field_changes_the_key() {
        let base = RunKey::of(&cfg());
        let mutations: Vec<Mutation> = vec![
            Box::new(|c| c.label = "x".into()),
            Box::new(|c| c.topology = TopologyKind::FatTree443),
            Box::new(|c| c.policy = PolicyKind::Drb),
            Box::new(|c| c.drb.threshold_low_ns += 1),
            Box::new(|c| c.drb.threshold_high_ns += 1),
            Box::new(|c| c.drb.max_paths += 1),
            Box::new(|c| c.drb.adjust_settle_ns += 1),
            Box::new(|c| c.drb.min_similarity += 1e-9),
            Box::new(|c| c.drb.max_solutions += 1),
            Box::new(|c| c.drb.similarity = Similarity::Jaccard),
            Box::new(|c| c.drb.router_based = true),
            Box::new(|c| c.drb.trend_window += 1),
            Box::new(|c| c.net.wire_class_extra_ns[1] += 160),
            Box::new(|c| c.net.wire_class_extra_ns[2] += 5),
            Box::new(|c| c.topology = TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }),
            Box::new(|c| c.topology = TopologyKind::Dragonfly { a: 9, r: 4, h: 3 }),
            Box::new(|c| c.policy = PolicyKind::Valiant),
            Box::new(|c| c.policy = PolicyKind::Ugal),
            Box::new(|c| c.net.packet_bytes += 1),
            Box::new(|c| c.net.monitor.router_threshold_ns += 1),
            Box::new(|c| c.net.contention_series_bucket_ns = Some(1)),
            Box::new(|c| c.seed += 1),
            Box::new(|c| c.duration_ns += 1),
            Box::new(|c| c.max_ns += 1),
            Box::new(|c| c.series_bucket_ns += 1),
            Box::new(|c| schedule(c).phases[0].label = "x"),
            Box::new(|c| schedule(c).phases[0].pattern = TrafficPattern::Uniform),
            Box::new(|c| schedule(c).phases[0].mbps += 1.0),
            Box::new(|c| schedule(c).phases[0].duration_ns -= 1),
            Box::new(|c| {
                let s = schedule(c);
                s.phases.push(s.phases[0].clone());
            }),
            Box::new(|c| {
                c.preload_profile.push(prdrb_core::ProfiledFlow {
                    src: prdrb_topology::NodeId(0),
                    dst: prdrb_topology::NodeId(1),
                    bytes: 1,
                })
            }),
            Box::new(|c| {
                c.faults = prdrb_topology::FaultPlan::new(vec![prdrb_topology::TimedFault {
                    at: 1,
                    fault: prdrb_topology::FaultEvent::LinkDown {
                        router: prdrb_topology::RouterId(0),
                        port: prdrb_topology::Port(0),
                    },
                }])
            }),
        ];
        for (i, m) in mutations.iter().enumerate() {
            let mut c = cfg();
            m(&mut c);
            assert_ne!(RunKey::of(&c), base, "mutation {i} must change the key");
        }
    }

    #[test]
    fn shard_count_is_not_part_of_the_key() {
        let base = RunKey::of(&cfg());
        for k in [2u32, 4, 8] {
            let mut c = cfg();
            c.shards = k;
            assert_eq!(
                RunKey::of(&c),
                base,
                "the ignored shards field must not split cache entries (shards={k})"
            );
            c.speculate = true;
            assert_eq!(
                RunKey::of(&c),
                base,
                "the ignored speculate field must not split cache entries (shards={k})"
            );
        }
        // The policy sets both when the run is built, so configs that
        // differ only here run identically and must share an entry.
        let mut c = cfg();
        c.net.acks_enabled = !c.net.acks_enabled;
        assert_eq!(RunKey::of(&c), base, "acks_enabled is overwritten");
        for mode in [NotifyMode::Off, NotifyMode::Destination, NotifyMode::Router] {
            let mut c = cfg();
            c.net.monitor.mode = mode;
            assert_eq!(RunKey::of(&c), base, "monitor mode {mode:?} is overwritten");
        }
    }

    #[test]
    fn workload_variants_hash_distinctly() {
        let synth = RunKey::of(&cfg());
        let mut flows = cfg();
        flows.workload = Workload::Flows {
            flows: vec![(prdrb_topology::NodeId(0), prdrb_topology::NodeId(5))],
            mbps: 100.0,
            noise_nodes: vec![],
            noise_mbps: 0.0,
            msg_bytes: 1024,
        };
        assert_ne!(RunKey::of(&flows), synth);
        let mut flows2 = flows.clone();
        if let Workload::Flows { flows: f, .. } = &mut flows2.workload {
            f[0].1 = prdrb_topology::NodeId(6);
        }
        assert_ne!(RunKey::of(&flows2), RunKey::of(&flows));
    }

    /// The workload families (steady and mini-app schedules,
    /// collectives, open-loop arrivals) must key distinctly from each
    /// other and from their own close variants (field-level sensitivity
    /// inside each payload).
    #[test]
    fn new_workload_families_hash_distinctly() {
        use prdrb_apps::{CollectiveKind, CollectiveSpec, ScheduleShape};
        let with = |w: Workload| {
            let mut c = cfg();
            c.workload = w;
            RunKey::of(&c)
        };
        let collective = |spec, iterations| {
            RunKey::of(&SimConfig::collective(
                TopologyKind::Mesh8x8,
                PolicyKind::PrDrb,
                spec,
                iterations,
            ))
        };
        let spec = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 8, 4096);
        let keys = vec![
            RunKey::of(&cfg()),
            collective(spec, 2),
            collective(spec, 3),
            collective(
                CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, 8, 4096),
                2,
            ),
            with(Workload::Synthetic {
                schedule: BurstSchedule::mini_app(10_000, 100.0),
                active_nodes: 8,
                msg_bytes: 1024,
            }),
            with(Workload::Synthetic {
                schedule: BurstSchedule::mini_app(20_000, 100.0),
                active_nodes: 8,
                msg_bytes: 1024,
            }),
            with(Workload::OpenLoop {
                spec: OpenLoopSpec::heavy_tail(10_000.0),
                active_nodes: 8,
            }),
            with(Workload::OpenLoop {
                spec: OpenLoopSpec {
                    alpha: 1.7,
                    ..OpenLoopSpec::heavy_tail(10_000.0)
                },
                active_nodes: 8,
            }),
        ];
        let mut uniq = keys.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "all workload keys distinct");
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let report = crate::run(cfg());
        let key = RunKey::of(&cfg());
        let csv = report_to_csv(key, &report);
        let back = report_from_csv(&csv).expect("parse back");
        assert_eq!(report_to_csv(key, &back), csv, "serialize(parse(x)) == x");
        assert_eq!(
            back.global_avg_latency_us.to_bits(),
            report.global_avg_latency_us.to_bits()
        );
        assert_eq!(back.messages, report.messages);
        assert_eq!(back.quantiles.total(), report.quantiles.total());
    }

    #[test]
    fn cache_hit_replays_exact_report() {
        let dir = std::env::temp_dir().join(format!("prdrb-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let key = RunKey::of(&cfg());
        assert!(cache.load(key).is_none(), "cold cache misses");
        let fresh = crate::run(cfg());
        cache.store(key, &fresh);
        let replay = cache.load(key).expect("stored entry loads");
        assert_eq!(report_to_csv(key, &replay), report_to_csv(key, &fresh));
        // Exact counts come from this instance's own counters — immune
        // to every other test's (parallel) cache traffic.
        assert_eq!(cache.stats(), (1, 1));
        // Clones are views of the same logical cache: counters shared.
        let clone = cache.clone();
        assert!(clone.load(key).is_some());
        assert_eq!(cache.stats(), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        assert!(report_from_csv("").is_none());
        assert!(report_from_csv("garbage\n").is_none());
        let report = crate::run(cfg());
        let csv = report_to_csv(RunKey::of(&cfg()), &report);
        let truncated = &csv[..csv.len() / 2];
        assert!(report_from_csv(truncated).is_none());
        // Forged quantile totals and map shapes are misses, not panics.
        let (total, (cols, rows)) = (report.quantiles.total(), report.latency_map.shape);
        let miss = |from: &str, to: &str| {
            let forged = csv.replacen(from, to, 1);
            assert_ne!(forged, csv, "{from} must be present to forge");
            assert!(report_from_csv(&forged).is_none(), "{to}");
        };
        let (q, m) = (
            format!("quantiles,{total},"),
            format!("latmap,{cols},{rows},"),
        );
        miss(&q, &format!("quantiles,{},", total + 1));
        miss(&m, &format!("latmap,0,{rows},"));
        miss(&m, &format!("latmap,{cols},{},", rows + 1));
        miss("\ncells,0,", &format!("\ncells,{},", cols * rows));
        // Forged per-phase lines: an odd value count, a declared count
        // the values disagree with, a non-numeric value.
        assert_eq!(report.phase_counts.len(), 1, "one steady phase");
        let (hits, exps) = report.phase_counts[0];
        let phases = format!("\nphases,1,{hits},{exps}\n");
        miss(&phases, "\nphases,1,5,6,7\n");
        miss(&phases, "\nphases,2,5,6\n");
        miss(&phases, "\nphases,1,5,x\n");
        // Forged counts far beyond the lines present: a miss, not an
        // overflow on `2 + n` or an abort on a huge allocation.
        let series = format!("\nseries,{},", report.series.bucket_ns());
        miss(&series, &format!("{series}{},", usize::MAX));
        let rseries = format!("\nrseries,{}\n", report.router_series.len());
        miss(&rseries, "\nrseries,1000000000000000\n");
        let phased = csv.replacen(&phases, "\nphases,2,5,6,7,8\n", 1);
        let back = report_from_csv(&phased).expect("a well-formed phases line parses");
        assert_eq!(back.phase_counts, vec![(5, 6), (7, 8)]);
        assert!(report_from_csv(&csv).is_some());
    }

    /// Version skew: an entry stamped by a hypothetical future writer
    /// (different magic version) must be a clean miss — never a panic,
    /// never a misparse — both through the raw parser and through a
    /// `RunCache` whose on-disk file is forged in place.
    #[test]
    fn version_skewed_entry_is_a_clean_miss() {
        let report = crate::run(cfg());
        let key = RunKey::of(&cfg());
        let csv = report_to_csv(key, &report);
        let forged = csv.replacen("prdrb-run-cache,v1", "prdrb-run-cache,v2", 1);
        assert_ne!(forged, csv, "magic line must be present to forge");
        assert!(
            report_from_csv(&forged).is_none(),
            "future-format entry must parse to a miss"
        );
        let dir = std::env::temp_dir().join(format!("prdrb-skew-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        cache.store(key, &report);
        let path = cache.path(key);
        let on_disk = std::fs::read_to_string(&path).expect("stored entry readable");
        std::fs::write(
            &path,
            on_disk.replacen("prdrb-run-cache,v1", "prdrb-run-cache,v2", 1),
        )
        .expect("forge version in place");
        assert!(cache.load(key).is_none(), "skewed entry must miss");
        assert_eq!(cache.stats(), (0, 1), "counted as a miss, not a hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A future writer could also emit quantile counts this writer never
    /// produces — indices in the histogram's log < SUB_BITS dead zone.
    /// The reader accepts any structurally valid layout, so the sketch
    /// must answer queries on it instead of panicking (pre-fix, the
    /// sub-bucket shift in `bucket_low` underflowed on these indices).
    #[test]
    fn forged_dead_zone_quantile_counts_are_answerable() {
        let report = crate::run(cfg());
        let key = RunKey::of(&cfg());
        let csv = report_to_csv(key, &report);
        let forged: String = csv
            .lines()
            .map(|l| {
                if l.starts_with("quantiles,") {
                    // total=5, max=18, all five counts at index 20
                    // (log=1, sub=4 — unreachable from push()).
                    "quantiles,5,18,20:5".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back = report_from_csv(&forged).expect("structurally valid entry parses");
        assert_eq!(back.quantiles.total(), 5);
        // bucket_low(20) = (1 << 1) | (4 >> (SUB_BITS - 1)) = 2.
        assert_eq!(back.quantiles.quantile_ns(0.5), 2);
    }
}
