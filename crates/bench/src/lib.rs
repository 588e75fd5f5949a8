//! # prdrb-bench — the figure/table regeneration harness
//!
//! One target per table and figure of the evaluation chapter (plus the
//! background-chapter tables/matrices), reachable through the `repro`
//! binary:
//!
//! ```sh
//! cargo run -p prdrb-bench --release --bin repro -- list
//! cargo run -p prdrb-bench --release --bin repro -- fig4_13
//! cargo run -p prdrb-bench --release --bin repro -- all
//! ```
//!
//! Every target prints the paper's expected qualitative result next to
//! the measured one and drops CSV/text artifacts under `results/`.

#![forbid(unsafe_code)]

pub mod figures;
pub mod report;

use prdrb_engine::RunCache;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Root directory for generated artifacts.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PRDRB_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Write an artifact file atomically, returning its path.
///
/// The contents go to a hidden temp file in the same directory first
/// and are renamed into place, so a crash mid-write can never leave a
/// half-written artifact behind.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let p = results_dir().join(name);
    if let Some(parent) = p.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let fname = p.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    let tmp = p.with_file_name(format!(".{fname}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, contents).unwrap_or_else(|e| panic!("writing {}: {e}", tmp.display()));
    if let Err(e) = std::fs::rename(&tmp, &p) {
        let _ = std::fs::remove_file(&tmp);
        panic!("renaming {} into place: {e}", p.display());
    }
    p
}

/// The shared run cache every bench target runs through. Controlled by
/// `PRDRB_CACHE`: unset → `results_dir()/.cache` (caching ON), a path →
/// that directory, `off`/`0` → disabled. Results are content-addressed
/// by a stable hash of the full `SimConfig`, so a stale hit is
/// impossible — delete the directory to reclaim disk, never for
/// correctness.
pub fn run_cache() -> Option<&'static RunCache> {
    static CACHE: OnceLock<Option<RunCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| match std::env::var("PRDRB_CACHE") {
            Ok(v) if v == "off" || v == "0" => None,
            Ok(dir) if !dir.is_empty() => Some(RunCache::new(dir)),
            _ => Some(RunCache::new(results_dir().join(".cache"))),
        })
        .as_ref()
}

/// Read the environment setting `var`: `default` when unset, the value
/// `parse` accepts when set, and an error naming the variable and what
/// it accepts otherwise.
fn env_setting<T>(
    var: &str,
    default: T,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let Some(raw) = std::env::var_os(var) else {
        return Ok(default);
    };
    raw.to_str()
        .and_then(parse)
        .ok_or_else(|| format!("{var}={raw:?}: expected {want}"))
}

fn env_seeds() -> Result<u64, String> {
    env_setting("PRDRB_SEEDS", 5, "a positive integer", |s| {
        s.parse().ok().filter(|&n| n >= 1)
    })
}

fn env_scale() -> Result<f64, String> {
    env_setting("PRDRB_SCALE", 1.0, "a positive finite number", |s| {
        s.parse().ok().filter(|&x: &f64| x.is_finite() && x > 0.0)
    })
}

/// Validate every numeric `PRDRB_*` setting at once, so a bad value
/// stops `repro` at startup with the variable's name instead of running
/// with a silent default or panicking mid-run.
pub fn check_env() -> Result<(), String> {
    env_seeds()?;
    env_scale()?;
    Ok(())
}

/// The accessors below run after [`check_env`] has passed; a bad value
/// reaching one is a caller that skipped the check.
fn checked<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| panic!("{e}"))
}

/// Number of seeded replicas per configuration (§4.3 methodology);
/// override with `PRDRB_SEEDS`. The parallel sweep executor plus the
/// run cache make replicas cheap, so the default leans high enough
/// that no paper-vs-measured comparison rides on single-seed noise.
pub fn num_seeds() -> u64 {
    checked(env_seeds())
}

/// Duration scale factor: `PRDRB_SCALE` (default 1.0) multiplies the
/// simulated durations so CI / quick runs can shrink every experiment
/// uniformly.
pub fn scale() -> f64 {
    checked(env_scale())
}

/// Scale a nanosecond duration by [`scale`].
pub fn scaled(ns: u64) -> u64 {
    ((ns as f64) * scale()).max(1.0) as u64
}

/// A paper-vs-measured check line.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// What the paper reports.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Whether the qualitative shape holds.
    pub holds: bool,
}

impl Expectation {
    /// Build a check line.
    pub fn new(paper: impl Into<String>, measured: impl Into<String>, holds: bool) -> Self {
        Self {
            paper: paper.into(),
            measured: measured.into(),
            holds,
        }
    }

    /// Render with a ✓/✗ marker.
    pub fn render(&self) -> String {
        format!(
            "  [{}] paper: {:<58} measured: {}",
            if self.holds { "ok" } else { "!!" },
            self.paper,
            self.measured
        )
    }
}

/// Output of one repro target.
#[derive(Debug, Default)]
pub struct FigureOutput {
    /// Target id (e.g. "fig4_13").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Body text (tables, ASCII plots).
    pub body: String,
    /// Paper-vs-measured checks.
    pub checks: Vec<Expectation>,
    /// Artifact files written.
    pub artifacts: Vec<PathBuf>,
}

impl FigureOutput {
    /// Start an output for `id`.
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            ..Default::default()
        }
    }

    /// Append body text.
    pub fn push(&mut self, text: impl AsRef<str>) {
        self.body.push_str(text.as_ref());
        if !text.as_ref().ends_with('\n') {
            self.body.push('\n');
        }
    }

    /// Record a check.
    pub fn check(&mut self, paper: impl Into<String>, measured: impl Into<String>, holds: bool) {
        self.checks.push(Expectation::new(paper, measured, holds));
    }

    /// Save the rendered output under `results/<id>.txt` and return the
    /// full rendering.
    pub fn finish(mut self) -> String {
        let mut out = format!("==== {} — {} ====\n", self.id, self.title);
        out.push_str(&self.body);
        if !self.checks.is_empty() {
            out.push_str("\nPaper vs measured:\n");
            for c in &self.checks {
                out.push_str(&c.render());
                out.push('\n');
            }
        }
        let path = write_artifact(&format!("{}.txt", self.id), &out);
        self.artifacts.push(path);
        out
    }

    /// True when every check holds.
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }
}

/// Percentage change of `new` vs `base` (negative = improvement).
pub fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (new / base - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by every test that points `PRDRB_RESULTS` somewhere: the
    /// variable is process-global and tests run on parallel threads.
    static RESULTS_ENV: Mutex<()> = Mutex::new(());

    #[test]
    fn pct_math() {
        assert!((pct(80.0, 100.0) - -20.0).abs() < 1e-9);
        assert_eq!(pct(0.0, 0.0), 0.0);
    }

    #[test]
    fn expectation_renders_marker() {
        let ok = Expectation::new("a", "b", true).render();
        assert!(ok.contains("[ok]"));
        let bad = Expectation::new("a", "b", false).render();
        assert!(bad.contains("[!!]"));
    }

    #[test]
    fn figure_output_accumulates() {
        let _env = RESULTS_ENV.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(
            "PRDRB_RESULTS",
            std::env::temp_dir().join("prdrb-test-results"),
        );
        let mut f = FigureOutput::new("test_fig", "a test");
        f.push("hello");
        f.check("x > y", "x=2 y=1", true);
        assert!(f.all_hold());
        let out = f.finish();
        assert!(out.contains("hello"));
        assert!(out.contains("[ok]"));
        std::env::remove_var("PRDRB_RESULTS");
    }

    #[test]
    fn write_artifact_is_atomic_and_leaves_no_temp() {
        let _env = RESULTS_ENV.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(
            "PRDRB_RESULTS",
            std::env::temp_dir().join("prdrb-test-atomic"),
        );
        let p = write_artifact("atomic_probe.txt", "first");
        let p2 = write_artifact("atomic_probe.txt", "second");
        assert_eq!(p, p2);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second");
        let dir = p.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must not survive: {leftovers:?}"
        );
        std::env::remove_var("PRDRB_RESULTS");
    }

    #[test]
    fn scaled_respects_env() {
        std::env::remove_var("PRDRB_SCALE");
        assert_eq!(scaled(100), 100);
    }
}
