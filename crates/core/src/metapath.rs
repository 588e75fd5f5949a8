//! The metapath: a flow's set of alternative multi-step paths (§3.2.3).
//!
//! Holds the per-path latency estimates, computes the aggregate metapath
//! latency of Eq 3.4 (`L(MP) = (Σ 1/L(MSPi))⁻¹` — the inverse of the
//! aggregate capacity), and selects the path for each injection with the
//! probability-density function of Eq 3.6
//! (`p(Cx) = (1/L_Cx) / Σ 1/L_Ci` — low-latency paths carry more
//! traffic).

use prdrb_simcore::time::Time;
use prdrb_simcore::SimRng;
use prdrb_topology::PathDescriptor;

/// One multi-step path and its state.
#[derive(Debug, Clone, Copy)]
pub struct MspEntry {
    /// The path.
    pub descriptor: PathDescriptor,
    /// EWMA of ACK-reported latencies, in ns.
    pub latency_ns: f64,
    /// Router-hop length (selection prefers short paths, §3.2.6).
    pub len: u32,
    /// ACK samples folded in.
    pub samples: u64,
}

/// The metapath of one source/destination pair.
#[derive(Debug, Clone)]
pub struct Metapath {
    msps: Vec<MspEntry>,
}

impl Metapath {
    /// A metapath holding only the original path, seeded with an initial
    /// zero-load latency estimate.
    pub fn new(original: PathDescriptor, len: u32, base_latency_ns: Time) -> Self {
        Self {
            msps: vec![MspEntry {
                descriptor: original,
                latency_ns: base_latency_ns.max(1) as f64,
                len,
                samples: 0,
            }],
        }
    }

    /// Number of open paths.
    pub fn len(&self) -> usize {
        self.msps.len()
    }

    /// A metapath is never empty: it always holds at least the original
    /// path (present for the `len`/`is_empty` convention only).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The open paths.
    pub fn entries(&self) -> &[MspEntry] {
        &self.msps
    }

    /// Add an alternative path (no-op if the descriptor is already open).
    /// The new path inherits the metapath's best latency estimate so it
    /// immediately attracts traffic.
    pub fn open(&mut self, descriptor: PathDescriptor, len: u32) -> bool {
        if self.msps.iter().any(|e| e.descriptor == descriptor) {
            return false;
        }
        let best = self
            .msps
            .iter()
            .map(|e| e.latency_ns)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        self.msps.push(MspEntry {
            descriptor,
            latency_ns: best,
            len,
            samples: 0,
        });
        true
    }

    /// Close the worst (highest-latency) alternative path, never the
    /// original (index 0). Returns the closed descriptor.
    pub fn close_worst(&mut self) -> Option<PathDescriptor> {
        if self.msps.len() <= 1 {
            return None;
        }
        let worst = self
            .msps
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.latency_ns.total_cmp(&b.1.latency_ns))
            .map(|(i, _)| i)?;
        Some(self.msps.remove(worst).descriptor)
    }

    /// Close every path `dead` flags, except the original at index 0 —
    /// it stays as the flow's anchor even when it no longer survives
    /// (the fabric's escape divert or drop accounting deals with
    /// traffic still sent over it). Returns the number of paths closed.
    pub fn prune(&mut self, mut dead: impl FnMut(PathDescriptor) -> bool) -> usize {
        let before = self.msps.len();
        let mut i = 1;
        while i < self.msps.len() {
            if dead(self.msps[i].descriptor) {
                self.msps.remove(i);
            } else {
                i += 1;
            }
        }
        before - self.msps.len()
    }

    /// Replace the whole alternative set (applying a saved solution,
    /// §3.2.6). Keeps latency estimates of descriptors that stay open.
    pub fn install(&mut self, paths: &[(PathDescriptor, u32)]) {
        let old = std::mem::take(&mut self.msps);
        let best = old
            .iter()
            .map(|e| e.latency_ns)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        for &(descriptor, len) in paths {
            let latency_ns = old
                .iter()
                .find(|e| e.descriptor == descriptor)
                .map(|e| e.latency_ns)
                .unwrap_or(best);
            self.msps.push(MspEntry {
                descriptor,
                latency_ns,
                len,
                samples: 0,
            });
        }
        if self.msps.is_empty() {
            self.msps = old;
        }
    }

    /// Fold an ACK latency sample into the path it traveled.
    pub fn update(&mut self, msp_index: usize, latency_ns: Time, alpha: f64) {
        if let Some(e) = self.msps.get_mut(msp_index) {
            let sample = latency_ns.max(1) as f64;
            if e.samples == 0 {
                e.latency_ns = sample;
            } else {
                e.latency_ns = alpha * sample + (1.0 - alpha) * e.latency_ns;
            }
            e.samples += 1;
        }
    }

    /// Metapath latency, Eq 3.4: the inverse of the summed inverse path
    /// latencies (aggregate capacity of the path bundle).
    pub fn latency_ns(&self) -> Time {
        let inv: f64 = self.msps.iter().map(|e| 1.0 / e.latency_ns.max(1.0)).sum();
        if inv <= 0.0 {
            return Time::MAX;
        }
        (1.0 / inv).round() as Time
    }

    /// Select the path for the next injection: PDF of Eq 3.6, weighting
    /// by inverse latency with a mild short-path bias (§3.2.6 "paths are
    /// selected according to their length").
    pub fn select(&self, rng: &mut SimRng) -> (usize, PathDescriptor) {
        if self.msps.len() == 1 {
            return (0, self.msps[0].descriptor);
        }
        let min_len = self.msps.iter().map(|e| e.len).min().unwrap_or(1).max(1);
        let weights: Vec<f64> = self
            .msps
            .iter()
            .map(|e| {
                let stretch = e.len.max(1) as f64 / min_len as f64;
                1.0 / (e.latency_ns.max(1.0) * stretch)
            })
            .collect();
        let i = rng.weighted(&weights);
        (i, self.msps[i].descriptor)
    }

    /// The descriptors currently open (with lengths), as saved into the
    /// solution database.
    pub fn snapshot(&self) -> Vec<(PathDescriptor, u32)> {
        self.msps.iter().map(|e| (e.descriptor, e.len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::NodeId;

    fn msp(i: u32) -> PathDescriptor {
        PathDescriptor::Msp {
            in1: NodeId(i),
            in2: NodeId(i + 100),
        }
    }

    fn mp3() -> Metapath {
        let mut m = Metapath::new(PathDescriptor::Minimal, 7, 5_000);
        m.open(msp(1), 9);
        m.open(msp(2), 9);
        m
    }

    #[test]
    fn eq_3_4_metapath_latency() {
        let mut m = mp3();
        m.update(0, 10_000, 1.0);
        m.update(1, 10_000, 1.0);
        m.update(2, 10_000, 1.0);
        // Three equal 10 µs paths: aggregate latency is 10/3 µs.
        assert_eq!(m.latency_ns(), 3_333);
    }

    #[test]
    fn eq_3_4_single_path_is_identity() {
        let mut m = Metapath::new(PathDescriptor::Minimal, 7, 5_000);
        m.update(0, 12_345, 1.0);
        assert_eq!(m.latency_ns(), 12_345);
    }

    #[test]
    fn open_dedups_and_inherits_best_latency() {
        let mut m = Metapath::new(PathDescriptor::Minimal, 7, 4_000);
        assert!(m.open(msp(1), 9));
        assert!(!m.open(msp(1), 9), "duplicate refused");
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries()[1].latency_ns, 4_000.0);
    }

    #[test]
    fn close_worst_never_removes_original() {
        let mut m = mp3();
        m.update(0, 50_000, 1.0); // original is the worst
        m.update(1, 1_000, 1.0);
        m.update(2, 2_000, 1.0);
        let closed = m.close_worst().unwrap();
        // Index-0 original survives even though it is slowest; the worst
        // *alternative* (msp 2 at 2 µs) goes.
        assert_eq!(closed, msp(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries()[0].descriptor, PathDescriptor::Minimal);
        // Shrinking to one path stops there.
        m.close_worst();
        assert!(m.close_worst().is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn eq_3_6_selection_prefers_fast_paths() {
        let mut m = mp3();
        m.update(0, 1_000, 1.0);
        m.update(1, 10_000, 1.0);
        m.update(2, 10_000, 1.0);
        let mut rng = SimRng::new(7);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[m.select(&mut rng).0] += 1;
        }
        // p(fast) should dominate; exact Eq 3.6 (ignoring the length
        // bias) would give ~0.83 / 0.083 / 0.083; the mild short-path
        // bias pushes it higher.
        assert!(counts[0] > 7_500, "fast path got {}", counts[0]);
        assert!(
            counts[1] > 100 && counts[2] > 100,
            "slow paths still probed"
        );
    }

    #[test]
    fn ewma_updates_move_estimates() {
        let mut m = Metapath::new(PathDescriptor::Minimal, 7, 1_000);
        m.update(0, 9_000, 0.5); // first sample replaces the seed
        assert_eq!(m.entries()[0].latency_ns, 9_000.0);
        m.update(0, 1_000, 0.5);
        assert_eq!(m.entries()[0].latency_ns, 5_000.0);
    }

    #[test]
    fn install_applies_saved_solution() {
        let mut m = Metapath::new(PathDescriptor::Minimal, 7, 3_000);
        m.update(0, 3_000, 1.0);
        let solution = vec![(PathDescriptor::Minimal, 7), (msp(5), 9), (msp(6), 11)];
        m.install(&solution);
        assert_eq!(m.len(), 3);
        // Existing estimate kept for the surviving descriptor.
        assert_eq!(m.entries()[0].latency_ns, 3_000.0);
        // New paths inherit the best estimate.
        assert_eq!(m.entries()[1].latency_ns, 3_000.0);
    }

    #[test]
    fn install_empty_is_ignored() {
        let mut m = mp3();
        m.install(&[]);
        assert_eq!(m.len(), 3, "empty solution must not wipe the metapath");
    }

    #[test]
    fn prune_closes_dead_alternatives_but_keeps_the_original() {
        let mut m = mp3();
        // Kill one alternative: exactly it goes.
        assert_eq!(m.prune(|d| d == msp(1)), 1);
        assert_eq!(m.len(), 2);
        assert!(m.entries().iter().all(|e| e.descriptor != msp(1)));
        // Even "everything is dead" keeps the index-0 anchor.
        assert_eq!(m.prune(|_| true), 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.entries()[0].descriptor, PathDescriptor::Minimal);
        assert_eq!(m.prune(|_| true), 0);
    }

    #[test]
    fn out_of_range_update_is_harmless() {
        let mut m = mp3();
        m.update(99, 1, 0.5);
        assert_eq!(m.len(), 3);
    }
}
