//! The predictive solution database (§3.2.8, Fig 3.14).
//!
//! When PR-DRB controls a congestion episode (latency settles from the
//! high zone back into the working zone), the source saves the winning
//! set of alternative paths *keyed by the contending-flow pattern* that
//! caused the episode. When a similar pattern reappears — parallel
//! applications repeat their phases — the saved solution is applied at
//! once, skipping the incremental path-opening procedure.
//!
//! Pattern matching is approximate (the thesis uses 80 % similarity);
//! three similarity measures are provided and the choice is a
//! configuration knob (ablated in `repro ablate_similarity`).

use crate::config::Similarity;
use prdrb_network::FlowPair;
use prdrb_simcore::time::Time;
use prdrb_topology::{NodeId, PathDescriptor};

/// A saved congestion situation and its best known solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Destination of the flow the solution was saved for — the route
    /// endpoint fault invalidation re-walks the saved paths against.
    pub dst: NodeId,
    /// The contending-flow pattern (sorted, deduplicated).
    pub pattern: Vec<FlowPair>,
    /// The alternative paths that controlled it, with their lengths.
    pub paths: Vec<(PathDescriptor, u32)>,
    /// Metapath latency achieved when the solution was saved.
    pub best_latency_ns: Time,
    /// Times this solution was re-applied.
    pub hits: u64,
}

/// Per-flow database of congestion patterns → best path sets.
#[derive(Debug, Clone)]
pub struct SolutionDb {
    entries: Vec<Solution>,
    /// Capacity bound: saving a new pattern into a full store evicts
    /// the fewest-hit (oldest on ties) entry first.
    capacity: usize,
    /// Distinct patterns ever saved (Fig 4.26b "patterns found").
    pub patterns_found: u64,
    /// Patterns that were later matched at least once ("identified or
    /// repeated again").
    pub patterns_reused: u64,
    /// Total solution applications (e.g. "repeated 279 times").
    pub reuse_applications: u64,
    /// Updates of an existing pattern with a better solution.
    pub improvements: u64,
    /// Pattern-match scans attempted ([`SolutionDb::find`] calls) — the
    /// denominator of the store hit rate, and the driver of the linear
    /// matching cost the open-loop workload stresses.
    pub store_lookups: u64,
    /// Entries evicted to respect [`capacity`](Self::with_capacity).
    pub store_evictions: u64,
}

impl Default for SolutionDb {
    /// Unbounded store (capacity `usize::MAX`).
    fn default() -> Self {
        Self::with_capacity(usize::MAX)
    }
}

/// Normalize a pattern: sort and deduplicate so similarity is
/// set-algebraic.
pub fn normalize(mut flows: Vec<FlowPair>) -> Vec<FlowPair> {
    flows.sort();
    flows.dedup();
    flows
}

/// Similarity of two *normalized* patterns.
pub fn similarity(a: &[FlowPair], b: &[FlowPair], measure: Similarity) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // Sorted-merge intersection count.
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = (a.len() + b.len() - inter) as f64;
    let inter = inter as f64;
    match measure {
        Similarity::Jaccard => inter / union,
        Similarity::Overlap => inter / a.len().min(b.len()) as f64,
    }
}

impl SolutionDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty database holding at most `capacity` solutions.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "solution store needs capacity");
        Self {
            entries: Vec::new(),
            capacity,
            patterns_found: 0,
            patterns_reused: 0,
            reuse_applications: 0,
            improvements: 0,
            store_lookups: 0,
            store_evictions: 0,
        }
    }

    /// Number of saved solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been saved.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the best-matching saved solution for `observed` (already
    /// normalized), requiring at least `min_similarity`. Does not count a
    /// reuse — callers that actually install the solution follow up with
    /// [`SolutionDb::apply`].
    pub fn find(
        &mut self,
        observed: &[FlowPair],
        min_similarity: f64,
        measure: Similarity,
    ) -> Option<usize> {
        if observed.is_empty() {
            return None;
        }
        self.store_lookups += 1;
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let s = similarity(&e.pattern, observed, measure);
            if s >= min_similarity && best.map(|(_, b)| s > b).unwrap_or(true) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The saved solution at `i` (from [`SolutionDb::find`]).
    pub fn get(&self, i: usize) -> &Solution {
        &self.entries[i]
    }

    /// Count an application of solution `i` and return it.
    pub fn apply(&mut self, i: usize) -> &Solution {
        let e = &mut self.entries[i];
        if e.hits == 0 {
            self.patterns_reused += 1;
        }
        e.hits += 1;
        self.reuse_applications += 1;
        &self.entries[i]
    }

    /// Look up the best-matching saved solution for `observed` (already
    /// normalized), requiring at least `min_similarity`. Counts a reuse
    /// on hit.
    pub fn lookup(
        &mut self,
        observed: &[FlowPair],
        min_similarity: f64,
        measure: Similarity,
    ) -> Option<&Solution> {
        let i = self.find(observed, min_similarity, measure)?;
        Some(self.apply(i))
    }

    /// Save (or improve) the solution for `pattern`. An existing matching
    /// pattern is updated only when the new solution achieved lower
    /// latency ("the best solution saved may be further updated",
    /// §3.2).
    pub fn save(
        &mut self,
        dst: NodeId,
        pattern: Vec<FlowPair>,
        paths: Vec<(PathDescriptor, u32)>,
        latency_ns: Time,
        min_similarity: f64,
        measure: Similarity,
    ) {
        let pattern = normalize(pattern);
        if pattern.is_empty() || paths.is_empty() {
            return;
        }
        for e in &mut self.entries {
            if similarity(&e.pattern, &pattern, measure) >= min_similarity {
                if latency_ns < e.best_latency_ns {
                    e.dst = dst;
                    e.paths = paths;
                    e.best_latency_ns = latency_ns;
                    self.improvements += 1;
                }
                return;
            }
        }
        self.patterns_found += 1;
        if self.entries.len() >= self.capacity {
            // Deterministic capacity eviction: the entry that earned
            // the fewest re-applications goes first; ties break to the
            // oldest (lowest index), so replay order is seed-stable.
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.hits, *i))
                .map(|(i, _)| i)
                .expect("capacity >= 1 implies a full store is non-empty");
            self.entries.remove(victim);
            self.store_evictions += 1;
        }
        self.entries.push(Solution {
            dst,
            pattern,
            paths,
            best_latency_ns: latency_ns,
            hits: 0,
        });
    }

    /// Fault invalidation: validate every saved path against `survives`
    /// (called with the entry's flow destination). An MSP that traverses
    /// a dead link is cut out of its entry — applying it would steer a
    /// metapath share straight into the failure — and an entry left with
    /// fewer than two live paths is dropped outright, because a
    /// single-path "solution" controls nothing. Returns the number of
    /// entries invalidated (repaired or dropped).
    pub fn invalidate(&mut self, mut survives: impl FnMut(NodeId, PathDescriptor) -> bool) -> u64 {
        let mut touched = 0;
        self.entries.retain_mut(|e| {
            let dst = e.dst;
            let before = e.paths.len();
            e.paths.retain(|&(d, _)| survives(dst, d));
            if e.paths.len() == before {
                return true; // untouched entries always stay
            }
            touched += 1;
            e.paths.len() >= 2
        });
        touched
    }

    /// Iterate over the saved solutions.
    pub fn iter(&self) -> impl Iterator<Item = &Solution> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_topology::NodeId;

    fn fp(a: u32, b: u32) -> FlowPair {
        (NodeId(a), NodeId(b))
    }

    fn paths() -> Vec<(PathDescriptor, u32)> {
        vec![(PathDescriptor::Minimal, 7)]
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let n = normalize(vec![fp(3, 4), fp(1, 2), fp(3, 4)]);
        assert_eq!(n, vec![fp(1, 2), fp(3, 4)]);
    }

    #[test]
    fn similarity_measures() {
        let a = normalize(vec![fp(1, 2), fp(3, 4), fp(5, 6), fp(7, 8)]);
        let b = normalize(vec![fp(1, 2), fp(3, 4), fp(5, 6), fp(9, 9)]);
        // 3 common of 5 union, 4 min.
        assert!((similarity(&a, &b, Similarity::Jaccard) - 0.6).abs() < 1e-12);
        assert!((similarity(&a, &b, Similarity::Overlap) - 0.75).abs() < 1e-12);
        // Identity.
        assert_eq!(similarity(&a, &a, Similarity::Jaccard), 1.0);
        // Empty.
        assert_eq!(similarity(&a, &[], Similarity::Overlap), 0.0);
    }

    #[test]
    fn save_then_exact_lookup() {
        let mut db = SolutionDb::new();
        let pat = vec![fp(1, 5), fp(2, 7)];
        db.save(
            NodeId(9),
            pat.clone(),
            paths(),
            5_000,
            0.8,
            Similarity::Overlap,
        );
        assert_eq!(db.patterns_found, 1);
        let hit = db
            .lookup(&normalize(pat), 0.8, Similarity::Overlap)
            .expect("exact pattern must match");
        assert_eq!(hit.best_latency_ns, 5_000);
        assert_eq!(db.reuse_applications, 1);
        assert_eq!(db.patterns_reused, 1);
    }

    #[test]
    fn eighty_percent_approximate_match() {
        // §3.2.8: "The percentage used for similarity is of 80%."
        let mut db = SolutionDb::new();
        let saved: Vec<_> = (0..10).map(|i| fp(i, i + 50)).collect();
        db.save(NodeId(9), saved, paths(), 1_000, 0.8, Similarity::Overlap);
        // 8 of 10 flows reappear plus 2 new ones → overlap 8/10 = 0.8.
        let mut observed: Vec<_> = (0..8).map(|i| fp(i, i + 50)).collect();
        observed.push(fp(90, 91));
        observed.push(fp(92, 93));
        let observed = normalize(observed);
        assert!(db.lookup(&observed, 0.8, Similarity::Overlap).is_some());
        // Only half reappearing is below the bar.
        let weak = normalize((0..5).map(|i| fp(i, i + 50)).collect());
        // Overlap = 5/min(10,5) = 1.0 — the overlap coefficient is
        // lenient for subsets; Jaccard (5/10) is not.
        assert!(db.lookup(&weak, 0.8, Similarity::Jaccard).is_none());
    }

    #[test]
    fn better_solution_updates_entry() {
        let mut db = SolutionDb::new();
        let pat = vec![fp(1, 2)];
        db.save(
            NodeId(9),
            pat.clone(),
            paths(),
            9_000,
            0.8,
            Similarity::Overlap,
        );
        let better = vec![
            (PathDescriptor::Minimal, 7),
            (PathDescriptor::MeshOrder { yx: true }, 7),
        ];
        db.save(
            NodeId(9),
            pat.clone(),
            better.clone(),
            4_000,
            0.8,
            Similarity::Overlap,
        );
        assert_eq!(db.len(), 1, "no duplicate entry");
        assert_eq!(db.improvements, 1);
        let hit = db
            .lookup(&normalize(pat.clone()), 0.8, Similarity::Overlap)
            .unwrap();
        assert_eq!(hit.best_latency_ns, 4_000);
        assert_eq!(hit.paths, better);
        // A worse solution does not overwrite.
        db.save(
            NodeId(9),
            pat.clone(),
            paths(),
            20_000,
            0.8,
            Similarity::Overlap,
        );
        let hit = db
            .lookup(&normalize(pat), 0.8, Similarity::Overlap)
            .unwrap();
        assert_eq!(hit.best_latency_ns, 4_000);
    }

    #[test]
    fn distinct_patterns_accumulate() {
        let mut db = SolutionDb::new();
        db.save(
            NodeId(9),
            vec![fp(1, 2)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        db.save(
            NodeId(9),
            vec![fp(3, 4)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        assert_eq!(db.len(), 2);
        assert_eq!(db.patterns_found, 2);
        assert!(db.lookup(&[fp(9, 9)], 0.8, Similarity::Overlap).is_none());
    }

    #[test]
    fn empty_saves_are_ignored() {
        let mut db = SolutionDb::new();
        db.save(NodeId(9), vec![], paths(), 1_000, 0.8, Similarity::Overlap);
        db.save(
            NodeId(9),
            vec![fp(1, 2)],
            vec![],
            1_000,
            0.8,
            Similarity::Overlap,
        );
        assert!(db.is_empty());
    }

    #[test]
    fn invalidate_repairs_or_drops_dead_solutions() {
        let mut db = SolutionDb::new();
        let three = vec![
            (PathDescriptor::Minimal, 7),
            (PathDescriptor::MeshOrder { yx: true }, 7),
            (PathDescriptor::MeshOrder { yx: false }, 7),
        ];
        db.save(
            NodeId(5),
            vec![fp(1, 2)],
            three,
            1_000,
            0.8,
            Similarity::Overlap,
        );
        db.save(
            NodeId(6),
            vec![fp(3, 4)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        // Nothing dead: untouched.
        assert_eq!(db.invalidate(|_, _| true), 0);
        assert_eq!(db.len(), 2);
        // One dead MSP in the 3-path entry: repaired, not dropped. The
        // single-path entry for dst 6 loses its only path and goes.
        let removed = db.invalidate(|dst, d| {
            !(dst == NodeId(5) && d == PathDescriptor::Minimal) && dst != NodeId(6)
        });
        assert_eq!(removed, 2, "both entries were touched");
        assert_eq!(db.len(), 1, "the repaired entry survives");
        assert_eq!(db.iter().next().unwrap().paths.len(), 2);
    }

    #[test]
    fn capacity_evicts_fewest_hit_oldest_first() {
        let mut db = SolutionDb::with_capacity(2);
        db.save(
            NodeId(9),
            vec![fp(1, 2)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        db.save(
            NodeId(9),
            vec![fp(3, 4)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        // Hit the second entry so the first is the eviction candidate.
        assert!(db
            .lookup(&normalize(vec![fp(3, 4)]), 0.8, Similarity::Overlap)
            .is_some());
        db.save(
            NodeId(9),
            vec![fp(5, 6)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        assert_eq!(db.len(), 2, "store never exceeds capacity");
        assert_eq!(db.store_evictions, 1);
        // The zero-hit oldest entry (1,2) is gone; (3,4) survives.
        assert!(db
            .lookup(&normalize(vec![fp(1, 2)]), 0.8, Similarity::Overlap)
            .is_none());
        assert!(db
            .lookup(&normalize(vec![fp(3, 4)]), 0.8, Similarity::Overlap)
            .is_some());
        // All-zero hits: the oldest of the tie goes.
        let mut db = SolutionDb::with_capacity(2);
        for (i, p) in [fp(1, 2), fp(3, 4), fp(5, 6)].into_iter().enumerate() {
            db.save(
                NodeId(9),
                vec![p],
                paths(),
                1_000 + i as Time,
                0.8,
                Similarity::Overlap,
            );
        }
        assert_eq!(db.store_evictions, 1);
        assert!(db
            .lookup(&normalize(vec![fp(1, 2)]), 0.8, Similarity::Overlap)
            .is_none());
        assert!(db
            .lookup(&normalize(vec![fp(5, 6)]), 0.8, Similarity::Overlap)
            .is_some());
    }

    #[test]
    fn lookups_are_counted() {
        let mut db = SolutionDb::new();
        db.save(
            NodeId(9),
            vec![fp(1, 2)],
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        assert_eq!(db.store_lookups, 0, "saving is not a lookup");
        let _ = db.find(&normalize(vec![fp(1, 2)]), 0.8, Similarity::Overlap);
        let _ = db.find(&normalize(vec![fp(7, 8)]), 0.8, Similarity::Overlap);
        let _ = db.find(&[], 0.8, Similarity::Overlap);
        assert_eq!(db.store_lookups, 2, "empty observations don't scan");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        SolutionDb::with_capacity(0);
    }

    #[test]
    fn hit_counting_tracks_reuse_statistics() {
        let mut db = SolutionDb::new();
        let pat = vec![fp(1, 2)];
        db.save(
            NodeId(9),
            pat.clone(),
            paths(),
            1_000,
            0.8,
            Similarity::Overlap,
        );
        let norm = normalize(pat);
        for _ in 0..279 {
            db.lookup(&norm, 0.8, Similarity::Overlap).unwrap();
        }
        assert_eq!(db.reuse_applications, 279);
        assert_eq!(db.patterns_reused, 1);
        assert_eq!(db.iter().next().unwrap().hits, 279);
    }
}
