//! Collective lowering: the one place a collective becomes
//! point-to-point trace events (DESIGN §6, §12).
//!
//! The trace player replays `Send`/`Recv`/`Wait`/`Compute` only, so
//! every workload reaches the engine as a collective-free [`Trace`].
//! Collectives arrive from two sources, and both are lowered here, once,
//! when the run is configured:
//!
//! * **Trace collectives** ([`lower_collectives`]) — the `Bcast`,
//!   `Reduce`, `Allreduce` and `Barrier` calls of the application
//!   traces, lowered rank by rank onto binomial trees rooted anywhere
//!   (rank `v`, relative to the root, has parent `v − highbit(v)`):
//!   * `Bcast`   → binomial tree from the root (`log₂ n` rounds);
//!   * `Reduce`  → binomial tree to the root (mirror of bcast);
//!   * `Allreduce` → reduce-to-0 followed by bcast-from-0 (works for any
//!     rank count and preserves the heavy-root traffic signature that
//!     collective phases inject — §2.2.6 notes the Allreduce phase of
//!     LAMMPS "would produce heavy traffic into the network");
//!   * `Barrier` → 1-byte allreduce.
//!
//!   Each collective instance draws unique tags from the reserved range
//!   starting at [`COLLECTIVE_TAG_BASE`], so concurrent collectives
//!   can't cross-match.
//! * **Collective schedules** ([`CollectiveSpec`]) — MPI-style
//!   all-to-all / all-reduce round schedules in ring and tree shapes.
//!   The evaluation's synthetic permutations exercise *spatial*
//!   structure; collectives add the *temporal* structure of real
//!   applications — a fixed sequence of communication rounds that
//!   repeats every iteration, which is exactly the repetitive traffic
//!   the PR-DRB solution store is built to learn:
//!   * **all-to-all / ring** — rotation rounds: in round `k`, rank `i`
//!     sends its block for rank `(i + k) mod N`. `N − 1` rounds, one
//!     message per ordered pair.
//!   * **all-to-all / tree** — recursive pairwise (XOR) exchange for
//!     power-of-two `N`: in round `k`, rank `i` exchanges with
//!     `i XOR 2^k` the blocks destined for the partner's half. `log2 N`
//!     rounds of `N/2`-size messages each way. Non-power-of-two rank
//!     counts fall back to the ring schedule (documented, asserted in
//!     tests) rather than emulating ghost ranks.
//!   * **all-reduce / ring** — reduce-scatter then allgather: `2(N − 1)`
//!     rounds of `bytes / N` chunks around the ring. After round
//!     `N − 1 + r`, chunk ownership has rotated so every rank ends with
//!     the full reduced vector.
//!   * **all-reduce / tree** — binomial reduce to rank 0 followed by a
//!     binomial broadcast: `2·ceil(log2 N)` rounds of full-vector
//!     messages. Rank `i` has parent `i − lowbit(i)` — a different tree
//!     from the trace lowering's, and a different workload.
//!
//!   A schedule is *pure data* — `rounds()` returns who sends what to
//!   whom, per round, and [`CollectiveSpec::lower`] compiles the rounds
//!   into a trace with tags below [`COLLECTIVE_TAG_BASE`].
//!   [`check_exactly_once`] models the dataflow symbolically and is the
//!   oracle for the schedule-correctness proptests.

use crate::trace::{Rank, Trace, TraceEvent};
use prdrb_simcore::time::Time;

/// First tag reserved for lowered collectives; generator tags must stay
/// below this.
pub const COLLECTIVE_TAG_BASE: u32 = 0x4000_0000;

/// State for assigning unique collective tags.
struct Tagger {
    next: u32,
}

impl Tagger {
    fn fresh(&mut self) -> u32 {
        let t = self.next;
        self.next += 1;
        t
    }
}

/// Lower every collective in `trace` into point-to-point exchanges.
///
/// Requires the trace to be *SPMD-consistent*: every rank issues the
/// same collectives in the same order (checked; panics otherwise, since
/// a mismatched collective would deadlock real MPI too).
pub fn lower_collectives(trace: &Trace) -> Trace {
    let n = trace.num_ranks() as Rank;
    let mut out = Trace::new(trace.name.clone(), n as usize);
    let mut tagger = Tagger {
        next: COLLECTIVE_TAG_BASE,
    };

    // Position of each rank's next collective — used to verify SPMD
    // consistency as we stream through.
    let upcoming: Vec<std::collections::VecDeque<TraceEvent>> = trace
        .ranks
        .iter()
        .map(|evs| evs.iter().filter(|e| e.is_collective()).copied().collect())
        .collect();
    // All ranks must agree on the collective sequence.
    for r in 1..n as usize {
        assert_eq!(
            upcoming[0], upcoming[r],
            "rank {r} disagrees on the collective sequence (SPMD violation)"
        );
    }
    // Pre-assign tags per collective instance. Reduce+bcast-style
    // lowerings need two tags.
    let tags: Vec<(u32, u32)> = upcoming[0]
        .iter()
        .map(|_| (tagger.fresh(), tagger.fresh()))
        .collect();

    for (r, evs) in trace.ranks.iter().enumerate() {
        let r = r as Rank;
        let mut ci = 0usize;
        for ev in evs {
            if !ev.is_collective() {
                out.push(r, *ev);
                continue;
            }
            let (tag_a, tag_b) = tags[ci];
            ci += 1;
            match *ev {
                TraceEvent::Bcast { root, bytes } => {
                    emit_bcast(&mut out, r, n, root, bytes, tag_a);
                }
                TraceEvent::Reduce { root, bytes } => {
                    emit_reduce(&mut out, r, n, root, bytes, tag_a);
                }
                TraceEvent::Allreduce { bytes } => {
                    emit_reduce(&mut out, r, n, 0, bytes, tag_a);
                    emit_bcast(&mut out, r, n, 0, bytes, tag_b);
                }
                TraceEvent::Barrier => {
                    emit_reduce(&mut out, r, n, 0, 1, tag_a);
                    emit_bcast(&mut out, r, n, 0, 1, tag_b);
                }
                _ => unreachable!(),
            }
        }
    }
    out
}

/// Rank relative to the root (so the binomial tree is rooted anywhere).
fn rel(r: Rank, root: Rank, n: Rank) -> Rank {
    (r + n - root) % n
}

fn unrel(v: Rank, root: Rank, n: Rank) -> Rank {
    (v + root) % n
}

/// Binomial-tree broadcast from `root`: in round `k` (highest first),
/// ranks with relative id `< 2^k` having the data send to `rel + 2^k`.
fn emit_bcast(out: &mut Trace, me: Rank, n: Rank, root: Rank, bytes: u32, tag: u32) {
    let v = rel(me, root, n);
    let rounds = (n as u64).next_power_of_two().trailing_zeros();
    // Receive first (unless root).
    if v != 0 {
        let k = 31 - v.leading_zeros(); // highest set bit: the round we receive in
        let parent = v - (1 << k);
        out.push(
            me,
            TraceEvent::Recv {
                src: unrel(parent, root, n),
                tag,
            },
        );
    }
    // Then forward in later rounds.
    for k in 0..rounds {
        let bit = 1u32 << k;
        if v < bit && v + bit < n {
            // Only forward in rounds after we hold the data.
            let have_at = if v == 0 { 0 } else { 32 - v.leading_zeros() };
            if k >= have_at {
                out.push(
                    me,
                    TraceEvent::Send {
                        dst: unrel(v + bit, root, n),
                        bytes,
                        tag,
                    },
                );
            }
        }
    }
}

/// Binomial-tree reduce to `root`: the mirror of broadcast.
fn emit_reduce(out: &mut Trace, me: Rank, n: Rank, root: Rank, bytes: u32, tag: u32) {
    let v = rel(me, root, n);
    let rounds = (n as u64).next_power_of_two().trailing_zeros();
    // Receive partial results from children (reverse round order of the
    // bcast forwarding).
    for k in (0..rounds).rev() {
        let bit = 1u32 << k;
        if v < bit && v + bit < n {
            let have_at = if v == 0 { 0 } else { 32 - v.leading_zeros() };
            if k >= have_at {
                out.push(
                    me,
                    TraceEvent::Recv {
                        src: unrel(v + bit, root, n),
                        tag,
                    },
                );
            }
        }
    }
    // Send own partial up.
    if v != 0 {
        let k = 31 - v.leading_zeros();
        let parent = v - (1 << k);
        out.push(
            me,
            TraceEvent::Send {
                dst: unrel(parent, root, n),
                bytes,
                tag,
            },
        );
    }
}

// ---------------------------------------------------------------------
// Collective schedules
// ---------------------------------------------------------------------

/// Which collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Every rank sends a distinct block to every other rank.
    AllToAll,
    /// Every rank contributes a vector; all ranks end with the
    /// element-wise reduction of all contributions.
    AllReduce,
}

impl CollectiveKind {
    /// Stable label for artifacts and cache keys.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::AllToAll => "alltoall",
            CollectiveKind::AllReduce => "allreduce",
        }
    }
}

/// Which communication schedule realizes the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleShape {
    /// Ring / rotation schedule — `O(N)` rounds of small messages.
    Ring,
    /// Tree / recursive-halving schedule — `O(log N)` rounds of larger
    /// messages (XOR exchange for all-to-all, binomial for all-reduce).
    Tree,
}

impl ScheduleShape {
    /// Stable label for artifacts and cache keys.
    pub fn label(self) -> &'static str {
        match self {
            ScheduleShape::Ring => "ring",
            ScheduleShape::Tree => "tree",
        }
    }
}

/// One message of a collective round: `src` sends `bytes` to `dst`.
/// Ranks are NIC indices (the engine maps rank `r` to the `r`-th NIC
/// attach point of the topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollMsg {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload size.
    pub bytes: u32,
}

/// A collective operation instance over `ranks` participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSpec {
    /// The operation.
    pub kind: CollectiveKind,
    /// The schedule realizing it.
    pub shape: ScheduleShape,
    /// Participant count (must be ≥ 2).
    pub ranks: u32,
    /// Per-rank contribution size: the full local buffer for
    /// all-to-all (split into `ranks` blocks) and the vector length for
    /// all-reduce.
    pub bytes: u32,
}

impl CollectiveSpec {
    /// Construct, validating the rank count.
    pub fn new(kind: CollectiveKind, shape: ScheduleShape, ranks: u32, bytes: u32) -> Self {
        assert!(ranks >= 2, "a collective needs at least 2 ranks");
        assert!(bytes >= 1, "a collective needs a non-empty payload");
        Self {
            kind,
            shape,
            ranks,
            bytes,
        }
    }

    /// Stable label, e.g. `alltoall-ring-16r`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}-{}r",
            self.kind.label(),
            self.shape.label(),
            self.ranks
        )
    }

    /// Per-block size for all-to-all / per-chunk size for ring
    /// all-reduce (floored at 1 byte so tiny payloads still move).
    fn block_bytes(&self) -> u32 {
        (self.bytes / self.ranks).max(1)
    }

    /// The full round schedule: `rounds()[r]` is every message of round
    /// `r`. Rounds are barriers in the lowered trace — a rank enters
    /// round `r + 1` only after receiving everything addressed to it in
    /// round `r` — so the schedule, not packet timing, fixes the
    /// dataflow. Within a round each ordered `(src, dst)` pair appears
    /// at most once (required by the trace player's `(src, tag)`
    /// mailbox).
    pub fn rounds(&self) -> Vec<Vec<CollMsg>> {
        match (self.kind, self.shape) {
            (CollectiveKind::AllToAll, ScheduleShape::Ring) => self.alltoall_ring(),
            (CollectiveKind::AllToAll, ScheduleShape::Tree) => {
                if self.ranks.is_power_of_two() {
                    self.alltoall_xor()
                } else {
                    // Documented fallback: the XOR exchange needs a
                    // power-of-two group; other sizes use the ring.
                    self.alltoall_ring()
                }
            }
            (CollectiveKind::AllReduce, ScheduleShape::Ring) => self.allreduce_ring(),
            (CollectiveKind::AllReduce, ScheduleShape::Tree) => self.allreduce_tree(),
        }
    }

    /// Rotation all-to-all: round `k ∈ 1..N` has rank `i` send block
    /// `(i + k) mod N` directly to its owner.
    fn alltoall_ring(&self) -> Vec<Vec<CollMsg>> {
        let n = self.ranks;
        let b = self.block_bytes();
        (1..n)
            .map(|k| {
                (0..n)
                    .map(|i| CollMsg {
                        src: i,
                        dst: (i + k) % n,
                        bytes: b,
                    })
                    .collect()
            })
            .collect()
    }

    /// XOR pairwise-exchange all-to-all (power-of-two `N`): in round
    /// `k`, rank `i` sends partner `i ^ 2^k` the `N/2` blocks whose
    /// destinations have bit `k` equal to the partner's bit `k`.
    fn alltoall_xor(&self) -> Vec<Vec<CollMsg>> {
        let n = self.ranks;
        let b = self.block_bytes();
        let half = (n / 2) * b;
        (0..n.ilog2())
            .map(|k| {
                (0..n)
                    .map(|i| CollMsg {
                        src: i,
                        dst: i ^ (1 << k),
                        bytes: half,
                    })
                    .collect()
            })
            .collect()
    }

    /// Ring all-reduce: `N − 1` reduce-scatter rounds then `N − 1`
    /// allgather rounds, each moving one `bytes / N` chunk to the next
    /// rank on the ring.
    fn allreduce_ring(&self) -> Vec<Vec<CollMsg>> {
        let n = self.ranks;
        let c = self.block_bytes();
        (0..2 * (n - 1))
            .map(|_| {
                (0..n)
                    .map(|i| CollMsg {
                        src: i,
                        dst: (i + 1) % n,
                        bytes: c,
                    })
                    .collect()
            })
            .collect()
    }

    /// Binomial-tree all-reduce: reduce to rank 0 (children send up in
    /// `ceil(log2 N)` rounds, high strides first), then broadcast back
    /// down (mirror order).
    fn allreduce_tree(&self) -> Vec<Vec<CollMsg>> {
        let n = self.ranks;
        let b = self.bytes;
        let levels = u32::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
        let mut rounds = Vec::with_capacity(2 * levels as usize);
        // Reduce, ascending strides: at level L, rank i with
        // i % 2^(L+1) == 2^L sends its partial down to i - 2^L. Small
        // strides first, so a rank merges all its subtree before its
        // own partial moves on.
        for level in 0..levels {
            let stride = 1u32 << level;
            let round: Vec<CollMsg> = (0..n)
                .filter(|i| i % (stride * 2) == stride)
                .map(|i| CollMsg {
                    src: i,
                    dst: i - stride,
                    bytes: b,
                })
                .collect();
            rounds.push(round);
        }
        // Broadcast: the reduce mirrored — descending strides fan the
        // finished sum back out from rank 0.
        for level in (0..levels).rev() {
            let stride = 1u32 << level;
            let round: Vec<CollMsg> = (0..n)
                .filter(|i| i % (stride * 2) == stride)
                .map(|i| CollMsg {
                    src: i - stride,
                    dst: i,
                    bytes: b,
                })
                .collect();
            rounds.push(round);
        }
        rounds
    }

    /// Lower `iterations` back-to-back repetitions of the schedule, with
    /// `compute_ns` of computation between them, into a trace whose rank
    /// `r` is the schedule's rank `r`. Per round, every sender's `Send`
    /// (buffered, non-blocking) precedes every receiver's blocking
    /// `Recv`, so a rank enters round `r + 1` only after receiving
    /// everything round `r` addressed to it — the schedule's round
    /// barrier, independent of packet timing. Tags are
    /// `iteration * rounds + round`, kept below [`COLLECTIVE_TAG_BASE`]
    /// so they can never collide with the tags of [`lower_collectives`].
    pub fn lower(&self, iterations: u32, compute_ns: Time) -> Trace {
        assert!(iterations >= 1, "a collective workload needs iterations");
        let rounds = self.rounds();
        let tags_per_iter = rounds.len() as u32;
        assert!(
            iterations.saturating_mul(tags_per_iter) < COLLECTIVE_TAG_BASE,
            "collective tags must stay below the lowering namespace"
        );
        let mut trace = Trace::new(
            format!("{}x{iterations}", self.label()),
            self.ranks as usize,
        );
        for it in 0..iterations {
            if it > 0 && compute_ns > 0 {
                trace.push_all(TraceEvent::Compute { ns: compute_ns });
            }
            for (r, msgs) in rounds.iter().enumerate() {
                let tag = it * tags_per_iter + r as u32;
                for m in msgs {
                    trace.push(
                        m.src,
                        TraceEvent::Send {
                            dst: m.dst,
                            bytes: m.bytes,
                            tag,
                        },
                    );
                }
                for m in msgs {
                    trace.push(m.dst, TraceEvent::Recv { src: m.src, tag });
                }
            }
        }
        trace
    }
}

/// Verify the schedule's dataflow delivers every rank's contribution to
/// every rank **exactly once** — the correctness oracle for the
/// schedule proptests.
///
/// The model tracks, per rank, the set of source-rank contributions it
/// holds (for all-to-all: the set of `(src → dst)` blocks it has
/// received; for all-reduce: the set of original contributions folded
/// into its partial). Rounds are applied as barriers. Violations —
/// duplicate delivery of the same contribution on the same rank, or a
/// rank left short at the end — return `Err` with a description.
pub fn check_exactly_once(spec: &CollectiveSpec) -> Result<(), String> {
    let n = spec.ranks as usize;
    match spec.kind {
        CollectiveKind::AllToAll => check_alltoall(spec, n),
        CollectiveKind::AllReduce => check_allreduce(spec, n),
    }
}

/// All-to-all model: rank `i` starts holding blocks `(i, d)` for every
/// destination `d`; messages transfer the blocks the protocol routes on
/// that edge; at the end rank `d` must hold block `(s, d)` from every
/// `s` exactly once.
fn check_alltoall(spec: &CollectiveSpec, n: usize) -> Result<(), String> {
    // holds[r] = count per (origin src, final dst) block currently at r.
    let mut holds = vec![vec![0u32; n * n]; n];
    for (i, h) in holds.iter_mut().enumerate() {
        for d in 0..n {
            h[i * n + d] = 1;
        }
    }
    let tree = spec.shape == ScheduleShape::Tree && spec.ranks.is_power_of_two();
    for (rno, round) in spec.rounds().iter().enumerate() {
        let mut deltas = vec![vec![0i64; n * n]; n];
        for m in round {
            let (src, dst) = (m.src as usize, m.dst as usize);
            // Which blocks this message carries, by protocol.
            let carried: Vec<usize> = if tree {
                // XOR round k moves every held block whose final
                // destination lies in the partner's half for bit k.
                let k = rno as u32;
                let dbit = (m.dst >> k) & 1;
                (0..n * n)
                    .filter(|&b| holds[src][b] > 0 && ((b % n) as u32 >> k) & 1 == dbit)
                    .collect()
            } else {
                // Ring round k carries exactly block (src, dst).
                vec![src * n + dst]
            };
            for b in carried {
                if holds[src][b] == 0 {
                    return Err(format!(
                        "round {rno}: rank {src} sends block it does not hold"
                    ));
                }
                // A rank keeps its own (src==dst==self) block; every
                // transferred block leaves the sender.
                deltas[src][b] -= 1;
                deltas[dst][b] += 1;
            }
        }
        for r in 0..n {
            for b in 0..n * n {
                let v = holds[r][b] as i64 + deltas[r][b];
                if v < 0 {
                    return Err(format!("round {rno}: rank {r} oversends block {b}"));
                }
                holds[r][b] = v as u32;
            }
        }
    }
    for d in 0..n {
        for s in 0..n {
            let got = holds[d][s * n + d];
            if got != 1 {
                return Err(format!(
                    "rank {d} holds contribution of rank {s} {got} times (want exactly 1)"
                ));
            }
        }
    }
    Ok(())
}

/// All-reduce model: partials are *sets of original contributions*.
/// Ring: per-chunk sets rotate and union; tree: whole-vector sets merge
/// up then copy down. Exactly-once means every rank's final set is all
/// `N` contributions, and no union ever merges overlapping sets (a
/// duplicate contribution would be reduced twice).
fn check_allreduce(spec: &CollectiveSpec, n: usize) -> Result<(), String> {
    let rounds = spec.rounds();
    match spec.shape {
        ScheduleShape::Ring => {
            // contrib[r][c] = bitset of origins folded into chunk c's
            // partial at rank r.
            let full = (1u64 << n) - 1;
            let mut contrib = vec![vec![0u64; n]; n];
            for (r, row) in contrib.iter_mut().enumerate() {
                for c in row.iter_mut() {
                    *c = 1 << r;
                }
            }
            // Reduce-scatter rounds 0..n-1: in round k, rank i forwards
            // its partial of chunk (i - k - 1) mod n to rank i+1.
            for k in 0..n - 1 {
                let moved: Vec<(usize, usize, u64)> = (0..n)
                    .map(|i| {
                        let c = (i + n - k - 1) % n;
                        (i, c, contrib[i][c])
                    })
                    .collect();
                for (i, c, set) in moved {
                    let dst = (i + 1) % n;
                    if contrib[dst][c] & set != 0 {
                        return Err(format!(
                            "reduce-scatter round {k}: chunk {c} partial overlaps at rank {dst}"
                        ));
                    }
                    contrib[dst][c] |= set;
                    contrib[i][c] = 0; // partial moves on
                }
            }
            // After reduce-scatter, chunk c is complete at rank c
            // (round k forwards chunk (i - k - 1) mod n, so rank i's
            // last delivery lands its own chunk index).
            for (c, row) in contrib.iter().enumerate() {
                if row[c] != full {
                    return Err(format!("chunk {c} incomplete at owner {c}: {:b}", row[c]));
                }
            }
            // Allgather rounds: reduced chunks rotate; after n-1 more
            // rounds everyone has every chunk.
            for k in 0..n - 1 {
                let moved: Vec<(usize, usize, u64)> = (0..n)
                    .map(|i| {
                        let c = (i + n - k) % n;
                        (i, c, contrib[i][c])
                    })
                    .collect();
                for (i, c, set) in moved {
                    if set != full {
                        return Err(format!(
                            "allgather round {k}: rank {i} forwards incomplete chunk {c}"
                        ));
                    }
                    contrib[(i + 1) % n][c] = set;
                }
            }
            for (r, row) in contrib.iter().enumerate() {
                for (c, &set) in row.iter().enumerate() {
                    if set != full {
                        return Err(format!("rank {r} ends without full chunk {c}"));
                    }
                }
            }
            Ok(())
        }
        ScheduleShape::Tree => {
            let full = (1u64 << n) - 1;
            let levels = rounds.len() / 2;
            let mut set = vec![0u64; n];
            for (r, s) in set.iter_mut().enumerate() {
                *s = 1 << r;
            }
            for (rno, round) in rounds.iter().enumerate() {
                let reduce_phase = rno < levels;
                for m in round {
                    let (src, dst) = (m.src as usize, m.dst as usize);
                    if reduce_phase {
                        if set[dst] & set[src] != 0 {
                            return Err(format!(
                                "reduce round {rno}: {src}->{dst} would double-count"
                            ));
                        }
                        set[dst] |= set[src];
                    } else {
                        if set[src] != full {
                            return Err(format!(
                                "bcast round {rno}: rank {src} broadcasts incomplete sum"
                            ));
                        }
                        set[dst] = full;
                    }
                }
            }
            for (r, &s) in set.iter().enumerate() {
                if s != full {
                    return Err(format!("rank {r} ends with partial sum {s:b}"));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collective_trace(n: usize, ev: TraceEvent) -> Trace {
        let mut t = Trace::new("coll", n);
        t.push_all(ev);
        t
    }

    #[test]
    fn bcast_lowering_is_matched_and_collective_free() {
        for n in [2usize, 3, 4, 8, 13, 64] {
            let t = collective_trace(
                n,
                TraceEvent::Bcast {
                    root: 0,
                    bytes: 512,
                },
            );
            let l = lower_collectives(&t);
            assert!(l.check_matched().is_ok(), "n={n}");
            assert!(l.ranks.iter().flatten().all(|e| !e.is_collective()));
            // A broadcast sends exactly n-1 messages.
            let sends = l
                .ranks
                .iter()
                .flatten()
                .filter(|e| matches!(e, TraceEvent::Send { .. }))
                .count();
            assert_eq!(sends, n - 1, "n={n}");
        }
    }

    #[test]
    fn bcast_nonzero_root() {
        let t = collective_trace(8, TraceEvent::Bcast { root: 5, bytes: 64 });
        let l = lower_collectives(&t);
        assert!(l.check_matched().is_ok());
        // The root never receives.
        assert!(l.ranks[5]
            .iter()
            .all(|e| !matches!(e, TraceEvent::Recv { .. })));
        // Every other rank receives exactly once.
        for (r, evs) in l.ranks.iter().enumerate() {
            if r != 5 {
                let recvs = evs
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Recv { .. }))
                    .count();
                assert_eq!(recvs, 1, "rank {r}");
            }
        }
    }

    #[test]
    fn reduce_lowering_is_matched() {
        for n in [2usize, 4, 7, 64] {
            let t = collective_trace(n, TraceEvent::Reduce { root: 0, bytes: 8 });
            let l = lower_collectives(&t);
            assert!(l.check_matched().is_ok(), "n={n}");
            let sends = l
                .ranks
                .iter()
                .flatten()
                .filter(|e| matches!(e, TraceEvent::Send { .. }))
                .count();
            assert_eq!(sends, n - 1);
        }
    }

    #[test]
    fn allreduce_is_reduce_plus_bcast() {
        let t = collective_trace(16, TraceEvent::Allreduce { bytes: 8 });
        let l = lower_collectives(&t);
        assert!(l.check_matched().is_ok());
        let sends = l
            .ranks
            .iter()
            .flatten()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .count();
        assert_eq!(sends, 2 * 15);
    }

    #[test]
    fn barrier_lowers_to_tiny_messages() {
        let t = collective_trace(4, TraceEvent::Barrier);
        let l = lower_collectives(&t);
        assert!(l.check_matched().is_ok());
        assert!(l
            .ranks
            .iter()
            .flatten()
            .all(|e| !matches!(e, TraceEvent::Send { bytes, .. } if *bytes > 1)));
    }

    #[test]
    fn sequential_collectives_get_distinct_tags() {
        let mut t = Trace::new("two", 4);
        t.push_all(TraceEvent::Allreduce { bytes: 8 });
        t.push_all(TraceEvent::Allreduce { bytes: 8 });
        let l = lower_collectives(&t);
        assert!(l.check_matched().is_ok());
        let tags: std::collections::HashSet<u32> = l
            .ranks
            .iter()
            .flatten()
            .filter_map(|e| match e {
                TraceEvent::Send { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len(), 4, "2 allreduces × (reduce tag + bcast tag)");
    }

    #[test]
    fn p2p_and_compute_pass_through() {
        let mut t = Trace::new("mix", 2);
        t.push(0, TraceEvent::Compute { ns: 100 });
        t.push(
            0,
            TraceEvent::Send {
                dst: 1,
                bytes: 9,
                tag: 3,
            },
        );
        t.push(1, TraceEvent::Recv { src: 0, tag: 3 });
        t.push_all(TraceEvent::Barrier);
        let l = lower_collectives(&t);
        assert!(matches!(l.ranks[0][0], TraceEvent::Compute { ns: 100 }));
        assert!(matches!(l.ranks[0][1], TraceEvent::Send { bytes: 9, .. }));
        assert!(l.check_matched().is_ok());
    }

    #[test]
    #[should_panic(expected = "SPMD")]
    fn mismatched_collectives_panic() {
        let mut t = Trace::new("bad", 2);
        t.push(0, TraceEvent::Barrier);
        // Rank 1 issues no barrier.
        let _ = lower_collectives(&t);
    }

    #[test]
    fn alltoall_ring_round_shape() {
        let s = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 8, 8192);
        let rounds = s.rounds();
        assert_eq!(rounds.len(), 7, "N-1 rotation rounds");
        for r in &rounds {
            assert_eq!(r.len(), 8, "one message per rank per round");
        }
        check_exactly_once(&s).unwrap();
    }

    #[test]
    fn alltoall_xor_round_shape() {
        let s = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Tree, 16, 16384);
        let rounds = s.rounds();
        assert_eq!(rounds.len(), 4, "log2(16) exchange rounds");
        // Each round every rank sends half its buffer to its partner.
        assert_eq!(rounds[0][0].bytes, 8 * 1024);
        check_exactly_once(&s).unwrap();
    }

    #[test]
    fn alltoall_tree_falls_back_to_ring_off_pow2() {
        let tree = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Tree, 6, 600);
        let ring = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 6, 600);
        assert_eq!(tree.rounds(), ring.rounds());
        check_exactly_once(&tree).unwrap();
    }

    #[test]
    fn allreduce_ring_round_shape() {
        let s = CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Ring, 8, 8000);
        let rounds = s.rounds();
        assert_eq!(rounds.len(), 14, "2(N-1) rounds");
        assert_eq!(rounds[0][0].bytes, 1000, "bytes/N chunks");
        check_exactly_once(&s).unwrap();
    }

    #[test]
    fn allreduce_tree_round_shape() {
        let s = CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, 8, 4096);
        let rounds = s.rounds();
        assert_eq!(rounds.len(), 6, "2 log2(8) rounds");
        // First reduce round: stride 1, all 8 ranks pair up -> 4 msgs.
        assert_eq!(rounds[0].len(), 4);
        assert_eq!((rounds[0][0].src, rounds[0][0].dst), (1, 0));
        // Last reduce round: stride 4, one message into the root.
        assert_eq!(rounds[2].len(), 1);
        assert_eq!((rounds[2][0].src, rounds[2][0].dst), (4, 0));
        check_exactly_once(&s).unwrap();
    }

    #[test]
    fn allreduce_tree_handles_non_pow2() {
        for n in [3u32, 5, 6, 7, 12, 13] {
            let s = CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, n, 1024);
            check_exactly_once(&s).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn every_family_checks_out_across_sizes() {
        for kind in [CollectiveKind::AllToAll, CollectiveKind::AllReduce] {
            for shape in [ScheduleShape::Ring, ScheduleShape::Tree] {
                for n in [2u32, 3, 4, 8, 16, 20] {
                    let s = CollectiveSpec::new(kind, shape, n, 4096);
                    check_exactly_once(&s).unwrap_or_else(|e| {
                        panic!("{} n={n}: {e}", s.label());
                    });
                }
            }
        }
    }

    #[test]
    fn rounds_have_unique_src_dst_pairs() {
        // The trace player's (src, tag) mailbox needs at most one
        // message per ordered pair per round.
        for kind in [CollectiveKind::AllToAll, CollectiveKind::AllReduce] {
            for shape in [ScheduleShape::Ring, ScheduleShape::Tree] {
                let s = CollectiveSpec::new(kind, shape, 16, 4096);
                for (rno, round) in s.rounds().iter().enumerate() {
                    let mut seen = std::collections::HashSet::new();
                    for m in round {
                        assert!(
                            seen.insert((m.src, m.dst)),
                            "{} round {rno}: duplicate ({}, {})",
                            s.label(),
                            m.src,
                            m.dst
                        );
                        assert_ne!(m.src, m.dst, "no self-sends");
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        let s = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 16, 1024);
        assert_eq!(s.label(), "alltoall-ring-16r");
        let s = CollectiveSpec::new(CollectiveKind::AllReduce, ScheduleShape::Tree, 8, 1024);
        assert_eq!(s.label(), "allreduce-tree-8r");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_rank_rejected() {
        CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 1, 64);
    }

    #[test]
    fn collective_lowering_respects_tag_namespace_and_rounds() {
        let spec = CollectiveSpec::new(CollectiveKind::AllToAll, ScheduleShape::Ring, 8, 4096);
        let trace = spec.lower(3, 1_000);
        assert_eq!(trace.num_ranks(), 8);
        assert_eq!(trace.name, "alltoall-ring-8rx3");
        assert!(trace.check_matched().is_ok());
        let max_tag = trace
            .ranks
            .iter()
            .flatten()
            .filter_map(|e| match e {
                TraceEvent::Send { tag, .. } | TraceEvent::Recv { tag, .. } => Some(*tag),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_tag < COLLECTIVE_TAG_BASE);
        // 3 iterations × 7 rounds of an 8-rank ring all-to-all.
        assert_eq!(max_tag, 3 * 7 - 1);
        // Iteration gaps: every rank computes twice (before it 1 and 2).
        for rank in &trace.ranks {
            let computes = rank
                .iter()
                .filter(|e| matches!(e, TraceEvent::Compute { .. }))
                .count();
            assert_eq!(computes, 2);
        }
    }
}
