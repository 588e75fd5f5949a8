//! Deterministic event calendar.
//!
//! Two interchangeable backends provide the same total order, keyed on
//! `(time, key, sequence)`. The `key` is an optional caller-supplied
//! priority derived from event *content* (see [`EventQueue::schedule_keyed`]);
//! events at one instant pop in ascending key order, and the sequence
//! number breaks the remaining ties by insertion order, so the order is
//! total and simulations replay identically for a given seed — the
//! property §4.3 of the thesis relies on when averaging seeded replicas.
//!
//! Content-derived keys make the pop order a function of *what* is
//! scheduled, not of the order handlers happen to schedule it: as long
//! as same-time events carry distinct keys (or identical payloads), any
//! insertion order pops them identically. The network fabric keys every
//! event this way, so its schedule — and every artifact derived from it
//! — is fixed by the keys. Callers that never need that property can
//! ignore keys entirely (`schedule` uses key 0 and degenerates to pure
//! insertion order).
//!
//! * [`QueueKind::Heap`] — a binary min-heap; the reference backend.
//! * [`QueueKind::Wheel`] — a hierarchical timing wheel (the classic DES
//!   calendar-queue optimisation): three levels of 64 slots at 128 ns
//!   granularity give O(1) schedule/advance for the short deltas the
//!   fabric generates (wire, header, serialisation times), with a heap
//!   fallback for events beyond the ~33 ms horizon. Both backends pop in
//!   exactly the same order; `wheel_matches_heap` below proves it on
//!   randomized interleavings.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event plus its scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry<E> {
    /// Absolute simulated time at which the event fires.
    pub time: Time,
    /// Content-derived priority; orders events at equal `time` before
    /// the insertion sequence does. Zero for unkeyed scheduling.
    pub key: u64,
    /// Monotonic insertion index; breaks ties at equal `(time, key)`.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialOrd for EventEntry<E>
where
    E: Eq,
{
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E>
where
    E: Eq,
{
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key, self.seq).cmp(&(other.time, other.key, other.seq))
    }
}

/// Which calendar backend an [`EventQueue`] uses. The choice cannot
/// change simulation results — only how fast they are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Hierarchical timing wheel with heap fallback for far-future
    /// events. The fast path for fabric-scale event populations.
    #[default]
    Wheel,
    /// Binary min-heap. The reference backend the wheel is verified
    /// against.
    Heap,
}

/// Wheel geometry: 128 ns level-0 slots (`1 << GRANULARITY_BITS`), 64
/// slots per level, three levels — spans of ~8.2 µs, ~0.5 ms and
/// ~33.5 ms. Typical fabric deltas (tens of ns to a few µs) land in
/// levels 0–1; anything past the top-level horizon waits in a heap.
const GRANULARITY_BITS: u32 = 7;
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const LEVELS: usize = 3;

struct Wheel<E> {
    /// `LEVELS * SLOTS` buckets of unsorted events. A slot at level `l`
    /// holds every pending event whose quantized time falls `1..64`
    /// level-`l` ticks after the cursor.
    slots: Vec<Vec<EventEntry<E>>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Events at or before the cursor tick, sorted *descending* by
    /// `(time, seq)` so the minimum pops from the back. Invariant: every
    /// pending event quantizing at or before `cur_tick` lives here, and
    /// everything still in `slots`/`overflow` is strictly later — so the
    /// back of `active` is always the global minimum.
    active: Vec<EventEntry<E>>,
    /// Cursor: the level-0 tick the wheel has advanced to. Only moves
    /// forward. Peeking may advance it past times at which events are
    /// later scheduled (the runner peeks the fabric, then injects host
    /// events at earlier timestamps); `insert` routes those into
    /// `active`, preserving order.
    cur_tick: u64,
    /// Events beyond the top-level horizon; re-examined at every refill
    /// so they re-enter the wheel as soon as they fit.
    overflow: BinaryHeap<Reverse<EventEntry<E>>>,
    /// Events currently resident in `slots`.
    in_slots: usize,
    /// Reusable buffer for cascading a slot without reallocating.
    scratch: Vec<EventEntry<E>>,
}

impl<E: Eq> Wheel<E> {
    fn new() -> Self {
        Self {
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [0; LEVELS],
            active: Vec::new(),
            cur_tick: 0,
            overflow: BinaryHeap::new(),
            in_slots: 0,
            scratch: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.active.len() + self.in_slots + self.overflow.len()
    }

    fn insert(&mut self, entry: EventEntry<E>) {
        let tick = entry.time >> GRANULARITY_BITS;
        if tick <= self.cur_tick {
            // At or behind the cursor: merge into the sorted active run.
            let key = (entry.time, entry.key, entry.seq);
            let pos = self
                .active
                .partition_point(|e| (e.time, e.key, e.seq) > key);
            self.active.insert(pos, entry);
            return;
        }
        for l in 0..LEVELS {
            let shift = l as u32 * SLOT_BITS;
            if (tick >> shift) - (self.cur_tick >> shift) < SLOTS as u64 {
                let s = ((tick >> shift) & SLOT_MASK) as usize;
                self.slots[l * SLOTS + s].push(entry);
                self.occupied[l] |= 1 << s;
                self.in_slots += 1;
                return;
            }
        }
        self.overflow.push(Reverse(entry));
    }

    /// True when `time` fits under the wheel's current horizon.
    fn fits(&self, time: Time) -> bool {
        let shift = GRANULARITY_BITS + (LEVELS as u32 - 1) * SLOT_BITS;
        (time >> shift) - (self.cur_tick >> ((LEVELS as u32 - 1) * SLOT_BITS)) < SLOTS as u64
    }

    /// Move overflow events that now fit the horizon into the wheel.
    fn drain_overflow(&mut self) {
        while let Some(Reverse(e)) = self.overflow.peek() {
            if !self.fits(e.time) {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.insert(e);
        }
    }

    /// Re-insert the events of one upper-level slot at the (advanced)
    /// cursor, spreading them over lower levels.
    fn cascade(&mut self, level: usize, slot: usize) {
        if self.occupied[level] & (1 << slot) == 0 {
            return;
        }
        self.occupied[level] &= !(1 << slot);
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.slots[level * SLOTS + slot], &mut self.scratch);
        self.in_slots -= self.scratch.len();
        let mut pending = std::mem::take(&mut self.scratch);
        for e in pending.drain(..) {
            self.insert(e);
        }
        self.scratch = pending; // keep the allocation for the next cascade
    }

    /// Ensure `active` holds the next events if any are pending,
    /// advancing the cursor (and cascading upper levels) as needed.
    fn refill(&mut self) {
        while self.active.is_empty() {
            self.drain_overflow();
            if self.in_slots == 0 {
                match self.overflow.peek() {
                    // Everything left is beyond the horizon: the wheel is
                    // empty, so no cascades can be skipped — jump the
                    // cursor straight to the earliest far event.
                    Some(Reverse(e)) => {
                        self.cur_tick = e.time >> GRANULARITY_BITS;
                        continue;
                    }
                    None => return,
                }
            }
            // Scan the rest of the current level-0 revolution: slots at
            // or after the cursor's index map to ticks `cur..rev_end` in
            // increasing slot order.
            let s0 = (self.cur_tick & SLOT_MASK) as usize;
            if let Some(s) = next_set(self.occupied[0], s0) {
                self.take_slot0(s);
                continue;
            }
            // Level-0 revolution exhausted: step to the next level-1
            // tick and cascade the upper-level slots being entered
            // (level 2 first, so level-1 slots it repopulates are seen).
            self.cur_tick = (self.cur_tick | SLOT_MASK) + 1;
            let t1 = self.cur_tick >> SLOT_BITS;
            if t1 & SLOT_MASK == 0 {
                self.cascade(2, ((t1 >> SLOT_BITS) & SLOT_MASK) as usize);
            }
            self.cascade(1, (t1 & SLOT_MASK) as usize);
        }
        // A cascade at a revolution crossing re-inserts events whose tick
        // equals the advanced cursor straight into `active`, while the
        // cursor's level-0 slot may still hold events for that same tick
        // from before the crossing. The cursor never passes an occupied
        // slot, so that slot can only contain cursor-tick events — fold
        // them in so one tick never spans both stores.
        let s0 = (self.cur_tick & SLOT_MASK) as usize;
        if self.occupied[0] & (1 << s0) != 0 && !self.active.is_empty() {
            self.occupied[0] &= !(1 << s0);
            debug_assert!(self.scratch.is_empty());
            std::mem::swap(&mut self.slots[s0], &mut self.scratch);
            self.in_slots -= self.scratch.len();
            let mut pending = std::mem::take(&mut self.scratch);
            for e in pending.drain(..) {
                debug_assert_eq!(e.time >> GRANULARITY_BITS, self.cur_tick);
                let key = (e.time, e.key, e.seq);
                let pos = self
                    .active
                    .partition_point(|x| (x.time, x.key, x.seq) > key);
                self.active.insert(pos, e);
            }
            self.scratch = pending;
        }
    }

    /// Move one level-0 slot into `active` and advance the cursor to it.
    fn take_slot0(&mut self, s: usize) {
        debug_assert!(self.active.is_empty());
        debug_assert!(s >= (self.cur_tick & SLOT_MASK) as usize);
        std::mem::swap(&mut self.active, &mut self.slots[s]);
        self.occupied[0] &= !(1 << s);
        self.in_slots -= self.active.len();
        // Events in one slot share a 128 ns tick but not a timestamp.
        self.active
            .sort_unstable_by_key(|e| Reverse((e.time, e.key, e.seq)));
        self.cur_tick = (self.cur_tick & !SLOT_MASK) + s as u64;
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        self.active.last().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<EventEntry<E>> {
        self.refill();
        self.active.pop()
    }

    /// Pop the next event only when it fires at or before `limit` — one
    /// refill instead of the peek-then-pop pair.
    fn pop_before(&mut self, limit: Time) -> Option<EventEntry<E>> {
        self.refill();
        match self.active.last() {
            Some(e) if e.time <= limit => self.active.pop(),
            _ => None,
        }
    }
}

impl<E: Eq> std::fmt::Debug for Wheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wheel")
            .field("len", &self.len())
            .field("cur_tick", &self.cur_tick)
            .field("in_slots", &self.in_slots)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

/// Index of the lowest set bit at or after `from` (0-based), if any.
fn next_set(bits: u64, from: usize) -> Option<usize> {
    debug_assert!(from < 64);
    let masked = bits & (!0u64 << from);
    if masked == 0 {
        None
    } else {
        Some(masked.trailing_zeros() as usize)
    }
}

#[derive(Debug)]
enum Backend<E: Eq> {
    Heap(BinaryHeap<Reverse<EventEntry<E>>>),
    Wheel(Box<Wheel<E>>),
}

/// The simulation calendar.
///
/// `E` is the simulator's event payload type. Popping returns events in
/// nondecreasing time order; `now()` tracks the time of the last pop and
/// scheduling into the past panics in debug builds (a causality bug).
#[derive(Debug)]
pub struct EventQueue<E: Eq> {
    backend: Backend<E>,
    next_seq: u64,
    now: Time,
    pushed: u64,
    popped: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// An empty calendar at time zero, on the reference heap backend.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Heap, 0)
    }

    /// Pre-size the heap backend for an expected event population.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_kind(QueueKind::Heap, cap)
    }

    /// An empty calendar on the chosen backend.
    pub fn with_kind(kind: QueueKind, cap: usize) -> Self {
        let backend = match kind {
            QueueKind::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
            QueueKind::Wheel => Backend::Wheel(Box::new(Wheel::new())),
        };
        Self {
            backend,
            next_seq: 0,
            now: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Wheel(_) => QueueKind::Wheel,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at` with key 0 (pure
    /// insertion-order tie-breaking at equal times).
    pub fn schedule(&mut self, at: Time, event: E) {
        self.schedule_keyed(at, 0, event);
    }

    /// Schedule `event` at absolute time `at` with a content-derived
    /// priority `key`. Same-time events pop in ascending key order; the
    /// insertion sequence only breaks `(time, key)` ties. When `key` is
    /// a pure function of the event's content, the pop order becomes
    /// independent of insertion order (up to interchangeable events with
    /// identical content).
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let entry = EventEntry {
            time: at,
            key,
            seq,
            event,
        };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(entry)),
            Backend::Wheel(w) => w.insert(entry),
        }
    }

    /// Schedule `event` `delay` ns after the current time. A delay that
    /// overflows the clock is a causality bug, flagged like
    /// past-scheduling (release builds clamp to the end of time).
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        let at = match self.now.checked_add(delay) {
            Some(at) => at,
            None => {
                debug_assert!(
                    false,
                    "event delay overflows the clock: {} + {}",
                    self.now, delay
                );
                Time::MAX
            }
        };
        self.schedule(at, event);
    }

    /// Pop the next event, advancing `now`.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let entry = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse(e)| e)?,
            Backend::Wheel(w) => w.pop()?,
        };
        self.now = entry.time;
        self.popped += 1;
        Some(entry)
    }

    /// Pop the next event only when it fires at or before `limit`.
    /// Equivalent to a `peek_time` check followed by [`Self::pop`], but
    /// the run loops call it once per event, so the backends answer it
    /// with a single internal traversal.
    pub fn pop_before(&mut self, limit: Time) -> Option<EventEntry<E>> {
        let entry = match &mut self.backend {
            Backend::Heap(h) => {
                if h.peek().is_some_and(|Reverse(e)| e.time <= limit) {
                    h.pop().map(|Reverse(e)| e)?
                } else {
                    return None;
                }
            }
            Backend::Wheel(w) => w.pop_before(limit)?,
        };
        self.now = entry.time;
        self.popped += 1;
        Some(entry)
    }

    /// Timestamp of the next pending event without popping it. Takes
    /// `&mut self` because the wheel backend advances its internal
    /// cursor lazily; observable state (`now`, the pop order) is
    /// unaffected.
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse(e)| e.time),
            Backend::Wheel(w) => w.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Wheel(w) => w.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (throughput accounting).
    pub fn total_scheduled(&self) -> u64 {
        self.pushed
    }

    /// Total events ever processed.
    pub fn total_processed(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Wheel];

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(30, "c");
            q.schedule(10, "a");
            q.schedule(20, "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            for i in 0..100u32 {
                q.schedule(42, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn keys_order_same_time_events() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            // Scrambled insertion; keys must dominate the tie-break.
            q.schedule_keyed(42, 3, "d");
            q.schedule_keyed(42, 1, "b");
            q.schedule_keyed(42, 9, "e");
            q.schedule_keyed(42, 0, "a");
            q.schedule_keyed(42, 1, "c"); // equal key: insertion order
            q.schedule_keyed(50, 0, "f"); // later time beats smaller key
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, vec!["a", "b", "c", "d", "e", "f"], "{kind:?}");
        }
    }

    #[test]
    fn keyed_pop_order_is_insertion_order_independent() {
        // Distinct keys at one instant pop identically no matter which
        // order they were scheduled in.
        let mut items: Vec<(Time, u64, u32)> = (0..64u64)
            .map(|i| ((i % 4) * 10, i.wrapping_mul(0x9e37) % 97, i as u32))
            .collect();
        let forward = {
            let mut q = EventQueue::with_kind(QueueKind::Wheel, 0);
            for &(t, k, v) in &items {
                q.schedule_keyed(t, k, v);
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.key, e.event))
                .collect::<Vec<_>>()
        };
        items.reverse();
        let backward = {
            let mut q = EventQueue::with_kind(QueueKind::Heap, 0);
            for &(t, k, v) in &items {
                q.schedule_keyed(t, k, v);
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.key, e.event))
                .collect::<Vec<_>>()
        };
        // Keys here are unique per (time, key) pair, so the payloads
        // must line up exactly despite reversed insertion.
        assert_eq!(forward, backward);
    }

    #[test]
    fn now_tracks_last_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(5, ());
            q.schedule(9, ());
            assert_eq!(q.now(), 0);
            q.pop();
            assert_eq!(q.now(), 5);
            q.pop();
            assert_eq!(q.now(), 9);
        }
    }

    #[test]
    fn schedule_in_is_relative() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(100, 0u8);
            q.pop();
            q.schedule_in(50, 1u8);
            let e = q.pop().unwrap();
            assert_eq!((e.time, e.event), (150, 1));
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    #[should_panic(expected = "overflows the clock")]
    #[cfg(debug_assertions)]
    fn overflowing_delay_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule_in(Time::MAX, ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn overflowing_delay_saturates_in_release() {
        // Release builds must clamp an overflowing delay (e.g. a fault
        // event landing past the wheel horizon) to the end of time —
        // never wrap it into the past, where it would pop immediately.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(100, 0u8);
            q.pop();
            q.schedule_in(Time::MAX, 1u8);
            let e = q.pop().unwrap();
            assert_eq!((e.time, e.event), (Time::MAX, 1), "{kind:?}");
        }
    }

    #[test]
    fn counters_track_push_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(1, ());
            q.schedule(2, ());
            q.pop();
            assert_eq!(q.total_scheduled(), 2);
            assert_eq!(q.total_processed(), 1);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn pop_before_respects_limit() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(10, "a");
            q.schedule(200_000, "b");
            assert!(q.pop_before(5).is_none(), "{kind:?}");
            assert_eq!(q.pop_before(10).map(|e| e.event), Some("a"), "{kind:?}");
            assert_eq!(q.now(), 10);
            assert!(q.pop_before(100_000).is_none(), "{kind:?}");
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop_before(Time::MAX).map(|e| e.event),
                Some("b"),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn peek_does_not_advance() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(7, ());
            assert_eq!(q.peek_time(), Some(7));
            assert_eq!(q.now(), 0);
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn schedule_behind_peeked_cursor_still_pops_in_order() {
        // The runner peeks the fabric's next event time and then injects
        // host events at *earlier* timestamps; the wheel must accept
        // them behind its advanced cursor.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(100_000, "far");
            assert_eq!(q.peek_time(), Some(100_000));
            q.schedule(50, "near");
            q.schedule(100_000, "far2");
            assert_eq!(q.peek_time(), Some(50));
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, vec!["near", "far", "far2"], "{kind:?}");
        }
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        // 40 ms is past the wheel horizon (~33.5 ms); 100 s is past it
        // again after the rebase.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind, 0);
            q.schedule(100_000_000_000, "way-out");
            q.schedule(40_000_000, "far");
            q.schedule(1_000, "near");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, vec!["near", "far", "way-out"], "{kind:?}");
            assert_eq!(q.now(), 100_000_000_000);
        }
    }

    /// Drive both backends through an identical randomized interleaving
    /// of schedules, pops and peeks; every observation must match.
    fn run_equivalence(ops: &[(u8, u64)]) {
        let mut heap = EventQueue::with_kind(QueueKind::Heap, 0);
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel, 0);
        let mut tag = 0u32;
        for &(op, v) in ops {
            match op {
                // Short deltas (levels 0–1 of the wheel).
                0 => {
                    let d = v % 10_000;
                    heap.schedule_in(d, tag);
                    wheel.schedule_in(d, tag);
                    tag += 1;
                }
                // Long deltas: level 2 and the overflow heap.
                1 => {
                    let d = v % 100_000_000;
                    heap.schedule_in(d, tag);
                    wheel.schedule_in(d, tag);
                    tag += 1;
                }
                2 => {
                    let a = heap.pop().map(|e| (e.time, e.seq, e.event));
                    let b = wheel.pop().map(|e| (e.time, e.seq, e.event));
                    assert_eq!(a, b);
                }
                3 => {
                    let limit = heap.now() + v % 5_000;
                    let a = heap.pop_before(limit).map(|e| (e.time, e.seq, e.event));
                    let b = wheel.pop_before(limit).map(|e| (e.time, e.seq, e.event));
                    assert_eq!(a, b);
                }
                4 => {
                    assert_eq!(heap.peek_time(), wheel.peek_time());
                    // Scheduling right after a peek exercises the wheel's
                    // behind-the-cursor insertion path.
                    let d = v % 1_000;
                    heap.schedule_in(d, tag);
                    wheel.schedule_in(d, tag);
                    tag += 1;
                }
                _ => {
                    // Keyed schedule: clustered times force same-instant
                    // key-order resolution in both backends.
                    let at = heap.now() + v % 500;
                    let key = (v / 500) % 8;
                    heap.schedule_keyed(at, key, tag);
                    wheel.schedule_keyed(at, key, tag);
                    tag += 1;
                }
            }
            assert_eq!(heap.len(), wheel.len());
            assert_eq!(heap.now(), wheel.now());
        }
        loop {
            let a = heap.pop().map(|e| (e.time, e.seq, e.event));
            let b = wheel.pop().map(|e| (e.time, e.seq, e.event));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn wheel_matches_heap(ops in proptest::collection::vec((0u8..6, 0u64..u64::MAX), 1..300)) {
            run_equivalence(&ops);
        }
    }

    #[test]
    fn wheel_matches_heap_on_dense_bursts() {
        // A deterministic torture mix: bursts at one instant, slot-tick
        // collisions, horizon crossings, interleaved pops.
        let mut ops = Vec::new();
        for i in 0u64..2_000 {
            ops.push((0, i * 37 % 10_000));
            if i % 3 == 0 {
                ops.push((2, 0));
            }
            if i % 7 == 0 {
                ops.push((1, i * 1_048_573));
            }
            if i % 11 == 0 {
                ops.push((3, i));
                ops.push((4, i));
            }
        }
        run_equivalence(&ops);
    }
}
