//! Deterministic event queue for the discrete-event engine.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-break via a monotonically increasing sequence number),
//! so a simulation run is a pure function of (scenario, seed) — never of heap
//! internals or hash ordering.
//!
//! Cancellation is O(1): each scheduled event owns a slot in a generation-
//! stamped slab, and cancelling flips the slot's liveness flag; the pending
//! entry is discarded lazily when it reaches the head. A stale [`EventId`]
//! (already fired, or already cancelled) fails the generation check and the
//! cancel is a true no-op — it can never skew [`EventQueue::len`].
//!
//! # Storage
//!
//! Pending entries wait in a calendar wheel of [`DAY_NANOS`]-wide buckets
//! spanning [`WHEEL_DAYS`] days from the current clock, with a binary heap
//! for events beyond the span. Events land in their day's bucket at
//! schedule time (sorted insertion into a short vector); pop takes the
//! tail of the first non-empty bucket at-or-after `now`, so the
//! dense-timer regime the world model generates (20 ms VoIP ticks, sub-ms
//! MAC service chains, keepalives and probes) schedules and pops in O(1)
//! with no heap rebalancing on the hot path. Far-future events (call
//! teardown, sparse streams, keepalive periods beyond the span) stay in
//! the overflow heap and are compared against the wheel head at pop, so
//! sparse time distributions degrade to plain O(log n) heap behaviour.
//!
//! The pop order — global minimum `(at, seq)` — is pinned against a naive
//! reference model by a differential test below and by the model-based
//! proptest in `lib.rs`.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one calendar bucket, in nanoseconds (250 µs). Chosen so one
/// VoIP tick's burst of MAC events (service times are tens to hundreds of
/// µs) spreads over a handful of buckets instead of piling into one.
pub const DAY_NANOS: u64 = 250_000;

/// Number of buckets in the calendar wheel. Span = `DAY_NANOS *
/// WHEEL_DAYS` = 128 ms: comfortably covers the 20 ms tick cadence, the
/// 50 ms TCP timer and per-frame retry backoffs; anything further out
/// (keepalives, call teardown) waits in the overflow heap.
pub const WHEEL_DAYS: u64 = 512;

/// Words in the wheel's occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = WHEEL_DAYS as usize / 64;

/// A handle to a scheduled event, usable for cancellation.
///
/// Encodes (slot, generation); a handle outlives its event harmlessly —
/// cancelling after the event fired is a no-op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> EventId {
        EventId((slot as u64) << 32 | gen as u64)
    }

    fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// The ordering key of one pending event. Payloads live in the slab
/// (`EventQueue::events`), so the wheel and heap shuffle 24-byte keys instead
/// of full event values — sift swaps and bucket memmoves stay cheap no
/// matter how large the caller's event enum is.
#[derive(Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

// BinaryHeap is a max-heap; invert the ordering so the earliest (time, seq)
// pops first.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One slab slot: the generation of the handle it currently backs, and
/// whether that event is still due to fire. A slot is freed (and its
/// generation bumped) only when its pending entry drains, so slot indices
/// held by the wheel or the overflow heap are always valid.
#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
    live: bool,
}

/// The calendar-wheel storage: near events bucketed by "day" (a
/// [`DAY_NANOS`]-wide slice of time), far events in an overflow heap.
///
/// Invariant: since every pending event satisfies `at >= now` and events
/// are only bucketed when their day is within [`WHEEL_DAYS`] of the
/// schedule-time clock, every bucketed event's day lies in
/// `[now/DAY_NANOS, now/DAY_NANOS + WHEEL_DAYS)` — so each bucket holds
/// events of exactly one day, and a forward scan from `now`'s bucket
/// visits days in increasing order.
struct CalendarWheel {
    /// `buckets[day % WHEEL_DAYS]`, each sorted by `(at, seq)`
    /// *descending* so the bucket minimum pops from the back in O(1).
    /// Allocated lazily on first use.
    buckets: Vec<Vec<Scheduled>>,
    /// One bit per bucket: set iff the bucket is non-empty. Pop finds the
    /// next occupied bucket with a handful of word scans instead of
    /// walking up to [`WHEEL_DAYS`] empty vectors between sparse events.
    occ: [u64; OCC_WORDS],
    /// Total entries across buckets (live + lazily-cancelled).
    bucketed: usize,
    /// Events beyond the wheel span, in a min-(at, seq) heap.
    overflow: BinaryHeap<Scheduled>,
}

impl CalendarWheel {
    fn new() -> CalendarWheel {
        CalendarWheel {
            buckets: Vec::new(),
            occ: [0; OCC_WORDS],
            bucketed: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn entries(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    fn clear_occ(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// First occupied bucket in circular day order starting at `start`.
    ///
    /// The wheel invariant (every bucketed event's day lies within
    /// [`WHEEL_DAYS`] of `now`'s day) makes the circular order from
    /// `now`'s bucket exactly the increasing-day order, so the first
    /// occupied bucket found holds the wheel's earliest day.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        if self.bucketed == 0 {
            return None;
        }
        let word0 = start >> 6;
        let w = self.occ[word0] & (!0u64 << (start & 63));
        if w != 0 {
            return Some((word0 << 6) + w.trailing_zeros() as usize);
        }
        for step in 1..=OCC_WORDS {
            let wi = (word0 + step) % OCC_WORDS;
            let mut w = self.occ[wi];
            if step == OCC_WORDS {
                // Wrapped all the way back: only the bits below `start`.
                w &= !(!0u64 << (start & 63));
            }
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Store one entry: sorted-insert into its day's bucket if the day is
    /// within the wheel span of `now`, overflow heap otherwise.
    fn insert(&mut self, s: Scheduled, now: SimTime) {
        let day = s.at.as_nanos() / DAY_NANOS;
        let day0 = now.as_nanos() / DAY_NANOS;
        if day < day0 + WHEEL_DAYS {
            if self.buckets.is_empty() {
                self.buckets.resize_with(WHEEL_DAYS as usize, Vec::new);
            }
            let idx = (day % WHEEL_DAYS) as usize;
            let bucket = &mut self.buckets[idx];
            // Descending order; (at, seq) is unique, so no equal keys.
            let pos = bucket.partition_point(|e| (e.at, e.seq) > (s.at, s.seq));
            bucket.insert(pos, s);
            self.occ[idx >> 6] |= 1u64 << (idx & 63);
            self.bucketed += 1;
        } else {
            self.overflow.push(s);
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occ = [0; OCC_WORDS];
        self.bucketed = 0;
        self.overflow.clear();
    }
}

/// The wheel's live minimum: `(at, seq, bucket index)`.
type WheelHead = (SimTime, u64, usize);
/// The overflow heap's live minimum key: `(at, seq)`.
type OverflowHead = (SimTime, u64);

/// A time-ordered queue of events of type `E`.
///
/// This is the only scheduling primitive in the simulator. Higher layers
/// define their own event enums and drive a loop:
///
/// ```
/// use diversifi_simcore::{EventQueue, SimTime, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), Ev::Tick(1));
/// q.schedule(SimTime::from_millis(10), Ev::Tick(0));
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_millis(10));
/// assert_eq!(ev, Ev::Tick(0));
/// ```
pub struct EventQueue<E> {
    /// Pending entries (ordering keys only — payloads stay in `events`).
    wheel: CalendarWheel,
    slots: Vec<Slot>,
    /// Payload slab, parallel to `slots`: `events[slot]` holds the value
    /// scheduled under that slot until it pops (or its cancelled entry
    /// drains). Keeping payloads out of the wheel means heap sifts and
    /// bucket inserts move 24-byte keys, not whole event enums.
    events: Vec<Option<E>>,
    free: Vec<u32>,
    /// Pending entries whose slot was cancelled (they drain lazily).
    cancelled: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `cap` pending events, so steady-state
    /// scheduling never reallocates the slot slab.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: CalendarWheel::new(),
            slots: Vec::with_capacity(cap),
            events: Vec::with_capacity(cap),
            free: Vec::new(),
            cancelled: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Clear everything — pending events, slab, clock, sequence counter —
    /// while keeping allocated capacity. A reset queue is observationally
    /// identical to a fresh one; this is what makes queues poolable in a
    /// [`WorkerArena`](crate::WorkerArena) without breaking run-to-run
    /// determinism.
    pub fn reset(&mut self) {
        self.wheel.clear();
        self.slots.clear();
        self.events.clear();
        self.free.clear();
        self.cancelled = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.wheel.entries() - self.cancelled
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a slab slot for a new entry.
    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].live = true;
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, live: true });
                self.events.push(None);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller and panics: a
    /// discrete-event simulation that silently reorders causality produces
    /// quietly wrong results, which is worse than crashing.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduled event at {at:?} but simulation time is already {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot();
        self.events[slot as usize] = Some(event);
        self.wheel.insert(Scheduled { at, seq, slot }, self.now);
        EventId::new(slot, self.slots[slot as usize].gen)
    }

    /// Schedule `event` at `now() + delta` — the dominant caller pattern
    /// (frame service times, retry backoffs, periodic timers).
    pub fn schedule_after(&mut self, delta: SimDuration, event: E) -> EventId {
        self.schedule(self.now + delta, event)
    }

    /// Cancel a previously scheduled event. O(1): the slot is flagged dead
    /// and the pending entry is skipped when it reaches the head. Cancelling
    /// an already-fired or already-cancelled event is a true no-op (the
    /// generation check rejects stale handles).
    pub fn cancel(&mut self, id: EventId) {
        let slot = id.slot() as usize;
        if let Some(s) = self.slots.get_mut(slot) {
            if s.gen == id.gen() && s.live {
                s.live = false;
                self.cancelled += 1;
            }
        }
    }

    /// Free `slot` for reuse, invalidating all outstanding handles to it
    /// and dropping any payload still parked in the slab.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.live = false;
        self.events[slot as usize] = None;
        self.free.push(slot);
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (wheel_head, overflow_key) = self.heads();
        let from_wheel = match (wheel_head, overflow_key) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((at, seq, _)), Some(okey)) => (at, seq) < okey,
        };
        let w = &mut self.wheel;
        let s = if from_wheel {
            let (_, _, idx) = wheel_head.expect("wheel head chosen");
            w.bucketed -= 1;
            let s = w.buckets[idx].pop().expect("wheel head vanished");
            if w.buckets[idx].is_empty() {
                w.clear_occ(idx);
            }
            s
        } else {
            w.overflow.pop().expect("overflow head vanished")
        };
        let ev = self.events[s.slot as usize].take();
        self.release(s.slot);
        crate::sim_assert!(
            s.at >= self.now,
            "event queue produced time travel: popped {:?} with clock at {:?}",
            s.at,
            self.now
        );
        self.now = s.at;
        Some((s.at, ev.expect("live entry has payload")))
    }

    /// Find the wheel's live minimum `(at, seq, bucket)`, draining dead
    /// tails (and overflow-heap heads) along the way.
    ///
    /// The occupancy bitmap jumps straight to the next non-empty bucket
    /// at-or-after `now`'s, so the scan cost is a few word operations
    /// rather than a walk over empty days. Each bucket holds one day's
    /// events sorted descending, so the first live tail found is the
    /// wheel minimum.
    fn heads(&mut self) -> (Option<WheelHead>, Option<OverflowHead>) {
        let EventQueue { wheel: w, slots, events, free, cancelled, now, .. } = self;
        let start = ((now.as_nanos() / DAY_NANOS) % WHEEL_DAYS) as usize;
        let mut wheel_head = None;
        'scan: while let Some(idx) = w.next_occupied(start) {
            loop {
                let Some(tail) = w.buckets[idx].last() else {
                    w.clear_occ(idx);
                    continue 'scan;
                };
                if slots[tail.slot as usize].live {
                    wheel_head = Some((tail.at, tail.seq, idx));
                    break 'scan;
                }
                let dead = w.buckets[idx].pop().expect("tail vanished");
                w.bucketed -= 1;
                *cancelled -= 1;
                let slot = &mut slots[dead.slot as usize];
                slot.gen = slot.gen.wrapping_add(1);
                events[dead.slot as usize] = None;
                free.push(dead.slot);
            }
        }
        // Overflow head: drain dead entries off the heap top.
        while let Some(head) = w.overflow.peek() {
            if slots[head.slot as usize].live {
                break;
            }
            let dead = w.overflow.pop().expect("peeked entry vanished");
            *cancelled -= 1;
            let slot = &mut slots[dead.slot as usize];
            slot.gen = slot.gen.wrapping_add(1);
            events[dead.slot as usize] = None;
            free.push(dead.slot);
        }
        (wheel_head, w.overflow.peek().map(|h| (h.at, h.seq)))
    }

    /// Timestamp of the earliest pending event without popping it.
    ///
    /// Cancelled entries at the head are drained as they are discovered,
    /// so repeated peeks stay cheap.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Same head selection as `pop`, without removal.
        let (wheel_head, overflow_key) = self.heads();
        match (wheel_head.map(|(at, seq, _)| (at, seq)), overflow_key) {
            (None, None) => None,
            (Some((at, _)), None) => Some(at),
            (None, Some((at, _))) => Some(at),
            (Some(wkey), Some(okey)) => Some(wkey.min(okey).0),
        }
    }
}

impl<E: 'static> crate::arena::Recycle for EventQueue<E> {
    fn fresh() -> Self {
        EventQueue::new()
    }
    fn recycle(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq, Clone, Copy)]
    struct Tag(u32);

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), Tag(3));
        q.schedule(SimTime::from_millis(10), Tag(1));
        q.schedule(SimTime::from_millis(20), Tag(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, Tag(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), Tag(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduled event at")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        q.pop();
        q.schedule(SimTime::from_millis(5), Tag(1));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        q.schedule(SimTime::from_millis(2), Tag(2));
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Tag(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        assert_eq!(q.pop().unwrap().1, Tag(1));
        q.cancel(a); // must not affect later events
        q.schedule(SimTime::from_millis(2), Tag(2));
        assert_eq!(q.pop().unwrap().1, Tag(2));
    }

    #[test]
    fn cancel_after_fire_keeps_len_consistent() {
        // Regression: cancelling fired events used to insert tombstones
        // that never drained, permanently skewing len()/is_empty() and
        // eventually underflowing the length arithmetic.
        let mut q = EventQueue::new();
        let ids: Vec<_> =
            (0..8).map(|i| q.schedule(SimTime::from_millis(i), Tag(i as u32))).collect();
        for _ in 0..8 {
            q.pop().unwrap();
        }
        assert!(q.is_empty());
        for id in &ids {
            q.cancel(*id); // all stale — every one must be a no-op
        }
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(100), Tag(42));
        assert_eq!(q.len(), 1, "stale cancels must not offset live counts");
        assert_eq!(q.pop().unwrap().1, Tag(42));
    }

    #[test]
    fn double_cancel_counted_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        q.schedule(SimTime::from_millis(2), Tag(2));
        q.cancel(a);
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Tag(2));
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        // After an event fires its slot is recycled; the old handle's
        // generation no longer matches and must not kill the new tenant.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        q.pop().unwrap();
        let _b = q.schedule(SimTime::from_millis(2), Tag(2)); // reuses a's slot
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Tag(2), "stale cancel must not hit reused slot");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        q.schedule(SimTime::from_millis(3), Tag(3));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn peek_time_drains_cancelled_head_and_preserves_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        let b = q.schedule(SimTime::from_millis(2), Tag(2));
        q.schedule(SimTime::from_millis(3), Tag(3));
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Tag(3));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        q.pop().unwrap();
        q.schedule_after(SimDuration::from_millis(20), Tag(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(30));
    }

    #[test]
    fn schedule_after_is_cancellable_and_fifo() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(SimDuration::from_millis(5), Tag(1));
        q.schedule_after(SimDuration::from_millis(5), Tag(2));
        q.cancel(a);
        assert_eq!(q.pop().unwrap().1, Tag(2));
    }

    #[test]
    fn relative_scheduling_pattern() {
        // The common caller pattern: schedule "now + d".
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        let (now, _) = q.pop().unwrap();
        q.schedule(now + SimDuration::from_millis(20), Tag(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(30));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_millis(i), Tag(i as u32)))
            .collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for i in 0..32u32 {
            a.schedule(SimTime::from_millis((i % 7) as u64), Tag(i));
            b.schedule(SimTime::from_millis((i % 7) as u64), Tag(i));
        }
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    // The `both_backends_*` tests pin both storage tiers: near events in
    // the wheel's buckets, far events in its overflow heap.
    #[test]
    fn both_backends_pop_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), Tag(3));
        q.schedule(SimTime::from_millis(10), Tag(1));
        q.schedule(SimTime::from_millis(10), Tag(2));
        // Far beyond the calendar wheel span — lands in overflow.
        q.schedule(SimTime::from_secs(300), Tag(9));
        q.schedule(SimTime::from_millis(20), Tag(4));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, vec![1, 2, 4, 3, 9]);
    }

    #[test]
    fn both_backends_cancel_and_peek() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        let b = q.schedule(SimTime::from_secs(200), Tag(2)); // overflow
        q.schedule(SimTime::from_millis(3), Tag(3));
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.pop().unwrap().1, Tag(3));
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled event at")]
    fn calendar_scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        q.pop();
        q.schedule(SimTime::from_millis(5), Tag(1));
    }

    #[test]
    fn calendar_stale_handle_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), Tag(1));
        q.pop().unwrap();
        let _b = q.schedule(SimTime::from_millis(2), Tag(2)); // reuses a's slot
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Tag(2));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut q: EventQueue<Tag> = EventQueue::new();
        q.schedule(SimTime::from_millis(5), Tag(1));
        q.schedule(SimTime::from_secs(500), Tag(2));
        q.pop().unwrap();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // Sequence counter and slab restart from scratch: a reset queue
        // behaves exactly like a fresh one.
        q.schedule(SimTime::from_millis(1), Tag(7));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), Tag(7))));
    }

    /// The differential test: randomized schedule/cancel/pop/peek
    /// interleavings — dense (timer-regime, mostly wheel buckets) and
    /// sparse (keepalive-regime, mostly overflow heap) time distributions
    /// — must produce the same pop sequences, lengths and peeks as a naive
    /// reference that scans a plain list for the minimum `(at, seq)`.
    #[test]
    fn heap_and_calendar_pop_order_is_identical() {
        for dense in [true, false] {
            // Deterministic xorshift so the test needs no external RNG.
            let mut state = 0xDEADBEEFCAFEu64 ^ (dense as u64);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut q = EventQueue::new();
            // Reference: live `(at, seq, tag)` entries plus each handle's seq.
            let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut handles: Vec<(EventId, u64)> = Vec::new();
            let mut seq = 0u64;
            let model_min = |m: &Vec<(SimTime, u64, u32)>| {
                (0..m.len()).min_by_key(|&i| (m[i].0, m[i].1))
            };
            for round in 0..2_000u32 {
                match next() % 5 {
                    0..=2 => {
                        // Dense: sub-wheel-span deltas clustering like the
                        // VoIP tick burst. Sparse: up to 10 s, mostly
                        // overflow territory.
                        let delta = if dense {
                            SimDuration::from_nanos(next() % 30_000_000)
                        } else {
                            SimDuration::from_nanos(next() % 10_000_000_000)
                        };
                        let at = q.now() + delta;
                        handles.push((q.schedule(at, Tag(round)), seq));
                        model.push((at, seq, round));
                        seq += 1;
                    }
                    3 => {
                        if !handles.is_empty() {
                            let k = (next() as usize) % handles.len();
                            let (id, s) = handles.swap_remove(k);
                            q.cancel(id);
                            model.retain(|e| e.1 != s);
                        }
                    }
                    _ => {
                        let want = model_min(&model).map(|i| model.swap_remove(i));
                        let got = q.pop();
                        assert_eq!(got, want.map(|(at, _, tag)| (at, Tag(tag))), "dense={dense}");
                        assert_eq!(q.len(), model.len(), "dense={dense}");
                    }
                }
                if next() % 7 == 0 {
                    let want = model_min(&model).map(|i| model[i].0);
                    assert_eq!(q.peek_time(), want, "dense={dense}");
                    assert_eq!(q.len(), model.len(), "dense={dense}");
                }
            }
            while let Some(i) = model_min(&model) {
                let (at, _, tag) = model.swap_remove(i);
                assert_eq!(q.pop(), Some((at, Tag(tag))), "dense={dense}");
            }
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        // Schedule/cancel/pop interleaving with slot reuse; len must track
        // exactly and ordering must hold throughout.
        let mut q = EventQueue::new();
        let mut live = std::collections::VecDeque::new();
        let mut expect_len = 0usize;
        for round in 0u64..200 {
            let id = q.schedule(SimTime::from_millis(round / 2 + 1), Tag(round as u32));
            live.push_back(id);
            expect_len += 1;
            if round % 3 == 0 {
                if let Some(id) = live.pop_front() {
                    q.cancel(id);
                    expect_len -= 1;
                }
            }
            if round % 5 == 0 && expect_len > 0 {
                // The earliest (time, seq) pending event is the oldest live
                // one: times are non-decreasing in schedule order here.
                let popped = q.pop();
                assert!(popped.is_some());
                expect_len -= 1;
                live.pop_front();
            }
            assert_eq!(q.len(), expect_len, "round {round}");
        }
    }
}
