//! The future-event list.
//!
//! [`EventQueue`] is a min-heap of `(time, sequence, event)` triples. The
//! sequence number makes simultaneous events pop in insertion order (stable
//! FIFO), which matters for correctness in the packet simulator: a packet
//! enqueued before another on the same link at the same instant must also
//! depart first, or per-flow ordering breaks and the TCP model sees phantom
//! reordering.
//!
//! The queue enforces monotonicity: scheduling an event before the last
//! popped time is a logic error and panics immediately rather than silently
//! corrupting causality.
//!
//! The backing store is the 4-ary [`Heap4`](crate::heap::Heap4): entry keys
//! `(time, seq)` are unique, so the pop sequence is identical to the old
//! `std::collections::BinaryHeap` backing — the swap is purely a constant-
//! factor win on the push+pop hot path.
//!
//! ## Reserved sequence numbers
//!
//! [`EventQueue::reserve_seq`] takes the next sequence number without
//! scheduling anything, and [`EventQueue::push_reserved`] later schedules an
//! event under it. An event pushed that way pops at exactly the `(time, seq)`
//! key an eager [`EventQueue::push`] at the moment of reservation would have
//! given it, so a simulator can defer an insertion (or keep one entry standing
//! in for several) without changing its pop order. The contract: the number
//! must have come from `reserve_seq` (numbers never handed out panic), each
//! reserved number is pushed at most once (keys must stay unique), and it is
//! pushed before its key would have popped.

use crate::heap::Heap4;
use crate::time::SimTime;
use std::cmp::Ordering;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // within a timestamp, lowest sequence number (FIFO) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event future-event list with a monotonic clock.
///
/// `E` is the simulator's event type — typically a small enum.
pub struct EventQueue<E> {
    heap: Heap4<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Heap4::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Heap4::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events popped so far (useful for progress reporting and for
    /// bounding run length in tests).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current clock — that would violate
    /// causality.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
    }

    /// Takes the next FIFO sequence number without scheduling anything; pass
    /// it to [`push_reserved`](Self::push_reserved) later. Every event pushed
    /// after this call ranks behind it at equal times.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at absolute time `at` under a sequence number taken
    /// earlier from [`reserve_seq`](Self::reserve_seq).
    ///
    /// # Panics
    /// Panics if `at` precedes the current clock, or if `seq` was never
    /// reserved.
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved (next is {})",
            self.next_seq
        );
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` at `now() + delay`.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.push(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned a past event");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Drops all pending events without touching the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3.0));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_after_uses_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), 0);
        q.pop();
        q.push_after(SimTime::from_secs(2.0), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), ());
        q.pop();
        q.push(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn reserved_seq_keeps_fifo_rank() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        let early = q.reserve_seq();
        q.push(t, "pushed after the reservation");
        q.push_reserved(t, early, "reserved first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["reserved first", "pushed after the reservation"]
        );
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn push_reserved_rejects_unreserved_seq() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push_reserved(SimTime::from_secs(1.0), seq + 1, ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn push_reserved_into_past_panics() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push(SimTime::from_secs(5.0), ());
        q.pop();
        q.push_reserved(SimTime::from_secs(1.0), seq, ());
    }

    /// Reserving a number and pushing under it later (but before it would
    /// pop) gives the pop order of pushing eagerly at reservation time.
    #[test]
    fn deferred_push_matches_eager_push() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from(0xE7E7);
        let mut eager = EventQueue::new();
        let mut lazy = EventQueue::new();
        // Reserved but not yet pushed in `lazy`: (time, seq, id).
        let mut held: Vec<(SimTime, u64, u32)> = Vec::new();
        let (mut eager_order, mut lazy_order) = (Vec::new(), Vec::new());
        let mut id = 0u32;
        for _ in 0..4_000 {
            match rng.index(4) {
                0 | 1 => {
                    // Coarse times so equal timestamps are common.
                    let at = eager.now() + SimTime::from_secs(rng.index(4) as f64);
                    eager.push(at, id);
                    if rng.index(2) == 0 {
                        lazy.push(at, id);
                    } else {
                        held.push((at, lazy.reserve_seq(), id));
                    }
                    id += 1;
                }
                2 => {
                    if !held.is_empty() {
                        let (at, seq, e) = held.swap_remove(rng.index(held.len()));
                        lazy.push_reserved(at, seq, e);
                    }
                }
                _ => {
                    // Before popping, release every held event whose key
                    // could be the next one out.
                    let next = eager.peek_time();
                    held.retain(|&(at, seq, e)| {
                        if Some(at) <= next {
                            lazy.push_reserved(at, seq, e);
                            false
                        } else {
                            true
                        }
                    });
                    if let Some((_, e)) = eager.pop() {
                        eager_order.push(e);
                        lazy_order.push(lazy.pop().expect("lazy queue ran dry").1);
                    }
                }
            }
        }
        for (at, seq, e) in held.drain(..) {
            lazy.push_reserved(at, seq, e);
        }
        eager_order.extend(std::iter::from_fn(|| eager.pop()).map(|(_, e)| e));
        lazy_order.extend(std::iter::from_fn(|| lazy.pop()).map(|(_, e)| e));
        assert_eq!(eager_order.len(), id as usize);
        assert_eq!(lazy_order, eager_order);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), ());
        q.pop();
        q.push(SimTime::from_secs(9.0), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_secs(1.0));
    }
}
