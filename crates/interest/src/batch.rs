//! Per-receiver update coalescing.
//!
//! What a queue entry *is* is the caller's choice (`U`). The
//! dissemination pipeline queues `u32` indices into its shared event
//! log — an event seen by two hundred receivers is stored once and
//! queued as two hundred 4-byte entries — so a push moves four bytes
//! and a flush walks a dense index array; the property suites and the
//! hand-wired reference path queue whole payloads through the same
//! code.
//!
//! A receiver's queue outlives the flush that empties it: the flush
//! visits each queue in place and clears it, so the next interval's
//! pushes land in memory that is already there instead of regrowing a
//! fresh `Vec` 0 → 4 → … → n every interval. Retained memory stays
//! bounded per receiver — a queue whose capacity exceeds four times what
//! the last two flushes used is shrunk, a queue two flushes idle is
//! released, and a departed receiver's entry is removed outright — and
//! [`UpdateBatcher::receivers`] counts only receivers that actually
//! have something queued.
//!
//! The queues sit in a hash table over the receiver id
//! ([`IdHashMap`]): a push — once per delivery, the hottest probe on the
//! event path — is one multiply-mix and one bucket, not a tree walk. The
//! table holds no order; the flush, which runs once per interval, sorts
//! the receiver keys and visits the queues in that order.

use matrix_predict::IdHashMap;
use std::hash::Hash;

/// One receiver's queue, plus how much of it the previous flush used
/// (the memory bound looks two flushes back, so one quiet interval does
/// not throw a busy receiver's capacity away).
#[derive(Debug, Clone)]
struct Queue<U> {
    items: Vec<U>,
    prev_used: usize,
}

/// Accumulates updates per receiver and releases them in batches.
///
/// Fan-out is the dominant message volume of a game server: every event
/// near a crowd produces one message per observer. Coalescing the
/// per-observer stream into one batch per flush interval replaces
/// per-update message overhead with per-batch overhead — the "adaptive
/// dissemination" lever the interest-management literature pairs with
/// relevance filtering.
///
/// The batcher is deliberately runtime-agnostic: callers decide *when* to
/// flush (the discrete-event harness flushes on simulated ticks, the
/// async runtime on its tick timer, both gated by the configured batch
/// interval) and *what* an update is. Flush order is receiver-key order
/// — established by [`UpdateBatcher::drain_each`] when it runs, not
/// stored — so it is deterministic under the simulation whatever order
/// receivers were first pushed, forgotten or re-added in.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatcher<K, U> {
    pending: IdHashMap<K, Queue<U>>,
    queued: usize,
    /// The receiver keys of one flush, sorted; kept between flushes so a
    /// steady-state flush allocates nothing for it.
    order: Vec<K>,
}

impl<K: Ord + Copy + Hash, U> UpdateBatcher<K, U> {
    /// Creates an empty batcher.
    pub fn new() -> UpdateBatcher<K, U> {
        UpdateBatcher {
            pending: IdHashMap::default(),
            queued: 0,
            order: Vec::new(),
        }
    }

    /// Queues one update for `receiver`.
    pub fn push(&mut self, receiver: K, update: U) {
        self.pending
            .entry(receiver)
            .or_insert_with(|| Queue {
                items: Vec::new(),
                prev_used: 0,
            })
            .items
            .push(update);
        self.queued += 1;
    }

    /// Total updates currently queued across all receivers.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Number of receivers with at least one queued update.
    pub fn receivers(&self) -> usize {
        self.pending
            .values()
            .filter(|q| !q.items.is_empty())
            .count()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Drops `receiver`'s queue, memory included (it disconnected or
    /// switched servers); returns how many updates were discarded.
    pub fn forget(&mut self, receiver: K) -> usize {
        let dropped = self.pending.remove(&receiver).map_or(0, |q| q.items.len());
        self.queued -= dropped;
        dropped
    }

    /// Flushes every queued batch: `visit` sees each non-empty queue in
    /// receiver order, and the queue is cleared behind it with its
    /// memory kept for the next interval. `visit` returns whether the
    /// receiver still exists; `false` removes its queue entry outright.
    ///
    /// Retained capacity is bounded on the way: a queue holding more
    /// than four times what this flush and the previous one used is
    /// shrunk to twice that, and a queue idle for two flushes in a row
    /// is released.
    pub fn drain_each(&mut self, mut visit: impl FnMut(K, &[U]) -> bool) {
        self.queued = 0;
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(self.pending.keys().copied());
        order.sort_unstable();
        for &receiver in &order {
            let queue = self
                .pending
                .get_mut(&receiver)
                .expect("key just read from the table");
            let used = queue.items.len();
            let keep = if used > 0 {
                visit(receiver, &queue.items)
            } else {
                queue.prev_used > 0
            };
            if !keep {
                self.pending.remove(&receiver);
                continue;
            }
            queue.items.clear();
            let peak = used.max(queue.prev_used);
            if queue.items.capacity() > 4 * peak {
                queue.items.shrink_to(2 * peak);
            }
            queue.prev_used = used;
        }
        self.order = order;
    }

    /// Releases every queue that holds nothing right now. Callers that
    /// re-anchor their receiver set use it so receivers that left with
    /// the old set keep no retained memory behind.
    pub fn release_idle(&mut self) {
        self.pending.retain(|_, queue| !queue.items.is_empty());
    }

    /// Queue entries held, idle ones included (the memory-bound tests'
    /// view; everything public reports non-empty queues only).
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flushes the batcher into owned batches.
    fn drain<K: Ord + Copy + Hash, U: Clone>(b: &mut UpdateBatcher<K, U>) -> Vec<(K, Vec<U>)> {
        let mut out = Vec::new();
        b.drain_each(|k, items| {
            out.push((k, items.to_vec()));
            true
        });
        out
    }

    #[test]
    fn push_drain_round_trip() {
        let mut b: UpdateBatcher<u32, &str> = UpdateBatcher::new();
        b.push(2, "b1");
        b.push(1, "a1");
        b.push(2, "b2");
        assert_eq!(b.queued(), 3);
        assert_eq!(b.receivers(), 2);
        let drained = drain(&mut b);
        assert_eq!(drained, vec![(1, vec!["a1"]), (2, vec!["b1", "b2"])]);
        assert!(b.is_empty());
        assert!(drain(&mut b).is_empty());
    }

    #[test]
    fn forget_discards_one_receiver() {
        let mut b: UpdateBatcher<u32, u8> = UpdateBatcher::new();
        b.push(1, 0);
        b.push(1, 1);
        b.push(2, 2);
        assert_eq!(b.forget(1), 2);
        assert_eq!(b.forget(1), 0);
        assert_eq!(b.queued(), 1);
        assert_eq!(drain(&mut b), vec![(2, vec![2])]);
    }

    #[test]
    fn drain_order_is_deterministic() {
        let mut b: UpdateBatcher<u32, u8> = UpdateBatcher::new();
        for k in [5u32, 3, 9, 1] {
            b.push(k, 0);
        }
        let order = |b: &mut UpdateBatcher<u32, u8>| -> Vec<u32> {
            drain(b).into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(order(&mut b), vec![1, 3, 5, 9]);
        // The order is made at flush time, so history does not show:
        // forgetting a receiver and re-adding it after later arrivals
        // (and after a flush that left retained idle queues behind) puts
        // it back in key order, not at the end.
        for k in [9u32, 5, 3, 1] {
            b.push(k, 1);
        }
        b.forget(3);
        b.push(7, 1);
        b.push(3, 2);
        b.push(2, 1);
        assert_eq!(order(&mut b), vec![1, 2, 3, 5, 7, 9]);
        b.forget(1);
        for k in [400u32, 3, 1, 77] {
            b.push(k, 3);
        }
        assert_eq!(order(&mut b), vec![1, 3, 77, 400]);
    }

    #[test]
    fn retained_queues_are_invisible_until_refilled() {
        let mut b: UpdateBatcher<u32, u8> = UpdateBatcher::new();
        b.push(1, 0);
        b.push(2, 0);
        drain(&mut b);
        assert_eq!(b.entries(), 2, "both queues keep their memory");
        assert_eq!(b.receivers(), 0);
        b.push(2, 1);
        assert_eq!(b.receivers(), 1);
        assert_eq!(
            drain(&mut b),
            vec![(2, vec![1])],
            "idle queues are not visited"
        );
    }

    #[test]
    fn a_spike_does_not_pin_its_peak_capacity() {
        let mut b: UpdateBatcher<u32, u64> = UpdateBatcher::new();
        for i in 0..500 {
            b.push(1, i);
        }
        drain(&mut b);
        assert!(
            b.pending[&1].items.capacity() >= 500,
            "kept for the next interval"
        );
        for i in 0..10 {
            b.push(1, i);
            assert_eq!(drain(&mut b), vec![(1, vec![i])]);
        }
        let cap = b.pending[&1].items.capacity();
        assert!(cap < 64, "one flash crowd pinned {cap} slots");
    }

    #[test]
    fn departed_and_idle_receivers_leave_nothing_behind() {
        let mut b: UpdateBatcher<u32, u8> = UpdateBatcher::new();
        b.push(1, 0);
        b.push(2, 0);
        b.push(3, 0);
        // Receiver 2 vanished between enqueue and flush.
        b.drain_each(|k, _| k != 2);
        assert_eq!(b.entries(), 2);
        b.forget(1);
        assert_eq!(b.entries(), 1);
        // Receiver 3 stays subscribed but falls silent: one idle flush
        // keeps its memory, the second releases it.
        b.push(9, 0);
        drain(&mut b);
        assert_eq!(b.entries(), 2);
        b.push(9, 0);
        drain(&mut b);
        assert_eq!(b.entries(), 1, "two idle flushes release the queue");
        b.release_idle();
        assert_eq!(b.entries(), 0);
    }
}
