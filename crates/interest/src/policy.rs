//! Priority-aware per-flush rate limiting.
//!
//! Coalescing bounds message *count*; it does not bound message *size*.
//! A client parked inside a dense crowd accumulates hundreds of relevant
//! events per flush interval, and shipping all of them either saturates
//! the downlink or queues unboundedly. [`FlushPolicy`] is the standard
//! graceful-degradation answer: rank the pending items by relevance to
//! the receiving client and deliver the best prefix that fits the
//! configured budgets, merging or dropping the least relevant (farthest)
//! items first. Dropped items are not lost state — the next flush
//! re-describes whatever is still relevant — so a budgeted client sees a
//! slightly staler periphery instead of a growing queue.
//!
//! Ranking only pays if it costs less than the traffic it sheds, and the
//! receivers that need it most are exactly the ones with the longest
//! queues. [`FlushPolicy::select`] therefore never moves an item: it
//! ranks one `u64` key per item over the borrowed queue — the high half
//! of the distance's bits above the arrival index, a plain integer sort,
//! then one linear pass re-sorts the rare runs of tied high halves by
//! their full distances — merges by compacting that key array, and
//! leaves the surviving *indices* in a reusable [`PolicyScratch`], no
//! per-receiver allocation once it has grown to the largest queue. What
//! the queue holds is the caller's business: the dissemination pipeline
//! hands it 4-byte indices into its shared event log and projections
//! that read through them.
//!
//! Per-entity superseding happens before any key exists: one pass over
//! the queue from its newest item to its oldest, asking a small
//! open-addressed set whether this `(entity, size)` has been seen. The
//! first sighting is the newest update and gets a key; every later one
//! is superseded and costs neither a distance nor a place in the sort.
//! The set is stamped rather than cleared — a slot belongs to the
//! current call only if it carries the call's stamp — so a flush's
//! thousand receivers share one table without a thousand wipes.

use matrix_geometry::{Metric, Point};
use matrix_predict::mix64;

/// Entity id marking an item as anonymous: no per-entity superseding is
/// applied to it (only the exact-duplicate-origin merge).
pub const ANON_ENTITY: u64 = 0;

/// Per-client, per-flush delivery budgets.
///
/// Both limits are *off* at `0`. When either is exceeded the flush is
/// degraded in relevance order: items are sorted nearest-first (ties
/// keep arrival order), exact-duplicate origins are merged down to their
/// most recent item, and the farthest items are dropped until the flush
/// fits. At least one item is always delivered, so no client starves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushPolicy {
    /// Maximum items per client per flush (`0` = unlimited).
    pub max_items: usize,
    /// Maximum estimated wire bytes per client per flush
    /// (`0` = unlimited). Estimated against the caller's `size_of`.
    pub budget_bytes: usize,
}

/// Reusable working memory of [`FlushPolicy::select`], and the place its
/// result lands: after a call, [`PolicyScratch::kept`] yields the
/// indices of the items to deliver, most relevant first. One scratch
/// serves any number of receivers and flushes; it only ever grows to the
/// longest queue it has ranked.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    /// One [`rank_key`] per item still in the running; the arrival
    /// index in the low half makes each key unique, so an unstable sort
    /// is deterministic and equals the stable order.
    ranked: Vec<u64>,
    /// The `(entity, size)` pairs a degraded flush has met so far on
    /// its way from the newest item to the oldest.
    seen: SeenSet,
}

/// One slot of [`SeenSet`]: occupied in the current call iff `stamp`
/// equals the set's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    entity: u64,
    size: usize,
}

/// An open-addressed (linear probing) set of `(entity, size)` pairs that
/// is emptied by bumping a stamp instead of touching its slots. The
/// table is a power of two at most half full, and only ever grows.
#[derive(Debug, Clone, Default)]
struct SeenSet {
    slots: Vec<Slot>,
    /// The current call's stamp; never `0`, which marks a slot no call
    /// has used.
    stamp: u32,
}

impl SeenSet {
    /// Empties the set and makes room for `n` insertions.
    fn begin(&mut self, n: usize) {
        let want = (2 * n).next_power_of_two().max(16);
        if self.slots.len() < want {
            self.slots.clear();
            self.slots.resize(want, Slot::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: a slot stamped 2³² calls ago would read as
            // current. Wipe once, start over.
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }

    /// Adds the pair; `true` if it was not in the set yet.
    fn insert(&mut self, entity: u64, size: usize) -> bool {
        let mask = self.slots.len() - 1;
        let mut at = mix64(entity ^ (size as u64).rotate_left(32)) as usize & mask;
        loop {
            let slot = &mut self.slots[at];
            if slot.stamp != self.stamp {
                *slot = Slot {
                    stamp: self.stamp,
                    entity,
                    size,
                };
                return true;
            }
            if slot.entity == entity && slot.size == size {
                return false;
            }
            at = (at + 1) & mask;
        }
    }
}

/// The distance half of a [`rank_key`].
const HIGH: u64 = !(u32::MAX as u64);

/// A distance's bit pattern, which orders as the distance does: a
/// non-negative, non-NaN `f64` orders by its bits as it orders by value.
#[inline]
fn distance_bits(distance: f64) -> u64 {
    debug_assert!(
        distance >= 0.0,
        "distances are non-negative and never NaN, got {distance}"
    );
    // `+ 0.0` turns a `-0.0` (equal to `0.0`, but with the sign bit
    // set) into `+0.0`; every other value is unchanged.
    (distance + 0.0).to_bits()
}

/// The ranking key of the item that arrived `index`-th at `distance`
/// from the viewer: the high 32 bits of [`distance_bits`] above the
/// arrival index. Truncating keeps the distance order, not strictly:
/// keys compare as `(high half, index)`, and `select`'s tie pass
/// finishes on the full bits.
#[inline]
fn rank_key(distance: f64, index: usize) -> u64 {
    (distance_bits(distance) & HIGH) | index as u32 as u64
}

/// The arrival-index half of a [`rank_key`].
#[inline]
fn key_index(key: u64) -> usize {
    key as u32 as usize
}

impl PolicyScratch {
    /// Indices (into the slice last passed to [`FlushPolicy::select`])
    /// of the items to deliver, most relevant (nearest) first.
    pub fn kept(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.ranked.iter().map(|&key| key_index(key))
    }
}

impl FlushPolicy {
    /// A policy with both limits off.
    pub fn unlimited() -> FlushPolicy {
        FlushPolicy::default()
    }

    /// Orders `items` (in arrival order) by relevance to a viewer at
    /// `viewer` — nearest first, ties in arrival order — and enforces
    /// the budgets, merging/dropping the farthest items first. The
    /// survivors' indices land in `scratch` ([`PolicyScratch::kept`]);
    /// the return value is how many items were merged away or dropped.
    ///
    /// `origin_of`, `entity_of` and `size_of` project an item's
    /// position, source entity and estimated wire cost; the policy
    /// stays generic over the payload type so drivers and tests can
    /// reuse it. Pass [`ANON_ENTITY`] from `entity_of` to opt an item
    /// out of per-entity superseding. Panics on more than `u32::MAX`
    /// items (a key carries a 32-bit arrival index).
    #[allow(clippy::too_many_arguments)] // three projections + the scratch, by design
    pub fn select<U>(
        &self,
        viewer: Point,
        metric: Metric,
        origin_of: impl Fn(&U) -> Point,
        entity_of: impl Fn(&U) -> u64,
        size_of: impl Fn(&U) -> usize,
        items: &[U],
        scratch: &mut PolicyScratch,
    ) -> usize {
        assert!(items.len() <= u32::MAX as usize, "over u32::MAX items");
        let PolicyScratch { ranked, seen } = scratch;
        ranked.clear();
        let distance_of = |i: usize| origin_of(&items[i]).distance_by(viewer, metric);
        let key_of = |i| rank_key(distance_of(i), i);

        let over_count = self.max_items > 0 && items.len() > self.max_items;
        let over_bytes =
            self.budget_bytes > 0 && items.iter().map(&size_of).sum::<usize>() > self.budget_bytes;
        let degraded = over_count || over_bytes;
        if degraded {
            // Supersede per entity: repeated same-sized updates from one
            // moving entity inside a flush interval re-describe the same
            // state, so only the newest needs to ship once the flush is
            // degraded. Size-equality keeps distinct events (an action
            // with a different payload) from merging with position
            // updates, since items carry no finer type information here.
            // Newest first, so the first sighting of an `(entity, size)`
            // is the one to keep. Superseded items never get a key, so
            // they cost neither a distance nor a place in the sort (which
            // orders the keys whatever order they were pushed in).
            seen.begin(items.len());
            for (i, u) in items.iter().enumerate().rev() {
                let entity = entity_of(u);
                if entity == ANON_ENTITY || seen.insert(entity, size_of(u)) {
                    ranked.push(key_of(i));
                }
            }
        } else {
            ranked.extend((0..items.len()).map(key_of));
        }
        // Relevance order: distance, then arrival — one integer compare
        // per pair. Then, only if some neighbours' high halves tie (a
        // branch-free scan, cheap on the short queues most receivers
        // have), re-sort each tied run by full distance bits,
        // recomputed: such runs are rare.
        ranked.sort_unstable();
        if ranked
            .windows(2)
            .fold(false, |tied, w| tied | ((w[0] ^ w[1]) & HIGH == 0))
        {
            for run in ranked.chunk_by_mut(|a, b| (a ^ b) & HIGH == 0) {
                run.sort_unstable_by_key(|&key| (distance_bits(distance_of(key_index(key))), key));
            }
        }

        if degraded {
            // Merge exact-duplicate origins down to the most recent item:
            // repeated events from one point inside a single flush
            // interval supersede each other once the flush is degraded.
            // Same origin sorts adjacently (equal distance, arrival
            // order), so compacting in place keeps the newest. Equal
            // origins have equal distances: the high halves filter.
            ranked.dedup_by(|key, prev| {
                let same = (*key ^ *prev) & HIGH == 0
                    && origin_of(&items[key_index(*key)]) == origin_of(&items[key_index(*prev)]);
                if same {
                    *prev = *key;
                }
                same
            });
            // Deliver the nearest prefix that fits both budgets (never
            // fewer than one item). An undegraded flush fits whole by
            // definition.
            if self.max_items > 0 {
                ranked.truncate(self.max_items);
            }
            if self.budget_bytes > 0 {
                let mut bytes = 0;
                let fits = ranked.iter().enumerate().take_while(|&(n, &key)| {
                    bytes += size_of(&items[key_index(key)]);
                    n == 0 || bytes <= self.budget_bytes
                });
                ranked.truncate(fits.count());
            }
        }
        items.len() - ranked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a caller gathers from one `select`.
    struct Selection<U> {
        kept: Vec<U>,
        dropped: usize,
    }

    fn select_by<U: Copy>(
        policy: FlushPolicy,
        viewer: Point,
        origin_of: impl Fn(&U) -> Point,
        entity_of: impl Fn(&U) -> u64,
        size_of: impl Fn(&U) -> usize,
        items: Vec<U>,
    ) -> Selection<U> {
        let mut scratch = PolicyScratch::default();
        let dropped = policy.select(
            viewer,
            Metric::Euclidean,
            origin_of,
            entity_of,
            size_of,
            &items,
            &mut scratch,
        );
        Selection {
            kept: scratch.kept().map(|i| items[i]).collect(),
            dropped,
        }
    }

    fn item(x: f64, y: f64, bytes: usize) -> (Point, usize) {
        (Point::new(x, y), bytes)
    }

    fn select(
        policy: FlushPolicy,
        viewer: Point,
        items: Vec<(Point, usize)>,
    ) -> Selection<(Point, usize)> {
        select_by(policy, viewer, |u| u.0, |_| ANON_ENTITY, |u| u.1, items)
    }

    #[test]
    fn unlimited_policy_keeps_everything_sorted_by_distance() {
        let viewer = Point::new(0.0, 0.0);
        let items = vec![item(30.0, 0.0, 8), item(10.0, 0.0, 8), item(20.0, 0.0, 8)];
        let sel = select(FlushPolicy::unlimited(), viewer, items);
        assert_eq!(sel.dropped, 0);
        let xs: Vec<f64> = sel.kept.iter().map(|u| u.0.x).collect();
        assert_eq!(xs, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn count_cap_drops_the_farthest() {
        let viewer = Point::new(0.0, 0.0);
        let items = vec![item(40.0, 0.0, 8), item(10.0, 0.0, 8), item(20.0, 0.0, 8)];
        let sel = select(
            FlushPolicy {
                max_items: 2,
                budget_bytes: 0,
            },
            viewer,
            items,
        );
        assert_eq!(sel.dropped, 1);
        let xs: Vec<f64> = sel.kept.iter().map(|u| u.0.x).collect();
        assert_eq!(xs, vec![10.0, 20.0], "the 40-unit item goes first");
    }

    #[test]
    fn byte_budget_limits_the_flush_but_never_starves() {
        let viewer = Point::new(0.0, 0.0);
        let items = vec![item(10.0, 0.0, 100), item(20.0, 0.0, 100)];
        let sel = select(
            FlushPolicy {
                max_items: 0,
                budget_bytes: 150,
            },
            viewer,
            items,
        );
        assert_eq!(sel.kept.len(), 1);
        assert_eq!(sel.dropped, 1);
        // A single oversized item still goes out.
        let sel = select(
            FlushPolicy {
                max_items: 0,
                budget_bytes: 10,
            },
            viewer,
            vec![item(5.0, 0.0, 100)],
        );
        assert_eq!(sel.kept.len(), 1);
    }

    #[test]
    fn duplicate_origins_merge_to_most_recent_under_pressure() {
        let viewer = Point::new(0.0, 0.0);
        // Three events from the same point (payloads mark arrival order),
        // plus one farther event; cap forces degradation.
        let items = vec![
            item(10.0, 0.0, 1),
            item(10.0, 0.0, 2),
            item(10.0, 0.0, 3),
            item(50.0, 0.0, 9),
        ];
        let sel = select(
            FlushPolicy {
                max_items: 2,
                budget_bytes: 0,
            },
            viewer,
            items,
        );
        assert_eq!(sel.kept.len(), 2);
        assert_eq!(sel.kept[0].1, 3, "merged to the newest duplicate");
        assert_eq!(sel.kept[1].0.x, 50.0, "merging freed room for the far item");
        assert_eq!(sel.dropped, 2);
    }

    #[test]
    fn entity_updates_supersede_under_pressure() {
        // Items: (origin, bytes, entity). Entity 7 walks away from the
        // viewer; its three position updates are superseded states, so
        // only the newest survives degradation even though the origins
        // differ. The anonymous item and the different-sized item from
        // the same entity (an action, not a position update) survive.
        let viewer = Point::new(0.0, 0.0);
        let items: Vec<(Point, usize, u64)> = vec![
            (Point::new(10.0, 0.0), 8, 7),
            (Point::new(12.0, 0.0), 8, 7),
            (Point::new(14.0, 0.0), 8, 7),
            (Point::new(13.0, 0.0), 64, 7), // action payload: kept apart
            (Point::new(30.0, 0.0), 8, ANON_ENTITY),
        ];
        let policy = FlushPolicy {
            max_items: 3,
            budget_bytes: 0,
        };
        let sel = select_by(policy, viewer, |u| u.0, |u| u.2, |u| u.1, items);
        assert_eq!(sel.dropped, 2);
        let kept: Vec<(f64, usize)> = sel.kept.iter().map(|u| (u.0.x, u.1)).collect();
        assert_eq!(
            kept,
            vec![(13.0, 64), (14.0, 8), (30.0, 8)],
            "newest position per entity, the action, and the anonymous item"
        );
    }

    #[test]
    fn supersede_stamp_survives_its_wrap_around() {
        // Items: (origin, bytes, entity); three entities, two sizes,
        // every pair repeated, so each call supersedes.
        let items: Vec<(Point, usize, u64)> = (0..24u64)
            .map(|i| {
                let size = if i % 2 == 0 { 32 } else { 64 };
                (Point::new(1.0 + i as f64, 0.0), size, 1 + i % 3)
            })
            .collect();
        let policy = FlushPolicy {
            max_items: 5,
            budget_bytes: 0,
        };
        let run = |scratch: &mut PolicyScratch| {
            let dropped = policy.select(
                Point::new(0.0, 0.0),
                Metric::Euclidean,
                |u: &(Point, usize, u64)| u.0,
                |u| u.2,
                |u| u.1,
                &items,
                scratch,
            );
            (scratch.kept().collect::<Vec<usize>>(), dropped)
        };
        let expected = run(&mut PolicyScratch::default());
        assert_eq!(expected, (vec![18, 19, 20, 21, 22], 19));
        // A long-lived scratch whose stamp is about to wrap: slots
        // written just before the wrap carry stamps the counter will
        // reach again, and must not read as "seen".
        let mut scratch = PolicyScratch::default();
        run(&mut scratch);
        scratch.seen.stamp = u32::MAX - 2;
        for call in 0..6 {
            assert_eq!(run(&mut scratch), expected, "call {call} across the wrap");
            assert_ne!(scratch.seen.stamp, 0, "0 marks a never-used slot");
        }
        assert!(scratch.seen.stamp < 8, "the stamp wrapped and restarted");
    }

    #[test]
    fn integer_rank_keys_order_exactly_like_distance_then_arrival() {
        // `select` over `origins` (in arrival order) must keep them in
        // the order of the comparator the keys replaced, distance then
        // arrival: in full, and cut to all but one (a degraded flush).
        let mut scratch = PolicyScratch::default();
        let mut check = |viewer: Point, metric: Metric, origins: &[Point]| {
            let mut want: Vec<(f64, usize)> = origins
                .iter()
                .enumerate()
                .map(|(i, p)| (p.distance_by(viewer, metric), i))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<usize> = want.into_iter().map(|(_, i)| i).collect();
            for max_items in [0, origins.len() - 1] {
                let policy = FlushPolicy {
                    max_items,
                    budget_bytes: 0,
                };
                let dropped = policy.select(
                    viewer,
                    metric,
                    |p: &Point| *p,
                    |_| ANON_ENTITY,
                    |_| 8,
                    origins,
                    &mut scratch,
                );
                let kept = if max_items == 0 {
                    want.len()
                } else {
                    max_items
                };
                assert_eq!(dropped, want.len() - kept);
                assert_eq!(
                    scratch.kept().collect::<Vec<_>>(),
                    want[..kept],
                    "{metric:?} from {viewer:?}, max_items {max_items}"
                );
            }
        };
        let metrics = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];
        let origin = Point::new(0.0, 0.0);
        // Each distance reached along all four half-axes (equal
        // distances, distinct origins), arriving farthest first, so
        // arrival inverts distance and breaks the ties alone.
        let along_axes = |distances: &[f64]| -> Vec<Point> {
            let mut far_first = distances.to_vec();
            far_first.sort_by(|a, b| b.total_cmp(a));
            far_first
                .iter()
                .flat_map(|&d| {
                    if d == 0.0 {
                        vec![origin]
                    } else {
                        vec![
                            Point::new(d, 0.0),
                            Point::new(0.0, d),
                            Point::new(-d, 0.0),
                            Point::new(0.0, -d),
                        ]
                    }
                })
                .collect()
        };
        let distances = [
            0.0,
            5e-324, // the smallest subnormal
            2.2e-308,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1e154,
            f64::MAX,
            f64::INFINITY,
        ];
        // Distances that share their high 32 bits and differ below:
        // there the keys tie and the tie pass alone orders them.
        let twins = [
            5e-324,
            1e-323,
            1.5e-323,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 2.0 * f64::EPSILON,
            1.0 + 3.0 * f64::EPSILON,
        ];
        for metric in metrics {
            check(origin, metric, &along_axes(&distances));
            let origins = along_axes(&twins);
            let tied_high = origins.iter().any(|a| {
                origins.iter().any(|b| {
                    let (da, db) = (a.distance_by(origin, metric), b.distance_by(origin, metric));
                    da != db && da.to_bits() >> 32 == db.to_bits() >> 32
                })
            });
            assert!(
                tied_high,
                "{metric:?}: some distances tie on the high half only"
            );
            check(origin, metric, &origins);
        }
        // What `distance_by` really feeds the keys, over coordinates
        // that underflow, cancel exactly and overflow.
        let coords = [
            0.0,
            5e-324,
            -5e-324,
            1e-160,
            1.0,
            -1.0,
            3.0,
            1e154,
            -1e300,
            f64::MAX,
        ];
        let points: Vec<Point> = coords
            .iter()
            .flat_map(|&x| coords.iter().map(move |&y| Point::new(x, y)))
            .collect();
        for metric in metrics {
            for viewer in [origin, Point::new(1.0, -1.0), Point::new(f64::MAX, 3.0)] {
                check(viewer, metric, &points);
            }
        }
        // No distance is `-0.0`; were one to appear it must rank as the
        // `0.0` it equals, not by its sign bit.
        assert_eq!(rank_key(-0.0, 3), rank_key(0.0, 3));
    }

    #[test]
    fn without_pressure_entity_history_is_preserved() {
        let viewer = Point::new(0.0, 0.0);
        let items: Vec<(Point, usize, u64)> =
            vec![(Point::new(10.0, 0.0), 8, 7), (Point::new(12.0, 0.0), 8, 7)];
        let sel = select_by(
            FlushPolicy::unlimited(),
            viewer,
            |u| u.0,
            |u| u.2,
            |u| u.1,
            items,
        );
        assert_eq!(sel.kept.len(), 2, "no budget pressure, no superseding");
    }

    #[test]
    fn without_pressure_duplicates_are_preserved() {
        let viewer = Point::new(0.0, 0.0);
        let items = vec![item(10.0, 0.0, 1), item(10.0, 0.0, 2)];
        let sel = select(FlushPolicy::unlimited(), viewer, items);
        assert_eq!(sel.kept.len(), 2, "two shots are two events");
    }
}
