//! The incremental spatial-hash client grid.

use crate::rings::RingSet;
use matrix_geometry::{Metric, Point, Rect};
use matrix_predict::IdHashMap;
use std::hash::Hash;

#[derive(Debug, Clone, Copy)]
struct Entry {
    cell: u32,
    /// Index of the key inside its cell's bucket, so removal is O(1)
    /// swap-remove instead of a bucket scan.
    slot: u32,
}

/// An incremental spatial-hash grid over subscriber positions.
///
/// The world is covered by a `cells_per_axis × cells_per_axis` uniform
/// grid; each cell holds the keys currently inside it. Positions outside
/// the bounds clamp into the edge cells, so the grid never loses a
/// subscriber — roaming clients just degrade the edge cells slightly.
///
/// Radius queries scan only the cells intersecting the query ball's
/// bounding box and then apply the exact metric test, so the result is
/// **identical** to a brute-force scan over all subscribers (a property
/// test in `tests/interest_properties.rs` pins this down, boundary points
/// included).
///
/// # Hysteresis
///
/// With [`InterestGrid::with_hysteresis`], a subscriber only changes
/// cells once its position is more than the hysteresis margin away from
/// its *current* cell — a crowd jittering on a cell boundary stays put
/// instead of bouncing between buckets every move. Stored positions are
/// always exact; queries compensate by widening the scanned cell range by
/// the margin, so hysteresis never changes query results, only how often
/// buckets are edited.
#[derive(Debug, Clone)]
pub struct InterestGrid<K> {
    bounds: Rect,
    cells_per_axis: u32,
    cell_w: f64,
    cell_h: f64,
    hysteresis: f64,
    /// Buckets are struct-of-arrays: the query hot path scans the dense
    /// `positions` array (same memory shape as a brute-force scan over a
    /// position vector) and touches `keys` only for actual matches.
    cells: Vec<CellBucket<K>>,
    index: IdHashMap<K, Entry>,
}

/// Smallest bucket `query_tiered` bounds as a whole: below this, the
/// rectangle clamp, corner distance and two `ring_of` calls cost more
/// than testing the members one by one.
const MIN_BOUNDED_BUCKET: usize = 4;

#[derive(Debug, Clone)]
struct CellBucket<K> {
    keys: Vec<K>,
    positions: Vec<Point>,
}

impl<K> Default for CellBucket<K> {
    fn default() -> Self {
        CellBucket {
            keys: Vec::new(),
            positions: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> InterestGrid<K> {
    /// Creates an empty grid covering `bounds` with `cells_per_axis`
    /// cells along each axis (clamped to at least 1).
    pub fn new(bounds: Rect, cells_per_axis: u32) -> InterestGrid<K> {
        let cells_per_axis = cells_per_axis.max(1);
        let n = (cells_per_axis as usize) * (cells_per_axis as usize);
        InterestGrid {
            bounds,
            cells_per_axis,
            cell_w: (bounds.width() / cells_per_axis as f64).max(f64::MIN_POSITIVE),
            cell_h: (bounds.height() / cells_per_axis as f64).max(f64::MIN_POSITIVE),
            hysteresis: 0.0,
            cells: (0..n).map(|_| CellBucket::default()).collect(),
            index: IdHashMap::default(),
        }
    }

    /// Sets the cell-boundary hysteresis margin (world units).
    pub fn with_hysteresis(mut self, margin: f64) -> InterestGrid<K> {
        self.hysteresis = margin.max(0.0);
        self
    }

    /// Number of subscribers tracked.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: K) -> bool {
        self.index.contains_key(&key)
    }

    /// The exact stored position of `key`, if tracked.
    pub fn position_of(&self, key: K) -> Option<Point> {
        self.index
            .get(&key)
            .map(|e| self.cells[e.cell as usize].positions[e.slot as usize])
    }

    /// The grid's coverage rectangle.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cells along each axis.
    pub fn cells_per_axis(&self) -> u32 {
        self.cells_per_axis
    }

    /// Removes every subscriber.
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            cell.keys.clear();
            cell.positions.clear();
        }
        self.index.clear();
    }

    fn cell_coords(&self, pos: Point) -> (u32, u32) {
        let cx = ((pos.x - self.bounds.min().x) / self.cell_w).floor();
        let cy = ((pos.y - self.bounds.min().y) / self.cell_h).floor();
        let max = (self.cells_per_axis - 1) as f64;
        (cx.clamp(0.0, max) as u32, cy.clamp(0.0, max) as u32)
    }

    fn cell_id(&self, cx: u32, cy: u32) -> u32 {
        cy * self.cells_per_axis + cx
    }

    /// The world rectangle of cell `(cx, cy)`.
    fn cell_rect(&self, cell: u32) -> Rect {
        let cx = (cell % self.cells_per_axis) as f64;
        let cy = (cell / self.cells_per_axis) as f64;
        let min = Point::new(
            self.bounds.min().x + cx * self.cell_w,
            self.bounds.min().y + cy * self.cell_h,
        );
        Rect::new(min, min.offset(self.cell_w, self.cell_h))
    }

    fn push_to_cell(&mut self, key: K, pos: Point, cell: u32) {
        let bucket = &mut self.cells[cell as usize];
        let slot = bucket.keys.len() as u32;
        bucket.keys.push(key);
        bucket.positions.push(pos);
        self.index.insert(key, Entry { cell, slot });
    }

    fn remove_from_cell(&mut self, entry: Entry) {
        let bucket = &mut self.cells[entry.cell as usize];
        bucket.keys.swap_remove(entry.slot as usize);
        bucket.positions.swap_remove(entry.slot as usize);
        if let Some(&moved) = bucket.keys.get(entry.slot as usize) {
            self.index
                .get_mut(&moved)
                .expect("moved key must be indexed")
                .slot = entry.slot;
        }
    }

    /// Inserts or repositions a subscriber.
    ///
    /// On a reposition the subscriber keeps its current cell while the
    /// new position stays within the hysteresis margin of that cell;
    /// otherwise it moves to the position's natural cell.
    pub fn update(&mut self, key: K, pos: Point) {
        if let Some(entry) = self.index.get(&key).copied() {
            let (cx, cy) = self.cell_coords(pos);
            let natural = self.cell_id(cx, cy);
            if natural == entry.cell
                || self
                    .cell_rect(entry.cell)
                    .distance_to(pos, Metric::Euclidean)
                    <= self.hysteresis
            {
                // Same bucket (possibly held by hysteresis): position-only
                // update, no bucket edit.
                self.cells[entry.cell as usize].positions[entry.slot as usize] = pos;
                return;
            }
            self.remove_from_cell(entry);
            self.push_to_cell(key, pos, natural);
        } else {
            let (cx, cy) = self.cell_coords(pos);
            let cell = self.cell_id(cx, cy);
            self.push_to_cell(key, pos, cell);
        }
    }

    /// Inserts a new subscriber (alias of [`InterestGrid::update`] for
    /// call-site clarity).
    pub fn insert(&mut self, key: K, pos: Point) {
        self.update(key, pos);
    }

    /// Removes a subscriber; returns whether it was tracked.
    pub fn remove(&mut self, key: K) -> bool {
        match self.index.remove(&key) {
            Some(entry) => {
                // `remove_from_cell` fixes the swapped entry's slot via
                // the index, which no longer holds `key` — fine, it only
                // touches the *moved* key.
                self.remove_from_cell(entry);
                true
            }
            None => false,
        }
    }

    /// Visits every subscriber within `radius` of `origin` under
    /// `metric`, in unspecified order. The visited set is exactly the
    /// brute-force set `{k : d(pos_k, origin) <= radius}`.
    pub fn query(
        &self,
        origin: Point,
        radius: f64,
        metric: Metric,
        mut visit: impl FnMut(K, Point),
    ) {
        if radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        match metric {
            Metric::Euclidean => self.for_each_query_cell(origin, radius, metric, |_, bucket| {
                for (i, pos) in bucket.positions.iter().enumerate() {
                    let dx = pos.x - origin.x;
                    let dy = pos.y - origin.y;
                    if dx * dx + dy * dy <= r2 {
                        visit(bucket.keys[i], *pos);
                    }
                }
            }),
            _ => self.for_each_query_cell(origin, radius, metric, |_, bucket| {
                for (i, pos) in bucket.positions.iter().enumerate() {
                    if pos.distance_by(origin, metric) <= radius {
                        visit(bucket.keys[i], *pos);
                    }
                }
            }),
        }
    }

    /// Visits every subscriber within `radius` of `origin` and grades
    /// each one's vision ring in the same pass, amortizing the work per
    /// occupied cell whose bucket holds at least `MIN_BOUNDED_BUCKET`
    /// subscribers: such a cell whose conservative distance bounds
    /// fall entirely outside the radius is skipped whole, one entirely
    /// inside admits its whole bucket without per-subscriber distance
    /// tests, and one whose bounds land inside a single ring annulus
    /// classifies the whole bucket at once. Smaller buckets take the
    /// exact per-subscriber tests directly. The visited `(key, pos,
    /// ring)` set — and its order — is **identical** to running
    /// [`InterestGrid::query`] and grading each match with
    /// [`RingSet::ring_of`] individually: the cell bounds are inflated
    /// by the hysteresis slack (a held subscriber may sit outside its
    /// bucket's rectangle) plus a relative epsilon that dominates
    /// floating-point rounding, so the fast paths only fire where the
    /// exact per-subscriber tests provably agree. Edge cells always
    /// take the exact path — out-of-bounds positions clamp into them,
    /// so their rectangles bound nothing.
    ///
    /// `radius` is normally [`RingSet::outer_radius`]; matches beyond
    /// the outermost ring boundary (possible only by a float ulp when
    /// the caller passes a different radius) grade as the last ring.
    pub fn query_tiered(
        &self,
        origin: Point,
        radius: f64,
        metric: Metric,
        rings: &RingSet,
        mut visit: impl FnMut(K, Point, u8),
    ) {
        if radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let last_ring = (rings.len().saturating_sub(1)) as u8;
        let last = self.cells_per_axis - 1;
        // A subscriber held by hysteresis sits within `hysteresis` of
        // its cell rectangle in *Euclidean* distance; under Manhattan
        // that displacement measures up to √2 times more.
        let slack = match metric {
            Metric::Manhattan => self.hysteresis * std::f64::consts::SQRT_2,
            _ => self.hysteresis,
        };
        self.for_each_query_cell(origin, radius, metric, |cell, bucket| {
            if bucket.keys.is_empty() {
                return;
            }
            let cx = cell % self.cells_per_axis;
            let cy = cell / self.cells_per_axis;
            // Interior cells only: edge buckets hold clamped
            // out-of-bounds subscribers arbitrarily far from the cell.
            if bucket.keys.len() >= MIN_BOUNDED_BUCKET
                && last > 0
                && cx > 0
                && cx < last
                && cy > 0
                && cy < last
            {
                let rect = self.cell_rect(cell);
                let dmin = rect.distance_to(origin, metric);
                // Every metric is non-decreasing in |dx| and |dy|, so
                // the rectangle's farthest point is the corner farthest
                // along each axis.
                let (lo_c, hi_c) = (rect.min(), rect.max());
                let far = |lo: f64, hi: f64, o: f64| {
                    if (lo - o).abs() >= (hi - o).abs() {
                        lo
                    } else {
                        hi
                    }
                };
                let dmax = Point::new(far(lo_c.x, hi_c.x, origin.x), far(lo_c.y, hi_c.y, origin.y))
                    .distance_by(origin, metric);
                // Conservative bounds on any bucket member's distance:
                // widen by the hysteresis slack, then by a relative
                // epsilon that dwarfs the rounding of the exact
                // per-subscriber tests (so fast-path decisions never
                // disagree with them).
                let lo = (dmin - slack).max(0.0) * (1.0 - 1e-9);
                let hi = (dmax + slack) * (1.0 + 1e-9);
                if lo > radius {
                    return; // whole bucket provably out of range
                }
                if hi <= radius {
                    // Whole bucket provably in range: no admission
                    // tests. If the bounds land in one ring annulus the
                    // whole bucket shares that ring too — no distances
                    // at all.
                    match (rings.ring_of(lo), rings.ring_of(hi)) {
                        (Some(a), Some(b)) if a == b => {
                            for (i, pos) in bucket.positions.iter().enumerate() {
                                visit(bucket.keys[i], *pos, a);
                            }
                        }
                        _ => {
                            for (i, pos) in bucket.positions.iter().enumerate() {
                                let ring = rings
                                    .ring_of(pos.distance_by(origin, metric))
                                    .unwrap_or(last_ring);
                                visit(bucket.keys[i], *pos, ring);
                            }
                        }
                    }
                    return;
                }
            }
            // Exact per-subscriber fallback — bit-identical to `query`
            // followed by `ring_of` on the match.
            match metric {
                Metric::Euclidean => {
                    for (i, pos) in bucket.positions.iter().enumerate() {
                        let dx = pos.x - origin.x;
                        let dy = pos.y - origin.y;
                        if dx * dx + dy * dy <= r2 {
                            let ring = rings
                                .ring_of(pos.distance_by(origin, metric))
                                .unwrap_or(last_ring);
                            visit(bucket.keys[i], *pos, ring);
                        }
                    }
                }
                _ => {
                    for (i, pos) in bucket.positions.iter().enumerate() {
                        let d = pos.distance_by(origin, metric);
                        if d <= radius {
                            visit(bucket.keys[i], *pos, rings.ring_of(d).unwrap_or(last_ring));
                        }
                    }
                }
            }
        });
    }

    /// Enumerates the buckets that can hold matches for a query ball,
    /// rasterizing the ball row by row so per-cell pruning work is one
    /// comparison, not a rectangle distance.
    fn for_each_query_cell(
        &self,
        origin: Point,
        radius: f64,
        metric: Metric,
        mut scan: impl FnMut(u32, &CellBucket<K>),
    ) {
        // A subscriber held in a non-natural cell by hysteresis sits
        // within `hysteresis` of that cell *in Euclidean distance*; under
        // Manhattan the same displacement can measure up to √2 times
        // more, so the search widening accounts for the metric.
        let slack = match metric {
            Metric::Manhattan => self.hysteresis * std::f64::consts::SQRT_2,
            _ => self.hysteresis,
        };
        // Every metric ball of radius r fits in the axis-aligned square
        // of half-width r; widen by the slack for bucket displacement.
        let reach = radius + slack;
        let (x0, y0) = self.cell_coords(origin.offset(-reach, -reach));
        let (x1, y1) = self.cell_coords(origin.offset(reach, reach));
        let last = self.cells_per_axis - 1;
        for cy in y0..=y1 {
            // Rasterize the widened ball: this row's strip lies `dy` from
            // the origin vertically, so only columns within the metric
            // ball's horizontal half-extent at that dy can hold matches.
            // Edge rows/columns are exempt from narrowing — out-of-bounds
            // positions clamp into them, so those buckets may hold
            // subscribers far from the cell rectangle itself.
            let row_lo = self.bounds.min().y + cy as f64 * self.cell_h;
            let dy = (row_lo - origin.y)
                .max(origin.y - (row_lo + self.cell_h))
                .max(0.0);
            let half = match metric {
                Metric::Euclidean => {
                    let rem = reach * reach - dy * dy;
                    if rem >= 0.0 {
                        rem.sqrt()
                    } else {
                        -1.0
                    }
                }
                Metric::Manhattan => reach - dy,
                Metric::Chebyshev => {
                    if dy <= reach {
                        reach
                    } else {
                        -1.0
                    }
                }
            };
            let (rx0, rx1) = if cy == 0 || cy == last {
                (x0, x1)
            } else if half < 0.0 {
                // Strip misses the ball entirely: visit only the AABB's
                // edge columns, if any.
                (u32::MAX, 0)
            } else {
                let (lo, _) = self.cell_coords(Point::new(origin.x - half, row_lo));
                let (hi, _) = self.cell_coords(Point::new(origin.x + half, row_lo));
                (lo.max(x0), hi.min(x1))
            };
            if rx0 <= rx1 {
                for cx in rx0..=rx1 {
                    let id = self.cell_id(cx, cy);
                    scan(id, &self.cells[id as usize]);
                }
            }
            // Edge columns inside the AABB but outside the rasterized
            // span (clamped out-of-bounds subscribers).
            if x0 == 0 && (rx0 > rx1 || rx0 > 0) {
                let id = self.cell_id(0, cy);
                scan(id, &self.cells[id as usize]);
            }
            if x1 == last && (rx0 > rx1 || rx1 < last) && !(x0 == 0 && last == 0) {
                let id = self.cell_id(last, cy);
                scan(id, &self.cells[id as usize]);
            }
        }
    }

    /// Iterates every tracked subscriber with its exact stored position,
    /// in unspecified order. The dissemination pipeline uses this to
    /// re-index the population when the auto-tuner re-picks the grid
    /// resolution.
    pub fn subscribers(&self) -> impl Iterator<Item = (K, Point)> + '_ {
        self.index
            .iter()
            .map(|(k, e)| (*k, self.cells[e.cell as usize].positions[e.slot as usize]))
    }

    /// Collects the keys within `radius` of `origin` (test/bench helper).
    pub fn query_collect(&self, origin: Point, radius: f64, metric: Metric) -> Vec<K> {
        let mut out = Vec::new();
        self.query(origin, radius, metric, |k, _| out.push(k));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn insert_query_remove_round_trip() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 10);
        g.insert(1, Point::new(10.0, 10.0));
        g.insert(2, Point::new(12.0, 10.0));
        g.insert(3, Point::new(90.0, 90.0));
        assert_eq!(g.len(), 3);
        let mut near = g.query_collect(Point::new(11.0, 10.0), 5.0, Metric::Euclidean);
        near.sort_unstable();
        assert_eq!(near, vec![1, 2]);
        assert!(g.remove(2));
        assert!(!g.remove(2));
        assert_eq!(
            g.query_collect(Point::new(11.0, 10.0), 5.0, Metric::Euclidean),
            vec![1]
        );
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 10);
        g.insert(1, Point::new(5.0, 5.0));
        g.update(1, Point::new(95.0, 95.0));
        assert!(g
            .query_collect(Point::new(5.0, 5.0), 3.0, Metric::Euclidean)
            .is_empty());
        assert_eq!(
            g.query_collect(Point::new(95.0, 95.0), 3.0, Metric::Euclidean),
            vec![1]
        );
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn out_of_bounds_positions_clamp_into_edge_cells() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 4);
        g.insert(1, Point::new(-50.0, 200.0));
        assert_eq!(g.len(), 1);
        // Still found by a query near its true position.
        assert_eq!(
            g.query_collect(Point::new(-50.0, 200.0), 1.0, Metric::Euclidean),
            vec![1]
        );
    }

    #[test]
    fn boundary_point_is_found_from_both_sides() {
        // 10x10 cells of size 10: x = 50 is exactly a cell boundary.
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 10);
        g.insert(1, Point::new(50.0, 50.0));
        assert_eq!(
            g.query_collect(Point::new(49.0, 50.0), 1.0, Metric::Euclidean),
            vec![1]
        );
        assert_eq!(
            g.query_collect(Point::new(51.0, 50.0), 1.0, Metric::Euclidean),
            vec![1]
        );
        assert_eq!(
            g.query_collect(Point::new(50.0, 50.0), 0.0, Metric::Euclidean),
            vec![1]
        );
    }

    #[test]
    fn hysteresis_defers_cell_churn_without_changing_results() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 10).with_hysteresis(2.0);
        g.insert(1, Point::new(49.5, 50.0));
        // Jitter across the x=50 boundary: within the margin, the bucket
        // must not change, but queries still see the exact position.
        g.update(1, Point::new(50.5, 50.0));
        assert_eq!(g.position_of(1), Some(Point::new(50.5, 50.0)));
        assert_eq!(
            g.query_collect(Point::new(50.5, 50.0), 0.1, Metric::Euclidean),
            vec![1]
        );
        // A decisive move beyond the margin rebuckets.
        g.update(1, Point::new(55.0, 50.0));
        assert_eq!(
            g.query_collect(Point::new(55.0, 50.0), 0.1, Metric::Euclidean),
            vec![1]
        );
    }

    #[test]
    fn swap_remove_fixes_displaced_slots() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 1);
        for i in 0..10 {
            g.insert(i, Point::new(50.0, 50.0));
        }
        // Removing from the front of the single bucket displaces the last
        // element into slot 0; subsequent removals must stay consistent.
        for i in 0..10 {
            assert!(g.remove(i), "remove {i}");
        }
        assert!(g.is_empty());
    }

    #[test]
    fn degenerate_single_cell_grid_works() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 1);
        g.insert(1, Point::new(10.0, 10.0));
        g.insert(2, Point::new(90.0, 90.0));
        let mut all = g.query_collect(Point::new(50.0, 50.0), 100.0, Metric::Chebyshev);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
    }

    #[test]
    fn query_tiered_matches_query_plus_ring_of() {
        // Pseudo-random crowd with out-of-bounds stragglers and
        // hysteresis on, across all metrics and several ring shapes:
        // the amortized cell fast paths must agree with grading each
        // `query` match individually — same set, same order, same ring.
        let mut rng: u64 = 0xD1CE;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // 8 cells per axis: ~5 subscribers per bucket, so interior
        // cells take the bounded fast paths. 100: mostly empty or lone
        // buckets below `MIN_BOUNDED_BUCKET`, a few clumps straddling
        // it, and removals that shrink some of them back below it.
        for cells in [8u32, 100] {
            for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
                for rings in [
                    RingSet::single(35.0),
                    RingSet::from_tiers(&[12.0, 30.0, 55.0], &[1, 2, 4]),
                    RingSet::from_tiers(&[5.0, 90.0], &[1, 3]),
                ] {
                    let mut g: InterestGrid<u32> =
                        InterestGrid::new(world(), cells).with_hysteresis(1.5);
                    for k in 0..300u32 {
                        // Mostly in bounds; some clamp into edge cells.
                        let x = (next() % 140) as f64 - 20.0;
                        let y = (next() % 140) as f64 - 20.0;
                        g.insert(k, Point::new(x, y));
                    }
                    // Jitter a third of them so hysteresis holds some
                    // subscribers outside their bucket's rectangle.
                    for k in 0..100u32 {
                        if let Some(p) = g.position_of(k) {
                            g.update(k, Point::new(p.x + 1.0, p.y - 1.0));
                        }
                    }
                    if cells == 100 {
                        // Clumps of 3, 4 and 5 in one bucket each.
                        for c in 0..12u32 {
                            let x = (next() % 96) as f64 + 2.0;
                            let y = (next() % 96) as f64 + 2.0;
                            for j in 0..3 + c % 3 {
                                g.insert(300 + c * 8 + j, Point::new(x + 0.1 * j as f64, y));
                            }
                        }
                        for k in (0..300u32).step_by(3) {
                            g.remove(k);
                        }
                    }
                    check_tiered(&g, &rings, metric, &mut next);
                }
            }
        }
    }

    /// Runs 40 random queries of `g` and asserts `query_tiered` visits
    /// exactly what `query` plus `ring_of` does, in the same order.
    fn check_tiered(
        g: &InterestGrid<u32>,
        rings: &RingSet,
        metric: Metric,
        next: &mut impl FnMut() -> u64,
    ) {
        for _ in 0..40 {
            let origin = Point::new((next() % 120) as f64 - 10.0, (next() % 120) as f64 - 10.0);
            let radius = rings.outer_radius();
            let mut expect: Vec<(u32, u8)> = Vec::new();
            g.query(origin, radius, metric, |k, pos| {
                let ring = rings
                    .ring_of(pos.distance_by(origin, metric))
                    .unwrap_or((rings.len() - 1) as u8);
                expect.push((k, ring));
            });
            let mut got: Vec<(u32, u8)> = Vec::new();
            g.query_tiered(origin, radius, metric, rings, |k, _, ring| {
                got.push((k, ring));
            });
            assert_eq!(
                got,
                expect,
                "{} cells, metric {metric:?} origin {origin:?}",
                g.cells_per_axis()
            );
        }
    }

    #[test]
    fn clear_empties_everything() {
        let mut g: InterestGrid<u32> = InterestGrid::new(world(), 8);
        for i in 0..20 {
            g.insert(i, Point::new(i as f64, i as f64));
        }
        g.clear();
        assert!(g.is_empty());
        assert!(g
            .query_collect(Point::new(10.0, 10.0), 50.0, Metric::Euclidean)
            .is_empty());
    }
}
