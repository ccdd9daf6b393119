//! Axis-aligned rectangles: the shape of Matrix map partitions.

use crate::{Metric, Point};
use serde::{Deserialize, Serialize};

/// One of the two world axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// The horizontal axis.
    X,
    /// The vertical axis.
    Y,
}

/// An axis-aligned rectangle, `min` inclusive and `max` exclusive on the
/// boundary shared with a neighbouring partition.
///
/// Matrix partitions the world into axis-aligned rectangles because the
/// coordinator can then compute overlap regions "using well known
/// axis-aligned bounding box computation algorithms" (§3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not component-wise `<= max`; use
    /// [`Rect::try_new`] for fallible construction.
    pub fn new(min: Point, max: Point) -> Rect {
        Rect::try_new(min, max).expect("rect min must be <= max on both axes")
    }

    /// Fallible constructor: returns `None` unless `min <= max` on both axes.
    pub fn try_new(min: Point, max: Point) -> Option<Rect> {
        if min.x <= max.x && min.y <= max.y {
            Some(Rect { min, max })
        } else {
            None
        }
    }

    /// Convenience constructor from raw coordinates.
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along the X axis.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the Y axis.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Surface area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// The axis along which the rectangle is longest (ties go to X).
    pub fn longest_axis(&self) -> Axis {
        if self.width() >= self.height() {
            Axis::X
        } else {
            Axis::Y
        }
    }

    /// Whether the rectangle has zero area.
    pub fn is_degenerate(&self) -> bool {
        self.width() == 0.0 || self.height() == 0.0
    }

    /// Point containment. `min`-side boundaries are inside, `max`-side
    /// boundaries are outside, so that abutting partitions never both claim
    /// a point.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// Closed containment: boundaries on all sides count as inside.
    ///
    /// Used for world-coverage checks where the world's own upper boundary
    /// must be accepted.
    pub fn contains_closed(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps a point into the rectangle (onto the closed boundary).
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Minimum distance from `p` to the closed rectangle under `metric`.
    ///
    /// Zero if `p` is inside. This is the primitive behind Equation 1: a
    /// partition `Pj` intersects the visibility circle of σ iff
    /// `dist(σ, Pj) <= R`.
    pub fn distance_to(&self, p: Point, metric: Metric) -> f64 {
        self.clamp(p).distance_by(p, metric)
    }

    /// Whether two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// The overlapping region of two rectangles, if it has positive area.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min = Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y));
        let max = Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y));
        let r = Rect::try_new(min, max)?;
        if r.is_degenerate() {
            None
        } else {
            Some(r)
        }
    }

    /// Expands the rectangle by `r` on every side (an AABB dilation).
    ///
    /// This is the coordinator's bounding-box approximation of "all points
    /// within distance `r` of the rectangle": exact under
    /// [`Metric::Chebyshev`], conservative (a superset) under the other
    /// metrics.
    pub fn expand(&self, r: f64) -> Rect {
        Rect::new(self.min.offset(-r, -r), self.max.offset(r, r))
    }

    /// Splits along `axis` at coordinate `at`, returning `(low, high)`.
    ///
    /// Returns `None` if `at` does not cut strictly inside the rectangle.
    pub fn split_at(&self, axis: Axis, at: f64) -> Option<(Rect, Rect)> {
        match axis {
            Axis::X => {
                if at <= self.min.x || at >= self.max.x {
                    return None;
                }
                Some((
                    Rect::new(self.min, Point::new(at, self.max.y)),
                    Rect::new(Point::new(at, self.min.y), self.max),
                ))
            }
            Axis::Y => {
                if at <= self.min.y || at >= self.max.y {
                    return None;
                }
                Some((
                    Rect::new(self.min, Point::new(self.max.x, at)),
                    Rect::new(Point::new(self.min.x, at), self.max),
                ))
            }
        }
    }

    /// Splits into two equal halves along the given axis.
    pub fn halve(&self, axis: Axis) -> Option<(Rect, Rect)> {
        let mid = match axis {
            Axis::X => (self.min.x + self.max.x) / 2.0,
            Axis::Y => (self.min.y + self.max.y) / 2.0,
        };
        self.split_at(axis, mid)
    }

    /// The smallest rectangle containing both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        )
    }

    /// Whether `other` lies entirely within `self` (closed comparison).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// True when the two rectangles tile exactly into one larger rectangle,
    /// i.e. they share a full edge. This is the precondition for a reclaim
    /// merge.
    pub fn merges_with(&self, other: &Rect) -> Option<Rect> {
        // Share the full vertical edge?
        if self.min.y == other.min.y
            && self.max.y == other.max.y
            && (self.max.x == other.min.x || other.max.x == self.min.x)
        {
            return Some(self.union(other));
        }
        // Share the full horizontal edge?
        if self.min.x == other.min.x
            && self.max.x == other.max.x
            && (self.max.y == other.min.y || other.max.y == self.min.y)
        {
            return Some(self.union(other));
        }
        None
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_coords(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn try_new_rejects_inverted() {
        assert!(Rect::try_new(Point::new(1.0, 0.0), Point::new(0.0, 1.0)).is_none());
        assert!(Rect::try_new(Point::new(0.0, 1.0), Point::new(1.0, 0.0)).is_none());
    }

    #[test]
    fn half_open_containment() {
        let r = unit();
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(10.0, 5.0)));
        assert!(!r.contains(Point::new(5.0, 10.0)));
        assert!(r.contains_closed(Point::new(10.0, 10.0)));
    }

    #[test]
    fn distance_to_interior_is_zero() {
        let r = unit();
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            assert_eq!(r.distance_to(Point::new(5.0, 5.0), m), 0.0);
        }
    }

    #[test]
    fn distance_to_outside_point() {
        let r = unit();
        let p = Point::new(13.0, 14.0);
        assert_eq!(r.distance_to(p, Metric::Euclidean), 5.0);
        assert_eq!(r.distance_to(p, Metric::Manhattan), 7.0);
        assert_eq!(r.distance_to(p, Metric::Chebyshev), 4.0);
    }

    #[test]
    fn intersection_of_disjoint_is_none() {
        let a = unit();
        let b = Rect::from_coords(20.0, 20.0, 30.0, 30.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = unit();
        let b = Rect::from_coords(10.0, 0.0, 20.0, 10.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn intersection_is_commutative() {
        let a = Rect::from_coords(0.0, 0.0, 6.0, 6.0);
        let b = Rect::from_coords(4.0, 2.0, 9.0, 9.0);
        assert_eq!(a.intersection(&b), b.intersection(&a));
        assert_eq!(
            a.intersection(&b).unwrap(),
            Rect::from_coords(4.0, 2.0, 6.0, 6.0)
        );
    }

    #[test]
    fn expand_grows_every_side() {
        let r = unit().expand(2.0);
        assert_eq!(r, Rect::from_coords(-2.0, -2.0, 12.0, 12.0));
    }

    #[test]
    fn split_at_rejects_out_of_range() {
        let r = unit();
        assert!(r.split_at(Axis::X, 0.0).is_none());
        assert!(r.split_at(Axis::X, 10.0).is_none());
        assert!(r.split_at(Axis::X, -1.0).is_none());
    }

    #[test]
    fn halve_produces_equal_area() {
        let r = unit();
        let (lo, hi) = r.halve(Axis::Y).unwrap();
        assert_eq!(lo.area(), hi.area());
        assert_eq!(lo.union(&hi), r);
    }

    #[test]
    fn merges_with_detects_shared_edges() {
        let a = Rect::from_coords(0.0, 0.0, 5.0, 10.0);
        let b = Rect::from_coords(5.0, 0.0, 10.0, 10.0);
        assert_eq!(a.merges_with(&b), Some(unit()));
        assert_eq!(b.merges_with(&a), Some(unit()));
        let c = Rect::from_coords(5.0, 0.0, 10.0, 9.0);
        assert_eq!(a.merges_with(&c), None);
    }

    #[test]
    fn longest_axis_prefers_x_on_tie() {
        assert_eq!(unit().longest_axis(), Axis::X);
        assert_eq!(
            Rect::from_coords(0.0, 0.0, 1.0, 5.0).longest_axis(),
            Axis::Y
        );
    }

    #[test]
    fn clamp_projects_onto_boundary() {
        let r = unit();
        assert_eq!(r.clamp(Point::new(-5.0, 5.0)), Point::new(0.0, 5.0));
        assert_eq!(r.clamp(Point::new(15.0, 25.0)), Point::new(10.0, 10.0));
    }
}
