//! Equation 1 of the paper: exact consistency sets.
//!
//! > `C(σ ∈ Pi) = { Sj | j ≠ i ∧ ∃σ' ∈ Pj s.t. d(σ, σ') ≤ R }`
//!
//! The consistency set of a point σ is every *other* server whose partition
//! comes within the radius of visibility `R` of σ. An update at σ must be
//! applied at σ's owner and at every member of `C(σ)`.
//!
//! [`consistency_set`] is the brute-force ground truth (`O(N)` in the number
//! of servers). Ordinary forwarding uses the precomputed
//! [`crate::OverlapTable`] instead, and tests verify the table against this
//! definition. It answers what no table covers: the coordinator's point
//! resolutions, and a Matrix server's sets for a non-proximal event or a
//! radius no table was built for, computed on its copy of the directory.

use crate::{Metric, PartitionMap, Point, ServerId};

/// Computes `C(σ)` exactly from a partition map.
///
/// `owner` is σ's own server `Si`, excluded from the set by definition. The
/// result is sorted by server id so callers get deterministic output.
///
/// A partition `Pj` contains a point within distance `R` of σ iff the
/// minimum distance from σ to the (closed) rectangle is `<= R`, so the
/// existential in Equation 1 reduces to one distance test per partition.
pub fn consistency_set(
    map: &PartitionMap,
    origin: Point,
    owner: ServerId,
    radius: f64,
    metric: Metric,
) -> Vec<ServerId> {
    map.iter()
        .filter(|(s, r)| *s != owner && r.distance_to(origin, metric) <= radius)
        .map(|(s, _)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rect, SplitStrategy};

    /// World [0,400]², S1 right half [200..400], S2 left half [0..200].
    fn two_way() -> PartitionMap {
        let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
        let mut map = PartitionMap::new(world, ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        map
    }

    #[test]
    fn interior_point_has_empty_set() {
        let map = two_way();
        let c = consistency_set(
            &map,
            Point::new(390.0, 200.0),
            ServerId(1),
            50.0,
            Metric::Euclidean,
        );
        assert!(c.is_empty());
    }

    #[test]
    fn periphery_point_sees_neighbour() {
        let map = two_way();
        let c = consistency_set(
            &map,
            Point::new(210.0, 200.0),
            ServerId(1),
            50.0,
            Metric::Euclidean,
        );
        assert_eq!(c, vec![ServerId(2)]);
    }

    #[test]
    fn point_exactly_at_radius_is_included() {
        let map = two_way();
        // S2's rectangle ends at x=200; σ at x=250 with R=50 touches it.
        let c = consistency_set(
            &map,
            Point::new(250.0, 200.0),
            ServerId(1),
            50.0,
            Metric::Euclidean,
        );
        assert_eq!(c, vec![ServerId(2)]);
    }

    #[test]
    fn infinite_radius_reaches_everyone() {
        // §3.1: "if R is infinite, all updates must be globally propagated".
        let mut map = two_way();
        map.split(ServerId(1), ServerId(3), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        let c = consistency_set(
            &map,
            Point::new(390.0, 390.0),
            ServerId(1),
            f64::INFINITY,
            Metric::Euclidean,
        );
        assert_eq!(c, vec![ServerId(2), ServerId(3)]);
    }

    #[test]
    fn zero_radius_only_for_boundary_points() {
        let map = two_way();
        // On the shared edge the distance to the neighbour's closed rect is 0.
        let c = consistency_set(
            &map,
            Point::new(200.0, 10.0),
            ServerId(1),
            0.0,
            Metric::Euclidean,
        );
        assert_eq!(c, vec![ServerId(2)]);
        let c = consistency_set(
            &map,
            Point::new(201.0, 10.0),
            ServerId(1),
            0.0,
            Metric::Euclidean,
        );
        assert!(c.is_empty());
    }

    #[test]
    fn corner_point_sees_diagonal_neighbour_only_within_euclidean_radius() {
        // Four quadrants: S1 owns [200..400]x[0..200] after two splits.
        let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
        let mut map = PartitionMap::new(world, ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        // S1 now has right half; split it horizontally.
        map.split(ServerId(1), ServerId(3), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        // And the left half too.
        map.split(ServerId(2), ServerId(4), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        map.validate().unwrap();

        let owner = map.owner_of(Point::new(210.0, 210.0)).unwrap();
        // Point near the four-corner: under Euclidean, the diagonal
        // quadrant is sqrt(10²+10²) ≈ 14.1 away.
        let c = consistency_set(
            &map,
            Point::new(210.0, 210.0),
            owner,
            14.0,
            Metric::Euclidean,
        );
        assert_eq!(c.len(), 2, "diagonal neighbour out of range: {c:?}");
        let c = consistency_set(
            &map,
            Point::new(210.0, 210.0),
            owner,
            15.0,
            Metric::Euclidean,
        );
        assert_eq!(c.len(), 3, "all three quadrants within 15: {c:?}");
    }

    #[test]
    fn chebyshev_reaches_diagonal_at_box_distance() {
        let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
        let mut map = PartitionMap::new(world, ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        map.split(ServerId(1), ServerId(3), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        map.split(ServerId(2), ServerId(4), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        let owner = map.owner_of(Point::new(210.0, 210.0)).unwrap();
        let c = consistency_set(
            &map,
            Point::new(210.0, 210.0),
            owner,
            10.0,
            Metric::Chebyshev,
        );
        assert_eq!(c.len(), 3, "L∞ ball of 10 touches all quadrants: {c:?}");
    }
}
