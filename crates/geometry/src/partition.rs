//! The world partition map: `Z = P1 ∪ ... ∪ PN`, pairwise disjoint.
//!
//! Matrix "partitions the overall space Z of an MMOG into N non-overlapping
//! partitions {P1..PN} and assigns each partition Pi to a distinct server
//! Si" (§3.1). The number of servers and each server's range change
//! dynamically through splits and reclamations; this module maintains that
//! assignment and its invariants.
//!
//! Every edit of the directory is one checked operation here: a split
//! ([`PartitionMap::split`] picks the cut, [`PartitionMap::cut`] records
//! it), a merge ([`PartitionMap::reclaim`], also used when a neighbour
//! absorbs a dead server's range) and a promotion
//! ([`PartitionMap::rename`]). Each checks only the partitions it touches
//! and reports a mismatch as an error, so the map stays valid without a
//! whole-map re-check.

use crate::{GeometryError, Point, Rect, ServerId, SplitStrategy};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The two pieces of a split: which rectangle is handed off and which is
/// kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitOutcome {
    /// Rectangle transferred to the new server.
    pub given: Rect,
    /// Rectangle retained by the splitting server.
    pub kept: Rect,
}

/// Assignment of world rectangles to servers.
///
/// Invariants (checked by [`PartitionMap::validate`] and enforced by
/// construction):
///
/// * partitions have pairwise-disjoint interiors;
/// * their union is exactly the world rectangle;
/// * every live server owns exactly one partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionMap {
    world: Rect,
    parts: BTreeMap<ServerId, Rect>,
}

impl PartitionMap {
    /// Creates a map in which `initial` owns the whole world.
    pub fn new(world: Rect, initial: ServerId) -> PartitionMap {
        let mut parts = BTreeMap::new();
        parts.insert(initial, world);
        PartitionMap { world, parts }
    }

    /// The world rectangle `Z`.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Number of live partitions `N`.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the map has no partitions (never true for a constructed map).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partition owned by `server`, if any.
    pub fn range_of(&self, server: ServerId) -> Option<Rect> {
        self.parts.get(&server).copied()
    }

    /// Whether `server` currently owns a partition.
    pub fn contains_server(&self, server: ServerId) -> bool {
        self.parts.contains_key(&server)
    }

    /// Iterates over `(server, rect)` pairs in server-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, Rect)> + '_ {
        self.parts.iter().map(|(s, r)| (*s, *r))
    }

    /// All live server ids in ascending order.
    pub fn servers(&self) -> Vec<ServerId> {
        self.parts.keys().copied().collect()
    }

    /// The server whose partition contains `p`.
    ///
    /// Containment is half-open, so every interior point has exactly one
    /// owner; points on the world's upper boundary are attributed to the
    /// partition whose closed boundary they lie on.
    pub fn owner_of(&self, p: Point) -> Option<ServerId> {
        self.parts
            .iter()
            .find(|(_, r)| r.contains(p))
            .or_else(|| {
                // Upper world boundary: fall back to closed containment so
                // players standing on the far edge still have an owner.
                self.parts.iter().find(|(_, r)| r.contains_closed(p))
            })
            .map(|(s, _)| *s)
    }

    /// Splits the partition of `owner`, handing one piece to `new_server`:
    /// the strategy decides the cut, [`PartitionMap::cut`] records it.
    ///
    /// `clients` are the positions currently on `owner` (used only by
    /// load-aware strategies).
    ///
    /// # Errors
    ///
    /// * [`GeometryError::UnknownServer`] if `owner` has no partition;
    /// * [`GeometryError::Unsplittable`] if the rectangle cannot be cut;
    /// * [`GeometryError::ServerExists`] if `new_server` already owns one.
    pub fn split(
        &mut self,
        owner: ServerId,
        new_server: ServerId,
        strategy: &SplitStrategy,
        clients: &[Point],
    ) -> Result<SplitOutcome, GeometryError> {
        let rect = self
            .range_of(owner)
            .ok_or(GeometryError::UnknownServer(owner))?;
        let (given, kept) = strategy
            .split(&rect, clients)
            .ok_or(GeometryError::Unsplittable(owner))?;
        let outcome = SplitOutcome { given, kept };
        self.cut(owner, new_server, outcome)?;
        Ok(outcome)
    }

    /// Records a split already decided: `owner` keeps `cut.kept` and
    /// `new_server` takes `cut.given`. The coordinator mirrors a split a
    /// server reports through this, so the pieces are checked, not
    /// trusted.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::UnknownServer`] if `owner` has no partition;
    /// * [`GeometryError::ServerExists`] if `new_server` already owns one;
    /// * [`GeometryError::SplitMismatch`] unless both pieces have area and
    ///   together tile exactly `owner`'s current partition.
    pub fn cut(
        &mut self,
        owner: ServerId,
        new_server: ServerId,
        cut: SplitOutcome,
    ) -> Result<(), GeometryError> {
        let rect = self
            .range_of(owner)
            .ok_or(GeometryError::UnknownServer(owner))?;
        if self.parts.contains_key(&new_server) {
            return Err(GeometryError::ServerExists(new_server));
        }
        let tiles = cut.kept.merges_with(&cut.given) == Some(rect)
            && !cut.kept.is_degenerate()
            && !cut.given.is_degenerate();
        if !tiles {
            return Err(GeometryError::SplitMismatch(owner));
        }
        self.parts.insert(owner, cut.kept);
        self.parts.insert(new_server, cut.given);
        Ok(())
    }

    /// Merges `child`'s partition into `parent`'s: a reclamation, or a
    /// neighbour absorbing a dead or orphaned server's range.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::UnknownServer`] if either id has no partition;
    /// * [`GeometryError::NotMergeable`] if the two rectangles do not share
    ///   a full edge (their union would not be a rectangle).
    pub fn reclaim(&mut self, parent: ServerId, child: ServerId) -> Result<Rect, GeometryError> {
        let pr = self
            .parts
            .get(&parent)
            .copied()
            .ok_or(GeometryError::UnknownServer(parent))?;
        let cr = self
            .parts
            .get(&child)
            .copied()
            .ok_or(GeometryError::UnknownServer(child))?;
        let merged = pr
            .merges_with(&cr)
            .ok_or(GeometryError::NotMergeable(parent, child))?;
        self.parts.remove(&child);
        self.parts.insert(parent, merged);
        Ok(merged)
    }

    /// Hands `from`'s partition, unchanged, to `to` — a promotion, where
    /// a warm standby takes over its dead primary's range under its own id.
    /// Returns the range.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::UnknownServer`] if `from` has no partition;
    /// * [`GeometryError::ServerExists`] if `to` already owns one.
    pub fn rename(&mut self, from: ServerId, to: ServerId) -> Result<Rect, GeometryError> {
        let rect = self
            .range_of(from)
            .ok_or(GeometryError::UnknownServer(from))?;
        if self.parts.contains_key(&to) {
            return Err(GeometryError::ServerExists(to));
        }
        self.parts.remove(&from);
        self.parts.insert(to, rect);
        Ok(rect)
    }

    /// Servers whose partitions would merge cleanly with `server`'s.
    pub fn mergeable_neighbours(&self, server: ServerId) -> Vec<ServerId> {
        let Some(rect) = self.range_of(server) else {
            return Vec::new();
        };
        self.parts
            .iter()
            .filter(|(s, r)| **s != server && rect.merges_with(r).is_some())
            .map(|(s, _)| *s)
            .collect()
    }

    /// Builds a static K-way partition of `world` by repeated halving of the
    /// widest partition — the paper's *static partitioning* baseline with
    /// equal-area shards assigned up front.
    pub fn static_grid(world: Rect, servers: &[ServerId]) -> Option<PartitionMap> {
        let (&first, rest) = servers.split_first()?;
        let mut map = PartitionMap::new(world, first);
        for &s in rest {
            // Split the currently largest partition for an even spread.
            let (widest, _) = map
                .parts
                .iter()
                .max_by(|a, b| {
                    a.1.area()
                        .partial_cmp(&b.1.area())
                        .expect("partition areas are finite")
                })
                .map(|(s, r)| (*s, *r))?;
            map.split(widest, s, &SplitStrategy::LongestAxis, &[])
                .ok()?;
        }
        Some(map)
    }

    /// Checks all structural invariants, returning a description of the
    /// first violation.
    ///
    /// Intended for tests and debug assertions; operations on this type keep
    /// the invariants by construction.
    pub fn validate(&self) -> Result<(), String> {
        let parts: Vec<(ServerId, Rect)> = self.iter().collect();
        let mut area = 0.0;
        for (i, (si, ri)) in parts.iter().enumerate() {
            if !self.world.contains_rect(ri) {
                return Err(format!("partition of {si} escapes the world"));
            }
            if ri.is_degenerate() {
                return Err(format!("partition of {si} is degenerate"));
            }
            area += ri.area();
            for (sj, rj) in parts.iter().skip(i + 1) {
                if ri.intersects(rj) {
                    return Err(format!("partitions of {si} and {sj} overlap"));
                }
            }
        }
        let world_area = self.world.area();
        if (area - world_area).abs() > world_area * 1e-9 {
            return Err(format!("partitions cover {area}, world has {world_area}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    #[test]
    fn new_map_assigns_whole_world() {
        let map = PartitionMap::new(world(), ServerId(1));
        assert_eq!(map.len(), 1);
        assert_eq!(map.range_of(ServerId(1)), Some(world()));
        map.validate().unwrap();
    }

    #[test]
    fn split_to_left_hands_off_left_half() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        let out = map
            .split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        assert_eq!(out.given, Rect::from_coords(0.0, 0.0, 200.0, 400.0));
        assert_eq!(out.kept, Rect::from_coords(200.0, 0.0, 400.0, 400.0));
        assert_eq!(map.range_of(ServerId(2)), Some(out.given));
        map.validate().unwrap();
    }

    #[test]
    fn split_unknown_server_errors() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        let err = map
            .split(ServerId(9), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap_err();
        assert_eq!(err, GeometryError::UnknownServer(ServerId(9)));
    }

    #[test]
    fn split_into_existing_server_errors() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let err = map
            .split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap_err();
        assert_eq!(err, GeometryError::ServerExists(ServerId(2)));
    }

    #[test]
    fn cut_records_a_reported_split() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        let cut = SplitOutcome {
            given: Rect::from_coords(0.0, 0.0, 400.0, 100.0),
            kept: Rect::from_coords(0.0, 100.0, 400.0, 400.0),
        };
        map.cut(ServerId(1), ServerId(2), cut).unwrap();
        assert_eq!(map.range_of(ServerId(1)), Some(cut.kept));
        assert_eq!(map.range_of(ServerId(2)), Some(cut.given));
        map.validate().unwrap();
    }

    #[test]
    fn cut_rejects_pieces_that_do_not_tile_the_owner() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        let before = map.clone();
        let half = Rect::from_coords(0.0, 0.0, 200.0, 400.0);
        for (given, kept) in [
            // Tiles a smaller rectangle, not the owner's range.
            (half, Rect::from_coords(200.0, 0.0, 300.0, 400.0)),
            // A zero-width piece beside the whole range.
            (Rect::from_coords(0.0, 0.0, 0.0, 400.0), world()),
        ] {
            let err = map
                .cut(ServerId(1), ServerId(2), SplitOutcome { given, kept })
                .unwrap_err();
            assert_eq!(err, GeometryError::SplitMismatch(ServerId(1)));
        }
        assert_eq!(map, before, "a rejected cut leaves the map untouched");
    }

    #[test]
    fn rename_hands_the_range_to_a_new_id() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let range = map.range_of(ServerId(2)).unwrap();
        assert_eq!(map.rename(ServerId(2), ServerId(9)), Ok(range));
        assert_eq!(map.range_of(ServerId(9)), Some(range));
        assert!(!map.contains_server(ServerId(2)));
        map.validate().unwrap();
        assert_eq!(
            map.rename(ServerId(9), ServerId(1)),
            Err(GeometryError::ServerExists(ServerId(1)))
        );
        assert_eq!(
            map.rename(ServerId(2), ServerId(3)),
            Err(GeometryError::UnknownServer(ServerId(2)))
        );
    }

    #[test]
    fn reclaim_restores_pre_split_range() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let merged = map.reclaim(ServerId(1), ServerId(2)).unwrap();
        assert_eq!(merged, world());
        assert_eq!(map.len(), 1);
        assert!(!map.contains_server(ServerId(2)));
        map.validate().unwrap();
    }

    #[test]
    fn reclaim_non_adjacent_errors() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        map.split(ServerId(1), ServerId(3), &SplitStrategy::LongestAxis, &[])
            .unwrap();
        // S2 has the left half; S3 has a quarter not sharing a full edge
        // with S2's half.
        let err = map.reclaim(ServerId(2), ServerId(3)).unwrap_err();
        assert_eq!(err, GeometryError::NotMergeable(ServerId(2), ServerId(3)));
    }

    #[test]
    fn owner_of_is_unique_for_interior_points() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        map.split(ServerId(1), ServerId(3), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let p = Point::new(250.0, 100.0);
        let owner = map.owner_of(p).unwrap();
        let holders: Vec<ServerId> = map
            .iter()
            .filter(|(_, r)| r.contains(p))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(holders, vec![owner]);
    }

    #[test]
    fn owner_of_upper_world_boundary() {
        let map = PartitionMap::new(world(), ServerId(1));
        assert_eq!(map.owner_of(Point::new(400.0, 400.0)), Some(ServerId(1)));
    }

    #[test]
    fn owner_of_outside_world_is_none() {
        let map = PartitionMap::new(world(), ServerId(1));
        assert_eq!(map.owner_of(Point::new(500.0, 10.0)), None);
    }

    #[test]
    fn static_grid_covers_world() {
        let servers: Vec<ServerId> = (1..=7).map(ServerId).collect();
        let map = PartitionMap::static_grid(world(), &servers).unwrap();
        assert_eq!(map.len(), 7);
        map.validate().unwrap();
    }

    #[test]
    fn static_grid_empty_server_list() {
        assert!(PartitionMap::static_grid(world(), &[]).is_none());
    }

    #[test]
    fn mergeable_neighbours_after_splits() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let n1 = map.mergeable_neighbours(ServerId(1));
        assert_eq!(n1, vec![ServerId(2)]);
    }

    #[test]
    fn repeated_splits_keep_invariants() {
        let mut map = PartitionMap::new(world(), ServerId(1));
        for i in 2..=16 {
            // Split the largest partition each round.
            let (largest, _) = map
                .iter()
                .max_by(|a, b| a.1.area().partial_cmp(&b.1.area()).unwrap())
                .unwrap();
            map.split(largest, ServerId(i), &SplitStrategy::LongestAxis, &[])
                .unwrap();
            map.validate().unwrap();
        }
        assert_eq!(map.len(), 16);
    }
}
