//! Spatial substrate for the Matrix adaptive game middleware.
//!
//! This crate implements every geometric mechanism the Matrix paper
//! (Balan et al., Middleware 2005) relies on:
//!
//! * [`Point`] / [`Rect`] — the game world is a 2-D plane carved into
//!   axis-aligned rectangular partitions.
//! * [`Metric`] — the game-specific distance metric (§3.1 of the paper lets
//!   each game pick its own).
//! * [`PartitionMap`] — the non-overlapping, world-covering assignment of
//!   rectangles to servers, with split and reclaim operations.
//! * [`consistency_set`] — Equation 1 of the paper, computed exactly.
//! * [`OverlapTable`] / [`build_overlap`] — the Matrix Coordinator's overlap
//!   regions: maximal groups of points with identical non-empty consistency
//!   sets, supporting the O(1) lookup used on the packet forwarding path.
//! * [`SplitStrategy`] — "split-to-left" from the paper plus the load-aware
//!   alternatives §5 cites as complementary work.
//!
//! # Example
//!
//! ```
//! use matrix_geometry::{Point, Rect, PartitionMap, ServerId, SplitStrategy, build_overlap, Metric};
//!
//! let world = Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
//! let mut map = PartitionMap::new(world, ServerId(1));
//! map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[]).unwrap();
//!
//! let overlap = build_overlap(&map, 50.0, Metric::Euclidean);
//! let table = overlap.table_for(ServerId(1)).unwrap();
//! // Points deep inside a partition have an empty consistency set;
//! // points near the boundary must also be routed to the neighbour.
//! assert!(table.lookup(Point::new(900.0, 500.0)).is_empty());
//! assert_eq!(table.lookup(Point::new(510.0, 500.0)), &[ServerId(2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod error;
mod index;
mod overlap;
mod partition;
mod point;
mod rect;
mod split;

pub use consistency::consistency_set;
pub use error::GeometryError;
pub use index::PartitionIndex;
pub use overlap::{build_overlap, OverlapMap, OverlapRegion, OverlapTable};
pub use partition::{PartitionMap, SplitOutcome};
pub use point::{Metric, Point};
pub use rect::{Axis, Rect};
pub use split::SplitStrategy;

use serde::{Deserialize, Serialize};

/// Identifier of a Matrix server (and therefore of the partition it owns).
///
/// The spatial substrate identifies partitions by the server that owns them,
/// mirroring the paper's formulation "assigns each partition `Pi` to a
/// distinct server `Si`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}
