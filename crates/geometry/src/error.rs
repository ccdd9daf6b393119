//! Error type for partition-map operations.

use crate::ServerId;

/// Errors returned by [`crate::PartitionMap`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The named server owns no partition in the map.
    UnknownServer(ServerId),
    /// The target id for a split already owns a partition.
    ServerExists(ServerId),
    /// The partition is too small (or degenerate) to split.
    Unsplittable(ServerId),
    /// The two partitions do not share a full edge and cannot be merged.
    NotMergeable(ServerId, ServerId),
    /// The pieces of a recorded split do not tile the owner's partition.
    SplitMismatch(ServerId),
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::UnknownServer(s) => write!(f, "server {s} owns no partition"),
            GeometryError::ServerExists(s) => write!(f, "server {s} already owns a partition"),
            GeometryError::Unsplittable(s) => {
                write!(f, "partition owned by {s} is too small to split")
            }
            GeometryError::NotMergeable(a, b) => {
                write!(f, "partitions of {a} and {b} do not tile a rectangle")
            }
            GeometryError::SplitMismatch(s) => {
                write!(f, "split pieces do not tile the partition owned by {s}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GeometryError::UnknownServer(ServerId(3));
        assert!(e.to_string().contains("S3"));
        let e = GeometryError::NotMergeable(ServerId(1), ServerId(2));
        assert!(e.to_string().contains("S1"));
        assert!(e.to_string().contains("S2"));
    }
}
