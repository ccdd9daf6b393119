//! The transferable image of one game server's region.

use matrix_geometry::{Point, Rect};
use matrix_predict::Basis;
use std::collections::BTreeMap;

/// One connected client's session, as the snapshot carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    /// Last known position.
    pub pos: Point,
    /// Serialised per-client state size in bytes (travels on switches).
    pub state_bytes: u64,
}

/// The interest-grid auto-tuner's learned state, replicated so a
/// promoted standby inherits the tuned resolution instead of re-learning
/// the region's density from the configured default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerState {
    /// The resolution (cells per axis) the tuner currently stands
    /// behind.
    pub cells: u32,
    /// Consecutive observations agreeing on the pending retune.
    pub streak: u32,
    /// The resolution the in-flight streak agrees on (`0` = none).
    pub pending: u32,
}

/// A restorable image of one region: everything a standby needs to
/// take over a dead primary's game server without the clients
/// reconnecting.
///
/// The snapshot is plain data, and exactly what promotion installs:
/// sessions, range, tuner state and prediction bases. The send path's
/// in-flight state (delta bases, queued updates, the flush clock) is
/// not part of it — a promoted node starts every stream with a
/// keyframe and an empty queue.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot<K: Ord> {
    /// Managed map range, if one was assigned.
    pub range: Option<Rect>,
    /// The game's registered radius of visibility.
    pub radius: f64,
    /// Whether bulk state had arrived (split-readiness flag).
    pub ready: bool,
    /// The packet sequence counter at snapshot time.
    pub seq: u64,
    /// The grid auto-tuner's learned state (`None` when the primary
    /// runs a static grid).
    pub tuner: Option<TunerState>,
    /// Connected clients and their sessions.
    pub clients: BTreeMap<K, SessionState>,
    /// Per-client dead-reckoning bases, one `(entity, basis)` per
    /// visible entity: what the receiver extrapolates that entity from.
    /// Replicated so a promoted standby keeps suppressing consistently
    /// with what the receivers actually hold, instead of rebasing (and
    /// retransmitting) every visible entity at failover. Empty when
    /// prediction is off.
    pub bases: BTreeMap<K, Vec<(u64, Basis)>>,
}

impl<K: Ord> Default for RegionSnapshot<K> {
    fn default() -> Self {
        RegionSnapshot {
            range: None,
            radius: 0.0,
            ready: false,
            seq: 0,
            tuner: None,
            clients: BTreeMap::new(),
            bases: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> RegionSnapshot<K> {
    /// Connected client count.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Applies one incremental op, keeping the snapshot current with the
    /// primary's session state.
    ///
    /// Ops cover only *session* state (who is connected, where, what
    /// range); prediction bases ride on full snapshots and are dropped
    /// here for a client whose connection restarted or ended.
    pub fn apply(&mut self, op: &ReplicaOp<K>) {
        match *op {
            ReplicaOp::Join {
                client,
                pos,
                state_bytes,
            } => {
                self.clients
                    .insert(client, SessionState { pos, state_bytes });
                // A (re)joined connection extrapolates from nothing.
                self.bases.remove(&client);
            }
            ReplicaOp::Move { client, pos } => {
                if let Some(s) = self.clients.get_mut(&client) {
                    s.pos = pos;
                }
            }
            ReplicaOp::Leave { client } => {
                self.clients.remove(&client);
                self.bases.remove(&client);
            }
            ReplicaOp::Range { range, radius } => {
                self.range = Some(range);
                if radius > 0.0 {
                    self.radius = radius;
                }
                self.ready = true;
            }
        }
    }

    /// Estimated wire size in bytes, used for replication-overhead
    /// accounting (coordinates as 8-byte floats, ids as 8 bytes, small
    /// framing constants).
    pub fn wire_bytes(&self) -> usize {
        let header = 40; // version, seq, flags, range, radius
        let clients = self.clients.len() * 32; // id + pos + state size
        let bases: usize = self
            .bases
            .values()
            .map(|v| 16 + v.len() * 48) // id + per basis: entity + pos + vel + time
            .sum();
        header + clients + bases
    }
}

/// One incremental replication op: a session-state mutation on the
/// primary, shipped to keep the standby's snapshot current between full
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaOp<K> {
    /// A client joined (or re-joined) the region.
    Join {
        /// The client.
        client: K,
        /// Join position.
        pos: Point,
        /// Serialised session-state size in bytes.
        state_bytes: u64,
    },
    /// A client moved.
    Move {
        /// The client.
        client: K,
        /// New position.
        pos: Point,
    },
    /// A client left (or was redirected away).
    Leave {
        /// The client.
        client: K,
    },
    /// The managed range or radius changed (splits, reclaims, absorbs).
    Range {
        /// The new range.
        range: Rect,
        /// Radius of visibility (`0.0` = unchanged).
        radius: f64,
    },
}

impl<K> ReplicaOp<K> {
    /// Estimated wire size in bytes for overhead accounting.
    pub fn wire_bytes(&self) -> usize {
        match self {
            ReplicaOp::Join { .. } => 33,
            ReplicaOp::Move { .. } => 25,
            ReplicaOp::Leave { .. } => 9,
            ReplicaOp::Range { .. } => 41,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> RegionSnapshot<u64> {
        let mut s = RegionSnapshot::default();
        s.apply(&ReplicaOp::Range {
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            radius: 10.0,
        });
        s.apply(&ReplicaOp::Join {
            client: 1,
            pos: Point::new(5.0, 5.0),
            state_bytes: 64,
        });
        s
    }

    #[test]
    fn ops_maintain_session_state() {
        let mut s = snap();
        assert_eq!(s.client_count(), 1);
        s.apply(&ReplicaOp::Move {
            client: 1,
            pos: Point::new(6.0, 5.0),
        });
        assert_eq!(s.clients[&1].pos, Point::new(6.0, 5.0));
        // Prediction bases die with the connection they describe: on a
        // rejoin and on a leave.
        let basis = Basis {
            pos: Point::new(1.0, 1.0),
            vel: (0.0, 0.0),
            time: 0.0,
        };
        s.bases.insert(1, vec![(2, basis)]);
        s.apply(&ReplicaOp::Join {
            client: 1,
            pos: Point::new(7.0, 7.0),
            state_bytes: 64,
        });
        assert!(s.bases.is_empty(), "a rejoin extrapolates from nothing");
        s.bases.insert(1, vec![(2, basis)]);
        s.apply(&ReplicaOp::Leave { client: 1 });
        assert_eq!(s.client_count(), 0);
        assert!(s.bases.is_empty());
    }

    #[test]
    fn moves_of_unknown_clients_are_tolerated() {
        let mut s = snap();
        s.apply(&ReplicaOp::Move {
            client: 99,
            pos: Point::new(1.0, 1.0),
        });
        assert_eq!(s.client_count(), 1, "stale op after a leave is a no-op");
    }

    #[test]
    fn wire_size_grows_with_content() {
        let empty = RegionSnapshot::<u64>::default().wire_bytes();
        let filled = snap().wire_bytes();
        assert!(filled > empty);
        assert!(ReplicaOp::<u64>::Leave { client: 1 }.wire_bytes() > 0);
    }
}
