//! Fault tolerance for the Matrix middleware: region snapshots and
//! warm-standby replication.
//!
//! The paper's adaptivity story ends at *detection*: when the
//! coordinator's liveness sweep declares a server dead it can hand the
//! orphaned range to a neighbour, but every client session, position and
//! delta stream hosted on the dead node is lost. This crate supplies the
//! missing layer — the one related sync middleware treats as the
//! backbone of availability (Jacob et al., *A Glimpse of the Matrix*;
//! Arslan's service-oriented MMOG regions as restartable,
//! state-transferable units):
//!
//! * [`RegionSnapshot`] — the durable, transferable image of one game
//!   server's region: connected clients with positions and session
//!   state sizes, the managed range, the grid tuner's learned state and
//!   the per-client dead-reckoning bases. Promoting a standby from it
//!   reproduces the region's client set and receiver sets; every delta
//!   stream restarts with a keyframe and the update queues start empty.
//! * [`ReplicaOp`] / [`ReplicaBatch`] — the incremental log entries a
//!   primary ships between full snapshots: joins, moves, leaves and
//!   range changes, enough to keep a standby's snapshot current.
//! * [`ReplicaLog`] — the primary-side shipping policy: a full snapshot
//!   until the standby acknowledges one, then ops on a configurable
//!   interval (`replica_interval`), force-shipped when the unshipped
//!   backlog exceeds the caller's lag cap, with ack/resync tracking.
//! * [`ReplicaReceiver`] — the standby side: applies batches in
//!   sequence, requests a resync on any gap, and surrenders the
//!   snapshot at promotion time.
//!
//! Like `matrix-interest`, everything here is generic over the client
//! key and independent of the middleware's message taxonomy:
//! `matrix-core` instantiates it with `ClientId` and wraps batches in
//! peer messages (`PeerMsg::Replica`), which the driver's transport
//! carries as values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log;
mod receiver;
mod snapshot;

pub use log::{ReplicaBatch, ReplicaLog, ReplicaLogStats, ReplicaPayload};
pub use receiver::{ReplicaApply, ReplicaReceiver};
pub use snapshot::{RegionSnapshot, ReplicaOp, SessionState, TunerState};
