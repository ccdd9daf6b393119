//! # matrix-core — the Matrix adaptive game middleware
//!
//! A reproduction of the middleware described in *Balan, Ebling, Castro,
//! Misra: "Matrix: Adaptive Middleware for Distributed Multiplayer Games"*
//! (Middleware 2005). Matrix scales a massively multiplayer game across a
//! dynamic fleet of servers by:
//!
//! * partitioning the game world into per-server rectangles,
//! * routing **spatially tagged** packets to each point's *consistency
//!   set* through O(1) overlap-table lookups ([`MatrixServer`]),
//! * recomputing those tables centrally on topology changes
//!   ([`Coordinator`]),
//! * **splitting** overloaded partitions onto servers drawn from a
//!   [`ResourcePool`] and **reclaiming** underloaded children, with
//!   hysteresis against oscillation,
//! * redirecting clients transparently during splits, reclaims and
//!   roaming ([`GameServerNode`]),
//! * **interest management** inside each game server: an incremental
//!   spatial-hash [`InterestGrid`] answers "which local clients can see
//!   this event" in O(cells + matches) instead of scanning every
//!   client, with a per-client vision radius
//!   (`GameServerConfig::vision_radius`) distinct from the
//!   consistency-set radius — or a multi-tier AOI of concentric
//!   [`RingSet`] vision rings (`ring_radii` / `ring_sample_rates`:
//!   near = every event, outer tiers deterministically sampled) — and
//!   an [`UpdateBatcher`] that coalesces client-bound updates into
//!   `GameToClient::UpdateBatch` messages on a configurable flush
//!   interval (`batch_interval`), with bandwidth accounting in
//!   [`GameStats`],
//! * **adaptive per-client dissemination** on every batch flush,
//!   composed as an explicit [`DisseminationPipeline`]: a
//!   [`FlushPolicy`] ranks pending items by relevance and merges/drops
//!   the farthest first to fit the `max_updates_per_flush` /
//!   `client_budget_bytes` budgets, and a [`DeltaEncoder`] compresses
//!   item origins into exact deltas (a [`BatchItem`] whose
//!   [`EncodedOrigin`] is an offset) with periodic keyframes
//!   (`keyframe_every`) and resync on join/handover — receivers rebuild
//!   absolute positions with [`reconstruct_updates`]. A density-driven
//!   [`AutoTuner`] (`grid_autotune`) re-picks the grid resolution as
//!   regions fill and drain, and replicates its learned state to warm
//!   standbys.
//!
//! Every component is a **sans-io state machine**: handlers take one input
//! message and return the actions to perform. A [`Host`] owns one
//! machine's game server and Matrix server and is the only code that
//! carries their actions to each other: [`Host::step`] takes a
//! [`HostInput`], runs the pair to quiescence and returns what leaves the
//! machine as [`Outbound`] entries. The discrete-event harness
//! (`matrix-experiments`) and the tokio runtime (`matrix-rt`) both call
//! that one `step` and supply only a transport, so simulation results and
//! deployments cannot drift apart.
//!
//! # Example
//!
//! Route one boundary packet between two servers:
//!
//! ```
//! use matrix_core::{Action, MatrixConfig, MatrixServer, GameToMatrix, PeerMsg};
//! use matrix_core::{ClientId, GamePacket, SpatialTag, CoordReply};
//! use matrix_geometry::{build_overlap, Metric, PartitionMap, Point, Rect, ServerId, SplitStrategy};
//! use matrix_sim::SimTime;
//!
//! // Two servers split the world; the coordinator's tables are installed.
//! let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
//! let mut map = PartitionMap::new(world, ServerId(1));
//! map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[]).unwrap();
//! let overlap = build_overlap(&map, 50.0, Metric::Euclidean);
//!
//! let mut s1 = MatrixServer::with_range(
//!     ServerId(1), MatrixConfig::default(), map.range_of(ServerId(1)).unwrap(), 50.0);
//! s1.on_coord(SimTime::ZERO, CoordReply::Tables {
//!     epoch: 1,
//!     table: overlap.table_for(ServerId(1)).unwrap().clone(),
//!     extra_tables: vec![],
//!     map: map.clone(),
//! });
//!
//! // A packet near the boundary is routed to the neighbour.
//! let pkt = GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(210.0, 200.0)), 64, 0);
//! let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt));
//! assert!(matches!(&actions[0], Action::ToPeer(s, PeerMsg::Update(_)) if *s == ServerId(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codec_v2;
mod config;
mod coordinator;
mod gameserver;
mod host;
mod load;
mod messages;
mod packet;
mod pool;
mod server;

pub use config::{CoordinatorConfig, GameServerConfig, MatrixConfig, WireCodec};
pub use coordinator::{CoordAction, Coordinator, CoordinatorStats};
pub use gameserver::{GameAction, GameServerNode, GameStats};
pub use host::{Host, HostInput, LocalDelivery, Outbound};
pub use load::{Cooldown, LoadTracker};
pub use messages::{
    reconstruct_updates, BatchItem, ClientToGame, CoordMsg, CoordReply, GameToClient, GameToMatrix,
    LoadReport, LoadSnapshot, MatrixToGame, PeerMsg, PoolMsg, PoolPurpose, PoolReply,
    RegionSnapshot, ReplicaBatch, ReplicaOp, UpdateItem,
};
pub use packet::{ClientId, GamePacket, SpatialTag};
pub use pool::{PoolStats, ResourcePool};
pub use server::{Action, Lifecycle, MatrixServer, ServerStats};

// Re-export the interest-management subsystem at the API boundary: game
// servers own an `InterestGrid` and drivers may want to query it; the
// delta codec and flush policy are reused by clients and test suites.
pub use matrix_interest::{
    quantize, AutoTuner, AutoTunerConfig, DeltaEncoder, Disseminated, DisseminationPipeline,
    EncodedOrigin, FlushPolicy, InterestGrid, PipelineConfig, PolicyScratch, RingSampler, RingSet,
    UpdateBatcher, ANON_ENTITY, MAX_RINGS,
};

// Re-export the dead-reckoning subsystem: receivers run an
// `Extrapolator` between flushes, and the sender-side pieces are reused
// by the property suites and the predict experiment.
pub use matrix_interest::{
    extrapolate, quantize_velocity, Admission, Basis, Extrapolator, MotionModel, PredictedStream,
    PredictorConfig,
};

// Re-export the replication subsystem's moving parts: drivers inspect
// batches and snapshots, and the standby/primary state machines are
// reused by the runtime and the property suites.
pub use matrix_replication::{
    ReplicaApply, ReplicaLog, ReplicaLogStats, ReplicaPayload, ReplicaReceiver, SessionState,
};

// Re-export the telemetry plane: drivers assemble and merge
// `TelemetrySnapshot`s, read the coordinator's flight recorder, and
// render Prometheus text from them.
pub use matrix_telemetry::{
    diag_line, emit_diag, render_prometheus, EventKind, FlightRecorder, HistSnapshot, Histogram,
    SloTargets, SloTracker, Stage, StageSpans, TelemetryEvent, TelemetrySnapshot, TraceTag,
    BURN_ONE_BP, SLO_RINGS,
};

// Re-export the spatial vocabulary users need at the API boundary.
pub use matrix_geometry::{Metric, Point, Rect, ServerId, SplitStrategy};
