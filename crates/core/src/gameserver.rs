//! The game-server node: the developer-provided half of a Matrix
//! deployment, emulated.
//!
//! §3.2.2 defines the contract a game server must fulfil: identify players
//! globally, forward spatially tagged packets to the local Matrix server,
//! report load periodically, and obey redirect/state-transfer instructions
//! during splits and reclaims. [`GameServerNode`] implements exactly that
//! contract and nothing else — game logic stays in the workload crates,
//! mirroring how Matrix "supports the distributed operation of various
//! MMOGs without actually needing to understand the game logic".

use crate::codec_v2::{self, BatchWriter};
use crate::config::GameServerConfig;
use crate::messages::{
    BatchItem, ClientToGame, GameToClient, GameToMatrix, LoadReport, MatrixToGame, RegionSnapshot,
    ReplicaOp, UpdateItem,
};
use crate::packet::{ClientId, GamePacket, SpatialTag};
use bytes::Bytes;
use matrix_geometry::{Point, Rect, ServerId};
use matrix_interest::{
    AutoTunerConfig, DisseminationPipeline, EncodedOrigin, FlushPolicy, PipelineConfig,
    PredictorConfig, RingSet, MAX_RINGS,
};
use matrix_replication::{ReplicaLog, ReplicaReceiver, SessionState, TunerState};
use matrix_sim::SimTime;
use matrix_telemetry::{EventKind, FlightRecorder, Histogram, Stage, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Backlog bound for the replica log: once this many session ops queue
/// unshipped, a batch ships at once regardless of `replica_interval`,
/// which caps standby staleness under bursty load.
const REPLICA_LAG_CAP: u32 = 256;

/// Payload of a movement packet: position + orientation + velocity.
const MOVE_BYTES: usize = 32;

/// Capacity of a node's flight-recorder ring, in events; the oldest are
/// evicted (and counted) once it fills.
const RECORDER_EVENTS: usize = 256;

/// An effect the game server asks its driver to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum GameAction {
    /// Send to the co-located Matrix server.
    ToMatrix(GameToMatrix),
    /// Send to a connected client.
    ToClient(ClientId, GameToClient),
}

/// Counters for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GameStats {
    /// Clients that joined (including re-joins after switches).
    pub joins: u64,
    /// Clients that left voluntarily.
    pub leaves: u64,
    /// Movement packets processed.
    pub moves: u64,
    /// Action packets processed.
    pub actions: u64,
    /// Updates delivered from peer servers via Matrix.
    pub remote_updates: u64,
    /// Client-bound update fan-outs generated (or counted, when fan-out
    /// emission is disabled).
    pub updates_fanned: u64,
    /// Clients redirected away (splits, reclaims, roaming).
    pub redirects_out: u64,
    /// Per-client states received ahead of incoming switches.
    pub client_states_in: u64,
    /// Bulk state bytes received (split bootstrap).
    pub state_bytes_in: u64,
    /// Owner queries sent for roaming clients.
    pub whereis_queries: u64,
    /// Joins accepted before the bulk state transfer finished (measures
    /// the split readiness gap).
    pub joins_before_ready: u64,
    /// `UpdateBatch` messages flushed to clients.
    pub batches_flushed: u64,
    /// Individual updates carried inside those batches.
    pub updates_batched: u64,
    /// Estimated bytes of client-bound batch traffic (headers + items +
    /// payloads) — the bandwidth the interest/batching layer accounts for.
    pub batch_bytes: u64,
    /// Updates discarded because their client left or switched away
    /// before the flush.
    pub updates_dropped: u64,
    /// Updates merged or dropped by the per-client flush policy
    /// (`max_updates_per_flush` / `client_budget_bytes`): the graceful
    /// degradation the rate limiter applied instead of queueing.
    pub updates_rate_limited: u64,
    /// Absolute (keyframe) items flushed to clients.
    pub keyframe_items: u64,
    /// Delta-encoded items flushed to clients.
    pub delta_items: u64,
    /// Bytes saved by delta-encoding item origins, relative to sending
    /// every item with absolute coordinates.
    pub delta_bytes_saved: u64,
    /// Replication batches shipped to the warm standby.
    pub replica_batches_out: u64,
    /// Estimated bytes of replication traffic shipped — the overhead
    /// fault tolerance costs on the server link.
    pub replica_bytes_out: u64,
    /// Replication acks received from the standby.
    pub replica_acks_in: u64,
    /// Replication batches applied while standing by for a primary.
    pub replica_batches_in: u64,
    /// Resyncs this node requested as a standby (sequence gaps).
    pub replica_resyncs: u64,
    /// Promotions performed: this node took over a dead primary's
    /// region from its replicated snapshot.
    pub promotions: u64,
    /// Client sessions restored from replicated snapshots during
    /// promotions (these clients kept their connection).
    pub clients_restored: u64,
    /// Candidate receivers inside the AOI whose outer vision ring
    /// sampled an event out (multi-tier AOI: far rings deliver every
    /// N-th event instead of all of them).
    pub updates_sampled_out: u64,
    /// Delivered batch items per vision ring (index 0 = near ring; with
    /// rings disabled everything lands in ring 0).
    pub ring_items: [u64; MAX_RINGS],
    /// Times the density-driven auto-tuner re-picked `cells_per_axis`
    /// and rebuilt the interest grid.
    pub grid_retunes: u64,
    /// Candidate deliveries suppressed by dead reckoning: the
    /// receiver's extrapolation held the event within its ring's error
    /// budget, so nothing was transmitted (predictive dissemination).
    pub updates_suppressed: u64,
    /// Batch items degraded to position-only by the per-ring payload
    /// policy (`position_only_ring`).
    pub payloads_stripped: u64,
    /// Sum of the simulated receiver prediction errors over all
    /// suppressed deliveries, world units —
    /// `pred_error_sum / updates_suppressed` is the mean error the
    /// predictions absorbed in place of a transmission.
    pub pred_error_sum: f64,
    /// Largest simulated receiver prediction error among the suppressed
    /// deliveries (bounded by the largest configured ring budget).
    pub pred_error_max: f64,
}

impl GameStats {
    /// Folds another node's counters into these for a cluster-wide
    /// total: every counter adds, `pred_error_max` keeps the larger.
    pub fn absorb(&mut self, other: &GameStats) {
        // Destructured, so a new field cannot be left out of the total.
        macro_rules! add {
            ($($field:ident),*) => {
                let GameStats { $($field,)* ring_items: _, pred_error_max: _ } = *other;
                $(self.$field += $field;)*
            };
        }
        add! {
            joins, leaves, moves, actions, remote_updates, updates_fanned, redirects_out,
            client_states_in, state_bytes_in, whereis_queries, joins_before_ready,
            batches_flushed, updates_batched, batch_bytes, updates_dropped,
            updates_rate_limited, keyframe_items, delta_items, delta_bytes_saved,
            replica_batches_out, replica_bytes_out, replica_acks_in, replica_batches_in,
            replica_resyncs, promotions, clients_restored, updates_sampled_out, grid_retunes,
            updates_suppressed, payloads_stripped, pred_error_sum
        }
        for (total, ring) in self.ring_items.iter_mut().zip(other.ring_items) {
            *total += ring;
        }
        self.pred_error_max = self.pred_error_max.max(other.pred_error_max);
    }
}

/// One client's batch as `flush_updates` builds it (the pipeline's
/// per-batch accumulator): the wire bytes, and what it counts on the way.
#[derive(Debug)]
struct BatchTally {
    items: BatchWriter,
    keyframe_items: u64,
    ring_items: [u64; MAX_RINGS],
    /// Declared payload sizes, summed.
    payload_bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ClientRecord {
    pos: Point,
    state_bytes: u64,
    /// Set while an owner query is in flight so one roaming client does
    /// not flood WhereIs.
    resolving: bool,
}

/// The emulated game server. Drive it with `on_client`, `on_matrix` and
/// `on_tick`; it never talks to anything but its clients and its local
/// Matrix server.
#[derive(Debug, Clone)]
pub struct GameServerNode {
    id: ServerId,
    cfg: GameServerConfig,
    radius: f64,
    range: Option<Rect>,
    clients: BTreeMap<ClientId, ClientRecord>,
    /// The composable dissemination pipeline: interest grid → ring
    /// tiering → entity merge → budget policy → delta encoding, plus the
    /// density-driven grid auto-tuner. Owns all per-client send-path
    /// state (spatial index, pending batches, delta streams).
    pipeline: DisseminationPipeline<ClientId, UpdateItem>,
    /// Warm standby this region replicates to, once the Matrix server
    /// paired one from the pool.
    standby: Option<ServerId>,
    /// Primary-side replica shipping policy and backlog.
    replica: ReplicaLog<ClientId>,
    /// Standby-side replica state (this node mirroring a peer).
    receiver: ReplicaReceiver<ClientId>,
    last_flush: SimTime,
    ready: bool,
    ticks: u64,
    seq: u64,
    /// Ingested-event counter driving the deterministic trace sampling
    /// decision (`trace_sample_rate`). Counts *every* fan-out source —
    /// local moves/actions and remote deliveries — so a 1-in-N rate
    /// means 1-in-N of the events this node disseminates.
    ingest_seq: u64,
    /// Traced events stamped at ingest (0 with tracing off).
    trace_events: u64,
    /// Trace acks folded back from receivers.
    trace_acks: u64,
    /// Per-ring end-to-end delivery latency from echoed trace acks (µs).
    trace_latency: [Histogram; MAX_RINGS],
    /// Per-ring staleness-at-apply from echoed trace acks (µs): latency
    /// plus the charged age of suppressed/dropped predecessors.
    trace_staleness: [Histogram; MAX_RINGS],
    stats: GameStats,
    /// Structured event ring (joins, handovers, promotions, retunes);
    /// zero-capacity (a no-op) unless `cfg.telemetry` is on.
    recorder: FlightRecorder,
    /// Wall-clock latency of `flush_updates` (µs); empty with telemetry
    /// off.
    flush_hist: Histogram,
    /// The zero payload forwarded events carry, shared by every event of
    /// its size: Matrix never reads payload bytes, only their length.
    zero_payload: Bytes,
}

impl GameServerNode {
    /// Creates a node that has not yet registered or received a range.
    pub fn new(id: ServerId, cfg: GameServerConfig) -> GameServerNode {
        GameServerNode {
            id,
            radius: 0.0,
            range: None,
            clients: BTreeMap::new(),
            pipeline: Self::make_pipeline(Rect::from_coords(0.0, 0.0, 1.0, 1.0), &cfg, 0.0),
            standby: None,
            replica: ReplicaLog::new(cfg.replica_interval, REPLICA_LAG_CAP),
            receiver: ReplicaReceiver::new(),
            last_flush: SimTime::ZERO,
            ready: false,
            ticks: 0,
            seq: 0,
            ingest_seq: 0,
            trace_events: 0,
            trace_acks: 0,
            trace_latency: std::array::from_fn(|_| Histogram::new()),
            trace_staleness: std::array::from_fn(|_| Histogram::new()),
            stats: GameStats::default(),
            recorder: FlightRecorder::new(if cfg.telemetry { RECORDER_EVENTS } else { 0 }),
            flush_hist: Histogram::new(),
            zero_payload: Bytes::new(),
            cfg,
        }
    }

    /// Enables per-client update emission (used by the async runtime
    /// where clients are real connections).
    pub fn with_fanout(mut self) -> GameServerNode {
        self.cfg.emit_updates = true;
        self
    }

    fn make_pipeline(
        bounds: Rect,
        cfg: &GameServerConfig,
        registered_radius: f64,
    ) -> DisseminationPipeline<ClientId, UpdateItem> {
        let mut pipeline = DisseminationPipeline::new(
            bounds,
            cfg.cells_per_axis.max(1),
            Self::ring_set_for(cfg, registered_radius),
            PipelineConfig {
                metric: cfg.metric,
                policy: FlushPolicy {
                    // A batch holds at most `MAX_BATCH_ITEMS` items (its
                    // trace entries index them with a u16), unlimited
                    // included: the surplus is rate-limited here like
                    // any other policy drop, before stage 5 writes it.
                    max_items: match cfg.max_updates_per_flush as usize {
                        0 => codec_v2::MAX_BATCH_ITEMS,
                        cap => cap.min(codec_v2::MAX_BATCH_ITEMS),
                    },
                    budget_bytes: cfg.client_budget_bytes as usize,
                },
                // The encoder's lattice check must match the quantum
                // fan_out snaps origins to, or the two silently diverge
                // and every item keyframes (0.0 disables both the
                // snapping and the lattice requirement).
                keyframe_every: cfg.keyframe_every,
                origin_quantum: cfg.origin_quantum,
                autotune: AutoTunerConfig {
                    enabled: cfg.grid_autotune,
                },
                predict: if cfg.predict {
                    PredictorConfig {
                        velocity_quantum: cfg.velocity_quantum,
                        ..PredictorConfig::with_budgets(&cfg.error_budgets)
                    }
                } else {
                    PredictorConfig::default()
                },
                position_only_ring: cfg.position_only_ring,
                telemetry: cfg.telemetry,
            },
        );
        // Staleness charging (suppressed/dropped event ages charged to
        // the next delivered rebase) only runs when events can actually
        // carry tags — with sampling off the charge maps stay untouched
        // and the flush path is branch-for-branch what it was.
        pipeline.set_trace_charging(cfg.trace_sample_rate > 0);
        pipeline
    }

    /// The AOI tiers for a config: the configured concentric rings, or
    /// the single binary vision radius when none are set.
    fn ring_set_for(cfg: &GameServerConfig, registered_radius: f64) -> RingSet {
        if cfg.rings_configured() {
            RingSet::from_tiers(&cfg.ring_radii, &cfg.ring_sample_rates)
        } else {
            let vision = if cfg.vision_radius > 0.0 {
                cfg.vision_radius
            } else {
                registered_radius
            };
            RingSet::single(vision)
        }
    }

    /// Re-anchors the pipeline's interest grid to a new managed range,
    /// re-indexing the connected clients, and refreshes the ring tiers
    /// (the registered radius may have changed with the range). Splits
    /// and reclaims are rare; moves are not — so the grid is rebuilt
    /// here and edited incrementally everywhere else.
    fn rebuild_grid(&mut self, bounds: Rect) {
        self.pipeline.reset(
            bounds,
            self.clients.iter().map(|(cid, rec)| (*cid, rec.pos)),
        );
        self.pipeline
            .set_rings(Self::ring_set_for(&self.cfg, self.radius));
    }

    /// Developer API entry point: register the game with Matrix
    /// (the bootstrap server calls this once at startup).
    pub fn register(&mut self, world: Rect, radius: f64) -> Vec<GameAction> {
        self.radius = radius;
        self.range = Some(world);
        self.ready = true;
        self.rebuild_grid(world);
        self.replicate(ReplicaOp::Range {
            range: world,
            radius,
        });
        vec![GameAction::ToMatrix(GameToMatrix::Register {
            world,
            radius,
            metric: self.cfg.metric,
        })]
    }

    /// Records one session op for the warm standby (a no-op until a
    /// standby is paired: the pairing's first batch is a full snapshot,
    /// which supersedes anything recorded before it).
    fn replicate(&mut self, op: ReplicaOp) {
        if self.standby.is_some() {
            self.replica.record(op);
        }
    }

    // -- accessors -----------------------------------------------------------

    /// This node's server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Connected client count.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The map range this server manages.
    pub fn range(&self) -> Option<Rect> {
        self.range
    }

    /// Whether bulk state has arrived (fresh split children start false).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Counters for experiments.
    pub fn stats(&self) -> &GameStats {
        &self.stats
    }

    /// The structured-event flight recorder (empty ring unless
    /// [`GameServerConfig::telemetry`] is on).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Assembles this node's telemetry snapshot: hot-path counters,
    /// per-stage span histograms, flush latency and flight-recorder
    /// occupancy. `None` with telemetry off — reports stay exactly as
    /// cheap as before the telemetry plane existed.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.cfg.telemetry {
            return None;
        }
        let mut snap = TelemetrySnapshot::new();
        snap.counter("joins", self.stats.joins);
        snap.counter("moves", self.stats.moves);
        snap.counter("actions", self.stats.actions);
        snap.counter("updates_fanned", self.stats.updates_fanned);
        snap.counter("batches_flushed", self.stats.batches_flushed);
        snap.counter("updates_batched", self.stats.updates_batched);
        snap.counter("batch_bytes", self.stats.batch_bytes);
        snap.counter("updates_suppressed", self.stats.updates_suppressed);
        snap.counter("updates_sampled_out", self.stats.updates_sampled_out);
        snap.counter("grid_retunes", self.stats.grid_retunes);
        snap.counter("promotions", self.stats.promotions);
        for stage in Stage::ALL {
            let h = self.pipeline.spans().histogram(stage);
            snap.hist(format!("stage_{}_us", stage.name()), h);
        }
        snap.hist("flush_us", &self.flush_hist);
        // The causal trace plane: stamped/acked volumes and the per-ring
        // end-to-end freshness histograms the coordinator's SLO tracker
        // consumes. Omitted entirely while tracing never ran, keeping
        // tracing-off snapshots identical to pre-trace ones.
        if self.trace_events > 0 || self.trace_acks > 0 {
            snap.counter("trace_events", self.trace_events);
            snap.counter("trace_acks", self.trace_acks);
            for ring in 0..MAX_RINGS {
                snap.hist(
                    format!("delivery_latency_r{ring}_us"),
                    &self.trace_latency[ring],
                );
                snap.hist(format!("staleness_r{ring}_us"), &self.trace_staleness[ring]);
            }
        }
        snap.counter("recorder_capacity", self.recorder.capacity() as u64);
        snap.events_dropped = self.recorder.dropped();
        snap.events_seen = self.recorder.next_seq();
        Some(snap)
    }

    /// Per-ring end-to-end freshness measured from echoed trace acks:
    /// `(delivery latency, staleness at apply)` histograms in µs, index
    /// = vision ring. Empty histograms until traced items were applied
    /// and acked.
    pub fn trace_histograms(&self) -> (&[Histogram; MAX_RINGS], &[Histogram; MAX_RINGS]) {
        (&self.trace_latency, &self.trace_staleness)
    }

    /// Traced events stamped at ingest so far (`0` with tracing off).
    pub fn trace_events(&self) -> u64 {
        self.trace_events
    }

    /// Trace acks received back from clients so far.
    pub fn trace_acks(&self) -> u64 {
        self.trace_acks
    }

    /// Positions of all connected clients (for tests and load-aware
    /// experiments).
    pub fn client_positions(&self) -> Vec<Point> {
        self.clients.values().map(|c| c.pos).collect()
    }

    /// Ids of all connected clients (failure probes snapshot the victim's
    /// population with this).
    pub fn client_ids(&self) -> Vec<ClientId> {
        self.clients.keys().copied().collect()
    }

    /// Whether a specific client is connected here.
    pub fn has_client(&self, client: ClientId) -> bool {
        self.clients.contains_key(&client)
    }

    // -- client input ----------------------------------------------------------

    /// Handles a message from a game client.
    pub fn on_client(
        &mut self,
        now: SimTime,
        client: ClientId,
        msg: ClientToGame,
    ) -> Vec<GameAction> {
        match msg {
            ClientToGame::Join { pos, state_bytes } => {
                self.stats.joins += 1;
                if !self.ready {
                    self.stats.joins_before_ready += 1;
                }
                self.recorder.record(
                    now,
                    EventKind::Join {
                        client: client.0,
                        server: self.id,
                    },
                );
                self.clients.insert(
                    client,
                    ClientRecord {
                        pos,
                        state_bytes,
                        resolving: false,
                    },
                );
                // Subscribe also resyncs the delta stream: a (re)joining
                // client holds no base, so its next flush keyframes.
                self.pipeline.subscribe(client, pos);
                self.replicate(ReplicaOp::Join {
                    client,
                    pos,
                    state_bytes,
                });
                let mut out = vec![GameAction::ToClient(
                    client,
                    GameToClient::Joined { server: self.id },
                )];
                out.extend(self.check_roaming(client));
                out
            }
            ClientToGame::Move { pos } => {
                self.stats.moves += 1;
                let Some(rec) = self.clients.get_mut(&client) else {
                    return Vec::new(); // stale packet from a switched client
                };
                rec.pos = pos;
                self.pipeline.reposition(client, pos);
                self.replicate(ReplicaOp::Move { client, pos });
                let mut out = self.forward_event(client, pos, MOVE_BYTES);
                out.extend(self.fan_out(
                    now,
                    pos,
                    MOVE_BYTES,
                    Some(client),
                    client.0,
                    // A pure position update: receivers reconstruct it
                    // by extrapolation, so prediction may suppress it.
                    true,
                ));
                out.extend(self.check_roaming(client));
                out
            }
            ClientToGame::Action { pos, payload_bytes } => {
                self.stats.actions += 1;
                let Some(rec) = self.clients.get_mut(&client) else {
                    return Vec::new();
                };
                rec.pos = pos;
                self.pipeline.reposition(client, pos);
                self.replicate(ReplicaOp::Move { client, pos });
                let seq = self.seq;
                let mut out = self.forward_event(client, pos, payload_bytes);
                out.push(GameAction::ToClient(client, GameToClient::Ack { seq }));
                out.extend(self.fan_out(
                    now,
                    pos,
                    payload_bytes,
                    Some(client),
                    client.0,
                    // An action's payload cannot be extrapolated:
                    // never suppressed (it still rebases predictions).
                    false,
                ));
                out.extend(self.check_roaming(client));
                out
            }
            ClientToGame::TraceAck {
                ring,
                latency_us,
                staleness_us,
            } => {
                // Close the causal loop: the receiver measured one
                // sampled item end-to-end and echoed the numbers; fold
                // them into the per-ring freshness histograms the
                // heartbeat ships to the coordinator's SLO tracker.
                self.trace_acks += 1;
                let r = (ring as usize).min(MAX_RINGS - 1);
                self.trace_latency[r].record(latency_us as f64);
                self.trace_staleness[r].record(staleness_us as f64);
                Vec::new()
            }
            ClientToGame::Leave => {
                if self.clients.remove(&client).is_some() {
                    self.stats.leaves += 1;
                    self.stats.updates_dropped += self.pipeline.unsubscribe(client) as u64;
                    // The client is also an entity: drop its motion
                    // track and every receiver's prediction basis for it.
                    self.pipeline.forget_entity(client.0);
                    self.replicate(ReplicaOp::Leave { client });
                }
                Vec::new()
            }
        }
    }

    /// Spatially tags an event and forwards it to Matrix (§3.1).
    fn forward_event(
        &mut self,
        client: ClientId,
        pos: Point,
        payload_bytes: usize,
    ) -> Vec<GameAction> {
        let seq = self.seq;
        self.seq += 1;
        if self.zero_payload.len() != payload_bytes {
            self.zero_payload = Bytes::from(vec![0u8; payload_bytes]);
        }
        let pkt = GamePacket {
            client: Some(client),
            tag: SpatialTag::at(pos),
            payload: self.zero_payload.clone(),
            seq,
        };
        vec![GameAction::ToMatrix(GameToMatrix::Forward(pkt))]
    }

    /// Delivers an event to every local client whose area of interest
    /// contains it, through the pipeline's query + tiering + prediction
    /// stages: receivers come from the interest grid (O(cells + matches)
    /// instead of a scan over all clients), each is graded into its
    /// vision ring by distance, outer rings deterministically sample
    /// (near = every event), and — with `predict` on — receivers whose
    /// dead-reckoning extrapolation holds the event within the ring's
    /// error budget are *suppressed* entirely. Admitted updates coalesce
    /// per client and flush as `UpdateBatch` messages on the batch
    /// interval. Emission is optional; counting is not, because the
    /// fan-out volume is what loads a hotspot server.
    fn fan_out(
        &mut self,
        now: SimTime,
        origin: Point,
        payload_bytes: usize,
        exclude: Option<ClientId>,
        entity: u64,
        suppressible: bool,
    ) -> Vec<GameAction> {
        // Receivers are selected against the true origin; what they are
        // *told* is the lattice-snapped origin, so inter-origin offsets
        // fit the compact delta frame (see `matrix_interest::quantize`).
        // Prediction bases live in the same wire coordinates, which is
        // what makes the sender's error simulation equal the receiver's
        // real extrapolation error.
        let wire_origin = matrix_interest::quantize(origin, self.cfg.origin_quantum);
        // Trace stamping: a deterministic 1-in-`trace_sample_rate`
        // subset of ingested events carries a causal tag from here to
        // the receiving client's apply. Sim time, never wall clock, so
        // the sampled subset and every measured latency replay exactly.
        let ingest_seq = self.ingest_seq;
        self.ingest_seq += 1;
        let trace = if matrix_telemetry::TraceTag::sampled(ingest_seq, self.cfg.trace_sample_rate) {
            self.trace_events += 1;
            Some(matrix_telemetry::TraceTag::new(
                self.id.0,
                ingest_seq as u32,
                now.as_micros(),
            ))
        } else {
            None
        };
        let stats = self.pipeline.disseminate(
            origin,
            wire_origin,
            entity,
            now.as_secs_f64(),
            suppressible,
            exclude,
            self.cfg.emit_updates,
            |ring, (vx, vy)| UpdateItem {
                origin: wire_origin,
                payload_bytes,
                entity,
                ring,
                vx,
                vy,
                trace,
            },
        );
        self.stats.updates_fanned += stats.delivered;
        self.stats.updates_sampled_out += stats.sampled_out;
        self.stats.updates_suppressed += stats.suppressed;
        self.stats.payloads_stripped += stats.stripped;
        self.stats.pred_error_sum += stats.pred_error_sum;
        self.stats.pred_error_max = self.stats.pred_error_max.max(stats.pred_error_max);
        self.flush_if_due(now)
    }

    /// Flushes pending batches when the batch interval has elapsed.
    fn flush_if_due(&mut self, now: SimTime) -> Vec<GameAction> {
        if !self.pipeline.has_pending() || now.since(self.last_flush) < self.cfg.batch_interval {
            return Vec::new();
        }
        self.flush_updates(now)
    }

    /// Flushes every pending client-bound update batch immediately
    /// through the pipeline's merge → budget → encode stages
    /// ([`matrix_interest::DisseminationPipeline::flush`]): pending
    /// items are ranked nearest-first against each client's position,
    /// per-entity duplicates superseded and the farthest merged/dropped
    /// until `max_updates_per_flush` / `client_budget_bytes` fit, then
    /// surviving origins are chained as exact delta offsets with
    /// periodic keyframes, shrinking each item from
    /// [`UpdateItem::WIRE_BYTES`] to [`BatchItem::DELTA_WIRE_BYTES`] of
    /// framing. Each delivered item is written once — read out of the
    /// pipeline's event log, which holds one payload per event and ring
    /// however many receivers queued it, straight into the wire bytes
    /// the `UpdateBatch` carries (a [`codec_v2::WireBatch`], sized from
    /// the kept count: one allocation per receiver) — and ring and
    /// keyframe accounting ride in that same pass. Byte accounting is
    /// the bytes written.
    ///
    /// Drivers call this from their tick path (both the discrete-event
    /// harness and the async runtime tick through [`GameServerNode::on_tick`],
    /// which flushes due batches); exposing it publicly lets a driver
    /// force a flush. On a *graceful stop* use
    /// [`GameServerNode::shutdown_flush`] instead, which also clears the
    /// per-client delta bases.
    pub fn flush_updates(&mut self, now: SimTime) -> Vec<GameAction> {
        self.last_flush = now;
        if !self.pipeline.has_pending() {
            return Vec::new();
        }
        let t0 = self.cfg.telemetry.then(std::time::Instant::now);
        // A client may have switched away between queueing and flush:
        // the pipeline orphans its items instead of delivering them.
        let clients = &self.clients;
        // The pipeline's stage 5 hands each surviving item over with
        // its encoded origin; this writes its wire bytes and tallies the
        // batch in the same pass.
        let outcome = self.pipeline.flush(
            |cid| clients.get(&cid).map(|rec| rec.pos),
            |kept| BatchTally {
                items: BatchWriter::with_capacity(kept),
                keyframe_items: 0,
                ring_items: [0; MAX_RINGS],
                payload_bytes: 0,
            },
            |tally: &mut BatchTally, u: &UpdateItem, origin: EncodedOrigin| {
                tally.keyframe_items += u64::from(origin.is_keyframe());
                tally.ring_items[(u.ring as usize).min(MAX_RINGS - 1)] += 1;
                tally.payload_bytes += u.payload_bytes;
                tally.items.push(
                    origin,
                    u.payload_bytes,
                    u.entity,
                    u.ring,
                    (u.vx, u.vy),
                    u.trace,
                );
            },
        );
        self.stats.updates_dropped += outcome.orphaned;
        let mut out = Vec::with_capacity(outcome.batches.len());
        for batch in outcome.batches {
            let tally = batch.acc;
            let updates = tally.items.finish();
            let delta_items = updates.len() as u64 - tally.keyframe_items;
            self.stats.updates_rate_limited += batch.rate_limited;
            self.stats.batches_flushed += 1;
            self.stats.updates_batched += updates.len() as u64;
            self.stats.keyframe_items += tally.keyframe_items;
            self.stats.delta_items += delta_items;
            self.stats.delta_bytes_saved +=
                delta_items * (UpdateItem::WIRE_BYTES - BatchItem::DELTA_WIRE_BYTES) as u64;
            for (total, n) in self.stats.ring_items.iter_mut().zip(tally.ring_items) {
                *total += n;
            }
            // Bytes-on-wire accounting is *measured*, not modelled: the
            // frame is its overhead plus the body just written. Declared
            // payload sizes ride on top — the sim ships sizes, not state.
            let frame = codec_v2::frame_overhead(self.cfg.frame_crc) + updates.body().len();
            self.stats.batch_bytes += (frame + tally.payload_bytes) as u64;
            out.push(GameAction::ToClient(
                batch.receiver,
                GameToClient::UpdateBatch { updates },
            ));
        }
        if let Some(t0) = t0 {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.flush_hist.record(us);
            // Slow-flush capture: a flush is slow when it overran the
            // cadence it runs on. Its per-stage span breakdown goes into
            // the flight recorder — the post-mortem answers "which
            // stage" without re-running the workload.
            let cadence_us = match self.cfg.batch_interval.as_micros() {
                0 => self.cfg.tick.as_micros(),
                interval => interval,
            };
            if us as u64 >= cadence_us {
                self.recorder.record(
                    now,
                    EventKind::SlowFlush {
                        server: self.id,
                        total_us: us as u64,
                        stages: self.pipeline.spans().last_flush_us().map(|s| s as u64),
                    },
                );
            }
        }
        out
    }

    /// Final flush on a graceful driver stop: delivers what the batcher
    /// still holds *and* clears every per-client delta base, so a client
    /// that rejoins a resurrected node gets a keyframe, never a delta
    /// against a base it lost with the old connection.
    pub fn shutdown_flush(&mut self, now: SimTime) -> Vec<GameAction> {
        let out = self.flush_updates(now);
        self.pipeline.clear_streams();
        // Reconnecting clients extrapolate from nothing, so the
        // sender-side mirror must restart empty too.
        self.pipeline.clear_bases();
        out
    }

    /// Number of clients currently holding at least one dead-reckoning
    /// prediction basis (observability for drivers and tests).
    pub fn prediction_receivers(&self) -> usize {
        self.pipeline.prediction_receivers()
    }

    /// Number of clients whose delta stream currently holds a base
    /// (observability for drivers and tests).
    pub fn delta_streams(&self) -> usize {
        self.pipeline.streams()
    }

    /// Ships the next replication batch to the warm standby when one is
    /// due: a full snapshot until the standby acknowledges one (and
    /// after any resync request), incremental ops otherwise.
    fn ship_replica(&mut self, now: SimTime) -> Vec<GameAction> {
        let Some(standby) = self.standby else {
            return Vec::new();
        };
        if !self.replica.due(now) {
            return Vec::new();
        }
        let batch = if self.replica.needs_full() {
            let snapshot = self.snapshot();
            Some(self.replica.ship_full(now, snapshot))
        } else {
            self.replica.ship_ops(now)
        };
        let Some(batch) = batch else {
            return Vec::new(); // idle region, nothing to say
        };
        self.stats.replica_batches_out += 1;
        self.stats.replica_bytes_out += batch.wire_bytes() as u64;
        vec![GameAction::ToMatrix(GameToMatrix::Replica {
            to: standby,
            batch: Box::new(batch),
        })]
    }

    /// The warm standby currently paired with this region, if any.
    pub fn standby(&self) -> Option<ServerId> {
        self.standby
    }

    /// Whether this node holds a peer's replicated snapshot (it is a
    /// warm standby ready for promotion).
    pub fn is_warm_standby(&self) -> bool {
        self.receiver.is_warm()
    }

    /// Emits an owner query when `client` wandered outside our range.
    fn check_roaming(&mut self, client: ClientId) -> Vec<GameAction> {
        let Some(range) = self.range else {
            return Vec::new();
        };
        let Some(rec) = self.clients.get_mut(&client) else {
            return Vec::new();
        };
        let outside_by = range.distance_to(rec.pos, self.cfg.metric);
        if outside_by <= self.cfg.handoff_margin || rec.resolving {
            return Vec::new();
        }
        rec.resolving = true;
        self.stats.whereis_queries += 1;
        vec![GameAction::ToMatrix(GameToMatrix::WhereIs {
            client,
            point: rec.pos,
        })]
    }

    // -- matrix input ------------------------------------------------------------

    /// Handles an instruction from the co-located Matrix server.
    pub fn on_matrix(&mut self, now: SimTime, msg: MatrixToGame) -> Vec<GameAction> {
        match msg {
            MatrixToGame::SetRange { range, radius } => {
                self.range = Some(range);
                if radius > 0.0 {
                    self.radius = radius;
                }
                self.rebuild_grid(range);
                self.replicate(ReplicaOp::Range { range, radius });
                Vec::new()
            }
            MatrixToGame::RedirectClients { region, to } => self.redirect_region(region, to),
            MatrixToGame::RedirectAll { to } => self.redirect_clients(|_| true, to),
            MatrixToGame::Deliver(pkt) => {
                self.stats.remote_updates += 1;
                let origin = pkt.tag.dest.unwrap_or(pkt.tag.origin);
                let entity = pkt.client.map_or(0, |c| c.0);
                // Remote deliveries carry opaque payloads the local
                // server cannot classify: conservatively never
                // suppressed (cross-server prediction would need the
                // peer's motion history anyway).
                self.fan_out(now, origin, pkt.payload.len(), None, entity, false)
            }
            MatrixToGame::Owner {
                client,
                point: _,
                owner,
            } => {
                if let Some(rec) = self.clients.get_mut(&client) {
                    rec.resolving = false;
                }
                match owner {
                    Some(o) if o != self.id && self.clients.contains_key(&client) => {
                        self.switch_client(now, client, o)
                    }
                    _ => Vec::new(),
                }
            }
            MatrixToGame::ReceiveState { from: _, bytes } => {
                self.ready = true;
                self.stats.state_bytes_in += bytes;
                Vec::new()
            }
            MatrixToGame::ReceiveClient {
                from: _,
                client: _,
                bytes: _,
            } => {
                self.stats.client_states_in += 1;
                Vec::new()
            }
            MatrixToGame::SetStandby { standby } => {
                self.standby = Some(standby);
                // A fresh pairing starts from sequence 1 with a full
                // snapshot on the next tick.
                self.replica.reset();
                Vec::new()
            }
            MatrixToGame::ReplicaReset => {
                self.standby = None;
                self.replica.reset();
                self.receiver.clear();
                Vec::new()
            }
            MatrixToGame::ReplicaBatch { from, batch } => {
                self.stats.replica_batches_in += 1;
                let ack = self.receiver.apply(*batch);
                if ack.resync {
                    self.stats.replica_resyncs += 1;
                }
                vec![GameAction::ToMatrix(GameToMatrix::ReplicaAck {
                    to: from,
                    seq: ack.seq,
                    resync: ack.resync,
                })]
            }
            MatrixToGame::ReplicaAck { seq, resync } => {
                self.stats.replica_acks_in += 1;
                self.replica.ack(seq, resync);
                Vec::new()
            }
            MatrixToGame::Promote { range, radius } => self.promote(now, range, radius),
        }
    }

    /// Failover: adopt a dead primary's region from the replicated
    /// snapshot — sessions, tuner state and prediction bases — under
    /// the range the coordinator assigns. The restored clients stay
    /// connected: each gets a `SwitchServer` pointing here. A promoted
    /// node starts with no delta stream and no queue, so every client's
    /// first batch opens with a keyframe. The node's own config (vision
    /// radius, budgets, quantum) is kept.
    fn promote(&mut self, now: SimTime, range: Rect, radius: f64) -> Vec<GameAction> {
        if let Some(snap) = self.receiver.take() {
            self.stats.clients_restored += snap.client_count() as u64;
            if snap.radius > 0.0 {
                self.radius = snap.radius;
            }
            self.seq = self.seq.max(snap.seq);
            self.clients = snap
                .clients
                .iter()
                .map(|(cid, s)| {
                    (
                        *cid,
                        ClientRecord {
                            pos: s.pos,
                            state_bytes: s.state_bytes,
                            resolving: false,
                        },
                    )
                })
                .collect();
            if let Some(t) = snap.tuner {
                // Inherit the primary's tuned resolution *before* the
                // grid rebuild below, so the restored population is
                // indexed once, at the final resolution.
                self.pipeline.restore_tuner(t.cells, t.streak, t.pending);
            }
            // Unlike a delta base, a trailing prediction basis cannot
            // corrupt decode — it only mis-estimates error toward the
            // budget — and keeping it means the promoted region
            // suppresses consistently instead of retransmitting every
            // visible entity in its first flushes.
            self.pipeline.clear_bases();
            self.pipeline.import_bases(snap.bases);
        }
        self.range = Some(range);
        if radius > 0.0 {
            self.radius = radius;
        }
        self.ready = true;
        self.rebuild_grid(range);
        self.pipeline.clear_streams();
        self.pipeline.clear_pending();
        self.stats.promotions += 1;
        self.recorder
            .record(now, EventKind::Promotion { server: self.id });
        let clients: Vec<ClientId> = self.clients.keys().copied().collect();
        clients
            .into_iter()
            .map(|cid| GameAction::ToClient(cid, GameToClient::SwitchServer { to: self.id }))
            .collect()
    }

    // -- region snapshots --------------------------------------------------------

    /// Captures the region as a transferable [`RegionSnapshot`]: what a
    /// standby installs at promotion — clients and positions, range,
    /// tuner state and the dead-reckoning bases each receiver
    /// extrapolates from.
    pub fn snapshot(&self) -> RegionSnapshot {
        let mut snap = RegionSnapshot {
            range: self.range,
            radius: self.radius,
            ready: self.ready,
            seq: self.seq,
            bases: self.pipeline.export_bases().into_iter().collect(),
            ..RegionSnapshot::default()
        };
        for (cid, rec) in &self.clients {
            snap.clients.insert(
                *cid,
                SessionState {
                    pos: rec.pos,
                    state_bytes: rec.state_bytes,
                },
            );
        }
        // Ship the tuner state whenever there is something to inherit:
        // the tuner is live, or an earlier inheritance moved the grid
        // off the configured resolution.
        if self.pipeline.autotune_enabled()
            || self.pipeline.cells_per_axis() != self.cfg.cells_per_axis.max(1)
        {
            let (cells, streak, pending) = self.pipeline.tuner_state();
            snap.tuner = Some(TunerState {
                cells,
                streak,
                pending,
            });
        }
        snap
    }

    /// Split shedding: push out everyone inside `region`, plus one bulk
    /// state transfer to the new server (§3.2.2).
    fn redirect_region(&mut self, region: Rect, to: ServerId) -> Vec<GameAction> {
        let mut out = vec![GameAction::ToMatrix(GameToMatrix::TransferState {
            to,
            bytes: self.cfg.global_state_bytes,
        })];
        out.extend(self.redirect_clients(|rec| region.contains(rec.pos), to));
        out
    }

    fn redirect_clients(
        &mut self,
        mut pred: impl FnMut(&ClientRecord) -> bool,
        to: ServerId,
    ) -> Vec<GameAction> {
        let moving: Vec<(ClientId, ClientRecord)> = self
            .clients
            .iter()
            .filter(|(_, rec)| pred(rec))
            .map(|(c, r)| (*c, *r))
            .collect();
        let mut out = Vec::with_capacity(moving.len() * 2);
        for (client, rec) in moving {
            self.clients.remove(&client);
            self.stats.updates_dropped += self.pipeline.unsubscribe(client) as u64;
            self.pipeline.forget_entity(client.0);
            self.replicate(ReplicaOp::Leave { client });
            self.stats.redirects_out += 1;
            out.push(GameAction::ToMatrix(GameToMatrix::TransferClient {
                to,
                client,
                bytes: rec.state_bytes.max(self.cfg.client_state_bytes),
            }));
            out.push(GameAction::ToClient(
                client,
                GameToClient::SwitchServer { to },
            ));
        }
        out
    }

    fn switch_client(&mut self, now: SimTime, client: ClientId, to: ServerId) -> Vec<GameAction> {
        let Some(rec) = self.clients.remove(&client) else {
            return Vec::new();
        };
        self.recorder.record(
            now,
            EventKind::Handover {
                client: client.0,
                from: self.id,
                to,
            },
        );
        self.stats.updates_dropped += self.pipeline.unsubscribe(client) as u64;
        self.pipeline.forget_entity(client.0);
        self.replicate(ReplicaOp::Leave { client });
        self.stats.redirects_out += 1;
        vec![
            GameAction::ToMatrix(GameToMatrix::TransferClient {
                to,
                client,
                bytes: rec.state_bytes.max(self.cfg.client_state_bytes),
            }),
            GameAction::ToClient(client, GameToClient::SwitchServer { to }),
        ]
    }

    // -- timer input ----------------------------------------------------------------

    /// Game tick. `queue_backlog` is the observed receive-queue backlog
    /// (measured by the driver, which owns the queue model); it is folded
    /// into the periodic load report (§3.2.3 "explicit load messages ...
    /// or system performance measurements"). Ticks also flush any
    /// client-bound update batches whose interval has elapsed, bounding
    /// batching latency even when no further events arrive.
    pub fn on_tick(&mut self, now: SimTime, queue_backlog: f64) -> Vec<GameAction> {
        self.ticks += 1;
        let mut out = self.flush_if_due(now);
        // Density-driven grid auto-tuning: one observation per tick;
        // the pipeline rebuilds its grid when the tuner decides.
        if let Some(cells) = self.pipeline.maybe_retune() {
            self.stats.grid_retunes += 1;
            self.recorder.record(
                now,
                EventKind::Retune {
                    server: self.id,
                    cells,
                },
            );
        }
        out.extend(self.ship_replica(now));
        if self
            .ticks
            .is_multiple_of(self.cfg.report_every_ticks.max(1) as u64)
        {
            out.push(GameAction::ToMatrix(GameToMatrix::Load(LoadReport {
                clients: self.clients.len() as u32,
                queue_backlog,
                positions: self.client_positions(),
                telemetry: self.telemetry_snapshot().map(Box::new),
            })));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::WireBatch;
    use matrix_geometry::Metric;
    use matrix_sim::SimTime;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn node() -> GameServerNode {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default());
        g.register(world(), 50.0);
        g
    }

    fn join(g: &mut GameServerNode, id: u64, pos: Point) {
        g.on_client(
            SimTime::ZERO,
            ClientId(id),
            ClientToGame::Join {
                pos,
                state_bytes: 100,
            },
        );
    }

    #[test]
    fn register_claims_world_and_emits_registration() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default());
        let actions = g.register(world(), 50.0);
        assert!(matches!(
            actions.as_slice(),
            [GameAction::ToMatrix(GameToMatrix::Register { radius, .. })] if *radius == 50.0
        ));
        assert!(g.is_ready());
        assert_eq!(g.range(), Some(world()));
    }

    #[test]
    fn join_is_acknowledged() {
        let mut g = node();
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Join {
                pos: Point::new(10.0, 10.0),
                state_bytes: 64,
            },
        );
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, GameToClient::Joined { server })
                if *c == ClientId(1) && *server == ServerId(1))));
        assert_eq!(g.client_count(), 1);
    }

    #[test]
    fn move_forwards_tagged_packet() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(11.0, 10.0),
            },
        );
        let forwarded = actions.iter().find_map(|a| match a {
            GameAction::ToMatrix(GameToMatrix::Forward(pkt)) => Some(pkt.clone()),
            _ => None,
        });
        let pkt = forwarded.expect("move must forward a packet");
        assert_eq!(pkt.tag.origin, Point::new(11.0, 10.0));
        assert_eq!(pkt.client, Some(ClientId(1)));
    }

    #[test]
    fn action_is_acked_for_latency_measurement() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(10.0, 10.0),
                payload_bytes: 64,
            },
        );
        assert!(actions.iter().any(
            |a| matches!(a, GameAction::ToClient(c, GameToClient::Ack { .. }) if *c == ClientId(1))
        ));
    }

    #[test]
    fn fanout_counts_only_clients_in_radius() {
        let mut g = node();
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0)); // within 50
        join(&mut g, 3, Point::new(350.0, 350.0)); // far away
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        assert_eq!(g.stats().updates_fanned, 1, "only client 2 sees the action");
    }

    #[test]
    fn fanout_emission_requires_opt_in() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        // Updates coalesce until the batch interval elapses; the tick
        // flushes them as one UpdateBatch per receiver.
        let actions = g.on_tick(SimTime::from_millis(100), 0.0);
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, GameToClient::UpdateBatch { updates })
                if *c == ClientId(2) && updates.len() == 1 && head(updates).payload_bytes == 10)));
        assert_eq!(g.stats().batches_flushed, 1);
        assert_eq!(g.stats().updates_batched, 1);
        assert!(g.stats().batch_bytes > 0);
        assert_eq!(
            g.stats().keyframe_items,
            1,
            "a fresh client's first item is a keyframe"
        );
    }

    #[test]
    fn without_opt_in_no_batches_are_emitted() {
        let mut g = node(); // emit_updates defaults to false
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        let actions = g.on_tick(SimTime::from_millis(100), 0.0);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, GameAction::ToClient(_, GameToClient::UpdateBatch { .. }))));
        assert_eq!(g.stats().updates_fanned, 1, "counting still happens");
    }

    #[test]
    fn batches_coalesce_multiple_events_per_client() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        join(&mut g, 3, Point::new(120.0, 100.0));
        // Three events inside the batch interval.
        for i in 0..3u64 {
            g.on_client(
                SimTime::from_millis(i * 10),
                ClientId(1),
                ClientToGame::Action {
                    pos: Point::new(100.0, 100.0),
                    payload_bytes: 8,
                },
            );
        }
        let actions = g.on_tick(SimTime::from_millis(100), 0.0);
        let batches: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                GameAction::ToClient(c, GameToClient::UpdateBatch { updates }) => {
                    Some((*c, updates.len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![(ClientId(2), 3), (ClientId(3), 3)]);
        assert_eq!(g.stats().batches_flushed, 2);
        assert_eq!(g.stats().updates_batched, 6);
    }

    #[test]
    fn zero_batch_interval_flushes_immediately() {
        let cfg = GameServerConfig {
            batch_interval: matrix_sim::SimDuration::from_millis(0),
            ..GameServerConfig::default()
        };
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, GameToClient::UpdateBatch { updates })
                if *c == ClientId(2) && updates.len() == 1)));
    }

    #[test]
    fn switched_clients_pending_updates_are_dropped() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        // Client 2 leaves before the flush: its queued update must die
        // with it, not leak to a disconnected receiver.
        g.on_client(SimTime::ZERO, ClientId(2), ClientToGame::Leave);
        let actions = g.on_tick(SimTime::from_millis(100), 0.0);
        assert!(!actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, _) if *c == ClientId(2))));
        assert_eq!(g.stats().updates_dropped, 1);
        assert_eq!(g.stats().batches_flushed, 0);
    }

    #[test]
    fn vision_radius_overrides_consistency_radius_for_fanout() {
        let cfg = GameServerConfig {
            vision_radius: 15.0,
            ..GameServerConfig::default()
        };
        let mut g = GameServerNode::new(ServerId(1), cfg);
        g.register(world(), 50.0); // consistency radius stays 50
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0)); // within 15
        join(&mut g, 3, Point::new(130.0, 100.0)); // within 50 but not 15
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        assert_eq!(
            g.stats().updates_fanned,
            1,
            "only the 15-unit neighbour sees it"
        );
    }

    #[test]
    fn grid_fanout_matches_linear_scan_after_moves() {
        // Drive a small crowd through joins, moves and a range change and
        // compare the counted receiver set against a brute-force scan.
        let mut g = node();
        let positions = [
            (1, 100.0, 100.0),
            (2, 110.0, 100.0),
            (3, 149.9, 100.0),
            (4, 150.1, 100.0),
            (5, 350.0, 350.0),
        ];
        for (id, x, y) in positions {
            join(&mut g, id, Point::new(x, y));
        }
        // Jitter a client across a cell boundary a few times.
        for i in 0..5 {
            let x = if i % 2 == 0 { 199.9 } else { 200.1 };
            g.on_client(
                SimTime::ZERO,
                ClientId(5),
                ClientToGame::Move {
                    pos: Point::new(x, 100.0),
                },
            );
        }
        let before = g.stats().updates_fanned;
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        let counted = g.stats().updates_fanned - before;
        let expected = g
            .client_positions()
            .iter()
            .filter(|p| p.distance_by(Point::new(100.0, 100.0), Metric::Euclidean) <= 50.0)
            .count() as u64
            - 1; // minus the acting client itself
        assert_eq!(counted, expected);
    }

    #[test]
    fn deliver_from_peer_counts_remote_update() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let pkt =
            GamePacket::synthetic(ClientId(99), SpatialTag::at(Point::new(20.0, 10.0)), 16, 0);
        g.on_matrix(SimTime::ZERO, MatrixToGame::Deliver(pkt));
        assert_eq!(g.stats().remote_updates, 1);
        assert_eq!(g.stats().updates_fanned, 1);
    }

    #[test]
    fn redirect_region_moves_exactly_the_region() {
        let mut g = node();
        join(&mut g, 1, Point::new(50.0, 50.0)); // inside region
        join(&mut g, 2, Point::new(300.0, 300.0)); // outside
        let region = Rect::from_coords(0.0, 0.0, 200.0, 400.0);
        let actions = g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::RedirectClients {
                region,
                to: ServerId(2),
            },
        );
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, GameToClient::SwitchServer { to })
                if *c == ClientId(1) && *to == ServerId(2))));
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToMatrix(GameToMatrix::TransferState { to, .. }) if *to == ServerId(2))));
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToMatrix(GameToMatrix::TransferClient { client, .. }) if *client == ClientId(1))));
        assert_eq!(g.client_count(), 1);
        assert!(g.has_client(ClientId(2)));
        assert_eq!(g.stats().redirects_out, 1);
    }

    #[test]
    fn redirect_all_empties_the_server() {
        let mut g = node();
        join(&mut g, 1, Point::new(50.0, 50.0));
        join(&mut g, 2, Point::new(300.0, 300.0));
        let actions = g.on_matrix(SimTime::ZERO, MatrixToGame::RedirectAll { to: ServerId(9) });
        assert_eq!(g.client_count(), 0);
        let switches = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    GameAction::ToClient(_, GameToClient::SwitchServer { .. })
                )
            })
            .count();
        assert_eq!(switches, 2);
    }

    #[test]
    fn roaming_client_triggers_single_whereis() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        // Shrink our range so the client is now outside.
        g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::SetRange {
                range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                radius: 50.0,
            },
        );
        let a1 = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(11.0, 10.0),
            },
        );
        assert!(a1
            .iter()
            .any(|a| matches!(a, GameAction::ToMatrix(GameToMatrix::WhereIs { .. }))));
        // A second move while resolving must not re-query.
        let a2 = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(12.0, 10.0),
            },
        );
        assert!(!a2
            .iter()
            .any(|a| matches!(a, GameAction::ToMatrix(GameToMatrix::WhereIs { .. }))));
        assert_eq!(g.stats().whereis_queries, 1);
    }

    #[test]
    fn owner_reply_switches_the_client() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let actions = g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::Owner {
                client: ClientId(1),
                point: Point::new(10.0, 10.0),
                owner: Some(ServerId(3)),
            },
        );
        assert!(actions.iter().any(|a| matches!(a,
            GameAction::ToClient(c, GameToClient::SwitchServer { to })
                if *c == ClientId(1) && *to == ServerId(3))));
        assert_eq!(g.client_count(), 0);
    }

    #[test]
    fn owner_reply_naming_self_keeps_client() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let actions = g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::Owner {
                client: ClientId(1),
                point: Point::new(10.0, 10.0),
                owner: Some(ServerId(1)),
            },
        );
        assert!(actions.is_empty());
        assert_eq!(g.client_count(), 1);
    }

    #[test]
    fn load_report_fires_on_schedule() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        let every = GameServerConfig::default().report_every_ticks as u64;
        let mut reports = 0;
        for t in 1..=3 * every {
            let actions = g.on_tick(SimTime::from_millis(t * 100), 42.0);
            for a in actions {
                if let GameAction::ToMatrix(GameToMatrix::Load(r)) = a {
                    reports += 1;
                    assert_eq!(r.clients, 1);
                    assert_eq!(r.queue_backlog, 42.0);
                    assert_eq!(r.positions.len(), 1);
                }
            }
        }
        assert_eq!(reports, 3);
    }

    #[test]
    fn fresh_child_is_not_ready_until_state_arrives() {
        let mut g = GameServerNode::new(ServerId(7), GameServerConfig::default());
        g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::SetRange {
                range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
                radius: 50.0,
            },
        );
        assert!(!g.is_ready());
        join(&mut g, 1, Point::new(10.0, 10.0));
        assert_eq!(g.stats().joins_before_ready, 1);
        g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::ReceiveState {
                from: ServerId(1),
                bytes: 1_000_000,
            },
        );
        assert!(g.is_ready());
        assert_eq!(g.stats().state_bytes_in, 1_000_000);
    }

    /// A batch's first item (batches are never empty).
    fn head(batch: &WireBatch) -> BatchItem {
        batch.items().next().expect("a batch is never empty")
    }

    fn batch_for(actions: &[GameAction], cid: ClientId) -> Option<WireBatch> {
        actions.iter().find_map(|a| match a {
            GameAction::ToClient(c, GameToClient::UpdateBatch { updates }) if *c == cid => {
                Some(updates.clone())
            }
            _ => None,
        })
    }

    #[test]
    fn second_flush_delta_encodes_against_the_first() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));

        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        let first = batch_for(&g.on_tick(SimTime::from_millis(100), 0.0), ClientId(2)).unwrap();
        assert!(head(&first).origin.is_keyframe());

        let mut actions = g.on_client(
            SimTime::from_millis(150),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(101.5, 100.0),
                payload_bytes: 10,
            },
        );
        actions.extend(g.on_tick(SimTime::from_millis(200), 0.0));
        let second = batch_for(&actions, ClientId(2)).unwrap();
        assert!(
            !head(&second).origin.is_keyframe(),
            "nearby follow-up must ship as a delta: {second:?}"
        );
        assert_eq!(g.stats().delta_items, 1);
        assert_eq!(
            g.stats().delta_bytes_saved,
            (UpdateItem::WIRE_BYTES - BatchItem::DELTA_WIRE_BYTES) as u64
        );

        // The receiver reconstructs the exact absolute origins.
        let mut base = None;
        let a = crate::messages::reconstruct_updates(&mut base, &first).unwrap();
        assert_eq!(a[0].origin, Point::new(100.0, 100.0));
        let b = crate::messages::reconstruct_updates(&mut base, &second).unwrap();
        assert_eq!(b[0].origin, Point::new(101.5, 100.0));
    }

    #[test]
    fn a_batch_holds_at_most_the_trace_index_space() {
        // Unlimited flushes (`max_updates_per_flush` 0) still cap a batch
        // at what a u16 trace index can name: 70 000 events queued for
        // one receiver ship as the nearest `MAX_BATCH_ITEMS`, the rest
        // rate-limited, and the frame decodes with every tag on its own
        // item.
        let cfg = GameServerConfig {
            batch_interval: matrix_sim::SimDuration::from_millis(100),
            max_updates_per_flush: 0,
            trace_sample_rate: 1000,
            ..GameServerConfig::default()
        };
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 400.0);
        join(&mut g, 1, Point::new(200.0, 200.0));
        // Event i: entity 1000 + i at its own lattice point.
        let at = |i: u64| Point::new(60.0 + (i % 280) as f64, 75.0 + (i / 280) as f64);
        for i in 0..70_000 {
            let tag = SpatialTag::at(at(i));
            let pkt = GamePacket::synthetic(ClientId(1000 + i), tag, 16, i);
            g.on_matrix(SimTime::ZERO, MatrixToGame::Deliver(pkt));
        }
        let actions = g.flush_updates(SimTime::ZERO);
        let batch = batch_for(&actions, ClientId(1)).expect("one batch");
        assert_eq!(batch.len(), codec_v2::MAX_BATCH_ITEMS);
        let surplus = 70_000 - codec_v2::MAX_BATCH_ITEMS as u64;
        assert_eq!(g.stats().updates_rate_limited, surplus);

        let msg = GameToClient::UpdateBatch { updates: batch };
        let bytes = codec_v2::encode_server_frame(&msg, codec_v2::FrameMeta::default(), true);
        let Ok(codec_v2::FrameStatus::Complete {
            frame: codec_v2::Frame::Server(decoded),
            ..
        }) = codec_v2::decode_frame(&bytes)
        else {
            panic!("the capped batch must decode");
        };
        assert_eq!(decoded, msg);
        let GameToClient::UpdateBatch { updates } = &decoded else {
            unreachable!()
        };
        let items = crate::messages::reconstruct_updates(&mut None, updates).unwrap();
        let mut traced = 0;
        for u in &items {
            let Some(tag) = u.trace else { continue };
            // The tag's ingest sequence is the event index.
            let i = u64::from(tag.seq);
            assert_eq!((u.entity, u.origin), (1000 + i, at(i)), "{tag:?}");
            traced += 1;
        }
        assert!(traced > 60, "{traced} traced items");
    }

    #[test]
    fn rate_limit_keeps_the_nearest_items() {
        let cfg = GameServerConfig {
            max_updates_per_flush: 2,
            ..GameServerConfig::default()
        };
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        // Three events at increasing distance from client 1.
        for (id, x) in [(2u64, 110.0), (3, 130.0), (4, 145.0)] {
            join(&mut g, id, Point::new(x, 100.0));
            g.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Action {
                    pos: Point::new(x, 100.0),
                    payload_bytes: 10,
                },
            );
        }
        let batch = batch_for(&g.on_tick(SimTime::from_millis(100), 0.0), ClientId(1)).unwrap();
        assert_eq!(batch.len(), 2, "capped at max_updates_per_flush");
        let mut base = None;
        let items = crate::messages::reconstruct_updates(&mut base, &batch).unwrap();
        assert_eq!(
            items.iter().map(|u| u.origin.x).collect::<Vec<_>>(),
            vec![110.0, 130.0],
            "the farthest event (145) is dropped first, nearest ships first"
        );
        assert!(g.stats().updates_rate_limited >= 1);
    }

    #[test]
    fn absorbed_stats_add_up_and_keep_the_largest_error() {
        let mut total = GameStats {
            moves: 3,
            ring_items: [1, 2, 0, 0],
            pred_error_sum: 1.5,
            pred_error_max: 0.75,
            ..GameStats::default()
        };
        total.absorb(&GameStats {
            moves: 4,
            batch_bytes: 100,
            ring_items: [10, 0, 5, 0],
            pred_error_sum: 0.25,
            pred_error_max: 0.5,
            ..GameStats::default()
        });
        assert_eq!(
            total,
            GameStats {
                moves: 7,
                batch_bytes: 100,
                ring_items: [11, 2, 5, 0],
                pred_error_sum: 1.75,
                pred_error_max: 0.75,
                ..GameStats::default()
            }
        );
    }

    #[test]
    fn shutdown_flush_clears_delta_bases_for_rejoin() {
        // Regression: a flush on driver shutdown must clear per-client
        // delta state, so a client served again later gets a keyframe
        // rather than a delta against a base it lost.
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        g.on_tick(SimTime::from_millis(100), 0.0);
        assert!(g.delta_streams() > 0, "flushed clients hold delta bases");

        g.on_client(
            SimTime::from_millis(120),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(101.0, 100.0),
                payload_bytes: 10,
            },
        );
        let final_batch = g.shutdown_flush(SimTime::from_millis(130));
        assert!(
            batch_for(&final_batch, ClientId(2)).is_some(),
            "shutdown still delivers what the batcher holds"
        );
        assert_eq!(g.delta_streams(), 0, "shutdown must clear stream state");

        // The same client served again (no rejoin): fresh keyframe.
        let mut actions = g.on_client(
            SimTime::from_millis(200),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(102.0, 100.0),
                payload_bytes: 10,
            },
        );
        actions.extend(g.on_tick(SimTime::from_millis(300), 0.0));
        let batch = batch_for(&actions, ClientId(2)).unwrap();
        assert!(
            head(&batch).origin.is_keyframe(),
            "post-shutdown stream must restart with a keyframe: {batch:?}"
        );
    }

    #[test]
    fn rejoin_resets_the_delta_stream() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        for (t, x) in [(0u64, 100.0), (150, 101.0)] {
            g.on_client(
                SimTime::from_millis(t),
                ClientId(1),
                ClientToGame::Action {
                    pos: Point::new(x, 100.0),
                    payload_bytes: 10,
                },
            );
            g.on_tick(SimTime::from_millis(t + 100), 0.0);
        }
        assert!(g.stats().delta_items >= 1, "stream warmed up");
        // Client 2 re-joins (e.g. after a reconnect): its stream resets.
        join(&mut g, 2, Point::new(110.0, 100.0));
        let mut actions = g.on_client(
            SimTime::from_millis(350),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(102.0, 100.0),
                payload_bytes: 10,
            },
        );
        actions.extend(g.on_tick(SimTime::from_millis(400), 0.0));
        let batch = batch_for(&actions, ClientId(2)).unwrap();
        assert!(
            head(&batch).origin.is_keyframe(),
            "resync path must keyframe"
        );
    }

    /// Failover as production runs it: `standby` is handed the
    /// primary's full snapshot as a replica batch, then promoted.
    fn promote_from(
        primary: &GameServerNode,
        mut standby: GameServerNode,
        at: SimTime,
    ) -> GameServerNode {
        standby.on_matrix(
            at,
            MatrixToGame::ReplicaBatch {
                from: primary.id(),
                batch: Box::new(crate::messages::ReplicaBatch {
                    seq: 1,
                    payload: matrix_replication::ReplicaPayload::Full(primary.snapshot()),
                }),
            },
        );
        standby.on_matrix(
            at,
            MatrixToGame::Promote {
                range: world(),
                radius: primary.radius,
            },
        );
        standby
    }

    #[test]
    fn snapshot_restore_reproduces_the_region() {
        let mut g = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        g.register(world(), 50.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0));
        // Warm the delta streams with a flushed batch, then queue one
        // pending (unflushed) update: neither is part of the snapshot.
        g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        g.on_tick(SimTime::from_millis(100), 0.0);
        g.on_client(
            SimTime::from_millis(120),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(101.0, 100.0),
                payload_bytes: 10,
            },
        );
        assert!(g.delta_streams() > 0 && g.pipeline.has_pending());

        let mut promoted = promote_from(
            &g,
            GameServerNode::new(ServerId(9), GameServerConfig::default()).with_fanout(),
            SimTime::from_secs(6),
        );
        // Same sessions, positions, range and readiness.
        assert_eq!(promoted.snapshot(), g.snapshot());
        assert_eq!(promoted.client_count(), 2);
        // A promoted node starts with no stream and no queue...
        assert_eq!(promoted.delta_streams(), 0);
        assert!(promoted.flush_updates(SimTime::from_secs(6)).is_empty());
        // ...and serves the next event to the same receiver, keyframe
        // first.
        let mut actions = promoted.on_client(
            SimTime::from_secs(7),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(102.0, 100.0),
                payload_bytes: 10,
            },
        );
        actions.extend(promoted.on_tick(SimTime::from_secs(8), 0.0));
        let batch = batch_for(&actions, ClientId(2)).expect("client 2 still sees client 1");
        let items = crate::messages::reconstruct_updates(&mut None, &batch)
            .expect("a fresh stream decodes with no prior base");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].origin, Point::new(102.0, 100.0));
    }

    #[test]
    fn primary_ships_full_snapshot_then_ops() {
        let mut g = node();
        join(&mut g, 1, Point::new(10.0, 10.0));
        g.on_matrix(
            SimTime::ZERO,
            MatrixToGame::SetStandby {
                standby: ServerId(9),
            },
        );
        let actions = g.on_tick(SimTime::from_millis(100), 0.0);
        let batch = actions
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { to, batch }) => {
                    assert_eq!(*to, ServerId(9));
                    Some(batch.clone())
                }
                _ => None,
            })
            .expect("first due tick ships a replica batch");
        assert!(batch.is_full(), "pairing starts with a full snapshot");
        assert_eq!(g.stats().replica_batches_out, 1);
        assert!(g.stats().replica_bytes_out > 0);

        // Ack the snapshot; subsequent session changes ship as ops.
        g.on_matrix(
            SimTime::from_millis(110),
            MatrixToGame::ReplicaAck {
                seq: batch.seq,
                resync: false,
            },
        );
        g.on_client(
            SimTime::from_millis(120),
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(11.0, 10.0),
            },
        );
        let actions = g.on_tick(SimTime::from_millis(400), 0.0);
        let batch = actions
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(batch.clone()),
                _ => None,
            })
            .expect("ops batch due");
        assert!(!batch.is_full(), "synced standby receives ops: {batch:?}");
    }

    #[test]
    fn standby_applies_batches_and_promotes_without_reconnects() {
        // Primary with two clients ships its snapshot...
        let mut primary =
            GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        primary.register(world(), 50.0);
        join(&mut primary, 1, Point::new(100.0, 100.0));
        join(&mut primary, 2, Point::new(110.0, 100.0));
        primary.on_matrix(
            SimTime::ZERO,
            MatrixToGame::SetStandby {
                standby: ServerId(9),
            },
        );
        // An update for client 2 sits queued, inside the batch interval,
        // when the snapshot ships...
        primary.flush_updates(SimTime::from_millis(60));
        primary.on_client(
            SimTime::from_millis(90),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        let actions = primary.on_tick(SimTime::from_millis(100), 0.0);
        assert!(batch_for(&actions, ClientId(2)).is_none() && primary.pipeline.has_pending());
        let batch = actions
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(batch.clone()),
                _ => None,
            })
            .unwrap();

        // ...the standby applies it and acks...
        let mut standby =
            GameServerNode::new(ServerId(9), GameServerConfig::default()).with_fanout();
        let ack = standby.on_matrix(
            SimTime::from_millis(101),
            MatrixToGame::ReplicaBatch {
                from: ServerId(1),
                batch,
            },
        );
        assert!(ack.iter().any(|a| matches!(a,
            GameAction::ToMatrix(GameToMatrix::ReplicaAck { to, resync: false, .. })
                if *to == ServerId(1))));
        assert!(standby.is_warm_standby());

        // ...and promotion restores every session and re-points the
        // clients here, with no Join required.
        let actions = standby.on_matrix(
            SimTime::from_secs(6),
            MatrixToGame::Promote {
                range: world(),
                radius: 50.0,
            },
        );
        assert_eq!(standby.client_count(), 2);
        assert_eq!(standby.stats().promotions, 1);
        assert_eq!(standby.stats().clients_restored, 2);
        for cid in [ClientId(1), ClientId(2)] {
            assert!(actions.iter().any(|a| matches!(a,
                GameAction::ToClient(c, GameToClient::SwitchServer { to })
                    if *c == cid && *to == ServerId(9))));
        }
        // What the primary had queued when the snapshot shipped is not
        // replicated: the promoted node has nothing to flush.
        assert!(standby.flush_updates(SimTime::from_secs(6)).is_empty());
        // The promoted region keeps serving: an event near client 2
        // reaches it, starting with a keyframe (streams resynced).
        let mut actions = standby.on_client(
            SimTime::from_secs(7),
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 10,
            },
        );
        actions.extend(standby.on_tick(SimTime::from_secs(8), 0.0));
        let batch = batch_for(&actions, ClientId(2)).expect("updates keep flowing");
        assert!(
            head(&batch).origin.is_keyframe(),
            "post-failover streams resync"
        );
    }

    #[test]
    fn sequence_gap_forces_standby_resync() {
        let mut primary = node();
        join(&mut primary, 1, Point::new(10.0, 10.0));
        primary.on_matrix(
            SimTime::ZERO,
            MatrixToGame::SetStandby {
                standby: ServerId(9),
            },
        );
        let first = primary.on_tick(SimTime::from_millis(100), 0.0);
        let full = first
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(batch.clone()),
                _ => None,
            })
            .unwrap();
        primary.on_matrix(
            SimTime::from_millis(110),
            MatrixToGame::ReplicaAck {
                seq: full.seq,
                resync: false,
            },
        );
        // Two ops batches; the first is "lost" in transit.
        primary.on_client(
            SimTime::from_millis(120),
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(11.0, 10.0),
            },
        );
        let lost = primary.on_tick(SimTime::from_millis(400), 0.0);
        assert!(lost
            .iter()
            .any(|a| matches!(a, GameAction::ToMatrix(GameToMatrix::Replica { .. }))));
        primary.on_client(
            SimTime::from_millis(420),
            ClientId(1),
            ClientToGame::Move {
                pos: Point::new(12.0, 10.0),
            },
        );
        let second = primary
            .on_tick(SimTime::from_millis(700), 0.0)
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(batch.clone()),
                _ => None,
            })
            .unwrap();

        // The standby saw the full snapshot but not the first ops batch:
        // the gap triggers a resync request...
        let mut standby = GameServerNode::new(ServerId(9), GameServerConfig::default());
        standby.on_matrix(
            SimTime::from_millis(101),
            MatrixToGame::ReplicaBatch {
                from: ServerId(1),
                batch: full,
            },
        );
        let ack = standby.on_matrix(
            SimTime::from_millis(701),
            MatrixToGame::ReplicaBatch {
                from: ServerId(1),
                batch: second,
            },
        );
        let (seq, resync) = ack
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::ReplicaAck { seq, resync, .. }) => {
                    Some((*seq, *resync))
                }
                _ => None,
            })
            .unwrap();
        assert!(resync, "gap must request a resync");
        assert_eq!(standby.stats().replica_resyncs, 1);

        // ...and the primary's next ship is a fresh full snapshot.
        primary.on_matrix(
            SimTime::from_millis(710),
            MatrixToGame::ReplicaAck { seq, resync },
        );
        let again = primary
            .on_tick(SimTime::from_millis(1000), 0.0)
            .iter()
            .find_map(|a| match a {
                GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(batch.clone()),
                _ => None,
            })
            .unwrap();
        assert!(again.is_full(), "resync restarts from a snapshot");
    }

    /// A predicting node: two rings (20 / 200), outer budget 2 world
    /// units, per-event flushes so suppression decisions are observable
    /// one by one.
    fn predicting_node() -> GameServerNode {
        let mut cfg = GameServerConfig {
            predict: true,
            emit_updates: true,
            batch_interval: matrix_sim::SimDuration::from_millis(0),
            ..GameServerConfig::default()
        };
        cfg.set_rings(&[20.0, 200.0], &[1, 1]);
        cfg.set_error_budgets(&[0.0, 2.0]);
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 200.0);
        g
    }

    /// Drives client 1 on a straight 10 u/s run past client 2 (outer
    /// ring) starting at `t0_ms`, returning the emitted batches for
    /// client 2.
    fn straight_run(g: &mut GameServerNode, t0_ms: u64, steps: u64) -> Vec<WireBatch> {
        let mut batches = Vec::new();
        for i in 0..steps {
            let actions = g.on_client(
                SimTime::from_millis(t0_ms + i * 100),
                ClientId(1),
                ClientToGame::Move {
                    pos: Point::new(50.0 + i as f64, 200.0),
                },
            );
            batches.extend(batch_for(&actions, ClientId(2)));
        }
        batches
    }

    #[test]
    fn prediction_suppresses_linear_motion_and_ships_velocity() {
        let mut g = predicting_node();
        join(&mut g, 1, Point::new(50.0, 200.0));
        join(&mut g, 2, Point::new(150.0, 300.0)); // outer ring of the run
        let batches = straight_run(&mut g, 0, 20);
        assert!(
            g.stats().updates_suppressed >= 15,
            "linear motion must be suppressed: {:?}",
            g.stats()
        );
        assert!(
            (batches.len() as u64) < 20,
            "most events never reached the wire: {} batches",
            batches.len()
        );
        assert!(
            g.stats().pred_error_max <= 2.0,
            "suppression never exceeds the ring budget: {}",
            g.stats().pred_error_max
        );
        // Once the motion model locks on, transmitted items carry the
        // 10 u/s velocity for the receiver to extrapolate with.
        assert!(
            batches
                .iter()
                .flat_map(WireBatch::items)
                .any(|item| item.vx > 5.0),
            "rebasing items must ship the estimated velocity: {batches:?}"
        );
        assert!(g.prediction_receivers() > 0);
    }

    #[test]
    fn actions_are_never_suppressed_and_rebase_predictions() {
        let mut g = predicting_node();
        join(&mut g, 1, Point::new(50.0, 200.0));
        join(&mut g, 2, Point::new(150.0, 300.0)); // outer ring
                                                   // A stationary client firing actions: extrapolation reproduces
                                                   // its position perfectly, but the payloads are new information
                                                   // every time — all of them must ship.
        for i in 0..10u64 {
            let actions = g.on_client(
                SimTime::from_millis(i * 100),
                ClientId(1),
                ClientToGame::Action {
                    pos: Point::new(50.0, 200.0),
                    payload_bytes: 64,
                },
            );
            assert!(
                batch_for(&actions, ClientId(2)).is_some(),
                "action {i} must reach the observer"
            );
        }
        assert_eq!(
            g.stats().updates_suppressed,
            0,
            "payload-carrying events are not suppressible"
        );
        // Moves between actions still suppress: the actions rebased the
        // prediction, and the position stream remains predictable.
        let batches = straight_run(&mut g, 2000, 10);
        assert!(g.stats().updates_suppressed > 0, "{:?}", g.stats());
        assert!((batches.len() as u64) < 10);
    }

    #[test]
    fn prediction_off_keeps_the_wire_velocity_free() {
        let mut cfg = GameServerConfig {
            emit_updates: true,
            batch_interval: matrix_sim::SimDuration::from_millis(0),
            ..GameServerConfig::default()
        };
        cfg.set_rings(&[20.0, 200.0], &[1, 1]);
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 200.0);
        join(&mut g, 1, Point::new(50.0, 200.0));
        join(&mut g, 2, Point::new(150.0, 300.0));
        let batches = straight_run(&mut g, 0, 10);
        assert_eq!(g.stats().updates_suppressed, 0);
        assert_eq!(batches.len(), 10, "every event ships");
        assert!(
            batches
                .iter()
                .flat_map(WireBatch::items)
                .all(|i| !i.has_velocity()),
            "prediction off ⇒ no velocity fields on the wire"
        );
        assert_eq!(g.prediction_receivers(), 0);
    }

    #[test]
    fn snapshot_carries_prediction_bases_and_restore_reproduces_suppression() {
        let mut g = predicting_node();
        join(&mut g, 1, Point::new(50.0, 200.0));
        join(&mut g, 2, Point::new(150.0, 300.0));
        straight_run(&mut g, 0, 10);
        let snap = g.snapshot();
        assert!(
            snap.bases.values().any(|b| !b.is_empty()),
            "snapshot must carry the prediction bases"
        );

        // A fresh standby with the same config is promoted from it.
        let mut restored = promote_from(&g, predicting_node(), SimTime::from_millis(950));
        assert!(
            restored.prediction_receivers() > 0,
            "promotion must import the bases"
        );
        // The same on-track continuation is suppressed on both nodes:
        // the admit decision is basis-driven, and the bases replicated.
        let before_g = g.stats().updates_suppressed;
        let before_r = restored.stats().updates_suppressed;
        for node in [&mut g, &mut restored] {
            node.on_client(
                SimTime::from_millis(1000),
                ClientId(1),
                ClientToGame::Move {
                    pos: Point::new(60.0, 200.0),
                },
            );
        }
        assert_eq!(
            g.stats().updates_suppressed - before_g,
            restored.stats().updates_suppressed - before_r,
            "replicated bases must reproduce the suppression decision"
        );
    }

    #[test]
    fn position_only_ring_strips_far_payloads() {
        let mut cfg = GameServerConfig {
            emit_updates: true,
            batch_interval: matrix_sim::SimDuration::from_millis(0),
            position_only_ring: 1,
            ..GameServerConfig::default()
        };
        cfg.set_rings(&[20.0, 200.0], &[1, 1]);
        let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
        g.register(world(), 200.0);
        join(&mut g, 1, Point::new(100.0, 100.0));
        join(&mut g, 2, Point::new(110.0, 100.0)); // near: full payload
        join(&mut g, 3, Point::new(250.0, 100.0)); // far: position-only
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(1),
            ClientToGame::Action {
                pos: Point::new(100.0, 100.0),
                payload_bytes: 64,
            },
        );
        let near = batch_for(&actions, ClientId(2)).unwrap();
        let far = batch_for(&actions, ClientId(3)).unwrap();
        assert_eq!(head(&near).payload_bytes, 64);
        assert_eq!(head(&far).payload_bytes, 0, "far ring ships position-only");
        assert_eq!(g.stats().payloads_stripped, 1);
    }

    #[test]
    fn stale_packets_from_switched_clients_are_ignored() {
        let mut g = node();
        let actions = g.on_client(
            SimTime::ZERO,
            ClientId(42),
            ClientToGame::Move {
                pos: Point::new(1.0, 1.0),
            },
        );
        assert!(actions.is_empty());
        assert_eq!(g.stats().moves, 1, "counted but not processed");
    }

    #[test]
    fn a_flush_that_overruns_its_cadence_is_captured() {
        // Nothing sets a threshold: with telemetry on, a flush slower
        // than the cadence it runs on (here a 1 µs batch interval, so
        // any real flush) dumps its span breakdown, once.
        let slow_flushes = |telemetry: bool| {
            let cfg = GameServerConfig {
                telemetry,
                batch_interval: matrix_sim::SimDuration::from_micros(1),
                ..GameServerConfig::default()
            };
            let mut g = GameServerNode::new(ServerId(1), cfg).with_fanout();
            g.register(world(), 120.0);
            // Everything queues at t = 0 (no interval has elapsed), so
            // the explicit flush below is the only one.
            let pos =
                |i: u64| Point::new(150.0 + (i % 20) as f64 * 4.0, 150.0 + (i / 20) as f64 * 4.0);
            for i in 0..200 {
                join(&mut g, i, pos(i));
            }
            for i in 0..200 {
                g.on_client(
                    SimTime::ZERO,
                    ClientId(i),
                    ClientToGame::Move { pos: pos(i) },
                );
            }
            assert_eq!(g.stats().batches_flushed, 0);
            let out = g.flush_updates(SimTime::from_millis(1));
            assert_eq!(out.len(), 200, "one batch per receiver");
            g.recorder()
                .events()
                .filter_map(|e| match e.kind {
                    EventKind::SlowFlush {
                        total_us, stages, ..
                    } => Some((total_us, stages)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert!(slow_flushes(false).is_empty(), "telemetry off: nothing");
        let events = slow_flushes(true);
        assert_eq!(events.len(), 1, "one event per overrun");
        let (total_us, stages) = events[0];
        assert!(total_us >= 1);
        // Stages 4–5 are this flush's own; 1–3 accrue at ingest,
        // outside the flush timer.
        let own = stages[Stage::Policy as usize] + stages[Stage::Delta as usize];
        assert!(own <= total_us, "{stages:?} vs {total_us}");
    }
}
