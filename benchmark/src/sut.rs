//! The benchmark's whole view of the system under test.
//!
//! This is the only file that names items from the repository's crates;
//! every call the benchmark makes into the program goes through it, and
//! `README.md` lists the surface used here as "pinned by the benchmark".
//! Two drivers live here:
//!
//! * [`RtWorld`] stands the real-time cluster up (`RtCluster` + TCP
//!   gateway on loopback) with an in-process crowd ([`Crowd`]) and a
//!   pair of real TCP clients ([`ProbePair`]);
//! * [`Sim`] is a synchronous, single-threaded mirror of
//!   `rt/src/node.rs`'s dispatch over the same sans-io state machines,
//!   with every client-bound message encoded, decoded and applied.

use crate::stats::Fnv64;
use crate::trace::{Layer, Tracer, NO_PARENT};
use crate::workload::{Op, OpKind, Spec, ACTION_BYTES, QUANTUM, TICK_US};
use matrix_core::codec_v2::{self, Frame, FrameAccumulator, FrameMeta};
use matrix_core::{
    reconstruct_updates, Action, ClientId, ClientToGame, CoordAction, CoordMsg, CoordReply,
    Coordinator, CoordinatorConfig, Extrapolator, GameAction, GameServerConfig, GameServerNode,
    GameStats, GameToClient, Lifecycle, MatrixConfig, MatrixServer, MatrixToGame, PeerMsg, PoolMsg,
    PoolReply, ResourcePool, ServerStats, WireCodec,
};
use matrix_geometry::{Point, Rect, ServerId};
use matrix_rt::wire::{self, GatewayOptions, TcpGameClient, WireError};
use matrix_rt::{RtClient, RtCluster, RtConfig};
use matrix_sim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// Session state a client uploads on join, bytes (what `RtClient` sends).
const CLIENT_STATE_BYTES: u64 = 1_024;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

fn game_config(spec: &Spec, telemetry: bool) -> GameServerConfig {
    let tick = SimDuration::from_micros(TICK_US);
    let mut cfg = GameServerConfig {
        tick,
        batch_interval: tick,
        vision_radius: spec.vision_radius,
        max_updates_per_flush: spec.max_updates_per_flush,
        codec: WireCodec::BinaryV2,
        telemetry,
        ..GameServerConfig::default()
    };
    assert_eq!(cfg.origin_quantum, QUANTUM, "the probes ride this lattice");
    if let Some(r) = &spec.rings {
        cfg.set_rings(&r.radii, &r.rates);
        cfg.predict = true;
        cfg.set_error_budgets(&r.budgets);
        cfg.position_only_ring = r.position_only_ring;
        cfg.velocity_quantum = r.velocity_quantum;
    }
    if let Some(s) = &spec.split {
        cfg.handoff_margin = s.handoff_margin;
    }
    cfg
}

fn matrix_config(spec: &Spec) -> MatrixConfig {
    match &spec.split {
        Some(s) => MatrixConfig {
            overload_clients: s.overload_clients,
            underload_clients: s.underload_clients,
            standby_replication: true,
            ..MatrixConfig::default()
        },
        // One server throughout: same routing, no adaptation.
        None => MatrixConfig::static_baseline(),
    }
}

fn pool_size(spec: &Spec) -> u32 {
    spec.split.map_or(0, |s| s.pool_size)
}

fn world(spec: &Spec) -> Rect {
    Rect::from_coords(0.0, 0.0, spec.side, spec.side)
}

fn client_msg(kind: OpKind, pos: (f64, f64)) -> ClientToGame {
    let pos = Point::new(pos.0, pos.1);
    match kind {
        OpKind::Move => ClientToGame::Move { pos },
        OpKind::Action => ClientToGame::Action {
            pos,
            payload_bytes: ACTION_BYTES,
        },
    }
}

fn join_msg(pos: (f64, f64)) -> ClientToGame {
    ClientToGame::Join {
        pos: Point::new(pos.0, pos.1),
        state_bytes: CLIENT_STATE_BYTES,
    }
}

// ---------------------------------------------------------------------------
// The receiving client: reconstruct + apply
// ---------------------------------------------------------------------------

/// What applying one server message amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A join was accepted by this server.
    Joined(u32),
    /// An action was acknowledged.
    Ack,
    /// The client was told to switch to this server.
    Switch(u32),
    /// A batch of this many items was reconstructed and applied.
    Items(u32),
    /// A singleton update (outside the batch stream).
    Other,
}

/// A client's receive state: the delta-stream base and the
/// dead-reckoning table, exactly what `RtClient` keeps.
#[derive(Debug, Default)]
pub struct Receiver {
    base: Option<Point>,
    extrap: Extrapolator,
}

impl Receiver {
    fn restart(&mut self) {
        self.base = None;
        self.extrap.reset();
    }

    /// Applies one server message as a client does: thread the delta
    /// base through `reconstruct_updates`, rebase the extrapolator per
    /// attributed item. `seen(entity, x, y)` is called for every applied
    /// item. Fails on a delta item with no base, or an origin off the
    /// wire lattice.
    fn apply(
        &mut self,
        msg: &GameToClient,
        now_s: f64,
        tracer: &mut Tracer,
        cause: u32,
        mut seen: impl FnMut(u64, f64, f64),
    ) -> Result<Applied, &'static str> {
        match msg {
            GameToClient::UpdateBatch { updates } => {
                let s = tracer.begin(Layer::Reconstruct, cause);
                let rebuilt = s.index();
                let items = reconstruct_updates(&mut self.base, updates);
                let Some(items) = items else {
                    tracer.end(s);
                    self.base = None;
                    return Err("delta item arrived with no base");
                };
                let s = tracer.then(s, Layer::ExtrapUpdate, rebuilt);
                for u in &items {
                    if u.entity != 0 {
                        self.extrap.update(u.entity, u.origin, (u.vx, u.vy), now_s);
                    }
                }
                let s = tracer.then(s, Layer::Check, rebuilt);
                let mut on_lattice = true;
                for u in &items {
                    on_lattice &= (u.origin.x / QUANTUM).fract() == 0.0
                        && (u.origin.y / QUANTUM).fract() == 0.0;
                    seen(u.entity, u.origin.x, u.origin.y);
                }
                tracer.end(s);
                if !on_lattice {
                    return Err("reconstructed origin off the lattice");
                }
                Ok(Applied::Items(items.len() as u32))
            }
            GameToClient::Joined { server } => {
                self.restart();
                Ok(Applied::Joined(server.0))
            }
            GameToClient::SwitchServer { to } => {
                self.restart();
                Ok(Applied::Switch(to.0))
            }
            GameToClient::Ack { .. } => Ok(Applied::Ack),
            GameToClient::Update { .. } => Ok(Applied::Other),
        }
    }
}

// ---------------------------------------------------------------------------
// Real-time driver: RtCluster + gateway, in-process crowd, TCP probe pair
// ---------------------------------------------------------------------------

/// What the benchmark reads off one node of the running cluster.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// Whether the node manages a partition.
    pub active: bool,
    /// Whether the node, as a primary, has a warm standby that
    /// acknowledged a replication batch.
    pub standby_warm: bool,
    /// Splits this node initiated.
    pub splits: u64,
}

/// A running real-time cluster with its TCP gateway.
pub struct RtWorld {
    cluster: RtCluster,
    gateway: std::net::SocketAddr,
}

impl RtWorld {
    /// Starts coordinator, pool and nodes, registers the world and binds
    /// the gateway on a loopback port the OS picks.
    pub fn start(spec: &Spec) -> Result<RtWorld, WireError> {
        let game = game_config(spec, false);
        let cfg = RtConfig {
            world: world(spec),
            radius: spec.radius,
            matrix: matrix_config(spec),
            game,
            coordinator: CoordinatorConfig::default(),
            pool_size: pool_size(spec),
            zones: Vec::new(),
        };
        tokio::runtime::block_on(async {
            let cluster = RtCluster::start(cfg).await;
            let gateway = wire::spawn_gateway_with(
                "127.0.0.1:0",
                cluster.router().clone(),
                cluster.bootstrap_id(),
                GatewayOptions::from_config(&game),
            )
            .await?;
            Ok(RtWorld { cluster, gateway })
        })
    }

    /// Connects one in-process crowd client (sends its `Join`).
    pub fn join_crowd(&self, pos: (f64, f64)) -> Crowd {
        Crowd {
            client: self.cluster.client(Point::new(pos.0, pos.1)),
            joined: false,
        }
    }

    /// Connects the two probes over TCP (binary v2) and joins them.
    pub fn connect_probes(&self, at: [(f64, f64); 2]) -> Result<ProbePair, WireError> {
        let connect = |pos| async move {
            let mut c = TcpGameClient::connect_with(self.gateway, WireCodec::BinaryV2).await?;
            c.send(&join_msg(pos)).await?;
            Ok::<_, WireError>(c)
        };
        tokio::runtime::block_on(async {
            Ok(ProbePair {
                clients: [connect(at[0]).await?, connect(at[1]).await?],
                rx: [Receiver::default(), Receiver::default()],
                started: Instant::now(),
                tracer: Tracer::new(false),
            })
        })
    }

    /// Point-in-time view of every node.
    pub fn views(&self) -> Vec<NodeView> {
        tokio::runtime::block_on(self.cluster.snapshots())
            .into_iter()
            .map(|s| NodeView {
                active: s.lifecycle == Lifecycle::Active,
                standby_warm: s.matrix_stats.standbys_acquired > 0
                    && s.game_stats.replica_acks_in > 0,
                splits: s.matrix_stats.splits,
            })
            .collect()
    }

    /// Stops every node task.
    pub fn shutdown(self) {
        tokio::runtime::block_on(self.cluster.shutdown());
    }
}

/// One in-process crowd client.
pub struct Crowd {
    client: RtClient,
    joined: bool,
}

impl Crowd {
    /// Sends one scheduled op.
    pub fn send(&mut self, kind: OpKind, pos: (f64, f64)) {
        match kind {
            OpKind::Move => self.client.move_to(Point::new(pos.0, pos.1)),
            // `RtClient::action` reports the position of the client's
            // last move, one step behind the schedule's; sending a move
            // first would double the op.
            OpKind::Action => self.client.action(ACTION_BYTES),
        }
    }

    /// Drains and applies whatever the servers sent (`RtClient::drain`
    /// reconstructs and extrapolates); returns the batch items applied.
    pub fn drain(&mut self) -> u64 {
        let before = self.client.counters().updates;
        for msg in self.client.drain() {
            self.joined |= matches!(msg, GameToClient::Joined { .. });
        }
        self.client.counters().updates - before
    }

    /// Whether a `Joined` has been seen.
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Server switches performed so far.
    pub fn switches(&self) -> u64 {
        self.client.counters().switches
    }

    /// Leaves the game.
    pub fn leave(self) {
        self.client.leave();
    }
}

/// What the probe thread woke up for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// The deadline passed: an op is due.
    Due,
    /// Probe `.0` applied a server message.
    Applied(usize, Applied),
    /// Probe `.0`'s connection failed or produced a bad stream.
    Failed(usize),
}

/// The probe pair: two real `TcpGameClient`s, the only two sockets.
pub struct ProbePair {
    clients: [TcpGameClient; 2],
    rx: [Receiver; 2],
    started: Instant,
    /// Inert: the probes' applies are timed as a whole, not per layer.
    tracer: Tracer,
}

impl ProbePair {
    /// Sends one op from probe `p`.
    pub fn send(&mut self, p: usize, kind: OpKind, pos: (f64, f64)) -> bool {
        tokio::runtime::block_on(self.clients[p].send(&client_msg(kind, pos))).is_ok()
    }

    /// Waits until either probe receives a message — which is decoded by
    /// `TcpGameClient::recv`, reconstructed and applied before this
    /// returns — or `until` passes. `seen(probe, entity, x, y)` is called
    /// for every applied batch item.
    pub fn wait(
        &mut self,
        until: Instant,
        mut seen: impl FnMut(usize, u64, f64, f64),
    ) -> ProbeEvent {
        let [a, b] = &mut self.clients;
        let timeout = until.saturating_duration_since(Instant::now());
        let (p, msg) = tokio::runtime::block_on(async {
            tokio::select! {
                m = a.recv() => { (0, Some(m)) }
                m = b.recv() => { (1, Some(m)) }
                _ = tokio::time::sleep(timeout) => { (0, None) }
            }
        });
        let Some(msg) = msg else {
            return ProbeEvent::Due;
        };
        let now_s = self.started.elapsed().as_secs_f64();
        let applied = msg.ok().and_then(|m| {
            self.rx[p]
                .apply(&m, now_s, &mut self.tracer, NO_PARENT, |e, x, y| {
                    seen(p, e, x, y)
                })
                .ok()
        });
        match applied {
            Some(a) => ProbeEvent::Applied(p, a),
            None => ProbeEvent::Failed(p),
        }
    }

    /// Sends `Leave` on both connections and closes them.
    pub fn leave(mut self) {
        for c in &mut self.clients {
            let _ = tokio::runtime::block_on(c.send(&ClientToGame::Leave));
        }
    }
}

// ---------------------------------------------------------------------------
// Sans-io driver: the replay
// ---------------------------------------------------------------------------

/// Output checks and exact counts of one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Client-bound frames encoded.
    pub frames: u64,
    /// Their exact encoded bytes.
    pub wire_bytes: u64,
    /// FNV digest of every encoded byte, in order.
    pub wire_digest: u64,
    /// Bytes of `UpdateBatch` frames alone.
    pub batch_bytes: u64,
    /// `UpdateBatch` frames.
    pub batches: u64,
    /// Batch items received and applied by clients.
    pub items: u64,
    /// Acks received by clients.
    pub acks: u64,
    /// `SwitchServer` instructions followed by clients.
    pub switches: u64,
    /// Messages handled by the coordinator.
    pub coord_msgs: u64,
    /// `PeerMsg`s delivered between Matrix servers.
    pub peer_msgs: u64,
    /// Frames that failed to decode, or decoded to something else than
    /// was sent.
    pub bad_frames: u64,
    /// Batches `reconstruct_updates` rejected or that left the lattice.
    pub bad_batches: u64,
    /// Client ops sent while the client had no server (never expected).
    pub ops_unroutable: u64,
}

/// Sums of the per-node counters the metrics are derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTotals {
    /// Summed game-server counters.
    pub game: GameCounts,
    /// Summed Matrix-server counters.
    pub matrix: MatrixCounts,
    /// Nodes managing a partition.
    pub active: u32,
    /// Active nodes whose standby acknowledged a replication batch.
    pub standbys_warm: u32,
}

/// The `GameStats` fields the benchmark reads, summed over nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GameCounts {
    /// Moves and actions processed.
    pub events: u64,
    /// Deliveries queued by the fan-out.
    pub fanned: u64,
    /// Deliveries sampled out by outer rings.
    pub sampled_out: u64,
    /// Deliveries suppressed by dead reckoning.
    pub suppressed: u64,
    /// Queued deliveries merged or dropped by the flush policy.
    pub rate_limited: u64,
    /// Queued deliveries orphaned by a departing client.
    pub dropped: u64,
    /// Items flushed inside batches.
    pub batched: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Keyframe items among them.
    pub keyframes: u64,
    /// Clients redirected away (handovers and split shedding).
    pub redirects: u64,
    /// Updates delivered from peer servers.
    pub remote_updates: u64,
    /// Replication batches shipped.
    pub replica_batches_out: u64,
    /// Replication bytes shipped.
    pub replica_bytes_out: u64,
    /// Replication batches applied as a standby.
    pub replica_batches_in: u64,
}

/// The `ServerStats` fields the benchmark reads, summed over nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatrixCounts {
    /// Packets routed.
    pub packets_in: u64,
    /// Peer updates sent.
    pub peer_updates_out: u64,
    /// Splits initiated.
    pub splits: u64,
}

impl GameCounts {
    fn add(&mut self, s: &GameStats) {
        self.events += s.moves + s.actions;
        self.fanned += s.updates_fanned;
        self.sampled_out += s.updates_sampled_out;
        self.suppressed += s.updates_suppressed;
        self.rate_limited += s.updates_rate_limited;
        self.dropped += s.updates_dropped;
        self.batched += s.updates_batched;
        self.batches += s.batches_flushed;
        self.keyframes += s.keyframe_items;
        self.redirects += s.redirects_out;
        self.remote_updates += s.remote_updates;
        self.replica_batches_out += s.replica_batches_out;
        self.replica_bytes_out += s.replica_bytes_out;
        self.replica_batches_in += s.replica_batches_in;
    }
}

impl MatrixCounts {
    fn add(&mut self, s: &ServerStats) {
        self.packets_in += s.packets_in;
        self.peer_updates_out += s.peer_updates_out;
        self.splits += s.splits;
    }
}

/// Summed `stage_*_us` / `flush_us` histograms of every node's
/// `telemetry_snapshot()`: `(count, sum µs)` per name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSums {
    /// Stage 1, interest query.
    pub query: (u64, f64),
    /// Stage 2, ring tiering.
    pub tier: (u64, f64),
    /// Stage 3, prediction admission.
    pub predict: (u64, f64),
    /// Stage 4, flush policy.
    pub policy: (u64, f64),
    /// Stage 5, delta encoding.
    pub delta: (u64, f64),
    /// Whole `flush_updates` calls.
    pub flush: (u64, f64),
}

struct SimNode {
    matrix: MatrixServer,
    game: GameServerNode,
}

struct SimClient {
    server: Option<ServerId>,
    pos: (f64, f64),
    acc: FrameAccumulator,
    rx: Receiver,
    frames: u64,
}

/// Work in flight between components. The real-time driver carries
/// these over channels; here one FIFO does, drained to empty after every
/// input. `cause` is the span that produced the message.
enum Work {
    Peer {
        to: ServerId,
        from: ServerId,
        msg: PeerMsg,
        cause: u32,
    },
    Coord(CoordMsg, u32),
    CoordReply(ServerId, CoordReply, u32),
    Pool(ServerId, PoolMsg, u32),
    PoolReply(ServerId, PoolReply, u32),
    FromClient(ServerId, u32, ClientToGame, u32),
}

/// The cluster as plain state machines, driven synchronously in virtual
/// time on the calling thread.
pub struct Sim {
    nodes: Vec<SimNode>,
    coordinator: Coordinator,
    pool: ResourcePool,
    clients: Vec<SimClient>,
    queue: VecDeque<Work>,
    now: SimTime,
    crc: bool,
    sweep_every_us: u64,
    digest: Fnv64,
    /// Checks and exact counts so far.
    pub tally: Tally,
    /// The span recorder (inert unless the replay is traced).
    pub tracer: Tracer,
}

impl Sim {
    /// Builds coordinator, pool, the bootstrap node and the pool's
    /// spares, registers the world and joins every client at its start
    /// position — what `RtCluster::start` plus the crowd's joins do.
    pub fn new(spec: &Spec, starts: &[(f64, f64)], traced: bool) -> Sim {
        let gcfg = game_config(spec, traced);
        let mcfg = matrix_config(spec);
        let ccfg = CoordinatorConfig::default();
        let spares: Vec<ServerId> = (2..2 + pool_size(spec)).map(ServerId).collect();
        let nodes = (1..2 + pool_size(spec))
            .map(|id| SimNode {
                matrix: MatrixServer::new(ServerId(id), mcfg),
                game: GameServerNode::new(ServerId(id), gcfg).with_fanout(),
            })
            .collect();
        let mut sim = Sim {
            nodes,
            coordinator: Coordinator::new(ccfg),
            pool: ResourcePool::new(spares),
            clients: starts
                .iter()
                .map(|pos| SimClient {
                    server: None,
                    pos: *pos,
                    acc: FrameAccumulator::new(),
                    rx: Receiver::default(),
                    frames: 0,
                })
                .collect(),
            queue: VecDeque::new(),
            now: SimTime::ZERO,
            crc: gcfg.frame_crc,
            // `run_coordinator`'s cadence: half the heartbeat timeout,
            // within [100 ms, 1 s].
            sweep_every_us: (ccfg.heartbeat_timeout.as_micros() / 2).clamp(100_000, 1_000_000),
            digest: Fnv64::default(),
            tally: Tally::default(),
            tracer: Tracer::new(traced),
        };
        let s = sim.tracer.begin(Layer::Register, NO_PARENT);
        let actions = sim
            .node(ServerId(1))
            .game
            .register(world(spec), spec.radius);
        let cause = sim.tracer.end(s);
        sim.dispatch_game(ServerId(1), actions, cause);
        sim.drain();
        for client in 0..starts.len() as u32 {
            sim.clients[client as usize].server = Some(ServerId(1));
            let join = join_msg(starts[client as usize]);
            sim.queue
                .push_back(Work::FromClient(ServerId(1), client, join, NO_PARENT));
            sim.drain();
        }
        sim
    }

    fn node(&mut self, id: ServerId) -> &mut SimNode {
        &mut self.nodes[id.0 as usize - 1]
    }

    /// Interval between the coordinator's liveness sweeps, µs.
    pub fn sweep_every_us(&self) -> u64 {
        self.sweep_every_us
    }

    /// One tick of every node at virtual time `now_us`, in id order: the
    /// game side only on active nodes (flushing what is due), the Matrix
    /// side always — as `run_node`'s ticker arm does.
    pub fn tick(&mut self, now_us: u64) {
        self.now = SimTime::from_micros(now_us);
        for i in 0..self.nodes.len() {
            let id = ServerId(i as u32 + 1);
            if self.nodes[i].matrix.lifecycle() == Lifecycle::Active {
                let s = self.tracer.begin(Layer::GameOnTick, NO_PARENT);
                let mut actions = self.nodes[i].game.on_tick(self.now, 0.0);
                // `on_tick` flushes only what is due by the node's own
                // last flush, and a split child's first flush fires
                // inline, off the tick. Forcing the flush here (a no-op
                // when `on_tick` just did it) pins every flush to the
                // tick, so none ever runs inside `on_client`.
                actions.extend(self.nodes[i].game.flush_updates(self.now));
                let cause = self.tracer.end(s);
                self.dispatch_game(id, actions, cause);
            }
            let s = self.tracer.begin(Layer::ServerOnTick, NO_PARENT);
            let actions = self.nodes[i].matrix.on_tick(self.now);
            let cause = self.tracer.end(s);
            self.dispatch_matrix(id, actions, cause);
        }
        self.drain();
    }

    /// The coordinator's liveness sweep at virtual time `now_us`.
    pub fn sweep(&mut self, now_us: u64) {
        self.now = SimTime::from_micros(now_us);
        let s = self.tracer.begin(Layer::CoordLiveness, NO_PARENT);
        let actions = self.coordinator.check_liveness(self.now);
        let cause = self.tracer.end(s);
        self.deliver_coord(actions, cause);
        self.drain();
    }

    /// One scheduled client op at its due time.
    pub fn client_op(&mut self, op: &Op) {
        self.now = SimTime::from_micros(op.due_us);
        let c = &mut self.clients[op.client as usize];
        c.pos = op.pos;
        match c.server {
            Some(server) => {
                let msg = client_msg(op.kind, op.pos);
                self.queue
                    .push_back(Work::FromClient(server, op.client, msg, NO_PARENT));
                self.drain();
            }
            None => self.tally.ops_unroutable += 1,
        }
    }

    /// Processes queued work until none is left.
    fn drain(&mut self) {
        while let Some(work) = self.queue.pop_front() {
            match work {
                Work::FromClient(server, client, msg, cause) => {
                    let now = self.now;
                    let s = self.tracer.begin(Layer::OnClient, cause);
                    let actions =
                        self.node(server)
                            .game
                            .on_client(now, ClientId(u64::from(client) + 1), msg);
                    let cause = self.tracer.end(s);
                    self.dispatch_game(server, actions, cause);
                }
                Work::Peer {
                    to,
                    from,
                    msg,
                    cause,
                } => {
                    self.tally.peer_msgs += 1;
                    let now = self.now;
                    let s = self.tracer.begin(Layer::OnPeer, cause);
                    let actions = self.node(to).matrix.on_peer(now, from, msg);
                    let cause = self.tracer.end(s);
                    self.dispatch_matrix(to, actions, cause);
                }
                Work::Coord(msg, cause) => {
                    self.tally.coord_msgs += 1;
                    let s = self.tracer.begin(Layer::CoordHandle, cause);
                    let actions = self.coordinator.handle(self.now, msg);
                    let cause = self.tracer.end(s);
                    self.deliver_coord(actions, cause);
                }
                Work::CoordReply(to, reply, cause) => {
                    let now = self.now;
                    let s = self.tracer.begin(Layer::OnCoord, cause);
                    let actions = self.node(to).matrix.on_coord(now, reply);
                    let cause = self.tracer.end(s);
                    self.dispatch_matrix(to, actions, cause);
                }
                Work::Pool(from, msg, cause) => {
                    let s = self.tracer.begin(Layer::PoolHandle, cause);
                    let reply = self.pool.handle(msg);
                    let cause = self.tracer.end(s);
                    if let Some(reply) = reply {
                        self.queue.push_back(Work::PoolReply(from, reply, cause));
                    }
                }
                Work::PoolReply(to, reply, cause) => {
                    let now = self.now;
                    let s = self.tracer.begin(Layer::OnPool, cause);
                    let actions = self.node(to).matrix.on_pool(now, reply);
                    let cause = self.tracer.end(s);
                    self.dispatch_matrix(to, actions, cause);
                }
            }
        }
    }

    fn deliver_coord(&mut self, actions: Vec<CoordAction>, cause: u32) {
        for CoordAction::Send(to, reply) in actions {
            self.queue.push_back(Work::CoordReply(to, reply, cause));
        }
    }

    /// `node.rs::dispatch_game`: local Matrix deliveries in place, client
    /// messages straight to the client.
    fn dispatch_game(&mut self, id: ServerId, actions: Vec<GameAction>, cause: u32) {
        let mut local: VecDeque<(GameAction, u32)> =
            actions.into_iter().map(|a| (a, cause)).collect();
        self.run_local(id, &mut local);
    }

    /// `node.rs::dispatch_matrix`.
    fn dispatch_matrix(&mut self, id: ServerId, actions: Vec<Action>, cause: u32) {
        let mut local = VecDeque::new();
        self.route_matrix(id, actions, cause, &mut local);
        self.run_local(id, &mut local);
    }

    fn run_local(&mut self, id: ServerId, local: &mut VecDeque<(GameAction, u32)>) {
        while let Some((action, cause)) = local.pop_front() {
            match action {
                GameAction::ToMatrix(msg) => {
                    let now = self.now;
                    let s = self.tracer.begin(Layer::OnGame, cause);
                    let actions = self.node(id).matrix.on_game(now, msg);
                    let cause = self.tracer.end(s);
                    self.route_matrix(id, actions, cause, local);
                }
                GameAction::ToClient(client, msg) => self.deliver_client(client, msg, cause),
            }
        }
    }

    /// `node.rs::route_matrix`.
    fn route_matrix(
        &mut self,
        id: ServerId,
        actions: Vec<Action>,
        cause: u32,
        local: &mut VecDeque<(GameAction, u32)>,
    ) {
        for action in actions {
            match action {
                Action::ToGame(msg) => {
                    let layer = match msg {
                        MatrixToGame::ReplicaBatch { .. } => Layer::ReplicaApply,
                        _ => Layer::OnMatrix,
                    };
                    let now = self.now;
                    let s = self.tracer.begin(layer, cause);
                    let actions = self.node(id).game.on_matrix(now, msg);
                    let cause = self.tracer.end(s);
                    local.extend(actions.into_iter().map(|a| (a, cause)));
                }
                Action::ToPeer(to, msg) => self.queue.push_back(Work::Peer {
                    to,
                    from: id,
                    msg,
                    cause,
                }),
                Action::ToCoord(msg) => self.queue.push_back(Work::Coord(msg, cause)),
                Action::ToPool(msg) => self.queue.push_back(Work::Pool(id, msg, cause)),
            }
        }
    }

    /// One client-bound message across the wire and into the client:
    /// `encode_server_frame` → `FrameAccumulator` → `reconstruct_updates`
    /// → `Extrapolator`, with every output check on the way.
    fn deliver_client(&mut self, client: ClientId, msg: GameToClient, cause: u32) {
        let index = (client.0 - 1) as usize;
        let now_us = self.now.as_micros();
        let now_s = self.now.as_secs_f64();
        let c = &mut self.clients[index];
        let meta = FrameMeta {
            seq: c.frames,
            stamp_ms: (now_us / 1_000) as u32,
        };
        c.frames += 1;
        let s = self.tracer.begin(Layer::Encode, cause);
        let encoded = s.index();
        let bytes = codec_v2::encode_server_frame(&msg, meta, self.crc);
        let s = self.tracer.then(s, Layer::Check, encoded);
        self.tally.frames += 1;
        self.tally.wire_bytes += bytes.len() as u64;
        if matches!(msg, GameToClient::UpdateBatch { .. }) {
            self.tally.batches += 1;
            self.tally.batch_bytes += bytes.len() as u64;
        }
        self.digest.update(&bytes);
        self.tally.wire_digest = self.digest.value();
        let s = self.tracer.then(s, Layer::Decode, encoded);
        let cause = s.index();
        c.acc.push(&bytes);
        let decoded = c.acc.next();
        let s = self.tracer.then(s, Layer::Check, cause);
        let intact = matches!(&decoded, Some(Ok((Frame::Server(got), m))) if *got == msg && *m == meta)
            && c.acc.pending_bytes() == 0;
        self.tracer.end(s);
        if !intact {
            self.tally.bad_frames += 1;
            return;
        }
        match c
            .rx
            .apply(&msg, now_s, &mut self.tracer, cause, |_, _, _| {})
        {
            Ok(Applied::Items(n)) => self.tally.items += u64::from(n),
            Ok(Applied::Ack) => self.tally.acks += 1,
            Ok(Applied::Joined(server)) => c.server = Some(ServerId(server)),
            Ok(Applied::Switch(to)) => {
                // Re-join where the instruction points, as `RtClient` and
                // the gateway do on the client's behalf.
                self.tally.switches += 1;
                c.server = Some(ServerId(to));
                let join = join_msg(c.pos);
                self.queue
                    .push_back(Work::FromClient(ServerId(to), index as u32, join, cause));
            }
            Ok(Applied::Other) => {}
            Err(_) => self.tally.bad_batches += 1,
        }
    }

    /// Sums the counters of every node.
    pub fn totals(&self) -> NodeTotals {
        let mut t = NodeTotals::default();
        for n in &self.nodes {
            t.game.add(n.game.stats());
            t.matrix.add(n.matrix.stats());
            if n.matrix.lifecycle() == Lifecycle::Active {
                t.active += 1;
                if n.matrix.stats().standbys_acquired > 0 && n.game.stats().replica_acks_in > 0 {
                    t.standbys_warm += 1;
                }
            }
        }
        t
    }

    /// The server currently serving a client.
    pub fn server_of(&self, client: u32) -> Option<u32> {
        self.clients[client as usize].server.map(|s| s.0)
    }

    /// Sums the stage and flush histograms the program exports through
    /// `GameServerNode::telemetry_snapshot()` (zero with telemetry off).
    pub fn stage_sums(&self) -> StageSums {
        let mut sums = StageSums::default();
        for n in &self.nodes {
            let Some(snap) = n.game.telemetry_snapshot() else {
                continue;
            };
            let add = |slot: &mut (u64, f64), name: &str| {
                if let Some(h) = snap.get_hist(name) {
                    slot.0 += h.count;
                    slot.1 += h.sum;
                }
            };
            add(&mut sums.query, "stage_query_us");
            add(&mut sums.tier, "stage_tier_us");
            add(&mut sums.predict, "stage_predict_us");
            add(&mut sums.policy, "stage_policy_us");
            add(&mut sums.delta, "stage_delta_us");
            add(&mut sums.flush, "flush_us");
        }
        sums
    }
}
