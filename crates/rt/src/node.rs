//! A node task: one co-located game server + Matrix server pair.
//!
//! The task owns the two sans-io state machines and a tick timer. Inputs
//! arrive on the inbox; outputs are routed through the [`Router`]. Local
//! game↔matrix deliveries are processed in place (same machine, as the
//! paper deploys them), exactly mirroring the discrete-event harness.

use crate::router::Router;
use matrix_core::{
    Action, ClientId, ClientToGame, CoordReply, GameAction, GameServerConfig, GameServerNode,
    GameStats, Histogram, Lifecycle, MatrixConfig, MatrixServer, PeerMsg, PoolReply, ServerStats,
    TelemetrySnapshot,
};
use matrix_geometry::{Rect, ServerId};
use std::collections::VecDeque;
use tokio::sync::{mpsc, oneshot};

/// Messages a node task accepts.
#[derive(Debug)]
pub enum NodeMsg {
    /// A client packet addressed to this game server.
    FromClient(ClientId, ClientToGame),
    /// A peer Matrix server's message.
    Peer {
        /// Sending server.
        from: ServerId,
        /// The message.
        msg: PeerMsg,
    },
    /// A coordinator reply.
    Coord(CoordReply),
    /// A pool reply.
    Pool(PoolReply),
    /// Developer bootstrap: register the game world on this node.
    Register {
        /// The world rectangle.
        world: Rect,
        /// Radius of visibility.
        radius: f64,
    },
    /// Point-in-time observability snapshot.
    Snapshot(oneshot::Sender<NodeSnapshot>),
    /// Graceful stop.
    Shutdown,
    /// Simulated process death (failover tests): the task exits
    /// immediately — no final flush, no goodbye, heartbeats just stop,
    /// exactly as a crashed machine would look to the cluster.
    Crash,
}

/// Observable state of a node.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The node's server id.
    pub id: ServerId,
    /// Matrix lifecycle state.
    pub lifecycle: Lifecycle,
    /// Managed range, if active.
    pub range: Option<Rect>,
    /// Connected clients.
    pub clients: usize,
    /// Matrix-side counters.
    pub matrix_stats: ServerStats,
    /// Game-side counters.
    pub game_stats: GameStats,
    /// Live telemetry (counters, stage/flush/tick histograms), present
    /// only when [`GameServerConfig::telemetry`] is on.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Handle for sending to a node task.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    /// The node's server id.
    pub id: ServerId,
    tx: mpsc::UnboundedSender<NodeMsg>,
}

impl NodeHandle {
    /// Sends a message to the node (dropped if the task exited).
    pub fn send(&self, msg: NodeMsg) {
        let _ = self.tx.send(msg);
    }

    /// Requests a state snapshot.
    pub async fn snapshot(&self) -> Option<NodeSnapshot> {
        let (tx, rx) = oneshot::channel();
        self.send(NodeMsg::Snapshot(tx));
        rx.await.ok()
    }
}

/// Spawns a node task and registers it with the router.
pub fn spawn_node(
    id: ServerId,
    mcfg: MatrixConfig,
    gcfg: GameServerConfig,
    router: Router,
) -> NodeHandle {
    let (tx, rx) = mpsc::unbounded_channel();
    router.register_node(id, tx.clone());
    tokio::spawn(run_node(id, mcfg, gcfg, router, rx));
    NodeHandle { id, tx }
}

async fn run_node(
    id: ServerId,
    mcfg: MatrixConfig,
    gcfg: GameServerConfig,
    router: Router,
    mut rx: mpsc::UnboundedReceiver<NodeMsg>,
) {
    let mut matrix = MatrixServer::new(id, mcfg);
    // Real clients hang off this runtime, so fan-out is emitted for real.
    let mut game = GameServerNode::new(id, gcfg).with_fanout();
    if gcfg.flush_workers > 1 {
        // Spread the flush across real threads: each shard's policy
        // ranking and delta encoding runs on its own scoped worker.
        game = game.with_parallel_flush();
    }
    // Driver-side tick latency: how long a whole active game tick takes
    // (flush included) on the real runtime. The clock reads are the very
    // cost being measured, so they are gated on the telemetry switch.
    let telemetry_on = gcfg.telemetry;
    let mut tick_hist = Histogram::new();
    let tick = std::time::Duration::from_micros(gcfg.tick.as_micros());
    let mut ticker = tokio::time::interval(tick.max(std::time::Duration::from_millis(10)));
    ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);

    loop {
        tokio::select! {
            // The ticker comes first: `select!` polls in declaration order,
            // and an inbox that never runs dry must not postpone the flush
            // (and with it every client's batch).
            _ = ticker.tick() => {
                let now = router.now();
                if matrix.lifecycle() == Lifecycle::Active {
                    let t0 = telemetry_on.then(std::time::Instant::now);
                    // The runtime has no fluid queue model; the inbox is
                    // the real queue and client counts drive adaptation.
                    let game_actions = game.on_tick(now, 0.0);
                    dispatch_game(&router, id, &mut matrix, &mut game, game_actions);
                    if let Some(t0) = t0 {
                        tick_hist.record(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                // The Matrix side ticks in every lifecycle: idle warm
                // standbys heartbeat so the coordinator can tell a live
                // standby from a dead one.
                let matrix_actions = matrix.on_tick(now);
                dispatch_matrix(&router, id, &mut matrix, &mut game, matrix_actions);
            }
            maybe = rx.recv() => {
                let Some(msg) = maybe else { break };
                let now = router.now();
                match msg {
                    NodeMsg::FromClient(client, m) => {
                        let actions = game.on_client(now, client, m);
                        dispatch_game(&router, id, &mut matrix, &mut game, actions);
                    }
                    NodeMsg::Peer { from, msg } => {
                        let actions = matrix.on_peer(now, from, msg);
                        dispatch_matrix(&router, id, &mut matrix, &mut game, actions);
                    }
                    NodeMsg::Coord(reply) => {
                        let actions = matrix.on_coord(now, reply);
                        dispatch_matrix(&router, id, &mut matrix, &mut game, actions);
                    }
                    NodeMsg::Pool(reply) => {
                        let actions = matrix.on_pool(now, reply);
                        dispatch_matrix(&router, id, &mut matrix, &mut game, actions);
                    }
                    NodeMsg::Register { world, radius } => {
                        let actions = game.register(world, radius);
                        dispatch_game(&router, id, &mut matrix, &mut game, actions);
                    }
                    NodeMsg::Snapshot(reply) => {
                        let telemetry = game.telemetry_snapshot().map(|mut snap| {
                            snap.hist("rt_tick_us", &tick_hist);
                            snap
                        });
                        let _ = reply.send(NodeSnapshot {
                            id,
                            lifecycle: matrix.lifecycle(),
                            range: matrix.range(),
                            clients: game.client_count(),
                            matrix_stats: *matrix.stats(),
                            game_stats: *game.stats(),
                            telemetry,
                        });
                    }
                    NodeMsg::Shutdown => {
                        // Deliver what the batcher still holds so a
                        // graceful stop cannot eat the last interval's
                        // updates — and clear per-client delta bases so a
                        // client rejoining a restarted node receives a
                        // keyframe, never a delta against lost state.
                        let actions = game.shutdown_flush(now);
                        dispatch_game(&router, id, &mut matrix, &mut game, actions);
                        break;
                    }
                    NodeMsg::Crash => break,
                }
            }
        }
    }
}

/// Routes game-server actions, processing local matrix deliveries inline.
fn dispatch_game(
    router: &Router,
    id: ServerId,
    matrix: &mut MatrixServer,
    game: &mut GameServerNode,
    actions: Vec<GameAction>,
) {
    let mut queue: VecDeque<GameAction> = actions.into();
    while let Some(action) = queue.pop_front() {
        match action {
            GameAction::ToMatrix(msg) => {
                let now = router.now();
                let matrix_actions = matrix.on_game(now, msg);
                route_matrix(router, id, game, matrix_actions, &mut queue);
            }
            GameAction::ToClient(client, msg) => router.send_client(client, msg),
        }
    }
}

/// Routes Matrix-server actions, processing local game deliveries inline.
fn dispatch_matrix(
    router: &Router,
    id: ServerId,
    matrix: &mut MatrixServer,
    game: &mut GameServerNode,
    actions: Vec<Action>,
) {
    let mut queue: VecDeque<GameAction> = VecDeque::new();
    route_matrix(router, id, game, actions, &mut queue);
    while let Some(action) = queue.pop_front() {
        match action {
            GameAction::ToMatrix(msg) => {
                let now = router.now();
                let matrix_actions = matrix.on_game(now, msg);
                route_matrix(router, id, game, matrix_actions, &mut queue);
            }
            GameAction::ToClient(client, msg) => router.send_client(client, msg),
        }
    }
}

fn route_matrix(
    router: &Router,
    id: ServerId,
    game: &mut GameServerNode,
    actions: Vec<Action>,
    queue: &mut VecDeque<GameAction>,
) {
    for action in actions {
        match action {
            Action::ToGame(msg) => {
                let now = router.now();
                queue.extend(game.on_matrix(now, msg));
            }
            Action::ToPeer(peer, msg) => router.send_node(peer, NodeMsg::Peer { from: id, msg }),
            Action::ToCoord(msg) => router.send_coordinator(msg),
            Action::ToPool(msg) => router.send_pool(id, msg),
        }
    }
}
