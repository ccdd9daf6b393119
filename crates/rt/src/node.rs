//! A node task: one co-located game server + Matrix server pair.
//!
//! The task owns a [`Host`] and a tick timer. Inputs arrive on the
//! inbox, [`Host::step`] runs the pair to quiescence (same machine, as
//! the paper deploys them), and what leaves the machine is sent through
//! the [`Router`] — the same `Host::step` the discrete-event harness
//! executes, under a different transport.

use crate::router::Router;
use matrix_core::{
    GameServerConfig, GameServerNode, GameStats, Histogram, Host, HostInput, Lifecycle,
    MatrixConfig, MatrixServer, Outbound, ServerStats, TelemetrySnapshot,
};
use matrix_geometry::{Rect, ServerId};
use tokio::sync::{mpsc, oneshot};

/// Messages a node task accepts.
// Nearly every message is an `Input`; boxing it would buy the two rare
// variants a smaller enum with an allocation per client packet.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NodeMsg {
    /// Something for the host to handle: a client packet, a peer,
    /// coordinator or pool message, the bootstrap registration, or
    /// `HostInput::Shutdown` — the graceful stop, after whose final
    /// flush the task exits.
    Input(HostInput),
    /// Point-in-time observability snapshot.
    Snapshot(oneshot::Sender<NodeSnapshot>),
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
    // Real clients hang off this runtime, so fan-out is emitted for real,
    // and a sharded flush runs each shard's policy ranking and delta
    // encoding on its own scoped worker.
    let game = GameServerNode::new(id, gcfg)
        .with_fanout()
        .with_parallel_flush();
    let mut host = Host::new(game, MatrixServer::new(id, mcfg));
    let mut out = Vec::new();
    // Driver-side tick latency: how long a whole active tick takes
    // (flush and sends included) on the real runtime. The clock reads are
    // the very cost being measured, so they are gated on the telemetry
    // switch.
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
                let active = host.matrix().lifecycle() == Lifecycle::Active;
                let t0 = (telemetry_on && active).then(std::time::Instant::now);
                // The runtime has no fluid queue model; the inbox is the
                // real queue and client counts drive adaptation.
                host.step(router.now(), HostInput::Tick { queue_backlog: 0.0 }, &mut out);
                send(&router, id, &mut out);
                if let Some(t0) = t0 {
                    tick_hist.record(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            maybe = rx.recv() => {
                let Some(msg) = maybe else { break };
                match msg {
                    NodeMsg::Input(input) => {
                        let stop = matches!(input, HostInput::Shutdown);
                        host.step(router.now(), input, &mut out);
                        send(&router, id, &mut out);
                        if stop {
                            break;
                        }
                    }
                    NodeMsg::Snapshot(reply) => {
                        let (game, matrix) = (host.game(), host.matrix());
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
                    NodeMsg::Crash => break,
                }
            }
        }
    }
}

/// The transport half: hands everything a step left to the router.
fn send(router: &Router, id: ServerId, out: &mut Vec<Outbound>) {
    for outbound in out.drain(..) {
        match outbound {
            Outbound::ToClient(client, msg) => router.send_client(client, msg),
            Outbound::ToPeer(peer, msg) => {
                router.send_node(peer, NodeMsg::Input(HostInput::Peer { from: id, msg }))
            }
            Outbound::ToCoord(msg) => router.send_coordinator(msg),
            Outbound::ToPool(msg) => router.send_pool(id, msg),
            // The inbox is a real queue; there is no model to charge.
            Outbound::Local(_) => {}
        }
    }
}
