//! Cluster assembly: coordinator task, pool task, node fleet, clients.

use crate::client::RtClient;
use crate::node::{spawn_node, NodeHandle, NodeMsg, NodeSnapshot};
use crate::router::Router;
use matrix_core::{
    CoordAction, CoordMsg, Coordinator, CoordinatorConfig, GameServerConfig, HostInput,
    MatrixConfig, PoolMsg, ResourcePool, TelemetrySnapshot,
};
use matrix_geometry::{Point, Rect, ServerId};
use tokio::sync::{mpsc, oneshot};

/// A live handle onto the coordinator task's freshness-SLO tracker.
///
/// The coordinator owns the [`matrix_core::Coordinator`] exclusively
/// inside its task, so the probe round-trips a oneshot through the
/// task's mailbox select loop rather than sharing state. Cloneable:
/// the stats endpoint keeps one per listener.
#[derive(Clone)]
pub struct SloProbe {
    tx: mpsc::UnboundedSender<oneshot::Sender<TelemetrySnapshot>>,
}

impl SloProbe {
    /// Fetches the coordinator's current SLO gauges (`slo_*`), or
    /// `None` if the coordinator task has exited. Empty when no ring
    /// carries a staleness target.
    pub async fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let (tx, rx) = oneshot::channel();
        self.tx.send(tx).ok()?;
        rx.await.ok()
    }
}

/// Configuration of an in-process Matrix cluster.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// The game world.
    pub world: Rect,
    /// Radius of visibility.
    pub radius: f64,
    /// Matrix-server behaviour.
    pub matrix: MatrixConfig,
    /// Game-server behaviour.
    pub game: GameServerConfig,
    /// Coordinator behaviour.
    pub coordinator: CoordinatorConfig,
    /// Number of spare servers in the pool.
    pub pool_size: u32,
    /// Deployment failure-domain (rack / availability-zone) tags per
    /// server id, handed to [`ResourcePool::with_zones`]: standby
    /// acquisitions then prefer a spare outside the requesting
    /// primary's zone. Empty (the default) leaves every zone unknown.
    pub zones: Vec<(ServerId, u32)>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            world: Rect::from_coords(0.0, 0.0, 800.0, 800.0),
            radius: 100.0,
            matrix: MatrixConfig::default(),
            game: GameServerConfig::default(),
            coordinator: CoordinatorConfig::default(),
            pool_size: 8,
            zones: Vec::new(),
        }
    }
}

impl RtConfig {
    /// Stripes every server id (the bootstrap node and the pool spares)
    /// across `n` zones round-robin — the simplest deployment shape
    /// where consecutive machine ids land in different racks.
    pub fn with_zone_stripes(mut self, n: u32) -> RtConfig {
        self.zones = (1..2 + self.pool_size)
            .map(|id| (ServerId(id), id % n.max(1)))
            .collect();
        self
    }
}

/// A running in-process Matrix cluster.
pub struct RtCluster {
    router: Router,
    bootstrap: NodeHandle,
    nodes: Vec<NodeHandle>,
    slo: SloProbe,
}

impl RtCluster {
    /// Starts coordinator, pool, the bootstrap node and `pool_size` spare
    /// nodes, and registers the game world.
    pub async fn start(cfg: RtConfig) -> RtCluster {
        let router = Router::new();

        // Coordinator task.
        let (coord_tx, coord_rx) = mpsc::unbounded_channel();
        router.register_coordinator(coord_tx);
        let (slo_tx, slo_rx) = mpsc::unbounded_channel();
        let slo = SloProbe { tx: slo_tx };
        tokio::spawn(run_coordinator(
            cfg.coordinator,
            router.clone(),
            coord_rx,
            slo.clone(),
            slo_rx,
        ));

        // Pool task.
        let (pool_tx, pool_rx) = mpsc::unbounded_channel();
        router.register_pool(pool_tx);
        let spares: Vec<ServerId> = (2..2 + cfg.pool_size).map(ServerId).collect();
        tokio::spawn(run_pool(
            ResourcePool::new(spares.clone()).with_zones(cfg.zones.clone()),
            router.clone(),
            pool_rx,
        ));

        // Bootstrap node plus idle spares (the pool's machines).
        let bootstrap = spawn_node(ServerId(1), cfg.matrix, cfg.game, router.clone());
        let mut nodes = vec![bootstrap.clone()];
        for id in spares {
            nodes.push(spawn_node(id, cfg.matrix, cfg.game, router.clone()));
        }

        // Developer bootstrap: register the game on the first node.
        bootstrap.send(NodeMsg::Input(HostInput::Register {
            world: cfg.world,
            radius: cfg.radius,
        }));
        // Ready once the bootstrap node has taken the registration and
        // reports itself active (the coordinator's overlap table for a
        // one-server world is empty; nothing routes differently before
        // it lands). Bounded: a node that never gets there is the
        // caller's to discover, as it always was.
        let active = async {
            while let Some(snap) = bootstrap.snapshot().await {
                if snap.lifecycle == matrix_core::Lifecycle::Active {
                    break;
                }
                tokio::time::sleep(std::time::Duration::from_millis(1)).await;
            }
        };
        let _ = tokio::time::timeout(std::time::Duration::from_millis(50), active).await;

        RtCluster {
            router,
            bootstrap,
            nodes,
            slo,
        }
    }

    /// The cluster's address book (for gateways and clients).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The bootstrap node's id.
    pub fn bootstrap_id(&self) -> ServerId {
        self.bootstrap.id
    }

    /// Connects a new client at `pos` (joined to the bootstrap server;
    /// the middleware redirects as needed).
    pub fn client(&self, pos: Point) -> RtClient {
        RtClient::connect(self.router.clone(), self.bootstrap.id, pos)
    }

    /// Snapshots every node's state.
    pub async fn snapshots(&self) -> Vec<NodeSnapshot> {
        let mut out = Vec::new();
        for node in &self.nodes {
            if let Some(s) = node.snapshot().await {
                out.push(s);
            }
        }
        out
    }

    /// Number of nodes actively managing a partition.
    pub async fn active_servers(&self) -> usize {
        self.snapshots()
            .await
            .iter()
            .filter(|s| s.lifecycle == matrix_core::Lifecycle::Active)
            .count()
    }

    /// Binds a live stats endpoint over every node in the cluster (see
    /// [`crate::wire::spawn_stats_endpoint`]); returns the bound
    /// address. Read it with [`crate::wire::TcpStatsClient`]. The
    /// coordinator's freshness-SLO gauges ride along as pseudo-node
    /// `ServerId(0)` whenever any ring carries a staleness target.
    ///
    /// # Errors
    ///
    /// Returns any bind error from the operating system.
    pub async fn serve_stats(
        &self,
        addr: impl tokio::net::ToSocketAddrs,
    ) -> Result<std::net::SocketAddr, crate::wire::WireError> {
        crate::wire::spawn_stats_endpoint(addr, self.nodes.clone(), Some(self.slo.clone())).await
    }

    /// Stops every node task.
    pub async fn shutdown(self) {
        for node in &self.nodes {
            node.send(NodeMsg::Input(HostInput::Shutdown));
        }
    }

    /// Kills one node as a crashed process would die: no flush, no
    /// goodbye — its heartbeats simply stop, and the coordinator's
    /// liveness sweep takes it from there (failover when the node had a
    /// warm standby).
    pub fn crash(&self, id: ServerId) {
        self.router.send_node(id, NodeMsg::Crash);
    }
}

async fn run_coordinator(
    cfg: CoordinatorConfig,
    router: Router,
    mut rx: mpsc::UnboundedReceiver<CoordMsg>,
    // Keepalive clone of the probe sender: the probe channel therefore
    // never closes, so the select arm below stays pending (instead of
    // spinning on `None`) once external probes are gone. The task still
    // exits through the coordinator mailbox closing.
    _slo_keepalive: SloProbe,
    mut slo_rx: mpsc::UnboundedReceiver<oneshot::Sender<TelemetrySnapshot>>,
) {
    let mut coordinator = Coordinator::new(cfg);
    let sweep_every = std::time::Duration::from_micros(cfg.sweep_interval().as_micros());
    let mut sweep = tokio::time::interval(sweep_every);
    loop {
        tokio::select! {
            maybe = rx.recv() => {
                let Some(msg) = maybe else { break };
                let actions = coordinator.handle(router.now(), msg);
                deliver(&router, actions);
            }
            maybe = slo_rx.recv() => {
                if let Some(reply) = maybe {
                    let _ = reply.send(coordinator.slo_snapshot());
                }
            }
            _ = sweep.tick() => {
                let actions = coordinator.check_liveness(router.now());
                deliver(&router, actions);
            }
        }
    }
}

fn deliver(router: &Router, actions: Vec<CoordAction>) {
    for CoordAction::Send(to, reply) in actions {
        router.send_node(to, NodeMsg::Input(HostInput::Coord(reply)));
    }
}

async fn run_pool(
    mut pool: ResourcePool,
    router: Router,
    mut rx: mpsc::UnboundedReceiver<(ServerId, PoolMsg)>,
) {
    while let Some((from, msg)) = rx.recv().await {
        if let Some(reply) = pool.handle(msg) {
            router.send_node(from, NodeMsg::Input(HostInput::Pool(reply)));
        }
    }
}
