//! The discrete-event cluster harness.
//!
//! Wires the sans-io state machines of `matrix-core` to the `matrix-sim`
//! kernel: every protocol message becomes a timestamped event delivered
//! over modelled links, every game-server node owns a fluid
//! [`ServiceQueue`] whose backlog is the paper's "receive queue length",
//! and a scripted [`WorkloadSchedule`] drives clients exactly as §4.1
//! describes. One [`Cluster::run`] call replays an entire experiment
//! deterministically for a given seed.

use matrix_core::{
    ClientId, ClientToGame, CoordAction, CoordMsg, CoordReply, Coordinator, CoordinatorConfig,
    GameServerConfig, GameServerNode, GameStats, GameToClient, Host, HostInput, LocalDelivery,
    MatrixConfig, MatrixServer, MatrixToGame, Outbound, PeerMsg, PoolMsg, PoolReply, ResourcePool,
};
use matrix_games::{ClientPop, GameSpec, PopulationEvent, WorkloadSchedule};
use matrix_geometry::{Point, ServerId};
use matrix_metrics::{Histogram, TimeSeries};
use matrix_sim::{EventQueue, LinkModel, ServiceQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Network shape of the deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Client ↔ game-server link (wide area).
    pub client_link: LinkModel,
    /// Matrix-server ↔ Matrix-server link (datacenter).
    pub server_link: LinkModel,
    /// Matrix-server ↔ coordinator link (datacenter).
    pub coord_link: LinkModel,
    /// Provisioning delay for a pool grant (boot a spare server).
    pub pool_delay: SimDuration,
    /// Extra client-side delay to tear down and re-establish a connection
    /// during a server switch.
    pub reconnect_delay: SimDuration,
    /// How long a client takes to notice its server is dead and reconnect
    /// elsewhere (keepalive timeout).
    pub crash_detect: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            client_link: LinkModel::constant_millis(25),
            server_link: LinkModel {
                latency: matrix_sim::LatencyModel::constant_millis(1),
                loss_probability: 0.0,
                bandwidth_bytes_per_sec: Some(125_000_000.0), // 1 Gbps
            },
            coord_link: LinkModel::constant_millis(1),
            pool_delay: SimDuration::from_millis(500),
            reconnect_delay: SimDuration::from_millis(50),
            crash_detect: SimDuration::from_secs(3),
        }
    }
}

/// Everything configurable about one experiment run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The game being played.
    pub spec: GameSpec,
    /// Matrix-server behaviour (adaptive vs static, thresholds, strategy).
    pub matrix: MatrixConfig,
    /// Game-server behaviour.
    pub game: GameServerConfig,
    /// Coordinator behaviour.
    pub coordinator: CoordinatorConfig,
    /// Network shape.
    pub net: NetConfig,
    /// Spare servers in the pool.
    pub pool_size: u32,
    /// Initial static servers (1 = adaptive bootstrap; >1 = static grid).
    pub initial_servers: u32,
    /// Receive-queue capacity in work units (`None` = unbounded).
    pub queue_capacity: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Metric sampling interval.
    pub sample_every: SimDuration,
    /// Scripted node crashes (time, victim).
    pub crashes: Vec<(SimTime, ServerId)>,
    /// Deployment failure-domain (rack / availability-zone) tags per
    /// server id, threaded into `ResourcePool::with_zones`: standby
    /// acquisitions then prefer a spare outside the requesting
    /// primary's zone. Empty (the default) leaves every zone unknown.
    pub zones: Vec<(ServerId, u32)>,
}

impl ClusterConfig {
    /// An adaptive single-bootstrap deployment of `spec` (the paper's
    /// Matrix configuration).
    pub fn adaptive(spec: GameSpec) -> ClusterConfig {
        let matrix = MatrixConfig {
            split_strategy: matrix_geometry::SplitStrategy::SplitToLeft,
            metric: spec.metric,
            ..MatrixConfig::default()
        };
        let game = spec.game_config();
        let coordinator = CoordinatorConfig {
            metric: spec.metric,
            ..CoordinatorConfig::default()
        };
        ClusterConfig {
            spec,
            matrix,
            game,
            coordinator,
            net: NetConfig::default(),
            pool_size: 16,
            initial_servers: 1,
            queue_capacity: None,
            seed: 42,
            sample_every: SimDuration::from_secs(1),
            crashes: Vec::new(),
            zones: Vec::new(),
        }
    }

    /// The static-partitioning baseline with `k` fixed servers.
    pub fn static_partition(spec: GameSpec, k: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::adaptive(spec);
        cfg.matrix = MatrixConfig {
            metric: cfg.matrix.metric,
            ..MatrixConfig::static_baseline()
        };
        cfg.initial_servers = k.max(1);
        cfg.pool_size = 0;
        // Static servers have finite buffers; when they saturate they drop
        // ("the static partitioning schemes just fail", §4.2).
        cfg.queue_capacity = Some(cfg.spec.server_capacity * 5.0);
        cfg
    }

    /// Stripes every server id this deployment can ever use (the
    /// initial servers and the pool spares) across `n` zones
    /// round-robin — consecutive machine ids land in different racks,
    /// so standby placement has a cross-zone spare to prefer.
    pub fn with_zone_stripes(mut self, n: u32) -> ClusterConfig {
        let last = self.initial_servers + 1 + self.pool_size;
        self.zones = (1..=last).map(|id| (ServerId(id), id % n.max(1))).collect();
        self
    }
}

/// One machine: the co-located pair, and what only the simulation
/// knows about it — its modelled receive queue and whether it crashed.
struct Node {
    host: Host,
    queue: ServiceQueue,
    alive: bool,
    clients_series: TimeSeries,
    queue_series: TimeSeries,
}

/// Simulation events.
enum Event {
    /// A client's periodic update cycle.
    ClientUpdate(ClientId),
    /// A scripted population change (index into the schedule).
    Population(usize),
    /// A client finishes (re)connecting to a server.
    ClientJoin(ClientId, ServerId),
    /// Peer message delivery.
    Peer {
        to: ServerId,
        from: ServerId,
        msg: PeerMsg,
    },
    /// Message to the coordinator.
    Coord(CoordMsg),
    /// Coordinator reply delivery.
    CoordReply(ServerId, CoordReply),
    /// Pool request (requester encoded in the message).
    Pool(ServerId, PoolMsg),
    /// Pool reply delivery.
    PoolReply(ServerId, PoolReply),
    /// Per-node game tick.
    NodeTick(ServerId),
    /// Coordinator liveness sweep.
    CoordSweep,
    /// Metrics sampling.
    Sample,
    /// Failure injection.
    Crash(ServerId),
    /// A client's keepalive on a dead server expired without a failover
    /// resume: it gives up and reconnects from scratch.
    KeepaliveExpire(ClientId),
}

/// One adaptation event for the run timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyEvent {
    /// `parent` split, handing a range to `child`.
    Split {
        /// Splitting server.
        parent: ServerId,
        /// New server.
        child: ServerId,
    },
    /// `parent` reclaimed `child`.
    Reclaim {
        /// Absorbing parent.
        parent: ServerId,
        /// Folded child.
        child: ServerId,
    },
    /// A crashed/orphaned server's range was reassigned.
    Failure {
        /// The dead or orphaned server.
        victim: ServerId,
    },
    /// A crashed server's warm standby was promoted in its place.
    Failover {
        /// The dead primary.
        failed: ServerId,
        /// The promoted standby.
        standby: ServerId,
    },
}

impl std::fmt::Display for TopologyEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyEvent::Split { parent, child } => write!(f, "split   {parent} -> {child}"),
            TopologyEvent::Reclaim { parent, child } => write!(f, "reclaim {parent} <- {child}"),
            TopologyEvent::Failure { victim } => write!(f, "failure {victim} reassigned"),
            TopologyEvent::Failover { failed, standby } => {
                write!(f, "failover {failed} -> {standby}")
            }
        }
    }
}

/// Tracks one crashed server's clients from the crash to their first
/// post-failover delivery, measuring recovery as the client experiences
/// it.
#[derive(Debug, Clone)]
struct FailureProbe {
    victim: ServerId,
    crashed_at: SimTime,
    affected: Vec<ClientId>,
    first_delivery: Option<SimTime>,
}

/// One crashed server's recovery, as its clients experienced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// The crashed server.
    pub victim: ServerId,
    /// Crash → first `UpdateBatch` delivered to one of its clients: the
    /// full dark window, dominated by liveness detection.
    pub dark: SimDuration,
    /// Standby promotion → first delivery (`None` when recovery went
    /// through absorb + reconnect instead of failover). This is the
    /// part replication is responsible for; detection latency is the
    /// heartbeat timeout's business.
    pub post_promotion: Option<SimDuration>,
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-server client counts over time (Figure 2a).
    pub clients_per_server: Vec<TimeSeries>,
    /// Per-server receive-queue backlog over time (Figure 2b).
    pub queue_per_server: Vec<TimeSeries>,
    /// Number of active servers over time.
    pub servers_in_use: TimeSeries,
    /// Client action response latency (µs).
    pub response_latency_us: Histogram,
    /// Client switch (handoff) latency (µs).
    pub switch_latency_us: Histogram,
    /// Fraction of sampled responses above the 150 ms playability bound.
    pub late_fraction: f64,
    /// Total bytes exchanged between Matrix servers.
    pub inter_server_bytes: u64,
    /// Total client updates processed by game servers.
    pub updates_processed: u64,
    /// Every node's game-server counters, summed (`pred_error_max` is
    /// the largest): fan-out, batch bytes, delta/keyframe items, rate
    /// limiting, ring sampling, retunes, suppression and the rest.
    pub game: GameStats,
    /// Work units dropped at full queues (static-baseline failure mode).
    pub dropped_work: f64,
    /// Total client switches (handoffs) completed.
    pub switches: u64,
    /// Switches resolved by *resume*: the target server already held the
    /// client's replicated session, so no reconnect or state transfer
    /// was needed (failover promotions).
    pub resumes: u64,
    /// Clients whose keepalive on a dead server expired before any
    /// failover resume reached them — each one is a full disconnect and
    /// reconnect. Zero when failover beats the keepalive.
    pub disconnects: u64,
    /// Client update cycles that first found their server dead — each
    /// affected client detects once, then pauses until a failover
    /// resume or its keepalive expiry.
    pub updates_to_dead: u64,
    /// Estimated bytes of replication traffic between primaries and
    /// standbys — the steady-state overhead fault tolerance costs.
    pub replica_bytes: u64,
    /// Per-victim recovery timings (crash → delivery, and promotion →
    /// delivery when a failover happened).
    pub recoveries: Vec<Recovery>,
    /// `UpdateBatch` messages delivered to clients (only non-zero when
    /// `GameServerConfig::emit_updates` is on).
    pub update_batches_delivered: u64,
    /// Individual updates carried inside those batches.
    pub batched_updates_delivered: u64,
    /// Batched items that carried a causal trace tag; each one was
    /// measured at apply and echoed back as a `TraceAck` (only non-zero
    /// when `GameServerConfig::trace_sample_rate` is on).
    pub traced_deliveries: u64,
    /// Per-ring freshness measured by the trace plane, merged across
    /// every node that was alive at the end of the run:
    /// `(delivery latency, staleness at apply)` histograms in µs,
    /// index = vision ring.
    pub trace_freshness: Vec<(Histogram, Histogram)>,
    /// Trace acks folded per server (non-zero entries only). A promoted
    /// standby appearing here proves traces kept flowing — and being
    /// measured — after a failover, not just before the crash.
    pub trace_acks_by_server: Vec<(ServerId, u64)>,
    /// Splits performed across the run.
    pub splits: u64,
    /// Reclaims performed across the run.
    pub reclaims: u64,
    /// Peak number of simultaneously active servers.
    pub peak_servers: usize,
    /// Peak receive-queue backlog across all servers.
    pub peak_queue: f64,
    /// Coordinator statistics at the end of the run.
    pub coordinator: matrix_core::CoordinatorStats,
    /// Pool statistics at the end of the run.
    pub pool: matrix_core::PoolStats,
    /// Total simulated events processed.
    pub events: u64,
    /// Time-ordered adaptation timeline (splits, reclaims, failures),
    /// read back from the coordinator's flight recorder.
    pub timeline: Vec<(SimTime, TopologyEvent)>,
    /// Cluster-wide telemetry: every node's heartbeat-carried snapshot
    /// merged, plus the driver's own tick-latency histogram
    /// (`sim_tick_us`). Empty unless `GameServerConfig::telemetry` is
    /// on.
    pub telemetry: matrix_core::TelemetrySnapshot,
}

impl ClusterReport {
    /// Peak client count observed on any single server.
    pub fn peak_clients_on_one_server(&self) -> f64 {
        self.clients_per_server
            .iter()
            .filter_map(|s| s.max_value())
            .fold(0.0, f64::max)
    }
}

/// The deterministic cluster simulation.
pub struct Cluster {
    cfg: ClusterConfig,
    pop: ClientPop,
    schedule: WorkloadSchedule,
    nodes: BTreeMap<ServerId, Node>,
    coordinator: Coordinator,
    pool: ResourcePool,
    queue: EventQueue<Event>,
    now: SimTime,
    rng: SimRng,
    response_latency: Histogram,
    switch_latency: Histogram,
    switch_started: BTreeMap<ClientId, SimTime>,
    /// Clients currently dark on a dead server, keyed to their pending
    /// keepalive deadline. Cleared on resume or reconnect, so a stale
    /// `KeepaliveExpire` event cannot hit a client that long since
    /// recovered and merely happens to be mid-switch again.
    keepalive_deadline: BTreeMap<ClientId, SimTime>,
    servers_in_use: TimeSeries,
    late: u64,
    samples: u64,
    switches: u64,
    resumes: u64,
    disconnects: u64,
    updates_to_dead: u64,
    replica_bytes: u64,
    update_batches: u64,
    batched_updates: u64,
    traced_deliveries: u64,
    late_threshold: SimDuration,
    bootstrap: ServerId,
    probes: Vec<FailureProbe>,
    /// Driver-side tick latency (µs), sampled only with
    /// `GameServerConfig::telemetry` on — the clock reads are the cost
    /// being measured.
    tick_hist: Histogram,
}

impl Cluster {
    /// Builds a cluster for a config and a workload script.
    pub fn new(cfg: ClusterConfig, schedule: WorkloadSchedule) -> Cluster {
        let seed = cfg.seed;
        let spec = cfg.spec.clone();
        let pop = ClientPop::new(spec, seed);
        let mut cluster = Cluster {
            pop,
            schedule,
            nodes: BTreeMap::new(),
            coordinator: Coordinator::new(cfg.coordinator),
            pool: ResourcePool::with_capacity(cfg.initial_servers + 1, cfg.pool_size)
                .with_zones(cfg.zones.clone()),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed ^ 0xC0FFEE),
            response_latency: Histogram::new(),
            switch_latency: Histogram::new(),
            switch_started: BTreeMap::new(),
            keepalive_deadline: BTreeMap::new(),
            servers_in_use: TimeSeries::new("servers"),
            late: 0,
            samples: 0,
            switches: 0,
            resumes: 0,
            disconnects: 0,
            updates_to_dead: 0,
            replica_bytes: 0,
            update_batches: 0,
            batched_updates: 0,
            traced_deliveries: 0,
            late_threshold: SimDuration::from_millis(150),
            bootstrap: ServerId(1),
            probes: Vec::new(),
            tick_hist: Histogram::new(),
            cfg,
        };
        cluster.bootstrap();
        cluster
    }

    /// A fresh machine: an idle Matrix server, as the pool hands them out.
    fn make_node(&self, id: ServerId) -> Node {
        self.node_around(
            GameServerNode::new(id, self.cfg.game),
            MatrixServer::new(id, self.cfg.matrix),
        )
    }

    fn node_around(&self, game: GameServerNode, matrix: MatrixServer) -> Node {
        let id = game.id();
        let mut queue = ServiceQueue::new(self.cfg.spec.server_capacity);
        if let Some(cap) = self.cfg.queue_capacity {
            queue = queue.with_capacity(cap);
        }
        Node {
            host: Host::new(game, matrix),
            queue,
            alive: true,
            clients_series: TimeSeries::new(format!("{id} clients")),
            queue_series: TimeSeries::new(format!("{id} queue")),
        }
    }

    fn bootstrap(&mut self) {
        let world = self.cfg.spec.world;
        let radius = self.cfg.spec.radius;
        if self.cfg.initial_servers <= 1 {
            // Adaptive bootstrap: one server registers the world.
            let id = ServerId(1);
            self.bootstrap = id;
            let node = self.make_node(id);
            self.nodes.insert(id, node);
            self.step(id, HostInput::Register { world, radius });
        } else {
            // Static grid: K servers with fixed ranges, tables pushed once.
            let servers: Vec<ServerId> = (1..=self.cfg.initial_servers).map(ServerId).collect();
            self.bootstrap = servers[0];
            let map = matrix_geometry::PartitionMap::static_grid(world, &servers)
                .expect("static grid construction");
            for &s in &servers {
                // Both halves start in place: no registration handshake.
                let range = map.range_of(s).expect("grid covers every server");
                let mut game = GameServerNode::new(s, self.cfg.game);
                let _ = game.register(world, radius); // registers radius
                game.on_matrix(SimTime::ZERO, MatrixToGame::SetRange { range, radius });
                let matrix = MatrixServer::with_range(s, self.cfg.matrix, range, radius);
                self.nodes.insert(s, self.node_around(game, matrix));
            }
            let (coordinator, actions) = Coordinator::with_map(self.cfg.coordinator, map, radius);
            self.coordinator = coordinator;
            for a in actions {
                let CoordAction::Send(to, reply) = a;
                self.step(to, HostInput::Coord(reply));
            }
        }
        // Schedule the script, node ticks, sweeps, samples, crashes.
        let events: Vec<(SimTime, usize)> = self
            .schedule
            .events()
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (*t, i))
            .collect();
        for (t, i) in events {
            self.queue.schedule(t, Event::Population(i));
        }
        let node_ids: Vec<ServerId> = self.nodes.keys().copied().collect();
        for id in node_ids {
            self.queue
                .schedule(SimTime::ZERO + self.cfg.game.tick, Event::NodeTick(id));
        }
        self.queue.schedule(
            SimTime::ZERO + self.cfg.coordinator.sweep_interval(),
            Event::CoordSweep,
        );
        self.queue
            .schedule(SimTime::ZERO + self.cfg.sample_every, Event::Sample);
        let crashes = self.cfg.crashes.clone();
        for (t, victim) in crashes {
            self.queue.schedule(t, Event::Crash(victim));
        }
    }

    /// Runs to the schedule horizon and produces the report.
    pub fn run(mut self) -> ClusterReport {
        let horizon = self.schedule.horizon;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(ev);
        }
        self.report()
    }

    // -- event handling -------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::ClientUpdate(id) => self.client_update(id),
            Event::Population(idx) => self.population_event(idx),
            Event::ClientJoin(id, server) => self.client_join(id, server),
            Event::Peer { to, from, msg } => {
                // Unknown (or dead) target: a fresh pool server being
                // adopted for a split, or armed as a warm standby.
                if !self.nodes.get(&to).is_some_and(|n| n.alive) {
                    if !matches!(
                        msg,
                        PeerMsg::AdoptPartition { .. } | PeerMsg::StandbyAssign { .. }
                    ) {
                        return;
                    }
                    let node = self.make_node(to);
                    self.nodes.insert(to, node);
                    self.queue
                        .schedule(self.now + self.cfg.game.tick, Event::NodeTick(to));
                }
                self.step(to, HostInput::Peer { from, msg });
            }
            Event::Coord(msg) => {
                // Splits, reclaims and orphaned ranges land in the
                // coordinator's flight recorder; the run timeline is
                // derived from it in `report`, not tracked here.
                let actions = self.coordinator.handle(self.now, msg);
                self.process_coord_actions(actions);
            }
            Event::CoordReply(to, reply) => self.step(to, HostInput::Coord(reply)),
            Event::Pool(requester, msg) => {
                let reply = self.pool.handle(msg);
                if let Some(reply) = reply {
                    let at = self.now + self.cfg.net.pool_delay;
                    self.queue.schedule(at, Event::PoolReply(requester, reply));
                }
            }
            Event::PoolReply(to, reply) => self.step(to, HostInput::Pool(reply)),
            Event::NodeTick(id) => self.node_tick(id),
            Event::CoordSweep => {
                // Failure declarations, failovers and promotions are
                // structured events in the coordinator's flight recorder
                // now; `report` reads them back, so the sweep needs no
                // side-channel probing of replies.
                let actions = self.coordinator.check_liveness(self.now);
                self.process_coord_actions(actions);
                self.queue.schedule(
                    self.now + self.cfg.coordinator.sweep_interval(),
                    Event::CoordSweep,
                );
            }
            Event::Sample => self.sample(),
            Event::Crash(victim) => {
                if let Some(node) = self.nodes.get_mut(&victim) {
                    node.alive = false;
                    // Snapshot the victim's population: the failure probe
                    // reports how long these clients went dark.
                    self.probes.push(FailureProbe {
                        victim,
                        crashed_at: self.now,
                        affected: node.host.game().client_ids(),
                        first_delivery: None,
                    });
                }
            }
            Event::KeepaliveExpire(id) => {
                // Only a client still dark from the episode this event
                // belongs to gives up and reconnects from scratch; a
                // client resumed (or reconnected) since had its deadline
                // cleared, even if it is now mid-switch for an ordinary
                // handover.
                let expired = self
                    .keepalive_deadline
                    .get(&id)
                    .is_some_and(|deadline| *deadline <= self.now);
                if expired && self.pop.get(id).is_some_and(|c| c.switching) {
                    self.keepalive_deadline.remove(&id);
                    self.disconnects += 1;
                    let pos = self.pop.get(id).expect("checked").walker.pos;
                    let owner = self.owner_of(pos);
                    self.client_join(id, owner);
                }
            }
        }
    }

    fn client_update(&mut self, id: ClientId) {
        let interval = SimDuration::from_secs_f64(self.pop.spec().update_interval_secs());
        let Some(client) = self.pop.get(id) else {
            return; // left the game
        };
        if client.switching {
            // Paused mid-switch; resume on the next cycle.
            self.queue
                .schedule(self.now + interval, Event::ClientUpdate(id));
            return;
        }
        let server = client.server;
        let Some((pos, action)) = self.pop.step(id, interval.as_secs_f64()) else {
            return;
        };
        let spec = self.cfg.spec.clone();
        let server_alive = self.nodes.get(&server).map(|n| n.alive).unwrap_or(false);
        if !server_alive {
            // The client's server is gone. It keeps trying (these uplink
            // packets are the staleness window) until either a failover
            // resume re-points it — no reconnect — or the keepalive
            // expires and it reconnects to whoever owns its position.
            self.updates_to_dead += 1;
            self.pop.begin_switch(id);
            self.switch_started.entry(id).or_insert(self.now);
            self.keepalive_deadline
                .insert(id, self.now + self.cfg.net.crash_detect);
            self.queue.schedule(
                self.now + self.cfg.net.crash_detect,
                Event::KeepaliveExpire(id),
            );
            self.queue
                .schedule(self.now + interval, Event::ClientUpdate(id));
            return;
        }
        let node = self.nodes.get_mut(&server).expect("alive, so present");
        // The cycle's move and (sometimes) action arrive together: both
        // are handled before the Matrix server answers either.
        let fanned_before = node.host.game().stats().updates_fanned;
        let mut out = Vec::new();
        let mv = ClientToGame::Move { pos };
        if action {
            node.host.stage_client(self.now, id, mv);
            let act = ClientToGame::Action {
                pos,
                payload_bytes: spec.action_bytes,
            };
            node.host
                .step(self.now, HostInput::Client(id, act), &mut out);
        } else {
            node.host
                .step(self.now, HostInput::Client(id, mv), &mut out);
        }
        let fanned = node.host.game().stats().updates_fanned - fanned_before;
        let packets = if action { 2.0 } else { 1.0 };
        let work = packets * spec.packet_work + spec.fanout_work * fanned as f64;
        node.queue.arrive(self.now, work);
        // Response latency sample for actions: uplink + queueing +
        // downlink.
        if action {
            let mut rng = self.rng.fork();
            let up = self
                .cfg
                .net
                .client_link
                .delay_for(spec.action_bytes, &mut rng);
            let down = self.cfg.net.client_link.delay_for(64, &mut rng);
            if let (Some(up), Some(down)) = (up, down) {
                let queueing = node.queue.drain_time(self.now);
                let total = up + queueing + down;
                self.response_latency.record(total.as_micros() as f64);
                self.samples += 1;
                if total >= self.late_threshold {
                    self.late += 1;
                }
            }
        }
        self.route(server, out);
        self.queue
            .schedule(self.now + interval, Event::ClientUpdate(id));
    }

    fn population_event(&mut self, idx: usize) {
        let (_, event) = self.schedule.events()[idx];
        match event {
            PopulationEvent::Join { .. } => {
                let ids = self.pop.apply(event, self.bootstrap);
                for id in ids {
                    let pos = self.pop.get(id).expect("just joined").walker.pos;
                    let owner = self.owner_of(pos);
                    self.pop.set_server(id, owner);
                    self.pop.begin_switch(id); // not connected until the join lands
                    let mut rng = self.rng.fork();
                    let delay = self
                        .cfg
                        .net
                        .client_link
                        .delay_for(256, &mut rng)
                        .unwrap_or(SimDuration::from_millis(25));
                    self.queue
                        .schedule(self.now + delay, Event::ClientJoin(id, owner));
                }
            }
            PopulationEvent::Leave { .. } => {
                let ids = self.pop.apply(event, self.bootstrap);
                for id in ids {
                    // Tell the hosting game server.
                    let hosts: Vec<ServerId> = self
                        .nodes
                        .iter()
                        .filter(|(_, n)| n.host.game().has_client(id))
                        .map(|(s, _)| *s)
                        .collect();
                    for s in hosts {
                        self.step(s, HostInput::Client(id, ClientToGame::Leave));
                    }
                }
            }
        }
    }

    fn client_join(&mut self, id: ClientId, server: ServerId) {
        let Some(client) = self.pop.get(id) else {
            return; // left while connecting
        };
        let pos = client.walker.pos;
        let state_bytes = self.cfg.spec.client_state_bytes;
        // The target may have retired (reclaim racing the redirect); fall
        // back to the current owner of the client's position.
        let target = if self
            .nodes
            .get(&server)
            .map(|n| n.alive && n.host.matrix().lifecycle() == matrix_core::Lifecycle::Active)
            .unwrap_or(false)
        {
            server
        } else {
            self.owner_of(pos)
        };
        self.keepalive_deadline.remove(&id);
        if let Some(node) = self.nodes.get_mut(&target) {
            node.queue.arrive(self.now, self.cfg.spec.packet_work);
            self.pop.set_server(id, target);
            let join = ClientToGame::Join { pos, state_bytes };
            self.step(target, HostInput::Client(id, join));
        }
        // Handoff latency bookkeeping.
        if let Some(started) = self.switch_started.remove(&id) {
            let latency = self.now.since(started);
            self.switch_latency.record(latency.as_micros() as f64);
            self.switches += 1;
        } else {
            // First join: start the update loop.
            let interval = SimDuration::from_secs_f64(self.pop.spec().update_interval_secs());
            self.queue
                .schedule(self.now + interval, Event::ClientUpdate(id));
        }
    }

    fn node_tick(&mut self, id: ServerId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if !node.alive {
            return; // crashed: no more ticks, no more heartbeats
        }
        // Retired nodes keep ticking (cheaply, producing no actions): the
        // pool can hand their id out again, and the resurrected server must
        // resume load reports and heartbeats immediately.
        let active = node.host.matrix().lifecycle() == matrix_core::Lifecycle::Active;
        let t0 = (self.cfg.game.telemetry && active).then(std::time::Instant::now);
        let queue_backlog = node.queue.backlog_at(self.now);
        self.step(id, HostInput::Tick { queue_backlog });
        if let Some(t0) = t0 {
            self.tick_hist.record(t0.elapsed().as_secs_f64() * 1e6);
        }
        self.queue
            .schedule(self.now + self.cfg.game.tick, Event::NodeTick(id));
    }

    fn sample(&mut self) {
        let t = self.now.as_secs_f64();
        let mut active = 0;
        for node in self.nodes.values_mut() {
            let is_active =
                node.alive && node.host.matrix().lifecycle() == matrix_core::Lifecycle::Active;
            if is_active {
                active += 1;
            }
            let clients = if node.alive {
                node.host.game().client_count() as f64
            } else {
                0.0
            };
            let backlog = if node.alive {
                node.queue.backlog_at(self.now)
            } else {
                0.0
            };
            node.clients_series.push(t, clients);
            node.queue_series.push(t, backlog);
        }
        self.servers_in_use.push(t, active as f64);
        self.queue
            .schedule(self.now + self.cfg.sample_every, Event::Sample);
    }

    // -- the transport -----------------------------------------------------------

    /// Hands one input to a live machine and routes what it leaves. A
    /// crashed machine takes nothing.
    fn step(&mut self, id: ServerId, input: HostInput) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if !node.alive {
            return;
        }
        let mut out = Vec::new();
        node.host.step(self.now, input, &mut out);
        self.route(id, out);
    }

    /// Carries out what a step on `from` left, in the order it came up:
    /// remote sends become events with link latency, client messages are
    /// interpreted by the client driver, and local deliveries are charged
    /// to the machine's receive queue.
    fn route(&mut self, from: ServerId, outbound: Vec<Outbound>) {
        for entry in outbound {
            match entry {
                Outbound::ToClient(client, msg) => self.client_message(from, client, msg),
                Outbound::ToPeer(to, msg) => {
                    let bytes = peer_msg_bytes(&msg);
                    if matches!(msg, PeerMsg::Replica { .. } | PeerMsg::ReplicaAck { .. }) {
                        self.replica_bytes += bytes as u64;
                    }
                    let mut rng = self.rng.fork();
                    if let Some(delay) = self.cfg.net.server_link.delay_for(bytes, &mut rng) {
                        self.queue
                            .schedule(self.now + delay, Event::Peer { to, from, msg });
                    }
                }
                Outbound::ToCoord(msg) => {
                    let mut rng = self.rng.fork();
                    if let Some(delay) = self.cfg.net.coord_link.delay_for(256, &mut rng) {
                        self.queue.schedule(self.now + delay, Event::Coord(msg));
                    }
                }
                Outbound::ToPool(msg) => {
                    self.queue.schedule(self.now, Event::Pool(from, msg));
                }
                Outbound::Local(delivery) => {
                    let node = self.nodes.get_mut(&from).expect("it just stepped");
                    match delivery {
                        // Delivered peer updates are receive-queue work.
                        LocalDelivery::PeerUpdate { fanned } => {
                            let work = self.cfg.spec.work_for_remote(fanned as usize);
                            node.queue.arrive(self.now, work);
                        }
                        // The buffered work of redirected connections
                        // leaves with them.
                        LocalDelivery::Redirect { before, after } => {
                            if before > 0 {
                                let kept = after as f64 / before as f64;
                                node.queue.scale_backlog(self.now, kept);
                            }
                        }
                    }
                }
            }
        }
    }

    fn process_coord_actions(&mut self, actions: Vec<CoordAction>) {
        for CoordAction::Send(to, reply) in actions {
            let mut rng = self.rng.fork();
            if let Some(delay) = self.cfg.net.coord_link.delay_for(4096, &mut rng) {
                self.queue
                    .schedule(self.now + delay, Event::CoordReply(to, reply));
            }
        }
    }

    /// Interprets a server-to-client message on the client driver.
    fn client_message(&mut self, from: ServerId, client: ClientId, msg: GameToClient) {
        match msg {
            GameToClient::Joined { server } => {
                self.pop.set_server(client, server);
            }
            GameToClient::Ack { .. } | GameToClient::Update { .. } => {
                // Latency accounting happens at the send site; per-client
                // rendering is out of scope for the cluster harness.
            }
            GameToClient::UpdateBatch { updates } => {
                // Emitted when `GameServerConfig::emit_updates` is on:
                // count delivery so experiments can verify batching
                // end-to-end and measure coalescing rates.
                self.update_batches += 1;
                self.batched_updates += updates.len() as u64;
                // Close the causal trace loop exactly as a real client
                // does: each traced item is measured against the apply
                // instant (now — batches deliver on the driver's own
                // timeline) and echoed to the serving node, which folds
                // the numbers into its per-ring freshness histograms.
                let apply_us = self.now.as_micros();
                for item in &updates {
                    if let Some(tag) = item.trace {
                        self.traced_deliveries += 1;
                        let ack = ClientToGame::TraceAck {
                            ring: item.ring,
                            latency_us: tag.latency_us(apply_us),
                            staleness_us: tag.staleness_us(apply_us),
                        };
                        self.step(from, HostInput::Client(client, ack));
                    }
                }
                // Failure probes: the first delivery to a crashed
                // server's client marks the end of its dark window.
                for probe in &mut self.probes {
                    if probe.first_delivery.is_none() && probe.affected.contains(&client) {
                        probe.first_delivery = Some(self.now);
                    }
                }
            }
            GameToClient::SwitchServer { to } => {
                if self.pop.get(client).is_none() {
                    return; // already left
                }
                // Resume: the target already holds this client's session
                // (a promoted standby restored it from the replica). The
                // client just re-points its uplink — no reconnect, no
                // state transfer, no Join round-trip.
                if self
                    .nodes
                    .get(&to)
                    .is_some_and(|n| n.alive && n.host.game().has_client(client))
                {
                    self.pop.set_server(client, to);
                    self.keepalive_deadline.remove(&client);
                    self.resumes += 1;
                    if let Some(started) = self.switch_started.remove(&client) {
                        self.switch_latency
                            .record(self.now.since(started).as_micros() as f64);
                        self.switches += 1;
                    }
                    return;
                }
                self.pop.begin_switch(client);
                self.switch_started.entry(client).or_insert(self.now);
                // The reconnect uploads the client's session state over
                // the access link, so bigger state and slower links both
                // stretch the handoff (experiment E4).
                let state = self.cfg.spec.client_state_bytes as usize + 256;
                let mut rng = self.rng.fork();
                let delay = self
                    .cfg
                    .net
                    .client_link
                    .delay_for(state, &mut rng)
                    .unwrap_or(SimDuration::from_millis(25))
                    + self.cfg.net.reconnect_delay;
                self.queue
                    .schedule(self.now + delay, Event::ClientJoin(client, to));
            }
        }
    }

    /// Ground-truth owner lookup for client placement (the directory the
    /// coordinator maintains).
    fn owner_of(&self, pos: Point) -> ServerId {
        self.coordinator
            .map()
            .and_then(|m| m.owner_of(pos))
            .unwrap_or(self.bootstrap)
    }

    // -- reporting ---------------------------------------------------------------

    fn report(self) -> ClusterReport {
        let mut clients_per_server = Vec::new();
        let mut queue_per_server = Vec::new();
        let mut inter_server_bytes = 0;
        let mut game = GameStats::default();
        let mut dropped = 0.0;
        let mut splits = 0;
        let mut reclaims = 0;
        let mut peak_queue: f64 = 0.0;
        let mut trace_freshness: Vec<(Histogram, Histogram)> = (0..matrix_core::MAX_RINGS)
            .map(|_| (Histogram::new(), Histogram::new()))
            .collect();
        let mut trace_acks_by_server = Vec::new();
        for node in self.nodes.values() {
            let (host_game, host_matrix) = (node.host.game(), node.host.matrix());
            let (latency, staleness) = host_game.trace_histograms();
            for (ring, slot) in trace_freshness.iter_mut().enumerate() {
                slot.0.merge(&latency[ring]);
                slot.1.merge(&staleness[ring]);
            }
            if host_game.trace_acks() > 0 {
                trace_acks_by_server.push((host_game.id(), host_game.trace_acks()));
            }
            game.absorb(host_game.stats());
            inter_server_bytes += host_matrix.stats().bytes_to_peers;
            splits += host_matrix.stats().splits;
            reclaims += host_matrix.stats().reclaims;
            dropped += node.queue.total_dropped();
            peak_queue = peak_queue.max(node.queue_series.max_value().unwrap_or(0.0));
            clients_per_server.push(node.clients_series.clone());
            queue_per_server.push(node.queue_series.clone());
        }
        let peak_servers = self.servers_in_use.max_value().unwrap_or(0.0) as usize;
        let late_fraction = if self.samples == 0 {
            0.0
        } else {
            self.late as f64 / self.samples as f64
        };
        // Derive the adaptation timeline — and each victim's promotion
        // instant — from the coordinator's flight recorder instead of
        // probing protocol messages in flight.
        let mut timeline = Vec::new();
        let mut promoted_at: BTreeMap<ServerId, SimTime> = BTreeMap::new();
        let events: Vec<&matrix_core::TelemetryEvent> =
            self.coordinator.recorder().events().collect();
        for (i, ev) in events.iter().enumerate() {
            match ev.kind {
                matrix_core::EventKind::Split { parent, child } => {
                    timeline.push((ev.at, TopologyEvent::Split { parent, child }));
                }
                matrix_core::EventKind::Reclaim { parent, child } => {
                    timeline.push((ev.at, TopologyEvent::Reclaim { parent, child }));
                }
                matrix_core::EventKind::Orphan { child } => {
                    timeline.push((ev.at, TopologyEvent::Failure { victim: child }));
                }
                matrix_core::EventKind::FailureDeclared { failed, .. } => {
                    // A declaration resolved by a standby promotion shows
                    // up as the Failover entry recorded right after it;
                    // only absorb-and-reassign recoveries appear as bare
                    // failures.
                    let resolved_by_failover = matches!(
                        events.get(i + 1).map(|e| &e.kind),
                        Some(matrix_core::EventKind::Failover { failed: f, .. }) if *f == failed
                    );
                    if !resolved_by_failover {
                        timeline.push((ev.at, TopologyEvent::Failure { victim: failed }));
                    }
                }
                matrix_core::EventKind::Failover { failed, standby } => {
                    timeline.push((ev.at, TopologyEvent::Failover { failed, standby }));
                    promoted_at.entry(failed).or_insert(ev.at);
                }
                _ => {}
            }
        }
        let mut telemetry = self.coordinator.merged_telemetry();
        telemetry.hist("sim_tick_us", &self.tick_hist);
        ClusterReport {
            clients_per_server,
            queue_per_server,
            servers_in_use: self.servers_in_use,
            response_latency_us: self.response_latency,
            switch_latency_us: self.switch_latency,
            late_fraction,
            inter_server_bytes,
            updates_processed: game.moves + game.actions,
            game,
            dropped_work: dropped,
            switches: self.switches,
            resumes: self.resumes,
            disconnects: self.disconnects,
            updates_to_dead: self.updates_to_dead,
            replica_bytes: self.replica_bytes,
            recoveries: self
                .probes
                .iter()
                .filter_map(|p| {
                    p.first_delivery.map(|t| Recovery {
                        victim: p.victim,
                        dark: t.since(p.crashed_at),
                        post_promotion: promoted_at.get(&p.victim).map(|at| t.since(*at)),
                    })
                })
                .collect(),
            update_batches_delivered: self.update_batches,
            batched_updates_delivered: self.batched_updates,
            traced_deliveries: self.traced_deliveries,
            trace_freshness,
            trace_acks_by_server,
            splits,
            reclaims,
            peak_servers,
            peak_queue,
            coordinator: *self.coordinator.stats(),
            pool: *self.pool.stats(),
            events: self.queue.delivered(),
            timeline,
            telemetry,
        }
    }
}

/// Wire size of a peer message for bandwidth accounting.
fn peer_msg_bytes(msg: &PeerMsg) -> usize {
    match msg {
        PeerMsg::Update(pkt) => pkt.wire_size(),
        PeerMsg::StateTransfer { bytes, .. } => *bytes as usize,
        PeerMsg::ClientTransfer { bytes, .. } => *bytes as usize + 64,
        PeerMsg::Replica { batch, .. } => batch.wire_bytes(),
        PeerMsg::ReplicaAck { .. } => 32,
        _ => 128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix_games::{Placement, WorkloadSchedule};

    fn small_spec() -> GameSpec {
        // A scaled-down bzflag so debug-mode tests stay fast.
        let mut spec = GameSpec::bzflag();
        spec.update_rate_hz = 2.0;
        spec.server_capacity = 300.0;
        spec
    }

    #[test]
    fn every_node_measures_distance_with_the_games_metric() {
        // The coordinator's consistency sets and overlap tables must use
        // the metric the servers route and fan out with.
        for spec in GameSpec::all().into_iter().chain([GameSpec::racer()]) {
            let metric = spec.metric;
            for cfg in [
                ClusterConfig::adaptive(spec.clone()),
                ClusterConfig::static_partition(spec.clone(), 2),
            ] {
                assert_eq!(cfg.matrix.metric, metric, "{}", spec.name);
                assert_eq!(cfg.game.metric, metric, "{}", spec.name);
                assert_eq!(cfg.coordinator.metric, metric, "{}", spec.name);
            }
        }
    }

    #[test]
    fn steady_small_population_stays_on_one_server() {
        let spec = small_spec();
        let schedule = WorkloadSchedule::steady(50, SimTime::from_secs(30));
        let report = Cluster::new(ClusterConfig::adaptive(spec), schedule).run();
        assert_eq!(report.peak_servers, 1);
        assert_eq!(report.splits, 0);
        assert!(
            report.updates_processed > 1000,
            "{}",
            report.updates_processed
        );
    }

    #[test]
    fn hotspot_forces_splits() {
        let mut spec = small_spec();
        spec.update_rate_hz = 2.0;
        let schedule = WorkloadSchedule::flash_crowd(&spec, 20, 500, SimTime::from_secs(5));
        let mut cfg = ClusterConfig::adaptive(spec);
        cfg.matrix.overload_clients = 100;
        cfg.matrix.underload_clients = 50;
        let report = Cluster::new(cfg, schedule).run();
        assert!(
            report.splits >= 1,
            "hotspot must trigger at least one split"
        );
        assert!(report.peak_servers >= 2);
        assert!(report.switches > 0, "splits redirect clients");
    }

    #[test]
    fn static_cluster_never_splits_and_drops_under_hotspot() {
        let spec = small_spec();
        let schedule = WorkloadSchedule::flash_crowd(&spec, 20, 600, SimTime::from_secs(5));
        let report = Cluster::new(ClusterConfig::static_partition(spec, 2), schedule).run();
        assert_eq!(report.splits, 0);
        assert_eq!(report.peak_servers, 2);
        assert!(
            report.dropped_work > 0.0,
            "saturated static servers must drop"
        );
    }

    #[test]
    fn same_seed_reproduces_the_run() {
        let spec = small_spec();
        let run = || {
            let schedule = WorkloadSchedule::flash_crowd(&spec, 10, 200, SimTime::from_secs(5));
            let mut cfg = ClusterConfig::adaptive(spec.clone());
            cfg.matrix.overload_clients = 80;
            let r = Cluster::new(cfg, schedule).run();
            (
                r.splits,
                r.switches,
                r.updates_processed,
                r.inter_server_bytes,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clients_are_conserved() {
        let spec = small_spec();
        let schedule = WorkloadSchedule::flash_crowd(&spec, 30, 300, SimTime::from_secs(5));
        let mut cfg = ClusterConfig::adaptive(spec);
        cfg.matrix.overload_clients = 100;
        cfg.matrix.underload_clients = 50;
        let cluster = Cluster::new(cfg, schedule);
        let report = cluster.run();
        // At the end every connected client is hosted by exactly one
        // active server; the series' last samples must sum to the
        // population.
        let total: f64 = report
            .clients_per_server
            .iter()
            .filter_map(|s| s.last_value())
            .sum();
        assert!(
            (total - 330.0).abs() <= 5.0,
            "clients lost or duplicated: {total} hosted at the end"
        );
    }

    #[test]
    fn failover_keeps_clients_connected_without_reconnects() {
        // Two static servers, each paired with a warm standby; one dies.
        // Its clients must keep receiving updates through the promoted
        // standby with zero reconnects — the keepalive never expires.
        let mut spec = small_spec();
        spec.update_rate_hz = 2.0;
        let mut cfg = ClusterConfig::static_partition(spec, 2);
        cfg.queue_capacity = None;
        cfg.game.emit_updates = true;
        cfg.matrix.standby_replication = true;
        cfg.pool_size = 4;
        cfg.coordinator.heartbeat_timeout = SimDuration::from_secs(2);
        cfg.net.crash_detect = SimDuration::from_secs(8);
        cfg.crashes = vec![(SimTime::from_secs(10), ServerId(1))];
        // Two stable crowds away from the partition boundary, so no one
        // is mid-roam when the crash hits (a client switching *into* a
        // dying server is genuinely unrecoverable — its session never
        // reached the replica).
        let spec = cfg.spec.clone();
        let schedule = WorkloadSchedule::new(SimTime::from_secs(25))
            .at(
                SimTime::ZERO,
                PopulationEvent::Join {
                    n: 60,
                    placement: Placement::Hotspot {
                        center: spec.hotspot_a(),
                        spread: spec.radius * 0.3,
                    },
                },
            )
            .at(
                SimTime::ZERO,
                PopulationEvent::Join {
                    n: 60,
                    placement: Placement::Hotspot {
                        center: spec.hotspot_b(),
                        spread: spec.radius * 0.3,
                    },
                },
            );
        let report = Cluster::new(cfg, schedule).run();

        assert_eq!(report.coordinator.failovers, 1, "{:?}", report.timeline);
        assert_eq!(report.disconnects, 0, "no client waited out its keepalive");
        assert!(report.resumes > 0, "victim clients resumed on the standby");
        assert!(report.replica_bytes > 0, "replication actually streamed");
        let recovery = report
            .recoveries
            .iter()
            .find(|r| r.victim == ServerId(1))
            .expect("the victim's clients must recover");
        let post = recovery
            .post_promotion
            .expect("recovery must go through a promotion");
        // First post-failover delivery within one batch interval plus
        // one replica interval of the promotion (plus client link).
        let bound = GameServerConfig::default().batch_interval
            + GameServerConfig::default().replica_interval
            + SimDuration::from_millis(100);
        assert!(
            post <= bound,
            "post-promotion recovery {post} exceeds {bound}"
        );
        // End-to-end population sanity: everyone is still hosted.
        let total: f64 = report
            .clients_per_server
            .iter()
            .filter_map(|s| s.last_value())
            .sum();
        assert!((total - 120.0).abs() <= 2.0, "clients lost: {total}");
    }

    #[test]
    fn zone_striped_deployments_place_standbys_cross_zone() {
        // Deployment config assigns rack ids; the pool must then prefer
        // standbys outside the primary's failure domain (the PR 4
        // follow-on: drivers now *assign* zones, not just tests).
        let mut spec = small_spec();
        spec.update_rate_hz = 2.0;
        let mut cfg = ClusterConfig::static_partition(spec, 2).with_zone_stripes(2);
        cfg.matrix.standby_replication = true;
        cfg.pool_size = 4;
        assert!(!cfg.zones.is_empty(), "stripes must produce tags");
        let schedule = WorkloadSchedule::steady(20, SimTime::from_secs(8));
        let report = Cluster::new(cfg, schedule).run();
        assert!(
            report.pool.standby_grants >= 2,
            "both primaries pair: {:?}",
            report.pool
        );
        assert!(
            report.pool.cross_zone_grants >= 1,
            "zone-aware placement must land at least one standby off-rack: {:?}",
            report.pool
        );
    }

    #[test]
    fn crash_recovery_absorbs_partition() {
        let spec = small_spec();
        let schedule = WorkloadSchedule::flash_crowd(&spec, 20, 300, SimTime::from_secs(5));
        let mut cfg = ClusterConfig::adaptive(spec);
        cfg.matrix.overload_clients = 100;
        cfg.matrix.underload_clients = 10; // never reclaim in this test
                                           // Crash whichever child exists at t=40 (the first split child gets
                                           // the first pool id, initial_servers + 1 = 2).
        cfg.crashes = vec![(SimTime::from_secs(40), ServerId(2))];
        let report = Cluster::new(cfg, schedule).run();
        assert!(report.splits >= 1, "need a split before the crash");
        assert!(
            report.coordinator.failures_declared >= 1,
            "coordinator must declare the crashed server dead"
        );
    }
}
