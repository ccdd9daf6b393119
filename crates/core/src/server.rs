//! The Matrix server state machine — "the heart of our distributed
//! middleware" (§3.2.3).
//!
//! Each Matrix server is co-located with one game server. It routes
//! spatially tagged packets to the consistency set of their origin using
//! the overlap tables pushed by the coordinator, monitors its game
//! server's load, and makes *purely local* split and reclaim decisions.
//!
//! The implementation is sans-io: every handler consumes one input message
//! and returns the list of [`Action`]s to perform. The discrete-event
//! harness and the tokio runtime both drive this same type, so simulated
//! experiments and real deployments exercise identical protocol logic.

use crate::config::MatrixConfig;
use crate::load::{Cooldown, LoadTracker};
use crate::messages::{
    CoordMsg, CoordReply, GameToMatrix, LoadSnapshot, MatrixToGame, PeerMsg, PoolMsg, PoolPurpose,
    PoolReply,
};
use crate::packet::{ClientId, GamePacket};
use matrix_geometry::{
    consistency_set, Metric, OverlapTable, PartitionIndex, PartitionMap, Point, Rect, ServerId,
};
use matrix_sim::SimTime;
use matrix_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An effect the driver must carry out for the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Deliver to the co-located game server.
    ToGame(MatrixToGame),
    /// Send to a peer Matrix server.
    ToPeer(ServerId, PeerMsg),
    /// Send to the Matrix Coordinator.
    ToCoord(CoordMsg),
    /// Send to the resource pool.
    ToPool(PoolMsg),
}

/// Where the server is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lifecycle {
    /// Allocated but not yet managing a partition (fresh from the pool).
    Idle,
    /// Managing a partition.
    Active,
    /// Reclaimed; drained and awaiting teardown.
    Retired,
}

/// Counters exposed for experiments and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Packets received from the local game server for routing.
    pub packets_in: u64,
    /// Peer updates sent (one per destination server).
    pub peer_updates_out: u64,
    /// Bytes sent to peer Matrix servers (consistency traffic).
    pub bytes_to_peers: u64,
    /// Peer updates received and delivered to the game server.
    pub peer_updates_in: u64,
    /// Peer updates dropped because their origin was outside our range of
    /// interest (stale routes during topology changes).
    pub misrouted_dropped: u64,
    /// Packets routed while no overlap table was installed yet (delivered
    /// to no one — the transient consistency gap after a fresh split).
    pub routed_without_table: u64,
    /// Splits this server initiated.
    pub splits: u64,
    /// Children this server reclaimed.
    pub reclaims: u64,
    /// Pool requests that came back denied.
    pub pool_denied: u64,
    /// Point resolutions answered from the local directory cache.
    pub local_resolves: u64,
    /// Point resolutions referred to the coordinator.
    pub coordinator_resolves: u64,
    /// Packets routed with a per-packet radius override.
    pub override_routes: u64,
    /// Failed-peer ranges absorbed during crash recovery.
    pub absorbs: u64,
    /// Warm standbys this server paired with (as primary).
    pub standbys_acquired: u64,
    /// Promotions: this server took over a dead primary's region.
    pub promotions: u64,
}

#[derive(Debug, Clone)]
struct PendingResolve {
    client: ClientId,
    point: Point,
    /// Packet to route on resolution (`None` for plain WhereIs queries).
    packet: Option<GamePacket>,
}

/// The per-node middleware state machine. See the module docs for the
/// driving contract.
#[derive(Debug, Clone)]
pub struct MatrixServer {
    id: ServerId,
    cfg: MatrixConfig,
    lifecycle: Lifecycle,
    radius: f64,
    /// The game's distance metric, learned with the radius.
    metric: Metric,
    range: Option<Rect>,
    parent: Option<ServerId>,
    children: Vec<ServerId>,
    child_load: BTreeMap<ServerId, LoadSnapshot>,
    /// Range handed to each child at split time; a leaf child still owns
    /// exactly this range, so it doubles as the mergeability check for
    /// reclaim candidates.
    child_ranges: BTreeMap<ServerId, Rect>,
    epoch: u64,
    /// The coordinator's last push: an overlap table per registered
    /// radius, keyed by radius bits, the game's radius first.
    tables: Vec<(u64, OverlapTable)>,
    map: Option<PartitionMap>,
    /// Grid index over `map` for O(1) owner resolution.
    map_index: Option<PartitionIndex>,
    load: LoadTracker,
    cooldown: Cooldown,
    pending_pool: bool,
    pending_reclaim: Option<ServerId>,
    pending_resolves: Vec<PendingResolve>,
    last_heartbeat: Option<SimTime>,
    /// Warm standby paired with this region (primary role).
    standby: Option<ServerId>,
    /// A standby acquisition is in flight at the pool.
    pending_standby: bool,
    /// Earliest time to retry a denied standby acquisition.
    standby_retry_at: Option<SimTime>,
    /// The primary this idle server stands by for (standby role) —
    /// standbys heartbeat so the coordinator can detect their death.
    standby_for: Option<ServerId>,
    /// The co-located game server's latest telemetry snapshot, peeled off
    /// an incoming load report and held until the next heartbeat carries
    /// it to the coordinator.
    pending_telemetry: Option<Box<TelemetrySnapshot>>,
    stats: ServerStats,
}

impl MatrixServer {
    /// Creates an idle server, as handed out by the resource pool. It
    /// becomes active when a game server registers with it (bootstrap) or
    /// a peer hands it a partition (split adoption).
    pub fn new(id: ServerId, cfg: MatrixConfig) -> MatrixServer {
        MatrixServer {
            id,
            cfg,
            lifecycle: Lifecycle::Idle,
            radius: 0.0,
            metric: Metric::Euclidean,
            range: None,
            parent: None,
            children: Vec::new(),
            child_load: BTreeMap::new(),
            child_ranges: BTreeMap::new(),
            epoch: 0,
            tables: Vec::new(),
            map: None,
            map_index: None,
            load: LoadTracker::new(),
            cooldown: Cooldown::new(),
            pending_pool: false,
            pending_reclaim: None,
            pending_resolves: Vec::new(),
            last_heartbeat: None,
            standby: None,
            pending_standby: false,
            standby_retry_at: None,
            standby_for: None,
            pending_telemetry: None,
            stats: ServerStats::default(),
        }
    }

    /// Creates a server that already owns `range` — the static baseline
    /// and test fixtures skip the registration handshake, so they hand it
    /// what registration would carry: the radius and the game's metric.
    pub fn with_range(
        id: ServerId,
        cfg: MatrixConfig,
        range: Rect,
        radius: f64,
        metric: Metric,
    ) -> MatrixServer {
        let mut s = MatrixServer::new(id, cfg);
        s.range = Some(range);
        s.radius = radius;
        s.metric = metric;
        s.lifecycle = Lifecycle::Active;
        s
    }

    // -- accessors ----------------------------------------------------------

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The partition currently managed, if active.
    pub fn range(&self) -> Option<Rect> {
        self.range
    }

    /// Lifecycle state.
    pub fn lifecycle(&self) -> Lifecycle {
        self.lifecycle
    }

    /// The parent that split to create this server, if any.
    pub fn parent(&self) -> Option<ServerId> {
        self.parent
    }

    /// Live children created by splits of this server.
    pub fn children(&self) -> &[ServerId] {
        &self.children
    }

    /// Routing-table epoch currently installed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counters for experiments.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The game's registered radius of visibility.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The game's distance metric, as registered.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Most recently reported client count (0 before any report).
    pub fn client_count(&self) -> u32 {
        self.load.clients()
    }

    /// The warm standby paired with this region, if any.
    pub fn standby(&self) -> Option<ServerId> {
        self.standby
    }

    /// The primary this server stands by for, if it is a warm standby.
    pub fn standby_for(&self) -> Option<ServerId> {
        self.standby_for
    }

    // -- game server input ---------------------------------------------------

    /// Handles a message from the co-located game server.
    pub fn on_game(&mut self, now: SimTime, msg: GameToMatrix) -> Vec<Action> {
        match msg {
            GameToMatrix::Register {
                world,
                radius,
                metric,
            } => self.handle_register(world, radius, metric),
            GameToMatrix::RegisterRadius { radius } => {
                vec![Action::ToCoord(CoordMsg::RegisterRadius {
                    server: self.id,
                    radius,
                })]
            }
            GameToMatrix::Forward(pkt) => self.route_packet(pkt),
            GameToMatrix::Load(report) => self.handle_load(now, report),
            GameToMatrix::WhereIs { client, point } => self.resolve_point(client, point, None),
            GameToMatrix::TransferState { to, bytes } => {
                vec![Action::ToPeer(
                    to,
                    PeerMsg::StateTransfer {
                        from: self.id,
                        bytes,
                    },
                )]
            }
            GameToMatrix::TransferClient { to, client, bytes } => {
                vec![Action::ToPeer(
                    to,
                    PeerMsg::ClientTransfer {
                        from: self.id,
                        client,
                        bytes,
                    },
                )]
            }
            GameToMatrix::Replica { to, batch } => {
                vec![Action::ToPeer(
                    to,
                    PeerMsg::Replica {
                        from: self.id,
                        batch,
                    },
                )]
            }
            GameToMatrix::ReplicaAck { to, seq, resync } => {
                vec![Action::ToPeer(
                    to,
                    PeerMsg::ReplicaAck {
                        from: self.id,
                        seq,
                        resync,
                    },
                )]
            }
        }
    }

    fn handle_register(&mut self, world: Rect, radius: f64, metric: Metric) -> Vec<Action> {
        self.radius = radius;
        self.metric = metric;
        if self.range.is_none() && self.parent.is_none() {
            // Bootstrap: the very first server owns the whole world.
            self.range = Some(world);
            self.lifecycle = Lifecycle::Active;
            vec![Action::ToCoord(CoordMsg::RegisterWorld {
                server: self.id,
                world,
                radius,
                metric,
            })]
        } else {
            // A re-register on an already-ranged server only refreshes the
            // radius and metric; tables for it exist already (split path).
            Vec::new()
        }
    }

    fn handle_load(
        &mut self,
        now: SimTime,
        mut report: crate::messages::LoadReport,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if let Some(snap) = report.telemetry.take() {
            // Latest wins: heartbeats are sparser than load reports, and
            // the snapshot is cumulative, so skipped ones lose nothing.
            self.pending_telemetry = Some(snap);
        }
        self.load.observe(&self.cfg, report);
        if let Some(parent) = self.parent {
            out.push(Action::ToPeer(
                parent,
                PeerMsg::LoadStatus(self.load_snapshot()),
            ));
        }
        out.extend(self.maybe_adapt(now));
        out
    }

    fn load_snapshot(&self) -> LoadSnapshot {
        LoadSnapshot {
            clients: self.load.clients(),
            has_children: !self.children.is_empty(),
        }
    }

    // -- routing -------------------------------------------------------------

    fn route_packet(&mut self, pkt: GamePacket) -> Vec<Action> {
        self.stats.packets_in += 1;
        if self.lifecycle != Lifecycle::Active {
            return Vec::new();
        }
        // Non-proximal interaction: the event lands at `dest`, so route by
        // the destination point (possibly via the coordinator).
        if let Some(dest) = pkt.tag.dest {
            return self.route_non_proximal(pkt, dest);
        }
        let origin = pkt.tag.origin;
        let set: Vec<ServerId> = match pkt.tag.radius_override {
            // The game radius's table leads every push.
            None => match self.tables.first() {
                Some((_, table)) => table.lookup(origin).to_vec(),
                None => {
                    self.stats.routed_without_table += 1;
                    Vec::new()
                }
            },
            Some(r) => {
                self.stats.override_routes += 1;
                match self.tables.iter().find(|(bits, _)| *bits == r.to_bits()) {
                    Some((_, table)) => table.lookup(origin).to_vec(),
                    None => self.exact_set(origin, r).unwrap_or_default(),
                }
            }
        };
        let mut out = Vec::with_capacity(set.len());
        for peer in set {
            if peer != self.id {
                out.push(self.send_update(peer, &pkt));
            }
        }
        out
    }

    /// Equation 1 on the installed directory, for a set no table answers:
    /// a radius with no registered table, or a non-proximal event's
    /// destination. `None` before the first directory arrives.
    fn exact_set(&self, point: Point, radius: f64) -> Option<Vec<ServerId>> {
        let map = self.map.as_ref()?;
        Some(consistency_set(map, point, self.id, radius, self.metric))
    }

    /// Sends `pkt` to `peer` as a consistency update, counting it: the
    /// one place a peer update leaves this server.
    fn send_update(&mut self, peer: ServerId, pkt: &GamePacket) -> Action {
        self.stats.peer_updates_out += 1;
        self.stats.bytes_to_peers += pkt.wire_size() as u64;
        Action::ToPeer(peer, PeerMsg::Update(pkt.clone()))
    }

    /// Delivers a non-proximal update to `set` and to the destination's
    /// `owner`: a peer update to each other server, a local delivery
    /// where that is this one.
    fn deliver_non_proximal(
        &mut self,
        pkt: GamePacket,
        mut set: Vec<ServerId>,
        owner: Option<ServerId>,
    ) -> Vec<Action> {
        if let Some(o) = owner {
            if !set.contains(&o) {
                set.push(o);
            }
        }
        set.into_iter()
            .map(|peer| {
                if peer == self.id {
                    Action::ToGame(MatrixToGame::Deliver(pkt.clone()))
                } else {
                    self.send_update(peer, &pkt)
                }
            })
            .collect()
    }

    fn route_non_proximal(&mut self, pkt: GamePacket, dest: Point) -> Vec<Action> {
        let radius = pkt.tag.radius_override.unwrap_or(self.radius);
        if let Some(set) = self.exact_set(dest, radius) {
            self.stats.local_resolves += 1;
            let owner = self.map_index.as_ref().and_then(|i| i.owner_of(dest));
            return self.deliver_non_proximal(pkt, set, owner);
        }
        // No directory yet (before the first table push): ask the MC for
        // the consistency set of this particular interaction (§3.2.4).
        self.stats.coordinator_resolves += 1;
        let client = pkt.client.unwrap_or_default();
        self.pending_resolves.push(PendingResolve {
            client,
            point: dest,
            packet: Some(pkt),
        });
        vec![Action::ToCoord(CoordMsg::ResolvePoint {
            server: self.id,
            client,
            point: dest,
            radius: Some(radius),
        })]
    }

    fn resolve_point(
        &mut self,
        client: ClientId,
        point: Point,
        packet: Option<GamePacket>,
    ) -> Vec<Action> {
        if let Some(index) = &self.map_index {
            self.stats.local_resolves += 1;
            return vec![Action::ToGame(MatrixToGame::Owner {
                client,
                point,
                owner: index.owner_of(point),
            })];
        }
        self.stats.coordinator_resolves += 1;
        self.pending_resolves.push(PendingResolve {
            client,
            point,
            packet,
        });
        vec![Action::ToCoord(CoordMsg::ResolvePoint {
            server: self.id,
            client,
            point,
            radius: None,
        })]
    }

    // -- adaptation ----------------------------------------------------------

    fn maybe_adapt(&mut self, now: SimTime) -> Vec<Action> {
        if !self.cfg.adaptive || self.lifecycle != Lifecycle::Active {
            return Vec::new();
        }
        if !self.cooldown.ready(now) || self.pending_pool || self.pending_reclaim.is_some() {
            return Vec::new();
        }
        if self.load.is_overloaded(&self.cfg) && self.range.is_some() {
            self.pending_pool = true;
            return vec![Action::ToPool(PoolMsg::Acquire {
                requester: self.id,
                purpose: PoolPurpose::Split,
            })];
        }
        if self.load.is_underloaded(&self.cfg) {
            // Reclaim the youngest child whose load is known, small, and
            // leaf-like; combined load must stay clearly under the overload
            // threshold or the merge would immediately re-split.
            let my_clients = self.load.clients();
            let my_range = self.range;
            let candidate = self.children.iter().rev().copied().find(|c| {
                let merged_limit =
                    (self.cfg.overload_clients as f64 * self.cfg.reclaim_headroom) as u32;
                let load_ok = self.child_load.get(c).is_some_and(|l| {
                    !l.has_children
                        && l.clients < self.cfg.underload_clients
                        && my_clients + l.clients < merged_limit
                });
                // Only children whose partition still tiles with ours can
                // fold back in; after further splits of this server, only
                // the most recent child is adjacent.
                let geometry_ok = match (my_range, self.child_ranges.get(c)) {
                    (Some(mine), Some(theirs)) => mine.merges_with(theirs).is_some(),
                    _ => false,
                };
                load_ok && geometry_ok
            });
            if let Some(child) = candidate {
                self.pending_reclaim = Some(child);
                return vec![Action::ToPeer(
                    child,
                    PeerMsg::ReclaimRequest { parent: self.id },
                )];
            }
        }
        Vec::new()
    }

    // -- peer input ------------------------------------------------------------

    /// Handles a message from a peer Matrix server.
    pub fn on_peer(&mut self, now: SimTime, from: ServerId, msg: PeerMsg) -> Vec<Action> {
        match msg {
            PeerMsg::Update(pkt) => self.deliver_update(pkt),
            PeerMsg::AdoptPartition {
                parent,
                range,
                radius,
                metric,
                epoch,
            } => self.adopt(now, parent, range, radius, metric, epoch),
            PeerMsg::AdoptAck { child: _ } => Vec::new(),
            PeerMsg::StateTransfer { from, bytes } => {
                vec![Action::ToGame(MatrixToGame::ReceiveState { from, bytes })]
            }
            PeerMsg::ClientTransfer {
                from,
                client,
                bytes,
            } => {
                vec![Action::ToGame(MatrixToGame::ReceiveClient {
                    from,
                    client,
                    bytes,
                })]
            }
            PeerMsg::ReclaimRequest { parent } => self.handle_reclaim_request(parent),
            PeerMsg::ReclaimGrant {
                child,
                range,
                clients: _,
            } => self.handle_reclaim_grant(now, child, range),
            PeerMsg::ReclaimDeny { child } => {
                if self.pending_reclaim == Some(child) {
                    self.pending_reclaim = None;
                    self.cooldown.arm(now, &self.cfg);
                }
                Vec::new()
            }
            PeerMsg::LoadStatus(snapshot) => {
                self.child_load.insert(from, snapshot);
                Vec::new()
            }
            PeerMsg::StandbyAssign {
                primary,
                range: _,
                radius: _,
            } => {
                if self.lifecycle == Lifecycle::Active {
                    // An active server cannot mirror a peer; the primary
                    // will re-pair when its batches go unacked.
                    return Vec::new();
                }
                self.standby_for = Some(primary);
                // Start with a clean slate and announce liveness: the
                // coordinator watches standby heartbeats too.
                vec![
                    Action::ToGame(MatrixToGame::ReplicaReset),
                    self.heartbeat(None),
                ]
            }
            PeerMsg::StandbyRelease { primary } => {
                if self.standby_for == Some(primary) {
                    self.standby_for = None;
                    return vec![Action::ToGame(MatrixToGame::ReplicaReset)];
                }
                Vec::new()
            }
            PeerMsg::Replica { from, batch } => {
                vec![Action::ToGame(MatrixToGame::ReplicaBatch { from, batch })]
            }
            PeerMsg::ReplicaAck {
                from: _,
                seq,
                resync,
            } => {
                vec![Action::ToGame(MatrixToGame::ReplicaAck { seq, resync })]
            }
        }
    }

    fn deliver_update(&mut self, pkt: GamePacket) -> Vec<Action> {
        if self.lifecycle != Lifecycle::Active {
            self.stats.misrouted_dropped += 1;
            return Vec::new();
        }
        // §3.2.3: peers forward the packet "after verifying the packet's
        // range". Relevant iff the event point is within the radius of
        // visibility of some point of our partition.
        let point = pkt.tag.dest.unwrap_or(pkt.tag.origin);
        let radius = pkt.tag.radius_override.unwrap_or(self.radius);
        let relevant = self
            .range
            .map(|r| r.distance_to(point, self.metric) <= radius)
            .unwrap_or(false);
        if !relevant {
            self.stats.misrouted_dropped += 1;
            return Vec::new();
        }
        self.stats.peer_updates_in += 1;
        vec![Action::ToGame(MatrixToGame::Deliver(pkt))]
    }

    fn adopt(
        &mut self,
        now: SimTime,
        parent: ServerId,
        range: Rect,
        radius: f64,
        metric: Metric,
        epoch: u64,
    ) -> Vec<Action> {
        if self.lifecycle == Lifecycle::Active {
            // Already active: a duplicate adoption is a protocol error from
            // a stale retry; ignore it.
            return Vec::new();
        }
        // A retired server's id can be handed out again by the pool: start
        // from a fresh server, keeping only its identity, the directory
        // cache, the heartbeat clock, undelivered telemetry and the
        // counters.
        *self = MatrixServer {
            parent: Some(parent),
            epoch,
            map: self.map.take(),
            map_index: self.map_index.take(),
            last_heartbeat: self.last_heartbeat,
            pending_telemetry: self.pending_telemetry.take(),
            stats: self.stats,
            ..MatrixServer::with_range(self.id, self.cfg, range, radius, metric)
        };
        // A fresh child must not immediately split or be reclaimed.
        self.cooldown.arm(now, &self.cfg);
        vec![
            Action::ToGame(MatrixToGame::ReplicaReset),
            Action::ToGame(MatrixToGame::SetRange { range, radius }),
            Action::ToPeer(parent, PeerMsg::AdoptAck { child: self.id }),
            self.heartbeat(None),
        ]
    }

    fn handle_reclaim_request(&mut self, parent: ServerId) -> Vec<Action> {
        let reclaimable = self.lifecycle == Lifecycle::Active
            && self.parent == Some(parent)
            && self.children.is_empty()
            && !self.load.is_overloaded(&self.cfg)
            && self.range.is_some();
        if !reclaimable {
            return vec![Action::ToPeer(
                parent,
                PeerMsg::ReclaimDeny { child: self.id },
            )];
        }
        let range = self.range.take().expect("checked above");
        self.lifecycle = Lifecycle::Retired;
        let mut out = Vec::new();
        // The pairing ends with the region: release the standby back to
        // the pool and have both sides drop their replication state.
        if let Some(standby) = self.standby.take() {
            out.push(Action::ToPeer(
                standby,
                PeerMsg::StandbyRelease { primary: self.id },
            ));
            out.push(Action::ToPool(PoolMsg::Release { server: standby }));
            out.push(Action::ToGame(MatrixToGame::ReplicaReset));
        }
        self.pending_standby = false;
        out.extend([
            Action::ToGame(MatrixToGame::RedirectAll { to: parent }),
            Action::ToPeer(
                parent,
                PeerMsg::ReclaimGrant {
                    child: self.id,
                    range,
                    clients: self.load.clients(),
                },
            ),
            Action::ToPool(PoolMsg::Release { server: self.id }),
        ]);
        out
    }

    fn handle_reclaim_grant(&mut self, now: SimTime, child: ServerId, range: Rect) -> Vec<Action> {
        self.pending_reclaim = None;
        self.children.retain(|c| *c != child);
        self.child_load.remove(&child);
        self.child_ranges.remove(&child);
        let Some(mine) = self.range else {
            return Vec::new();
        };
        let Some(merged) = mine.merges_with(&range) else {
            // The child's range no longer tiles with ours (its range grew
            // through crash absorption since the split). The retired child
            // has already shed its clients, so its range must find a new
            // owner: hand it to the coordinator.
            return vec![Action::ToCoord(CoordMsg::OrphanRange {
                parent: self.id,
                child,
                range,
            })];
        };
        self.range = Some(merged);
        self.stats.reclaims += 1;
        self.cooldown.arm(now, &self.cfg);
        self.load.reset_streaks();
        vec![
            Action::ToGame(MatrixToGame::SetRange {
                range: merged,
                radius: self.radius,
            }),
            Action::ToCoord(CoordMsg::ReclaimOccurred {
                parent: self.id,
                child,
                merged_range: merged,
            }),
        ]
    }

    // -- coordinator input -----------------------------------------------------

    /// Handles a reply from the coordinator.
    pub fn on_coord(&mut self, _now: SimTime, msg: CoordReply) -> Vec<Action> {
        match msg {
            CoordReply::Tables { epoch, tables, map } => {
                if epoch < self.epoch {
                    return Vec::new(); // stale recomputation in flight
                }
                self.epoch = epoch;
                self.tables = tables;
                self.map_index = Some(PartitionIndex::build_auto(&map));
                self.map = Some(map);
                Vec::new()
            }
            CoordReply::Resolved {
                client,
                point,
                owner,
                set,
            } => self.finish_resolve(client, point, owner, set),
            CoordReply::AbsorbFailed { failed, range } => self.absorb_failed(failed, range),
            CoordReply::Promote {
                failed: _,
                range,
                radius,
                metric,
            } => self.promote_self(_now, range, radius, metric),
            CoordReply::StandbyLost { standby } => {
                if self.standby == Some(standby) {
                    self.standby = None;
                    self.standby_retry_at = None;
                    // Drop the log; a replacement pairs on the next tick.
                    return vec![Action::ToGame(MatrixToGame::ReplicaReset)];
                }
                Vec::new()
            }
        }
    }

    /// Failover: this warm standby becomes the active owner of its dead
    /// primary's range. The co-located game server restores the
    /// replicated snapshot and re-points the surviving clients here.
    fn promote_self(
        &mut self,
        now: SimTime,
        range: Rect,
        radius: f64,
        metric: Metric,
    ) -> Vec<Action> {
        if self.lifecycle == Lifecycle::Active {
            return Vec::new(); // duplicate promotion from a stale sweep
        }
        self.lifecycle = Lifecycle::Active;
        self.range = Some(range);
        self.radius = radius;
        self.metric = metric;
        self.parent = None;
        self.standby_for = None;
        self.stats.promotions += 1;
        // A freshly promoted server must not immediately split.
        self.cooldown.arm(now, &self.cfg);
        vec![
            Action::ToGame(MatrixToGame::Promote { range, radius }),
            self.heartbeat(None),
        ]
    }

    fn finish_resolve(
        &mut self,
        client: ClientId,
        point: Point,
        owner: Option<ServerId>,
        set: Vec<ServerId>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        for pending in std::mem::take(&mut self.pending_resolves) {
            if pending.client != client || pending.point != point {
                self.pending_resolves.push(pending);
                continue;
            }
            match pending.packet {
                Some(pkt) => out.extend(self.deliver_non_proximal(pkt, set.clone(), owner)),
                None => out.push(Action::ToGame(MatrixToGame::Owner {
                    client,
                    point,
                    owner,
                })),
            }
        }
        out
    }

    fn absorb_failed(&mut self, failed: ServerId, range: Rect) -> Vec<Action> {
        self.children.retain(|c| *c != failed);
        self.child_load.remove(&failed);
        self.child_ranges.remove(&failed);
        let Some(mine) = self.range else {
            return Vec::new();
        };
        let merged = mine.merges_with(&range).unwrap_or(mine);
        self.range = Some(merged);
        self.stats.absorbs += 1;
        vec![Action::ToGame(MatrixToGame::SetRange {
            range: merged,
            radius: self.radius,
        })]
    }

    // -- pool input --------------------------------------------------------------

    /// Handles a reply from the resource pool.
    pub fn on_pool(&mut self, now: SimTime, msg: PoolReply) -> Vec<Action> {
        match msg {
            PoolReply::Grant {
                server,
                purpose: PoolPurpose::Split,
            } => self.perform_split(now, server),
            PoolReply::Grant {
                server,
                purpose: PoolPurpose::Standby,
            } => self.pair_standby(server),
            PoolReply::Denied {
                purpose: PoolPurpose::Split,
            } => {
                self.pending_pool = false;
                self.stats.pool_denied += 1;
                // Back off; the overload persists and will retry after the
                // cooldown window.
                self.cooldown.arm(now, &self.cfg);
                Vec::new()
            }
            PoolReply::Denied {
                purpose: PoolPurpose::Standby,
            } => {
                self.pending_standby = false;
                self.stats.pool_denied += 1;
                // Splits outrank availability for spare capacity: retry
                // only after a full cooldown window.
                self.standby_retry_at = Some(now + self.cfg.cooldown);
                Vec::new()
            }
        }
    }

    /// Pairs a pool-granted server as this region's warm standby.
    fn pair_standby(&mut self, server: ServerId) -> Vec<Action> {
        self.pending_standby = false;
        let Some(range) = self.range else {
            // No longer active: give the server straight back.
            return vec![Action::ToPool(PoolMsg::Release { server })];
        };
        self.standby = Some(server);
        self.stats.standbys_acquired += 1;
        vec![
            Action::ToPeer(
                server,
                PeerMsg::StandbyAssign {
                    primary: self.id,
                    range,
                    radius: self.radius,
                },
            ),
            Action::ToCoord(CoordMsg::StandbyAssigned {
                primary: self.id,
                standby: server,
            }),
            Action::ToGame(MatrixToGame::SetStandby { standby: server }),
        ]
    }

    fn perform_split(&mut self, now: SimTime, new_server: ServerId) -> Vec<Action> {
        self.pending_pool = false;
        let Some(rect) = self.range else {
            return vec![Action::ToPool(PoolMsg::Release { server: new_server })];
        };
        let positions = self.load.positions().to_vec();
        let Some((given, kept)) = self.cfg.split_strategy.split(&rect, &positions) else {
            // Partition too small to split: give the server back.
            return vec![Action::ToPool(PoolMsg::Release { server: new_server })];
        };
        self.range = Some(kept);
        self.children.push(new_server);
        self.child_ranges.insert(new_server, given);
        self.stats.splits += 1;
        self.cooldown.arm(now, &self.cfg);
        self.load.reset_streaks();
        vec![
            Action::ToPeer(
                new_server,
                PeerMsg::AdoptPartition {
                    parent: self.id,
                    range: given,
                    radius: self.radius,
                    metric: self.metric,
                    epoch: self.epoch,
                },
            ),
            Action::ToCoord(CoordMsg::SplitOccurred {
                parent: self.id,
                child: new_server,
                parent_range: kept,
                child_range: given,
            }),
            Action::ToGame(MatrixToGame::SetRange {
                range: kept,
                radius: self.radius,
            }),
            Action::ToGame(MatrixToGame::RedirectClients {
                region: given,
                to: new_server,
            }),
        ]
    }

    // -- timer input ----------------------------------------------------------

    /// A liveness heartbeat carrying the installed table epoch, so the
    /// coordinator can re-push lost tables, and any telemetry given.
    fn heartbeat(&self, telemetry: Option<Box<TelemetrySnapshot>>) -> Action {
        Action::ToCoord(CoordMsg::Heartbeat {
            server: self.id,
            epoch: self.epoch,
            telemetry,
        })
    }

    /// Whether the periodic heartbeat is due at `now`; if it is, its
    /// interval restarts.
    fn heartbeat_due(&mut self, now: SimTime) -> bool {
        let due = self
            .last_heartbeat
            .is_none_or(|t| now.since(t) >= self.cfg.heartbeat_every);
        if due {
            self.last_heartbeat = Some(now);
        }
        due
    }

    /// Periodic tick: heartbeats, child load pushes, standby pairing and
    /// adaptation checks that must not depend on load-report arrival
    /// alone.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        if self.lifecycle != Lifecycle::Active {
            // Idle standbys heartbeat too: the coordinator must notice a
            // dead standby so the primary can re-pair.
            if self.standby_for.is_some() && self.heartbeat_due(now) {
                return vec![self.heartbeat(None)];
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        if self.heartbeat_due(now) {
            let telemetry = self.pending_telemetry.take();
            out.push(self.heartbeat(telemetry));
            if let Some(parent) = self.parent {
                out.push(Action::ToPeer(
                    parent,
                    PeerMsg::LoadStatus(self.load_snapshot()),
                ));
            }
        }
        if self.cfg.standby_replication
            && self.standby.is_none()
            && !self.pending_standby
            && self.range.is_some()
            && self.standby_retry_at.is_none_or(|t| now >= t)
        {
            self.pending_standby = true;
            out.push(Action::ToPool(PoolMsg::Acquire {
                requester: self.id,
                purpose: PoolPurpose::Standby,
            }));
        }
        out.extend(self.maybe_adapt(now));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::LoadReport;
    use crate::packet::SpatialTag;
    use matrix_geometry::{build_overlap, PartitionMap, SplitStrategy};

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn cfg() -> MatrixConfig {
        MatrixConfig {
            cooldown: matrix_sim::SimDuration::from_secs(1),
            ..MatrixConfig::default()
        }
    }

    /// A server that already owns `range`, measuring like the
    /// fixtures' Euclidean tables.
    fn ranged(id: u32, cfg: MatrixConfig, range: Rect, radius: f64) -> MatrixServer {
        MatrixServer::with_range(ServerId(id), cfg, range, radius, Metric::Euclidean)
    }

    fn overloaded_report() -> GameToMatrix {
        GameToMatrix::Load(LoadReport {
            clients: 400,
            queue_backlog: 0.0,
            positions: Vec::new(),
            telemetry: None,
        })
    }

    /// Drives a server through registration and table installation against
    /// a two-partition map.
    fn active_pair() -> (MatrixServer, MatrixServer, PartitionMap) {
        let mut map = PartitionMap::new(world(), ServerId(1));
        map.split(ServerId(1), ServerId(2), &SplitStrategy::SplitToLeft, &[])
            .unwrap();
        let overlap = build_overlap(&map, 50.0, Metric::Euclidean);
        let mut s1 = ranged(1, cfg(), map.range_of(ServerId(1)).unwrap(), 50.0);
        let mut s2 = ranged(2, cfg(), map.range_of(ServerId(2)).unwrap(), 50.0);
        for s in [&mut s1, &mut s2] {
            s.on_coord(
                SimTime::ZERO,
                CoordReply::Tables {
                    epoch: 1,
                    tables: vec![(50f64.to_bits(), overlap.table_for(s.id()).unwrap().clone())],
                    map: map.clone(),
                },
            );
        }
        (s1, s2, map)
    }

    #[test]
    fn bootstrap_register_claims_world() {
        let mut s = MatrixServer::new(ServerId(1), cfg());
        let actions = s.on_game(
            SimTime::ZERO,
            GameToMatrix::Register {
                world: world(),
                radius: 50.0,
                metric: Metric::Chebyshev,
            },
        );
        assert_eq!(s.range(), Some(world()));
        assert_eq!(s.lifecycle(), Lifecycle::Active);
        assert_eq!(s.metric(), Metric::Chebyshev, "learned with the radius");
        assert!(matches!(
            actions.as_slice(),
            [Action::ToCoord(CoordMsg::RegisterWorld {
                metric: Metric::Chebyshev,
                ..
            })]
        ));
    }

    #[test]
    fn interior_packet_routes_nowhere() {
        let (mut s1, _, _) = active_pair();
        let pkt =
            GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(390.0, 200.0)), 64, 0);
        let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt));
        assert!(actions.is_empty());
    }

    #[test]
    fn boundary_packet_routes_to_neighbour() {
        let (mut s1, _, _) = active_pair();
        // S1 owns [200,400]; x=210 is within 50 of S2's half.
        let pkt =
            GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(210.0, 200.0)), 64, 0);
        let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt.clone()));
        assert_eq!(
            actions,
            vec![Action::ToPeer(ServerId(2), PeerMsg::Update(pkt))]
        );
        assert_eq!(s1.stats().peer_updates_out, 1);
        assert!(s1.stats().bytes_to_peers > 0);
    }

    #[test]
    fn peer_update_is_verified_then_delivered() {
        let (mut s1, mut s2, _) = active_pair();
        let pkt =
            GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(210.0, 200.0)), 64, 0);
        let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt.clone()));
        let Action::ToPeer(to, PeerMsg::Update(p)) = &actions[0] else {
            panic!("expected peer update");
        };
        let delivered = s2.on_peer(SimTime::ZERO, s1.id(), PeerMsg::Update(p.clone()));
        assert_eq!(*to, ServerId(2));
        assert_eq!(
            delivered,
            vec![Action::ToGame(MatrixToGame::Deliver(p.clone()))]
        );
        assert_eq!(s2.stats().peer_updates_in, 1);
    }

    #[test]
    fn irrelevant_peer_update_is_dropped() {
        let (_, mut s2, _) = active_pair();
        // Origin deep inside S1: not within 50 of S2's partition.
        let pkt =
            GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(390.0, 200.0)), 64, 0);
        let actions = s2.on_peer(SimTime::ZERO, ServerId(1), PeerMsg::Update(pkt));
        assert!(actions.is_empty());
        assert_eq!(s2.stats().misrouted_dropped, 1);
    }

    #[test]
    fn overload_requests_pool_once() {
        let (mut s1, _, _) = active_pair();
        let t = SimTime::from_secs(10);
        assert!(
            s1.on_game(t, overloaded_report()).is_empty(),
            "streak of 1 must not act"
        );
        let actions = s1.on_game(t, overloaded_report());
        assert_eq!(
            actions,
            vec![Action::ToPool(PoolMsg::Acquire {
                requester: ServerId(1),
                purpose: PoolPurpose::Split,
            })]
        );
        // Further overload reports while the request is pending do nothing.
        assert!(s1.on_game(t, overloaded_report()).is_empty());
    }

    #[test]
    fn split_hands_left_half_to_grant() {
        let (mut s1, _, _) = active_pair();
        let t = SimTime::from_secs(10);
        s1.on_game(t, overloaded_report());
        s1.on_game(t, overloaded_report());
        let actions = s1.on_pool(
            t,
            PoolReply::Grant {
                server: ServerId(7),
                purpose: PoolPurpose::Split,
            },
        );
        // S1 owned [200,400]x[0,400]; split-to-left gives [200,300] away.
        let given = Rect::from_coords(200.0, 0.0, 300.0, 400.0);
        let kept = Rect::from_coords(300.0, 0.0, 400.0, 400.0);
        assert_eq!(s1.range(), Some(kept));
        assert_eq!(s1.children(), &[ServerId(7)]);
        assert_eq!(s1.stats().splits, 1);
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(s, PeerMsg::AdoptPartition { range, .. }) if *s == ServerId(7) && *range == given)));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToCoord(CoordMsg::SplitOccurred { parent, child, .. })
                if *parent == ServerId(1) && *child == ServerId(7))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToGame(MatrixToGame::RedirectClients { to, .. }) if *to == ServerId(7))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToGame(MatrixToGame::SetRange { range, .. }) if *range == kept)));
    }

    #[test]
    fn child_adoption_acks_and_heartbeats() {
        let mut child = MatrixServer::new(ServerId(7), cfg());
        let actions = child.on_peer(
            SimTime::from_secs(1),
            ServerId(1),
            PeerMsg::AdoptPartition {
                parent: ServerId(1),
                range: Rect::from_coords(200.0, 0.0, 300.0, 400.0),
                radius: 50.0,
                metric: Metric::Euclidean,
                epoch: 3,
            },
        );
        assert_eq!(child.lifecycle(), Lifecycle::Active);
        assert_eq!(child.parent(), Some(ServerId(1)));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToGame(MatrixToGame::SetRange { .. }))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(p, PeerMsg::AdoptAck { child: c }) if *p == ServerId(1) && *c == ServerId(7))));
    }

    #[test]
    fn pool_denied_backs_off() {
        let (mut s1, _, _) = active_pair();
        let t = SimTime::from_secs(10);
        s1.on_game(t, overloaded_report());
        s1.on_game(t, overloaded_report());
        s1.on_pool(
            t,
            PoolReply::Denied {
                purpose: PoolPurpose::Split,
            },
        );
        assert_eq!(s1.stats().pool_denied, 1);
        // Still overloaded, but inside the cooldown: no new request.
        assert!(s1.on_game(t, overloaded_report()).is_empty());
        // After the cooldown the retry fires on the next overloaded report
        // (the streak is already long enough).
        let later = t + matrix_sim::SimDuration::from_secs(2);
        let actions = s1.on_game(later, overloaded_report());
        assert_eq!(
            actions,
            vec![Action::ToPool(PoolMsg::Acquire {
                requester: ServerId(1),
                purpose: PoolPurpose::Split,
            })]
        );
    }

    #[test]
    fn unsplittable_range_returns_server_to_pool() {
        let tiny = Rect::from_coords(0.0, 0.0, 0.0, 10.0);
        // A degenerate strip cannot be split by any strategy.
        let mut s = ranged(1, cfg(), tiny, 5.0);
        let t = SimTime::from_secs(10);
        s.on_game(t, overloaded_report());
        s.on_game(t, overloaded_report());
        let actions = s.on_pool(
            t,
            PoolReply::Grant {
                server: ServerId(9),
                purpose: PoolPurpose::Split,
            },
        );
        assert_eq!(
            actions,
            vec![Action::ToPool(PoolMsg::Release {
                server: ServerId(9)
            })]
        );
        assert_eq!(s.stats().splits, 0);
    }

    #[test]
    fn full_reclaim_handshake() {
        let (mut s1, _, _) = active_pair();
        let t0 = SimTime::from_secs(10);
        // Split to create child 7.
        s1.on_game(t0, overloaded_report());
        s1.on_game(t0, overloaded_report());
        let actions = s1.on_pool(
            t0,
            PoolReply::Grant {
                server: ServerId(7),
                purpose: PoolPurpose::Split,
            },
        );
        let mut child = MatrixServer::new(ServerId(7), cfg());
        for a in &actions {
            if let Action::ToPeer(_, msg) = a {
                child.on_peer(t0, ServerId(1), msg.clone());
            }
        }
        // Child reports low load to the parent.
        let t1 = t0 + matrix_sim::SimDuration::from_secs(5);
        s1.on_peer(
            t1,
            ServerId(7),
            PeerMsg::LoadStatus(LoadSnapshot {
                clients: 10,
                has_children: false,
            }),
        );
        // Parent underloaded for 3 consecutive reports.
        let low = || {
            GameToMatrix::Load(LoadReport {
                clients: 20,
                queue_backlog: 0.0,
                positions: vec![],
                telemetry: None,
            })
        };
        s1.on_game(t1, low());
        s1.on_game(t1, low());
        let actions = s1.on_game(t1, low());
        assert_eq!(
            actions,
            vec![Action::ToPeer(
                ServerId(7),
                PeerMsg::ReclaimRequest {
                    parent: ServerId(1)
                }
            )]
        );
        // Child grants, redirecting its clients and releasing itself.
        let granted = child.on_peer(
            t1,
            ServerId(1),
            PeerMsg::ReclaimRequest {
                parent: ServerId(1),
            },
        );
        assert!(granted.iter().any(
            |a| matches!(a, Action::ToGame(MatrixToGame::RedirectAll { to }) if *to == ServerId(1))
        ));
        assert!(granted.iter().any(
            |a| matches!(a, Action::ToPool(PoolMsg::Release { server }) if *server == ServerId(7))
        ));
        assert_eq!(child.lifecycle(), Lifecycle::Retired);
        // Parent merges the range back.
        let grant = granted
            .iter()
            .find_map(|a| match a {
                Action::ToPeer(_, m @ PeerMsg::ReclaimGrant { .. }) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        let merged_actions = s1.on_peer(t1, ServerId(7), grant);
        assert_eq!(
            s1.range(),
            Some(Rect::from_coords(200.0, 0.0, 400.0, 400.0))
        );
        assert_eq!(s1.children(), &[] as &[ServerId]);
        assert_eq!(s1.stats().reclaims, 1);
        assert!(merged_actions
            .iter()
            .any(|a| matches!(a, Action::ToCoord(CoordMsg::ReclaimOccurred { .. }))));
    }

    #[test]
    fn loaded_child_denies_reclaim() {
        let mut child = ranged(7, cfg(), Rect::from_coords(0.0, 0.0, 100.0, 100.0), 10.0);
        let over = LoadReport {
            clients: 500,
            queue_backlog: 0.0,
            positions: vec![],
            telemetry: None,
        };
        child.on_game(SimTime::ZERO, GameToMatrix::Load(over.clone()));
        child.on_game(SimTime::ZERO, GameToMatrix::Load(over));
        let actions = child.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::ReclaimRequest {
                parent: ServerId(1),
            },
        );
        assert_eq!(
            actions,
            vec![Action::ToPeer(
                ServerId(1),
                PeerMsg::ReclaimDeny { child: ServerId(7) }
            )]
        );
        assert_eq!(child.lifecycle(), Lifecycle::Active);
    }

    #[test]
    fn where_is_resolved_locally_from_directory() {
        let (mut s1, _, _) = active_pair();
        let actions = s1.on_game(
            SimTime::ZERO,
            GameToMatrix::WhereIs {
                client: ClientId(5),
                point: Point::new(50.0, 50.0),
            },
        );
        assert_eq!(
            actions,
            vec![Action::ToGame(MatrixToGame::Owner {
                client: ClientId(5),
                point: Point::new(50.0, 50.0),
                owner: Some(ServerId(2)),
            })]
        );
        assert_eq!(s1.stats().local_resolves, 1);
    }

    #[test]
    fn where_is_via_coordinator_before_the_first_table() {
        // `with_range` alone: no directory has been pushed yet.
        let mut s = ranged(1, cfg(), world(), 50.0);
        let actions = s.on_game(
            SimTime::ZERO,
            GameToMatrix::WhereIs {
                client: ClientId(5),
                point: Point::new(50.0, 50.0),
            },
        );
        assert!(matches!(
            actions.as_slice(),
            [Action::ToCoord(CoordMsg::ResolvePoint { .. })]
        ));
        // The reply completes the query.
        let replies = s.on_coord(
            SimTime::ZERO,
            CoordReply::Resolved {
                client: ClientId(5),
                point: Point::new(50.0, 50.0),
                owner: Some(ServerId(1)),
                set: vec![],
            },
        );
        assert_eq!(
            replies,
            vec![Action::ToGame(MatrixToGame::Owner {
                client: ClientId(5),
                point: Point::new(50.0, 50.0),
                owner: Some(ServerId(1)),
            })]
        );
        assert_eq!(s.stats().coordinator_resolves, 1);
    }

    #[test]
    fn non_proximal_packet_reaches_destination_owner() {
        let (mut s1, _, _) = active_pair();
        // Teleport event landing deep in S2's half.
        let pkt = GamePacket::synthetic(
            ClientId(3),
            SpatialTag::towards(Point::new(390.0, 200.0), Point::new(20.0, 20.0)),
            64,
            0,
        );
        let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt.clone()));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(s, PeerMsg::Update(_)) if *s == ServerId(2))));
    }

    #[test]
    fn stale_tables_are_rejected() {
        let (mut s1, _, map) = active_pair();
        assert_eq!(s1.epoch(), 1);
        let overlap = build_overlap(&map, 50.0, Metric::Euclidean);
        let stale = CoordReply::Tables {
            epoch: 0,
            tables: vec![(
                50f64.to_bits(),
                overlap.table_for(ServerId(1)).unwrap().clone(),
            )],
            map: map.clone(),
        };
        s1.on_coord(SimTime::ZERO, stale);
        assert_eq!(s1.epoch(), 1, "older epoch must not overwrite newer tables");
    }

    #[test]
    fn tick_emits_heartbeat_once_per_interval() {
        let (mut s1, _, _) = active_pair();
        let a1 = s1.on_tick(SimTime::from_millis(100));
        assert!(a1
            .iter()
            .any(|a| matches!(a, Action::ToCoord(CoordMsg::Heartbeat { .. }))));
        let a2 = s1.on_tick(SimTime::from_millis(200));
        assert!(!a2
            .iter()
            .any(|a| matches!(a, Action::ToCoord(CoordMsg::Heartbeat { .. }))));
        let a3 = s1.on_tick(SimTime::from_millis(1200));
        assert!(a3
            .iter()
            .any(|a| matches!(a, Action::ToCoord(CoordMsg::Heartbeat { .. }))));
    }

    #[test]
    fn static_baseline_never_splits() {
        let mut s = ranged(1, MatrixConfig::static_baseline(), world(), 50.0);
        for i in 0..50 {
            let actions = s.on_game(SimTime::from_secs(i), overloaded_report());
            assert!(actions.is_empty(), "static server must not adapt");
        }
        assert_eq!(s.stats().splits, 0);
    }

    #[test]
    fn absorb_failed_peer_extends_range() {
        let (mut s1, _, _) = active_pair();
        // S2 ([0,200]) dies; S1 ([200,400]) absorbs it.
        let actions = s1.on_coord(
            SimTime::ZERO,
            CoordReply::AbsorbFailed {
                failed: ServerId(2),
                range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        assert_eq!(s1.range(), Some(world()));
        assert_eq!(s1.stats().absorbs, 1);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToGame(MatrixToGame::SetRange { .. }))));
    }

    #[test]
    fn reclaim_from_non_parent_is_denied() {
        let (mut s1, _, _) = active_pair();
        let actions = s1.on_peer(
            SimTime::ZERO,
            ServerId(9),
            PeerMsg::ReclaimRequest {
                parent: ServerId(9),
            },
        );
        assert_eq!(
            actions,
            vec![Action::ToPeer(
                ServerId(9),
                PeerMsg::ReclaimDeny { child: ServerId(1) }
            )]
        );
        assert_eq!(s1.lifecycle(), Lifecycle::Active);
    }

    #[test]
    fn retired_server_drops_everything() {
        let mut child = MatrixServer::new(ServerId(7), cfg());
        child.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::AdoptPartition {
                parent: ServerId(1),
                range: Rect::from_coords(200.0, 0.0, 300.0, 400.0),
                radius: 50.0,
                metric: Metric::Euclidean,
                epoch: 1,
            },
        );
        child.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::ReclaimRequest {
                parent: ServerId(1),
            },
        );
        assert_eq!(child.lifecycle(), Lifecycle::Retired);
        let pkt =
            GamePacket::synthetic(ClientId(1), SpatialTag::at(Point::new(210.0, 200.0)), 64, 0);
        assert!(child
            .on_game(SimTime::ZERO, GameToMatrix::Forward(pkt.clone()))
            .is_empty());
        assert!(child
            .on_peer(SimTime::ZERO, ServerId(2), PeerMsg::Update(pkt))
            .is_empty());
        assert!(child.on_tick(SimTime::from_secs(99)).is_empty());
    }

    #[test]
    fn standby_replication_pairs_through_the_pool() {
        let mut cfg = cfg();
        cfg.standby_replication = true;
        let mut s = ranged(1, cfg, world(), 50.0);
        let t = SimTime::from_millis(100);
        let actions = s.on_tick(t);
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPool(PoolMsg::Acquire { requester, purpose: PoolPurpose::Standby })
                if *requester == ServerId(1))));
        // A second tick must not double-request while one is in flight.
        assert!(!s
            .on_tick(SimTime::from_millis(200))
            .iter()
            .any(|a| matches!(a, Action::ToPool(_))));
        let actions = s.on_pool(
            t,
            PoolReply::Grant {
                server: ServerId(9),
                purpose: PoolPurpose::Standby,
            },
        );
        assert_eq!(s.standby(), Some(ServerId(9)));
        assert_eq!(s.stats().standbys_acquired, 1);
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(p, PeerMsg::StandbyAssign { primary, .. })
                if *p == ServerId(9) && *primary == ServerId(1))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToCoord(CoordMsg::StandbyAssigned { primary, standby })
                if *primary == ServerId(1) && *standby == ServerId(9))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToGame(MatrixToGame::SetStandby { standby }) if *standby == ServerId(9))));
    }

    #[test]
    fn standby_denial_backs_off_a_cooldown() {
        let mut cfg = cfg();
        cfg.standby_replication = true;
        let mut s = ranged(1, cfg, world(), 50.0);
        let t = SimTime::from_millis(100);
        s.on_tick(t);
        s.on_pool(
            t,
            PoolReply::Denied {
                purpose: PoolPurpose::Standby,
            },
        );
        assert_eq!(s.stats().pool_denied, 1);
        // Inside the cooldown: no retry.
        assert!(!s
            .on_tick(t + matrix_sim::SimDuration::from_millis(500))
            .iter()
            .any(|a| matches!(a, Action::ToPool(_))));
        // After it: the pairing is retried.
        assert!(s
            .on_tick(t + matrix_sim::SimDuration::from_secs(2))
            .iter()
            .any(|a| matches!(
                a,
                Action::ToPool(PoolMsg::Acquire {
                    purpose: PoolPurpose::Standby,
                    ..
                })
            )));
    }

    #[test]
    fn assigned_standby_heartbeats_and_relays_replica_traffic() {
        let mut s = MatrixServer::new(ServerId(9), cfg());
        let actions = s.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::StandbyAssign {
                primary: ServerId(1),
                range: world(),
                radius: 50.0,
            },
        );
        assert_eq!(s.standby_for(), Some(ServerId(1)));
        assert_eq!(s.lifecycle(), Lifecycle::Idle, "standing by is not active");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToGame(MatrixToGame::ReplicaReset))));
        // Idle standbys heartbeat so their own death is detectable.
        let ticked = s.on_tick(SimTime::from_secs(2));
        assert!(ticked
            .iter()
            .any(|a| matches!(a, Action::ToCoord(CoordMsg::Heartbeat { .. }))));
        // Replica batches route to the co-located game node; acks route
        // back to the primary.
        let batch = crate::messages::ReplicaBatch {
            seq: 1,
            payload: crate::ReplicaPayload::Ops(Vec::new()),
        };
        let actions = s.on_peer(
            SimTime::from_secs(2),
            ServerId(1),
            PeerMsg::Replica {
                from: ServerId(1),
                batch: Box::new(batch.clone()),
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToGame(MatrixToGame::ReplicaBatch { .. }))));
        let actions = s.on_game(
            SimTime::from_secs(2),
            GameToMatrix::ReplicaAck {
                to: ServerId(1),
                seq: 1,
                resync: true,
            },
        );
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(p, PeerMsg::ReplicaAck { seq: 1, resync: true, .. })
                if *p == ServerId(1))));
    }

    #[test]
    fn promotion_activates_an_idle_standby() {
        let mut s = MatrixServer::new(ServerId(9), cfg());
        s.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::StandbyAssign {
                primary: ServerId(1),
                range: world(),
                radius: 50.0,
            },
        );
        let actions = s.on_coord(
            SimTime::from_secs(6),
            CoordReply::Promote {
                failed: ServerId(1),
                range: world(),
                radius: 50.0,
                metric: Metric::Euclidean,
            },
        );
        assert_eq!(s.lifecycle(), Lifecycle::Active);
        assert_eq!(s.range(), Some(world()));
        assert_eq!(s.standby_for(), None);
        assert_eq!(s.stats().promotions, 1);
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToGame(MatrixToGame::Promote { range, radius })
                if *range == world() && *radius == 50.0)));
        // A duplicate promotion from a stale sweep is ignored.
        assert!(s
            .on_coord(
                SimTime::from_secs(7),
                CoordReply::Promote {
                    failed: ServerId(1),
                    range: world(),
                    radius: 50.0,
                    metric: Metric::Euclidean,
                },
            )
            .is_empty());
    }

    #[test]
    fn retirement_releases_the_standby_pairing() {
        let mut cfg = cfg();
        cfg.standby_replication = true;
        let mut child = MatrixServer::new(ServerId(7), cfg);
        child.on_peer(
            SimTime::ZERO,
            ServerId(1),
            PeerMsg::AdoptPartition {
                parent: ServerId(1),
                range: Rect::from_coords(200.0, 0.0, 300.0, 400.0),
                radius: 50.0,
                metric: Metric::Euclidean,
                epoch: 1,
            },
        );
        child.on_tick(SimTime::from_millis(100));
        child.on_pool(
            SimTime::from_millis(200),
            PoolReply::Grant {
                server: ServerId(9),
                purpose: PoolPurpose::Standby,
            },
        );
        assert_eq!(child.standby(), Some(ServerId(9)));
        let actions = child.on_peer(
            SimTime::from_secs(10),
            ServerId(1),
            PeerMsg::ReclaimRequest {
                parent: ServerId(1),
            },
        );
        assert_eq!(child.lifecycle(), Lifecycle::Retired);
        assert_eq!(child.standby(), None);
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPeer(p, PeerMsg::StandbyRelease { primary })
                if *p == ServerId(9) && *primary == ServerId(7))));
        assert!(actions.iter().any(|a| matches!(a,
            Action::ToPool(PoolMsg::Release { server }) if *server == ServerId(9))));
    }

    #[test]
    fn standby_lost_triggers_repair_and_repairing() {
        let mut cfg = cfg();
        cfg.standby_replication = true;
        let mut s = ranged(1, cfg, world(), 50.0);
        s.on_tick(SimTime::from_millis(100));
        s.on_pool(
            SimTime::from_millis(200),
            PoolReply::Grant {
                server: ServerId(9),
                purpose: PoolPurpose::Standby,
            },
        );
        let actions = s.on_coord(
            SimTime::from_secs(10),
            CoordReply::StandbyLost {
                standby: ServerId(9),
            },
        );
        assert_eq!(s.standby(), None);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToGame(MatrixToGame::ReplicaReset))));
        // The next tick re-pairs.
        assert!(s.on_tick(SimTime::from_secs(11)).iter().any(|a| matches!(
            a,
            Action::ToPool(PoolMsg::Acquire {
                purpose: PoolPurpose::Standby,
                ..
            })
        )));
    }

    #[test]
    fn radius_override_routes_exactly() {
        let (mut s1, _, _) = active_pair();
        // Origin 120 from the neighbour: the primary radius (50) would not
        // reach it, an override of 150 must.
        let pkt = GamePacket {
            client: Some(ClientId(1)),
            tag: SpatialTag::at(Point::new(320.0, 200.0)).with_radius(150.0),
            payload: bytes::Bytes::from_static(&[0u8; 8]),
            seq: 0,
        };
        let actions = s1.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ToPeer(s, _) if *s == ServerId(2))));
        assert_eq!(s1.stats().override_routes, 1);
    }
}
