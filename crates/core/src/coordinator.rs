//! The Matrix Coordinator (MC) — §3.2.4.
//!
//! The MC owns the authoritative partition directory. On every topology
//! change (registration, split, reclaim, failure) it recomputes the overlap
//! regions with axis-aligned bounding-box arithmetic and pushes each server
//! its table. It is deliberately *off* the latency-critical forwarding
//! path: packet routing uses the distributed tables, and the MC is only
//! consulted for rare non-proximal interactions and topology changes —
//! which is why the paper argues a central MC scales.
//!
//! Each decision has one home. A directory edit is one checked
//! [`PartitionMap`] operation: `cut` for a reported split, `reclaim` for a
//! reclaim or a neighbour absorbing a dead or orphaned range, `rename` for
//! a promotion. A report the directory does not match is counted as a
//! divergence, never a panic. One function builds a server's table push,
//! both for [`Coordinator::recompute`] and for the re-push a stale-epoch
//! heartbeat asks for, and one helper forgets a server that left the
//! directory.

use crate::config::CoordinatorConfig;
use crate::messages::{CoordMsg, CoordReply};
use matrix_geometry::{
    consistency_set, Metric, OverlapTable, PartitionMap, Rect, ServerId, SplitOutcome,
};
use matrix_sim::SimTime;
use matrix_telemetry::{EventKind, FlightRecorder, SloTracker, TelemetrySnapshot, SLO_RINGS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An effect the coordinator asks its driver to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordAction {
    /// Send a reply to a Matrix server.
    Send(ServerId, CoordReply),
}

/// Coordinator activity counters (E5's traffic-share table and the
/// failover experiment read them).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoordinatorStats {
    /// Overlap-table recomputations performed.
    pub recomputes: u64,
    /// Individual table messages pushed to servers.
    pub tables_sent: u64,
    /// Point-resolution queries served.
    pub resolves: u64,
    /// Splits recorded.
    pub splits_seen: u64,
    /// Reclaims recorded.
    pub reclaims_seen: u64,
    /// Servers declared dead after missing heartbeats.
    pub failures_declared: u64,
    /// Failures recovered by promoting a warm standby (a subset of
    /// `failures_declared`): the region and its clients survived.
    pub failovers: u64,
    /// Warm standbys declared dead (their primaries were told to
    /// re-pair).
    pub standbys_lost: u64,
    /// Directory divergences tolerated: a reported split/reclaim did
    /// not match the directory and the coordinator resynchronised
    /// instead of failing. Chaos runs watch this counter (each one is
    /// also an `EventKind::Divergence` in the recorder) rather than
    /// stderr.
    pub divergences: u64,
    /// Targeted table re-pushes triggered by stale-epoch heartbeats.
    pub table_refreshes: u64,
    /// Freshness-SLO breach edges recorded: a ring's error-budget burn
    /// rate crossed 1.0 (each also lands in the flight recorder).
    pub slo_breaches: u64,
}

/// The coordinator state machine.
#[derive(Debug, Clone)]
pub struct Coordinator {
    cfg: CoordinatorConfig,
    /// The game's distance metric, registered with the world.
    metric: Metric,
    /// Every radius tables are built for, in registration order. Once the
    /// world is registered the game's radius is first, so each push's
    /// first table is the one ordinary routing reads.
    radii: Vec<f64>,
    map: Option<PartitionMap>,
    epoch: u64,
    heartbeats: BTreeMap<ServerId, SimTime>,
    /// Parent relationships learned from splits, used to pick an heir on
    /// failure.
    parents: BTreeMap<ServerId, ServerId>,
    /// Warm-standby pairings (primary → standby) announced by primaries;
    /// a dead primary with an entry here is failed over, not absorbed.
    standbys: BTreeMap<ServerId, ServerId>,
    stats: CoordinatorStats,
    /// Structured topology events (splits, reclaims, failovers, …).
    /// Always on: the coordinator is off the hot path, and the cluster's
    /// failure timeline must exist even when node telemetry is off.
    recorder: FlightRecorder,
    /// Latest telemetry snapshot per node, delivered on heartbeats.
    telemetry: BTreeMap<ServerId, TelemetrySnapshot>,
    /// Cluster-wide freshness SLO accounting over the per-ring staleness
    /// histograms the trace plane ships on heartbeats. Inert (every
    /// observation is a no-op) unless `cfg.slo` names a target.
    slo: SloTracker,
    /// Last cumulative `(samples, over-target)` seen per server per ring
    /// — heartbeat snapshots are cumulative, the tracker wants deltas.
    slo_last: BTreeMap<ServerId, [(u64, u64); SLO_RINGS]>,
}

impl Coordinator {
    /// Creates an empty coordinator awaiting the first registration.
    pub fn new(cfg: CoordinatorConfig) -> Coordinator {
        let slo = SloTracker::new(cfg.slo);
        Coordinator {
            cfg,
            metric: Metric::Euclidean,
            radii: Vec::new(),
            map: None,
            epoch: 0,
            heartbeats: BTreeMap::new(),
            parents: BTreeMap::new(),
            standbys: BTreeMap::new(),
            stats: CoordinatorStats::default(),
            recorder: FlightRecorder::new(1024),
            telemetry: BTreeMap::new(),
            slo,
            slo_last: BTreeMap::new(),
        }
    }

    /// Records a directory divergence: counted in
    /// [`CoordinatorStats::divergences`] and timestamped in the recorder.
    fn note_divergence(&mut self, now: SimTime) {
        self.stats.divergences += 1;
        self.recorder.record(now, EventKind::Divergence);
    }

    /// Drops what the coordinator keeps about a server that left the
    /// directory: its liveness watch, its parent link and its standby
    /// pairing.
    fn forget(&mut self, server: ServerId) {
        self.heartbeats.remove(&server);
        self.parents.remove(&server);
        self.standbys.remove(&server);
    }

    /// The game's radius of visibility. Registered with the world, so it
    /// exists whenever the directory does.
    fn game_radius(&self) -> f64 {
        self.radii[0]
    }

    /// Bootstraps with a pre-built multi-server map (static baseline and
    /// test fixtures) and what registration would carry, immediately
    /// producing tables for every server.
    pub fn with_map(
        cfg: CoordinatorConfig,
        map: PartitionMap,
        radius: f64,
        metric: Metric,
    ) -> (Coordinator, Vec<CoordAction>) {
        let mut c = Coordinator::new(cfg);
        c.radii = vec![radius];
        c.metric = metric;
        c.map = Some(map);
        let actions = c.recompute();
        (c, actions)
    }

    /// Current partition directory.
    pub fn map(&self) -> Option<&PartitionMap> {
        self.map.as_ref()
    }

    /// Current table epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The game's distance metric, as registered.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Counters for experiments.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// The cluster-wide flight recorder of structured topology events.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Feeds one node's freshly-arrived staleness histograms into the
    /// freshness SLO tracker. Heartbeat telemetry is cumulative, so the
    /// tracker is fed the *delta* against the last observation for this
    /// server — per ring: traced samples applied since then, and how
    /// many were over the ring's target (bucket precision). A breach
    /// edge (burn rate crossing 1.0) lands in the flight recorder.
    fn observe_slo(&mut self, now: SimTime, server: ServerId) {
        if !self.slo.enabled() {
            return;
        }
        let Some(snap) = self.telemetry.get(&server) else {
            return;
        };
        let mut cumulative = [(0u64, 0u64); SLO_RINGS];
        for (ring, slot) in cumulative.iter_mut().enumerate() {
            let target = self.slo.target_us(ring as u8);
            if target == 0 {
                continue;
            }
            if let Some(h) = snap.get_hist(&format!("staleness_r{ring}_us")) {
                *slot = (h.count, h.to_histogram().count_over(target as f64));
            }
        }
        let last = self.slo_last.entry(server).or_default();
        for ring in 0..SLO_RINGS {
            let (total, over) = cumulative[ring];
            let (last_total, last_over) = last[ring];
            // A promoted/restarted node restarts its histograms; the
            // saturating delta treats the shrunk totals as "no news"
            // instead of wrapping.
            let d_samples = total.saturating_sub(last_total);
            let d_over = over.saturating_sub(last_over);
            last[ring] = (total, over);
            if d_samples == 0 {
                continue;
            }
            if let Some(burn_bp) = self.slo.observe(ring as u8, d_samples, d_over) {
                self.stats.slo_breaches += 1;
                self.recorder.record(
                    now,
                    EventKind::SloBreach {
                        ring: ring as u8,
                        burn_bp,
                    },
                );
            }
        }
    }

    /// The cluster-wide freshness SLO tracker (inert unless
    /// [`crate::config::CoordinatorConfig::slo`] names a target).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The SLO plane's stats-endpoint face: `slo_*` counters per tracked
    /// ring (empty when the tracker is disabled or has no samples).
    pub fn slo_snapshot(&self) -> TelemetrySnapshot {
        self.slo.snapshot()
    }

    /// All node snapshots folded into one cluster aggregate.
    pub fn merged_telemetry(&self) -> TelemetrySnapshot {
        let mut merged = TelemetrySnapshot::new();
        for snap in self.telemetry.values() {
            merged.merge(snap);
        }
        merged
    }

    /// Number of live servers in the directory.
    pub fn server_count(&self) -> usize {
        self.map.as_ref().map_or(0, |m| m.len())
    }

    /// Handles one message from a Matrix server.
    pub fn handle(&mut self, now: SimTime, msg: CoordMsg) -> Vec<CoordAction> {
        match msg {
            CoordMsg::RegisterWorld {
                server,
                world,
                radius,
                metric,
            } => {
                self.heartbeats.insert(server, now);
                if self.map.is_none() {
                    self.radii.retain(|r| r.to_bits() != radius.to_bits());
                    self.radii.insert(0, radius);
                    self.metric = metric;
                    self.map = Some(PartitionMap::new(world, server));
                }
                self.recompute()
            }
            CoordMsg::RegisterRadius { server: _, radius } => {
                if !self.radii.iter().any(|r| r.to_bits() == radius.to_bits()) {
                    self.radii.push(radius);
                }
                self.recompute()
            }
            CoordMsg::SplitOccurred {
                parent,
                child,
                parent_range,
                child_range,
            } => {
                self.stats.splits_seen += 1;
                self.recorder
                    .record(now, EventKind::Split { parent, child });
                self.heartbeats.insert(child, now);
                self.parents.insert(child, parent);
                // The directory mirrors the cut the splitting server made
                // locally, checked against what the directory holds.
                let cut = SplitOutcome {
                    given: child_range,
                    kept: parent_range,
                };
                if let Some(map) = &mut self.map {
                    if map.cut(parent, child, cut).is_err() {
                        self.note_divergence(now);
                    }
                }
                self.recompute()
            }
            CoordMsg::StandbyAssigned { primary, standby } => {
                self.recorder
                    .record(now, EventKind::StandbyAssign { primary, standby });
                self.standbys.insert(primary, standby);
                // Watch the standby's liveness from the moment of the
                // pairing (its own heartbeats refresh this). A plain
                // insert, not or_insert: the server id may carry a stale
                // heartbeat from a previous life, and starting the watch
                // in the past would declare the fresh pairing dead on
                // the next sweep.
                self.heartbeats.insert(standby, now);
                Vec::new()
            }
            CoordMsg::ReclaimOccurred {
                parent,
                child,
                merged_range,
            } => {
                self.stats.reclaims_seen += 1;
                self.recorder
                    .record(now, EventKind::Reclaim { parent, child });
                self.forget(child);
                if let Some(map) = &mut self.map {
                    let merged = map.reclaim(parent, child).is_ok();
                    let as_reported = map.range_of(parent) == Some(merged_range);
                    if !merged {
                        self.note_divergence(now);
                    }
                    if !as_reported {
                        // Tolerated, like every divergence: the directory
                        // resynchronises on the next topology report.
                        self.note_divergence(now);
                    }
                }
                self.recompute()
            }
            CoordMsg::Heartbeat {
                server,
                epoch,
                telemetry,
            } => {
                self.heartbeats.insert(server, now);
                if let Some(snap) = telemetry {
                    // Snapshots are cumulative; latest wins.
                    self.telemetry.insert(server, *snap);
                    self.observe_slo(now, server);
                }
                // Anti-entropy: a server routing with stale tables (a lost
                // or delayed push) gets a targeted refresh instead of
                // waiting for the next topology change.
                if epoch < self.epoch {
                    if let Some(push) = self.push(server) {
                        self.stats.table_refreshes += 1;
                        return vec![push];
                    }
                }
                Vec::new()
            }
            CoordMsg::OrphanRange {
                parent: _,
                child,
                range,
            } => {
                // The retired child's range needs a mergeable owner: the
                // same absorption a failure gets, without a parent
                // preference. With no heir yet (or the range already
                // reassigned), a later topology change merges it.
                self.recorder.record(now, EventKind::Orphan { child });
                self.forget(child);
                match self.absorb(child, None) {
                    Some((heir, _)) => self.tell_and_recompute(
                        heir,
                        CoordReply::AbsorbFailed {
                            failed: child,
                            range,
                        },
                    ),
                    None => Vec::new(),
                }
            }
            CoordMsg::ResolvePoint {
                server,
                client,
                point,
                radius,
            } => {
                self.stats.resolves += 1;
                let (owner, set) = match &self.map {
                    Some(map) => {
                        let owner = map.owner_of(point);
                        let r = radius.unwrap_or(self.game_radius());
                        let me = owner.unwrap_or(ServerId(u32::MAX));
                        (owner, consistency_set(map, point, me, r, self.metric))
                    }
                    None => (None, Vec::new()),
                };
                vec![CoordAction::Send(
                    server,
                    CoordReply::Resolved {
                        client,
                        point,
                        owner,
                        set,
                    },
                )]
            }
        }
    }

    /// Recomputes every server's overlap tables and emits the pushes
    /// (§3.2.4: "recomputes and redistributes overlap regions every time a
    /// new Matrix server is used or an existing Matrix server is
    /// reclaimed").
    pub fn recompute(&mut self) -> Vec<CoordAction> {
        let Some(map) = &self.map else {
            return Vec::new();
        };
        self.epoch += 1;
        self.stats.recomputes += 1;
        let actions: Vec<CoordAction> = map.iter().filter_map(|(s, _)| self.push(s)).collect();
        self.stats.tables_sent += actions.len() as u64;
        actions
    }

    /// The current epoch's table push for one server in the directory:
    /// its overlap table for every registered radius, the game's first,
    /// and the directory itself. Nothing it reads changes between
    /// recomputes, so a stale-epoch re-push is exactly what the last
    /// recompute sent.
    fn push(&self, server: ServerId) -> Option<CoordAction> {
        let map = self.map.as_ref()?;
        let range = map.range_of(server)?;
        let parts: Vec<(ServerId, Rect)> = map.iter().collect();
        let tables = self
            .radii
            .iter()
            .map(|&r| {
                let table = OverlapTable::build(server, range, &parts, r, self.metric);
                (r.to_bits(), table)
            })
            .collect();
        Some(CoordAction::Send(
            server,
            CoordReply::Tables {
                epoch: self.epoch,
                tables,
                map: map.clone(),
            },
        ))
    }

    /// Sends `reply` to `to`, then the pushes of a recompute.
    fn tell_and_recompute(&mut self, to: ServerId, reply: CoordReply) -> Vec<CoordAction> {
        let mut actions = vec![CoordAction::Send(to, reply)];
        actions.extend(self.recompute());
        actions
    }

    /// Merges `dead`'s range into a mergeable neighbour — `preferred` if
    /// it is one, else the lowest id — and returns the heir and the range
    /// it took. `None` when no neighbour tiles with it (the last server
    /// never has one) or `dead` owns no range.
    fn absorb(&mut self, dead: ServerId, preferred: Option<ServerId>) -> Option<(ServerId, Rect)> {
        let map = self.map.as_mut()?;
        let range = map.range_of(dead)?;
        let neighbours = map.mergeable_neighbours(dead);
        let heir = preferred
            .filter(|p| neighbours.contains(p))
            .or_else(|| neighbours.first().copied())?;
        map.reclaim(heir, dead).ok()?;
        Some((heir, range))
    }

    /// Periodic liveness sweep. Servers with stale heartbeats are
    /// declared dead and handled by the best available recovery:
    ///
    /// * a dead **primary with a warm standby** is *failed over* — the
    ///   standby takes over the range under its own id and is promoted,
    ///   so its clients survive on their replicated sessions;
    /// * a dead server **without** a standby is *absorbed* — a
    ///   mergeable neighbour (preferring the parent) adopts the
    ///   orphaned range, and that node's sessions are lost;
    /// * a dead **standby** costs nothing but its pairing — the primary
    ///   is told to draw a replacement from the pool.
    ///
    /// Returns the resulting pushes.
    pub fn check_liveness(&mut self, now: SimTime) -> Vec<CoordAction> {
        if self.map.is_none() {
            return Vec::new();
        }
        let dead: Vec<ServerId> = self
            .heartbeats
            .iter()
            .filter(|(_, t)| now.since(**t) > self.cfg.heartbeat_timeout)
            .filter(|(s, _)| {
                let in_map = self.map.as_ref().is_some_and(|m| m.contains_server(**s));
                let is_standby = self.standbys.values().any(|sb| sb == *s);
                in_map || is_standby
            })
            .map(|(s, _)| *s)
            .collect();
        let dead_set: std::collections::BTreeSet<ServerId> = dead.iter().copied().collect();
        let mut actions = Vec::new();
        for failed in dead {
            let in_map = self.map.as_ref().is_some_and(|m| m.contains_server(failed));
            if !in_map {
                // A dead standby: tell its primary to re-pair. (If the
                // primary died in the same sweep, its own handling below
                // already dropped the pairing — nothing left to do.)
                let Some(primary) = self
                    .standbys
                    .iter()
                    .find(|(_, sb)| **sb == failed)
                    .map(|(p, _)| *p)
                else {
                    self.heartbeats.remove(&failed);
                    continue;
                };
                self.standbys.remove(&primary);
                self.heartbeats.remove(&failed);
                self.stats.standbys_lost += 1;
                self.recorder.record(
                    now,
                    EventKind::StandbyLost {
                        primary,
                        standby: failed,
                    },
                );
                actions.push(CoordAction::Send(
                    primary,
                    CoordReply::StandbyLost { standby: failed },
                ));
                continue;
            }
            if let Some(standby) = self.standbys.get(&failed).copied() {
                // Promoting onto a node that is dead in this very sweep
                // would hand the region to a corpse; a shared failure
                // domain takes the absorb path instead.
                if !dead_set.contains(&standby) {
                    actions.extend(self.promote_standby(now, failed, standby));
                    continue;
                }
                self.standbys.remove(&failed);
                self.heartbeats.remove(&standby);
                self.stats.standbys_lost += 1;
                self.recorder.record(
                    now,
                    EventKind::StandbyLost {
                        primary: failed,
                        standby,
                    },
                );
            }
            actions.extend(self.absorb_dead(now, failed));
        }
        actions
    }

    /// Fast failover: rename the dead primary's range to `standby` in the
    /// directory, instruct it to promote, and push fresh tables
    /// everywhere. Works even for the last server in the map — unlike
    /// absorption, promotion needs no neighbour.
    fn promote_standby(
        &mut self,
        now: SimTime,
        failed: ServerId,
        standby: ServerId,
    ) -> Vec<CoordAction> {
        let Some(Ok(range)) = self.map.as_mut().map(|m| m.rename(failed, standby)) else {
            // The standby already owns a range: the pairing and the
            // directory disagree, so the pairing goes.
            self.standbys.remove(&failed);
            self.note_divergence(now);
            return Vec::new();
        };
        self.stats.failures_declared += 1;
        self.stats.failovers += 1;
        let inherited = self.parents.get(&failed).copied();
        self.forget(failed);
        self.heartbeats.insert(standby, now);
        // Re-parent the family tree: the promoted standby inherits the
        // dead primary's parent (so an underloaded heir can still be
        // reclaimed upward) and adopts its children (so they reclaim
        // into the survivor instead of pointing at a ghost forever).
        if let Some(parent) = inherited {
            self.parents.insert(standby, parent);
        }
        for parent in self.parents.values_mut() {
            if *parent == failed {
                *parent = standby;
            }
        }
        self.recorder.record(
            now,
            EventKind::FailureDeclared {
                failed,
                heir: standby,
            },
        );
        self.recorder
            .record(now, EventKind::Failover { failed, standby });
        let promote = CoordReply::Promote {
            failed,
            range,
            radius: self.game_radius(),
            metric: self.metric,
        };
        self.tell_and_recompute(standby, promote)
    }

    /// Recovery for a dead server without a standby: a mergeable
    /// neighbour, preferring its parent, absorbs the orphaned range (its
    /// sessions are lost).
    fn absorb_dead(&mut self, now: SimTime, failed: ServerId) -> Vec<CoordAction> {
        let parent = self.parents.get(&failed).copied();
        let Some((heir, range)) = self.absorb(failed, parent) else {
            return Vec::new();
        };
        self.stats.failures_declared += 1;
        self.forget(failed);
        self.recorder
            .record(now, EventKind::FailureDeclared { failed, heir });
        self.tell_and_recompute(heir, CoordReply::AbsorbFailed { failed, range })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ClientId;
    use matrix_geometry::Point;
    use matrix_sim::SimDuration;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn registered() -> (Coordinator, Vec<CoordAction>) {
        let mut c = Coordinator::new(CoordinatorConfig::default());
        let actions = c.handle(
            SimTime::ZERO,
            CoordMsg::RegisterWorld {
                server: ServerId(1),
                world: world(),
                radius: 50.0,
                metric: Metric::Euclidean,
            },
        );
        (c, actions)
    }

    #[test]
    fn registration_produces_first_tables() {
        let (c, actions) = registered();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.server_count(), 1);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            CoordAction::Send(s, CoordReply::Tables { epoch: 1, .. }) if *s == ServerId(1)
        ));
    }

    #[test]
    fn split_updates_directory_and_pushes_tables() {
        let (mut c, _) = registered();
        let actions = c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        assert_eq!(c.server_count(), 2);
        assert_eq!(
            c.map().unwrap().range_of(ServerId(2)),
            Some(Rect::from_coords(0.0, 0.0, 200.0, 400.0))
        );
        c.map().unwrap().validate().unwrap();
        // One table per live server.
        assert_eq!(actions.len(), 2);
        assert_eq!(c.stats().splits_seen, 1);
    }

    #[test]
    fn horizontal_split_is_applied() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(0.0, 200.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 400.0, 200.0),
            },
        );
        assert_eq!(c.server_count(), 2);
        c.map().unwrap().validate().unwrap();
    }

    #[test]
    fn reclaim_updates_directory() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        let actions = c.handle(
            SimTime::from_secs(2),
            CoordMsg::ReclaimOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                merged_range: world(),
            },
        );
        assert_eq!(c.server_count(), 1);
        assert_eq!(c.map().unwrap().range_of(ServerId(1)), Some(world()));
        assert_eq!(actions.len(), 1);
        assert_eq!(c.stats().reclaims_seen, 1);
    }

    #[test]
    fn resolve_point_returns_owner_and_set() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        let actions = c.handle(
            SimTime::from_secs(2),
            CoordMsg::ResolvePoint {
                server: ServerId(1),
                client: ClientId(9),
                point: Point::new(190.0, 50.0),
                radius: None,
            },
        );
        let CoordAction::Send(to, CoordReply::Resolved { owner, set, .. }) = &actions[0] else {
            panic!("expected resolve reply");
        };
        assert_eq!(*to, ServerId(1));
        assert_eq!(*owner, Some(ServerId(2)));
        // 190 is within 50 of S1's half.
        assert!(set.contains(&ServerId(1)), "{set:?}");
        assert_eq!(c.stats().resolves, 1);
    }

    #[test]
    fn epoch_increases_monotonically() {
        let (mut c, _) = registered();
        let e1 = c.epoch();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        assert!(c.epoch() > e1);
    }

    #[test]
    fn missed_heartbeats_trigger_absorption() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        // S1 keeps heartbeating, S2 goes silent.
        for s in 1..=20u64 {
            c.handle(
                SimTime::from_secs(1) + SimDuration::from_secs(s),
                CoordMsg::Heartbeat {
                    server: ServerId(1),
                    epoch: 99,
                    telemetry: None,
                },
            );
        }
        // At t=24, S1's last heartbeat (t=21) is fresh; S2's (t=1) is stale.
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failures_declared, 1);
        assert_eq!(c.server_count(), 1);
        assert!(actions.iter().any(|a| matches!(a,
            CoordAction::Send(s, CoordReply::AbsorbFailed { failed, .. })
                if *s == ServerId(1) && *failed == ServerId(2))));
        // Fresh tables follow the absorption.
        assert!(actions
            .iter()
            .any(|a| matches!(a, CoordAction::Send(_, CoordReply::Tables { .. }))));
    }

    #[test]
    fn last_server_is_never_declared_dead() {
        let (mut c, _) = registered();
        let actions = c.check_liveness(SimTime::from_secs(1000));
        assert!(actions.is_empty());
        assert_eq!(c.server_count(), 1);
    }

    #[test]
    fn extra_radius_produces_extra_tables() {
        let (mut c, _) = registered();
        let actions = c.handle(
            SimTime::from_secs(1),
            CoordMsg::RegisterRadius {
                server: ServerId(1),
                radius: 120.0,
            },
        );
        let CoordAction::Send(_, CoordReply::Tables { tables, .. }) = &actions[0] else {
            panic!("expected tables");
        };
        let radii: Vec<u64> = tables.iter().map(|(bits, _)| *bits).collect();
        assert_eq!(
            radii,
            vec![50.0f64.to_bits(), 120.0f64.to_bits()],
            "the game's radius leads, the extra radius follows"
        );
    }

    #[test]
    fn stale_epoch_heartbeat_gets_fresh_tables() {
        let (mut c, _) = registered();
        assert_eq!(c.epoch(), 1);
        // A heartbeat reporting the current epoch gets nothing back.
        let none = c.handle(
            SimTime::from_secs(1),
            CoordMsg::Heartbeat {
                server: ServerId(1),
                epoch: 1,
                telemetry: None,
            },
        );
        assert!(none.is_empty());
        // A heartbeat reporting an older epoch (a lost push) triggers a
        // targeted refresh at the current epoch.
        let refreshed = c.handle(
            SimTime::from_secs(2),
            CoordMsg::Heartbeat {
                server: ServerId(1),
                epoch: 0,
                telemetry: None,
            },
        );
        assert!(matches!(
            refreshed.as_slice(),
            [CoordAction::Send(s, CoordReply::Tables { epoch: 1, .. })] if *s == ServerId(1)
        ));
        assert_eq!(c.stats().table_refreshes, 1);
    }

    #[test]
    fn unknown_server_heartbeat_gets_no_tables() {
        let (mut c, _) = registered();
        let actions = c.handle(
            SimTime::from_secs(1),
            CoordMsg::Heartbeat {
                server: ServerId(42),
                epoch: 0,
                telemetry: None,
            },
        );
        assert!(actions.is_empty(), "retired/unknown servers get no tables");
    }

    #[test]
    fn orphan_range_is_absorbed_by_neighbour() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        let actions = c.handle(
            SimTime::from_secs(2),
            CoordMsg::OrphanRange {
                parent: ServerId(9),
                child: ServerId(2),
                range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        assert_eq!(c.server_count(), 1);
        assert!(actions.iter().any(|a| matches!(a,
            CoordAction::Send(s, CoordReply::AbsorbFailed { failed, .. })
                if *s == ServerId(1) && *failed == ServerId(2))));
    }

    fn split_pair() -> Coordinator {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::SplitOccurred {
                parent: ServerId(1),
                child: ServerId(2),
                parent_range: Rect::from_coords(200.0, 0.0, 400.0, 400.0),
                child_range: Rect::from_coords(0.0, 0.0, 200.0, 400.0),
            },
        );
        c
    }

    fn keep_alive(c: &mut Coordinator, server: ServerId, until_secs: u64) {
        for s in 1..=until_secs {
            c.handle(
                SimTime::from_secs(s),
                CoordMsg::Heartbeat {
                    server,
                    epoch: 99,
                    telemetry: None,
                },
            );
        }
    }

    #[test]
    fn dead_primary_with_standby_is_failed_over_not_absorbed() {
        let mut c = split_pair();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(2),
                standby: ServerId(9),
            },
        );
        // S1 and the standby stay alive; S2 goes silent.
        keep_alive(&mut c, ServerId(1), 20);
        keep_alive(&mut c, ServerId(9), 20);
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failures_declared, 1);
        assert_eq!(c.stats().failovers, 1);
        // The standby inherits the range under its own id.
        assert_eq!(
            c.map().unwrap().range_of(ServerId(9)),
            Some(Rect::from_coords(0.0, 0.0, 200.0, 400.0))
        );
        assert!(!c.map().unwrap().contains_server(ServerId(2)));
        c.map().unwrap().validate().unwrap();
        assert!(actions.iter().any(|a| matches!(a,
            CoordAction::Send(s, CoordReply::Promote { failed, radius, .. })
                if *s == ServerId(9) && *failed == ServerId(2) && *radius == 50.0)));
        // Fresh tables follow, including for the promoted server.
        assert!(actions.iter().any(|a| matches!(a,
            CoordAction::Send(s, CoordReply::Tables { .. }) if *s == ServerId(9))));
        // No absorb was sent: the region survived.
        assert!(!actions
            .iter()
            .any(|a| matches!(a, CoordAction::Send(_, CoordReply::AbsorbFailed { .. }))));
    }

    #[test]
    fn even_the_last_server_fails_over_when_it_has_a_standby() {
        let (mut c, _) = registered();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(1),
                standby: ServerId(9),
            },
        );
        keep_alive(&mut c, ServerId(9), 20);
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failovers, 1);
        assert_eq!(c.map().unwrap().range_of(ServerId(9)), Some(world()));
        assert!(actions
            .iter()
            .any(|a| matches!(a, CoordAction::Send(_, CoordReply::Promote { .. }))));
    }

    #[test]
    fn failover_reparents_children_onto_the_promoted_standby() {
        // 1 splits to 2 (parent: 2 -> 1); 1 is replicated to standby 9.
        // When 1 dies and 9 promotes, 2's parent link must be rewritten
        // to 9 — so when 2 later dies without a standby, the absorb
        // machinery's parent preference picks 9, not whatever neighbour
        // happens to sort first.
        let mut c = split_pair();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(1),
                standby: ServerId(9),
            },
        );
        keep_alive(&mut c, ServerId(2), 20);
        keep_alive(&mut c, ServerId(9), 20);
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failovers, 1, "{actions:?}");
        assert!(c.map().unwrap().contains_server(ServerId(9)));

        // Now the split child dies with no standby of its own.
        keep_alive(&mut c, ServerId(9), 39);
        let actions = c.check_liveness(SimTime::from_secs(40));
        assert!(
            actions.iter().any(|a| matches!(a,
                CoordAction::Send(heir, CoordReply::AbsorbFailed { failed, .. })
                    if *heir == ServerId(9) && *failed == ServerId(2))),
            "the re-parented standby absorbs its adopted child: {actions:?}"
        );
        assert_eq!(c.map().unwrap().range_of(ServerId(9)), Some(world()));
    }

    #[test]
    fn promoted_standby_inherits_the_dead_primarys_parent() {
        // 1 splits to 2 (parent: 2 -> 1); 2 is replicated to standby 9.
        // When 2 dies and 9 promotes, 9 inherits 2's parent link — so a
        // later death of 9 absorbs into 1 via the parent preference.
        let mut c = split_pair();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(2),
                standby: ServerId(9),
            },
        );
        keep_alive(&mut c, ServerId(1), 20);
        keep_alive(&mut c, ServerId(9), 20);
        c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failovers, 1);

        keep_alive(&mut c, ServerId(1), 40);
        let actions = c.check_liveness(SimTime::from_secs(44));
        assert!(
            actions.iter().any(|a| matches!(a,
                CoordAction::Send(heir, CoordReply::AbsorbFailed { failed, .. })
                    if *heir == ServerId(1) && *failed == ServerId(9))),
            "the inherited parent absorbs the promoted standby: {actions:?}"
        );
    }

    #[test]
    fn dead_standby_triggers_repair_notice() {
        let mut c = split_pair();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(2),
                standby: ServerId(9),
            },
        );
        // Both actives stay fresh; the standby never heartbeats again.
        keep_alive(&mut c, ServerId(1), 20);
        keep_alive(&mut c, ServerId(2), 20);
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().standbys_lost, 1);
        assert_eq!(c.stats().failures_declared, 0, "no region was lost");
        assert_eq!(
            actions,
            vec![CoordAction::Send(
                ServerId(2),
                CoordReply::StandbyLost {
                    standby: ServerId(9)
                }
            )]
        );
        // A later primary death now takes the absorb path.
        let actions = c.check_liveness(SimTime::from_secs(40));
        assert!(actions
            .iter()
            .any(|a| matches!(a, CoordAction::Send(_, CoordReply::AbsorbFailed { .. }))));
    }

    #[test]
    fn repairing_clears_a_stale_heartbeat_from_a_previous_life() {
        // Regression: a recycled server id may carry an old heartbeat
        // timestamp; the pairing must restart its liveness watch at
        // `now`, or the next sweep declares the fresh standby dead.
        let mut c = split_pair();
        // ServerId(9) heartbeat ages far into the past (an earlier life).
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::Heartbeat {
                server: ServerId(9),
                epoch: 0,
                telemetry: None,
            },
        );
        keep_alive(&mut c, ServerId(1), 30);
        keep_alive(&mut c, ServerId(2), 30);
        c.handle(
            SimTime::from_secs(30),
            CoordMsg::StandbyAssigned {
                primary: ServerId(2),
                standby: ServerId(9),
            },
        );
        // Sweep right after the pairing: the standby must NOT be lost.
        let actions = c.check_liveness(SimTime::from_secs(31));
        assert_eq!(c.stats().standbys_lost, 0, "{actions:?}");
        assert!(actions.is_empty());
    }

    #[test]
    fn primary_and_standby_dying_together_fall_back_to_absorb() {
        // Regression: promoting onto a node that is dead in the same
        // sweep would hand the region to a corpse. A shared failure
        // domain must take the absorb path (and count one failure).
        let mut c = split_pair();
        c.handle(
            SimTime::from_secs(1),
            CoordMsg::StandbyAssigned {
                primary: ServerId(2),
                standby: ServerId(9),
            },
        );
        // Only S1 stays alive; S2 and its standby both go silent.
        keep_alive(&mut c, ServerId(1), 20);
        let actions = c.check_liveness(SimTime::from_secs(24));
        assert_eq!(c.stats().failovers, 0, "no corpse promotion");
        assert_eq!(c.stats().failures_declared, 1, "one physical failure");
        assert_eq!(c.stats().standbys_lost, 1);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, CoordAction::Send(_, CoordReply::Promote { .. }))));
        assert!(actions.iter().any(|a| matches!(a,
            CoordAction::Send(s, CoordReply::AbsorbFailed { failed, .. })
                if *s == ServerId(1) && *failed == ServerId(2))));
        // The dead pair is fully forgotten: a later sweep is quiet.
        assert!(c.check_liveness(SimTime::from_secs(60)).is_empty());
    }

    #[test]
    fn divergences_count_and_reach_the_recorder() {
        let (mut c, _) = registered();
        // A reclaim for a child the directory never saw: a divergence,
        // tolerated without a panic or a line on stderr.
        let at = SimTime::from_secs(1);
        c.handle(
            at,
            CoordMsg::ReclaimOccurred {
                parent: ServerId(1),
                child: ServerId(42),
                merged_range: world(),
            },
        );
        assert_eq!(c.stats().divergences, 1);
        let divergences: Vec<SimTime> = c
            .recorder()
            .events()
            .filter(|e| e.kind == EventKind::Divergence)
            .map(|e| e.at)
            .collect();
        assert_eq!(divergences, vec![at], "one recorder event per divergence");
    }

    #[test]
    fn with_map_bootstraps_static_fixture() {
        let servers: Vec<ServerId> = (1..=4).map(ServerId).collect();
        let map = PartitionMap::static_grid(world(), &servers).unwrap();
        let (c, actions) =
            Coordinator::with_map(CoordinatorConfig::default(), map, 25.0, Metric::Chebyshev);
        assert_eq!(c.server_count(), 4);
        assert_eq!(c.metric(), Metric::Chebyshev);
        assert_eq!(actions.len(), 4);
    }
}
