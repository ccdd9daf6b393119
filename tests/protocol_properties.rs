//! Property-based tests of the middleware protocol: routing correctness
//! (Equation 1 end to end, over every radius path), adaptation-protocol
//! safety, and the coordinator's directory and table pushes over random
//! topologies, packet streams and failures.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! property-testing framework, keeping the build offline-friendly.

use matrix_middleware::core::{
    Action, ClientId, CoordAction, CoordMsg, CoordReply, Coordinator, CoordinatorConfig,
    GamePacket, GameToMatrix, LoadReport, MatrixConfig, MatrixServer, MatrixToGame, PeerMsg,
    PoolMsg, PoolPurpose, PoolReply, SpatialTag,
};
use matrix_middleware::geometry::{
    build_overlap, consistency_set, Metric, PartitionMap, Point, Rect, ServerId, SplitStrategy,
};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = 48;

type Fleet = BTreeMap<ServerId, MatrixServer>;

/// Builds a live fleet: every server holds a partition and the tables a
/// coordinator bootstrapped with the same map pushed to it.
fn fleet(script: &[(u8, u8)], radius: f64, metric: Metric) -> (PartitionMap, Fleet, Coordinator) {
    let world = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let mut map = PartitionMap::new(world, ServerId(1));
    let mut next = 2u32;
    for (victim, sel) in script {
        let servers = map.servers();
        let target = servers[*victim as usize % servers.len()];
        let strategy = match sel % 2 {
            0 => SplitStrategy::SplitToLeft,
            _ => SplitStrategy::LongestAxis,
        };
        if map.split(target, ServerId(next), &strategy, &[]).is_ok() {
            next += 1;
        }
    }
    let mut servers = BTreeMap::new();
    for (id, rect) in map.iter() {
        let cfg = MatrixConfig::default();
        servers.insert(id, MatrixServer::with_range(id, cfg, rect, radius, metric));
    }
    let (coord, pushes) =
        Coordinator::with_map(CoordinatorConfig::default(), map.clone(), radius, metric);
    install(&mut servers, pushes);
    (map, servers, coord)
}

/// Hands each coordinator reply to the server it is addressed to.
fn install(servers: &mut Fleet, replies: Vec<CoordAction>) {
    for CoordAction::Send(to, reply) in replies {
        servers.get_mut(&to).unwrap().on_coord(SimTime::ZERO, reply);
    }
}

/// What `sender` does with a packet its game server forwards.
fn forward(servers: &mut Fleet, sender: ServerId, pkt: GamePacket) -> Vec<Action> {
    let server = servers.get_mut(&sender).unwrap();
    server.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt))
}

/// Registers an extra radius the way a game server does: through its
/// Matrix server to the coordinator, whose pushes reach every server.
fn register_radius(servers: &mut Fleet, coord: &mut Coordinator, via: ServerId, radius: f64) {
    let actions = servers
        .get_mut(&via)
        .unwrap()
        .on_game(SimTime::ZERO, GameToMatrix::RegisterRadius { radius });
    for action in actions {
        if let Action::ToCoord(msg) = action {
            install(servers, coord.handle(SimTime::ZERO, msg));
        }
    }
}

/// Carries out what `sender` did with a packet and returns every server
/// whose game server it reached: peers that accepted the routed update as
/// relevant, and `sender` itself if it delivered locally.
fn reached(servers: &mut Fleet, sender: ServerId, actions: Vec<Action>) -> BTreeSet<ServerId> {
    let mut reached = BTreeSet::new();
    for action in actions {
        match action {
            Action::ToPeer(peer, PeerMsg::Update(update)) => {
                let delivered = servers.get_mut(&peer).unwrap().on_peer(
                    SimTime::ZERO,
                    sender,
                    PeerMsg::Update(update),
                );
                if !delivered.is_empty() {
                    reached.insert(peer);
                }
            }
            Action::ToGame(MatrixToGame::Deliver(_)) => {
                reached.insert(sender);
            }
            _ => {}
        }
    }
    reached
}

fn split_script(rng: &mut SimRng, max_len: u64, strategies: u64) -> Vec<(u8, u8)> {
    let n = rng.uniform_u64(0, max_len) as usize;
    (0..n)
        .map(|_| {
            (
                rng.uniform_u64(0, 16) as u8,
                rng.uniform_u64(0, strategies) as u8,
            )
        })
        .collect()
}

/// End-to-end routing delivers a packet to every server whose
/// partition is strictly within the radius of its origin — Matrix's
/// localized-consistency guarantee — and each recipient accepts it
/// as relevant. The same holds on the two other radius paths: a
/// per-packet radius override (served by a table registered through
/// `RegisterRadius` in half the cases, computed from the directory in
/// the other half) reaches Equation 1's set for its radius, and a
/// non-proximal event reaches its destination's owner and Equation 1's
/// set at the destination, whether the sender resolves it on its own
/// directory or, having none yet, through the coordinator.
#[test]
fn updates_reach_every_required_server() {
    let mut rng = SimRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let metric = Metric::Euclidean;
        let script = split_script(&mut rng, 10, 2);
        let radius = rng.uniform(20.0, 250.0);
        let (map, mut servers, mut coord) = fleet(&script, radius, metric);
        let origin = Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0));
        let owner = map.owner_of(origin).expect("interior");
        let pkt = GamePacket::synthetic(ClientId(1), SpatialTag::at(origin), 64, 0);

        let sender = servers.get_mut(&owner).unwrap();
        let actions = sender.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt));
        let mut delivered_to = Vec::new();
        for action in actions {
            if let Action::ToPeer(peer, PeerMsg::Update(update)) = action {
                // The receiver verifies the packet's range (§3.2.3). The
                // AABB tables over-approximate under Euclidean, so a peer
                // may legitimately drop an update — but only if its
                // partition really is beyond the radius.
                let distance = map.range_of(peer).unwrap().distance_to(origin, metric);
                let recv_actions = servers.get_mut(&peer).unwrap().on_peer(
                    SimTime::ZERO,
                    owner,
                    PeerMsg::Update(update),
                );
                if distance <= radius {
                    assert!(
                        !recv_actions.is_empty(),
                        "case {case}: {peer} (distance {distance} <= {radius}) rejected a relevant update"
                    );
                    delivered_to.push(peer);
                } else {
                    assert!(
                        recv_actions.is_empty(),
                        "case {case}: {peer} (distance {distance} > {radius}) accepted an irrelevant update"
                    );
                }
            }
        }
        // Completeness: every strictly-in-range peer got the update.
        for (peer, rect) in map.iter() {
            if peer != owner && rect.distance_to(origin, metric) < radius {
                assert!(
                    delivered_to.contains(&peer),
                    "case {case}: {peer} (distance {}) missed an update at {origin}",
                    rect.distance_to(origin, metric)
                );
            }
        }

        // A radius override, with or without a table of its own.
        let r = rng.uniform(20.0, 250.0);
        if case % 2 == 0 {
            register_radius(&mut servers, &mut coord, owner, r);
        }
        let at = Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0));
        let from = map.owner_of(at).expect("interior");
        let pkt = GamePacket::synthetic(ClientId(1), SpatialTag::at(at).with_radius(r), 64, 0);
        let actions = forward(&mut servers, from, pkt);
        let got = reached(&mut servers, from, actions);
        for peer in consistency_set(&map, at, from, r, metric) {
            assert!(
                got.contains(&peer),
                "case {case}: {peer} missed an update at {at} under radius override {r} \
                 (registered: {})",
                case % 2 == 0
            );
        }

        // A non-proximal event, sent from the origin's owner, lands at
        // `dest`. The sender applied its own event, so it is owed a copy
        // only as the destination's owner.
        let dest = Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0));
        let dest_owner = map.owner_of(dest).expect("interior");
        let pkt = GamePacket::synthetic(ClientId(1), SpatialTag::towards(origin, dest), 64, 0);
        let mut required = consistency_set(&map, dest, dest_owner, radius, metric);
        required.retain(|s| *s != owner);
        required.push(dest_owner);
        let on_directory = forward(&mut servers, owner, pkt.clone());
        let range = map.range_of(owner).unwrap();
        let cfg = MatrixConfig::default();
        let mut blind = MatrixServer::with_range(owner, cfg, range, radius, metric);
        let mut via_coordinator = Vec::new();
        for action in blind.on_game(SimTime::ZERO, GameToMatrix::Forward(pkt)) {
            if let Action::ToCoord(query) = action {
                for CoordAction::Send(_, reply) in coord.handle(SimTime::ZERO, query) {
                    via_coordinator.extend(blind.on_coord(SimTime::ZERO, reply));
                }
            }
        }
        for (path, actions) in [
            ("directory", on_directory),
            ("coordinator", via_coordinator),
        ] {
            let got = reached(&mut servers, owner, actions);
            for s in &required {
                assert!(
                    got.contains(s),
                    "case {case}: {s} missed a non-proximal update from {owner} landing at \
                     {dest} (resolved by the {path})"
                );
            }
        }
    }
}

/// A split hands off exactly the partition geometry: the pieces tile
/// the parent's previous range and the AdoptPartition message matches
/// what the coordinator is told.
#[test]
fn split_reports_consistent_geometry() {
    let mut rng = SimRng::seed_from_u64(0x517);
    for case in 0..CASES {
        let world = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let cfg = MatrixConfig {
            overload_clients: 10,
            overload_streak: 1,
            ..MatrixConfig::default()
        };
        let mut server = MatrixServer::with_range(ServerId(1), cfg, world, 50.0, Metric::Euclidean);
        let n = rng.uniform_u64(0, 50) as usize;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)))
            .collect();
        let report = LoadReport {
            clients: 100,
            queue_backlog: 0.0,
            positions,
            telemetry: None,
        };
        let t = SimTime::from_secs(1);
        let actions = server.on_game(t, GameToMatrix::Load(report));
        assert!(
            matches!(actions.as_slice(), [Action::ToPool(_)]),
            "case {case}"
        );
        let actions = server.on_pool(
            t,
            PoolReply::Grant {
                server: ServerId(2),
                purpose: PoolPurpose::Split,
            },
        );

        let mut adopted: Option<Rect> = None;
        let mut reported: Option<(Rect, Rect)> = None;
        for action in &actions {
            match action {
                Action::ToPeer(_, PeerMsg::AdoptPartition { range, .. }) => adopted = Some(*range),
                Action::ToCoord(CoordMsg::SplitOccurred {
                    parent_range,
                    child_range,
                    ..
                }) => reported = Some((*parent_range, *child_range)),
                _ => {}
            }
        }
        let adopted = adopted.expect("child must be given a range");
        let (parent_range, child_range) = reported.expect("MC must be told");
        assert_eq!(adopted, child_range, "case {case}");
        assert_eq!(server.range(), Some(parent_range), "case {case}");
        assert_eq!(
            parent_range.merges_with(&child_range),
            Some(world),
            "case {case}"
        );
    }
}

/// Random interleavings of overload/underload reports never produce
/// dangling protocol state: at most one pool request is outstanding
/// and reclaim targets are always current children.
#[test]
fn adaptation_state_stays_consistent() {
    let mut rng = SimRng::seed_from_u64(0xADA);
    for case in 0..CASES {
        let world = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let cfg = MatrixConfig {
            cooldown: SimDuration::from_millis(100),
            ..MatrixConfig::default()
        };
        let mut server = MatrixServer::with_range(ServerId(1), cfg, world, 50.0, Metric::Euclidean);
        let mut next_child = 10u32;
        let mut t = SimTime::ZERO;
        let mut outstanding_pool = 0i32;
        let loads: Vec<u32> = (0..rng.uniform_u64(1, 40))
            .map(|_| rng.uniform_u64(0, 500) as u32)
            .collect();
        for clients in loads {
            t += SimDuration::from_millis(500);
            let actions = server.on_game(
                t,
                GameToMatrix::Load(LoadReport {
                    clients,
                    queue_backlog: 0.0,
                    positions: vec![],
                    telemetry: None,
                }),
            );
            for action in actions {
                match action {
                    Action::ToPool(PoolMsg::Acquire { .. }) => {
                        outstanding_pool += 1;
                        assert!(outstanding_pool <= 1, "case {case}: double pool request");
                        // Grant immediately.
                        let grant_actions = server.on_pool(
                            t,
                            PoolReply::Grant {
                                server: ServerId(next_child),
                                purpose: PoolPurpose::Split,
                            },
                        );
                        next_child += 1;
                        outstanding_pool -= 1;
                        // The split must name a child we just granted.
                        let split_or_release = grant_actions.iter().any(|a| {
                            matches!(
                                a,
                                Action::ToPeer(_, PeerMsg::AdoptPartition { .. })
                                    | Action::ToPool(PoolMsg::Release { .. })
                            )
                        });
                        assert!(split_or_release, "case {case}: grant must split or release");
                    }
                    Action::ToPeer(child, PeerMsg::ReclaimRequest { .. }) => {
                        assert!(
                            server.children().contains(&child),
                            "case {case}: reclaim request to a non-child {child}"
                        );
                        // Deny to keep the topology simple.
                        server.on_peer(t, child, PeerMsg::ReclaimDeny { child });
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Checks one step's coordinator output against the directory it left:
/// the directory is a valid tiling, every push of the current epoch is
/// the directory plus its overlap table for each registered radius (the
/// game's first), and every server in it holds such a push. Records the
/// latest push per server in `last_push`.
fn check_pushes(
    coord: &Coordinator,
    radii: &[f64],
    metric: Metric,
    replies: &[CoordAction],
    last_push: &mut BTreeMap<ServerId, CoordReply>,
    ctx: &str,
) {
    let map = coord.map().expect("the world is registered");
    map.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let overlaps: Vec<_> = radii
        .iter()
        .map(|&r| build_overlap(map, r, metric))
        .collect();
    for CoordAction::Send(to, reply) in replies {
        let CoordReply::Tables {
            epoch,
            tables,
            map: pushed,
        } = reply
        else {
            continue;
        };
        last_push.insert(*to, reply.clone());
        if *epoch != coord.epoch() {
            continue; // an earlier recompute of a sweep with several deaths
        }
        assert_eq!(pushed, map, "{ctx}: the push to {to} carries another map");
        let bits: Vec<u64> = tables.iter().map(|(b, _)| *b).collect();
        let want: Vec<u64> = radii.iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, want, "{ctx}: the push to {to} has the wrong radii");
        for ((_, table), overlap) in tables.iter().zip(&overlaps) {
            assert_eq!(
                Some(table),
                overlap.table_for(*to),
                "{ctx}: {to}'s table at radius {} is not the directory's",
                overlap.radius()
            );
        }
    }
    for server in map.servers() {
        let holds_current = matches!(
            last_push.get(&server),
            Some(CoordReply::Tables { epoch, .. }) if *epoch == coord.epoch()
        );
        assert!(holds_current, "{ctx}: {server} holds no current push");
    }
}

/// Random sequences of reported splits (cut by a `SplitStrategy`),
/// reclaims, orphaned ranges, missed heartbeats (with no standby, a live
/// standby, or a standby dead alongside its primary) and extra radii,
/// plus a share of reports the directory cannot match, keep the
/// coordinator's directory valid and its pushes equal to the directory's
/// overlap tables. Only the unmatched reports count as divergences, and a
/// stale-epoch heartbeat gets back exactly the push the last recompute
/// sent that server.
#[test]
fn coordinator_directory_stays_valid_and_pushes_match_it() {
    let mut rng = SimRng::seed_from_u64(0xD1C7);
    let strategies = [
        SplitStrategy::SplitToLeft,
        SplitStrategy::LongestAxis,
        SplitStrategy::LoadAwareMedian,
    ];
    for case in 0..CASES {
        let metric = [Metric::Euclidean, Metric::Chebyshev][case % 2];
        let cfg = CoordinatorConfig::default();
        let timeout = cfg.heartbeat_timeout;
        let mut coord = Coordinator::new(cfg);
        let world = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let mut radii = vec![rng.uniform(20.0, 250.0)];
        let mut last_push = BTreeMap::new();
        let mut next_id = 2u32;
        let mut now = SimTime::ZERO;
        let replies = coord.handle(
            now,
            CoordMsg::RegisterWorld {
                server: ServerId(1),
                world,
                radius: radii[0],
                metric,
            },
        );
        check_pushes(&coord, &radii, metric, &replies, &mut last_push, "register");

        for step in 0..rng.uniform_u64(10, 40) {
            let ctx = format!("case {case} step {step}");
            now += SimDuration::from_secs(1);
            let map = coord.map().unwrap().clone();
            let servers = map.servers();
            let pick =
                |rng: &mut SimRng| servers[rng.uniform_u64(0, servers.len() as u64) as usize];
            // One report in six (and a reclaim with no mergeable
            // neighbour) is one the directory cannot match.
            let mut corrupt = rng.uniform_u64(0, 6) == 0;
            let divergences = coord.stats().divergences;
            let replies = match rng.uniform_u64(0, 6) {
                0 | 1 if map.len() < 12 => {
                    let parent = pick(&mut rng);
                    let range = map.range_of(parent).unwrap();
                    let clients: Vec<Point> = (0..rng.uniform_u64(0, 8))
                        .map(|_| {
                            Point::new(
                                rng.uniform(range.min().x, range.max().x),
                                rng.uniform(range.min().y, range.max().y),
                            )
                        })
                        .collect();
                    let strategy = strategies[rng.uniform_u64(0, 3) as usize];
                    let (given, kept) = strategy.split(&range, &clients).expect("splittable");
                    let mut child = ServerId(next_id);
                    next_id += 1;
                    let mut child_range = given;
                    if corrupt {
                        // Either a child the directory already lists, or
                        // pieces that do not tile the parent's range.
                        if rng.uniform_u64(0, 2) == 0 {
                            child = parent;
                        } else {
                            child_range = kept;
                        }
                    }
                    coord.handle(
                        now,
                        CoordMsg::SplitOccurred {
                            parent,
                            child,
                            parent_range: kept,
                            child_range,
                        },
                    )
                }
                0..=2 => {
                    let child = pick(&mut rng);
                    let neighbours = map.mergeable_neighbours(child);
                    corrupt |= neighbours.is_empty();
                    if corrupt {
                        // A reclaim of a child the directory never saw.
                        let parent = pick(&mut rng);
                        let unknown = ServerId(next_id);
                        next_id += 1;
                        coord.handle(
                            now,
                            CoordMsg::ReclaimOccurred {
                                parent,
                                child: unknown,
                                merged_range: map.range_of(parent).unwrap(),
                            },
                        )
                    } else {
                        let parent =
                            neighbours[rng.uniform_u64(0, neighbours.len() as u64) as usize];
                        let merged = map
                            .range_of(parent)
                            .unwrap()
                            .merges_with(&map.range_of(child).unwrap());
                        coord.handle(
                            now,
                            CoordMsg::ReclaimOccurred {
                                parent,
                                child,
                                merged_range: merged.unwrap(),
                            },
                        )
                    }
                }
                3 => {
                    corrupt = false;
                    let child = pick(&mut rng);
                    coord.handle(
                        now,
                        CoordMsg::OrphanRange {
                            parent: pick(&mut rng),
                            child,
                            range: map.range_of(child).unwrap(),
                        },
                    )
                }
                4 => {
                    // 0: no standby; 1: a live standby; 2: the standby
                    // dies with its primary.
                    corrupt = false;
                    let victim = pick(&mut rng);
                    let standby_mode = rng.uniform_u64(0, 3);
                    let mut silent = vec![victim];
                    if standby_mode > 0 {
                        let standby = ServerId(next_id);
                        next_id += 1;
                        coord.handle(
                            now,
                            CoordMsg::StandbyAssigned {
                                primary: victim,
                                standby,
                            },
                        );
                        if standby_mode == 2 {
                            silent.push(standby);
                        }
                    }
                    now += timeout + SimDuration::from_secs(1);
                    for id in (1..next_id).map(ServerId).filter(|s| !silent.contains(s)) {
                        let keep_alive = CoordMsg::Heartbeat {
                            server: id,
                            epoch: coord.epoch(),
                            telemetry: None,
                        };
                        assert!(coord.handle(now, keep_alive).is_empty(), "{ctx}");
                    }
                    coord.check_liveness(now)
                }
                _ if radii.len() < 3 => {
                    corrupt = false;
                    let radius = rng.uniform(20.0, 250.0);
                    radii.push(radius);
                    coord.handle(
                        now,
                        CoordMsg::RegisterRadius {
                            server: pick(&mut rng),
                            radius,
                        },
                    )
                }
                _ => {
                    corrupt = false;
                    Vec::new()
                }
            };
            check_pushes(&coord, &radii, metric, &replies, &mut last_push, &ctx);
            let diverged = coord.stats().divergences > divergences;
            assert_eq!(diverged, corrupt, "{ctx}: divergence miscounted");

            for server in coord.map().unwrap().servers() {
                let stale = CoordMsg::Heartbeat {
                    server,
                    epoch: 0,
                    telemetry: None,
                };
                assert_eq!(
                    coord.handle(now, stale),
                    vec![CoordAction::Send(server, last_push[&server].clone())],
                    "{ctx}: a stale-epoch heartbeat from {server} got another push"
                );
            }
        }
    }
}
