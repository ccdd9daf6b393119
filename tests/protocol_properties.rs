//! Property-based tests of the middleware protocol: routing correctness
//! (Equation 1 end to end) and adaptation-protocol safety over random
//! topologies and packet streams.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! property-testing framework, keeping the build offline-friendly.

use matrix_middleware::core::{
    Action, ClientId, CoordMsg, CoordReply, GamePacket, GameToMatrix, LoadReport, MatrixConfig,
    MatrixServer, PeerMsg, PoolMsg, PoolPurpose, PoolReply, SpatialTag,
};
use matrix_middleware::geometry::{
    build_overlap, Metric, PartitionMap, Point, Rect, ServerId, SplitStrategy,
};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

const CASES: usize = 48;

/// Builds a live fleet: every server holds a partition and the matching
/// coordinator tables.
fn fleet(
    script: &[(u8, u8)],
    radius: f64,
    metric: Metric,
) -> (PartitionMap, BTreeMap<ServerId, MatrixServer>) {
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
    let overlap = build_overlap(&map, radius, metric);
    let mut servers = BTreeMap::new();
    for (id, rect) in map.iter() {
        let cfg = MatrixConfig::default();
        let mut server = MatrixServer::with_range(id, cfg, rect, radius, metric);
        server.on_coord(
            SimTime::ZERO,
            CoordReply::Tables {
                epoch: 1,
                table: overlap.table_for(id).unwrap().clone(),
                extra_tables: vec![],
                map: map.clone(),
            },
        );
        servers.insert(id, server);
    }
    (map, servers)
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
/// as relevant.
#[test]
fn updates_reach_every_required_server() {
    let mut rng = SimRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let metric = Metric::Euclidean;
        let script = split_script(&mut rng, 10, 2);
        let radius = rng.uniform(20.0, 250.0);
        let (map, mut servers) = fleet(&script, radius, metric);
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
