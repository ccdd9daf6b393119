//! Replication-layer property suites.
//!
//! **Failover equivalence**: for any randomly driven primary, a fresh
//! standby fed the primary's own `ReplicaBatch` and then promoted (the
//! path production runs: `MatrixToGame::ReplicaBatch` → `Promote`) holds
//! the primary's client set, positions, range, readiness, tuner state
//! and prediction bases; two such standbys produce identical action
//! lists for an identical future event stream; and every client's post-promotion stream opens
//! with a keyframe and decodes with no missing base onto the wire
//! lattice. Delta bases, queued updates and the flush clock are *not*
//! replicated: a promoted node starts with no stream and no queue.
//!
//! **Op-maintained convergence**: a standby fed the primary's replica
//! stream (one full snapshot, then incremental ops, with the log's
//! interval/lag/ack machinery in the loop) must hold the primary's
//! session state whenever the stream is drained.
//!
//! The companion *failover regression* — a killed node's clients keep
//! receiving updates with zero reconnects — lives next to the harness
//! it drives (`matrix-experiments`, `harness::tests::
//! failover_keeps_clients_connected_without_reconnects`) and in the rt
//! suite (`rt_cluster::killed_node_fails_over_to_its_warm_standby`).
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible).

use matrix_middleware::core::{
    ClientId, ClientSession, ClientToGame, GameAction, GameServerConfig, GameServerNode,
    GameToClient, GameToMatrix, MatrixToGame, ReplicaBatch, ReplicaOp,
};
use matrix_middleware::geometry::{Point, Rect, ServerId};
use matrix_middleware::replication::{ReplicaLog, ReplicaReceiver};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
}

fn node(id: u32) -> GameServerNode {
    let mut g = GameServerNode::new(ServerId(id), GameServerConfig::default()).with_fanout();
    g.register(world(), 80.0);
    g
}

/// The failover suites' node config: odd cases run rings, dead
/// reckoning and the grid auto-tuner, so the snapshot's tuner state and
/// prediction bases are exercised, not just carried empty.
fn failover_cfg(case: usize) -> GameServerConfig {
    let mut cfg = GameServerConfig::default();
    if case % 2 == 1 {
        cfg.predict = true;
        cfg.grid_autotune = true;
        cfg.set_rings(&[40.0, 80.0], &[1, 2]);
        cfg.set_error_budgets(&[0.0, 2.0]);
    }
    cfg
}

fn random_pos(rng: &mut SimRng) -> Point {
    // Interior positions only: the equivalence drive must not trip the
    // roaming path, whose in-flight `resolving` flag is deliberately
    // not part of a snapshot (an owner query is re-asked after promotion).
    Point::new(rng.uniform(50.0, 950.0), rng.uniform(50.0, 950.0))
}

/// One random client event applied to a node, returning the actions.
fn random_event(
    g: &mut GameServerNode,
    rng: &mut SimRng,
    now: SimTime,
    population: &mut Vec<u64>,
    next_id: &mut u64,
) -> Vec<GameAction> {
    let roll = rng.uniform_u64(0, 100);
    if population.is_empty() || roll < 20 {
        let id = *next_id;
        *next_id += 1;
        population.push(id);
        g.on_client(
            now,
            ClientId(id),
            ClientToGame::Join {
                pos: random_pos(rng),
                state_bytes: rng.uniform_u64(0, 4096),
            },
        )
    } else if roll < 30 && population.len() > 1 {
        let idx = rng.uniform_u64(0, population.len() as u64) as usize;
        let id = population.swap_remove(idx);
        g.on_client(now, ClientId(id), ClientToGame::Leave)
    } else {
        let idx = rng.uniform_u64(0, population.len() as u64) as usize;
        let id = population[idx];
        let pos = random_pos(rng);
        if rng.chance(0.5) {
            g.on_client(now, ClientId(id), ClientToGame::Move { pos })
        } else {
            g.on_client(
                now,
                ClientId(id),
                ClientToGame::Action {
                    pos,
                    payload_bytes: rng.uniform_u64(0, 256) as usize,
                },
            )
        }
    }
}

/// Drives a node through a random history of joins/moves/actions/leaves
/// with interleaved flushes, leaving some updates pending.
fn random_drive(g: &mut GameServerNode, rng: &mut SimRng, steps: u32) -> Vec<u64> {
    let mut population = Vec::new();
    let mut next_id = 1u64;
    let mut now = SimTime::ZERO;
    for _ in 0..steps {
        now += SimDuration::from_millis(rng.uniform_u64(1, 40));
        random_event(g, rng, now, &mut population, &mut next_id);
        if rng.chance(0.3) {
            g.on_tick(now, 0.0);
        }
    }
    population
}

/// Pairs the primary with a standby and returns the full-snapshot
/// batch its next tick ships — the bytes-to-be a real standby is fed.
fn ship_full_snapshot(primary: &mut GameServerNode) -> ReplicaBatch {
    let now = SimTime::from_secs(50);
    primary.on_matrix(
        now,
        MatrixToGame::SetStandby {
            standby: ServerId(9),
        },
    );
    let batch = primary
        .on_tick(now, 0.0)
        .into_iter()
        .find_map(|a| match a {
            GameAction::ToMatrix(GameToMatrix::Replica { batch, .. }) => Some(*batch),
            _ => None,
        })
        .expect("a fresh pairing ships on the next tick");
    assert!(batch.is_full());
    batch
}

/// A fresh standby applies `batch` and is promoted.
fn promoted_standby(cfg: GameServerConfig, batch: ReplicaBatch) -> GameServerNode {
    let mut standby = GameServerNode::new(ServerId(9), cfg).with_fanout();
    let now = SimTime::from_secs(100);
    standby.on_matrix(
        now,
        MatrixToGame::ReplicaBatch {
            from: ServerId(1),
            batch: Box::new(batch),
        },
    );
    let switched = standby.on_matrix(
        now,
        MatrixToGame::Promote {
            range: world(),
            radius: 80.0,
        },
    );
    assert_eq!(switched.len(), standby.client_count(), "one switch each");
    standby
}

/// The guarantee failover gives: both promoted standbys hold the
/// primary's replicated state, answer the same future script with
/// identical actions, and every client decodes its post-promotion
/// stream from nothing. Returns how many batches were decoded.
fn assert_failover_guarantee(
    primary: &GameServerNode,
    a: &mut GameServerNode,
    b: &mut GameServerNode,
    population: &mut Vec<u64>,
    case: usize,
) -> usize {
    for standby in [&*a, &*b] {
        // Everything a snapshot carries: client set, positions, range,
        // readiness, tuned `cells_per_axis`, prediction bases.
        assert_eq!(standby.snapshot(), primary.snapshot(), "case {case}");
        assert_eq!(
            standby.prediction_receivers(),
            primary.prediction_receivers(),
            "case {case}: prediction receivers"
        );
        assert_eq!(standby.delta_streams(), 0, "case {case}: no stream yet");
    }
    // Each client's receiver side, fresh after the switch: nothing
    // survives it, so a stream that does not open with a keyframe
    // cannot be decoded.
    let mut sessions: BTreeMap<ClientId, ClientSession> = BTreeMap::new();
    let mut decoded = 0;
    let mut decode = |actions: &[GameAction], at: &str| {
        for action in actions {
            let GameAction::ToClient(client, msg @ GameToClient::UpdateBatch { .. }) = action
            else {
                continue;
            };
            let session = sessions
                .entry(*client)
                .or_insert_with(|| ClientSession::new(ServerId(9)));
            let items = session.apply(SimTime::from_secs(200), msg, &mut Vec::new());
            assert!(
                !items.is_empty(),
                "case {case} {at}: {client:?} lacks a base"
            );
            for u in items {
                let on_lattice = |v: f64| (v * 256.0).fract() == 0.0;
                assert!(on_lattice(u.origin.x) && on_lattice(u.origin.y), "{u:?}");
            }
            decoded += 1;
        }
    };
    let mut next_id = 100_000;
    for step in 0..40 {
        let now = SimTime::from_secs(101) + SimDuration::from_millis(step * 37);
        let mut rng_a = SimRng::seed_from_u64(case as u64 * 1000 + step);
        let mut rng_b = SimRng::seed_from_u64(case as u64 * 1000 + step);
        let id_before = next_id;
        let mut pop_b = population.clone();
        let acts_a = random_event(a, &mut rng_a, now, population, &mut next_id);
        let mut next_id_b = id_before;
        let acts_b = random_event(b, &mut rng_b, now, &mut pop_b, &mut next_id_b);
        assert_eq!(acts_a, acts_b, "case {case} step {step}: diverging actions");
        assert_eq!(next_id, next_id_b, "case {case} step {step}: id drift");
        *population = pop_b;
        decode(&acts_a, &format!("step {step}"));
    }
    let flush_a = a.flush_updates(SimTime::from_secs(200));
    let flush_b = b.flush_updates(SimTime::from_secs(200));
    assert_eq!(flush_a, flush_b, "case {case}: final flush");
    decode(&flush_a, "final flush");
    assert_eq!(a.stats(), b.stats(), "case {case}: stats");
    decoded
}

#[test]
fn restore_of_snapshot_is_observably_equivalent() {
    let mut rng = SimRng::seed_from_u64(0xFA11_0E57);
    let mut decoded = 0;
    for case in 0..25 {
        let mut g = GameServerNode::new(ServerId(1), failover_cfg(case)).with_fanout();
        g.register(world(), 80.0);
        let mut population = random_drive(&mut g, &mut rng, 120);
        let batch = ship_full_snapshot(&mut g);
        let mut a = promoted_standby(failover_cfg(case), batch.clone());
        let mut b = promoted_standby(failover_cfg(case), batch);
        decoded += assert_failover_guarantee(&g, &mut a, &mut b, &mut population, case);
    }
    assert!(decoded > 100, "the drive must deliver batches: {decoded}");
}

#[test]
fn op_maintained_standby_converges_on_the_primary() {
    let mut rng = SimRng::seed_from_u64(0x5EA_F00D);
    for case in 0..25 {
        let mut g = node(1);
        let mut log: ReplicaLog<ClientId> =
            ReplicaLog::new(SimDuration::from_millis(200), rng.uniform_u64(0, 16) as u32);
        let mut receiver: ReplicaReceiver<ClientId> = ReplicaReceiver::new();
        let mut population = Vec::new();
        let mut next_id = 1u64;
        let mut now = SimTime::ZERO;
        for _ in 0..150 {
            now += SimDuration::from_millis(rng.uniform_u64(1, 60));
            // Mirror the node's own op recording: session events only.
            let before: Vec<u64> = g.client_ids().iter().map(|c| c.0).collect();
            random_event(&mut g, &mut rng, now, &mut population, &mut next_id);
            let after: Vec<u64> = g.client_ids().iter().map(|c| c.0).collect();
            for id in after.iter().filter(|id| !before.contains(id)) {
                log.record(ReplicaOp::Join {
                    client: ClientId(*id),
                    pos: position_of(&g, ClientId(*id)),
                    state_bytes: 0,
                });
            }
            for id in before.iter().filter(|id| !after.contains(id)) {
                log.record(ReplicaOp::Leave {
                    client: ClientId(*id),
                });
            }
            for id in after.iter().filter(|id| before.contains(id)) {
                log.record(ReplicaOp::Move {
                    client: ClientId(*id),
                    pos: position_of(&g, ClientId(*id)),
                });
            }
            // Ship on the log's own schedule, acks looped straight back.
            if log.due(now) {
                let batch = if log.needs_full() {
                    Some(log.ship_full(now, g.snapshot()))
                } else {
                    log.ship_ops(now)
                };
                if let Some(batch) = batch {
                    let ack = receiver.apply(batch);
                    log.ack(ack.seq, ack.resync);
                }
            }
        }
        // Drain the stream, then the standby must hold the primary's
        // session state exactly.
        now += SimDuration::from_secs(10);
        let batch = if log.needs_full() {
            Some(log.ship_full(now, g.snapshot()))
        } else {
            log.ship_ops(now)
        };
        if let Some(batch) = batch {
            let ack = receiver.apply(batch);
            log.ack(ack.seq, ack.resync);
        }
        let mirrored = receiver.snapshot().expect("warm after a full snapshot");
        let truth = g.snapshot();
        // The mirror carries every session at its current position (the
        // manual op feed above does not know join-time state sizes, so
        // only identity and position are compared; the real primary
        // records full Join ops).
        let mirror_sessions: Vec<(ClientId, Point)> =
            mirrored.clients.iter().map(|(c, s)| (*c, s.pos)).collect();
        let truth_sessions: Vec<(ClientId, Point)> =
            truth.clients.iter().map(|(c, s)| (*c, s.pos)).collect();
        assert_eq!(
            mirror_sessions, truth_sessions,
            "case {case}: standby session state diverged"
        );
    }
}

fn position_of(g: &GameServerNode, id: ClientId) -> Point {
    let ids = g.client_ids();
    let positions = g.client_positions();
    ids.iter()
        .position(|c| *c == id)
        .map(|i| positions[i])
        .expect("client present")
}
