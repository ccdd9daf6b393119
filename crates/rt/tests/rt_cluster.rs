//! End-to-end tests of the tokio runtime: the same middleware protocol
//! exercised over real async tasks, channels and sockets.

use matrix_core::{ClientToGame, GameToClient, Lifecycle, MatrixConfig};
use matrix_geometry::Point;
use matrix_rt::{wire, RtCluster, RtConfig};
use matrix_sim::SimDuration;
use std::time::Duration;

fn fast_config() -> RtConfig {
    let mut cfg = RtConfig {
        matrix: MatrixConfig {
            overload_clients: 10,
            underload_clients: 4,
            overload_streak: 2,
            underload_streak: 2,
            cooldown: SimDuration::from_millis(200),
            ..MatrixConfig::default()
        },
        ..RtConfig::default()
    };
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.report_every_ticks = 2;
    cfg
}

#[tokio::test]
async fn join_is_acknowledged() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let msg = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .expect("join must be answered")
        .expect("channel open");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn action_is_acked() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let _joined = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .unwrap();
    client.action(64);
    let msg = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .expect("ack must arrive")
        .expect("channel open");
    assert!(matches!(msg, GameToClient::Ack { .. }), "{msg:?}");
    assert_eq!(client.counters().acks, 1);
    cluster.shutdown().await;
}

#[tokio::test]
async fn nearby_clients_see_each_other() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();

    alice.action(64);
    // Bob is within the 100-unit radius: he must receive the event in
    // an update batch on the next flush.
    let msg = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .expect("update must reach nearby client")
        .expect("channel open");
    match &msg {
        GameToClient::UpdateBatch { updates } => {
            assert_eq!(updates.len(), 1, "{msg:?}");
            let first = updates.items().next().expect("one item");
            assert_eq!(first.payload_bytes, 64);
            assert!(
                first.origin.is_keyframe(),
                "first item of a fresh stream is absolute"
            );
        }
        other => panic!("expected UpdateBatch, got {other:?}"),
    }
    assert_eq!(bob.counters().batches, 1);
    assert_eq!(bob.counters().updates, 1);
    assert_eq!(
        bob.last_update_origin(),
        Some(Point::new(100.0, 100.0)),
        "client reconstructs the event origin"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn distant_clients_are_not_updated() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(700.0, 700.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();

    alice.action(64);
    tokio::time::sleep(Duration::from_millis(200)).await;
    let extra = bob.drain();
    assert!(
        !extra.iter().any(|m| matches!(
            m,
            GameToClient::Update { .. } | GameToClient::UpdateBatch { .. }
        )),
        "700 units away is outside the radius of visibility: {extra:?}"
    );
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn overload_splits_the_cluster_live() {
    let cluster = RtCluster::start(fast_config()).await;
    assert_eq!(cluster.active_servers().await, 1);

    // 30 clients >> the 10-client overload threshold.
    let mut clients = Vec::new();
    for i in 0..30 {
        let x = 50.0 + (i as f64 * 23.0) % 700.0;
        let y = 50.0 + (i as f64 * 37.0) % 700.0;
        clients.push(cluster.client(Point::new(x, y)));
    }
    // Let load reports, the pool round-trip and the split protocol run.
    let mut active = 1;
    for _ in 0..50 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        active = cluster.active_servers().await;
        if active >= 2 {
            break;
        }
    }
    assert!(
        active >= 2,
        "the overloaded server must split, got {active}"
    );

    // Every client must still be able to play (possibly after a switch).
    for client in clients.iter_mut() {
        client.drain();
        client.action(32);
    }
    tokio::time::sleep(Duration::from_millis(300)).await;
    let mut acked = 0;
    for c in clients.iter_mut() {
        c.drain();
        if c.counters().acks >= 1 {
            acked += 1;
        }
    }
    assert!(
        acked >= 25,
        "most clients keep playing across the split: {acked}/30"
    );
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn flush_loses_and_duplicates_nothing_under_churn() {
    // A node is hammered with joins, moves, actions and leaves for many
    // ticks on a multi-threaded runtime. Every action carries a unique
    // payload size, so per-receiver delivery is exactly countable: each
    // observer must see each action exactly once — a lost batch shows
    // up as a missing payload, a duplicated batch as a repeated one.
    // The final actions are still queued when the cluster stops, so
    // `shutdown_flush` itself must deliver what the batcher holds.
    let mut cfg = RtConfig::default();
    cfg.game.tick = SimDuration::from_millis(20);
    // Unlimited per-flush budgets: rate limiting would merge or defer
    // items and break exact accounting.
    cfg.game.max_updates_per_flush = 0;
    cfg.game.client_budget_bytes = 0;
    let cluster = RtCluster::start(cfg).await;

    // A mutually visible crowd: everyone within the 100-unit radius.
    const CORE: usize = 12;
    let mut clients = Vec::new();
    for i in 0..CORE {
        let angle = i as f64 / CORE as f64 * std::f64::consts::TAU;
        let pos = Point::new(200.0 + 30.0 * angle.cos(), 200.0 + 30.0 * angle.sin());
        clients.push(cluster.client(pos));
    }
    for c in clients.iter_mut() {
        let msg = tokio::time::timeout(Duration::from_secs(2), c.recv())
            .await
            .expect("join must be answered")
            .expect("channel open");
        assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    }

    // Hammer: every round everyone jitters, every third client fires a
    // uniquely sized action, and churn clients join/move/leave
    // between flushes.
    let mut sent_by: Vec<Vec<usize>> = vec![Vec::new(); CORE];
    let mut next_payload = 300usize;
    for round in 0..30u64 {
        for (i, c) in clients.iter_mut().enumerate() {
            let jitter = ((round + i as u64) % 5) as f64 - 2.0;
            let p = c.pos();
            c.move_to(Point::new(p.x + jitter, p.y - jitter));
            if (i as u64 + round) % 3 == 0 {
                c.action(next_payload);
                sent_by[i].push(next_payload);
                next_payload += 1;
            }
        }
        if round % 3 == 0 {
            // Churn rider: joins inside the crowd, moves, leaves. Its
            // own deliveries are not asserted — it exists to interleave
            // subscribe/unsubscribe with the flushes.
            let mut rider = cluster.client(Point::new(210.0, 190.0));
            let _ = tokio::time::timeout(Duration::from_secs(2), rider.recv()).await;
            rider.move_to(Point::new(195.0, 205.0));
            rider.leave();
        }
        tokio::time::sleep(Duration::from_millis(5)).await;
    }
    // Let the last scheduled flushes drain, then stop the cluster: the
    // shutdown flush delivers whatever the batcher still holds.
    tokio::time::sleep(Duration::from_millis(300)).await;
    cluster.shutdown().await;
    tokio::time::sleep(Duration::from_millis(100)).await;

    let all_payloads: Vec<usize> = sent_by.iter().flatten().copied().collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let msgs = c.drain();
        assert_eq!(
            c.counters().acks,
            sent_by[i].len() as u64,
            "client {i}: every action is acked exactly once"
        );
        // Count how often each action payload reached this observer
        // (move updates carry payload 0, so they never collide with
        // the 300+ action payloads).
        let mut seen: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for m in &msgs {
            if let GameToClient::UpdateBatch { updates } = m {
                for u in updates.items() {
                    if u.payload_bytes >= 300 {
                        *seen.entry(u.payload_bytes).or_default() += 1;
                    }
                }
            }
        }
        for &p in &all_payloads {
            let expected = if sent_by[i].contains(&p) { 0 } else { 1 };
            assert_eq!(
                seen.get(&p).copied().unwrap_or(0),
                expected,
                "client {i}, action payload {p}: lost or duplicated"
            );
        }
    }
}

#[tokio::test]
async fn snapshots_expose_topology() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let snaps = cluster.snapshots().await;
    let active: Vec<_> = snaps
        .iter()
        .filter(|s| s.lifecycle == Lifecycle::Active)
        .collect();
    assert_eq!(active.len(), 1);
    assert!(active[0].range.is_some());
    let idle = snaps
        .iter()
        .filter(|s| s.lifecycle == Lifecycle::Idle)
        .count();
    assert_eq!(idle, RtConfig::default().pool_size as usize);
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn killed_node_fails_over_to_its_warm_standby() {
    // Tight timings so detection + promotion complete in test time.
    let mut cfg = RtConfig::default();
    cfg.matrix.standby_replication = true;
    cfg.matrix.heartbeat_every = SimDuration::from_millis(100);
    cfg.coordinator.heartbeat_timeout = SimDuration::from_millis(500);
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.replica_interval = SimDuration::from_millis(100);
    let cluster = RtCluster::start(cfg).await;

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();
    // Let the standby pairing and at least one replica snapshot ship.
    tokio::time::sleep(Duration::from_millis(400)).await;

    // Kill the bootstrap node mid-game: no flush, no goodbye.
    cluster.crash(cluster.bootstrap_id());

    // The coordinator's sweep declares it dead and promotes the warm
    // standby; both clients are re-pointed without reconnecting their
    // channel. Wait for the promoted server to become active again.
    let mut promoted = None;
    for _ in 0..40 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        let snaps = cluster.snapshots().await;
        if let Some(s) = snaps
            .iter()
            .find(|s| s.lifecycle == Lifecycle::Active && s.game_stats.promotions > 0)
        {
            promoted = Some(s.id);
            break;
        }
    }
    let promoted = promoted.expect("a standby must promote");
    assert_ne!(promoted, cluster.bootstrap_id());

    // Drain the switch notifications, then keep playing: an action from
    // alice must still reach bob through the promoted server.
    tokio::time::sleep(Duration::from_millis(200)).await;
    alice.drain();
    bob.drain();
    assert_eq!(alice.server(), promoted, "client re-pointed, not dropped");
    let batches_before = bob.counters().batches;
    alice.action(64);
    let mut got_update = false;
    for _ in 0..20 {
        tokio::time::sleep(Duration::from_millis(50)).await;
        bob.drain();
        if bob.counters().batches > batches_before {
            got_update = true;
            break;
        }
    }
    assert!(got_update, "updates keep flowing after the failover");
    // The promoted node restored the sessions from the replica.
    let snaps = cluster.snapshots().await;
    let node = snaps.iter().find(|s| s.id == promoted).unwrap();
    assert!(node.game_stats.clients_restored >= 2, "{node:?}");
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn gateway_client_resumes_at_its_real_position_after_failover() {
    // A TCP client plays at (100, 100) through the gateway. When its
    // server dies and the warm standby promotes, the gateway performs
    // the transparent re-join on the client's behalf — carrying the
    // client's *real* position, as RtClient does. Were it to re-join at
    // the origin (the old behaviour), the restored session would be
    // yanked across the map and the client would stop seeing events
    // near its actual position until its next upload.
    let mut cfg = RtConfig::default();
    cfg.matrix.standby_replication = true;
    cfg.matrix.heartbeat_every = SimDuration::from_millis(100);
    cfg.coordinator.heartbeat_timeout = SimDuration::from_millis(500);
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.replica_interval = SimDuration::from_millis(100);
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(100.0, 100.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    // A nearby in-process client whose actions the remote one observes.
    let mut alice = cluster.client(Point::new(110.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    // Let the standby pairing and at least one replica snapshot ship.
    tokio::time::sleep(Duration::from_millis(400)).await;

    cluster.crash(cluster.bootstrap_id());

    // Wait for the promotion, draining the remote client's inbox (it
    // sees Joined/SwitchServer relays along the way).
    let mut promoted = None;
    for _ in 0..40 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        let snaps = cluster.snapshots().await;
        if let Some(s) = snaps
            .iter()
            .find(|s| s.lifecycle == Lifecycle::Active && s.game_stats.promotions > 0)
        {
            promoted = Some(s.id);
            break;
        }
    }
    assert!(promoted.is_some(), "a standby must promote");
    tokio::time::sleep(Duration::from_millis(300)).await;

    // The remote client — without uploading anything since the crash —
    // must observe alice's action: its restored session is still at
    // (100, 100), inside the 100-unit radius of alice.
    alice.drain();
    alice.action(64);
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    let mut saw_update = false;
    while std::time::Instant::now() < deadline {
        match tokio::time::timeout(Duration::from_millis(500), remote.recv()).await {
            Ok(Ok(GameToClient::UpdateBatch { .. })) => {
                saw_update = true;
                break;
            }
            Ok(Ok(_)) => {}
            _ => break,
        }
    }
    assert!(
        saw_update,
        "the re-joined session must stay at the client's real position \
         and keep receiving nearby events"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn tcp_gateway_round_trip() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(50.0, 50.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply within deadline")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    remote
        .send(&ClientToGame::Action {
            pos: Point::new(50.0, 50.0),
            payload_bytes: 32,
        })
        .await
        .expect("send action");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("ack within deadline")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Ack { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn tcp_ack_is_not_nagle_bound() {
    // A 20 Hz client stream — move, move, move, action — whose small
    // writes must each leave at once. With Nagle on, a write waits for
    // the ACK of the one before it, and a gateway socket that also
    // carries batches the other way delays its ACKs (the kernel expects
    // to piggyback them): the action→Ack round trip then reads tens of
    // milliseconds where the path itself takes a fraction of one.
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");
    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    let pos = Point::new(50.0, 50.0);
    remote
        .send(&ClientToGame::Join {
            pos,
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply within deadline")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    // A neighbour in view, acting all along: the batches every game
    // client receives, which is what makes the kernel delay its ACKs.
    let mut neighbour = cluster.client(Point::new(55.0, 50.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), neighbour.recv())
        .await
        .expect("neighbour joined");
    let acting = tokio::spawn(async move {
        for _ in 0..70 {
            neighbour.action(64);
            tokio::time::sleep(Duration::from_millis(30)).await;
        }
    });

    let start = std::time::Instant::now();
    let mut ack_times = Vec::new();
    for op in 0u32.. {
        let due = Duration::from_millis(19) * op;
        if due > Duration::from_secs(2) {
            break;
        }
        tokio::time::sleep(due.saturating_sub(start.elapsed())).await;
        if op % 4 != 3 {
            remote
                .send(&ClientToGame::Move { pos })
                .await
                .expect("send move");
            continue;
        }
        let sent = std::time::Instant::now();
        remote
            .send(&ClientToGame::Action {
                pos,
                payload_bytes: 64,
            })
            .await
            .expect("send action");
        loop {
            let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
                .await
                .expect("ack within deadline")
                .expect("valid frame");
            if matches!(msg, GameToClient::Ack { .. }) {
                break;
            }
        }
        ack_times.push(sent.elapsed());
    }
    ack_times.sort();
    let median = ack_times[ack_times.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median action→Ack {median:?} over {} actions: {ack_times:?}",
        ack_times.len()
    );
    acting.await.expect("neighbour task");
    cluster.shutdown().await;
}

#[tokio::test]
async fn ring_tagged_updates_cross_the_real_wire() {
    // Multi-ring AOI over the TCP gateway: a mid-ring observer's frames
    // carry the ring tag (`[x,y,bytes,entity,ring]`), and the in-process
    // client's counters attribute them as far items.
    let mut cfg = RtConfig::default();
    // Rings over the 100-unit vision radius: near 35, mid 65, far 100.
    cfg.game.set_rings(&[35.0, 65.0, 100.0], &[1, 2, 4]);
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    // Remote observer ~50 units from the actor: the mid ring (rate 2).
    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(150.0, 100.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    // Rate 2 on the mid ring: of two actions, exactly one ships.
    alice.action(64);
    alice.action(64);
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("update within deadline")
        .expect("valid frame");
    let GameToClient::UpdateBatch { updates } = &msg else {
        panic!("expected UpdateBatch, got {msg:?}");
    };
    assert_eq!(updates.len(), 1, "mid ring at rate 2 samples one of two");
    let first = updates.items().next().expect("one item");
    assert_eq!(first.ring, 1, "mid-ring tag survives the codec");
    cluster.shutdown().await;
}

#[tokio::test]
async fn stats_endpoint_serves_live_telemetry_over_tcp() {
    // E2E observability: with telemetry on, the cluster's stats endpoint
    // writes every node's counters and histograms as Prometheus-style
    // text at a real socket that sent it nothing.
    let mut cfg = fast_config();
    cfg.game.telemetry = true;
    cfg.game.emit_updates = true;
    let cluster = RtCluster::start(cfg).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();
    // An action near bob forces fan-out, so the next flush has work.
    alice.action(64);
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .expect("update delivered")
        .expect("channel open");

    let text = tokio::time::timeout(
        Duration::from_secs(2),
        wire::TcpStatsClient::fetch_text(addr),
    )
    .await
    .expect("prometheus text within deadline")
    .expect("read to EOF");
    assert!(text.contains("# TYPE matrix_joins counter"), "{text}");
    let joins: u64 = text
        .lines()
        .filter(|l| l.starts_with("matrix_joins{"))
        .map(|l| l.rsplit_once(' ').expect(l).1.parse::<u64>().expect(l))
        .sum();
    assert!(joins >= 2, "both joins must be counted: {text}");
    assert!(
        text.contains("matrix_rt_tick_us_count"),
        "the runtime's tick histogram must ride the snapshot: {text}"
    );
    assert!(
        text.contains("matrix_flush_us_count"),
        "a flush with pending work must be timed: {text}"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn stats_endpoint_is_empty_with_telemetry_off() {
    // Telemetry off is the default, and it must mean *zero* exposure:
    // the endpoint still answers — an empty body and a clean EOF.
    let cluster = RtCluster::start(fast_config()).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .unwrap();
    let text = tokio::time::timeout(
        Duration::from_secs(2),
        wire::TcpStatsClient::fetch_text(addr),
    )
    .await
    .expect("stats reply within deadline")
    .expect("clean EOF");
    assert!(text.is_empty(), "dark cluster must expose nothing: {text}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn gateway_negotiates_the_binary_protocol_by_default() {
    // A default gateway answers the client's Hello (`connect` returns
    // only once it has), after which the session — join, ack, updates —
    // runs over the wire protocol.
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(60.0, 60.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn gateway_closes_a_connection_that_does_not_open_with_a_frame() {
    use std::io::{Read, Write};

    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    // A line of the retired JSON session protocol: the gateway must hang
    // up without answering, not wait for a frame that will never come.
    let mut stale = std::net::TcpStream::connect(addr).expect("connect");
    stale
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    stale
        .write_all(b"{\"t\":\"join\",\"x\":1.0,\"y\":1.0,\"state\":0}\n")
        .expect("write");
    let mut reply = Vec::new();
    stale
        .read_to_end(&mut reply)
        .expect("EOF within the timeout");
    assert!(reply.is_empty(), "no Joined, no Hello: {reply:?}");

    // The gateway itself is unharmed.
    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(60.0, 60.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn gateway_skips_a_frame_of_a_retired_type() {
    use matrix_core::codec_v2::{self, Frame, FrameAccumulator, FrameMeta};
    use std::io::{Read, Write};

    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    // The client's side of the session, spoken by hand so that a frame
    // no encoder writes any more can be put on the wire.
    let mut socket = std::net::TcpStream::connect(addr).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut acc = FrameAccumulator::new();
    let mut next_frame = |socket: &mut std::net::TcpStream| loop {
        if let Some(frame) = acc.next() {
            return frame.expect("valid frame").0;
        }
        let mut chunk = [0u8; 512];
        let n = socket.read(&mut chunk).expect("reply within the timeout");
        assert!(n > 0, "the gateway hung up");
        acc.push(&chunk[..n]);
    };
    let hello = Frame::Hello {
        version: codec_v2::WIRE_VERSION,
    };
    let meta = |seq| FrameMeta { seq, stamp_ms: 0 };
    socket
        .write_all(&codec_v2::encode_frame(&hello, meta(0), true))
        .expect("hello");
    assert!(matches!(next_frame(&mut socket), Frame::Hello { .. }));

    // A well-formed replica batch as type code 10 once carried it:
    // snapshot version 2, batch sequence 1, an ops payload of zero ops;
    // frame sequence 1, CRC on. The type is reserved now, so the gateway
    // skips the frame and keeps the session.
    let mut retired = vec![0xD7, 0x4D, 2, 10 | 0x80, 4, 0, 0, 0];
    retired.extend_from_slice(&1u64.to_le_bytes());
    retired.extend_from_slice(&0u32.to_le_bytes());
    retired.extend_from_slice(&[2, 1, 1, 0]);
    retired.extend_from_slice(&codec_v2::crc32(&retired).to_le_bytes());
    socket.write_all(&retired).expect("retired frame");
    let join = ClientToGame::Join {
        pos: Point::new(60.0, 60.0),
        state_bytes: 64,
    };
    socket
        .write_all(&codec_v2::encode_client_frame(&join, meta(2), true))
        .expect("join");
    let reply = next_frame(&mut socket);
    assert!(
        matches!(reply, Frame::Server(GameToClient::Joined { .. })),
        "{reply:?}"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn stats_endpoint_outlives_a_peer_that_floods_it() {
    use std::io::Write;

    let mut cfg = fast_config();
    cfg.game.telemetry = true;
    let cluster = RtCluster::start(cfg).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");

    // 64 KiB at a port that never reads: the endpoint writes its text
    // and hangs up with the bytes unread. The write may fail part-way
    // once it has (a reset is a close).
    let mut flood = std::net::TcpStream::connect(addr).expect("connect");
    let _ = flood.write_all(&[b'a'; 64 * 1024]);

    let text = tokio::time::timeout(
        Duration::from_secs(2),
        wire::TcpStatsClient::fetch_text(addr),
    )
    .await
    .expect("text reply within deadline")
    .expect("the next reader is still answered");
    assert!(text.contains("# TYPE"), "{text}");
    cluster.shutdown().await;
}
