//! TCP gateway demo: expose an in-process Matrix cluster on a real
//! socket and serve remote game clients speaking the wire protocol
//! (length-prefixed binary frames, `docs/WIRE.md`).
//!
//! ```sh
//! cargo run --release --example gateway_demo            # random port
//! cargo run --release --example gateway_demo -- 4177    # fixed port
//! ```
//!
//! Once bound, the demo is its own first client: it connects two
//! `TcpGameClient`s, joins both ten units apart, has the first send
//! one action, and prints every message either receives:
//!
//! ```text
//! alice <- Joined { server: ServerId(1) }
//! alice <- Ack { seq: 0 }
//! bob <- Joined { server: ServerId(1) }
//! bob <- UpdateBatch { updates: [Absolute(UpdateItem { origin: Point { x: 100.0, y: 100.0 }, payload_bytes: 32, entity: 1, ring: 0, vx: 0.0, vy: 0.0, trace: None })] }
//! ```
//!
//! Then it keeps serving. The gateway keeps each remote client pinned
//! to whichever server the middleware redirects it to; nearby clients
//! receive each other's events as `UpdateBatch` frames.
//!
//! Pass `--predict` to enable the dead-reckoning pipeline (vision
//! rings + per-ring error budgets, per-event flushes): outer-ring
//! receivers then see velocity-tagged items and straight-line movement
//! is suppressed on the wire while their extrapolation stays within
//! the ring's budget.
//!
//! Pass `--telemetry` to turn the telemetry plane on
//! (`docs/OBSERVABILITY.md`); a live stats endpoint then writes
//! Prometheus text at whoever connects to a second port:
//!
//! ```text
//! $ nc 127.0.0.1 <stats port>
//! # HELP matrix_joins Matrix telemetry metric
//! # TYPE matrix_joins counter
//! matrix_joins{server="1"} 2
//! ...
//! ```

use matrix_middleware::core::ClientToGame;
use matrix_middleware::geometry::Point;
use matrix_middleware::rt::{wire, RtCluster, RtConfig};
use matrix_middleware::sim::SimDuration;
use std::time::Duration;

#[tokio::main]
async fn main() {
    let mut port: u16 = 0;
    let mut predict = false;
    let mut telemetry = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--predict" => predict = true,
            "--telemetry" => telemetry = true,
            p => port = p.parse().expect("args: [port] [--predict] [--telemetry]"),
        }
    }
    let mut cfg = RtConfig::default();
    cfg.game.telemetry = telemetry;
    if predict {
        cfg.game.batch_interval = SimDuration::from_millis(0);
        cfg.game.predict = true;
        cfg.game.set_rings(&[30.0, 150.0], &[1, 1]);
        cfg.game.set_error_budgets(&[0.0, 5.0]);
        println!("dead reckoning ON: rings 30/150, outer error budget 5.0");
    }
    let opts = wire::GatewayOptions::from_config(&cfg.game);
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway_with(
        ("127.0.0.1", port),
        cluster.router().clone(),
        cluster.bootstrap_id(),
        opts,
    )
    .await
    .expect("bind gateway");
    println!("gateway listening on {addr}");
    if telemetry {
        let stats = cluster
            .serve_stats(("127.0.0.1", 0))
            .await
            .expect("bind stats endpoint");
        println!("stats endpoint on {stats} (connect and read to EOF)");
    }

    // Two real sockets through the gateway: alice acts, bob watches.
    let alice_pos = Point::new(100.0, 100.0);
    let mut clients = Vec::new();
    for (name, pos) in [("alice", alice_pos), ("bob", Point::new(110.0, 100.0))] {
        let mut client = wire::TcpGameClient::connect(addr).await.expect("connect");
        let join = ClientToGame::Join {
            pos,
            state_bytes: 64,
        };
        client.send(&join).await.expect("send join");
        clients.push((name, client));
    }
    let action = ClientToGame::Action {
        pos: alice_pos,
        payload_bytes: 32,
    };
    clients[0].1.send(&action).await.expect("send action");
    for (name, client) in &mut clients {
        // Batches leave on the game tick; half a second of silence
        // means this client has seen everything.
        while let Ok(Ok(msg)) =
            tokio::time::timeout(Duration::from_millis(500), client.recv()).await
        {
            println!("{name} <- {msg:?}");
        }
    }
    drop(clients);

    // Serve until interrupted.
    loop {
        tokio::time::sleep(Duration::from_secs(3600)).await;
    }
}
