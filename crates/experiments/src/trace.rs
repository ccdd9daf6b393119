//! E16 — end-to-end causal tracing + the freshness SLO plane.
//!
//! Every experiment so far measured the pipeline from the *sender's*
//! side: fan-out counts, bytes on the wire, stage latencies inside one
//! node. None of them could answer the question the whole adaptive
//! middleware exists to optimise: **how stale was an entity on a real
//! receiver's screen, per vision ring, end to end?** The trace plane
//! answers it causally instead of statistically — a deterministic
//! 1-in-`trace_sample_rate` subset of ingested events is stamped with a
//! [`matrix_core::TraceTag`] at ingest, the tag rides through all five
//! pipeline stages, the flush, the wire codec and (on the
//! hard paths) replication to a warm standby, and the receiver closes
//! the loop: at apply it measures delivery latency and
//! staleness-at-apply on its own clock and echoes a `TraceAck`, which
//! the serving node folds into per-ring freshness histograms.
//!
//! Three legs, one verdict (CI runs `matrix-experiments trace --smoke`):
//!
//! * **dense** — the E12 hotspot crowd on one static server, tracing
//!   sampled at 1/64. Per-ring p50/p99 delivery latency and staleness
//!   come out of the trace plane itself; the near ring's p99 staleness
//!   must sit within the configured flush cadence (one
//!   `batch_interval` plus one `tick` of flush quantisation — with no
//!   per-client caps the near ring is never deferred, so anything
//!   above that bound is a trace-plane bug, not load). The traced
//!   share of delivered items must match the declared sample rate
//!   (within a wide determinism-safe window), and every traced
//!   delivery must round-trip: acks folded == items measured.
//! * **failover** — the E13 arrangement (two static partitions, warm
//!   standby, server 1 killed mid-run) with tracing on. Trace
//!   continuity must hold across the promotion: the *standby* folds
//!   trace acks after taking over (resumed clients keep measuring),
//!   and the traced share stays at the sample rate — tags are not
//!   silently shed on the replication path.
//! * **rt** — a real [`matrix_rt::RtCluster`] behind a TCP gateway:
//!   remote clients apply traced items off the actual v2 wire with a
//!   [`ClientSession`] each, at the cluster clock, send its acks over
//!   TCP, and the coordinator's freshness-SLO tracker surfaces its
//!   `slo_*` gauges on the live stats endpoint (pseudo-node `0`).

use crate::harness::{Cluster, ClusterConfig, ClusterReport, TopologyEvent};
use matrix_core::{ClientSession, ClientToGame, ServerId, SloTargets};
use matrix_games::{GameSpec, Placement, PopulationEvent, WorkloadSchedule};
use matrix_geometry::Point;
use matrix_metrics::{Histogram, Table};
use matrix_rt::{wire, RtCluster, RtConfig};
use matrix_sim::{SimDuration, SimTime};

/// The sample rate the verdict is declared at: 1 traced event per 64
/// ingested.
pub const TRACE_SAMPLE_RATE: u32 = 64;

/// Scenario scale: the full run and a CI smoke variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Dense-leg crowd on the lone server.
    pub crowd: u32,
    /// Dense-leg horizon in seconds.
    pub horizon_secs: u64,
    /// Failover-leg clients per hotspot (two hotspots).
    pub failover_crowd: u32,
    /// Failover-leg horizon in seconds.
    pub failover_horizon_secs: u64,
    /// Failover-leg crash time in seconds.
    pub crash_at_secs: u64,
    /// Runtime-leg remote TCP clients.
    pub rt_clients: u32,
    /// Runtime-leg drive steps (one move per client per step).
    pub rt_steps: u32,
}

impl Scale {
    /// The full experiment.
    pub fn full() -> Scale {
        Scale {
            crowd: 500,
            horizon_secs: 20,
            failover_crowd: 150,
            failover_horizon_secs: 30,
            crash_at_secs: 10,
            rt_clients: 8,
            rt_steps: 120,
        }
    }

    /// A fast variant for CI (`matrix-experiments trace --smoke`).
    pub fn smoke() -> Scale {
        Scale {
            crowd: 150,
            horizon_secs: 10,
            failover_crowd: 60,
            failover_horizon_secs: 20,
            crash_at_secs: 8,
            rt_clients: 6,
            rt_steps: 80,
        }
    }
}

/// One simulated leg's result.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Leg label for the table ("dense" / "failover").
    pub label: &'static str,
    /// The near-ring staleness bound the flush cadence promises, µs.
    pub bound_us: u64,
    /// Full cluster report (trace fields populated).
    pub report: ClusterReport,
}

/// The runtime TCP leg's result.
#[derive(Debug, Clone)]
pub struct RtLeg {
    /// Traced items the remote clients saw arrive over real TCP.
    pub traced_items: u64,
    /// Trace acks the nodes folded (from live telemetry snapshots).
    pub acks_folded: u64,
    /// Client-measured delivery latency, µs (all rings merged — the
    /// tight crowd keeps every receiver in the near ring).
    pub latency_us: Histogram,
    /// Client-measured staleness at apply, µs.
    pub staleness_us: Histogram,
    /// Whether the coordinator's `slo_*` gauges showed up on the live
    /// Prometheus endpoint as pseudo-node `0`.
    pub slo_gauges_exposed: bool,
}

/// Trace knobs shared by both simulated legs: sampling at the declared
/// rate, telemetry on (acks ride heartbeats to the coordinator), and a
/// deterministic flush cadence — `tick == batch_interval` — so the
/// near-ring staleness bound is exactly one batch interval plus one
/// tick of quantisation. Per-client caps are off: deferral would
/// charge rate-limiter staleness into the near ring and the bound
/// would measure load, not the trace plane.
fn trace_knobs(cfg: &mut ClusterConfig) -> u64 {
    cfg.game.trace_sample_rate = TRACE_SAMPLE_RATE;
    cfg.game.telemetry = true;
    cfg.game.tick = SimDuration::from_millis(50);
    cfg.game.batch_interval = SimDuration::from_millis(50);
    cfg.game.max_updates_per_flush = 0;
    cfg.game.client_budget_bytes = 0;
    (cfg.game.batch_interval + cfg.game.tick).as_micros()
}

/// Dense leg: the E12 hotspot crowd on one static server, ring tiers
/// on (so the per-ring columns actually grade), tracing at 1/64.
pub fn run_dense(seed: u64, scale: Scale) -> TraceRow {
    let mut spec = GameSpec::bzflag();
    spec.update_rate_hz = spec.update_rate_hz.min(2.0);
    let (radii, rates) = spec.ring_tiers();
    let mut cfg = ClusterConfig::static_partition(spec.clone(), 1);
    cfg.seed = seed;
    cfg.queue_capacity = None;
    cfg.game.emit_updates = true;
    cfg.game.set_rings(&radii, &rates);
    let bound_us = trace_knobs(&mut cfg);
    let schedule = WorkloadSchedule::new(SimTime::from_secs(scale.horizon_secs)).at(
        SimTime::ZERO,
        PopulationEvent::Join {
            n: scale.crowd,
            placement: Placement::Hotspot {
                center: spec.hotspot_a(),
                spread: spec.radius * 0.5,
            },
        },
    );
    TraceRow {
        label: "dense",
        bound_us,
        report: Cluster::new(cfg, schedule).run(),
    }
}

/// Failover leg: the E13 arrangement — two static partitions with warm
/// standbys, server 1 crashed mid-run — with tracing on. The verdict
/// reads trace continuity off the promoted standby's ack fold.
pub fn run_failover(seed: u64, scale: Scale) -> TraceRow {
    let mut spec = GameSpec::bzflag();
    spec.update_rate_hz = spec.update_rate_hz.min(2.0);
    let (radii, rates) = spec.ring_tiers();
    let mut cfg = ClusterConfig::static_partition(spec.clone(), 2);
    cfg.seed = seed;
    cfg.queue_capacity = None;
    cfg.game.emit_updates = true;
    cfg.game.set_rings(&radii, &rates);
    cfg.matrix.standby_replication = true;
    cfg.pool_size = 4;
    cfg.coordinator.heartbeat_timeout = SimDuration::from_secs(2);
    cfg.net.crash_detect = SimDuration::from_secs(8);
    cfg.crashes = vec![(SimTime::from_secs(scale.crash_at_secs), ServerId(1))];
    let bound_us = trace_knobs(&mut cfg);
    let schedule = WorkloadSchedule::new(SimTime::from_secs(scale.failover_horizon_secs))
        .at(
            SimTime::ZERO,
            PopulationEvent::Join {
                n: scale.failover_crowd,
                placement: Placement::Hotspot {
                    center: spec.hotspot_a(),
                    spread: spec.radius * 0.3,
                },
            },
        )
        .at(
            SimTime::ZERO,
            PopulationEvent::Join {
                n: scale.failover_crowd,
                placement: Placement::Hotspot {
                    center: spec.hotspot_b(),
                    spread: spec.radius * 0.3,
                },
            },
        );
    TraceRow {
        label: "failover",
        bound_us,
        report: Cluster::new(cfg, schedule).run(),
    }
}

/// Runtime leg: a real cluster behind a TCP gateway. Remote clients
/// join in one tight neighbourhood, move for `rt_steps` rounds, and
/// close the trace loop themselves — applying each traced item through
/// a [`ClientSession`] at the cluster clock and sending the ack it
/// builds over the same socket. The coordinator runs a near-ring
/// staleness SLO so its `slo_*` gauges are live on the stats endpoint.
pub fn run_rt(scale: Scale) -> RtLeg {
    tokio::runtime::block_on(async move {
        let mut cfg = RtConfig::default();
        cfg.game.emit_updates = true;
        cfg.game.telemetry = true;
        cfg.game.trace_sample_rate = TRACE_SAMPLE_RATE;
        cfg.game.tick = SimDuration::from_millis(10);
        cfg.game.batch_interval = SimDuration::from_millis(10);
        // A deliberately loose 250 ms near-ring target: the point here
        // is that the gauges are live, not that localhost breaches.
        cfg.coordinator.slo = SloTargets {
            staleness_us: [250_000, 0, 0, 0],
            ..SloTargets::default()
        };
        let cluster = RtCluster::start(cfg).await;
        let gateway = wire::spawn_gateway(
            ("127.0.0.1", 0),
            cluster.router().clone(),
            cluster.bootstrap_id(),
        )
        .await
        .expect("bind gateway");
        let stats = cluster
            .serve_stats(("127.0.0.1", 0))
            .await
            .expect("bind stats");

        let mut clients = Vec::new();
        for i in 0..scale.rt_clients {
            let mut c = wire::TcpGameClient::connect(gateway)
                .await
                .expect("connect");
            c.send(&ClientToGame::Join {
                pos: Point::new(100.0 + i as f64 * 4.0, 100.0),
                state_bytes: 64,
            })
            .await
            .expect("join");
            // The gateway owns the uplink: it re-joins after a switch.
            clients.push((c, ClientSession::new(cluster.bootstrap_id())));
        }

        let mut leg = RtLeg {
            traced_items: 0,
            acks_folded: 0,
            latency_us: Histogram::new(),
            staleness_us: Histogram::new(),
            slo_gauges_exposed: false,
        };
        let recv_window = std::time::Duration::from_millis(3);
        let mut acks = Vec::new();
        for step in 0..scale.rt_steps {
            for (i, (c, _)) in clients.iter_mut().enumerate() {
                let phase = (step as f64 / 10.0 + i as f64).sin();
                let pos = Point::new(100.0 + i as f64 * 4.0 + phase * 8.0, 100.0 + phase * 8.0);
                let _ = c.send(&ClientToGame::Move { pos }).await;
            }
            tokio::time::sleep(std::time::Duration::from_millis(15)).await;
            for (c, session) in clients.iter_mut() {
                // Drain whatever arrived this round; the timeout is the
                // idle detector, not a correctness bound.
                while let Ok(Ok(msg)) = tokio::time::timeout(recv_window, c.recv()).await {
                    let now = cluster.router().now();
                    let apply_us = now.as_micros();
                    let applied = session.apply(now, &msg, &mut acks);
                    for tag in applied.iter().filter_map(|u| u.trace) {
                        leg.latency_us.record(tag.latency_us(apply_us) as f64);
                        leg.staleness_us.record(tag.staleness_us(apply_us) as f64);
                    }
                    for ack in acks.drain(..) {
                        let _ = c.send(&ack).await;
                    }
                }
            }
        }
        leg.traced_items = clients.iter().map(|(_, s)| s.counters().traced_items).sum();
        // Let the final acks land and a heartbeat carry the histograms
        // to the coordinator before reading anything back.
        tokio::time::sleep(std::time::Duration::from_millis(1_500)).await;

        for snap in cluster.snapshots().await {
            if let Some(telemetry) = snap.telemetry {
                leg.acks_folded += telemetry.get_counter("trace_acks").unwrap_or(0);
            }
        }
        if let Ok(prom) = wire::TcpStatsClient::fetch_text(stats).await {
            leg.slo_gauges_exposed =
                prom.contains("slo_target_us_r0") && prom.contains("server=\"0\"");
        }
        cluster.shutdown().await;
        leg
    })
}

/// Runs all three legs.
pub fn run(seed: u64, scale: Scale) -> (TraceRow, TraceRow, RtLeg) {
    (
        run_dense(seed, scale),
        run_failover(seed, scale),
        run_rt(scale),
    )
}

/// Sum of per-server ack folds.
fn total_acks(row: &TraceRow) -> u64 {
    row.report.trace_acks_by_server.iter().map(|(_, n)| n).sum()
}

/// The promoted standby's id, read off the run timeline.
fn promoted_standby(report: &ClusterReport) -> Option<ServerId> {
    report.timeline.iter().find_map(|(_, ev)| match ev {
        TopologyEvent::Failover { standby, .. } => Some(*standby),
        _ => None,
    })
}

/// Checks one simulated leg's share + round-trip invariants.
fn check_leg(row: &TraceRow) -> Result<(), String> {
    let r = &row.report;
    let label = row.label;
    if r.update_batches_delivered == 0 {
        return Err(format!("{label}: no update batches delivered"));
    }
    if r.traced_deliveries == 0 {
        return Err(format!("{label}: no traced items delivered"));
    }
    // The traced share of delivered items must track the declared
    // sample rate. The window is wide (6× either way) because fan-out
    // per event varies, but it rules out both wholesale tag loss and
    // over-stamping.
    let share = r.traced_deliveries as f64 / r.batched_updates_delivered as f64;
    let declared = 1.0 / TRACE_SAMPLE_RATE as f64;
    if share < declared / 6.0 || share > declared * 6.0 {
        return Err(format!(
            "{label}: traced share {share:.5} is not within 6x of declared 1/{TRACE_SAMPLE_RATE}"
        ));
    }
    // Round trip: every measured delivery was acked and folded.
    let acks = total_acks(row);
    if acks != r.traced_deliveries {
        return Err(format!(
            "{label}: {} traced deliveries but {acks} acks folded — the ack path lost traces",
            r.traced_deliveries
        ));
    }
    Ok(())
}

/// The enforced verdict over all three legs.
pub fn verdict(dense: &TraceRow, failover: &TraceRow, rt: &RtLeg) -> Result<String, String> {
    check_leg(dense)?;
    check_leg(failover)?;
    // Near-ring freshness: p99 staleness within the flush-cadence
    // bound on the dense leg (no caps, so nothing defers ring 0).
    let (_, near_staleness) = &dense.report.trace_freshness[0];
    let p99 = near_staleness
        .p99()
        .ok_or("dense: near ring measured no staleness")?;
    if p99 > dense.bound_us as f64 {
        return Err(format!(
            "dense: near-ring p99 staleness {:.0}us exceeds the {}us flush-cadence bound",
            p99, dense.bound_us
        ));
    }
    // Trace continuity across the promotion: the standby measured
    // latencies for resumed clients after taking over.
    let standby =
        promoted_standby(&failover.report).ok_or("failover: no standby promotion happened")?;
    if failover.report.resumes == 0 {
        return Err("failover: no client resumed on the standby".into());
    }
    let standby_acks = failover
        .report
        .trace_acks_by_server
        .iter()
        .find(|(id, _)| *id == standby)
        .map(|(_, n)| *n)
        .unwrap_or(0);
    if standby_acks == 0 {
        return Err(format!(
            "failover: promoted standby {standby} folded no trace acks — tracing died at the crash"
        ));
    }
    // The runtime leg: traces crossed real TCP both ways, and the SLO
    // plane is visible to an operator.
    if rt.traced_items == 0 {
        return Err("rt: no traced items crossed the TCP wire".into());
    }
    if rt.acks_folded == 0 {
        return Err("rt: nodes folded no trace acks from remote clients".into());
    }
    if !rt.slo_gauges_exposed {
        return Err("rt: slo_* gauges missing from the live stats endpoint".into());
    }
    Ok(format!(
        "trace OK: dense near-ring p99 staleness {:.1}ms <= {}ms bound at 1/{} sampling \
         ({} traced deliveries, every ack folded), continuity through failover \
         ({} acks on promoted standby {standby}), {} traced items over real TCP with \
         live slo_* gauges",
        p99 / 1e3,
        dense.bound_us / 1_000,
        TRACE_SAMPLE_RATE,
        dense.report.traced_deliveries,
        standby_acks,
        rt.traced_items,
    ))
}

/// Renders the per-ring freshness table for one simulated leg.
pub fn table(row: &TraceRow) -> Table {
    let mut t = Table::new(
        format!(
            "E16 — causal trace plane, {} leg (1/{} sampling)",
            row.label, TRACE_SAMPLE_RATE
        ),
        &[
            "ring",
            "traced",
            "lat p50",
            "lat p99",
            "stale p50",
            "stale p99",
        ],
    );
    for (ring, (latency, staleness)) in row.report.trace_freshness.iter().enumerate() {
        if latency.is_empty() && staleness.is_empty() {
            continue;
        }
        let ms = |v: Option<f64>| v.map_or("—".into(), |v| format!("{:.1}ms", v / 1e3));
        t.push_row(&[
            format!("{ring}"),
            format!("{}", latency.count()),
            ms(latency.p50()),
            ms(latency.p99()),
            ms(staleness.p50()),
            ms(staleness.p99()),
        ]);
    }
    t
}

/// Renders the runtime leg's summary table.
pub fn rt_table(rt: &RtLeg) -> Table {
    let mut t = Table::new(
        "E16 — runtime TCP leg (remote clients close the loop)",
        &["traced", "acked", "lat p50", "lat p99", "stale p99", "slo"],
    );
    let ms = |v: Option<f64>| v.map_or("—".into(), |v| format!("{:.1}ms", v / 1e3));
    t.push_row(&[
        format!("{}", rt.traced_items),
        format!("{}", rt.acks_folded),
        ms(rt.latency_us.p50()),
        ms(rt.latency_us.p99()),
        ms(rt.staleness_us.p99()),
        if rt.slo_gauges_exposed {
            "live".into()
        } else {
            "missing".into()
        },
    ]);
    t
}

/// CSV artefact: per-leg, per-ring freshness.
pub fn to_csv(dense: &TraceRow, failover: &TraceRow, rt: &RtLeg) -> String {
    let mut out =
        String::from("leg,ring,traced,latency_p50_us,latency_p99_us,stale_p50_us,stale_p99_us\n");
    for row in [dense, failover] {
        for (ring, (latency, staleness)) in row.report.trace_freshness.iter().enumerate() {
            if latency.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{},{},{},{:.0},{:.0},{:.0},{:.0}\n",
                row.label,
                ring,
                latency.count(),
                latency.p50().unwrap_or(0.0),
                latency.p99().unwrap_or(0.0),
                staleness.p50().unwrap_or(0.0),
                staleness.p99().unwrap_or(0.0),
            ));
        }
    }
    out.push_str(&format!(
        "rt,0,{},{:.0},{:.0},{:.0},{:.0}\n",
        rt.traced_items,
        rt.latency_us.p50().unwrap_or(0.0),
        rt.latency_us.p99().unwrap_or(0.0),
        rt.staleness_us.p50().unwrap_or(0.0),
        rt.staleness_us.p99().unwrap_or(0.0),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_leg_meets_the_freshness_bound_at_smoke_scale() {
        let row = run_dense(42, Scale::smoke());
        check_leg(&row).expect("share + round-trip invariants");
        let (latency, staleness) = &row.report.trace_freshness[0];
        assert!(latency.count() > 0, "near ring must measure latencies");
        let p99 = staleness.p99().expect("near-ring staleness measured");
        assert!(
            p99 <= row.bound_us as f64,
            "near-ring p99 staleness {p99}us exceeds the {}us bound",
            row.bound_us
        );
    }

    #[test]
    fn failover_leg_keeps_tracing_through_the_promotion() {
        let row = run_failover(42, Scale::smoke());
        check_leg(&row).expect("share + round-trip invariants");
        let standby = promoted_standby(&row.report).expect("a standby was promoted");
        let standby_acks = row
            .report
            .trace_acks_by_server
            .iter()
            .find(|(id, _)| *id == standby)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(
            standby_acks > 0,
            "standby {standby} folded no acks: {:?}",
            row.report.trace_acks_by_server
        );
    }
}
