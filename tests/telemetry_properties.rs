//! Property-based tests of the telemetry plane: histogram quantile and
//! merge laws, the Prometheus text the stats port serves, the
//! flight-recorder ring, and the end-to-end on/off contract of the
//! instrumented game server.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! property-testing framework, keeping the build offline-friendly.

use matrix_middleware::core::{
    render_prometheus, ClientId, ClientToGame, EventKind, FlightRecorder, GameServerConfig,
    GameServerNode, HistSnapshot, Histogram, Stage, TelemetrySnapshot,
};
use matrix_middleware::geometry::{Point, Rect, ServerId};
use matrix_middleware::sim::{SimRng, SimTime};

const CASES: usize = 48;

fn samples(rng: &mut SimRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(0.5, 2_000_000.0)).collect()
}

/// Merging histograms is exactly equivalent to recording every sample
/// into one histogram: identical buckets, counts, extrema and (hence)
/// quantiles — the law that makes per-node histograms aggregate into
/// cluster-wide distributions without bias.
#[test]
fn histogram_merge_equals_recording_everything_once() {
    let mut rng = SimRng::seed_from_u64(0x4157);
    for case in 0..CASES {
        let na = rng.uniform_u64(0, 400) as usize;
        let nb = rng.uniform_u64(1, 400) as usize;
        let a = samples(&mut rng, na);
        let b = samples(&mut rng, nb);
        let (mut ha, mut hb, mut hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in &a {
            ha.record(*v);
            hall.record(*v);
        }
        for v in &b {
            hb.record(*v);
            hall.record(*v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hall.count(), "case {case}");
        assert_eq!(ha.min(), hall.min(), "case {case}");
        assert_eq!(ha.max(), hall.max(), "case {case}");
        assert_eq!(
            ha.nonzero_buckets(),
            hall.nonzero_buckets(),
            "case {case}: merged buckets must match direct recording"
        );
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(ha.quantile(q), hall.quantile(q), "case {case} q={q}");
        }
    }
}

/// Quantiles of a merged histogram stay within the log-bucket error
/// bound of the exact sample quantile, are monotone in `q`, and are
/// bracketed by the true min and max.
#[test]
fn histogram_quantiles_bound_the_exact_order_statistics() {
    let mut rng = SimRng::seed_from_u64(0xB0C4E7);
    for case in 0..CASES {
        let n = 40 + rng.uniform_u64(0, 400) as usize;
        let mut all = samples(&mut rng, n);
        let mut h1 = Histogram::new();
        let mut h2 = Histogram::new();
        for (i, v) in all.iter().enumerate() {
            if i % 2 == 0 {
                h1.record(*v);
            } else {
                h2.record(*v);
            }
        }
        h1.merge(&h2);
        all.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let n = all.len();
        let mut prev = 0.0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let v = h1.quantile(q).expect("non-empty");
            assert!(v >= prev, "case {case}: quantiles must be monotone in q");
            prev = v;
            // Rank-bracket with one rank of slack for convention, plus
            // the 16-sub-bucket log resolution (≤ ~7% relative error).
            let k = ((q * (n - 1) as f64).round() as usize).min(n - 1);
            let lo = all[k.saturating_sub(1)] * (1.0 - 0.08);
            let hi = all[(k + 1).min(n - 1)] * (1.0 + 0.08);
            assert!(
                v >= lo && v <= hi,
                "case {case}: q{q} = {v} outside [{lo}, {hi}] (n={n})"
            );
        }
        // quantile() reports bucket lower bounds, so q=1.0 may sit one
        // sub-bucket (≈6%) below the exact max — but never above it.
        let top = h1.quantile(1.0).unwrap();
        assert!(
            top >= all[n - 1] * (1.0 - 0.08) && top <= all[n - 1],
            "case {case}"
        );
        assert!(h1.quantile(0.0).unwrap() <= all[0] * 1.08, "case {case}");
    }
}

/// `HistSnapshot::merge` obeys the same law as `Histogram::merge`: the
/// snapshot round-trip (`of` → merge → `to_histogram`) reproduces the
/// directly merged histogram exactly.
#[test]
fn snapshot_merge_matches_histogram_merge() {
    let mut rng = SimRng::seed_from_u64(0x5A4);
    for case in 0..CASES {
        let na = 1 + rng.uniform_u64(0, 200) as usize;
        let nb = 1 + rng.uniform_u64(0, 200) as usize;
        let a = samples(&mut rng, na);
        let b = samples(&mut rng, nb);
        let (mut ha, mut hb) = (Histogram::new(), Histogram::new());
        for v in &a {
            ha.record(*v);
        }
        for v in &b {
            hb.record(*v);
        }
        let mut sa = HistSnapshot::of("x", &ha);
        let sb = HistSnapshot::of("x", &hb);
        sa.merge(&sb);
        ha.merge(&hb);
        let back = sa.to_histogram();
        assert_eq!(back.count(), ha.count(), "case {case}");
        assert_eq!(back.nonzero_buckets(), ha.nonzero_buckets(), "case {case}");
        assert_eq!(back.min(), ha.min(), "case {case}");
        assert_eq!(back.max(), ha.max(), "case {case}");
    }
}

fn random_snapshot(rng: &mut SimRng) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    for c in 0..rng.uniform_u64(0, 6) {
        snap.counter(format!("c{c}"), rng.uniform_u64(0, u64::MAX >> 12));
    }
    for hn in 0..rng.uniform_u64(0, 4) {
        let mut h = Histogram::new();
        for _ in 0..rng.uniform_u64(1, 64) {
            h.record(rng.uniform(0.1, 1e7));
        }
        snap.hist(format!("h{hn}"), &h);
    }
    snap.events_seen = rng.uniform_u64(0, 10_000);
    snap.events_dropped = rng.uniform_u64(0, snap.events_seen + 1);
    snap
}

/// The text the stats port serves carries every snapshot set in full:
/// each counter once per server with its exact value under the right
/// type, each histogram's count, sum and ascending quantiles, one
/// `# HELP`/`# TYPE` pair per metric name, and nothing a line-oriented
/// scraper cannot split — for any number of nodes including zero.
#[test]
fn prometheus_text_carries_every_counter_and_histogram_once() {
    let mut rng = SimRng::seed_from_u64(0xC0DEC);
    for case in 0..CASES {
        let mut nodes: Vec<(ServerId, TelemetrySnapshot)> = (0..rng.uniform_u64(0, 5))
            .map(|i| (ServerId(i as u32 + 1), random_snapshot(&mut rng)))
            .collect();
        // One gauge somewhere, so both `# TYPE`s are on trial.
        if let Some((_, snap)) = nodes.first_mut() {
            snap.counter("recorder_capacity", 256);
        }
        let text = render_prometheus(&nodes);
        assert_eq!(text.is_empty(), nodes.is_empty(), "case {case}");

        // Every line is a comment or `name{labels} value`, value finite.
        let (comments, lines): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.starts_with('#'));
        let samples: Vec<(&str, &str, &str)> = lines
            .iter()
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect(line);
                let (name, labels) = series.split_once('{').expect(line);
                assert!(value.parse::<f64>().expect(line).is_finite(), "{line}");
                (name, labels.strip_suffix('}').expect(line), value)
            })
            .collect();
        // The values of one series, as printed.
        let sample = |name: &str, labels: &str| -> Vec<&str> {
            samples
                .iter()
                .filter(|(n, l, _)| *n == name && *l == labels)
                .map(|(_, _, v)| *v)
                .collect()
        };
        // The `(metric name, rest)` of each comment line of one kind.
        let declared = |prefix: &str| -> Vec<(&str, &str)> {
            comments
                .iter()
                .filter_map(|c| c.strip_prefix(prefix)?.split_once(' '))
                .collect()
        };
        // `# HELP` then `# TYPE`, once per metric name.
        let types = declared("# TYPE ");
        let names: Vec<&str> = types.iter().map(|(n, _)| *n).collect();
        let helped: Vec<&str> = declared("# HELP ").iter().map(|(n, _)| *n).collect();
        assert_eq!(names, helped, "case {case}: HELP and TYPE pair up in order");
        assert_eq!(comments.len(), 2 * names.len(), "case {case}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "case {case}: one pair per name");
        let kind_of = |name: &str| types.iter().find(|(n, _)| *n == name).map(|(_, k)| *k);

        for (sid, snap) in &nodes {
            let server = format!("server=\"{}\"", sid.0);
            let mut counters = snap.counters.clone();
            counters.push(("events_seen".into(), snap.events_seen));
            counters.push(("events_dropped".into(), snap.events_dropped));
            for (name, v) in &counters {
                let name = format!("matrix_{name}");
                assert_eq!(
                    sample(&name, &server),
                    [v.to_string()],
                    "case {case}: {name}"
                );
                let kind = if name == "matrix_recorder_capacity" {
                    "gauge"
                } else {
                    "counter"
                };
                assert_eq!(kind_of(&name), Some(kind), "case {case}: {name}");
            }
            for h in &snap.hists {
                let name = format!("matrix_{}", h.name);
                assert_eq!(kind_of(&name), Some("summary"), "case {case}: {name}");
                let count = sample(&format!("{name}_count"), &server);
                assert_eq!(count, [h.count.to_string()], "case {case}: {name}");
                let sum = sample(&format!("{name}_sum"), &server);
                assert_eq!(sum, [h.sum.to_string()], "case {case}: {name}");
                let quantiles: Vec<f64> = ["0.5", "0.95", "0.99", "0.999"]
                    .iter()
                    .flat_map(|q| sample(&name, &format!("{server},quantile=\"{q}\"")))
                    .map(|v| v.parse().unwrap())
                    .collect();
                assert_eq!(quantiles.len(), 4, "case {case}: one sample per quantile");
                assert!(
                    quantiles.windows(2).all(|w| w[0] <= w[1]),
                    "case {case}: {quantiles:?}"
                );
            }
        }
        // Nothing beyond what the snapshots hold: 2 recorder tallies per
        // node, one line per counter, 6 per histogram.
        let expected: usize = nodes
            .iter()
            .map(|(_, s)| 2 + s.counters.len() + 6 * s.hists.len())
            .sum();
        assert_eq!(samples.len(), expected, "case {case}");
    }
}

/// The flight recorder is an exact bounded ring: it retains the *last*
/// `cap` events with contiguous sequence numbers, counts every overflow
/// drop, and capacity zero is the true no-op.
#[test]
fn flight_recorder_retains_the_tail_exactly() {
    let mut rng = SimRng::seed_from_u64(0xF11647);
    for case in 0..CASES {
        let cap = rng.uniform_u64(0, 40) as usize;
        let n = rng.uniform_u64(0, 120);
        let mut rec = FlightRecorder::new(cap);
        for i in 0..n {
            rec.record(
                SimTime::from_micros(i * 7),
                EventKind::Promotion {
                    server: ServerId(i as u32),
                },
            );
        }
        assert_eq!(rec.next_seq(), if cap == 0 { 0 } else { n }, "case {case}");
        assert_eq!(rec.len() as u64, n.min(cap as u64), "case {case}");
        assert_eq!(
            rec.dropped(),
            if cap == 0 {
                0
            } else {
                n.saturating_sub(cap as u64)
            },
            "case {case}"
        );
        let events: Vec<_> = rec.events().collect();
        for (i, ev) in events.iter().enumerate() {
            let expect_seq = n - events.len() as u64 + i as u64;
            assert_eq!(ev.seq, expect_seq, "case {case}: tail must be contiguous");
            assert_eq!(ev.at, SimTime::from_micros(expect_seq * 7), "case {case}");
        }
    }
}

/// End to end through the instrumented game server: telemetry off means
/// *no* snapshot and an empty recorder; telemetry on yields per-stage
/// and flush histograms whose flush-sample counts agree across stages.
#[test]
fn game_server_telemetry_is_all_or_nothing() {
    for telemetry in [false, true] {
        let cfg = GameServerConfig {
            telemetry,
            emit_updates: true,
            ..GameServerConfig::default()
        };
        let mut g = GameServerNode::new(ServerId(1), cfg);
        g.register(Rect::from_coords(0.0, 0.0, 400.0, 400.0), 50.0);
        let mut now = SimTime::ZERO;
        for step in 0..10u64 {
            for c in 0..8u64 {
                let pos = Point::new(100.0 + c as f64 * 5.0, 100.0 + step as f64);
                if step == 0 {
                    g.on_client(
                        now,
                        ClientId(c),
                        ClientToGame::Join {
                            pos,
                            state_bytes: 64,
                        },
                    );
                } else {
                    g.on_client(now, ClientId(c), ClientToGame::Move { pos });
                }
            }
            now += cfg.batch_interval;
            g.on_tick(now, 0.0);
        }
        match g.telemetry_snapshot() {
            None => {
                assert!(!telemetry, "telemetry on must produce a snapshot");
                assert!(g.recorder().is_empty(), "off means an empty ring");
                assert_eq!(g.recorder().next_seq(), 0);
            }
            Some(snap) => {
                assert!(telemetry, "telemetry off must stay dark");
                assert_eq!(snap.get_counter("joins"), Some(8));
                let flushes = snap.get_hist("flush_us").expect("flush histogram").count;
                assert!(flushes >= 1, "batched work must have flushed");
                for stage in Stage::ALL {
                    let h = snap
                        .get_hist(&format!("stage_{}_us", stage.name()))
                        .unwrap_or_else(|| panic!("stage {} histogram", stage.name()));
                    assert_eq!(
                        h.count,
                        flushes,
                        "stage {} records one sample per flush",
                        stage.name()
                    );
                }
                assert_eq!(snap.events_seen, g.recorder().next_seq());
                assert!(
                    g.recorder()
                        .events()
                        .any(|e| matches!(e.kind, EventKind::Join { .. })),
                    "joins must land in the flight recorder"
                );
            }
        }
    }
}
