//! E13 — per-event fan-out: linear client scan vs interest grid.
//!
//! Inside one game server, every event must find the co-located clients
//! whose area of interest contains it. The seed implementation scanned
//! all clients per event (O(n)); the `matrix-interest` spatial-hash grid
//! answers the same query in O(cells + matches). This bench measures one
//! fan-out query at 100/500/2000/8000 clients per server, under the two
//! placements that bracket reality:
//!
//! * `hotspot` — the whole crowd gaussian-packed around one point, the
//!   paper's flash-crowd shape. Events land in the crowd, so the match
//!   count is large for both paths; the grid's win is skipping nobody
//!   relevant while never touching the irrelevant tail.
//! * `uniform` — clients spread over the world. Matches are few; the
//!   linear scan still pays O(n) per event while the grid touches only
//!   the handful of cells under the query ball.
//!
//! Two baselines are kept honest on purpose: `linear_scan_btree`
//! reproduces the seed's real memory layout (`BTreeMap<ClientId,
//! ClientRecord>`), and `linear_scan_vec` is an idealized dense-vector
//! scan the seed never had.
//!
//! Acceptance target (ISSUE 1): grid ≥5× faster than the old linear
//! scan at 2000 clients, hotspot placement. Recorded on the PR-1
//! machine (ns/iter, hotspot):
//!
//! | n    | btree scan | vec scan | grid  | vs btree | vs vec |
//! |------|-----------:|---------:|------:|---------:|-------:|
//! | 100  |        217 |      111 |   194 |     1.1× |   0.6× |
//! | 500  |      1_098 |      538 |   282 |     3.9× |   1.9× |
//! | 2000 |      4_647 |    2_159 |   636 |   *7.3×* |   3.4× |
//! | 8000 |     18_303 |    8_607 | 1_618 |    11.3× |   5.3× |
//!
//! Uniform placement reaches 11–18× vs the btree scan; `grid_update`
//! (the incremental reposition cost the scan does not pay) stays flat at
//! ~65 ns regardless of n.
//!
//! PR 4 adds `interest_grid_autotuned`: the same query on a grid sized
//! by the density tuner's steady state (`AutoTunerConfig::cells_for`)
//! instead of the static 32. Recorded on the PR-4 machine (ns/iter,
//! hotspot): 195 → 111 at n=100 and 289 → 171 at n=500 (the tuner
//! coarsens a sparse grid, cutting empty-cell walks ~1.7×), converging
//! with the static resolution once the crowd justifies 32+ cells
//! (735 → 674 at 2000, parity at 8000).
//!
//! PR 9 appends the **flush-workers scaling gate**: the sharded flush
//! engine's throughput at 1/2/4/8 workers on a dense hotspot crowd,
//! with a CI floor of ≥2.5× at 4 workers on hosts that have ≥ 4 cores
//! (bounded-overhead fallback below that), plus a free byte-identity
//! check that every worker count flushes the same item count. The
//! timed call is the whole fused flush — ranking indices, gathering
//! the survivors, delta-encoding them and building one finished list
//! per receiver through the emitter — so the per-flush
//! `thread::scope` spawn cost is weighed against exactly the work the
//! game server's flush does, on every worker count alike.

use criterion::{criterion_group, BenchmarkId, Criterion};
use matrix_core::UpdateItem;
use matrix_geometry::{Metric, Point, Rect};
use matrix_interest::{
    AutoTunerConfig, DisseminationPipeline, FlushPolicy, InterestGrid, PipelineConfig,
    PredictorConfig, RingSet,
};
use matrix_sim::SimRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORLD: f64 = 800.0;
/// The per-client AOI (vision) radius queried on fan-out. Narrower than
/// the consistency radius, as `GameServerConfig::vision_radius` allows.
const RADIUS: f64 = 50.0;
/// Hotspot crowd spread (σ): the crowd covers several AOI diameters,
/// like the paper's flash crowd spreading around a point of interest.
const SPREAD: f64 = 150.0;
const CELLS_PER_AXIS: u32 = 32;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD, WORLD)
}

/// Gaussian crowd around the Figure-2 hotspot.
fn hotspot_positions(n: usize, rng: &mut SimRng) -> Vec<Point> {
    let center = Point::new(WORLD * 0.6, WORLD * 0.5);
    (0..n)
        .map(|_| {
            Point::new(
                rng.normal(center.x, SPREAD).clamp(0.0, WORLD),
                rng.normal(center.y, SPREAD).clamp(0.0, WORLD),
            )
        })
        .collect()
}

/// Uniform spread over the world.
fn uniform_positions(n: usize, rng: &mut SimRng) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.uniform(0.0, WORLD), rng.uniform(0.0, WORLD)))
        .collect()
}

/// Query origins: events come from the clients themselves.
fn origins(positions: &[Point]) -> Vec<Point> {
    positions.iter().copied().take(256).collect()
}

type Placer = fn(usize, &mut SimRng) -> Vec<Point>;

fn bench_fanout(c: &mut Criterion) {
    let placements: [(&str, Placer); 2] = [
        ("hotspot", hotspot_positions),
        ("uniform", uniform_positions),
    ];
    for (placement, make) in placements {
        let mut group = c.benchmark_group(format!("fanout_{placement}"));
        for &n in &[100usize, 500, 2000, 8000] {
            let mut rng = SimRng::seed_from_u64(0xBE7 + n as u64);
            let positions = make(n, &mut rng);
            let probes = origins(&positions);

            // The seed's actual path: `GameServerNode::fan_out` scanned
            // its `BTreeMap<ClientId, ClientRecord>` per event. This
            // baseline reproduces that memory layout faithfully.
            #[derive(Clone, Copy)]
            struct Record {
                pos: Point,
                _state_bytes: u64,
                _resolving: bool,
            }
            let clients: BTreeMap<u64, Record> = positions
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    (
                        k as u64,
                        Record {
                            pos: *p,
                            _state_bytes: 1024,
                            _resolving: false,
                        },
                    )
                })
                .collect();
            group.bench_with_input(BenchmarkId::new("linear_scan_btree", n), &n, |b, _| {
                let mut i = 0;
                b.iter(|| {
                    let origin = probes[i % probes.len()];
                    i += 1;
                    let mut hits = 0u32;
                    for rec in clients.values() {
                        if rec.pos.distance_by(origin, Metric::Euclidean) <= RADIUS {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                });
            });

            // An idealized linear scan over a dense position vector — a
            // stronger baseline than the seed ever had (no tree walk),
            // kept for honesty about what the grid beats.
            group.bench_with_input(BenchmarkId::new("linear_scan_vec", n), &n, |b, _| {
                let mut i = 0;
                b.iter(|| {
                    let origin = probes[i % probes.len()];
                    i += 1;
                    let mut hits = 0u32;
                    for p in &positions {
                        if p.distance_by(origin, Metric::Euclidean) <= RADIUS {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                });
            });

            // The interest-managed path.
            let mut grid: InterestGrid<u32> = InterestGrid::new(world(), CELLS_PER_AXIS);
            for (k, p) in positions.iter().enumerate() {
                grid.insert(k as u32, *p);
            }
            group.bench_with_input(BenchmarkId::new("interest_grid", n), &n, |b, _| {
                let mut i = 0;
                b.iter(|| {
                    let origin = probes[i % probes.len()];
                    i += 1;
                    let mut hits = 0u32;
                    grid.query(origin, RADIUS, Metric::Euclidean, |_, _| hits += 1);
                    black_box(hits)
                });
            });

            // The same query on a grid whose resolution the density
            // auto-tuner would steady-state at for this population
            // (`AutoTunerConfig::cells_for`), instead of the static 32:
            // coarser for sparse crowds (fewer empty-cell walks), finer
            // for dense ones (fewer candidates per cell).
            let tuned_cells = AutoTunerConfig::enabled().cells_for(n);
            let mut tuned: InterestGrid<u32> = InterestGrid::new(world(), tuned_cells);
            for (k, p) in positions.iter().enumerate() {
                tuned.insert(k as u32, *p);
            }
            group.bench_with_input(
                BenchmarkId::new("interest_grid_autotuned", n),
                &n,
                |b, _| {
                    let mut i = 0;
                    b.iter(|| {
                        let origin = probes[i % probes.len()];
                        i += 1;
                        let mut hits = 0u32;
                        tuned.query(origin, RADIUS, Metric::Euclidean, |_, _| hits += 1);
                        black_box(hits)
                    });
                },
            );

            // Steady-state upkeep: the incremental reposition the grid
            // pays per client move (the scan pays nothing here — its
            // cost all sits on the query side).
            let mut moving = grid.clone();
            group.bench_with_input(BenchmarkId::new("grid_update", n), &n, |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let k = (i % n) as u32;
                    let p = probes[i % probes.len()];
                    i += 1;
                    moving.update(k, Point::new(p.x, (p.y + 1.0) % WORLD));
                });
            });
        }
        group.finish();
    }
}

// --- flush-workers scaling gate (ISSUE 9) --------------------------------
//
// The sharded flush engine claims near-linear multi-core scaling of the
// per-receiver stages (policy ranking + delta encoding). This section
// measures flush throughput on a dense hotspot crowd at 1/2/4/8 workers
// and **exits non-zero** when 4 workers deliver less than 2.5× the
// single-worker throughput — but only on hosts that actually have ≥ 4
// cores. On smaller hosts the speedup is physically unobservable, so
// the gate degrades to a bounded-overhead check: sharding plus real
// threads must not cost more than `OVERHEAD_CEIL`× sequential time.
// Either way the byte-identity invariant is asserted for free: every
// worker count must flush the exact same item count.

/// Dense-crowd population for the scaling rows.
const FLUSH_CLIENTS: usize = 2000;
/// Events disseminated (untimed) between timed flushes.
const EVENTS_PER_CYCLE: usize = 256;
/// Timed flush cycles per round.
const CYCLES: usize = 24;
/// Min-of-N rounds per worker count (noise filter).
const SCALE_ROUNDS: usize = 4;
/// The CI floor: 4-worker flush throughput ≥ 2.5× single-worker.
const SCALE_FLOOR_AT_4: f64 = 2.5;
/// Fallback ceiling on hosts with < 4 cores: parallel flush at 4
/// workers may not take more than 3× the sequential wall time (thread
/// spawn/join overhead bounded, no pathological contention).
const OVERHEAD_CEIL: f64 = 3.0;

/// One round: disseminate a burst (untimed, stages 1–3 are sequential
/// by design), then time `flush` — the sharded stages 4–5. Returns the
/// accumulated flush wall time and the total items flushed.
fn run_flush_round(workers: u32, positions: &[Point]) -> (Duration, u64) {
    let rings = RingSet::from_tiers(&[40.0, 80.0, 150.0], &[1, 2, 4]);
    let cfg = PipelineConfig {
        metric: Metric::Euclidean,
        policy: FlushPolicy {
            max_items: 32,
            ..FlushPolicy::unlimited()
        },
        keyframe_every: 8,
        origin_quantum: 0.0,
        autotune: AutoTunerConfig::default(),
        predict: PredictorConfig::default(),
        position_only_ring: 2,
        telemetry: false,
    };
    let mut p: DisseminationPipeline<u64, UpdateItem> =
        DisseminationPipeline::new(world(), CELLS_PER_AXIS, rings, cfg).with_shards(workers);
    p.set_parallel_flush(workers > 1);
    for (k, pos) in positions.iter().enumerate() {
        p.subscribe(k as u64, *pos);
    }
    let mut flush_time = Duration::ZERO;
    let mut items = 0u64;
    let mut now = 0.0f64;
    for cycle in 0..CYCLES {
        for e in 0..EVENTS_PER_CYCLE {
            let k = (cycle * EVENTS_PER_CYCLE + e * 7) % FLUSH_CLIENTS;
            let origin = positions[k];
            p.disseminate(
                origin,
                origin,
                k as u64,
                now,
                true,
                Some(k as u64),
                true,
                |ring, (vx, vy)| UpdateItem {
                    origin,
                    payload_bytes: 24,
                    entity: k as u64,
                    ring,
                    vx,
                    vy,
                    trace: None,
                },
            );
            now += 0.001;
        }
        let t0 = Instant::now();
        let outcome = p.flush(
            |k: u64| Some(positions[k as usize]),
            |_: &mut (), item, origin| (item, origin),
        );
        flush_time += t0.elapsed();
        items += outcome
            .batches
            .iter()
            .map(|b| b.items.len() as u64)
            .sum::<u64>();
        black_box(&outcome);
    }
    (flush_time, items)
}

fn flush_scaling_gate() {
    let mut rng = SimRng::seed_from_u64(0xF1005);
    let positions = hotspot_positions(FLUSH_CLIENTS, &mut rng);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("flush-workers scaling: dense crowd, {FLUSH_CLIENTS} clients, {cores} core(s)");

    let mut best: BTreeMap<u32, Duration> = BTreeMap::new();
    let mut flushed: BTreeMap<u32, u64> = BTreeMap::new();
    for _ in 0..SCALE_ROUNDS {
        for &w in &[1u32, 2, 4, 8] {
            let (t, items) = run_flush_round(w, &positions);
            let slot = best.entry(w).or_insert(Duration::MAX);
            *slot = (*slot).min(t);
            if let Some(prev) = flushed.insert(w, items) {
                assert_eq!(prev, items, "flush output drifted between rounds");
            }
        }
    }
    // Byte-identity side check: any worker count flushes the same items.
    let base_items = flushed[&1];
    for (&w, &items) in &flushed {
        assert_eq!(
            items, base_items,
            "{w} workers flushed {items} items, sequential flushed {base_items}"
        );
    }

    let t1 = best[&1].as_secs_f64();
    for (&w, t) in &best {
        let secs = t.as_secs_f64();
        println!(
            "  workers {w}: flush {:>8.3} ms   {:>12.0} items/s   {:.2}x vs 1",
            secs * 1e3,
            base_items as f64 / secs,
            t1 / secs
        );
    }
    let speedup4 = t1 / best[&4].as_secs_f64();
    if cores >= 4 {
        if speedup4 < SCALE_FLOOR_AT_4 {
            matrix_core::emit_diag(
                "bench",
                "flush_scaling_floor_missed",
                &[
                    ("speedup_at_4", &format!("{speedup4:.3}")),
                    ("floor", &format!("{SCALE_FLOOR_AT_4:.1}")),
                ],
            );
            std::process::exit(1);
        }
        println!("flush scaling at 4 workers: {speedup4:.2}x >= {SCALE_FLOOR_AT_4:.1}x floor");
    } else {
        println!(
            "flush scaling floor skipped: {cores} core(s) < 4 — \
             checking bounded overhead instead"
        );
        let ratio = best[&4].as_secs_f64() / t1;
        if ratio > OVERHEAD_CEIL {
            matrix_core::emit_diag(
                "bench",
                "flush_parallel_overhead_exceeded",
                &[
                    ("ratio", &format!("{ratio:.3}")),
                    ("ceil", &format!("{OVERHEAD_CEIL:.1}")),
                ],
            );
            std::process::exit(1);
        }
        println!(
            "parallel flush overhead at 4 workers: {ratio:.2}x <= {OVERHEAD_CEIL:.1}x ceiling"
        );
    }
}

criterion_group!(benches, bench_fanout);

fn main() {
    benches();
    flush_scaling_gate();
}
