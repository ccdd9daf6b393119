//! Overhead gates: what the observability plane and the sharded flush
//! cost on the dissemination hot path, as pass/fail verdicts.
//!
//! Both gates drive one crowd — 2000 clients gaussian-packed (σ 150)
//! around the Figure-2 hotspot of an 800-unit world — and time their
//! arms in rotating rounds, keeping each arm's fastest round. Min-of-N
//! filters scheduler noise; a real regression stays over budget however
//! many rounds run.
//!
//! * **Telemetry**, at 1 and 4 flush workers: a game server carrying the
//!   crowd, every client moving every tick, the full pipeline (query →
//!   tier → predict → policy → delta) flushing on the tick cadence, with
//!   telemetry off, on, and on with 1/64 causal tracing. On may cost at
//!   most 2 % more than off, traced at most 5 %.
//! * **Flush scaling**: the pipeline's flush (stages 4–5: ranking,
//!   gathering, delta encoding, one finished list per receiver) alone,
//!   at 1, 2, 4 and 8 shards. On hosts with ≥ 4 cores, 4 workers must
//!   deliver ≥ 2.5× the single-worker throughput; below that the
//!   speed-up is physically unobservable, so the gate bounds 4 workers
//!   at ≤ 3× the single-worker time instead. Every worker count must
//!   flush the same number of items.

use matrix_core::{
    AutoTunerConfig, ClientId, ClientToGame, DisseminationPipeline, FlushPolicy, GameServerConfig,
    GameServerNode, Metric, PipelineConfig, Point, PredictorConfig, Rect, RingSet, ServerId,
    UpdateItem,
};
use matrix_metrics::Table;
use matrix_sim::{SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORLD: f64 = 800.0;
const CLIENTS: usize = 2000;
/// Crowd spread (σ) around the hotspot.
const SPREAD: f64 = 150.0;
/// Every arm runs at least this many rounds, even on a quiet machine.
const MIN_ROUNDS: usize = 4;
/// Extra rounds allowed before a breach is final: scheduler noise on a
/// busy host inflates single rounds by more than a budget, and min-of-N
/// only converges to the true floor with enough N.
const MAX_ROUNDS: usize = 12;

/// Telemetry-on flush CPU budget over telemetry-off.
const TELEMETRY_BUDGET: f64 = 0.02;
/// Telemetry on + 1/64 trace sampling budget over telemetry-off.
const TRACE_BUDGET: f64 = 0.05;
/// The sample rate the tracing arm runs (and E16 declares).
const TRACE_SAMPLE_RATE: u32 = 64;
/// Server ticks timed per telemetry round.
const TICKS: usize = 20;

/// The floor on hosts with ≥ 4 cores: 4-worker flush throughput ≥ 2.5×
/// single-worker.
const SCALE_FLOOR_AT_4: f64 = 2.5;
/// The ceiling below 4 cores: 4 workers may take at most 3× the
/// single-worker flush time (spawn/join overhead bounded, no
/// pathological contention).
const OVERHEAD_CEIL: f64 = 3.0;
/// The worker counts the scaling gate times.
const SCALE_WORKERS: [u32; 4] = [1, 2, 4, 8];
/// Events disseminated (untimed) between timed flushes.
const EVENTS_PER_CYCLE: usize = 256;
/// Timed flush cycles per round.
const CYCLES: usize = 24;

/// Fastest round of each telemetry arm at one flush-worker count.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryArms {
    /// Flush workers (shards) the game server ran.
    pub workers: u32,
    /// Telemetry off.
    pub off: Duration,
    /// Telemetry on.
    pub on: Duration,
    /// Telemetry on with 1/64 trace sampling.
    pub traced: Duration,
}

impl TelemetryArms {
    fn over(arm: Duration, off: Duration) -> f64 {
        (arm.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64()
    }

    /// Telemetry-on cost over off, as a fraction.
    pub fn overhead(&self) -> f64 {
        Self::over(self.on, self.off)
    }

    /// Traced cost over off, as a fraction.
    pub fn trace_overhead(&self) -> f64 {
        Self::over(self.traced, self.off)
    }

    fn check(&self) -> Result<(), String> {
        let workers = self.workers;
        if self.overhead() > TELEMETRY_BUDGET {
            return Err(format!(
                "telemetry at {workers} flush worker(s) costs {:+.2}% > {:.0}%",
                self.overhead() * 100.0,
                TELEMETRY_BUDGET * 100.0
            ));
        }
        if self.trace_overhead() > TRACE_BUDGET {
            return Err(format!(
                "1/{TRACE_SAMPLE_RATE} tracing at {workers} flush worker(s) costs {:+.2}% > {:.0}%",
                self.trace_overhead() * 100.0,
                TRACE_BUDGET * 100.0
            ));
        }
        Ok(())
    }
}

/// The flush-scaling gate's measurements.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// Hardware threads available to the process.
    pub cores: usize,
    /// Fastest flush time per worker count, single worker first.
    pub best: Vec<(u32, Duration)>,
    /// Items each timed round flushed, per worker count.
    pub items: Vec<(u32, u64)>,
}

impl Scaling {
    fn time_at(&self, workers: u32) -> Option<f64> {
        self.best
            .iter()
            .find(|(w, _)| *w == workers)
            .map(|(_, t)| t.as_secs_f64())
    }

    /// Single-worker flush time over the time at 4 workers.
    pub fn speedup_at_4(&self) -> f64 {
        match (self.time_at(1), self.time_at(4)) {
            (Some(t1), Some(t4)) => t1 / t4,
            _ => 0.0,
        }
    }

    fn check(&self) -> Result<(), String> {
        let (&(_, base), rest) = self.items.split_first().ok_or("no flush rounds")?;
        if let Some((w, items)) = rest.iter().find(|(_, items)| *items != base) {
            return Err(format!(
                "{w} flush workers flushed {items} items, a single worker {base}"
            ));
        }
        self.check_speedup()
    }

    fn check_speedup(&self) -> Result<(), String> {
        let speedup = self.speedup_at_4();
        if self.cores >= 4 && speedup < SCALE_FLOOR_AT_4 {
            return Err(format!(
                "flush at 4 workers is {speedup:.2}x the single worker < {SCALE_FLOOR_AT_4:.1}x"
            ));
        }
        if self.cores < 4 && 1.0 / speedup > OVERHEAD_CEIL {
            return Err(format!(
                "flush at 4 workers takes {:.2}x the single-worker time > {OVERHEAD_CEIL:.1}x",
                1.0 / speedup
            ));
        }
        Ok(())
    }
}

/// Everything `matrix-experiments overhead` measured.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// The telemetry arms at 1 and 4 flush workers.
    pub telemetry: Vec<TelemetryArms>,
    /// The flush-scaling rows.
    pub scaling: Scaling,
}

/// The crowd both gates drive.
fn crowd() -> Vec<Point> {
    let mut rng = SimRng::seed_from_u64(0x7E1E);
    let center = Point::new(WORLD * 0.6, WORLD * 0.5);
    (0..CLIENTS)
        .map(|_| {
            Point::new(
                rng.normal(center.x, SPREAD).clamp(0.0, WORLD),
                rng.normal(center.y, SPREAD).clamp(0.0, WORLD),
            )
        })
        .collect()
}

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD, WORLD)
}

/// Times every arm once per round, in rotation so drift (thermal,
/// cache, scheduler) hits them alike, and returns each arm's fastest
/// round. Stops once `settled` accepts the best times after at least
/// [`MIN_ROUNDS`] rounds, else after [`MAX_ROUNDS`].
fn best_of_rounds<A: Copy>(
    arms: &[A],
    mut time: impl FnMut(A) -> Duration,
    settled: impl Fn(&[Duration]) -> bool,
) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; arms.len()];
    for round in 0..MAX_ROUNDS {
        for (slot, &arm) in best.iter_mut().zip(arms) {
            *slot = (*slot).min(time(arm));
        }
        if round + 1 >= MIN_ROUNDS && settled(&best) {
            break;
        }
    }
    best
}

/// One timed telemetry round: every client moves each tick, the server
/// ticks (and flushes) after. Join and build cost stay outside the
/// timed section.
fn telemetry_round(
    telemetry: bool,
    trace_sample_rate: u32,
    workers: u32,
    crowd: &[Point],
) -> Duration {
    let cfg = GameServerConfig {
        telemetry,
        trace_sample_rate,
        flush_workers: workers,
        emit_updates: true,
        ..GameServerConfig::default()
    };
    let tick = cfg.tick;
    let mut game = GameServerNode::new(ServerId(1), cfg);
    game.register(world(), 100.0);
    for (k, &pos) in crowd.iter().enumerate() {
        game.on_client(
            SimTime::ZERO,
            ClientId(k as u64),
            ClientToGame::Join {
                pos,
                state_bytes: 256,
            },
        );
    }
    // One untimed warm-up tick settles grids and batch state.
    let mut now = SimTime::ZERO + tick;
    black_box(game.on_tick(now, 0.0));

    let t0 = Instant::now();
    let mut sink = 0usize;
    for step in 0..TICKS {
        for (k, p) in crowd.iter().enumerate() {
            let jitter = ((step + k) % 7) as f64 - 3.0;
            let pos = Point::new(
                (p.x + jitter).clamp(0.0, WORLD),
                (p.y - jitter).clamp(0.0, WORLD),
            );
            sink += game
                .on_client(now, ClientId(k as u64), ClientToGame::Move { pos })
                .len();
        }
        now += tick;
        sink += game.on_tick(now, 0.0).len();
    }
    black_box(sink);
    t0.elapsed()
}

fn telemetry_gate(workers: u32, crowd: &[Point]) -> TelemetryArms {
    let arms_of = |best: &[Duration]| TelemetryArms {
        workers,
        off: best[0],
        on: best[1],
        traced: best[2],
    };
    let best = best_of_rounds(
        &[(false, 0), (true, 0), (true, TRACE_SAMPLE_RATE)],
        |(telemetry, rate)| telemetry_round(telemetry, rate, workers, crowd),
        |best| arms_of(best).check().is_ok(),
    );
    arms_of(&best)
}

/// One timed scaling round: disseminate a burst (untimed; stages 1–3
/// run on the caller by design), then time the flush. Returns the
/// accumulated flush time and the items flushed.
fn flush_round(workers: u32, crowd: &[Point]) -> (Duration, u64) {
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
        DisseminationPipeline::new(world(), 32, rings, cfg).with_shards(workers);
    for (k, &pos) in crowd.iter().enumerate() {
        p.subscribe(k as u64, pos);
    }
    let mut flush_time = Duration::ZERO;
    let mut items = 0u64;
    let mut now = 0.0f64;
    for cycle in 0..CYCLES {
        for e in 0..EVENTS_PER_CYCLE {
            let k = (cycle * EVENTS_PER_CYCLE + e * 7) % crowd.len();
            let origin = crowd[k];
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
            |k: u64| Some(crowd[k as usize]),
            Vec::with_capacity,
            |acc: &mut Vec<_>, item, origin| acc.push((*item, origin)),
        );
        flush_time += t0.elapsed();
        items += outcome
            .batches
            .iter()
            .map(|b| b.acc.len() as u64)
            .sum::<u64>();
        black_box(&outcome);
    }
    (flush_time, items)
}

fn scaling_gate(crowd: &[Point]) -> Scaling {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_of = |best: &[Duration], items| Scaling {
        cores,
        best: SCALE_WORKERS
            .into_iter()
            .zip(best.iter().copied())
            .collect(),
        items,
    };
    let mut items = Vec::new();
    let best = best_of_rounds(
        &SCALE_WORKERS,
        |workers| {
            let (time, flushed) = flush_round(workers, crowd);
            items.push((workers, flushed));
            time
        },
        |best| scaling_of(best, Vec::new()).check_speedup().is_ok(),
    );
    scaling_of(&best, items)
}

/// Runs both gates: telemetry at 1 and 4 flush workers, then flush
/// scaling.
pub fn run() -> OverheadReport {
    let crowd = crowd();
    OverheadReport {
        telemetry: [1, 4].map(|w| telemetry_gate(w, &crowd)).to_vec(),
        scaling: scaling_gate(&crowd),
    }
}

fn ms(t: Duration) -> String {
    format!("{:.3}", t.as_secs_f64() * 1e3)
}

/// Renders every arm's best time against its baseline and budget.
pub fn table(report: &OverheadReport) -> Table {
    let mut t = Table::new(
        format!(
            "Overhead gates — {CLIENTS}-client hotspot (σ {SPREAD}), best of \
             {MIN_ROUNDS}–{MAX_ROUNDS} rounds, {} core(s)",
            report.scaling.cores
        ),
        &["arm", "workers", "best (ms)", "vs baseline", "bound"],
    );
    for arms in &report.telemetry {
        let w = arms.workers.to_string();
        t.push_row(&[
            "telemetry off".into(),
            w.clone(),
            ms(arms.off),
            "baseline".into(),
            String::new(),
        ]);
        t.push_row(&[
            "telemetry on".into(),
            w.clone(),
            ms(arms.on),
            format!("{:+.2}%", arms.overhead() * 100.0),
            format!("≤ {:.0}%", TELEMETRY_BUDGET * 100.0),
        ]);
        t.push_row(&[
            format!("traced 1/{TRACE_SAMPLE_RATE}"),
            w,
            ms(arms.traced),
            format!("{:+.2}%", arms.trace_overhead() * 100.0),
            format!("≤ {:.0}%", TRACE_BUDGET * 100.0),
        ]);
    }
    let scaling = &report.scaling;
    let t1 = scaling.time_at(1).unwrap_or(f64::NAN);
    for &(workers, best) in &scaling.best {
        let bound = match (workers, scaling.cores >= 4) {
            (4, true) => format!("≥ {SCALE_FLOOR_AT_4:.1}x"),
            (4, false) => format!("≥ {:.2}x", 1.0 / OVERHEAD_CEIL),
            _ => String::new(),
        };
        t.push_row(&[
            "flush".into(),
            workers.to_string(),
            ms(best),
            format!("{:.2}x", t1 / best.as_secs_f64()),
            bound,
        ]);
    }
    t
}

/// Both gates' verdict: every telemetry arm within budget, and flush
/// scaling at its floor (≥ 4 cores) or overhead ceiling (fewer) with
/// the same item count at every worker count.
pub fn verdict(report: &OverheadReport) -> Result<String, String> {
    for arms in &report.telemetry {
        arms.check()?;
    }
    report.scaling.check()?;
    let worst = |f: fn(&TelemetryArms) -> f64| {
        report
            .telemetry
            .iter()
            .map(f)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    Ok(format!(
        "overhead verdict: PASS — telemetry {:+.2}% (≤ {:.0}%), 1/{TRACE_SAMPLE_RATE} tracing \
         {:+.2}% (≤ {:.0}%) at worst; flush at 4 workers {:.2}x the single worker ({})",
        worst(TelemetryArms::overhead) * 100.0,
        TELEMETRY_BUDGET * 100.0,
        worst(TelemetryArms::trace_overhead) * 100.0,
        TRACE_BUDGET * 100.0,
        report.scaling.speedup_at_4(),
        if report.scaling.cores >= 4 {
            format!("floor {SCALE_FLOOR_AT_4:.1}x")
        } else {
            format!(
                "{} core(s): floor skipped, time ceiling {OVERHEAD_CEIL:.1}x",
                report.scaling.cores
            )
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn millis(m: u64) -> Duration {
        Duration::from_millis(m)
    }

    fn report(on: u64, traced: u64, cores: usize, t4: u64, items4: u64) -> OverheadReport {
        OverheadReport {
            telemetry: vec![TelemetryArms {
                workers: 4,
                off: millis(1000),
                on: millis(on),
                traced: millis(traced),
            }],
            scaling: Scaling {
                cores,
                best: vec![(1, millis(100)), (4, millis(t4))],
                items: vec![(1, 500), (4, items4)],
            },
        }
    }

    #[test]
    fn verdict_passes_timings_within_every_bound() {
        let line = verdict(&report(1015, 1040, 2, 250, 500)).unwrap();
        assert!(line.contains("PASS"), "{line}");
        assert!(verdict(&report(1015, 1040, 8, 35, 500)).is_ok());
    }

    #[test]
    fn verdict_rejects_over_budget_timings() {
        let cases = [
            (report(1030, 1040, 2, 250, 500), "telemetry at 4"),
            (report(1015, 1060, 2, 250, 500), "tracing at 4"),
            (report(1015, 1040, 8, 50, 500), "< 2.5x"),
            (report(1015, 1040, 2, 350, 500), "> 3.0x"),
            (report(1015, 1040, 2, 250, 499), "flushed 499 items"),
        ];
        for (report, why) in cases {
            let err = verdict(&report).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn rounds_stop_early_once_settled_and_keep_each_arms_best() {
        let mut calls = 0;
        let best = best_of_rounds(
            &[3u64, 5],
            |arm| {
                calls += 1;
                millis(arm * 10 + 10 - calls)
            },
            |_| true,
        );
        assert_eq!(calls, 2 * MIN_ROUNDS as u64);
        assert_eq!(best, vec![millis(33), millis(52)]);
    }
}
