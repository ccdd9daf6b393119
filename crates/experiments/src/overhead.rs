//! Overhead gate: what the observability plane costs on the
//! dissemination hot path, as a pass/fail verdict.
//!
//! The gate drives one crowd — 2000 clients gaussian-packed (σ 150)
//! around the Figure-2 hotspot of an 800-unit world — through a game
//! server, every client moving every tick, the full pipeline (query →
//! tier → predict → policy → delta) flushing on the tick cadence, with
//! telemetry off, on, and on with 1/64 causal tracing. On may cost at
//! most 2 % more than off, traced at most 5 %. The arms run in rotating
//! rounds and each keeps its fastest round: min-of-N filters scheduler
//! noise, and a real regression stays over budget however many rounds
//! run.

use matrix_core::{
    ClientId, ClientToGame, GameServerConfig, GameServerNode, Point, Rect, ServerId,
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

/// Fastest round of each telemetry arm.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryArms {
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
        if self.overhead() > TELEMETRY_BUDGET {
            return Err(format!(
                "telemetry costs {:+.2}% > {:.0}%",
                self.overhead() * 100.0,
                TELEMETRY_BUDGET * 100.0
            ));
        }
        if self.trace_overhead() > TRACE_BUDGET {
            return Err(format!(
                "1/{TRACE_SAMPLE_RATE} tracing costs {:+.2}% > {:.0}%",
                self.trace_overhead() * 100.0,
                TRACE_BUDGET * 100.0
            ));
        }
        Ok(())
    }
}

/// The crowd the gate drives.
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
fn telemetry_round(telemetry: bool, trace_sample_rate: u32, crowd: &[Point]) -> Duration {
    let cfg = GameServerConfig {
        telemetry,
        trace_sample_rate,
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

/// Runs the gate: each telemetry arm's fastest round.
pub fn run() -> TelemetryArms {
    let crowd = crowd();
    let arms_of = |best: &[Duration]| TelemetryArms {
        off: best[0],
        on: best[1],
        traced: best[2],
    };
    let best = best_of_rounds(
        &[(false, 0), (true, 0), (true, TRACE_SAMPLE_RATE)],
        |(telemetry, rate)| telemetry_round(telemetry, rate, &crowd),
        |best| arms_of(best).check().is_ok(),
    );
    arms_of(&best)
}

fn ms(t: Duration) -> String {
    format!("{:.3}", t.as_secs_f64() * 1e3)
}

/// Renders every arm's best time against the baseline and its budget.
pub fn table(arms: &TelemetryArms) -> Table {
    let mut t = Table::new(
        format!(
            "Overhead gate — {CLIENTS}-client hotspot (σ {SPREAD}), best of \
             {MIN_ROUNDS}–{MAX_ROUNDS} rounds"
        ),
        &["arm", "best (ms)", "vs baseline", "bound"],
    );
    t.push_row(&[
        "telemetry off".into(),
        ms(arms.off),
        "baseline".into(),
        String::new(),
    ]);
    t.push_row(&[
        "telemetry on".into(),
        ms(arms.on),
        format!("{:+.2}%", arms.overhead() * 100.0),
        format!("≤ {:.0}%", TELEMETRY_BUDGET * 100.0),
    ]);
    t.push_row(&[
        format!("traced 1/{TRACE_SAMPLE_RATE}"),
        ms(arms.traced),
        format!("{:+.2}%", arms.trace_overhead() * 100.0),
        format!("≤ {:.0}%", TRACE_BUDGET * 100.0),
    ]);
    t
}

/// The gate's verdict: every telemetry arm within its budget.
pub fn verdict(arms: &TelemetryArms) -> Result<String, String> {
    arms.check()?;
    Ok(format!(
        "overhead verdict: PASS — telemetry {:+.2}% (≤ {:.0}%), 1/{TRACE_SAMPLE_RATE} tracing \
         {:+.2}% (≤ {:.0}%)",
        arms.overhead() * 100.0,
        TELEMETRY_BUDGET * 100.0,
        arms.trace_overhead() * 100.0,
        TRACE_BUDGET * 100.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn millis(m: u64) -> Duration {
        Duration::from_millis(m)
    }

    fn arms(on: u64, traced: u64) -> TelemetryArms {
        TelemetryArms {
            off: millis(1000),
            on: millis(on),
            traced: millis(traced),
        }
    }

    #[test]
    fn verdict_passes_timings_within_every_bound() {
        let line = verdict(&arms(1015, 1040)).unwrap();
        assert!(line.contains("PASS"), "{line}");
    }

    #[test]
    fn verdict_rejects_over_budget_timings() {
        let cases = [
            (arms(1030, 1040), "telemetry costs +3.00%"),
            (arms(1015, 1060), "tracing costs +6.00%"),
        ];
        for (arms, why) in cases {
            let err = verdict(&arms).unwrap_err();
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
