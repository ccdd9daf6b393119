//! E15 — predictive dissemination: dead-reckoning suppression on the
//! high-velocity racer workload.
//!
//! E14 graded the AOI into rings and cut the periphery's update *rate*;
//! every relevant movement event inside a ring was still shipped at
//! that ring's rate. Dead reckoning is the next multiplier: model each
//! entity's velocity, let receivers *extrapolate* between updates, and
//! transmit only when the receiver's prediction would drift past the
//! ring's error budget. Rate grading becomes **accuracy** grading — the
//! near ring still gets every event, while an outer-ring entity on a
//! straight run may ship a handful of bases per leg and be rendered
//! from extrapolation the rest of the time.
//!
//! The workload is the synthetic **racer** spec: fast vehicles
//! (120 u/s) on long straight waypoint runs at 10 Hz in a compact
//! world — the motion-model best case racing and vehicle games actually
//! present. Three configurations replay the same seeded crowd on one
//! static server with per-event flushes (`batch_interval = 0`, the
//! regime in which the suppression bound is exact — see below):
//!
//! * **rings** — the PR 4 tiered pipeline: recommended ring tiers with
//!   sampled outer rings (1 / 1-in-2 / 1-in-4), prediction off. This is
//!   the baseline the verdict measures against.
//! * **predict** — the same ring boundaries with sampling *off*
//!   (every-event rates) and dead reckoning on: the per-ring
//!   `error_budgets` decide what ships, so fidelity is graded by
//!   *error*, not by decimation.
//! * **predict+strip** — prediction plus per-ring payload degradation:
//!   the outermost ring ships position-only items
//!   (`position_only_ring`), composing the two outer-ring levers.
//!
//! Alongside the node's own counters, the runner mirrors **every
//! receiver**: a [`ClientSession`] per client — the receive side a live
//! client runs — applies exactly what the server emits, and at every
//! movement event the harness measures the distance between the
//! receiver's extrapolation and the entity's true (wire) position,
//! bucketed by the receiver's vision ring. Because sender-side
//! suppression simulates the receiver with the same arithmetic
//! (`matrix_predict::extrapolate`) over the same bases, the measured
//! receiver error at every suppressed event equals the sender's
//! simulated error **bit-for-bit** — with per-event flushes the
//! per-ring error budget is therefore a hard bound, and the experiment
//! verifies it end-to-end rather than assuming it. (With a
//! coalescing `batch_interval`, admitted items wait up to one interval
//! in the batcher and the budget holds *at admission time* — the same
//! staleness window batching always had.)
//!
//! The enforced verdict (CI runs `matrix-experiments predict --smoke`):
//! the predict run must cut `UpdateBatch` bytes-on-wire by **≥ 30%**
//! versus the rings baseline, with the **maximum** receiver position
//! error within every ring's configured budget (max bounds p99, which
//! the table reports) and near-ring delivery unchanged — the near
//! ring's budget is pinned to 0, so prediction never touches it.

use matrix_core::{
    quantize, ClientId, ClientSession, ClientToGame, GameAction, GameServerConfig, GameServerNode,
    GameStats, RingSet, ServerId, MAX_RINGS,
};
use matrix_games::{ClientPop, GameSpec, Placement, PopulationEvent};
use matrix_geometry::Point;
use matrix_metrics::{Histogram, Table};
use matrix_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Scenario scale: the full run and a CI smoke variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Racer count on the lone server.
    pub racers: u32,
    /// Run horizon in seconds.
    pub horizon_secs: u64,
}

impl Scale {
    /// The full experiment.
    pub fn full() -> Scale {
        Scale {
            racers: 300,
            horizon_secs: 20,
        }
    }

    /// A fast variant for CI (`matrix-experiments predict --smoke`).
    pub fn smoke() -> Scale {
        Scale {
            racers: 120,
            horizon_secs: 8,
        }
    }
}

/// Which dissemination configuration a row ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The PR 4 tiered pipeline: sampled outer rings, prediction off.
    Rings,
    /// Every-event rings plus dead-reckoning suppression.
    Predict,
    /// Prediction plus position-only items in the outermost ring.
    PredictStrip,
}

impl Mode {
    fn label(&self) -> &'static str {
        match self {
            Mode::Rings => "rings 1/2/4",
            Mode::Predict => "predict",
            Mode::PredictStrip => "predict+strip",
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct PredictRow {
    /// The configuration.
    pub mode: Mode,
    /// The node's dissemination counters after the replay.
    pub stats: GameStats,
    /// Receiver-measured position error per vision ring, in
    /// milli-world-units (×1000, so the log buckets resolve sub-unit
    /// errors): extrapolation vs true wire position at every movement
    /// event, mirrored through real `ClientSession`s.
    pub ring_error_mu: Vec<Histogram>,
    /// Wall-clock cost of the whole replay.
    pub wall_ms: u128,
}

impl PredictRow {
    /// p99 receiver error in a ring, world units.
    pub fn p99(&self, ring: usize) -> Option<f64> {
        self.ring_error_mu[ring].p99().map(|v| v / 1e3)
    }

    /// Maximum receiver error in a ring, world units (exact).
    pub fn max_err(&self, ring: usize) -> Option<f64> {
        self.ring_error_mu[ring].max().map(|v| v / 1e3)
    }
}

/// Builds the game-server configuration for one mode: the racer's
/// recommended ring tiers, per-event flushes, caps off (E14's
/// arrangement — the AOI machinery, not the budget limiter, decides
/// what ships).
pub fn server_config(spec: &GameSpec, mode: Mode) -> GameServerConfig {
    let (radii, rates) = spec.ring_tiers();
    let mut game = GameServerConfig {
        emit_updates: true,
        batch_interval: SimDuration::from_millis(0),
        max_updates_per_flush: 0,
        predict: mode != Mode::Rings,
        velocity_quantum: spec.velocity_quantum(),
        position_only_ring: match mode {
            Mode::PredictStrip => (radii.len() as u8).saturating_sub(1),
            _ => 0,
        },
        ..spec.game_config()
    };
    match mode {
        // The PR 4 baseline: outer tiers decimated by rate.
        Mode::Rings => game.set_rings(&radii, &rates),
        // Prediction grades accuracy instead: every-event rates, the
        // error budgets decide what ships.
        Mode::Predict | Mode::PredictStrip => {
            game.set_rings(&radii, &vec![1; radii.len()]);
            game.set_error_budgets(&spec.recommended_error_budgets());
        }
    }
    game
}

/// Runs one mode of the scenario, mirroring every receiver's
/// extrapolation state to measure the real position error.
pub fn run_one(spec: &GameSpec, mode: Mode, seed: u64, scale: Scale) -> PredictRow {
    let started = std::time::Instant::now();
    let gcfg = server_config(spec, mode);
    let rings = RingSet::from_tiers(&gcfg.ring_radii, &gcfg.ring_sample_rates);
    let mut node = GameServerNode::new(ServerId(1), gcfg).with_fanout();
    node.register(spec.world, spec.radius);

    // The seeded racer crowd: uniform placement, waypoint movement at
    // racer speed. Identical across modes for the same seed.
    let mut pop = ClientPop::new(spec.clone(), seed);
    let ids = pop.apply(
        PopulationEvent::Join {
            n: scale.racers,
            placement: Placement::Uniform,
        },
        ServerId(1),
    );
    let mut positions: BTreeMap<ClientId, Point> = BTreeMap::new();
    let mut mirrors: BTreeMap<ClientId, ClientSession> = BTreeMap::new();
    for &id in &ids {
        let pos = pop.get(id).expect("just joined").walker.pos;
        positions.insert(id, pos);
        mirrors.insert(id, ClientSession::new(ServerId(1)));
        node.on_client(
            SimTime::ZERO,
            id,
            ClientToGame::Join {
                pos,
                state_bytes: 0,
            },
        );
    }

    let mut ring_error_mu: Vec<Histogram> = (0..MAX_RINGS).map(|_| Histogram::new()).collect();
    let dt = spec.update_interval_secs();
    let steps = (scale.horizon_secs as f64 / dt).round() as u64;
    let mut now = SimTime::ZERO;
    for _ in 0..steps {
        now += SimDuration::from_secs_f64(dt);
        for &id in &ids {
            let Some((pos, _)) = pop.step(id, dt) else {
                continue;
            };
            positions.insert(id, pos);
            let wire = quantize(pos, gcfg.origin_quantum);
            let actions = node.on_client(now, id, ClientToGame::Move { pos });
            // Each receiver applies what it was sent, as a live client
            // does (untraced, so it never asks to send anything back).
            for a in actions {
                if let GameAction::ToClient(cid, msg) = a {
                    let mirror = mirrors.get_mut(&cid).expect("known receiver");
                    mirror.apply(now, &msg, &mut Vec::new());
                }
            }
            // Measure: where does every in-AOI receiver believe this
            // entity is right now, versus where it actually is?
            for (&rid, mirror) in &mirrors {
                if rid == id {
                    continue;
                }
                let Some(predicted) = mirror.extrapolated(id.0, now) else {
                    continue; // never seen this entity
                };
                let d = positions[&rid].distance_by(pos, spec.metric);
                if let Some(ring) = rings.ring_of(d) {
                    ring_error_mu[ring as usize].record(predicted.distance(wire) * 1e3);
                }
            }
        }
    }

    PredictRow {
        mode,
        stats: *node.stats(),
        ring_error_mu,
        wall_ms: started.elapsed().as_millis(),
    }
}

/// Runs all three modes on the racer crowd.
pub fn run(seed: u64, scale: Scale) -> Vec<PredictRow> {
    let spec = GameSpec::racer();
    vec![
        run_one(&spec, Mode::Rings, seed, scale),
        run_one(&spec, Mode::Predict, seed, scale),
        run_one(&spec, Mode::PredictStrip, seed, scale),
    ]
}

/// Renders the comparison table.
pub fn table(rows: &[PredictRow]) -> Table {
    let baseline_bytes = rows
        .iter()
        .find(|r| r.mode == Mode::Rings)
        .map(|r| r.stats.batch_bytes)
        .unwrap_or(0);
    let mut t = Table::new(
        "E15 — predictive dissemination on the racer crowd (dead reckoning vs sampled rings)",
        &[
            "mode",
            "delivered",
            "suppr",
            "near",
            "batch MB",
            "Δbytes",
            "p99 err",
            "max err",
            "stripped",
            "wall ms",
        ],
    );
    for row in rows {
        let s = &row.stats;
        let delta = if baseline_bytes == 0 || row.mode == Mode::Rings {
            "—".into()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (s.batch_bytes as f64 - baseline_bytes as f64) / baseline_bytes as f64
            )
        };
        // The outermost configured ring carries the loosest budget and
        // therefore the largest errors; report its distribution.
        let outer = row
            .ring_error_mu
            .iter()
            .rposition(|h| !h.is_empty())
            .unwrap_or(0);
        t.push_row(&[
            row.mode.label().into(),
            format!("{}", s.updates_fanned),
            format!("{}", s.updates_suppressed),
            format!("{}", s.ring_items[0]),
            format!("{:.1}", s.batch_bytes as f64 / 1e6),
            delta,
            row.p99(outer).map_or("—".into(), |v| format!("{v:.2}u")),
            row.max_err(outer)
                .map_or("—".into(), |v| format!("{v:.2}u")),
            format!("{}", s.payloads_stripped),
            format!("{}", row.wall_ms),
        ]);
    }
    t
}

/// One-line verdict against the acceptance bounds, printed under the
/// table and asserted by the smoke runner in CI: ≥ 30% bytes-on-wire
/// reduction versus the rings baseline, receiver error within every
/// ring's budget, near-ring delivery unchanged.
pub fn verdict(rows: &[PredictRow], spec: &GameSpec) -> Result<String, String> {
    let rings = rows
        .iter()
        .find(|r| r.mode == Mode::Rings)
        .ok_or("no rings row")?;
    let predict = rows
        .iter()
        .find(|r| r.mode == Mode::Predict)
        .ok_or("no predict row")?;
    if rings.stats.batch_bytes == 0 {
        return Err("rings row shipped no bytes".into());
    }
    if rings.stats.updates_suppressed != 0 {
        return Err("rings row suppressed updates — prediction was not off".into());
    }
    if predict.stats.updates_suppressed == 0 {
        return Err("predict row suppressed nothing — dead reckoning was not in effect".into());
    }
    let reduction = 1.0 - predict.stats.batch_bytes as f64 / rings.stats.batch_bytes as f64;
    if reduction < 0.30 {
        return Err(format!(
            "bytes-on-wire reduction {:.1}% < 30% ({} -> {} bytes)",
            reduction * 100.0,
            rings.stats.batch_bytes,
            predict.stats.batch_bytes
        ));
    }
    // The error bound: in every ring with a budget, the *maximum*
    // receiver-measured error (exact, not bucket-approximated) must sit
    // within the configured budget — max bounds p99.
    let budgets = spec.recommended_error_budgets();
    for row in rows.iter().filter(|r| r.mode != Mode::Rings) {
        for (ring, budget) in budgets.iter().enumerate() {
            let Some(max_err) = row.max_err(ring) else {
                continue;
            };
            if *budget > 0.0 && max_err > budget + 1e-9 {
                return Err(format!(
                    "{}: ring {ring} receiver error {max_err:.3} exceeds budget {budget:.3}",
                    row.mode.label()
                ));
            }
        }
    }
    // Near-ring delivery unchanged: the near budget is pinned to 0 and
    // both modes run every-event near rings over the same seeded trace.
    if predict.stats.ring_items[0] < rings.stats.ring_items[0] {
        return Err(format!(
            "near-ring delivery dropped: {} < {}",
            predict.stats.ring_items[0], rings.stats.ring_items[0]
        ));
    }
    let mean = if predict.stats.updates_suppressed == 0 {
        0.0
    } else {
        predict.stats.pred_error_sum / predict.stats.updates_suppressed as f64
    };
    Ok(format!(
        "predict OK: -{:.1}% bytes-on-wire vs sampled rings at bounded receiver error \
         ({} suppressed, mean absorbed error {:.2}u, max {:.2}u ≤ outer budget {:.2}u, \
         {} near items both ways)",
        reduction * 100.0,
        predict.stats.updates_suppressed,
        mean,
        predict.stats.pred_error_max,
        budgets.last().copied().unwrap_or(0.0),
        predict.stats.ring_items[0],
    ))
}

/// CSV artefact.
pub fn to_csv(rows: &[PredictRow]) -> String {
    let mut out = String::from(
        "mode,updates_fanned,updates_suppressed,ring0_items,batch_bytes,\
         payloads_stripped,pred_error_mean,pred_error_max,outer_p99,outer_max,wall_ms\n",
    );
    for row in rows {
        let s = &row.stats;
        let mean = if s.updates_suppressed == 0 {
            0.0
        } else {
            s.pred_error_sum / s.updates_suppressed as f64
        };
        let outer = row
            .ring_error_mu
            .iter()
            .rposition(|h| !h.is_empty())
            .unwrap_or(0);
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{}\n",
            row.mode.label(),
            s.updates_fanned,
            s.updates_suppressed,
            s.ring_items[0],
            s.batch_bytes,
            s.payloads_stripped,
            mean,
            s.pred_error_max,
            row.p99(outer).unwrap_or(0.0),
            row.max_err(outer).unwrap_or(0.0),
            row.wall_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_meets_the_acceptance_bounds() {
        let spec = GameSpec::racer();
        let rows = run(42, Scale::smoke());
        let verdict = verdict(&rows, &spec).expect("predict acceptance");
        assert!(verdict.contains("predict OK"), "{verdict}");
        // The strip row composes: strictly fewer payload bytes than
        // plain predict, same suppression machinery.
        let predict = rows.iter().find(|r| r.mode == Mode::Predict).unwrap();
        let strip = rows.iter().find(|r| r.mode == Mode::PredictStrip).unwrap();
        assert!(strip.stats.payloads_stripped > 0);
        assert!(
            strip.stats.batch_bytes < predict.stats.batch_bytes,
            "position-only far items must save further bytes: {} vs {}",
            strip.stats.batch_bytes,
            predict.stats.batch_bytes
        );
    }
}
