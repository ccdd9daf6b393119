//! E14 — tiered dissemination: multi-ring AOI + grid auto-tuning on the
//! dense-crowd workload.
//!
//! E12 showed what batching, budgets and delta compression do for a
//! dense crowd; every one of those levers still treats the farthest
//! visible entity exactly like the nearest. This experiment measures the
//! next lever: grading the AOI into concentric rings (near = every
//! event, outer tiers deterministically sampled) so the periphery of the
//! crowd — most of its area, and therefore most of its bytes — updates
//! at a fraction of the rate while the near ring stays at full fidelity.
//!
//! Three configurations replay the same seeded hotspot crowd on one
//! static server:
//!
//! * **binary** — the ring *boundaries* are configured but every rate is
//!   1, i.e. sampling off. Receiver set and bytes are identical to the
//!   plain binary vision radius (property-tested in
//!   `tests/interest_properties.rs`); the tier accounting just lets this
//!   row report its near-ring delivery for the staleness comparison.
//! * **rings** — the recommended tiers (`GameSpec::ring_tiers`): near
//!   35% of the radius at rate 1, mid 65% at 1-in-2, far 100% at 1-in-4.
//! * **rings+tuner** — the same tiers plus density-driven
//!   `cells_per_axis` auto-tuning, showing the CPU side: the tuner
//!   re-picks the grid resolution for the observed crowd instead of
//!   trusting the static default.
//!
//! The enforced verdict (CI runs `matrix-experiments rings --smoke`):
//! the ringed run must cut `UpdateBatch` bytes-on-wire by **≥ 25%**
//! versus the binary row *at unchanged near-ring staleness* — the near
//! ring is never sampled, so its delivered-item count must not drop
//! (under budget pressure it can only rise, since sampled-out far items
//! no longer compete for the per-flush caps).

use crate::harness::{Cluster, ClusterConfig, ClusterReport};
use matrix_games::{GameSpec, Placement, PopulationEvent, WorkloadSchedule};
use matrix_metrics::Table;
use matrix_sim::SimTime;

/// Scenario scale: the full run and a CI smoke variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Crowd size on the lone server.
    pub crowd: u32,
    /// Run horizon in seconds.
    pub horizon_secs: u64,
}

impl Scale {
    /// The full experiment.
    pub fn full() -> Scale {
        Scale {
            crowd: 1_500,
            horizon_secs: 20,
        }
    }

    /// A fast variant for CI (`matrix-experiments rings --smoke`).
    pub fn smoke() -> Scale {
        Scale {
            crowd: 300,
            horizon_secs: 10,
        }
    }
}

/// Which dissemination configuration a row ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ring boundaries configured, every rate 1 (binary-radius bytes).
    Binary,
    /// The recommended sampled tiers.
    Rings,
    /// Sampled tiers plus grid auto-tuning.
    RingsTuned,
}

impl Mode {
    fn label(&self) -> &'static str {
        match self {
            Mode::Binary => "binary (rates 1)",
            Mode::Rings => "rings 1/2/4",
            Mode::RingsTuned => "rings + tuner",
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RingsRow {
    /// The configuration.
    pub mode: Mode,
    /// Full cluster report.
    pub report: ClusterReport,
    /// Wall-clock cost of the whole replay (the CPU column; identical
    /// workload, so differences are the pipeline's doing).
    pub wall_ms: u128,
}

/// Builds the single-server dense-crowd configuration for one mode.
pub fn config(spec: &GameSpec, mode: Mode, seed: u64) -> ClusterConfig {
    let mut spec = spec.clone();
    spec.update_rate_hz = spec.update_rate_hz.min(2.0);
    let (radii, rates) = spec.ring_tiers();
    let mut cfg = ClusterConfig::static_partition(spec, 1);
    cfg.seed = seed;
    match mode {
        // Same boundaries, sampling off: byte-identical to the plain
        // binary radius, but with per-tier delivery accounting.
        Mode::Binary => cfg.game.set_rings(&radii, &[]),
        _ => cfg.game.set_rings(&radii, &rates),
    }
    cfg.game.grid_autotune = mode == Mode::RingsTuned;
    // Delivered batches are the point, not queue drops: unbounded
    // capacity, real per-client emission (the E12 arrangement).
    cfg.queue_capacity = None;
    cfg.game.emit_updates = true;
    // The per-flush caps off: they are E12's lever (graceful degradation
    // under a fixed budget, at the price of staleness — the preset's 64
    // cap defers ~80% of this crowd's items). Ring tiering attacks the
    // same periphery *without* a budget: what ships is decided by
    // relevance tier, not by truncation, so the measured reduction is
    // the AOI grading itself. The two levers compose in production.
    cfg.game.max_updates_per_flush = 0;
    cfg.game.client_budget_bytes = 0;
    cfg
}

/// Runs one mode of the scenario.
pub fn run_one(spec: &GameSpec, mode: Mode, seed: u64, scale: Scale) -> RingsRow {
    let cfg = config(spec, mode, seed);
    let horizon = SimTime::from_secs(scale.horizon_secs);
    let hotspot = cfg.spec.hotspot_a();
    let spread = cfg.spec.radius * 0.5;
    let schedule = WorkloadSchedule::new(horizon).at(
        SimTime::from_secs(0),
        PopulationEvent::Join {
            n: scale.crowd,
            placement: Placement::Hotspot {
                center: hotspot,
                spread,
            },
        },
    );
    let started = std::time::Instant::now();
    let report = Cluster::new(cfg, schedule).run();
    RingsRow {
        mode,
        report,
        wall_ms: started.elapsed().as_millis(),
    }
}

/// Runs all three modes on the BzFlag crowd.
pub fn run(seed: u64, scale: Scale) -> Vec<RingsRow> {
    let spec = GameSpec::bzflag();
    vec![
        run_one(&spec, Mode::Binary, seed, scale),
        run_one(&spec, Mode::Rings, seed, scale),
        run_one(&spec, Mode::RingsTuned, seed, scale),
    ]
}

/// Renders the comparison table.
pub fn table(rows: &[RingsRow]) -> Table {
    let baseline_bytes = rows
        .iter()
        .find(|r| r.mode == Mode::Binary)
        .map(|r| r.report.game.batch_bytes)
        .unwrap_or(0);
    let mut t = Table::new(
        "E14 — tiered dissemination on the dense crowd (multi-ring AOI + grid auto-tuning)",
        &[
            "mode", "fanned", "sampled", "near", "mid", "far", "batch MB", "Δbytes", "stale%",
            "retunes", "wall ms",
        ],
    );
    for row in rows {
        let r = &row.report;
        let items = r.game.keyframe_items + r.game.delta_items;
        let relevant = items + r.game.updates_rate_limited;
        let stale = if relevant == 0 {
            0.0
        } else {
            100.0 * r.game.updates_rate_limited as f64 / relevant as f64
        };
        let delta = if baseline_bytes == 0 || row.mode == Mode::Binary {
            "—".into()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (r.game.batch_bytes as f64 - baseline_bytes as f64) / baseline_bytes as f64
            )
        };
        t.push_row(&[
            row.mode.label().into(),
            format!("{}", r.game.updates_fanned),
            format!("{}", r.game.updates_sampled_out),
            format!("{}", r.game.ring_items[0]),
            format!("{}", r.game.ring_items[1]),
            format!("{}", r.game.ring_items[2]),
            format!("{:.1}", r.game.batch_bytes as f64 / 1e6),
            delta,
            format!("{stale:.0}"),
            format!("{}", r.game.grid_retunes),
            format!("{}", row.wall_ms),
        ]);
    }
    t
}

/// One-line verdict against the acceptance bounds, printed under the
/// table and asserted by the smoke runner in CI: ≥ 25% bytes-on-wire
/// reduction at unchanged (or better) near-ring delivery.
pub fn verdict(rows: &[RingsRow]) -> Result<String, String> {
    let binary = rows
        .iter()
        .find(|r| r.mode == Mode::Binary)
        .ok_or("no binary row")?;
    let rings = rows
        .iter()
        .find(|r| r.mode == Mode::Rings)
        .ok_or("no rings row")?;
    if binary.report.game.batch_bytes == 0 {
        return Err("binary row shipped no bytes".into());
    }
    if binary.report.game.updates_sampled_out != 0 {
        return Err("binary row sampled events out — rates were not 1".into());
    }
    if rings.report.game.updates_sampled_out == 0 {
        return Err("ringed row sampled nothing — tiers were not in effect".into());
    }
    let reduction =
        1.0 - rings.report.game.batch_bytes as f64 / binary.report.game.batch_bytes as f64;
    if reduction < 0.25 {
        return Err(format!(
            "bytes-on-wire reduction {:.1}% < 25% ({} -> {} bytes)",
            reduction * 100.0,
            binary.report.game.batch_bytes,
            rings.report.game.batch_bytes
        ));
    }
    // Near-ring staleness must not worsen: ring 0 is never sampled, so
    // its delivered count can only be depressed by a regression.
    if rings.report.game.ring_items[0] < binary.report.game.ring_items[0] {
        return Err(format!(
            "near-ring delivery dropped: {} < {}",
            rings.report.game.ring_items[0], binary.report.game.ring_items[0]
        ));
    }
    let tuned = rows.iter().find(|r| r.mode == Mode::RingsTuned);
    let retunes = tuned.map(|r| r.report.game.grid_retunes).unwrap_or(0);
    Ok(format!(
        "rings OK: -{:.1}% bytes-on-wire at unchanged near-ring delivery \
         ({} near items both ways, {} far events sampled out, {} grid retunes in tuned mode)",
        reduction * 100.0,
        rings.report.game.ring_items[0],
        rings.report.game.updates_sampled_out,
        retunes
    ))
}

/// CSV artefact.
pub fn to_csv(rows: &[RingsRow]) -> String {
    let mut out = String::from(
        "mode,updates_fanned,updates_sampled_out,ring0_items,ring1_items,ring2_items,\
         batch_bytes,updates_rate_limited,grid_retunes,wall_ms\n",
    );
    for row in rows {
        let r = &row.report;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            row.mode.label(),
            r.game.updates_fanned,
            r.game.updates_sampled_out,
            r.game.ring_items[0],
            r.game.ring_items[1],
            r.game.ring_items[2],
            r.game.batch_bytes,
            r.game.updates_rate_limited,
            r.game.grid_retunes,
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
        let rows = run(42, Scale::smoke());
        let verdict = verdict(&rows).expect("rings acceptance");
        assert!(verdict.contains("rings OK"), "{verdict}");
        // The tuned row actually retuned: a 300-client crowd on an
        // 800×800 world wants a much coarser grid than the static 32.
        let tuned = rows.iter().find(|r| r.mode == Mode::RingsTuned).unwrap();
        assert!(
            tuned.report.game.grid_retunes > 0,
            "the density tuner must re-pick the resolution"
        );
        // Tiering only decimates the periphery: the near ring is never
        // sampled, so for the same seed the ringed run delivers at least
        // the binary run's near items (more, when far items no longer
        // compete for the per-flush caps).
        let binary = rows.iter().find(|r| r.mode == Mode::Binary).unwrap();
        let rings = rows.iter().find(|r| r.mode == Mode::Rings).unwrap();
        assert!(
            rings.report.game.ring_items[0] >= binary.report.game.ring_items[0],
            "near ring regressed: {} < {}",
            rings.report.game.ring_items[0],
            binary.report.game.ring_items[0]
        );
    }
}
