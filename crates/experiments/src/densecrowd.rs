//! E12 — dense-crowd interest management on a single server.
//!
//! The paper's split machinery caps how many clients one server hosts,
//! but the per-server fan-out cost still decides *where* that cap sits:
//! with a linear receiver scan, one event near a crowd of `n` costs
//! `O(n)` and a tick of the crowd costs `O(n²)`. This experiment pins the
//! whole crowd onto one non-adaptive server — thousands of clients, all
//! attracted to one hotspot — and reports what the adaptive dissemination
//! pipeline (spatial-hash grid → update batching → priority/rate
//! limiting → per-client delta compression) does under the worst case
//! the middleware can see.
//!
//! Alongside the fan-out/batching counters, the report covers
//! **bandwidth** — client-bound bytes, the share of items shipped as
//! deltas, and the bytes delta encoding saved versus the absolute-origin
//! wire format — and **staleness** — the fraction of relevant updates
//! the per-client rate limiter merged/dropped to keep each flush inside
//! `max_updates_per_flush` / `client_budget_bytes` (those events are
//! *deferred*, re-described by a later flush if still relevant, rather
//! than queued without bound). The grid's receiver sets are
//! property-tested against a linear scan in `tests/interest_properties.rs`;
//! this run shows the subsystem working end to end under the full protocol.

use crate::harness::{Cluster, ClusterConfig, ClusterReport};
use matrix_games::{GameSpec, Placement, PopulationEvent, WorkloadSchedule};
use matrix_metrics::Table;
use matrix_sim::SimTime;

/// Result of one dense-crowd run.
#[derive(Debug, Clone)]
pub struct DenseCrowdRow {
    /// Crowd size.
    pub clients: u32,
    /// Per-client downlink budget in bytes per flush (0 = unlimited).
    pub budget_bytes: u32,
    /// Full cluster report.
    pub report: ClusterReport,
}

/// Run scale: full regenerates the paper-grade table, smoke is the CI
/// variant (`matrix-experiments dense --smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The largest crowd; the table also runs half and a quarter of it.
    pub max_crowd: u32,
    /// Run horizon in seconds.
    pub horizon_secs: u64,
}

impl Scale {
    /// The full experiment.
    pub fn full() -> Scale {
        Scale {
            max_crowd: 2000,
            horizon_secs: 20,
        }
    }

    /// A fast variant for CI.
    pub fn smoke() -> Scale {
        Scale {
            max_crowd: 300,
            horizon_secs: 10,
        }
    }
}

/// Builds the single-server dense-crowd configuration.
///
/// Adaptation is disabled (one static server) so the crowd cannot be
/// split away — the interest layer has to absorb the full fan-out.
pub fn config(spec: GameSpec, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::static_partition(spec, 1);
    cfg.seed = seed;
    // The point of the experiment is delivered batches, not queue drops:
    // give the lone server effectively unbounded capacity and emit real
    // per-client updates so the dissemination pipeline is exercised end
    // to end.
    cfg.queue_capacity = None;
    cfg.game.emit_updates = true;
    cfg
}

/// Runs the dense-crowd scenario for one crowd size, per-client
/// downlink budget (`0` = unlimited) and flush shard count.
pub fn run_one(
    spec: &GameSpec,
    clients: u32,
    budget_bytes: u32,
    flush_workers: u32,
    horizon_secs: u64,
    seed: u64,
) -> DenseCrowdRow {
    let mut spec = spec.clone();
    // Keep event volume tractable while still dense: moderate update rate.
    spec.update_rate_hz = spec.update_rate_hz.min(2.0);
    let horizon = SimTime::from_secs(horizon_secs);
    let schedule = WorkloadSchedule::new(horizon).at(
        SimTime::from_secs(0),
        PopulationEvent::Join {
            n: clients,
            placement: Placement::Hotspot {
                center: spec.hotspot_a(),
                spread: spec.radius * 0.5,
            },
        },
    );
    let mut cfg = config(spec, seed);
    cfg.game.client_budget_bytes = budget_bytes;
    cfg.game.flush_workers = flush_workers;
    let report = Cluster::new(cfg, schedule).run();
    DenseCrowdRow {
        clients,
        budget_bytes,
        report,
    }
}

/// Runs the scenario across crowd sizes (2k+ exercises the acceptance
/// target at full scale), plus a tight-downlink variant of the largest
/// crowd showing the rate limiter degrading gracefully. `flush_workers`
/// shards the lone server's flush; by the shard-count invariance
/// property the table must come out identical for any value — which is
/// exactly what the CI smoke run at 4 workers pins.
pub fn run(seed: u64, scale: Scale, flush_workers: u32) -> Vec<DenseCrowdRow> {
    let spec = GameSpec::bzflag();
    let max = scale.max_crowd;
    let row = |n, budget| run_one(&spec, n, budget, flush_workers, scale.horizon_secs, seed);
    let mut rows: Vec<DenseCrowdRow> = [max / 4, max / 2, max]
        .into_iter()
        .map(|n| row(n, 0))
        .collect();
    // The same largest crowd on a 2 KiB-per-flush client downlink.
    rows.push(row(max, 2048));
    rows
}

/// E12's acceptance verdict: batched updates actually reach clients,
/// the steady stream is delta-dominated with accounted savings, and the
/// static single server never split. Checked over every row, so the
/// verdict holds at any crowd size and under the budgeted downlink.
pub fn verdict(rows: &[DenseCrowdRow]) -> Result<String, String> {
    if rows.is_empty() {
        return Err("no rows".into());
    }
    for row in rows {
        let r = &row.report;
        let label = format!("{} clients, budget {}B", row.clients, row.budget_bytes);
        if r.update_batches_delivered == 0 {
            return Err(format!("{label}: no update batches delivered"));
        }
        if r.game.delta_items <= r.game.keyframe_items {
            return Err(format!(
                "{label}: stream not delta-dominated ({} deltas vs {} keyframes)",
                r.game.delta_items, r.game.keyframe_items
            ));
        }
        if r.game.delta_bytes_saved == 0 {
            return Err(format!("{label}: no delta savings accounted"));
        }
        if r.splits != 0 {
            return Err(format!("{label}: static server split {} times", r.splits));
        }
    }
    let largest = &rows[rows.len() - 2].report;
    Ok(format!(
        "E12 verdict: PASS — {} batches / {} updates delivered at the largest crowd, \
         delta-dominated on every row, zero splits",
        largest.update_batches_delivered, largest.batched_updates_delivered
    ))
}

/// Renders the results table.
pub fn table(rows: &[DenseCrowdRow]) -> Table {
    let mut t = Table::new(
        "E12 — dense crowd on one server (grid → batch → rate-limit → delta pipeline)",
        &[
            "clients",
            "budget",
            "fanned",
            "batches",
            "batched",
            "upd/batch",
            "batch MB",
            "delta%",
            "saved KB",
            "stale%",
        ],
    );
    for row in rows {
        let r = &row.report;
        let per_batch = if r.update_batches_delivered == 0 {
            0.0
        } else {
            r.batched_updates_delivered as f64 / r.update_batches_delivered as f64
        };
        let items = r.game.delta_items + r.game.keyframe_items;
        let delta_share = if items == 0 {
            0.0
        } else {
            100.0 * r.game.delta_items as f64 / items as f64
        };
        // Staleness proxy: the fraction of relevant updates deferred by
        // the per-client budgets instead of delivered in their flush.
        let relevant = items + r.game.updates_rate_limited;
        let stale = if relevant == 0 {
            0.0
        } else {
            100.0 * r.game.updates_rate_limited as f64 / relevant as f64
        };
        t.push_row(&[
            format!("{}", row.clients),
            if row.budget_bytes == 0 {
                "-".into()
            } else {
                format!("{}B", row.budget_bytes)
            },
            format!("{}", r.game.updates_fanned),
            format!("{}", r.update_batches_delivered),
            format!("{}", r.batched_updates_delivered),
            format!("{per_batch:.1}"),
            format!("{:.1}", r.game.batch_bytes as f64 / 1e6),
            format!("{delta_share:.0}"),
            format!("{:.0}", r.game.delta_bytes_saved as f64 / 1e3),
            format!("{stale:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_crowd_delivers_batched_updates_end_to_end() {
        let spec = GameSpec::bzflag();
        let row = run_one(&spec, 300, 0, 1, 20, 7);
        let r = &row.report;
        assert!(r.update_batches_delivered > 0, "batches must reach clients");
        assert!(r.batched_updates_delivered >= r.update_batches_delivered);
        assert!(r.game.batch_bytes > 0, "bandwidth accounting must tick");
        assert_eq!(r.splits, 0, "single static server must not split");
        assert!(
            r.game.delta_items > r.game.keyframe_items,
            "a steady crowd stream must be dominated by deltas: {} deltas vs {} keyframes",
            r.game.delta_items,
            r.game.keyframe_items
        );
        assert!(
            r.game.delta_bytes_saved > 0,
            "delta savings must be accounted"
        );
    }

    #[test]
    fn bigger_crowds_fan_out_more() {
        let spec = GameSpec::bzflag();
        let small = run_one(&spec, 100, 0, 1, 20, 11).report.game.updates_fanned;
        let large = run_one(&spec, 400, 0, 1, 20, 11).report.game.updates_fanned;
        assert!(
            large > 4 * small,
            "fan-out grows superlinearly with crowd density: {small} -> {large}"
        );
    }

    #[test]
    fn tight_downlink_budget_rate_limits_instead_of_queueing() {
        let spec = GameSpec::bzflag();
        let free = run_one(&spec, 300, 0, 1, 20, 13).report;
        let tight = run_one(&spec, 300, 512, 1, 20, 13).report;
        assert!(
            tight.game.updates_rate_limited > free.game.updates_rate_limited,
            "a 512-byte downlink must defer updates: {} vs {}",
            tight.game.updates_rate_limited,
            free.game.updates_rate_limited
        );
        assert!(
            tight.game.batch_bytes < free.game.batch_bytes,
            "budgeted clients must receive fewer bytes: {} vs {}",
            tight.game.batch_bytes,
            free.game.batch_bytes
        );
        assert!(
            tight.update_batches_delivered > 0,
            "degradation must not starve clients"
        );
    }
}
