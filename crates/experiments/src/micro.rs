//! E4/E5/E6 — the paper's microbenchmarks (§4.2).
//!
//! * **E4** client switching latency: how long a handoff takes as the
//!   per-client state and the access latency grow.
//! * **E5** coordinator overhead: wall-clock cost of recomputing and
//!   distributing overlap tables as the fleet grows, plus the share of
//!   protocol messages that ever touch the MC ("the overhead of using a
//!   central coordinator was negligible").
//! * **E6** inter-server traffic vs overlap size: "the amount of traffic
//!   sent between Matrix servers corresponded directly to the size of the
//!   overlap regions".

use crate::harness::{Cluster, ClusterConfig};
use matrix_core::{Coordinator, CoordinatorConfig};
use matrix_games::{GameSpec, WorkloadSchedule};
use matrix_geometry::{build_overlap, PartitionMap, ServerId};
use matrix_metrics::Table;
use matrix_sim::SimTime;

// ---------------------------------------------------------------------------
// E4 — switching latency
// ---------------------------------------------------------------------------

/// Switching latency for one configuration point.
#[derive(Debug, Clone)]
pub struct SwitchRow {
    /// Per-client state bytes.
    pub state_bytes: u64,
    /// Client access-link one-way latency (ms).
    pub link_ms: u64,
    /// Median switch latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile switch latency (ms).
    pub p95_ms: f64,
    /// Number of switches measured.
    pub switches: u64,
}

/// Sweeps per-client state size and access latency, measuring handoffs
/// induced by a hotspot split.
pub fn run_switching(seed: u64) -> Vec<SwitchRow> {
    let mut rows = Vec::new();
    for &state_bytes in &[512u64, 2_048, 8_192, 32_768] {
        for &link_ms in &[10u64, 25, 50] {
            let mut spec = GameSpec::bzflag();
            spec.client_state_bytes = state_bytes;
            let schedule = WorkloadSchedule::flash_crowd(&spec, 50, 500, SimTime::from_secs(10));
            let mut cfg = ClusterConfig::adaptive(spec);
            cfg.seed = seed;
            cfg.game.client_state_bytes = state_bytes;
            cfg.net.client_link = matrix_sim::LinkModel {
                latency: matrix_sim::LatencyModel::constant_millis(link_ms),
                loss_probability: 0.0,
                // A 2005-era broadband uplink: state size now matters.
                bandwidth_bytes_per_sec: Some(100_000.0),
            };
            let report = Cluster::new(cfg, schedule).run();
            rows.push(SwitchRow {
                state_bytes,
                link_ms,
                p50_ms: report.switch_latency_us.p50().unwrap_or(0.0) / 1000.0,
                p95_ms: report.switch_latency_us.p95().unwrap_or(0.0) / 1000.0,
                switches: report.switches,
            });
        }
    }
    rows
}

/// Renders the E4 table.
pub fn switching_table(rows: &[SwitchRow]) -> Table {
    let mut t = Table::new(
        "E4 — client switching latency vs per-client state and access latency",
        &["state (B)", "link (ms)", "p50 (ms)", "p95 (ms)", "switches"],
    );
    for r in rows {
        t.push_row(&[
            r.state_bytes.to_string(),
            r.link_ms.to_string(),
            format!("{:.1}", r.p50_ms),
            format!("{:.1}", r.p95_ms),
            r.switches.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E5 — coordinator overhead
// ---------------------------------------------------------------------------

/// Coordinator recompute cost for one fleet size.
#[derive(Debug, Clone)]
pub struct McRow {
    /// Number of live servers.
    pub servers: u32,
    /// Wall-clock recompute + distribute cost (ms).
    pub recompute_ms: f64,
    /// Total overlap regions across all tables.
    pub regions: usize,
}

/// Measures table recomputation cost as the fleet grows.
pub fn run_mc_cost() -> Vec<McRow> {
    let world = GameSpec::bzflag().world;
    let radius = GameSpec::bzflag().radius;
    let mut rows = Vec::new();
    for &n in &[2u32, 4, 8, 16, 32, 64, 128, 256] {
        let servers: Vec<ServerId> = (1..=n).map(ServerId).collect();
        let map = PartitionMap::static_grid(world, &servers).expect("grid");
        let started = std::time::Instant::now();
        let metric = matrix_geometry::Metric::Euclidean;
        let (mut coordinator, _) =
            Coordinator::with_map(CoordinatorConfig::default(), map.clone(), radius, metric);
        let actions = coordinator.recompute();
        let elapsed = started.elapsed().as_secs_f64() * 1000.0;
        let overlap = build_overlap(&map, radius, metric);
        rows.push(McRow {
            servers: n,
            recompute_ms: elapsed,
            regions: overlap.total_regions(),
        });
        drop(actions);
    }
    rows
}

/// Renders the E5 recompute-cost table.
pub fn mc_cost_table(rows: &[McRow]) -> Table {
    let mut t = Table::new(
        "E5 — coordinator overlap-table recompute cost vs fleet size",
        &["servers", "recompute+distribute (ms)", "overlap regions"],
    );
    for r in rows {
        t.push_row(&[
            r.servers.to_string(),
            format!("{:.3}", r.recompute_ms),
            r.regions.to_string(),
        ]);
    }
    t
}

/// Share of protocol activity that touches the MC during a hotspot run —
/// the "negligible overhead" claim.
pub fn run_mc_share(seed: u64) -> Table {
    let spec = GameSpec::bzflag();
    let schedule = WorkloadSchedule::figure2(&spec, 100);
    let mut cfg = ClusterConfig::adaptive(spec);
    cfg.seed = seed;
    let report = Cluster::new(cfg, schedule).run();
    let mc_msgs = report.coordinator.recomputes
        + report.coordinator.tables_sent
        + report.coordinator.resolves
        + report.coordinator.splits_seen
        + report.coordinator.reclaims_seen;
    let total = report.updates_processed.max(1);
    let mut t = Table::new(
        "E5 — coordinator share of protocol traffic (Figure-2 run)",
        &["metric", "value"],
    );
    t.push_row(&["game updates processed".into(), total.to_string()]);
    t.push_row(&["MC messages (all kinds)".into(), mc_msgs.to_string()]);
    t.push_row(&[
        "MC share".into(),
        format!("{:.4}%", mc_msgs as f64 / total as f64 * 100.0),
    ]);
    t.push_row(&[
        "table recomputations".into(),
        report.coordinator.recomputes.to_string(),
    ]);
    t.push_row(&[
        "point resolutions".into(),
        report.coordinator.resolves.to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// E6 — traffic vs overlap size
// ---------------------------------------------------------------------------

/// Inter-server traffic for one radius point.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Radius of visibility.
    pub radius: f64,
    /// Total overlap-region area across servers.
    pub overlap_area: f64,
    /// Inter-Matrix-server bytes over the run.
    pub inter_server_bytes: u64,
    /// Bytes per unit of overlap area (should stay roughly flat).
    pub bytes_per_area: f64,
}

/// Sweeps the visibility radius on a fixed 4-server static grid and
/// correlates inter-server traffic with overlap area.
pub fn run_traffic(seed: u64) -> Vec<TrafficRow> {
    let mut rows = Vec::new();
    for &radius in &[25.0f64, 50.0, 100.0, 150.0, 200.0] {
        let mut spec = GameSpec::bzflag();
        spec.radius = radius;
        let schedule = WorkloadSchedule::steady(400, SimTime::from_secs(60));
        let mut cfg = ClusterConfig::static_partition(spec.clone(), 4);
        cfg.seed = seed;
        cfg.queue_capacity = None; // not studying drops here
        let report = Cluster::new(cfg, schedule).run();

        let servers: Vec<ServerId> = (1..=4).map(ServerId).collect();
        let map = PartitionMap::static_grid(spec.world, &servers).expect("grid");
        let overlap = build_overlap(&map, radius, spec.metric);
        let area = overlap.total_overlap_area();
        rows.push(TrafficRow {
            radius,
            overlap_area: area,
            inter_server_bytes: report.inter_server_bytes,
            bytes_per_area: report.inter_server_bytes as f64 / area.max(1.0),
        });
    }
    rows
}

/// Renders the E6 table.
pub fn traffic_table(rows: &[TrafficRow]) -> Table {
    let mut t = Table::new(
        "E6 — inter-server traffic vs overlap-region size (4 static servers, 400 clients, 60 s)",
        &[
            "radius",
            "overlap area",
            "inter-server bytes",
            "bytes / area",
        ],
    );
    for r in rows {
        t.push_row(&[
            format!("{:.0}", r.radius),
            format!("{:.0}", r.overlap_area),
            r.inter_server_bytes.to_string(),
            format!("{:.1}", r.bytes_per_area),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_cost_is_measurable_and_grows() {
        let rows = run_mc_cost();
        assert_eq!(rows.len(), 8);
        assert!(rows.last().unwrap().regions > rows.first().unwrap().regions);
        let table = mc_cost_table(&rows).render();
        assert!(table.contains("servers"));
    }

    #[test]
    fn switching_table_renders() {
        let rows = vec![SwitchRow {
            state_bytes: 512,
            link_ms: 10,
            p50_ms: 1.0,
            p95_ms: 2.0,
            switches: 5,
        }];
        assert!(switching_table(&rows).render().contains("512"));
    }

    #[test]
    fn traffic_table_renders() {
        let rows = vec![TrafficRow {
            radius: 50.0,
            overlap_area: 100.0,
            inter_server_bytes: 1000,
            bytes_per_area: 10.0,
        }];
        assert!(traffic_table(&rows).render().contains("50"));
    }
}
