//! E1/E2 — Figure 2: Matrix responding to a 600-client hotspot.
//!
//! Reproduces §4.1's experiment: 100 background BzFlag clients, a
//! 600-client hotspot at t=10 s (drained 200-at-a-time from t=75), and a
//! second hotspot elsewhere at t=170 s. Output is the two panels of
//! Figure 2 — clients per server (2a) and receive-queue length per server
//! (2b) — as ASCII charts plus CSV.

use crate::harness::{Cluster, ClusterConfig, ClusterReport};
use matrix_games::{GameSpec, WorkloadSchedule};
use matrix_metrics::{AsciiChart, Table};

/// Runs the Figure-2 scenario and returns the raw report.
pub fn run(seed: u64) -> ClusterReport {
    let spec = GameSpec::bzflag();
    let schedule = WorkloadSchedule::figure2(&spec, 100);
    let mut cfg = ClusterConfig::adaptive(spec);
    cfg.seed = seed;
    Cluster::new(cfg, schedule).run()
}

/// Renders Figure 2a (clients per server vs time).
pub fn render_2a(report: &ClusterReport) -> String {
    let mut out = String::from("Figure 2a — number of clients per server (600-client hotspot)\n");
    let series: Vec<&matrix_metrics::TimeSeries> = report
        .clients_per_server
        .iter()
        .filter(|s| s.max_value().unwrap_or(0.0) > 0.0)
        .collect();
    out.push_str(&AsciiChart::new(100, 20).render(&series));
    out
}

/// Renders Figure 2b (receive-queue length per server vs time).
pub fn render_2b(report: &ClusterReport) -> String {
    let mut out = String::from("Figure 2b — server receive-queue length\n");
    let series: Vec<&matrix_metrics::TimeSeries> = report
        .queue_per_server
        .iter()
        .filter(|s| s.max_value().unwrap_or(0.0) > 0.0)
        .collect();
    out.push_str(&AsciiChart::new(100, 20).render(&series));
    out
}

/// Summary table comparing the run against the paper's qualitative claims.
pub fn summary(report: &ClusterReport) -> Table {
    let mut t = Table::new(
        "Figure 2 run summary (paper: up to 4 servers, splits at 300+ clients, later reclaimed)",
        &["metric", "value"],
    );
    t.push_row(&[
        "peak servers in use".into(),
        report.peak_servers.to_string(),
    ]);
    t.push_row(&["splits".into(), report.splits.to_string()]);
    t.push_row(&["reclaims".into(), report.reclaims.to_string()]);
    t.push_row(&[
        "servers at end of run".into(),
        format!("{}", report.servers_in_use.last_value().unwrap_or(0.0)),
    ]);
    t.push_row(&[
        "peak clients on one server".into(),
        format!("{:.0}", report.peak_clients_on_one_server()),
    ]);
    t.push_row(&[
        "peak queue backlog (work units)".into(),
        format!("{:.0}", report.peak_queue),
    ]);
    t.push_row(&[
        "client switches (handoffs)".into(),
        report.switches.to_string(),
    ]);
    t.push_row(&[
        "pool grants / denials".into(),
        format!("{} / {}", report.pool.grants, report.pool.denials),
    ]);
    t.push_row(&[
        "p95 response latency (ms)".into(),
        format!(
            "{:.1}",
            report.response_latency_us.p95().unwrap_or(0.0) / 1000.0
        ),
    ]);
    t.push_row(&[
        "late responses (>150ms)".into(),
        format!("{:.2}%", report.late_fraction * 100.0),
    ]);
    t
}

/// The §4.1 shape a Figure-2 run must reproduce: a handful of servers
/// (3–6 at the peak), at least three splits and three reclaims, the
/// fleet back at ≤ 2 servers by the end, and no work dropped on the way.
pub fn verdict(report: &ClusterReport) -> Result<String, String> {
    if !(3..=6).contains(&report.peak_servers) {
        return Err(format!(
            "peak servers {} outside 3..=6",
            report.peak_servers
        ));
    }
    if report.splits < 3 {
        return Err(format!("{} splits < 3", report.splits));
    }
    if report.reclaims < 3 {
        return Err(format!("{} reclaims < 3", report.reclaims));
    }
    let end = report
        .servers_in_use
        .last_value()
        .ok_or("no servers-in-use samples")?;
    if end > 2.0 {
        return Err(format!("{end} servers at the end of the run > 2"));
    }
    if report.dropped_work != 0.0 {
        return Err(format!("{:.0} work units dropped", report.dropped_work));
    }
    Ok(format!(
        "E1/E2 verdict: PASS — peak {} servers, {} splits, {} reclaims, \
         {end} server(s) at the end, no dropped work",
        report.peak_servers, report.splits, report.reclaims
    ))
}

/// Renders the adaptation timeline (when each split/reclaim happened).
pub fn timeline(report: &ClusterReport) -> String {
    let mut out = String::from("adaptation timeline:\n");
    for (t, event) in &report.timeline {
        out.push_str(&format!("  {t}  {event}\n"));
    }
    out
}

/// CSV artefacts for external plotting.
pub fn to_csv(report: &ClusterReport) -> String {
    let mut out = String::new();
    for s in &report.clients_per_server {
        out.push_str(&s.to_csv());
    }
    for s in &report.queue_per_server {
        out.push_str(&s.to_csv());
    }
    out.push_str(&report.servers_in_use.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small steady crowd: cheap, and it never splits.
    fn steady_run() -> ClusterReport {
        let spec = GameSpec::bzflag();
        let schedule = WorkloadSchedule::steady(30, matrix_sim::SimTime::from_secs(10));
        let mut cfg = ClusterConfig::adaptive(spec);
        cfg.seed = 7;
        Cluster::new(cfg, schedule).run()
    }

    /// The full Figure-2 scenario is checked by [`verdict`] in
    /// `matrix-experiments fig2` (a CI step); here we only check the
    /// renderers on a cheap run.
    #[test]
    fn renderers_produce_output() {
        let report = steady_run();
        assert!(render_2a(&report).contains("Figure 2a"));
        assert!(render_2b(&report).contains("Figure 2b"));
        let table = summary(&report);
        assert!(table.render().contains("peak servers"));
        assert!(to_csv(&report).contains("time,value"));
    }

    #[test]
    fn verdict_rejects_a_run_that_never_adapts() {
        let report = steady_run();
        assert_eq!(report.splits, 0);
        let why = verdict(&report).unwrap_err();
        assert!(why.contains("peak servers 1"), "{why}");
    }
}
