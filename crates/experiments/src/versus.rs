//! E3 — Matrix vs static partitioning for BzFlag, Quake 2 and Daimonin.
//!
//! §4.2: "For these three games, we showed that Matrix is able to
//! outperform static partitioning schemes when unexpected loads or
//! hotspots occur. In particular, Matrix is able to automatically use
//! extra servers to handle the load while the static partitioning schemes
//! just fail." Each game gets the same unexpected 600-client flash crowd;
//! Matrix runs adaptively against statically partitioned deployments of
//! 2 and 4 servers. [`verdict`] holds the run to that sentence.

use crate::harness::{Cluster, ClusterConfig, ClusterReport};
use matrix_games::{GameSpec, WorkloadSchedule};
use matrix_metrics::Table;
use matrix_sim::SimTime;

/// How much of the comparison to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// When the flash crowd lands.
    pub crowd_at: SimTime,
    /// Server counts of the static deployments Matrix is compared with.
    pub static_servers: &'static [u32],
}

impl Scale {
    /// The full comparison: the crowd lands at 20 s, against static-2
    /// and static-4.
    pub fn full() -> Scale {
        Scale {
            crowd_at: SimTime::from_secs(20),
            static_servers: &[2, 4],
        }
    }

    /// A fast variant for CI (`matrix-experiments versus --smoke`): the
    /// crowd lands at 15 s, against static-2 only.
    pub fn smoke() -> Scale {
        Scale {
            crowd_at: SimTime::from_secs(15),
            static_servers: &[2],
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct VersusRow {
    /// Game title.
    pub game: String,
    /// System under test.
    pub system: String,
    /// Peak servers used.
    pub peak_servers: usize,
    /// Peak queue backlog.
    pub peak_queue: f64,
    /// Dropped work (static failure mode).
    pub dropped_work: f64,
    /// Fraction of responses above 150 ms.
    pub late_fraction: f64,
    /// p95 response latency in ms.
    pub p95_ms: f64,
}

fn row(game: &str, system: &str, report: &ClusterReport) -> VersusRow {
    VersusRow {
        game: game.to_string(),
        system: system.to_string(),
        peak_servers: report.peak_servers,
        peak_queue: report.peak_queue,
        dropped_work: report.dropped_work,
        late_fraction: report.late_fraction,
        p95_ms: report.response_latency_us.p95().unwrap_or(0.0) / 1000.0,
    }
}

/// Runs the three-game comparison. `seed` controls the workload.
pub fn run(seed: u64, scale: Scale) -> Vec<VersusRow> {
    let mut rows = Vec::new();
    for spec in GameSpec::all() {
        let name = spec.name.clone();
        let schedule = || WorkloadSchedule::flash_crowd(&spec, 100, 600, scale.crowd_at);

        let mut adaptive = ClusterConfig::adaptive(spec.clone());
        adaptive.seed = seed;
        let report = Cluster::new(adaptive, schedule()).run();
        rows.push(row(&name, "matrix", &report));

        for &k in scale.static_servers {
            let mut st = ClusterConfig::static_partition(spec.clone(), k);
            st.seed = seed;
            let report = Cluster::new(st, schedule()).run();
            rows.push(row(&name, &format!("static-{k}"), &report));
        }
    }
    rows
}

/// §4.2's claim, per game: Matrix recruits at least two servers and
/// drops nothing, while the static two-server deployment drops work.
pub fn verdict(rows: &[VersusRow]) -> Result<String, String> {
    let find = |game: &str, system: &str| {
        rows.iter()
            .find(|r| r.game == game && r.system == system)
            .ok_or_else(|| format!("{game}: no {system} row"))
    };
    let mut games: Vec<&str> = rows.iter().map(|r| r.game.as_str()).collect();
    games.dedup();
    if games.is_empty() {
        return Err("no rows".into());
    }
    for &game in &games {
        let matrix = find(game, "matrix")?;
        if matrix.peak_servers < 2 {
            return Err(format!(
                "{game}: Matrix used {} server(s), never adapted",
                matrix.peak_servers
            ));
        }
        if matrix.dropped_work != 0.0 {
            return Err(format!(
                "{game}: Matrix dropped {:.0} work units",
                matrix.dropped_work
            ));
        }
        if find(game, "static-2")?.dropped_work <= 0.0 {
            return Err(format!("{game}: static-2 dropped nothing"));
        }
    }
    Ok(format!(
        "E3 verdict: PASS — Matrix recruits ≥ 2 servers and drops nothing, \
         static-2 drops work, in all {} games",
        games.len()
    ))
}

/// Renders the comparison table.
pub fn table(rows: &[VersusRow]) -> Table {
    let mut t = Table::new(
        "E3 — Matrix vs static partitioning under a 600-client hotspot (per game)",
        &[
            "game",
            "system",
            "servers",
            "peak queue",
            "dropped work",
            "late >150ms",
            "p95 (ms)",
        ],
    );
    for r in rows {
        t.push_row(&[
            r.game.clone(),
            r.system.clone(),
            r.peak_servers.to_string(),
            format!("{:.0}", r.peak_queue),
            format!("{:.0}", r.dropped_work),
            format!("{:.1}%", r.late_fraction * 100.0),
            format!("{:.1}", r.p95_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(system: &str, peak_servers: usize, dropped_work: f64) -> VersusRow {
        VersusRow {
            game: "bzflag".into(),
            system: system.into(),
            peak_servers,
            peak_queue: 100.0,
            dropped_work,
            late_fraction: 0.01,
            p95_ms: 42.0,
        }
    }

    #[test]
    fn table_renders_rows() {
        let rendered = table(&[row("matrix", 4, 0.0)]).render();
        assert!(rendered.contains("bzflag"));
        assert!(rendered.contains("matrix"));
    }

    #[test]
    fn verdict_holds_matrix_and_static_to_the_paper() {
        let pair = |servers, matrix_dropped, static_dropped| {
            [
                row("matrix", servers, matrix_dropped),
                row("static-2", 2, static_dropped),
            ]
        };
        let pass = pair(3, 0.0, 5000.0);
        assert!(verdict(&pass).is_ok());
        for (rows, why) in [
            (pair(1, 0.0, 5000.0), "never adapted"),
            (pair(3, 12.0, 5000.0), "Matrix dropped"),
            (pair(3, 0.0, 0.0), "static-2 dropped nothing"),
        ] {
            let err = verdict(&rows).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        assert!(verdict(&pass[..1]).unwrap_err().contains("no static-2 row"));
    }
}
