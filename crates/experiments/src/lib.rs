//! Experiment harness regenerating every table and figure of the Matrix
//! paper's evaluation (§4), plus the extension experiments E11–E16.
//!
//! The [`harness`] module wires the `matrix-core` state machines to the
//! `matrix-sim` kernel; each experiment module scripts a workload, runs
//! the cluster, and renders paper-style output (ASCII charts + tables +
//! CSV). The `matrix-experiments` binary exposes them as subcommands:
//!
//! ```text
//! matrix-experiments fig2                 # E1/E2  Figure 2a + 2b (verdict enforced)
//! matrix-experiments fig2a                # E1     Figure 2a only
//! matrix-experiments fig2b                # E2     Figure 2b only
//! matrix-experiments versus               # E3     Matrix vs static, 3 games (verdict enforced)
//! matrix-experiments micro-switch         # E4     client switching latency
//! matrix-experiments micro-mc             # E5     coordinator overhead
//! matrix-experiments micro-traffic        # E6     inter-server traffic vs overlap size
//! matrix-experiments userstudy            # E7     latency-perception proxy
//! matrix-experiments sweep                # E11    adaptivity scaling vs crowd size
//! matrix-experiments dense                # E12    dense-crowd interest management
//! matrix-experiments failover             # E13    warm-standby failover
//! matrix-experiments rings                # E14    multi-ring AOI + grid auto-tuning
//! matrix-experiments predict              # E15    dead-reckoning suppression
//! matrix-experiments trace                # E16    causal tracing + freshness SLOs
//! matrix-experiments ablation-split       # A1     split-strategy ablation
//! matrix-experiments ablation-hysteresis  # A2     oscillation-prevention ablation
//! matrix-experiments all                  # everything above, in order
//! matrix-experiments overhead             # CI gate: telemetry and tracing cost
//! ```
//!
//! E8, the paper's closed-form scalability analysis (§4.2), exercises no
//! system code: it is the unit test at the end of this file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod densecrowd;
pub mod failover;
pub mod fig2;
pub mod harness;
pub mod micro;
pub mod overhead;
pub mod predict;
pub mod rings;
pub mod sweep;
pub mod trace;
pub mod userstudy;
pub mod versus;

pub use harness::{Cluster, ClusterConfig, ClusterReport, NetConfig};

#[cfg(test)]
mod tests {
    /// E8 (§4.2), the paper's "simplistic asymptotic analysis" in closed
    /// form.
    #[test]
    fn a_million_players_fit_on_ten_thousand_servers_until_io_binds() {
        // Per-server I/O utilisation for 1 M players on 10 k equal square
        // shards of a 500 km world, each player sending 10 Hz × 120 B,
        // against a 1 Gbps NIC. A shard of side ℓ carries its own
        // players' traffic; its overlap band (≈ 4ℓR of its area, width
        // the vision radius R) also crosses to 1.2 peers in each
        // direction; and every local player receives every update inside
        // its vision disc of a uniform population (downstream fan-out).
        let io_utilisation = |radius: f64| {
            let (world, players, servers): (f64, f64, f64) = (500_000.0, 1e6, 1e4);
            let local_bytes = players / servers * 10.0 * 120.0;
            let overlap = (4.0 * radius * servers.sqrt() / world).min(1.0);
            let visible = players * std::f64::consts::PI * radius * radius / (world * world);
            local_bytes * (1.0 + 2.0 * 1.2 * overlap + visible) / 125_000_000.0
        };
        // "More than 1,000,000 players on 10,000 servers": at radius 200
        // the headline uses 0.18 % of each server's I/O.
        let headline = io_utilisation(200.0);
        assert!((headline - 0.001_811).abs() < 1e-6, "{headline}");
        // "Ultimately limited by the I/O capacity of individual servers":
        // at radius 10 000 fan-out needs 121 % of it, which is infeasible.
        let wide = io_utilisation(10_000.0);
        assert!((wide - 1.2096).abs() < 1e-4, "{wide}");
        assert!(wide > 1.0);
    }
}
