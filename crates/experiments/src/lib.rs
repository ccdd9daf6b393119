//! Experiment harness regenerating every table and figure of the Matrix
//! paper (see DESIGN.md §4 for the experiment index E1–E10, A1–A2).
//!
//! The [`harness`] module wires the `matrix-core` state machines to the
//! `matrix-sim` kernel; each experiment module scripts a workload, runs
//! the cluster, and renders paper-style output (ASCII charts + tables +
//! CSV). The `matrix-experiments` binary exposes them as subcommands:
//!
//! ```text
//! matrix-experiments fig2        # E1/E2  Figure 2a + 2b (verdict enforced)
//! matrix-experiments versus      # E3     Matrix vs static, 3 games (verdict enforced)
//! matrix-experiments micro-switch# E4     switching latency
//! matrix-experiments micro-mc    # E5     coordinator overhead
//! matrix-experiments micro-traffic # E6   traffic vs overlap size
//! matrix-experiments userstudy   # E7     latency-perception proxy
//! matrix-experiments scale       # E8     asymptotic analysis
//! matrix-experiments ablation-split      # A1
//! matrix-experiments ablation-hysteresis # A2
//! matrix-experiments dense       # E12    dense-crowd interest management
//! matrix-experiments failover    # E13    warm-standby failover
//! matrix-experiments rings       # E14    multi-ring AOI + grid auto-tuning
//! matrix-experiments predict     # E15    dead-reckoning suppression
//! matrix-experiments trace       # E16    causal tracing + freshness SLOs
//! matrix-experiments all         # everything above, in order
//! matrix-experiments overhead    # CI gates: telemetry cost, flush scaling
//! ```

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
pub mod scale;
pub mod sweep;
pub mod trace;
pub mod userstudy;
pub mod versus;

pub use harness::{Cluster, ClusterConfig, ClusterReport, NetConfig};
