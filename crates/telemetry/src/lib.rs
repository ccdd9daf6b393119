//! The runtime telemetry plane: what a *running* Matrix cluster looks
//! like from the inside.
//!
//! The paper evaluates Matrix offline, and so did this repo until now —
//! counter structs summed after the run, diagnostics as bare strings.
//! This crate adds the live instrumentation layer everything else plugs
//! into:
//!
//! * [`StageSpans`] — a lap-timer over the dissemination pipeline's five
//!   stages ([`Stage`]), accumulating per-flush stage latencies into
//!   log-bucketed [`Histogram`]s. Disabled spans cost one branch and
//!   **zero** clock reads, which is what keeps the telemetry-off build a
//!   true no-op (enforced by `matrix-experiments overhead`: on vs off
//!   ≤ 2% flush CPU).
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of structured
//!   [`TelemetryEvent`]s (joins, handovers, splits, standby churn,
//!   failovers, promotions, retunes). The coordinator keeps one always
//!   on; failover timelines are read out of it instead of being
//!   hand-rolled by harness probes.
//! * [`TelemetrySnapshot`] — the wire-friendly aggregate (named counters
//!   plus sparse-bucket [`HistSnapshot`]s) that rides load reports and
//!   heartbeats to the coordinator and is rendered as text by the
//!   `matrix-rt` stats port. Snapshots
//!   [`merge`](TelemetrySnapshot::merge) by name, so per-node
//!   histograms aggregate into cluster-wide distributions.
//! * [`TraceTag`] — the causal trace plane: a compact tag stamped on a
//!   sampled subset of ingested events (`trace_sample_rate`), carried
//!   through every pipeline stage, the flush and the wire, and
//!   read back on the client to compute end-to-end delivery latency and
//!   staleness-at-apply — including the charged age of suppressed or
//!   policy-dropped predecessors.
//! * [`SloTracker`] — per-ring freshness SLOs over the trace plane's
//!   staleness histograms: targets, a rolling error budget and its burn
//!   rate, breaching into an [`EventKind::SloBreach`] recorder event.
//! * [`render_prometheus`] — Prometheus-style text exposition of a set
//!   of node snapshots, and [`diag_line`]/[`emit_diag`] — the structured
//!   `key=value` stderr log line that replaces ad-hoc `eprintln!`
//!   diagnostics.
//!
//! The crate sits *below* `matrix-core` in the dependency DAG (it knows
//! geometry ids, histograms and simulated time, nothing else), so every
//! layer from the interest pipeline to the async runtime can record into
//! it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod recorder;
mod slo;
mod snapshot;
mod span;
mod trace;

pub use expose::{diag_line, emit_diag, render_prometheus};
pub use matrix_metrics::Histogram;
pub use recorder::{EventKind, FlightRecorder, TelemetryEvent};
pub use slo::{SloTargets, SloTracker, BURN_ONE_BP, SLO_RINGS};
pub use snapshot::{HistSnapshot, TelemetrySnapshot};
pub use span::{Stage, StageSpans, STAGE_COUNT};
pub use trace::TraceTag;
