//! Tunable parameters for the middleware components.

use matrix_geometry::{Metric, SplitStrategy};
use matrix_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The wire codec that frames client-visible traffic.
///
/// There is one: wire protocol v2 (`matrix_core::codec_v2`,
/// `docs/WIRE.md`). The enum and the `codec` field that holds it select
/// nothing; they remain because the repository's benchmark names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WireCodec {
    /// Wire protocol v2: length-prefixed binary frames.
    #[default]
    BinaryV2,
}

/// Configuration of a Matrix server's adaptive behaviour.
///
/// Defaults reproduce the paper's Figure-2 deployment: overload at 300
/// clients, underload below 150, with short hysteresis streaks as the
/// "simple heuristics to prevent oscillations" (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Whether the server may split and reclaim at all. Disabling this
    /// turns the identical machinery into the static-partitioning baseline.
    pub adaptive: bool,
    /// Client count at which a game server counts as overloaded
    /// (Figure 2: "a server is overloaded when it has 300+ clients").
    pub overload_clients: u32,
    /// Client count below which a server counts as underloaded
    /// (Figure 2: "underloaded (< 150 clients)").
    pub underload_clients: u32,
    /// Consecutive overloaded load reports required before splitting.
    pub overload_streak: u32,
    /// Consecutive underloaded reports required before reclaiming a child.
    pub underload_streak: u32,
    /// A child is only reclaimed when the merged client count stays below
    /// `overload_clients * reclaim_headroom`, so a reclaim cannot
    /// immediately bounce back into a split (anti-oscillation heuristic,
    /// §3.2.3).
    pub reclaim_headroom: f64,
    /// Minimum time between adaptive actions on one server; prevents a
    /// freshly split server from immediately splitting or being reclaimed.
    pub cooldown: SimDuration,
    /// How the map is cut on a split.
    pub split_strategy: SplitStrategy,
    /// Interval between heartbeats to the coordinator.
    pub heartbeat_every: SimDuration,
    /// When true, every active server pairs with a warm standby drawn
    /// from the resource pool and streams region state to it (see
    /// `GameServerConfig::replica_interval`); on the primary's liveness
    /// expiry the coordinator promotes the standby instead of handing
    /// the orphaned range to a neighbour.
    pub standby_replication: bool,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            adaptive: true,
            overload_clients: 300,
            underload_clients: 150,
            overload_streak: 2,
            underload_streak: 3,
            reclaim_headroom: 0.7,
            cooldown: SimDuration::from_secs(5),
            split_strategy: SplitStrategy::SplitToLeft,
            heartbeat_every: SimDuration::from_secs(1),
            standby_replication: false,
        }
    }
}

impl MatrixConfig {
    /// The static-partitioning baseline: identical routing, no adaptation.
    pub fn static_baseline() -> MatrixConfig {
        MatrixConfig {
            adaptive: false,
            ..MatrixConfig::default()
        }
    }
}

/// Configuration of a game-server node (the developer-provided side,
/// emulated here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameServerConfig {
    /// Game tick interval (load reports and redirect sweeps run on ticks).
    pub tick: SimDuration,
    /// Load report sent to Matrix every `report_every_ticks` ticks
    /// (§3.2.2 "periodically reports its current load").
    pub report_every_ticks: u32,
    /// Per-client state transferred on a handoff (position, inventory,
    /// session), in bytes. The paper calls this "minimal".
    pub client_state_bytes: u64,
    /// Dynamic global state transferred to a newly split server (map
    /// objects such as trees and buildings), in bytes.
    pub global_state_bytes: u64,
    /// Roaming hysteresis: a client is only handed off once it strays
    /// further than this outside the server's range, so crowds jittering
    /// on a partition boundary do not thrash between servers.
    pub handoff_margin: f64,
    /// The game's distance metric, and its one home: the Matrix servers
    /// and the coordinator learn it by registration, with the radius.
    pub metric: Metric,
    /// Per-client area-of-interest radius for update fan-out. `0.0`
    /// inherits the game's registered radius of visibility. Distinct from
    /// the consistency-set radius: routing between servers must stay
    /// conservative, but what each *client* renders can be narrower.
    pub vision_radius: f64,
    /// How long client-bound updates may coalesce before a
    /// `GameToClient::UpdateBatch` flush. Zero flushes on every event
    /// (one-item batches).
    pub batch_interval: SimDuration,
    /// Resolution of the interest grid: cells along each axis of the
    /// server's range. Larger values cut per-query candidates but raise
    /// per-move bookkeeping slightly. With `grid_autotune` on this is
    /// only the starting point — the tuner re-picks it from observed
    /// client density.
    pub cells_per_axis: u32,
    /// Concentric vision-ring boundaries (world units, ascending; `0.0`
    /// entries unused). When any radius is set, the rings *replace* the
    /// binary `vision_radius`: the outermost ring is the effective
    /// area-of-interest radius and each receiver is graded into the
    /// innermost ring containing its distance to the event. All zero
    /// (the default) keeps the single binary radius.
    pub ring_radii: [f64; matrix_interest::MAX_RINGS],
    /// Per-ring sampling rates parallel to `ring_radii`: a receiver in
    /// ring *i* gets every `ring_sample_rates[i]`-th event (1 = every
    /// event). The innermost ring is always delivered in full — near
    /// means every event — regardless of this entry.
    pub ring_sample_rates: [u32; matrix_interest::MAX_RINGS],
    /// Density-driven grid resolution auto-tuning: re-pick
    /// `cells_per_axis` from the observed client count (ratio
    /// hysteresis + observation streak guard against thrash; the tuned
    /// value replicates to warm standbys inside region snapshots).
    pub grid_autotune: bool,
    /// Dead-reckoning suppression (predictive dissemination): model
    /// each entity's velocity, ship it on batch items, and *suppress*
    /// updates for receivers whose extrapolation stays within the
    /// per-ring `error_budgets`. Off (the default) keeps the wire
    /// byte-identical to the prediction-free pipeline.
    pub predict: bool,
    /// Per-ring receiver error budgets in world units, parallel to
    /// `ring_radii` (`0.0` = never suppress in that ring). The near
    /// ring is pinned to `0.0` regardless — near means every event,
    /// preserving the rings' delivery guarantee. Only meaningful with
    /// `predict` on.
    pub error_budgets: [f64; matrix_interest::MAX_RINGS],
    /// Fixed-point lattice shipped dead-reckoning velocities snap to,
    /// in world units per second (`0.0` = the origin lattice).
    /// Velocities tolerate a far coarser lattice than origins — the
    /// quantization drift over a basis lifetime stays well inside any
    /// usable ring budget. Keep it a power-of-two multiple of
    /// `origin_quantum` so the codec's fixed-point velocity field
    /// carries the snapped value exactly.
    pub velocity_quantum: f64,
    /// Ring index from which batch items ship position-only (payload
    /// stripped, origin and velocity kept); `0` disables payload
    /// degradation. A far-ring entity's whereabouts matter for
    /// rendering, its full state rarely does.
    pub position_only_ring: u8,
    /// Whether client-bound update fan-out is emitted as real messages
    /// (true under the runtime, where clients are live connections) or
    /// only counted (discrete-event runs that model fan-out as load).
    /// `GameServerNode::with_fanout` sets it.
    pub emit_updates: bool,
    /// Per-client cap on items per `UpdateBatch` flush (`0` = unlimited).
    /// When a flush exceeds the cap, the least relevant (farthest)
    /// items are merged/dropped first, so crowded clients see a staler
    /// periphery instead of an unbounded queue.
    pub max_updates_per_flush: u32,
    /// Per-client byte budget per flush (`0` = unlimited), estimated
    /// against the absolute item wire size. Enforced in relevance order
    /// like `max_updates_per_flush`; at least one item always ships.
    pub client_budget_bytes: u32,
    /// Delta-compression keyframe interval: force an absolute-origin
    /// keyframe item at least every this many flushes per client.
    /// `0` disables delta encoding (every item absolute); `1` keyframes
    /// every flush but still delta-encodes items within a batch.
    pub keyframe_every: u32,
    /// Fixed-point resolution batch origins are snapped to before
    /// dissemination (`0.0` = no quantisation). Offsets between lattice
    /// origins are exact multiples of the quantum, so they genuinely fit
    /// the compact delta wire frame the byte accounting models; `1/256`
    /// of a world unit is far below any rendering-relevant precision.
    /// Use a power of two so the snapping arithmetic is exact in `f64`,
    /// and keep `quantum × keyframe threshold` within the 3-byte offset
    /// field (the defaults use 2²¹ of its ±2²³ range). The delta
    /// encoder's lattice check uses this same value.
    pub origin_quantum: f64,
    /// How often region state ships to the warm standby once one is
    /// assigned (splits the difference between replication overhead and
    /// how much session state a failover can lose). The first batch —
    /// and any batch after a standby resync — is a full
    /// `RegionSnapshot`; subsequent batches carry incremental ops.
    /// Replication itself is armed per server by
    /// `MatrixConfig::standby_replication`.
    pub replica_interval: SimDuration,
    /// Master telemetry switch: per-stage pipeline span timers, tick and
    /// flush latency histograms, the per-node flight recorder (including
    /// the span dump of any flush that overran its cadence,
    /// [`matrix_telemetry::EventKind::SlowFlush`]), and the telemetry
    /// snapshot attached to load reports (which then rides the
    /// heartbeat to the coordinator — snapshot cadence is therefore
    /// `report_every_ticks`). Off (the default), every instrumentation
    /// point is a branch-only no-op: no clock reads, no recording.
    pub telemetry: bool,
    /// Inert: [`WireCodec`] has one value. Kept for the benchmark's
    /// pinned surface.
    pub codec: WireCodec,
    /// Whether frames carry the CRC32 trailer (4 bytes per frame). On
    /// by default: corrupted frames are then rejected and the stream
    /// resynchronizes at the next magic boundary.
    pub frame_crc: bool,
    /// Causal trace sampling: every `trace_sample_rate`-th ingested
    /// event (by the node's event sequence number, deterministically) is
    /// stamped with a [`matrix_telemetry::TraceTag`] that rides the
    /// pipeline and the wire; receiving clients echo per-item delivery
    /// latency and staleness-at-apply back as trace acks. `0` (the
    /// default) disables the trace plane entirely — no stamping, no
    /// suppression charging, untagged wire frames stay byte-identical.
    /// Independent of the `telemetry` master switch so traced runs can
    /// skip span clocks, but the ack histograms only surface through
    /// telemetry snapshots, so end-to-end runs enable both.
    pub trace_sample_rate: u32,
}

impl Default for GameServerConfig {
    fn default() -> Self {
        GameServerConfig {
            tick: SimDuration::from_millis(100),
            report_every_ticks: 10,
            client_state_bytes: 2_048,
            global_state_bytes: 4_000_000,
            handoff_margin: 0.0,
            metric: Metric::Euclidean,
            vision_radius: 0.0,
            batch_interval: SimDuration::from_millis(50),
            cells_per_axis: 32,
            ring_radii: [0.0; matrix_interest::MAX_RINGS],
            ring_sample_rates: [1; matrix_interest::MAX_RINGS],
            grid_autotune: false,
            predict: false,
            error_budgets: [0.0; matrix_interest::MAX_RINGS],
            velocity_quantum: 0.125,
            position_only_ring: 0,
            emit_updates: false,
            max_updates_per_flush: 128,
            client_budget_bytes: 0,
            keyframe_every: 8,
            origin_quantum: 1.0 / 256.0,
            replica_interval: SimDuration::from_millis(200),
            telemetry: false,
            codec: WireCodec::BinaryV2,
            frame_crc: true,
            trace_sample_rate: 0,
        }
    }
}

impl GameServerConfig {
    /// Copies ring tiers from slice form (as game specs carry them) into
    /// the fixed-size config arrays, truncating to
    /// [`matrix_interest::MAX_RINGS`] tiers. Missing rates default to 1.
    pub fn set_rings(&mut self, radii: &[f64], rates: &[u32]) {
        self.ring_radii = [0.0; matrix_interest::MAX_RINGS];
        self.ring_sample_rates = [1; matrix_interest::MAX_RINGS];
        for (i, r) in radii.iter().take(matrix_interest::MAX_RINGS).enumerate() {
            self.ring_radii[i] = *r;
            self.ring_sample_rates[i] = rates.get(i).copied().unwrap_or(1).max(1);
        }
    }

    /// Whether multi-ring AOI tiering is configured (any ring radius
    /// set).
    pub fn rings_configured(&self) -> bool {
        self.ring_radii.iter().any(|r| *r > 0.0)
    }

    /// Copies per-ring error budgets from slice form (as game specs
    /// carry them) into the fixed-size config array, truncating to
    /// [`matrix_interest::MAX_RINGS`]. Missing entries stay `0.0`
    /// (never suppress).
    pub fn set_error_budgets(&mut self, budgets: &[f64]) {
        self.error_budgets = [0.0; matrix_interest::MAX_RINGS];
        for (slot, b) in self.error_budgets.iter_mut().zip(budgets) {
            *slot = b.max(0.0);
        }
    }
}

/// Configuration of the Matrix Coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// A server missing heartbeats for this long is declared dead and its
    /// partition reassigned.
    pub heartbeat_timeout: SimDuration,
    /// Per-ring freshness SLO targets and error budget
    /// ([`matrix_telemetry::SloTargets`]). Fed by the per-ring
    /// staleness histograms riding node heartbeats (which exist only
    /// when nodes run with `telemetry` on and a non-zero
    /// `trace_sample_rate`); all-zero targets (the default) disable the
    /// tracker.
    pub slo: matrix_telemetry::SloTargets,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            heartbeat_timeout: SimDuration::from_secs(5),
            slo: matrix_telemetry::SloTargets::default(),
        }
    }
}

impl CoordinatorConfig {
    /// How often a driver runs `Coordinator::check_liveness`: half the
    /// heartbeat timeout, bounded to [100 ms, 1 s], so a short timeout
    /// is honoured without waiting out a fixed one-second cadence. The
    /// sim and rt drivers both sweep on this clock.
    pub fn sweep_interval(&self) -> SimDuration {
        SimDuration::from_micros((self.heartbeat_timeout.as_micros() / 2).clamp(100_000, 1_000_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_interval_is_half_the_timeout_within_its_bounds() {
        let sweep_ms = |timeout_ms| {
            let cfg = CoordinatorConfig {
                heartbeat_timeout: SimDuration::from_millis(timeout_ms),
                ..CoordinatorConfig::default()
            };
            cfg.sweep_interval().as_micros() / 1_000
        };
        assert_eq!(sweep_ms(100), 100, "floor");
        assert_eq!(sweep_ms(500), 250, "half the timeout");
        assert_eq!(sweep_ms(5_000), 1_000, "cap");
    }

    #[test]
    fn defaults_match_figure_2_thresholds() {
        let c = MatrixConfig::default();
        assert_eq!(c.overload_clients, 300);
        assert_eq!(c.underload_clients, 150);
        assert!(c.adaptive);
    }

    #[test]
    fn static_baseline_disables_adaptation_only() {
        let c = MatrixConfig::static_baseline();
        assert!(!c.adaptive);
        assert_eq!(c.overload_clients, MatrixConfig::default().overload_clients);
    }

    #[test]
    fn rings_default_off_and_copy_from_slices() {
        let mut c = GameServerConfig::default();
        assert!(!c.rings_configured(), "binary radius by default");
        c.set_rings(&[35.0, 65.0, 100.0], &[1, 2]);
        assert!(c.rings_configured());
        assert_eq!(c.ring_radii[..3], [35.0, 65.0, 100.0]);
        assert_eq!(
            c.ring_sample_rates[..3],
            [1, 2, 1],
            "missing rates default to every-event"
        );
        c.set_rings(&[], &[]);
        assert!(!c.rings_configured(), "clearing restores the binary path");
    }

    #[test]
    fn predict_defaults_off_and_budgets_copy_from_slices() {
        let mut c = GameServerConfig::default();
        assert!(!c.predict, "prediction is opt-in");
        assert_eq!(c.error_budgets, [0.0; matrix_interest::MAX_RINGS]);
        assert_eq!(c.position_only_ring, 0, "payload degradation is opt-in");
        c.set_error_budgets(&[0.0, 2.0, 4.0]);
        assert_eq!(c.error_budgets[..3], [0.0, 2.0, 4.0]);
        c.set_error_budgets(&[-1.0]);
        assert_eq!(
            c.error_budgets,
            [0.0; matrix_interest::MAX_RINGS],
            "negative budgets clamp to never-suppress and the rest clears"
        );
    }

    #[test]
    fn hysteresis_requires_multiple_reports() {
        let c = MatrixConfig::default();
        assert!(
            c.overload_streak >= 2,
            "splits must not fire on a single spike"
        );
        assert!(
            c.underload_streak >= 2,
            "reclaims must not fire on a single dip"
        );
    }
}
