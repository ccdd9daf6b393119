//! The composable per-client dissemination pipeline.
//!
//! Earlier revisions hand-wired the dissemination stages inside the game
//! server's flush path: the interest grid was queried in one method, the
//! batcher filled inline, and the flush loop called the policy and the
//! delta encoder back to back with bespoke glue. Every new stage meant
//! editing that monolith in two drivers. [`DisseminationPipeline`] makes
//! the stages an explicit, reusable component with one seam per stage:
//!
//! 1. **interest query** — the [`InterestGrid`](crate::InterestGrid)
//!    answers "who can see this point" within the outermost ring, and
//!    grades each receiver's vision ring while it is at it: one query
//!    serves every subscriber of an occupied cell, and cells whose
//!    conservative distance bounds fall inside a single ring annulus
//!    classify their whole bucket at once
//!    ([`InterestGrid::query_tiered`]);
//! 2. **ring tiering** — [`RingSampler`](crate::RingSampler)
//!    deterministically samples the outer tiers (near = every event);
//! 3. **prediction** — a [`MotionModel`](matrix_predict::MotionModel)
//!    estimates each entity's velocity and a
//!    [`PredictedStream`](matrix_predict::PredictedStream) simulates
//!    every receiver's dead-reckoning extrapolation, *suppressing* the
//!    event for receivers whose prediction stays within the ring's
//!    error budget (the near ring's budget is pinned to 0 — near means
//!    every event, preserving the delivery guarantee). Outer-ring items
//!    can additionally ship position-only
//!    ([`Disseminated::strip_payload`]);
//! 4. **entity merge + budget policy** —
//!    [`FlushPolicy`](crate::FlushPolicy) ranks the queued items by
//!    relevance, supersedes per-entity duplicates under pressure and
//!    enforces the count/byte budgets — over one integer key per queue
//!    entry, the queue staying where it is;
//! 5. **delta encoding** — [`DeltaEncoder`](crate::DeltaEncoder) turns
//!    surviving origins into exact offsets with periodic keyframes,
//!    one item at a time, and the caller's emitter turns each
//!    `(payload, encoded origin)` pair straight into its wire item.
//!
//! # One event, many receivers
//!
//! An event's payload is stored once per flush interval, not once per
//! receiver. Stage 3 builds it once per *(event, ring)* — the copies of
//! one event differ in nothing but the ring tag and what the ring
//! strips — into the pipeline's **event log**, and what a receiver's
//! queue ([`UpdateBatcher`](crate::UpdateBatcher)) holds is the 4-byte
//! index of that log entry. The one per-receiver payload is the rare
//! item that picks up a staleness charge
//! ([`Disseminated::trace_charge`]), which gets a log entry of its own.
//! Stage 4 ranks a queue through the log, stage 5 clones each survivor
//! out of it — the flush's one copy per delivered item, into the
//! finished per-receiver list, which is its one allocation per receiver
//! — and the log is emptied, its memory kept, whenever nothing is left
//! queued: at the end of a flush, and when the last queued receiver
//! departs between flushes. The queues, the log and the ranking scratch
//! ([`PolicyScratch`](crate::PolicyScratch), one per shard) keep their
//! memory from flush to flush.
//!
//! A density-driven [`AutoTuner`](crate::AutoTuner) re-picks the grid
//! resolution as the subscriber count drifts (stage 1's only tunable),
//! rebuilding the index in place.
//!
//! # Sharding
//!
//! All per-*receiver* state — queued batches, sampling phase, delta
//! streams, prediction mirrors, the stage-4/5 span timers — lives in N
//! independent **shards** keyed by a stable hash of the receiver
//! ([`ShardKey`](crate::ShardKey)). Stages 4–5 touch nothing but one
//! receiver's own state, so a flush can process every shard
//! independently, and with more than one shard each runs on its own
//! scoped `std::thread` worker. Because receivers partition across
//! shards and each shard drains in receiver order, merging the
//! per-shard batch lists by receiver reconstructs the exact global
//! order — the flush output is **byte-identical for any shard count**,
//! which is what lets `flush_workers` be a pure performance knob
//! (property-pinned in `tests/interest_properties.rs`).
//!
//! The pipeline is deliberately payload-agnostic: anything implementing
//! [`Disseminated`] flows through, so the middleware's update items, the
//! property suites' synthetic payloads and the benchmarks all drive the
//! same code. With rings untiered and the tuner disabled, the pipeline's
//! output is **byte-identical** to the hand-wired v2 flush path — a
//! property test in `tests/interest_properties.rs` pins that equivalence
//! down, which is what makes this refactor safe to sit under both the
//! discrete-event harness and the async runtime.

use crate::delta::{DeltaEncoder, EncodedOrigin};
use crate::grid::InterestGrid;
use crate::policy::{FlushPolicy, PolicyScratch, ANON_ENTITY};
use crate::rings::{RingSampler, RingSet, MAX_RINGS};
use crate::shard::{shard_of, ShardKey};
use crate::tuner::{AutoTuner, AutoTunerConfig};
use crate::UpdateBatcher;
use matrix_geometry::{Metric, Point, Rect};
use matrix_predict::{
    quantize_velocity, Admission, Basis, IdHashMap, MotionModel, PredictedStream,
};
use matrix_telemetry::{Histogram, Stage, StageSpans};
use std::hash::Hash;

/// What the pipeline needs to know about a payload to rank, merge,
/// budget and account for it.
pub trait Disseminated {
    /// Where the event happened (already quantised by the producer if a
    /// wire lattice is in effect).
    fn origin(&self) -> Point;
    /// Source entity id (`0` = anonymous, exempt from per-entity
    /// superseding).
    fn entity(&self) -> u64;
    /// Estimated absolute wire cost, used by the byte budget.
    fn wire_bytes(&self) -> usize;
    /// The vision ring this item was admitted under (`0` = near). The
    /// producer's `make` callback receives the ring and embeds it in
    /// the payload (it usually travels to the receiver as a fidelity
    /// tag), so the pipeline queues no side-band tier state.
    fn ring(&self) -> u8 {
        0
    }
    /// Degrades this item to position-only: strip the game payload,
    /// keep the origin (and velocity). Applied by the pipeline to items
    /// admitted through rings at or beyond
    /// [`PipelineConfig::position_only_ring`] — a far-ring entity's
    /// whereabouts matter for rendering, its full state rarely does.
    /// The default is a no-op for payloads with nothing to strip.
    fn strip_payload(&mut self) {}
    /// The causal trace tag riding this item, if the producer sampled
    /// it ([`matrix_telemetry::TraceTag`]). Untraced payloads (the
    /// default, and every payload when `trace_sample_rate` is 0) return
    /// `None` and cost the pipeline nothing.
    fn trace(&self) -> Option<matrix_telemetry::TraceTag> {
        None
    }
    /// Charges the age of an undelivered predecessor (µs before this
    /// item's ingest) to the item's trace tag, so the suppressed or
    /// policy-dropped event's latency surfaces as staleness on the next
    /// delivered rebase instead of vanishing. A no-op for untraced
    /// payloads.
    fn trace_charge(&mut self, _age_us: u64) {}
}

/// Configuration of the pipeline's dead-reckoning stage.
///
/// The error budget is an exact bound on the receiver's extrapolation
/// error *at admission*: suppression simulates the receiver with the
/// receiver's own arithmetic, so a suppressed event is one the
/// receiver provably reconstructs within budget. Downstream of this
/// stage the ordinary batching semantics apply — an admitted rebase
/// waits out the batch interval like any item, and under count/byte
/// cap pressure ([`FlushPolicy`]) it can be deferred to a later flush
/// with the same staleness the rate limiter always traded. The
/// configurations whose end-to-end error bound is verified (E15, the
/// property suites) therefore run per-event flushes with the caps off;
/// production deployments that cap flushes should read the budget as
/// an admission-time bound, not a render-time one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Master switch. Off (the default) keeps the pipeline byte-identical
    /// to the pre-prediction send path: no velocities on the wire, no
    /// suppression, no motion bookkeeping.
    pub enabled: bool,
    /// Per-ring receiver error budgets in world units, parallel to the
    /// ring set (`0.0` = never suppress). The near ring (index 0) is
    /// pinned to `0.0` regardless of this entry — near means every
    /// event.
    pub error_budgets: [f64; MAX_RINGS],
    /// Sliding-window length of the per-entity velocity estimator
    /// (observations; clamped to ≥ 2).
    pub motion_window: u32,
    /// Fixed-point lattice shipped velocities are snapped to, in world
    /// units per second (`0.0` = fall back to the origin lattice).
    /// Velocities tolerate a much coarser lattice than origins: a
    /// quantization error of `q/2` per axis drifts the receiver by at
    /// most `q/√2 · t` over a basis lifetime `t`, far inside any usable
    /// ring budget. Keep it a power-of-two multiple of the origin
    /// quantum so the codec's fixed-point field carries the snapped
    /// value exactly.
    pub velocity_quantum: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            enabled: false,
            error_budgets: [0.0; MAX_RINGS],
            motion_window: 4,
            velocity_quantum: 0.125,
        }
    }
}

impl PredictorConfig {
    /// An enabled predictor with the given per-ring budgets (missing
    /// entries stay `0.0` = never suppress).
    pub fn with_budgets(budgets: &[f64]) -> PredictorConfig {
        let mut cfg = PredictorConfig {
            enabled: true,
            ..PredictorConfig::default()
        };
        for (slot, b) in cfg.error_budgets.iter_mut().zip(budgets) {
            *slot = b.max(0.0);
        }
        cfg
    }

    /// The effective budget for a ring: entry clamped into the array,
    /// with the near ring pinned to 0 (every event).
    pub fn budget_for(&self, ring: u8) -> f64 {
        if ring == 0 {
            return 0.0;
        }
        self.error_budgets[(ring as usize).min(MAX_RINGS - 1)]
    }
}

/// Static configuration of a pipeline (everything except the grid
/// geometry, which arrives via [`DisseminationPipeline::reset`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Distance metric for interest queries and relevance ranking.
    pub metric: Metric,
    /// Per-client, per-flush delivery budgets (stage 3).
    pub policy: FlushPolicy,
    /// Delta keyframe interval (stage 4; `0` = absolute-only).
    pub keyframe_every: u32,
    /// Fixed-point lattice the delta encoder verifies offsets against
    /// (`0.0` = no lattice requirement). Shipped velocities snap to
    /// their own, coarser lattice —
    /// [`PredictorConfig::velocity_quantum`].
    pub origin_quantum: f64,
    /// Grid resolution auto-tuning (stage 1's knob).
    pub autotune: AutoTunerConfig,
    /// Dead-reckoning suppression (stage 3's knob).
    pub predict: PredictorConfig,
    /// Ring index from which items ship position-only
    /// ([`Disseminated::strip_payload`]); `0` disables payload
    /// degradation (the near ring always ships in full).
    pub position_only_ring: u8,
    /// Enables the per-stage span timers
    /// ([`DisseminationPipeline::spans`]): each stage's time per flush
    /// cycle lands in a latency histogram. Off (the default), every
    /// timing call is a branch-only no-op — no clock reads.
    pub telemetry: bool,
}

/// One receiver's flushed batch, already in the caller's wire form:
/// the flush hands every kept payload and its [`EncodedOrigin`] to the
/// caller's emitter ([`DisseminationPipeline::flush`]) and collects what
/// it returns, so no intermediate list of payloads or encodings exists.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushBatch<K, B, A> {
    /// The receiving subscriber.
    pub receiver: K,
    /// The emitter's output per kept payload, most relevant first.
    /// Never empty.
    pub items: Vec<B>,
    /// The emitter's accumulator for this batch (starts at
    /// `A::default()`, sees every item): whatever the caller counts per
    /// batch — rings, keyframes, wire bytes — in the pass that builds
    /// `items`.
    pub tally: A,
    /// Items merged or dropped by the budget policy for this receiver.
    pub rate_limited: u64,
}

/// Everything one flush produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlushOutcome<K, B, A> {
    /// Per-receiver batches, in receiver order.
    pub batches: Vec<FlushBatch<K, B, A>>,
    /// Queued items discarded because their receiver vanished between
    /// enqueue and flush.
    pub orphaned: u64,
}

/// What one dissemination (stages 1–3) did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DisseminateStats {
    /// Receivers the event was delivered to (queued, or counted when
    /// emission is off).
    pub delivered: u64,
    /// Receivers inside the AOI whose ring sampled this event out.
    pub sampled_out: u64,
    /// Receivers whose dead-reckoning extrapolation held this event
    /// within the ring's error budget — nothing was queued; the
    /// receiver's prediction stands in for the transmission.
    pub suppressed: u64,
    /// Items degraded to position-only by the per-ring payload policy.
    pub stripped: u64,
    /// Sum of the simulated receiver errors over the suppressed
    /// deliveries (world units) — `sum / suppressed` is the mean error
    /// the predictions absorbed.
    pub pred_error_sum: f64,
    /// Largest simulated receiver error among the suppressed deliveries.
    pub pred_error_max: f64,
}

/// One shard of per-receiver state. Every structure in here is keyed by
/// the receiver and every flush-time access touches exactly one
/// receiver's entry, so shards are fully independent during a flush —
/// the invariant the parallel path rests on.
#[derive(Debug, Clone)]
struct Shard<K: Ord> {
    sampler: RingSampler<K>,
    /// Per-receiver queues of indices into the pipeline's event log.
    batcher: UpdateBatcher<K, u32>,
    encoder: DeltaEncoder<K>,
    predicted: PredictedStream<K>,
    /// Stage-4/5 lap timers; stages 1–3 run on the driver thread and
    /// time into the pipeline-level spans.
    spans: StageSpans,
    /// Trace-plane staleness charges: entity → receiver → earliest
    /// undelivered event time (µs). Populated when a suppressed or
    /// policy-dropped item leaves a gap in the receiver's view; drained
    /// onto the next emitted item for that pair
    /// ([`Disseminated::trace_charge`]). Keyed entity-first so the
    /// fan-out hot loop pays one lookup per *event* (the entity is
    /// fixed across its whole receiver set), not one per delivered
    /// item. Empty — and never touched — unless trace charging is
    /// armed. Both levels hash router-assigned ids ([`IdHashMap`]);
    /// nothing reads either in table order — every access is a probe by
    /// key or an order-blind `retain`.
    charges: IdHashMap<u64, IdHashMap<K, u64>>,
    /// Stage 4's ranking memory, reused across receivers and flushes.
    /// Per shard, so parallel flush workers share nothing.
    ranking: PolicyScratch,
    /// Queue positions of the traced items the policy kept for the
    /// receiver at hand (trace charging only).
    kept_traced: Vec<usize>,
}

/// The composed dissemination pipeline (see the module docs for the
/// stage walk-through).
#[derive(Debug, Clone)]
pub struct DisseminationPipeline<K: Ord + Copy + Eq + Hash, U> {
    metric: Metric,
    policy: FlushPolicy,
    rings: RingSet,
    grid: InterestGrid<K>,
    tuner: AutoTuner,
    predict: PredictorConfig,
    position_only_ring: u8,
    vel_quantum: f64,
    keyframe_every: u32,
    origin_quantum: f64,
    telemetry: bool,
    motion: MotionModel,
    /// Driver-thread spans: stages 1–3 (Query, Tier, Predict). The
    /// per-shard spans cover stages 4–5 (Policy, Delta);
    /// [`DisseminationPipeline::stage_histogram`] merges the two views.
    spans: StageSpans,
    /// Per-receiver state, partitioned by stable receiver hash. Always
    /// at least one shard; the single-shard default is exactly the
    /// pre-sharding pipeline.
    shards: Vec<Shard<K>>,
    /// The event log of the open flush interval: every payload queued
    /// since the last flush, once per *(event, ring)* plus once per
    /// charged delivery. The shards' queues index into it; it is
    /// emptied (capacity kept) on every path that leaves nothing
    /// queued, so its length is bounded by one interval's events.
    log: Vec<U>,
    /// Whether the trace plane's staleness charging is armed (the
    /// producer stamps trace tags): suppressed and policy-dropped
    /// events then charge their age to the next delivered rebase. Off
    /// (the default), the charge maps stay empty and every charging
    /// site is a single branch.
    trace_charging: bool,
    /// Reused per-dissemination candidate buffer `(key, pos, ring)` —
    /// stage 1 fills it, stages 2–3 compact and drain it in place.
    scratch: Vec<(K, Point, u8)>,
    /// Reused per-dissemination "shard holds charges for this entity"
    /// flags, one per shard: probed once per event so the delivery loop
    /// skips the charge-map lookup for the (overwhelmingly common)
    /// uncharged entities.
    charged: Vec<bool>,
}

impl<K: Ord + Copy + Eq + Hash + ShardKey, U: Disseminated> DisseminationPipeline<K, U> {
    /// Builds a pipeline over `bounds` at `cells_per_axis`, with the
    /// given ring tiers and a single shard (the sequential path).
    pub fn new(
        bounds: Rect,
        cells_per_axis: u32,
        rings: RingSet,
        cfg: PipelineConfig,
    ) -> DisseminationPipeline<K, U> {
        let cells = cells_per_axis.max(1);
        let mut p = DisseminationPipeline {
            metric: cfg.metric,
            policy: cfg.policy,
            rings,
            grid: Self::make_grid(bounds, cells),
            tuner: AutoTuner::new(cfg.autotune, cells),
            predict: cfg.predict,
            position_only_ring: cfg.position_only_ring,
            vel_quantum: if cfg.predict.velocity_quantum > 0.0 {
                cfg.predict.velocity_quantum
            } else {
                cfg.origin_quantum
            },
            keyframe_every: cfg.keyframe_every,
            origin_quantum: cfg.origin_quantum,
            telemetry: cfg.telemetry,
            motion: MotionModel::new(cfg.predict.motion_window),
            spans: StageSpans::new(cfg.telemetry),
            shards: Vec::new(),
            log: Vec::new(),
            trace_charging: false,
            scratch: Vec::new(),
            charged: Vec::new(),
        };
        p.shards = vec![p.make_shard()];
        p
    }

    /// Re-partitions per-receiver state across `shards` shards (clamped
    /// to ≥ 1). Intended at construction, before any state accumulates:
    /// existing queued batches, streams and bases are discarded, not
    /// re-routed.
    pub fn with_shards(mut self, shards: u32) -> DisseminationPipeline<K, U> {
        let n = (shards as usize).max(1);
        self.shards = (0..n).map(|_| self.make_shard()).collect();
        self.log.clear();
        self
    }

    /// Arms the trace plane's staleness charging (producers stamp
    /// [`matrix_telemetry::TraceTag`]s on sampled items): suppressed
    /// and policy-dropped events record the gap they leave, and the
    /// next emitted rebase of the same `(receiver, entity)` pair picks
    /// the charge up via [`Disseminated::trace_charge`]. Off (the
    /// default), every charging site is a single branch and no map is
    /// touched.
    pub fn with_trace_charging(mut self) -> DisseminationPipeline<K, U> {
        self.set_trace_charging(true);
        self
    }

    /// In-place form of [`DisseminationPipeline::with_trace_charging`].
    pub fn set_trace_charging(&mut self, on: bool) {
        self.trace_charging = on;
    }

    /// Whether trace charging is armed.
    pub fn trace_charging(&self) -> bool {
        self.trace_charging
    }

    /// The number of shards per-receiver state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn make_shard(&self) -> Shard<K> {
        Shard {
            sampler: RingSampler::new(),
            batcher: UpdateBatcher::new(),
            encoder: DeltaEncoder::new(self.keyframe_every).with_quantum(self.origin_quantum),
            predicted: PredictedStream::new(),
            spans: StageSpans::new(self.telemetry),
            charges: IdHashMap::default(),
            ranking: PolicyScratch::default(),
            kept_traced: Vec::new(),
        }
    }

    /// The shard a receiver's state lives in. The single-shard default
    /// skips the hash entirely — the sequential path pays nothing for
    /// the sharding seam.
    #[inline]
    fn shard_ix(&self, key: K) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            shard_of(key.shard_hash(), self.shards.len())
        }
    }

    /// Hold jittering subscribers in their cell for a tenth of a cell;
    /// the grid widens queries by the same margin, so results are exact.
    fn make_grid(bounds: Rect, cells: u32) -> InterestGrid<K> {
        let margin = 0.1 * (bounds.width() / cells as f64).min(bounds.height() / cells as f64);
        InterestGrid::new(bounds, cells).with_hysteresis(margin.max(0.0))
    }

    // -- subscribers (stage 1 state) -----------------------------------------

    /// Adds or re-adds a subscriber, resetting its delta stream (a
    /// (re)joining receiver holds no base, so its next flush keyframes)
    /// and its prediction bases (a fresh connection extrapolates from
    /// nothing, so the sender's mirror must be empty too).
    pub fn subscribe(&mut self, key: K, pos: Point) {
        self.grid.insert(key, pos);
        let si = self.shard_ix(key);
        let shard = &mut self.shards[si];
        shard.encoder.reset(key);
        shard.predicted.forget_receiver(key);
    }

    /// Repositions a subscriber.
    pub fn reposition(&mut self, key: K, pos: Point) {
        self.grid.update(key, pos);
    }

    /// Removes a subscriber, dropping its queued updates, delta stream,
    /// sampling and prediction state. Returns how many queued updates
    /// died with it.
    pub fn unsubscribe(&mut self, key: K) -> usize {
        self.grid.remove(key);
        let si = self.shard_ix(key);
        let shard = &mut self.shards[si];
        shard.encoder.reset(key);
        shard.sampler.forget(key);
        shard.predicted.forget_receiver(key);
        if !shard.charges.is_empty() {
            shard.charges.retain(|_, owed| {
                owed.remove(&key);
                !owed.is_empty()
            });
        }
        let dropped = shard.batcher.forget(key);
        // If that was the last queued item, nothing refers to the log
        // any more — and no flush may come to empty it: a driver that
        // sees nothing pending skips the flush, so entries left behind
        // by departed receivers would pile up interval after interval.
        if dropped > 0 && !self.has_pending() {
            self.log.clear();
        }
        dropped
    }

    /// Drops every trace of a departed *entity* (motion track and every
    /// receiver's prediction basis for it). Distinct from
    /// [`DisseminationPipeline::unsubscribe`], which removes a
    /// *receiver*: a client is usually both.
    pub fn forget_entity(&mut self, entity: u64) {
        self.motion.forget(entity);
        for shard in &mut self.shards {
            shard.predicted.forget_entity(entity);
            // A departed entity never rebases again; its staleness
            // charges are undeliverable and would otherwise pin the
            // charge map non-empty forever.
            shard.charges.remove(&entity);
        }
    }

    /// Re-anchors the grid to a new range with the given subscriber set
    /// (splits, reclaims, promotions — rare), keeping the tuned
    /// resolution, streams and pending batches.
    pub fn reset(&mut self, bounds: Rect, subscribers: impl IntoIterator<Item = (K, Point)>) {
        self.grid = Self::make_grid(bounds, self.tuner.current());
        for (key, pos) in subscribers {
            self.grid.insert(key, pos);
        }
        // Receivers that left with the old set must not keep a retained
        // (empty) queue behind; queues with items in them stay pending.
        for shard in &mut self.shards {
            shard.batcher.release_idle();
        }
    }

    /// Replaces the ring tiers (the registered radius changed).
    pub fn set_rings(&mut self, rings: RingSet) {
        self.rings = rings;
    }

    /// The current ring tiers.
    pub fn rings(&self) -> &RingSet {
        &self.rings
    }

    /// The interest grid (drivers query it for observability).
    pub fn grid(&self) -> &InterestGrid<K> {
        &self.grid
    }

    /// The grid resolution currently in effect.
    pub fn cells_per_axis(&self) -> u32 {
        self.grid.cells_per_axis()
    }

    /// The driver-thread span timers — stages 1–3 (a no-op sink unless
    /// the pipeline was built with [`PipelineConfig::telemetry`] on).
    /// Stage 4–5 time lands in per-shard spans;
    /// [`DisseminationPipeline::stage_histogram`] is the merged view.
    pub fn spans(&self) -> &StageSpans {
        &self.spans
    }

    /// The per-flush latency histogram of one stage (µs), merged across
    /// the driver-thread spans (stages 1–3) and every shard's spans
    /// (stages 4–5). With one shard this is exactly the pre-sharding
    /// histogram; with N shards the Policy/Delta histograms carry one
    /// sample per shard per flush.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        match stage {
            Stage::Query | Stage::Tier | Stage::Predict => self.spans.histogram(stage).clone(),
            Stage::Policy | Stage::Delta => {
                let mut merged = Histogram::new();
                for shard in &self.shards {
                    merged.merge(shard.spans.histogram(stage));
                }
                merged
            }
        }
    }

    /// Per-shard, per-stage breakdown (µs) of the most recent completed
    /// flush — the slow-flush capture's raw material. One entry per
    /// shard: stages 1–3 are the driver-thread spans (identical in
    /// every entry — disseminations are not sharded), stages 4–5 that
    /// shard's own. All zeros before the first flush or with telemetry
    /// off.
    pub fn last_flush_spans(&self) -> Vec<[f64; matrix_telemetry::STAGE_COUNT]> {
        let driver = self.spans.last_flush_us();
        self.shards
            .iter()
            .map(|shard| {
                let own = shard.spans.last_flush_us();
                let mut row = driver;
                row[Stage::Policy as usize] = own[Stage::Policy as usize];
                row[Stage::Delta as usize] = own[Stage::Delta as usize];
                row
            })
            .collect()
    }

    /// Cumulative per-shard time (µs) spent in one of the sharded
    /// stages (Policy or Delta) — the flush-imbalance gauge's raw
    /// material: `max / mean` over this vector says how unevenly the
    /// receiver hash spread the stage-5 work. Stages 1–3 run unsharded
    /// on the driver thread, so they yield a single-element vector.
    pub fn shard_stage_sums(&self, stage: Stage) -> Vec<f64> {
        match stage {
            Stage::Query | Stage::Tier | Stage::Predict => {
                vec![self.spans.histogram(stage).sum()]
            }
            Stage::Policy | Stage::Delta => self
                .shards
                .iter()
                .map(|shard| shard.spans.histogram(stage).sum())
                .collect(),
        }
    }

    // -- stages 1–3: query, tier, sample, predict, queue ---------------------

    /// Disseminates one event: queries the grid within the outermost
    /// ring — grading each receiver's ring in the same pass, whole
    /// cells at a time where the cell's distance bounds allow — then
    /// samples the outer tiers, runs dead-reckoning suppression against
    /// each receiver's prediction basis, and (when `emit`) queues the
    /// event for every admitted receiver. `origin` is the true event
    /// position (AOI distances); `wire_origin` is the lattice-snapped
    /// position receivers reconstruct — prediction bases are kept in
    /// wire coordinates so the sender's error simulation matches the
    /// receiver bit-for-bit. `make` produces the payload, embedding the
    /// ring it is admitted under and the velocity shipped with the item
    /// (`(0.0, 0.0)` whenever prediction is off). It is called once per
    /// event and ring that admitted anyone — every receiver of that
    /// ring shares the one logged payload — plus once per delivery that
    /// picks up a staleness charge, so it must be a pure function of
    /// its arguments. An untiered ring set with prediction off costs
    /// exactly what the binary-radius fan-out did.
    ///
    /// `suppressible` marks events whose content a receiver can
    /// reconstruct by extrapolation — pure position updates. Events
    /// carrying payloads a prediction cannot reproduce (actions,
    /// chat, remote deliveries) must pass `false`: they still feed the
    /// motion model and *rebase* every receiver's prediction (the item
    /// carries origin + velocity like any other), but they are never
    /// suppressed — losing an action is a gameplay bug, not graceful
    /// degradation.
    #[allow(clippy::too_many_arguments)] // one seam per stage input, by design
    pub fn disseminate(
        &mut self,
        origin: Point,
        wire_origin: Point,
        entity: u64,
        now_secs: f64,
        suppressible: bool,
        exclude: Option<K>,
        emit: bool,
        mut make: impl FnMut(u8, (f64, f64)) -> U,
    ) -> DisseminateStats {
        let mut stats = DisseminateStats::default();
        let rings = self.rings;
        // Trace-plane charging works in whole microseconds of the same
        // clock the producer stamps tags with; only armed — and only
        // when items actually queue — does it cost anything.
        let charging = self.trace_charging && emit;
        let now_us = if charging { (now_secs * 1e6) as u64 } else { 0 };
        // Anonymous events carry no entity identity to model or to
        // extrapolate, so they bypass the prediction stage entirely.
        let predicting = self.predict.enabled && entity != ANON_ENTITY;
        let vel = if predicting {
            // The model observes every event — suppressed or not — so
            // the velocity estimate tracks the true trajectory. The
            // shipped velocity sits on its own (coarser) wire lattice;
            // see [`PredictorConfig::velocity_quantum`].
            self.motion.observe(entity, wire_origin, now_secs);
            quantize_velocity(self.motion.velocity(entity), self.vel_quantum)
        } else {
            (0.0, 0.0)
        };
        self.spans.begin();
        // Stage 1: the grid answers "who can see this point" and grades
        // each receiver's ring in the same pass (amortized per cell).
        // Candidates land in a reusable scratch buffer so the later
        // stages run as plain loops the span timer can bracket;
        // iteration order is the grid's, exactly as when the stages
        // were fused in one closure.
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        self.grid.query_tiered(
            origin,
            rings.outer_radius(),
            self.metric,
            &rings,
            |key, pos, ring| {
                if Some(key) != exclude {
                    candidates.push((key, pos, ring));
                }
            },
        );
        self.spans.lap(Stage::Query);
        // Stage 2: let the sampler thin the periphery, compacting
        // survivors in place (inner-ring admission is stateless, so the
        // untiered path touches no sampler state).
        let mut kept = 0;
        for i in 0..candidates.len() {
            let (key, pos, ring) = candidates[i];
            let si = self.shard_ix(key);
            if !self.shards[si].sampler.admit(&rings, key, ring) {
                stats.sampled_out += 1;
                continue;
            }
            candidates[kept] = (key, pos, ring);
            kept += 1;
        }
        candidates.truncate(kept);
        self.spans.lap(Stage::Tier);
        // One charge-map probe per shard for the whole event: the
        // entity is fixed across its receiver set, so these flags tell
        // the delivery loop below whether any receiver can possibly owe
        // a charge. Suppressions during this loop only insert charges
        // for receivers that were *not* delivered, so a pre-loop
        // snapshot cannot miss a drainable charge.
        if charging {
            self.charged.clear();
            self.charged
                .extend(self.shards.iter().map(|s| s.charges.contains_key(&entity)));
        }
        // Stage 3: dead-reckoning admission, payload stripping, queueing.
        // The payload is built and logged once per ring that admits
        // anyone; `logged` remembers where.
        let mut logged: [Option<u32>; MAX_RINGS] = [None; MAX_RINGS];
        for &(key, _, ring) in &candidates {
            let si = self.shard_ix(key);
            if predicting {
                // Non-suppressible events admit with budget 0:
                // always transmitted, and the transmission rebases
                // the receiver's prediction like any other.
                let budget = if suppressible {
                    self.predict.budget_for(ring)
                } else {
                    0.0
                };
                match self.shards[si].predicted.admit(
                    key,
                    entity,
                    wire_origin,
                    vel,
                    now_secs,
                    budget,
                ) {
                    Admission::Suppress { error } => {
                        stats.suppressed += 1;
                        stats.pred_error_sum += error;
                        stats.pred_error_max = stats.pred_error_max.max(error);
                        if charging {
                            // The receiver extrapolates instead of
                            // hearing this event; remember the earliest
                            // uncovered event time so the next delivered
                            // rebase carries the staleness it papered
                            // over.
                            self.shards[si]
                                .charges
                                .entry(entity)
                                .or_default()
                                .entry(key)
                                .and_modify(|t| *t = (*t).min(now_us))
                                .or_insert(now_us);
                        }
                        continue;
                    }
                    Admission::Send => {}
                }
            }
            stats.delivered += 1;
            let strip = self.position_only_ring > 0 && ring >= self.position_only_ring;
            if strip {
                stats.stripped += 1;
            }
            if emit {
                let mut variant = || {
                    let mut item = make(ring, vel);
                    if strip {
                        item.strip_payload();
                    }
                    item
                };
                // A delivered rebase closes the gap: pick up the pending
                // charge (observed only if this item is traced — sampled
                // observability) and clear it.
                let mut owed_since = None;
                if charging && self.charged[si] {
                    if let Some(owed) = self.shards[si].charges.get_mut(&entity) {
                        owed_since = owed.remove(&key);
                        if owed.is_empty() {
                            self.shards[si].charges.remove(&entity);
                        }
                    }
                }
                let at = if let Some(first_us) = owed_since {
                    // The charge makes this receiver's copy differ from
                    // everyone else's: it gets a log entry of its own.
                    let mut item = variant();
                    item.trace_charge(now_us.saturating_sub(first_us));
                    push_logged(&mut self.log, item)
                } else {
                    *logged[(ring as usize).min(MAX_RINGS - 1)]
                        .get_or_insert_with(|| push_logged(&mut self.log, variant()))
                };
                self.shards[si].batcher.push(key, at);
            }
        }
        self.spans.lap(Stage::Predict);
        candidates.clear();
        self.scratch = candidates;
        stats
    }

    /// Whether any updates are queued.
    pub fn has_pending(&self) -> bool {
        self.shards.iter().any(|s| !s.batcher.is_empty())
    }

    /// Drops every queued update and all sampling phase (promotions: a
    /// promoted node starts with no queue).
    pub fn clear_pending(&mut self) {
        for shard in &mut self.shards {
            shard.batcher = UpdateBatcher::new();
            shard.sampler.clear();
            shard.charges.clear();
        }
        self.log.clear();
    }

    // -- stages 4+5: merge, budget, encode -----------------------------------

    /// Flushes every queued batch through the policy and the encoder,
    /// shard by shard. `viewer_of` resolves a receiver's current
    /// position; `None` means the receiver vanished between enqueue and
    /// flush (its items are discarded and counted in
    /// [`FlushOutcome::orphaned`]). `emit` turns each kept payload and
    /// its encoded origin into the caller's wire item, in delivery
    /// order, with a per-batch accumulator for whatever the caller
    /// tallies on the way ([`FlushBatch::tally`]). With more than one
    /// shard each runs on its own scoped worker thread; the batches come
    /// back in global receiver order and the outcome is byte-identical
    /// for any shard count.
    pub fn flush<A, B>(
        &mut self,
        viewer_of: impl Fn(K) -> Option<Point> + Sync,
        emit: impl Fn(&mut A, U, EncodedOrigin) -> B + Sync,
    ) -> FlushOutcome<K, B, A>
    where
        K: Send + Sync,
        U: Clone + Send + Sync,
        A: Default + Send,
        B: Send,
    {
        let metric = self.metric;
        let policy = self.policy;
        let charging = self.trace_charging;
        // Every shard reads the same log; none writes it.
        let log = &self.log[..];
        let per_shard: Vec<FlushOutcome<K, B, A>> = if self.shards.len() > 1 {
            let (viewer_of, emit) = (&viewer_of, &emit);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| {
                        s.spawn(move || {
                            Self::flush_shard(shard, log, metric, policy, charging, viewer_of, emit)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("flush worker panicked"))
                    .collect()
            })
        } else {
            self.shards
                .iter_mut()
                .map(|shard| {
                    Self::flush_shard(shard, log, metric, policy, charging, &viewer_of, &emit)
                })
                .collect()
        };
        let mut per_shard = per_shard.into_iter();
        let mut outcome = per_shard.next().expect("a pipeline has at least one shard");
        for shard in per_shard {
            outcome.batches.extend(shard.batches);
            outcome.orphaned += shard.orphaned;
        }
        // Receivers partition across shards and each shard drains in
        // receiver order, so one sort by receiver reconstructs the
        // exact global order the single-shard drain produces.
        if self.shards.len() > 1 {
            outcome.batches.sort_by_key(|b| b.receiver);
        }
        // One flush cycle ends here: the driver spans fold the time the
        // disseminations attributed to stages 1–3 into one histogram
        // sample each (the shard spans did the same for stages 4–5).
        self.spans.end_flush();
        // Every queue was drained, so nothing refers to the log now.
        self.log.clear();
        outcome
    }

    /// Stages 4–5 over one shard. Writes nothing outside the shard (the
    /// event log is only read), so concurrent calls on distinct shards
    /// are race-free by construction.
    fn flush_shard<A: Default, B>(
        shard: &mut Shard<K>,
        log: &[U],
        metric: Metric,
        policy: FlushPolicy,
        charging: bool,
        viewer_of: &impl Fn(K) -> Option<Point>,
        emit: &impl Fn(&mut A, U, EncodedOrigin) -> B,
    ) -> FlushOutcome<K, B, A>
    where
        U: Clone,
    {
        let Shard {
            batcher,
            encoder,
            predicted,
            spans,
            charges,
            ranking,
            kept_traced,
            ..
        } = shard;
        let mut batches = Vec::with_capacity(batcher.receivers());
        let mut orphaned = 0u64;
        spans.begin();
        batcher.drain_each(|receiver, queued| {
            let Some(viewer) = viewer_of(receiver) else {
                orphaned += queued.len() as u64;
                encoder.reset(receiver);
                // The prediction mirror dies with the stream: these
                // queued rebases never reached the receiver, so bases
                // recorded for them describe state nobody holds.
                predicted.forget_receiver(receiver);
                // And so do its staleness charges: nobody is left to
                // deliver them to.
                if !charges.is_empty() {
                    charges.retain(|_, owed| {
                        owed.remove(&receiver);
                        !owed.is_empty()
                    });
                }
                return false;
            };
            // Stage 4 ranks positions in the queue, reading each entry's
            // payload through the log; nothing moves yet.
            let logged = |at: &u32| &log[*at as usize];
            let dropped = policy.select(
                viewer,
                metric,
                |at| logged(at).origin(),
                |at| logged(at).entity(),
                |at| logged(at).wire_bytes(),
                queued,
                ranking,
            );
            // When the policy kept everything, every traced item
            // survived by construction — nothing to re-charge.
            if charging && dropped > 0 {
                // A traced item the policy merged or dropped leaves the
                // same gap a suppression does: re-charge it so the next
                // delivered rebase of its entity carries the full age
                // (chained drops keep compounding via charge_origin).
                // One pass collects the surviving traced items so the
                // per-item check is against that (tiny) subset, not the
                // whole kept list.
                kept_traced.clear();
                kept_traced.extend(
                    ranking
                        .kept()
                        .filter(|&i| logged(&queued[i]).trace().is_some()),
                );
                for (i, u) in queued.iter().map(logged).enumerate() {
                    let Some(tag) = u.trace() else { continue };
                    if !kept_traced.contains(&i) {
                        let first_us = tag.charge_origin_us();
                        charges
                            .entry(u.entity())
                            .or_default()
                            .entry(receiver)
                            .and_modify(|t| *t = (*t).min(first_us))
                            .or_insert(first_us);
                    }
                }
            }
            spans.lap(Stage::Policy);
            // Stage 5, fused with the caller's wire-item assembly: each
            // survivor is copied out of the log once, straight into the
            // finished list — the flush's one allocation for this
            // receiver.
            let mut tally = A::default();
            let mut items = Vec::with_capacity(ranking.kept().len());
            let mut stream = encoder.begin_flush(receiver);
            for i in ranking.kept() {
                let item = logged(&queued[i]).clone();
                let origin = stream.encode(item.origin());
                items.push(emit(&mut tally, item, origin));
            }
            stream.finish();
            batches.push(FlushBatch {
                receiver,
                items,
                tally,
                rate_limited: dropped as u64,
            });
            spans.lap(Stage::Delta);
            true
        });
        spans.end_flush();
        FlushOutcome { batches, orphaned }
    }

    // -- delta-stream bookkeeping --------------------------------------------

    /// Wipes every delta stream (driver shutdown, promotions).
    pub fn clear_streams(&mut self) {
        for shard in &mut self.shards {
            shard.encoder.clear();
        }
    }

    /// Number of receivers currently holding a delta base.
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.encoder.streams()).sum()
    }

    // -- prediction bases ----------------------------------------------------

    /// Exports every prediction basis as `(receiver, [(entity, basis)])`
    /// in global key order (region snapshots): what each receiver
    /// currently extrapolates each entity from.
    pub fn export_bases(&self) -> Vec<(K, Vec<(u64, Basis)>)> {
        let mut out: Vec<(K, Vec<(u64, Basis)>)> = self
            .shards
            .iter()
            .flat_map(|s| s.predicted.export())
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Replaces the prediction-basis table with exported state,
    /// re-routing each receiver to its shard under the *local* shard
    /// count. A promoted standby importing the primary's bases keeps
    /// suppressing consistently with what the receivers actually hold,
    /// instead of rebasing (and retransmitting) every entity at
    /// failover — even when its `flush_workers` differs from the
    /// primary's.
    pub fn import_bases(&mut self, bases: impl IntoIterator<Item = (K, Vec<(u64, Basis)>)>) {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for entry in bases {
            per_shard[self.shard_ix(entry.0)].push(entry);
        }
        for (shard, entries) in self.shards.iter_mut().zip(per_shard) {
            shard.predicted.import(entries);
        }
    }

    /// Wipes every prediction basis and motion track (driver shutdown:
    /// reconnecting receivers start extrapolating from nothing).
    pub fn clear_bases(&mut self) {
        for shard in &mut self.shards {
            shard.predicted.clear();
        }
        self.motion.clear();
    }

    /// Number of receivers currently holding at least one prediction
    /// basis (observability for drivers and tests).
    pub fn prediction_receivers(&self) -> usize {
        self.shards.iter().map(|s| s.predicted.receivers()).sum()
    }

    // -- auto-tuning ---------------------------------------------------------

    /// Feeds the tuner one density observation; when it decides on a new
    /// resolution, the grid is rebuilt in place (subscribers, streams
    /// and pending batches all survive) and the new value returned.
    pub fn maybe_retune(&mut self) -> Option<u32> {
        let cells = self.tuner.observe(self.grid.len())?;
        let bounds = self.grid.bounds();
        let subscribers: Vec<(K, Point)> = self.grid.subscribers().collect();
        self.grid = Self::make_grid(bounds, cells);
        for (key, pos) in subscribers {
            self.grid.insert(key, pos);
        }
        Some(cells)
    }

    /// Exports the tuner state as `(cells, streak, pending)` (region
    /// snapshots).
    pub fn tuner_state(&self) -> (u32, u32, u32) {
        self.tuner.state()
    }

    /// Whether the auto-tuner is enabled.
    pub fn autotune_enabled(&self) -> bool {
        self.tuner.is_enabled()
    }

    /// Adopts a replicated tuner state (promotions), rebuilding the
    /// grid if the inherited resolution differs from the current one —
    /// a promoted standby starts with the primary's tuned grid instead
    /// of re-learning the density.
    pub fn restore_tuner(&mut self, cells: u32, streak: u32, pending: u32) {
        self.tuner.restore(cells, streak, pending);
        if self.tuner.current() != self.grid.cells_per_axis() {
            let bounds = self.grid.bounds();
            let subscribers: Vec<(K, Point)> = self.grid.subscribers().collect();
            self.grid = Self::make_grid(bounds, self.tuner.current());
            for (key, pos) in subscribers {
                self.grid.insert(key, pos);
            }
        }
    }
}

/// Appends `item` to the event log and returns its index, in the width
/// the queues store.
fn push_logged<U>(log: &mut Vec<U>, item: U) -> u32 {
    let at =
        u32::try_from(log.len()).expect("more than u32::MAX payloads logged in one flush interval");
    log.push(item);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal payload for the unit suite.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev {
        at: Point,
        entity: u64,
        bytes: usize,
        ring: u8,
    }

    impl Disseminated for Ev {
        fn origin(&self) -> Point {
            self.at
        }
        fn entity(&self) -> u64 {
            self.entity
        }
        fn wire_bytes(&self) -> usize {
            self.bytes
        }
        fn ring(&self) -> u8 {
            self.ring
        }
        fn strip_payload(&mut self) {
            self.bytes = 0;
        }
    }

    /// What the unit suite flushes into: each kept payload beside its
    /// encoded origin, nothing tallied.
    type Pairs<U> = FlushOutcome<u32, (U, EncodedOrigin), ()>;

    fn flush_pairs<U: Disseminated + Clone + Send + Sync>(
        p: &mut DisseminationPipeline<u32, U>,
        viewer_of: impl Fn(u32) -> Option<Point> + Sync,
    ) -> Pairs<U> {
        p.flush(viewer_of, |_: &mut (), item, origin| (item, origin))
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            metric: Metric::Euclidean,
            policy: FlushPolicy::unlimited(),
            keyframe_every: 8,
            origin_quantum: 0.0,
            autotune: AutoTunerConfig::default(),
            predict: PredictorConfig::default(),
            position_only_ring: 0,
            telemetry: false,
        }
    }

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn pipe(rings: RingSet) -> DisseminationPipeline<u32, Ev> {
        DisseminationPipeline::new(world(), 16, rings, cfg())
    }

    fn ev(at: Point, ring: u8) -> Ev {
        Ev {
            at,
            entity: 1,
            bytes: 8,
            ring,
        }
    }

    #[test]
    fn untiered_pipeline_delivers_to_everyone_in_radius() {
        let mut p = pipe(RingSet::single(50.0));
        p.subscribe(1, Point::new(100.0, 100.0));
        p.subscribe(2, Point::new(130.0, 100.0));
        p.subscribe(3, Point::new(300.0, 300.0));
        let origin = Point::new(100.0, 100.0);
        let stats = p.disseminate(origin, origin, 1, 0.0, true, Some(1), true, |ring, _| {
            ev(origin, ring)
        });
        assert_eq!(stats.delivered, 1, "only subscriber 2 is in radius");
        assert_eq!(stats.sampled_out, 0);
        assert_eq!(stats.suppressed, 0);
        let out = flush_pairs(&mut p, |_| Some(Point::new(130.0, 100.0)));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].receiver, 2);
        assert_eq!(out.batches[0].items[0].0.ring, 0);
        assert!(out.batches[0].items[0].1.is_keyframe());
    }

    #[test]
    fn outer_rings_sample_and_tag_items() {
        let rings = RingSet::from_tiers(&[20.0, 100.0], &[1, 2]);
        let mut p = pipe(rings);
        p.subscribe(1, Point::new(100.0, 100.0)); // near
        p.subscribe(2, Point::new(180.0, 100.0)); // far ring, rate 2
        let origin = Point::new(100.0, 100.0);
        for _ in 0..4 {
            p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
                ev(origin, ring)
            });
        }
        let out = flush_pairs(&mut p, |k| {
            Some(if k == 1 {
                Point::new(100.0, 100.0)
            } else {
                Point::new(180.0, 100.0)
            })
        });
        let near = out.batches.iter().find(|b| b.receiver == 1).unwrap();
        let far = out.batches.iter().find(|b| b.receiver == 2).unwrap();
        assert_eq!(near.items.len(), 4, "near ring gets every event");
        assert!(near.items.iter().all(|i| i.0.ring == 0));
        assert_eq!(far.items.len(), 2, "far ring at rate 2 gets half");
        assert!(far.items.iter().all(|i| i.0.ring == 1));
    }

    #[test]
    fn vanished_receivers_are_orphaned_not_flushed() {
        let mut p = pipe(RingSet::single(50.0));
        p.subscribe(1, Point::new(100.0, 100.0));
        let origin = Point::new(110.0, 100.0);
        p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
            ev(origin, ring)
        });
        let out = flush_pairs(&mut p, |_| None);
        assert!(out.batches.is_empty());
        assert_eq!(out.orphaned, 1);
        assert_eq!(p.streams(), 0, "orphaning clears the delta stream");
    }

    // -- bounded queue memory ------------------------------------------------

    fn queue_entries(p: &DisseminationPipeline<u32, Ev>) -> usize {
        p.shards.iter().map(|s| s.batcher.entries()).sum()
    }

    #[test]
    fn departed_receivers_leave_no_queue_behind() {
        let mut p = pipe(RingSet::single(50.0)).with_shards(3);
        let at = Point::new(100.0, 100.0);
        p.subscribe(0, at); // the resident event source
        for k in 1..=10_000u32 {
            p.subscribe(k, at);
            p.disseminate(at, at, 1, 0.0, true, Some(0), true, |ring, _| ev(at, ring));
            assert_eq!(p.unsubscribe(k), 1, "its one queued item dies with it");
        }
        assert_eq!(queue_entries(&p), 0);
        assert!(!p.has_pending());
    }

    #[test]
    fn every_path_that_drops_a_receiver_drops_its_queue() {
        let mut p = pipe(RingSet::single(50.0));
        let at = Point::new(100.0, 100.0);
        let event = |p: &mut DisseminationPipeline<u32, Ev>| {
            p.disseminate(at, at, 1, 0.0, true, None, true, |ring, _| ev(at, ring));
        };
        for k in 0..4u32 {
            p.subscribe(k, at);
        }
        event(&mut p);
        // Receiver 3 vanished between enqueue and flush.
        let out = flush_pairs(&mut p, |k| (k != 3).then_some(at));
        assert_eq!(out.orphaned, 1);
        assert_eq!(queue_entries(&p), 3, "the flushed queues keep their memory");
        // Right after a flush every retained queue is empty, and nothing
        // that reports pending work may list one.
        assert!(!p.has_pending());
        assert!(p.shards.iter().all(|s| s.batcher.receivers() == 0));
        // A re-anchor releases the idle queues and keeps the busy one
        // (only receiver 2 is still in range of the event).
        for k in [0, 1, 3] {
            p.reposition(k, Point::new(350.0, 350.0));
        }
        event(&mut p);
        p.reset(world(), [(2, at)]);
        assert_eq!(queue_entries(&p), 1);
        assert!(p.has_pending());
        p.clear_pending();
        assert_eq!(queue_entries(&p), 0);
    }

    #[test]
    fn the_event_log_lives_exactly_as_long_as_the_queues() {
        // A driver flushes only when something is pending
        // (`GameServerNode::flush_updates` returns early otherwise), so
        // a log emptied by `flush` alone would keep every event whose
        // receivers all left before the next tick.
        fn tick(p: &mut DisseminationPipeline<u32, Ev>, viewer: Point) -> usize {
            if !p.has_pending() {
                return 0;
            }
            flush_pairs(p, |_| Some(viewer)).batches.len()
        }
        const EVENTS: usize = 3;
        // One interval's worth: no delivery is charged here.
        const BOUND: usize = EVENTS * MAX_RINGS;
        let rings = RingSet::from_tiers(&[20.0, 200.0], &[1, 1]);
        let mut p = pipe(rings).with_shards(3).with_trace_charging();
        let at = Point::new(100.0, 100.0);
        let far = Point::new(100.0, 250.0);
        p.subscribe(0, at); // the resident event source
        for round in 1..=10_000u32 {
            let (near_k, far_k) = (2 * round, 2 * round + 1);
            p.subscribe(near_k, at);
            p.subscribe(far_k, far);
            for _ in 0..EVENTS {
                p.disseminate(at, at, 1, 0.0, true, Some(0), true, |ring, _| ev(at, ring));
            }
            assert_eq!(p.log.len(), 2 * EVENTS, "one entry per event and ring");
            assert_eq!(p.unsubscribe(near_k), EVENTS);
            if round % 7 == 0 {
                // Someone is still queued: the log must outlive the
                // departure, and the tick's flush ends it.
                assert_eq!(p.log.len(), 2 * EVENTS);
                assert_eq!(tick(&mut p, far), 1);
                assert_eq!(p.unsubscribe(far_k), 0);
            } else {
                assert_eq!(p.unsubscribe(far_k), EVENTS);
                assert_eq!(tick(&mut p, far), 0, "nothing pending, no flush");
            }
            assert!(
                p.log.is_empty(),
                "round {round}: {} entries leaked",
                p.log.len()
            );
            assert!(
                p.log.capacity() <= BOUND,
                "round {round}: log capacity {} for at most {BOUND} entries an interval",
                p.log.capacity()
            );
        }
        // The other two ways a queue ends: its receiver vanished by
        // flush time, and a promotion's clean slate.
        p.subscribe(1, at);
        p.disseminate(at, at, 1, 0.0, true, Some(0), true, |ring, _| ev(at, ring));
        assert_eq!(flush_pairs(&mut p, |_| None).orphaned, 1);
        assert!(p.log.is_empty());
        p.disseminate(at, at, 1, 0.0, true, Some(0), true, |ring, _| ev(at, ring));
        assert_eq!(p.log.len(), 1);
        p.clear_pending();
        assert!(p.log.is_empty() && !p.has_pending());
    }

    #[test]
    fn retune_preserves_subscribers_and_query_results() {
        let mut p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            8,
            RingSet::single(50.0),
            PipelineConfig {
                autotune: AutoTunerConfig::enabled(),
                ..cfg()
            },
        );
        for i in 0..2000u32 {
            p.subscribe(i, Point::new((i % 40) as f64 * 10.0, (i / 40) as f64 * 8.0));
        }
        // 2000 subscribers at 4/cell want ~22 → pow2 16; wait out the streak.
        let mut retuned = None;
        for _ in 0..AutoTunerConfig::default().streak {
            retuned = p.maybe_retune();
        }
        assert_eq!(retuned, Some(16));
        assert_eq!(p.cells_per_axis(), 16);
        assert_eq!(p.grid().len(), 2000, "rebuild keeps every subscriber");
        let at = Point::new(100.0, 100.0);
        let stats = p.disseminate(at, at, 1, 0.0, true, None, false, |ring, _| ev(at, ring));
        assert!(stats.delivered > 0);
    }

    #[test]
    fn tuner_state_round_trips_through_restore() {
        let p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            64,
            RingSet::single(50.0),
            PipelineConfig {
                autotune: AutoTunerConfig::enabled(),
                ..cfg()
            },
        );
        let (cells, streak, pending) = p.tuner_state();
        let mut q = DisseminationPipeline::<u32, Ev>::new(
            world(),
            8,
            RingSet::single(50.0),
            PipelineConfig {
                autotune: AutoTunerConfig::enabled(),
                ..cfg()
            },
        );
        q.subscribe(1, Point::new(10.0, 10.0));
        q.restore_tuner(cells, streak, pending);
        assert_eq!(q.cells_per_axis(), 64, "promoted grid inherits the tuning");
        assert_eq!(q.grid().len(), 1);
    }

    /// A predicting pipeline over one far-ring receiver watching entity
    /// 9 move linearly at 10 u/s (events every 100 ms).
    fn predicting_pipe(budget: f64) -> DisseminationPipeline<u32, Ev> {
        let rings = RingSet::from_tiers(&[20.0, 200.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Ev> = DisseminationPipeline::new(
            world(),
            16,
            rings,
            PipelineConfig {
                predict: PredictorConfig::with_budgets(&[0.0, budget]),
                ..cfg()
            },
        );
        p.subscribe(1, Point::new(100.0, 300.0)); // far ring from the track below
        p
    }

    fn drive_linear(p: &mut DisseminationPipeline<u32, Ev>, steps: u32) -> DisseminateStats {
        let mut total = DisseminateStats::default();
        for i in 0..steps {
            let at = Point::new(100.0 + i as f64, 200.0);
            let s = p.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |ring, _| {
                ev(at, ring)
            });
            total.delivered += s.delivered;
            total.suppressed += s.suppressed;
            total.pred_error_max = total.pred_error_max.max(s.pred_error_max);
        }
        total
    }

    #[test]
    fn linear_motion_is_suppressed_within_budget() {
        let mut p = predicting_pipe(2.0);
        let stats = drive_linear(&mut p, 20);
        // The first two events establish the basis and the velocity
        // estimate; once the secant locks on, the extrapolation is exact
        // and everything else is suppressed.
        assert!(
            stats.suppressed >= 16,
            "linear motion must be suppressed: {stats:?}"
        );
        assert!(stats.pred_error_max <= 2.0, "{stats:?}");
        assert!(p.prediction_receivers() > 0);
        // Only the transmitted events were queued.
        let out = flush_pairs(&mut p, |_| Some(Point::new(100.0, 300.0)));
        assert_eq!(out.batches[0].items.len() as u64, stats.delivered);
    }

    #[test]
    fn prediction_off_or_zero_budget_delivers_everything() {
        // Budget 0 on every ring: nothing suppressed even with predict on.
        let mut p = predicting_pipe(0.0);
        let stats = drive_linear(&mut p, 10);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(stats.delivered, 10);
        // Predict off entirely: identical delivery, no bases kept.
        let rings = RingSet::from_tiers(&[20.0, 200.0], &[1, 1]);
        let mut q: DisseminationPipeline<u32, Ev> =
            DisseminationPipeline::new(world(), 16, rings, cfg());
        q.subscribe(1, Point::new(100.0, 300.0));
        let stats = drive_linear(&mut q, 10);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(q.prediction_receivers(), 0);
    }

    #[test]
    fn near_ring_budget_is_pinned_to_zero() {
        let rings = RingSet::from_tiers(&[50.0, 200.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Ev> = DisseminationPipeline::new(
            world(),
            16,
            rings,
            PipelineConfig {
                // A (misconfigured) near budget must be ignored.
                predict: PredictorConfig::with_budgets(&[100.0, 100.0]),
                ..cfg()
            },
        );
        p.subscribe(1, Point::new(110.0, 200.0)); // near ring
        let stats = drive_linear(&mut p, 10);
        assert_eq!(stats.suppressed, 0, "near means every event");
        assert_eq!(stats.delivered, 10);
    }

    #[test]
    fn rejoin_resets_the_receivers_prediction_bases() {
        let mut p = predicting_pipe(2.0);
        drive_linear(&mut p, 10);
        assert!(p.prediction_receivers() > 0);
        p.subscribe(1, Point::new(100.0, 300.0)); // rejoin
        assert_eq!(
            p.prediction_receivers(),
            0,
            "a fresh connection extrapolates from nothing"
        );
        // The next event transmits (no basis to suppress against).
        let at = Point::new(120.0, 200.0);
        let s = p.disseminate(at, at, 9, 2.0, true, None, true, |ring, _| ev(at, ring));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.suppressed, 0);
    }

    #[test]
    fn exported_bases_reproduce_suppression_on_import() {
        let mut p = predicting_pipe(2.0);
        drive_linear(&mut p, 10);
        let mut q = predicting_pipe(2.0);
        q.import_bases(p.export_bases());
        // Both pipelines make the same decision on the same next event —
        // but q's motion model is cold, so feed both the same history
        // first via the bases alone: the decision is basis-driven.
        let at = Point::new(110.0, 200.0);
        let sp = p.disseminate(at, at, 9, 1.0, true, None, false, |ring, _| ev(at, ring));
        let sq = q.disseminate(at, at, 9, 1.0, true, None, false, |ring, _| ev(at, ring));
        assert_eq!(sp.suppressed, sq.suppressed);
        assert_eq!(sp.delivered, sq.delivered);
        assert_eq!(p.export_bases(), q.export_bases());
    }

    #[test]
    fn outer_ring_items_ship_position_only() {
        let rings = RingSet::from_tiers(&[20.0, 100.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Ev> = DisseminationPipeline::new(
            world(),
            16,
            rings,
            PipelineConfig {
                position_only_ring: 1,
                ..cfg()
            },
        );
        p.subscribe(1, Point::new(100.0, 100.0)); // near
        p.subscribe(2, Point::new(180.0, 100.0)); // far
        let origin = Point::new(100.0, 100.0);
        let stats = p.disseminate(origin, origin, 9, 0.0, true, None, true, |ring, _| {
            ev(origin, ring)
        });
        assert_eq!(stats.stripped, 1, "only the far item degrades");
        let out = flush_pairs(&mut p, |k| {
            Some(if k == 1 {
                Point::new(100.0, 100.0)
            } else {
                Point::new(180.0, 100.0)
            })
        });
        let near = out.batches.iter().find(|b| b.receiver == 1).unwrap();
        let far = out.batches.iter().find(|b| b.receiver == 2).unwrap();
        assert_eq!(near.items[0].0.bytes, 8, "near ships the full payload");
        assert_eq!(far.items[0].0.bytes, 0, "far ships position-only");
    }

    // -- sharding ------------------------------------------------------------

    /// Drives a moderately messy workload — joins, moves, tiered
    /// disseminations, an unsubscribe, a vanished receiver — and
    /// returns every flush outcome.
    fn drive_workload(p: &mut DisseminationPipeline<u32, Ev>) -> Vec<Pairs<Ev>> {
        let mut rng: u64 = 0x5eed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for k in 0..40u32 {
            let x = (next() % 400) as f64;
            let y = (next() % 400) as f64;
            p.subscribe(k, Point::new(x, y));
        }
        let mut outs = Vec::new();
        for round in 0..6u32 {
            for i in 0..25u32 {
                let at = Point::new((next() % 400) as f64, (next() % 400) as f64);
                let entity = next() % 8 + 1;
                let t = (round * 25 + i) as f64 * 0.05;
                p.disseminate(
                    at,
                    at,
                    entity,
                    t,
                    i % 3 != 0,
                    Some(i % 40),
                    true,
                    |ring, _| Ev {
                        at,
                        entity,
                        bytes: 8 + (entity as usize % 4) * 16,
                        ring,
                    },
                );
            }
            if round == 2 {
                p.unsubscribe(7);
            }
            let gone = 5 + round; // receiver vanished between enqueue and flush
            outs.push(flush_pairs(p, move |k| {
                if k == gone {
                    None
                } else {
                    Some(Point::new((k % 20) as f64 * 20.0, (k / 20) as f64 * 20.0))
                }
            }));
        }
        outs
    }

    #[test]
    fn flush_output_is_byte_identical_for_any_shard_count() {
        let rings = RingSet::from_tiers(&[40.0, 90.0, 150.0], &[1, 2, 4]);
        let make = |shards: u32| {
            let cfg = PipelineConfig {
                policy: FlushPolicy {
                    max_items: 6,
                    budget_bytes: 200,
                },
                predict: PredictorConfig::with_budgets(&[0.0, 1.5, 3.0]),
                position_only_ring: 2,
                ..cfg()
            };
            DisseminationPipeline::<u32, Ev>::new(world(), 16, rings, cfg).with_shards(shards)
        };
        let mut reference = make(1);
        let baseline = drive_workload(&mut reference);
        for shards in 2..=8u32 {
            let mut p = make(shards);
            assert_eq!(p.shard_count(), shards as usize);
            let outs = drive_workload(&mut p);
            assert_eq!(
                outs, baseline,
                "{shards}-shard flush output diverged from the single-shard path"
            );
        }
    }

    #[test]
    fn exports_reroute_across_differing_shard_counts() {
        let rings = RingSet::from_tiers(&[20.0, 200.0], &[1, 1]);
        let make = |shards: u32| {
            DisseminationPipeline::<u32, Ev>::new(
                world(),
                16,
                rings,
                PipelineConfig {
                    predict: PredictorConfig::with_budgets(&[0.0, 2.0]),
                    ..cfg()
                },
            )
            .with_shards(shards)
        };
        let mut primary = make(4);
        for k in 0..12u32 {
            primary.subscribe(k, Point::new(100.0 + k as f64 * 5.0, 300.0));
        }
        for i in 0..10u32 {
            let at = Point::new(100.0 + i as f64, 200.0);
            primary.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |ring, _| {
                ev(at, ring)
            });
        }
        flush_pairs(&mut primary, |_| Some(Point::new(100.0, 300.0)));
        // Promote onto a standby running a different worker count (the
        // promotion flow: re-anchor the grid, then import the bases).
        let mut standby = make(2);
        let subs: Vec<(u32, Point)> = primary.grid().subscribers().collect();
        standby.reset(world(), subs);
        standby.import_bases(primary.export_bases());
        assert_eq!(standby.export_bases(), primary.export_bases());
        // Both make identical decisions on the next event and flush the
        // same payloads; the standby, holding no stream, keyframes.
        let at = Point::new(111.0, 200.0);
        let sp = primary.disseminate(at, at, 9, 1.1, true, None, true, |ring, _| ev(at, ring));
        let sq = standby.disseminate(at, at, 9, 1.1, true, None, true, |ring, _| ev(at, ring));
        assert_eq!(sp, sq);
        let payloads = |out: Pairs<Ev>| -> Vec<(u32, Vec<Ev>)> {
            out.batches
                .into_iter()
                .map(|b| (b.receiver, b.items.into_iter().map(|i| i.0).collect()))
                .collect()
        };
        let fq = flush_pairs(&mut standby, |_| Some(Point::new(100.0, 300.0)));
        assert!(fq.batches.iter().all(|b| b.items[0].1.is_keyframe()));
        let fp = flush_pairs(&mut primary, |_| Some(Point::new(100.0, 300.0)));
        assert_eq!(payloads(fp), payloads(fq));
    }

    #[test]
    fn stage_histograms_merge_across_shards() {
        let rings = RingSet::single(150.0);
        let mut p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            16,
            rings,
            PipelineConfig {
                telemetry: true,
                ..cfg()
            },
        )
        .with_shards(4);
        for k in 0..16u32 {
            p.subscribe(k, Point::new(100.0 + k as f64, 100.0));
        }
        let origin = Point::new(100.0, 100.0);
        for _ in 0..3 {
            p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
                ev(origin, ring)
            });
            flush_pairs(&mut p, |_| Some(origin));
        }
        // Driver-thread stages: one sample per flush.
        assert_eq!(p.stage_histogram(Stage::Query).count(), 3);
        assert_eq!(p.stage_histogram(Stage::Tier).count(), 3);
        assert_eq!(p.stage_histogram(Stage::Predict).count(), 3);
        // Sharded stages: one sample per shard per flush.
        assert_eq!(p.stage_histogram(Stage::Policy).count(), 12);
        assert_eq!(p.stage_histogram(Stage::Delta).count(), 12);
        // The retained last-flush breakdown mirrors the shard layout.
        let spans = p.last_flush_spans();
        assert_eq!(spans.len(), 4, "one breakdown row per shard");
        assert_eq!(p.shard_stage_sums(Stage::Delta).len(), 4);
        assert_eq!(p.shard_stage_sums(Stage::Query).len(), 1);
    }

    // -- trace charging ------------------------------------------------------

    use matrix_telemetry::TraceTag;

    /// A traced payload for the charging tests.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tr {
        at: Point,
        entity: u64,
        tag: Option<TraceTag>,
    }

    impl Disseminated for Tr {
        fn origin(&self) -> Point {
            self.at
        }
        fn entity(&self) -> u64 {
            self.entity
        }
        fn wire_bytes(&self) -> usize {
            8
        }
        fn trace(&self) -> Option<TraceTag> {
            self.tag
        }
        fn trace_charge(&mut self, age_us: u64) {
            if let Some(tag) = &mut self.tag {
                tag.charge(age_us);
            }
        }
    }

    #[test]
    fn suppressed_events_charge_the_next_delivered_rebase() {
        let rings = RingSet::from_tiers(&[20.0, 200.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Tr> = DisseminationPipeline::new(
            world(),
            16,
            rings,
            PipelineConfig {
                predict: PredictorConfig::with_budgets(&[0.0, 2.0]),
                ..cfg()
            },
        )
        .with_trace_charging();
        assert!(p.trace_charging());
        p.subscribe(1, Point::new(100.0, 300.0)); // far ring
        let mut first_gap_us: Option<u64> = None;
        let mut expected: Vec<(u32, u64)> = Vec::new(); // (seq, stale_us)
        for i in 0..20u32 {
            let at = Point::new(100.0 + i as f64, 200.0);
            let ingest_us = i as u64 * 100_000;
            let tag = TraceTag::new(7, i, ingest_us);
            let s = p.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |_, _| Tr {
                at,
                entity: 9,
                tag: Some(tag),
            });
            if s.suppressed > 0 {
                first_gap_us.get_or_insert(ingest_us);
            } else {
                assert_eq!(s.delivered, 1);
                let stale = first_gap_us
                    .take()
                    .map_or(0, |gap| ingest_us.saturating_sub(gap));
                expected.push((i, stale));
            }
        }
        assert!(
            expected.iter().any(|&(_, stale)| stale > 0),
            "the drive must produce at least one charged rebase: {expected:?}"
        );
        let out = flush_pairs(&mut p, |_| Some(Point::new(100.0, 300.0)));
        let items = &out.batches[0].items;
        assert_eq!(items.len(), expected.len());
        for ((item, _), (seq, stale)) in items.iter().zip(expected) {
            let tag = item.tag.expect("every delivered item stays traced");
            assert_eq!(tag.seq, seq);
            assert_eq!(
                tag.stale_us, stale,
                "seq {seq} must carry the suppressed gap's age"
            );
        }
    }

    #[test]
    fn policy_dropped_traces_recharge_a_later_flush() {
        let mut p: DisseminationPipeline<u32, Tr> = DisseminationPipeline::new(
            world(),
            16,
            RingSet::single(150.0),
            PipelineConfig {
                policy: FlushPolicy {
                    max_items: 1,
                    budget_bytes: 0,
                },
                ..cfg()
            },
        )
        .with_trace_charging();
        p.subscribe(1, Point::new(100.0, 100.0));
        let send = |p: &mut DisseminationPipeline<u32, Tr>, entity, x, seq, ingest_us| {
            let at = Point::new(x, 100.0);
            p.disseminate(
                at,
                at,
                entity,
                ingest_us as f64 / 1e6,
                true,
                None,
                true,
                |_, _| Tr {
                    at,
                    entity,
                    tag: Some(TraceTag::new(7, seq, ingest_us)),
                },
            );
        };
        // Entity 8 queues first but sits farther from the viewer than
        // entity 9, so the 1-item budget drops it.
        send(&mut p, 8, 120.0, 0, 0);
        send(&mut p, 9, 105.0, 1, 100_000);
        let out = flush_pairs(&mut p, |_| Some(Point::new(100.0, 100.0)));
        assert_eq!(out.batches[0].items.len(), 1);
        assert_eq!(out.batches[0].items[0].0.entity, 9);
        assert_eq!(out.batches[0].rate_limited, 1);
        // The next rebase of entity 8 carries the dropped event's age.
        send(&mut p, 8, 121.0, 2, 300_000);
        let out = flush_pairs(&mut p, |_| Some(Point::new(100.0, 100.0)));
        let tag = out.batches[0].items[0].0.tag.unwrap();
        assert_eq!(tag.seq, 2);
        assert_eq!(tag.stale_us, 300_000, "charged from the dropped seq 0");
        assert_eq!(tag.staleness_us(450_000), 150_000 + 300_000);
    }
}
