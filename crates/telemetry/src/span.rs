//! Per-stage span timers for the dissemination hot path.

use matrix_metrics::Histogram;
use std::time::Instant;

/// Number of instrumented pipeline stages.
pub const STAGE_COUNT: usize = 5;

/// One stage of the dissemination pipeline, in hot-path order. The
/// indices are stable: they name histogram slots in snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1 — interest-grid query (who can see this point).
    Query = 0,
    /// Stage 2 — ring grading + deterministic periphery sampling.
    Tier = 1,
    /// Stage 3 — dead-reckoning admission, payload stripping, queueing.
    Predict = 2,
    /// Stage 4 — per-receiver relevance ranking and delivery budgets.
    Policy = 3,
    /// Stage 5 — delta encoding of surviving origins.
    Delta = 4,
}

impl Stage {
    /// Every stage, in index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Query,
        Stage::Tier,
        Stage::Predict,
        Stage::Policy,
        Stage::Delta,
    ];

    /// Stable snake_case name (used as the histogram/metric suffix).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Tier => "tier",
            Stage::Predict => "predict",
            Stage::Policy => "policy",
            Stage::Delta => "delta",
        }
    }
}

/// A lap timer over the pipeline stages.
///
/// The pipeline calls [`begin`](StageSpans::begin) when it starts a
/// timed section and [`lap`](StageSpans::lap) as each stage's work
/// completes; laps *accumulate* (one flush cycle spans many
/// disseminations), and [`end_flush`](StageSpans::end_flush) folds the
/// accumulated per-stage time into one histogram sample per stage —
/// the "per-flush span" of that stage.
///
/// Disabled (the default), every call is a single predictable branch
/// with no `Instant::now()`: the off configuration measures nothing
/// and costs nothing.
#[derive(Debug, Clone)]
pub struct StageSpans {
    enabled: bool,
    t_last: Option<Instant>,
    acc_us: [f64; STAGE_COUNT],
    /// The most recent *completed* flush's per-stage times, retained so
    /// a slow-flush capture can dump the breakdown of the flush that
    /// overran (the histograms only keep aggregates).
    last_us: [f64; STAGE_COUNT],
    hists: Box<[Histogram; STAGE_COUNT]>,
}

impl StageSpans {
    /// Creates spans; `enabled = false` is the zero-cost no-op sink.
    pub fn new(enabled: bool) -> StageSpans {
        StageSpans {
            enabled,
            t_last: None,
            acc_us: [0.0; STAGE_COUNT],
            last_us: [0.0; STAGE_COUNT],
            hists: Box::new([
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ]),
        }
    }

    /// Whether the spans record anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts (or restarts) the lap clock.
    #[inline]
    pub fn begin(&mut self) {
        if self.enabled {
            self.t_last = Some(Instant::now());
        }
    }

    /// Attributes the time since the last `begin`/`lap` to `stage`.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if let Some(prev) = self.t_last {
            self.acc_us[stage as usize] += now.duration_since(prev).as_secs_f64() * 1e6;
        }
        self.t_last = Some(now);
    }

    /// Ends one flush cycle: records every stage's accumulated time (µs)
    /// as one histogram sample and resets the accumulators.
    pub fn end_flush(&mut self) {
        if !self.enabled {
            return;
        }
        for stage in Stage::ALL {
            self.hists[stage as usize].record(self.acc_us[stage as usize]);
            self.last_us[stage as usize] = self.acc_us[stage as usize];
            self.acc_us[stage as usize] = 0.0;
        }
        self.t_last = None;
    }

    /// The per-flush latency histogram of one stage (µs).
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Per-stage times (µs) of the most recent completed flush — the
    /// slow-flush capture's raw material. All zeros before the first
    /// `end_flush` (or with spans disabled).
    pub fn last_flush_us(&self) -> [f64; STAGE_COUNT] {
        self.last_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = StageSpans::new(false);
        s.begin();
        s.lap(Stage::Query);
        s.end_flush();
        for stage in Stage::ALL {
            assert!(s.histogram(stage).is_empty());
        }
    }

    #[test]
    fn laps_accumulate_until_end_flush() {
        let mut s = StageSpans::new(true);
        s.begin();
        s.lap(Stage::Query);
        s.begin();
        s.lap(Stage::Query); // two laps, one flush
        s.end_flush();
        s.begin();
        s.lap(Stage::Tier);
        s.end_flush();
        // Each end_flush records one sample per stage, lap or not.
        for stage in Stage::ALL {
            assert_eq!(s.histogram(stage).count(), 2, "{}", stage.name());
        }
    }

    #[test]
    fn last_flush_is_retained_after_the_reset() {
        let mut s = StageSpans::new(true);
        assert_eq!(s.last_flush_us(), [0.0; STAGE_COUNT]);
        s.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.lap(Stage::Policy);
        s.end_flush();
        let last = s.last_flush_us();
        assert!(last[Stage::Policy as usize] > 0.0, "policy lap retained");
        assert_eq!(last[Stage::Query as usize], 0.0);
        // The accumulator reset must not clear the retained copy.
        assert_eq!(s.last_flush_us(), last);
    }

    #[test]
    fn lap_without_begin_is_harmless() {
        let mut s = StageSpans::new(true);
        s.lap(Stage::Delta);
        s.end_flush();
        assert_eq!(s.histogram(Stage::Delta).count(), 1);
    }
}
