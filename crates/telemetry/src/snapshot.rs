//! Wire-friendly telemetry aggregates.

use matrix_metrics::Histogram;
use serde::{Deserialize, Serialize};

/// A histogram in transportable form: exact moments plus the occupied
/// log buckets as sparse `(index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Metric name (e.g. `stage_query_us`, `flush_us`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: f64,
    /// Exact smallest recorded value (0 when empty).
    pub min: f64,
    /// Exact largest recorded value (0 when empty).
    pub max: f64,
    /// Occupied buckets, index-ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Snapshots a histogram under `name`.
    pub fn of(name: impl Into<String>, h: &Histogram) -> HistSnapshot {
        HistSnapshot {
            name: name.into(),
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Reconstructs the full histogram (bucket precision; exact moments).
    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_sparse(&self.buckets, self.sum, self.min, self.max)
    }

    /// Folds another snapshot of the *same* metric into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut h = self.to_histogram();
        h.merge(&other.to_histogram());
        self.count = h.count();
        self.sum = h.sum();
        self.min = h.min().unwrap_or(0.0);
        self.max = h.max().unwrap_or(0.0);
        self.buckets = h.nonzero_buckets();
    }
}

/// One node's telemetry at a point in time: named counters, histogram
/// snapshots and flight-recorder occupancy. Rides load reports and
/// heartbeats to the coordinator in process; the `matrix-rt` stats
/// port serves its Prometheus rendering (`crate::render_prometheus`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Monotone counters, name-ascending once assembled.
    pub counters: Vec<(String, u64)>,
    /// Latency histograms in sparse form.
    pub hists: Vec<HistSnapshot>,
    /// Flight-recorder events evicted before anyone read them.
    pub events_dropped: u64,
    /// Flight-recorder sequence high-water mark (= events ever recorded).
    pub events_seen: u64,
}

/// Whether a name-keyed metric is a point-in-time gauge (recorder
/// capacity, SLO burn state) rather than a monotone
/// counter. The exposition types it accordingly and a second reading
/// of the same name keeps the larger one instead of adding ratios and
/// capacities up.
pub(crate) fn is_gauge(name: &str) -> bool {
    name.starts_with("slo_") || name.starts_with("recorder_")
}

/// Folds a second reading of `name` into `mine`: counters add, gauges
/// keep the larger reading.
fn combine(name: &str, mine: &mut u64, value: u64) {
    if is_gauge(name) {
        *mine = (*mine).max(value);
    } else {
        *mine += value;
    }
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }

    /// Adds a named counter; a name already present is combined as
    /// [`merge`](TelemetrySnapshot::merge) would (counters add, gauges
    /// keep the larger reading).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, mine)) => combine(&name, mine, value),
            None => self.counters.push((name, value)),
        }
    }

    /// Adds a histogram under `name` (empty histograms are skipped — a
    /// merge treats absence as zero).
    pub fn hist(&mut self, name: impl Into<String>, h: &Histogram) {
        if h.is_empty() {
            return;
        }
        self.hists.push(HistSnapshot::of(name, h));
    }

    /// Looks up a counter by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn get_hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Folds another node's snapshot into this one: counters sum by
    /// name, gauges (`slo_*`, `recorder_*`) keep the larger reading, histograms merge by name, recorder
    /// tallies add up.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => combine(name, mine, *v),
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for h in &other.hists {
            match self.hists.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => mine.merge(h),
                None => self.hists.push(h.clone()),
            }
        }
        self.events_dropped += other.events_dropped;
        self.events_seen += other.events_seen;
    }

    /// Whether the snapshot carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.events_dropped == 0
            && self.events_seen == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(lo: u64, hi: u64) -> Histogram {
        let mut h = Histogram::new();
        for v in lo..=hi {
            h.record(v as f64);
        }
        h
    }

    #[test]
    fn hist_snapshot_round_trips_exactly() {
        let h = ramp(1, 5_000);
        let snap = HistSnapshot::of("lat_us", &h);
        assert_eq!(snap.to_histogram(), h);
    }

    #[test]
    fn merge_equals_merging_the_histograms() {
        let (a, b) = (ramp(1, 100), ramp(1_000, 9_000));
        let mut snap = HistSnapshot::of("lat_us", &a);
        snap.merge(&HistSnapshot::of("lat_us", &b));
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(snap.to_histogram(), direct);
    }

    #[test]
    fn snapshots_merge_by_name() {
        let mut a = TelemetrySnapshot::new();
        a.counter("joins", 3);
        a.hist("flush_us", &ramp(1, 10));
        a.events_seen = 7;
        let mut b = TelemetrySnapshot::new();
        b.counter("joins", 2);
        b.counter("moves", 40);
        b.hist("flush_us", &ramp(100, 200));
        b.hist("tick_us", &ramp(1, 3));
        b.events_dropped = 1;
        a.merge(&b);
        assert_eq!(a.get_counter("joins"), Some(5));
        assert_eq!(a.get_counter("moves"), Some(40));
        assert_eq!(a.get_hist("flush_us").unwrap().count, 10 + 101);
        assert_eq!(a.get_hist("tick_us").unwrap().count, 3);
        assert_eq!(a.events_dropped, 1);
        assert_eq!(a.events_seen, 7);
    }

    #[test]
    fn merged_gauges_take_the_max() {
        // A ring capacity is not a running total: nodes with 256-,
        // 1024- and 256-event recorders have no 1536-event ring between
        // them, and the largest is the one an operator sizes against.
        let node = |capacity, joins| {
            let mut s = TelemetrySnapshot::new();
            s.counter("recorder_capacity", capacity);
            s.counter("joins", joins);
            s
        };
        let mut merged = TelemetrySnapshot::new();
        for snap in [node(256, 2), node(1024, 3), node(256, 4)] {
            merged.merge(&snap);
        }
        assert_eq!(merged.get_counter("recorder_capacity"), Some(1024));
        assert_eq!(merged.get_counter("joins"), Some(9), "counters still add");
    }

    #[test]
    fn a_repeated_gauge_keeps_the_larger_reading() {
        // A node that names its ring capacity twice still has one ring.
        let mut s = TelemetrySnapshot::new();
        for _ in 0..2 {
            s.counter("recorder_capacity", 256);
            s.counter("joins", 3);
        }
        s.counter("slo_burn_bp_r0", 4_000);
        s.counter("slo_burn_bp_r0", 2_500);
        assert_eq!(s.get_counter("recorder_capacity"), Some(256));
        assert_eq!(s.get_counter("slo_burn_bp_r0"), Some(4_000));
        assert_eq!(s.get_counter("joins"), Some(6), "counters still add");
    }

    #[test]
    fn merge_treats_missing_and_zero_filled_shard_hists_as_zero() {
        // A 4-shard node where only shard 1 saw traffic: `hist()` skips
        // the empty shards, so the snapshot carries one per-shard
        // histogram, not four zero-filled ones.
        let mut busy = TelemetrySnapshot::new();
        for shard in 0..4 {
            let h = if shard == 1 {
                ramp(10, 20)
            } else {
                Histogram::new()
            };
            busy.hist(format!("flush_shard{shard}_us"), &h);
        }
        assert_eq!(busy.hists.len(), 1, "empty shard hists are skipped");

        // A peer that saw no flushes at all contributes nothing…
        let idle = TelemetrySnapshot::new();
        let mut merged = busy.clone();
        merged.merge(&idle);
        assert_eq!(merged, busy, "merging an idle node is a no-op");

        // …and an explicitly zero-filled snapshot (count 0, as a
        // foreign encoder might ship instead of omitting the metric)
        // must not disturb the moments of the receiving side.
        let zero = HistSnapshot {
            name: "flush_shard1_us".into(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: Vec::new(),
        };
        let mut zeroed = TelemetrySnapshot::new();
        zeroed.hists.push(zero);
        merged.merge(&zeroed);
        let shard1 = merged.get_hist("flush_shard1_us").unwrap();
        assert_eq!(shard1.count, 11);
        assert_eq!(shard1.min, 10.0, "zero-filled merge must not drag min to 0");
        assert_eq!(shard1.max, 20.0);

        // Symmetric direction: merging real data *into* the zero-filled
        // snapshot adopts the real moments.
        let mut from_zero = TelemetrySnapshot::new();
        from_zero.hists.push(HistSnapshot {
            name: "flush_shard1_us".into(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: Vec::new(),
        });
        from_zero.merge(&busy);
        let shard1 = from_zero.get_hist("flush_shard1_us").unwrap();
        assert_eq!(shard1.count, 11);
        assert_eq!(shard1.min, 10.0);
        assert_eq!(shard1.max, 20.0);
    }
}
