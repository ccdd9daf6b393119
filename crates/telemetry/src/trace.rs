//! Causal trace tags: the end-to-end freshness probe.
//!
//! A [`TraceTag`] is stamped on a *sampled* subset of ingested events at
//! the game server (`trace_sample_rate`), rides the event through every
//! pipeline stage, the flush and the wire, and is read back on
//! the receiving client, which computes two numbers per traced item:
//!
//! * **delivery latency** — apply time minus ingest time: how long the
//!   pipeline + wire hop took for the event itself;
//! * **staleness at apply** — delivery latency *plus* the charged age of
//!   any suppressed or policy-dropped predecessor
//!   ([`TraceTag::stale_us`]): how out-of-date the entity's on-screen
//!   state really was when this rebase landed. A dead-reckoning
//!   suppression is invisible to latency but not to staleness — that
//!   difference is the whole point of carrying the charge.
//!
//! Everything is expressed in simulated/driver microseconds
//! ([`matrix_sim::SimTime`]), never wall clock, so traces are exactly
//! reproducible in the discrete-event harness and remain meaningful on
//! the real runtime (whose router clock is monotone micros too).

use serde::{Deserialize, Serialize};

/// A compact causal trace tag carried by a sampled update from ingest
/// to apply. `Copy` and fixed-size on purpose: it travels inside batch
/// items and replication snapshots without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceTag {
    /// Raw id of the node that ingested the event (`ServerId.0`; the
    /// typed id lives above this crate in the dependency DAG).
    pub origin: u32,
    /// The origin node's event sequence number at ingest — together
    /// with `origin` this names the causal event uniquely.
    pub seq: u32,
    /// Ingest time in simulated/driver microseconds.
    pub ingest_us: u64,
    /// Charged age of the oldest *undelivered* predecessor at ingest
    /// (µs): a suppressed or policy-dropped update's latency is charged
    /// to the next delivered rebase of the same entity, so staleness
    /// never silently disappears with the event that was dropped.
    pub stale_us: u64,
}

impl TraceTag {
    /// Creates a fresh (uncharged) tag.
    pub fn new(origin: u32, seq: u32, ingest_us: u64) -> TraceTag {
        TraceTag {
            origin,
            seq,
            ingest_us,
            stale_us: 0,
        }
    }

    /// Deterministic sampling decision: event `seq` is traced when the
    /// rate is non-zero and `seq` is a multiple of it (`rate = 1` traces
    /// everything, `0` disables tracing). No RNG, so the sim harness and
    /// the real runtime sample the identical subset.
    pub fn sampled(seq: u64, rate: u32) -> bool {
        rate != 0 && seq.is_multiple_of(rate as u64)
    }

    /// Delivery latency at apply time (µs, saturating — a clock running
    /// behind the sender yields 0, never a wrap).
    pub fn latency_us(&self, apply_us: u64) -> u64 {
        apply_us.saturating_sub(self.ingest_us)
    }

    /// Staleness at apply: delivery latency plus the charged predecessor
    /// age. This is "how old was the freshest state the client could
    /// have rendered for this entity".
    pub fn staleness_us(&self, apply_us: u64) -> u64 {
        self.latency_us(apply_us).saturating_add(self.stale_us)
    }

    /// Charges the age of an undelivered predecessor (µs before this
    /// tag's ingest). Charges accumulate by `max`: the *oldest*
    /// uncovered event defines how stale the entity was.
    pub fn charge(&mut self, age_us: u64) {
        self.stale_us = self.stale_us.max(age_us);
    }

    /// The earliest event time this tag vouches for: its own ingest
    /// minus any charged predecessor age. A later drop of this item
    /// re-charges from here so chained drops keep the full age.
    pub fn charge_origin_us(&self) -> u64 {
        self.ingest_us.saturating_sub(self.stale_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_rate_zero_is_off() {
        assert!(!TraceTag::sampled(0, 0), "rate 0 disables tracing");
        assert!(TraceTag::sampled(0, 64));
        assert!(!TraceTag::sampled(1, 64));
        assert!(TraceTag::sampled(128, 64));
        let hits = (0..6_400).filter(|&s| TraceTag::sampled(s, 64)).count();
        assert_eq!(hits, 100, "exactly 1-in-64");
        assert!(TraceTag::sampled(7, 1), "rate 1 traces everything");
    }

    #[test]
    fn latency_and_staleness_compose() {
        let mut tag = TraceTag::new(3, 42, 1_000);
        assert_eq!(tag.latency_us(1_250), 250);
        assert_eq!(tag.staleness_us(1_250), 250);
        tag.charge(400);
        tag.charge(100); // older charge wins, newer never shrinks it
        assert_eq!(tag.stale_us, 400);
        assert_eq!(tag.latency_us(1_250), 250, "latency ignores charges");
        assert_eq!(tag.staleness_us(1_250), 650);
        assert_eq!(tag.charge_origin_us(), 600);
    }

    #[test]
    fn clock_skew_saturates_instead_of_wrapping() {
        let tag = TraceTag::new(1, 0, 5_000);
        assert_eq!(tag.latency_us(4_000), 0);
        assert_eq!(tag.staleness_us(4_000), 0);
    }
}
