//! The flight recorder: a fixed-capacity ring of structured events.

use crate::span::STAGE_COUNT;
use matrix_geometry::ServerId;
use matrix_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What happened. Client ids travel as raw `u64`s (the typed `ClientId`
/// lives above this crate in the dependency DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A client joined a game server.
    Join {
        /// The joining client.
        client: u64,
        /// The server it joined.
        server: ServerId,
    },
    /// A client was handed over to another server.
    Handover {
        /// The moving client.
        client: u64,
        /// The server it left.
        from: ServerId,
        /// The server it was sent to.
        to: ServerId,
    },
    /// A region split: `parent` shed half its range to `child`.
    Split {
        /// The overloaded parent.
        parent: ServerId,
        /// The new child server.
        child: ServerId,
    },
    /// A reclaim: `parent` absorbed `child`'s range back.
    Reclaim {
        /// The absorbing parent.
        parent: ServerId,
        /// The retired child.
        child: ServerId,
    },
    /// A retired child's range was orphaned and reassigned.
    Orphan {
        /// The child whose range went ownerless.
        child: ServerId,
    },
    /// A primary paired with a warm standby.
    StandbyAssign {
        /// The protected primary.
        primary: ServerId,
        /// Its standby.
        standby: ServerId,
    },
    /// A standby died (alone, or together with its primary).
    StandbyLost {
        /// The primary that lost its cover.
        primary: ServerId,
        /// The dead standby.
        standby: ServerId,
    },
    /// A dead server without usable standby was declared failed; a
    /// neighbour absorbs its range (sessions lost).
    FailureDeclared {
        /// The dead server.
        failed: ServerId,
        /// The neighbour absorbing its range.
        heir: ServerId,
    },
    /// Fast failover: a dead primary's standby takes over its range.
    Failover {
        /// The dead primary.
        failed: ServerId,
        /// The standby being promoted.
        standby: ServerId,
    },
    /// A standby finished promoting itself to active primary.
    Promotion {
        /// The newly active server.
        server: ServerId,
    },
    /// The density auto-tuner rebuilt a node's interest grid.
    Retune {
        /// The retuning server.
        server: ServerId,
        /// The new grid resolution (cells per axis).
        cells: u32,
    },
    /// The coordinator tolerated a directory divergence.
    Divergence,
    /// A ring's freshness SLO started burning its error budget faster
    /// than it accrues (burn rate ≥ 1.0). Edge-triggered: recorded on
    /// the transition into breach, not on every burning heartbeat.
    SloBreach {
        /// The breaching vision ring.
        ring: u8,
        /// Burn rate in basis points (10 000 = 1.0).
        burn_bp: u64,
    },
    /// A flush overran the cadence it runs on (the node's
    /// `batch_interval`, or `tick` when that is zero), carrying its
    /// per-stage span breakdown (µs).
    SlowFlush {
        /// The flushing server.
        server: ServerId,
        /// Whole-flush duration (µs).
        total_us: u64,
        /// Per-stage time of this flush, [`STAGE_COUNT`] slots in
        /// pipeline order (query, tier, predict, policy, delta).
        stages: [u64; STAGE_COUNT],
    },
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Join { client, server } => write!(f, "join c{client} -> {server}"),
            EventKind::Handover { client, from, to } => {
                write!(f, "handover c{client} {from} -> {to}")
            }
            EventKind::Split { parent, child } => write!(f, "split {parent} -> {child}"),
            EventKind::Reclaim { parent, child } => write!(f, "reclaim {parent} <- {child}"),
            EventKind::Orphan { child } => write!(f, "orphan {child}"),
            EventKind::StandbyAssign { primary, standby } => {
                write!(f, "standby-assign {primary} ~ {standby}")
            }
            EventKind::StandbyLost { primary, standby } => {
                write!(f, "standby-lost {primary} ~ {standby}")
            }
            EventKind::FailureDeclared { failed, heir } => {
                write!(f, "failure {failed} heir {heir}")
            }
            EventKind::Failover { failed, standby } => {
                write!(f, "failover {failed} -> {standby}")
            }
            EventKind::Promotion { server } => write!(f, "promotion {server}"),
            EventKind::Retune { server, cells } => write!(f, "retune {server} cells {cells}"),
            EventKind::Divergence => write!(f, "divergence"),
            EventKind::SloBreach { ring, burn_bp } => {
                write!(f, "slo-breach r{ring} burn {burn_bp}bp")
            }
            EventKind::SlowFlush {
                server,
                total_us,
                stages,
            } => {
                write!(
                    f,
                    "slow-flush {server} total {total_us}us \
                     stages {}/{}/{}/{}/{}us",
                    stages[0], stages[1], stages[2], stages[3], stages[4]
                )
            }
        }
    }
}

/// One recorded event: a monotone sequence number, when, and what.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Monotone per-recorder sequence number (never reused, so a reader
    /// polling snapshots can detect how much it missed).
    pub seq: u64,
    /// Simulated (or driver) time of the event.
    pub at: SimTime,
    /// The event itself.
    pub kind: EventKind,
}

/// A fixed-capacity ring buffer of [`TelemetryEvent`]s. When full, the
/// oldest event is evicted and counted in
/// [`dropped`](FlightRecorder::dropped) — recording never blocks and
/// never allocates past the capacity. Capacity `0` disables the
/// recorder entirely (every record is a no-op).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    events: VecDeque<TelemetryEvent>,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `cap` events (`0` = disabled).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            events: VecDeque::with_capacity(cap.min(1024)),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TelemetryEvent {
            seq: self.next_seq,
            at,
            kind,
        });
        self.next_seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to make room (the ring wrapped this many times).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured ring capacity in events (`0` = disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Sequence number the *next* event will get (= total ever recorded).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Drops every retained event (sequence numbers keep advancing).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(
                SimTime::from_secs(i),
                EventKind::Promotion {
                    server: ServerId(i as u32),
                },
            );
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.next_seq(), 5);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order kept");
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let mut r = FlightRecorder::new(0);
        r.record(SimTime::ZERO, EventKind::Divergence);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.next_seq(), 0);
    }
}
