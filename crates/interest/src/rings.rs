//! Multi-tier areas of interest: concentric vision rings.
//!
//! A single binary vision radius treats the farthest visible entity
//! exactly like the nearest one, so the periphery of a dense crowd costs
//! as much downlink as its centre. The adaptive-dissemination literature
//! (D'Angelo et al.) grades relevance instead: the area of interest is a
//! set of concentric *rings*, the innermost delivering every event and
//! the outer rings delivering a deterministic sample — a client renders
//! its immediate surroundings at full fidelity while the periphery
//! updates at a fraction of the rate (and of the bytes).
//!
//! [`RingSet`] is the pure data half: ring boundaries plus per-ring
//! sampling rates, with `ring_of(distance)` mapping an event→receiver
//! distance to its tier. [`RingSampler`] is the stateful half: one
//! counter per (receiver, ring) so sampling is deterministic and evenly
//! spaced (every `rate`-th candidate ships, starting with the first),
//! never random. The near ring's rate is pinned to 1 — near means
//! *every* event, which is what makes the near-ring staleness guarantee
//! of the `matrix-experiments rings` verdict structural rather than
//! statistical.
//!
//! A [`RingSet::single`] of the plain vision radius with rate 1
//! reproduces the binary-radius behaviour exactly (nothing is ever
//! sampled out), which is what keeps the tiered pipeline byte-identical
//! to the untiered one when rings are disabled.

use matrix_predict::IdHashMap;
use std::hash::Hash;

/// Maximum number of concentric rings a [`RingSet`] can carry (the
/// config structs mirror this as fixed-size arrays so they stay `Copy`).
pub const MAX_RINGS: usize = 4;

/// Concentric vision rings: ascending boundary radii with per-ring
/// sampling rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSet {
    radii: [f64; MAX_RINGS],
    rates: [u32; MAX_RINGS],
    len: usize,
}

impl RingSet {
    /// The binary-radius degenerate case: one ring, every event
    /// delivered. Behaviour is identical to a plain vision radius.
    pub fn single(radius: f64) -> RingSet {
        RingSet {
            radii: [radius.max(0.0), 0.0, 0.0, 0.0],
            rates: [1; MAX_RINGS],
            len: 1,
        }
    }

    /// Builds a ring set from parallel `(radius, rate)` tiers.
    ///
    /// Tiers with a non-positive radius are ignored; the rest are sorted
    /// ascending and truncated to [`MAX_RINGS`]. Rates are clamped to at
    /// least 1, and the innermost ring's rate is pinned to 1 (near =
    /// every event). An empty tier list yields `single(0.0)`.
    pub fn from_tiers(radii: &[f64], rates: &[u32]) -> RingSet {
        let mut tiers: Vec<(f64, u32)> = radii
            .iter()
            .zip(rates.iter().chain(std::iter::repeat(&1)))
            .filter(|(r, _)| **r > 0.0)
            .map(|(r, s)| (*r, (*s).max(1)))
            .collect();
        tiers.sort_by(|a, b| a.0.total_cmp(&b.0));
        tiers.truncate(MAX_RINGS);
        if tiers.is_empty() {
            return RingSet::single(0.0);
        }
        let mut set = RingSet {
            radii: [0.0; MAX_RINGS],
            rates: [1; MAX_RINGS],
            len: tiers.len(),
        };
        for (i, (radius, rate)) in tiers.into_iter().enumerate() {
            set.radii[i] = radius;
            set.rates[i] = if i == 0 { 1 } else { rate };
        }
        set
    }

    /// Number of rings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty (it never is; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether any tiering is in effect: more than one ring, or any
    /// ring sampling below every-event. A non-tiered set behaves exactly
    /// like a binary vision radius.
    pub fn is_tiered(&self) -> bool {
        self.len > 1 || self.rates[..self.len].iter().any(|r| *r > 1)
    }

    /// The outermost ring boundary — the effective area-of-interest
    /// radius queried against the interest grid.
    pub fn outer_radius(&self) -> f64 {
        self.radii[self.len - 1]
    }

    /// Maps an event→receiver distance to its ring index, or `None`
    /// outside the outermost ring.
    pub fn ring_of(&self, distance: f64) -> Option<u8> {
        self.radii[..self.len]
            .iter()
            .position(|r| distance <= *r)
            .map(|i| i as u8)
    }

    /// The sampling rate of ring `ring` (1 = every event).
    pub fn rate(&self, ring: u8) -> u32 {
        self.rates[(ring as usize).min(self.len.saturating_sub(1))]
    }
}

/// Deterministic per-(receiver, ring) event sampler.
///
/// Each receiver holds one counter per ring; a candidate event in ring
/// `i` is delivered when `counter % rate(i) == 0`, so of every `rate`
/// consecutive candidates exactly one ships — evenly spaced, starting
/// with the first, reproducible run to run.
#[derive(Debug, Clone, Default)]
pub struct RingSampler<K> {
    counters: IdHashMap<K, [u32; MAX_RINGS]>,
}

impl<K: Copy + Eq + Hash> RingSampler<K> {
    /// An empty sampler.
    pub fn new() -> RingSampler<K> {
        RingSampler {
            counters: IdHashMap::default(),
        }
    }

    /// Registers one candidate event for `receiver` in `ring`; returns
    /// whether it should be delivered under `rings`' sampling rate.
    pub fn admit(&mut self, rings: &RingSet, receiver: K, ring: u8) -> bool {
        let rate = rings.rate(ring);
        if rate <= 1 {
            return true; // every event: no state to keep
        }
        let counters = self.counters.entry(receiver).or_default();
        let slot = &mut counters[(ring as usize).min(MAX_RINGS - 1)];
        let keep = *slot == 0;
        *slot = (*slot + 1) % rate;
        keep
    }

    /// Drops all sampling state for a departed receiver.
    pub fn forget(&mut self, receiver: K) {
        self.counters.remove(&receiver);
    }

    /// Drops every receiver's sampling state.
    pub fn clear(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_is_untiered_and_admits_everything() {
        let rings = RingSet::single(50.0);
        assert!(!rings.is_tiered());
        assert_eq!(rings.outer_radius(), 50.0);
        assert_eq!(rings.ring_of(0.0), Some(0));
        assert_eq!(rings.ring_of(50.0), Some(0), "boundary is inclusive");
        assert_eq!(rings.ring_of(50.1), None);
        let mut sampler: RingSampler<u32> = RingSampler::new();
        for _ in 0..100 {
            assert!(sampler.admit(&rings, 7, 0));
        }
    }

    #[test]
    fn tiers_sort_ascending_and_map_distances() {
        let rings = RingSet::from_tiers(&[100.0, 35.0, 65.0], &[4, 1, 2]);
        assert_eq!(rings.len(), 3);
        assert!(rings.is_tiered());
        assert_eq!(rings.outer_radius(), 100.0);
        assert_eq!(rings.ring_of(10.0), Some(0));
        assert_eq!(rings.ring_of(35.0), Some(0));
        assert_eq!(rings.ring_of(36.0), Some(1));
        assert_eq!(rings.ring_of(80.0), Some(2));
        assert_eq!(rings.ring_of(101.0), None);
        assert_eq!(rings.rate(1), 2);
        assert_eq!(rings.rate(2), 4);
    }

    #[test]
    fn near_ring_rate_is_pinned_to_every_event() {
        let rings = RingSet::from_tiers(&[30.0, 60.0], &[8, 2]);
        assert_eq!(rings.rate(0), 1, "near means every event");
        assert_eq!(rings.rate(1), 2);
    }

    #[test]
    fn zero_radii_are_dropped_and_empty_falls_back() {
        let rings = RingSet::from_tiers(&[0.0, 40.0, 0.0], &[1, 3, 1]);
        assert_eq!(rings.len(), 1);
        assert_eq!(rings.outer_radius(), 40.0);
        // The surviving tier became the (pinned) near ring.
        assert_eq!(rings.rate(0), 1);
        let empty = RingSet::from_tiers(&[], &[]);
        assert_eq!(empty.outer_radius(), 0.0);
    }

    #[test]
    fn sampler_keeps_exactly_one_in_rate_evenly_spaced() {
        let rings = RingSet::from_tiers(&[10.0, 20.0], &[1, 3]);
        let mut sampler: RingSampler<u32> = RingSampler::new();
        let kept: Vec<bool> = (0..9).map(|_| sampler.admit(&rings, 1, 1)).collect();
        assert_eq!(
            kept,
            vec![true, false, false, true, false, false, true, false, false],
            "every third candidate ships, starting with the first"
        );
        // Receivers sample independently.
        assert!(sampler.admit(&rings, 2, 1));
    }

    #[test]
    fn forget_restarts_a_receivers_phase() {
        let rings = RingSet::from_tiers(&[10.0, 20.0], &[1, 2]);
        let mut sampler: RingSampler<u32> = RingSampler::new();
        assert!(sampler.admit(&rings, 1, 1));
        assert!(!sampler.admit(&rings, 1, 1));
        sampler.forget(1);
        assert!(sampler.admit(&rings, 1, 1), "fresh receiver, fresh phase");
    }
}
