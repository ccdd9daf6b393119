//! Dead reckoning for the Matrix middleware: predictive dissemination.
//!
//! PRs 1–4 attacked *who* receives an event (interest grid, vision
//! rings) and *how compactly* it ships (deltas, budgets); every relevant
//! movement event was still transmitted on every flush. Dead reckoning —
//! the standard multiplier from the synchronization literature (Khan &
//! Chabridon's reusable synchronization component; D'Angelo et al.'s
//! adaptive event dissemination) — goes one step further: model each
//! entity's motion, let receivers *extrapolate* between updates, and
//! transmit only when the receiver's prediction would drift past an
//! error budget.
//!
//! Three pieces, deliberately independent of the middleware's message
//! types so the pipeline, the property suites and the benchmarks all drive
//! the same code:
//!
//! * [`MotionModel`] — sender-side per-entity velocity estimation over a
//!   sliding window of the last [`MotionModel::WINDOW`] positions.
//!   Purely observational: it sees
//!   every event (including suppressed ones), so its estimate tracks the
//!   true trajectory.
//! * [`PredictedStream`] — the sender's mirror of each receiver's
//!   extrapolation state, one basis per (receiver, entity): the last
//!   position + velocity actually transmitted. [`PredictedStream::admit`]
//!   simulates the receiver's prediction with the **same arithmetic**
//!   the receiver uses ([`extrapolate`]) and suppresses the event while
//!   the simulated error stays within the caller's budget — so the bound
//!   the sender enforces *is* the error the receiver experiences,
//!   bit-for-bit (property-pinned in `tests/predict_properties.rs`).
//! * [`Extrapolator`] — the receiver side: stores the last received
//!   basis per entity and advances it to any later instant. A client
//!   renders extrapolated positions between updates instead of frozen
//!   ones.
//!
//! A budget of `0.0` disables suppression entirely (every event ships),
//! which is how the near vision ring keeps PR 4's delivery guarantee:
//! near means every event, predicted or not.
//!
//! All three keep their per-entity / per-receiver state in
//! [`IdHashMap`]s. This crate is the lowest one both users of that
//! hasher (here and `matrix-interest`) can see, so [`IdHasher`] and its
//! mixer [`mix64`] live here too — read its module's safety note before
//! keying anything else with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod idhash;

pub use idhash::{mix64, IdBuildHasher, IdHashMap, IdHasher};

use matrix_geometry::Point;
use std::collections::VecDeque;
use std::hash::Hash;

/// Advances a transmitted basis (`pos`, `vel`) by `dt` seconds.
///
/// This is *the* dead-reckoning arithmetic, shared verbatim by the
/// sender's error simulation ([`PredictedStream`]) and the receiver's
/// renderer ([`Extrapolator`]): one `f64` multiply-add per axis, no
/// intermediate rounding — given the same basis and the same `dt`, both
/// sides compute the identical point, so the sender's simulated error
/// equals the receiver's real error exactly.
pub fn extrapolate(pos: Point, vel: (f64, f64), dt: f64) -> Point {
    Point::new(pos.x + vel.0 * dt, pos.y + vel.1 * dt)
}

/// Snaps each velocity component onto the fixed-point lattice of
/// resolution `quantum` (`0.0` returns the velocity unchanged) — the
/// same treatment batch origins get, so the compact wire frame the byte
/// accounting models genuinely carries the shipped velocity. Non-finite
/// snaps pass the component through unchanged.
pub fn quantize_velocity(vel: (f64, f64), quantum: f64) -> (f64, f64) {
    if quantum == 0.0 {
        return vel;
    }
    let snap = |v: f64| {
        let q = (v / quantum).round() * quantum;
        if q.is_finite() {
            q
        } else {
            v
        }
    };
    (snap(vel.0), snap(vel.1))
}

// ---------------------------------------------------------------------------
// Sender side: motion estimation
// ---------------------------------------------------------------------------

/// Per-entity velocity estimation over a sliding window of observed
/// positions.
///
/// The model observes **every** event an entity produces — suppressed or
/// transmitted — because the sender always knows the truth; only the
/// *transmissions* are rationed. The estimate is the secant over the
/// window (newest minus oldest position over elapsed time): cheap,
/// deterministic, and exact for the linear motion dead reckoning is
/// good at. Entities that jitter in place estimate a near-zero velocity,
/// which degrades gracefully into a plain change-threshold filter.
#[derive(Debug, Clone, Default)]
pub struct MotionModel {
    tracks: IdHashMap<u64, VecDeque<(f64, Point)>>,
}

impl MotionModel {
    /// Observations per entity the secant spans: short enough to follow
    /// a swerve within a few events, long enough to smooth jitter.
    pub const WINDOW: usize = 4;

    /// A model that has observed nothing.
    pub fn new() -> MotionModel {
        MotionModel::default()
    }

    /// Number of entities currently tracked.
    pub fn tracked(&self) -> usize {
        self.tracks.len()
    }

    /// Records one observed position. Out-of-order or repeated
    /// timestamps replace the newest sample instead of corrupting the
    /// secant.
    pub fn observe(&mut self, entity: u64, pos: Point, time: f64) {
        let track = self.tracks.entry(entity).or_default();
        if let Some(&(newest, _)) = track.back() {
            if time <= newest {
                track.pop_back();
            }
        }
        track.push_back((time, pos));
        while track.len() > Self::WINDOW {
            track.pop_front();
        }
    }

    /// The current velocity estimate in world units per second, `(0, 0)`
    /// until two distinct-time observations exist.
    pub fn velocity(&self, entity: u64) -> (f64, f64) {
        let Some(track) = self.tracks.get(&entity) else {
            return (0.0, 0.0);
        };
        let (Some(&(t0, p0)), Some(&(t1, p1))) = (track.front(), track.back()) else {
            return (0.0, 0.0);
        };
        let dt = t1 - t0;
        if dt <= 0.0 {
            return (0.0, 0.0);
        }
        ((p1.x - p0.x) / dt, (p1.y - p0.y) / dt)
    }

    /// Drops all observations for a departed entity.
    pub fn forget(&mut self, entity: u64) {
        self.tracks.remove(&entity);
    }

    /// Drops every track.
    pub fn clear(&mut self) {
        self.tracks.clear();
    }
}

// ---------------------------------------------------------------------------
// Sender side: per-receiver suppression
// ---------------------------------------------------------------------------

/// One transmitted basis: what a receiver extrapolates an entity from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Basis {
    /// The last transmitted (wire) position.
    pub pos: Point,
    /// The velocity transmitted with it, world units per second.
    pub vel: (f64, f64),
    /// When it was transmitted, in seconds.
    pub time: f64,
}

impl Basis {
    /// Where a receiver holding this basis believes the entity is at
    /// time `at`.
    pub fn predict(&self, at: f64) -> Point {
        extrapolate(self.pos, self.vel, at - self.time)
    }
}

/// The verdict of one [`PredictedStream::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Transmit: no basis yet, suppression disabled (budget 0), or the
    /// receiver's prediction drifted past the budget. The stream has
    /// recorded the new basis.
    Send,
    /// Suppress: the receiver's extrapolation is within the budget.
    /// `error` is the simulated (== real) prediction error in world
    /// units.
    Suppress {
        /// Simulated receiver error at this instant.
        error: f64,
    },
}

impl Admission {
    /// Whether the event should be transmitted.
    pub fn is_send(&self) -> bool {
        matches!(self, Admission::Send)
    }
}

/// The sender's mirror of every receiver's extrapolation state.
///
/// One basis per (receiver, entity) pair, recorded at each transmission.
/// [`PredictedStream::admit`] decides transmit-vs-suppress by running
/// the receiver's own arithmetic against the basis — never a separate
/// approximation — so the configured budget is a hard bound on the
/// receiver-side error at every event instant.
#[derive(Debug, Clone, Default)]
pub struct PredictedStream<K> {
    bases: IdHashMap<K, IdHashMap<u64, Basis>>,
}

impl<K: Copy + Eq + Hash + Ord> PredictedStream<K> {
    /// An empty stream set.
    pub fn new() -> PredictedStream<K> {
        PredictedStream {
            bases: IdHashMap::default(),
        }
    }

    /// Registers one candidate event for `receiver`: entity `entity`
    /// moved to (wire position) `pos` at time `now`, with current
    /// velocity estimate `vel`. Returns whether to transmit under
    /// `budget` (world units; `0.0` = always transmit), recording the
    /// new basis on every transmission.
    pub fn admit(
        &mut self,
        receiver: K,
        entity: u64,
        pos: Point,
        vel: (f64, f64),
        now: f64,
        budget: f64,
    ) -> Admission {
        let per_entity = self.bases.entry(receiver).or_default();
        if budget > 0.0 {
            if let Some(basis) = per_entity.get(&entity) {
                let error = basis.predict(now).distance(pos);
                if error <= budget {
                    return Admission::Suppress { error };
                }
            }
        }
        per_entity.insert(
            entity,
            Basis {
                pos,
                vel,
                time: now,
            },
        );
        Admission::Send
    }

    /// The basis a receiver currently holds for an entity, if any.
    pub fn basis(&self, receiver: K, entity: u64) -> Option<Basis> {
        self.bases.get(&receiver)?.get(&entity).copied()
    }

    /// Number of receivers holding at least one basis.
    pub fn receivers(&self) -> usize {
        self.bases.len()
    }

    /// Drops all bases of a departed (or resynced) receiver — after a
    /// rejoin the receiver's extrapolator is empty, so the mirror must
    /// be too.
    pub fn forget_receiver(&mut self, receiver: K) {
        self.bases.remove(&receiver);
    }

    /// Drops one entity's basis from every receiver (the entity left).
    pub fn forget_entity(&mut self, entity: u64) {
        self.bases.retain(|_, per_entity| {
            per_entity.remove(&entity);
            !per_entity.is_empty()
        });
    }

    /// Drops every basis.
    pub fn clear(&mut self) {
        self.bases.clear();
    }

    /// Exports every basis as `(receiver, [(entity, basis)])`, receivers
    /// and entities in key order — the region-snapshot form used by the
    /// replication layer. The tables hold no order, so both levels are
    /// sorted here, on the way out. Importing the result into a fresh
    /// stream reproduces every admit decision exactly.
    pub fn export(&self) -> Vec<(K, Vec<(u64, Basis)>)> {
        let mut out: Vec<(K, Vec<(u64, Basis)>)> = self
            .bases
            .iter()
            .map(|(k, per_entity)| {
                let mut bases: Vec<(u64, Basis)> =
                    per_entity.iter().map(|(e, b)| (*e, *b)).collect();
                bases.sort_unstable_by_key(|(e, _)| *e);
                (*k, bases)
            })
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Replaces the basis table with previously exported state (the
    /// restore half of [`PredictedStream::export`]).
    pub fn import(&mut self, bases: impl IntoIterator<Item = (K, Vec<(u64, Basis)>)>) {
        self.bases = bases
            .into_iter()
            .map(|(k, per_entity)| (k, per_entity.into_iter().collect()))
            .collect();
    }
}

// ---------------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------------

/// Receiver-side dead reckoning: the last received basis per entity,
/// advanced on demand.
///
/// Feed it every received update's position + velocity;
/// [`Extrapolator::predict`] answers "where do I render this entity
/// *now*" between updates. Reset it whenever the stream restarts (join,
/// server switch) — exactly when the delta stream's base drops.
#[derive(Debug, Clone, Default)]
pub struct Extrapolator {
    bases: IdHashMap<u64, Basis>,
}

impl Extrapolator {
    /// An empty extrapolator (fresh connection).
    pub fn new() -> Extrapolator {
        Extrapolator::default()
    }

    /// Records one received update for `entity`.
    pub fn update(&mut self, entity: u64, pos: Point, vel: (f64, f64), time: f64) {
        self.bases.insert(entity, Basis { pos, vel, time });
    }

    /// The extrapolated position of `entity` at time `at`, or `None`
    /// before any update arrived.
    pub fn predict(&self, entity: u64, at: f64) -> Option<Point> {
        self.bases.get(&entity).map(|b| b.predict(at))
    }

    /// Number of entities with a basis.
    pub fn tracked(&self) -> usize {
        self.bases.len()
    }

    /// Drops every basis older than `cutoff` (seconds), returning how
    /// many were culled. Renderers call this periodically: an entity no
    /// update has arrived for in a while has left the area of interest
    /// or the server — dead reckoning carries an entity *between*
    /// updates, it must not resurrect one that stopped producing them.
    pub fn prune_older_than(&mut self, cutoff: f64) -> usize {
        let before = self.bases.len();
        self.bases.retain(|_, b| b.time >= cutoff);
        before - self.bases.len()
    }

    /// Drops everything (the stream restarted: join or server switch).
    pub fn reset(&mut self) {
        self.bases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_is_a_single_multiply_add() {
        let p = extrapolate(Point::new(10.0, 20.0), (2.0, -4.0), 0.5);
        assert_eq!(p, Point::new(11.0, 18.0));
        assert_eq!(
            extrapolate(Point::new(1.0, 2.0), (5.0, 5.0), 0.0),
            Point::new(1.0, 2.0)
        );
    }

    #[test]
    fn motion_model_estimates_linear_velocity_exactly() {
        let mut m = MotionModel::new();
        for i in 0..6 {
            m.observe(
                7,
                Point::new(i as f64 * 3.0, 100.0 - i as f64),
                i as f64 * 0.1,
            );
        }
        let (vx, vy) = m.velocity(7);
        assert!((vx - 30.0).abs() < 1e-9, "{vx}");
        assert!((vy + 10.0).abs() < 1e-9, "{vy}");
    }

    #[test]
    fn motion_model_needs_two_distinct_times() {
        let mut m = MotionModel::new();
        assert_eq!(m.velocity(1), (0.0, 0.0), "unknown entity");
        m.observe(1, Point::new(5.0, 5.0), 1.0);
        assert_eq!(m.velocity(1), (0.0, 0.0), "one sample");
        // A repeated timestamp replaces the sample instead of making a
        // zero-dt secant.
        m.observe(1, Point::new(6.0, 5.0), 1.0);
        assert_eq!(m.velocity(1), (0.0, 0.0));
        m.observe(1, Point::new(7.0, 5.0), 2.0);
        let (vx, _) = m.velocity(1);
        assert!((vx - 1.0).abs() < 1e-9, "{vx}");
    }

    #[test]
    fn motion_window_slides() {
        let mut m = MotionModel::new();
        m.observe(1, Point::new(0.0, 0.0), 0.0);
        m.observe(1, Point::new(10.0, 0.0), 1.0); // 10 u/s
        for t in 2..=4 {
            m.observe(1, Point::new(9.0 + t as f64, 0.0), t as f64);
        }
        // The window now spans [1s, 4s]: 3 units in 3 s.
        let (vx, _) = m.velocity(1);
        assert!((vx - 1.0).abs() < 1e-9, "{vx}");
        m.forget(1);
        assert_eq!(m.velocity(1), (0.0, 0.0));
        assert_eq!(m.tracked(), 0);
    }

    #[test]
    fn first_event_always_transmits_then_budget_suppresses() {
        let mut s: PredictedStream<u32> = PredictedStream::new();
        // First contact: no basis, must send.
        assert!(s
            .admit(1, 7, Point::new(0.0, 0.0), (10.0, 0.0), 0.0, 5.0)
            .is_send());
        // One second later the entity is at x=10 — exactly where the
        // receiver extrapolated it. Suppressed, error 0.
        match s.admit(1, 7, Point::new(10.0, 0.0), (10.0, 0.0), 1.0, 5.0) {
            Admission::Suppress { error } => assert_eq!(error, 0.0),
            other => panic!("expected suppression: {other:?}"),
        }
        // The basis did not advance: it still describes t=0.
        assert_eq!(s.basis(1, 7).unwrap().time, 0.0);
        // A swerve past the budget transmits and rebases.
        assert!(s
            .admit(1, 7, Point::new(20.0, 9.0), (10.0, 4.0), 2.0, 5.0)
            .is_send());
        assert_eq!(s.basis(1, 7).unwrap().time, 2.0);
    }

    #[test]
    fn zero_budget_never_suppresses() {
        let mut s: PredictedStream<u32> = PredictedStream::new();
        for i in 0..5 {
            assert!(
                s.admit(1, 7, Point::new(0.0, 0.0), (0.0, 0.0), i as f64, 0.0)
                    .is_send(),
                "budget 0 means every event, even a perfectly predicted one"
            );
        }
    }

    #[test]
    fn suppression_error_equals_receiver_error_bitwise() {
        // The determinism contract: sender simulation and receiver
        // extrapolation share `extrapolate`, so the distances agree
        // bit-for-bit.
        let mut s: PredictedStream<u32> = PredictedStream::new();
        let mut r = Extrapolator::new();
        let basis_pos = Point::new(3.7, -1.9);
        let vel = (12.34, -5.678);
        assert!(s.admit(1, 7, basis_pos, vel, 0.25, 2.0).is_send());
        r.update(7, basis_pos, vel, 0.25);
        let truth = Point::new(5.01, -2.44);
        let verdict = s.admit(1, 7, truth, vel, 0.375, 2.0);
        let receiver_err = r.predict(7, 0.375).unwrap().distance(truth);
        match verdict {
            Admission::Suppress { error } => assert_eq!(error, receiver_err),
            Admission::Send => panic!("within budget: {receiver_err}"),
        }
    }

    #[test]
    fn forgetting_receivers_and_entities_clears_bases() {
        let mut s: PredictedStream<u32> = PredictedStream::new();
        s.admit(1, 7, Point::new(0.0, 0.0), (1.0, 0.0), 0.0, 1.0);
        s.admit(2, 7, Point::new(0.0, 0.0), (1.0, 0.0), 0.0, 1.0);
        s.admit(2, 8, Point::new(5.0, 0.0), (1.0, 0.0), 0.0, 1.0);
        s.forget_receiver(1);
        assert!(s.basis(1, 7).is_none());
        s.forget_entity(7);
        assert!(s.basis(2, 7).is_none());
        assert!(s.basis(2, 8).is_some());
        s.clear();
        assert_eq!(s.receivers(), 0);
    }

    #[test]
    fn export_import_round_trips_admit_decisions() {
        let mut s: PredictedStream<u32> = PredictedStream::new();
        s.admit(2, 8, Point::new(1.0, 2.0), (3.0, 4.0), 0.5, 2.0);
        s.admit(1, 7, Point::new(9.0, 9.0), (-1.0, 0.0), 0.75, 2.0);
        let mut t: PredictedStream<u32> = PredictedStream::new();
        t.import(s.export());
        let probe = Point::new(9.0 - 0.25, 9.0);
        assert_eq!(
            s.admit(1, 7, probe, (-1.0, 0.0), 1.0, 2.0),
            t.admit(1, 7, probe, (-1.0, 0.0), 1.0, 2.0),
        );
        assert_eq!(s.export(), t.export());
    }

    #[test]
    fn export_is_key_ordered_whatever_the_insertion_order() {
        // Two streams fed the same admits in different orders hold the
        // same bases; the export sorts receivers and entities on the way
        // out, so neither insertion order nor table layout shows.
        let admits: Vec<(u32, u64)> = (0..40u64)
            .map(|i| (((i * 7) % 5) as u32 + 1, (i * 11) % 13 + 1))
            .collect();
        let feed = |order: &mut dyn Iterator<Item = &(u32, u64)>| {
            let mut s: PredictedStream<u32> = PredictedStream::new();
            for &(receiver, entity) in order {
                let pos = Point::new(receiver as f64, entity as f64);
                s.admit(receiver, entity, pos, (1.0, 0.0), 0.5, 0.0);
            }
            s.export()
        };
        let forward = feed(&mut admits.iter());
        let backward = feed(&mut admits.iter().rev());
        assert_eq!(forward, backward);
        assert!(forward.windows(2).all(|w| w[0].0 < w[1].0), "receivers");
        for (_, bases) in &forward {
            assert!(bases.windows(2).all(|w| w[0].0 < w[1].0), "entities");
        }
    }

    #[test]
    fn quantized_velocity_sits_on_the_lattice() {
        let q = 1.0 / 256.0;
        let (vx, vy) = quantize_velocity((12.3456, -0.0071), q);
        assert_eq!((vx / q).fract(), 0.0);
        assert_eq!((vy / q).fract(), 0.0);
        assert_eq!(quantize_velocity((1.23, 4.56), 0.0), (1.23, 4.56));
    }

    #[test]
    fn extrapolator_predicts_and_resets() {
        let mut r = Extrapolator::new();
        assert!(r.predict(7, 1.0).is_none());
        r.update(7, Point::new(10.0, 0.0), (5.0, 1.0), 1.0);
        assert_eq!(r.predict(7, 3.0), Some(Point::new(20.0, 2.0)));
        assert_eq!(r.tracked(), 1);
        r.update(8, Point::new(0.0, 0.0), (0.0, 0.0), 0.0);
        r.reset();
        assert!(r.predict(7, 3.0).is_none());
        assert_eq!(r.tracked(), 0);
    }
}
