//! Per-client delta compression of update origins.
//!
//! Absolute-origin batch items repeat full coordinates for every event a
//! client observes. Inside a crowd those coordinates are strongly
//! correlated: consecutive items in one batch come from neighbours a few
//! units apart, and consecutive batches re-describe the same
//! neighbourhood. [`DeltaEncoder`] exploits that redundancy the way the
//! adaptive-dissemination literature does — it keeps, per receiver, the
//! last origin the receiver reconstructed and encodes each subsequent
//! origin as an offset from the previous one, falling back to absolute
//! *keyframes* periodically, on resync, and whenever an offset would be
//! large or lossy.
//!
//! Correctness over compression: an offset is only emitted when (a) the
//! receiver's reconstruction (`base + offset`) reproduces the original
//! coordinates **bit-for-bit** in `f64` arithmetic, and (b) the offset
//! actually fits the compact fixed-point wire frame the byte accounting
//! models — i.e. it is an exact multiple of the configured *quantum*
//! within the delta threshold. When either fails — distant teleports,
//! extreme magnitudes, origins off the quantisation lattice — the
//! encoder silently emits an absolute item instead. Decoding therefore
//! always reconstructs the exact origins an absolute-only encoder would
//! have sent; the property suite in `tests/interest_properties.rs` pins
//! this down.
//!
//! Compression consequently depends on the *producer* putting origins on
//! the lattice: the game server quantises batch origins (for keyframes
//! and deltas alike) to `GameServerConfig::origin_quantum` before they
//! enter the dissemination pipeline, which is what real game netcode
//! does with fixed-point network positions.
//!
//! The encoder is *streaming*: a flush is opened per client
//! ([`DeltaEncoder::begin_flush`]), fed one origin at a time and
//! committed at the end, so the caller builds its wire items in the same
//! pass and never materialises a list of origins or of encodings.
//!
//! [`EncodedOrigin`] is both halves of the stream: the sender's wire
//! items carry it as is, and the receiver resolves each one against the
//! base it holds with [`EncodedOrigin::decode`] — the one decode step.

use matrix_geometry::Point;
use std::collections::BTreeMap;

/// How one batch item's origin travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EncodedOrigin {
    /// Full absolute coordinates — a keyframe. Always safe to decode,
    /// regardless of receiver state.
    Absolute(Point),
    /// Offset from the previous item's reconstructed origin (for the
    /// first item of a flush, from the last origin of the previous
    /// flush). Only decodable when the receiver holds that base.
    Offset {
        /// X offset from the base origin.
        dx: f64,
        /// Y offset from the base origin.
        dy: f64,
    },
}

impl EncodedOrigin {
    /// Whether this is an absolute keyframe item.
    pub fn is_keyframe(&self) -> bool {
        matches!(self, EncodedOrigin::Absolute(_))
    }

    /// Resolves this origin against the receiver's stream `base` (the
    /// last origin it reconstructed; `None` on a fresh or resynced
    /// stream) and advances the base to the result. Returns `None` for
    /// an offset arriving with no base — a protocol violation, since the
    /// sender keyframes after every resync.
    pub fn decode(self, base: &mut Option<Point>) -> Option<Point> {
        let origin = match self {
            EncodedOrigin::Absolute(p) => p,
            EncodedOrigin::Offset { dx, dy } => {
                let b = (*base)?;
                Point::new(b.x + dx, b.y + dy)
            }
        };
        *base = Some(origin);
        Some(origin)
    }
}

/// Per-receiver stream state: the base the *receiver* currently holds.
#[derive(Debug, Clone, Copy)]
struct StreamState {
    /// Origin of the last item flushed to this receiver.
    base: Point,
    /// Flushes left before an absolute keyframe is forced.
    flushes_until_keyframe: u32,
}

/// Encodes per-client update-origin streams as chained deltas with
/// periodic keyframes.
///
/// One encoder serves every client of a game server; each client has an
/// independent stream. The caller opens it once per flush
/// ([`DeltaEncoder::begin_flush`]), feeds it the origins it is about to
/// send one by one (already priority-ordered — see
/// [`FlushPolicy`](crate::FlushPolicy)) and transmits each returned
/// [`EncodedOrigin`] in that order.
///
/// # Keyframes
///
/// `keyframe_every = 0` disables delta encoding entirely (every item
/// absolute — the v1 baseline). `keyframe_every = n ≥ 1` forces at least
/// one absolute item every `n` flushes per client; any absolute item
/// emitted for other reasons (resync, exactness fallback, threshold)
/// also rebases the stream and restarts the countdown.
///
/// # Resync
///
/// [`DeltaEncoder::reset`] drops a client's stream so its next flush
/// starts with a keyframe — call it whenever the receiver may have lost
/// state (join, re-join after a server switch, handover) and when it
/// departs. [`DeltaEncoder::clear`] wipes every stream (driver
/// shutdown), so a later rejoin can never be fed a stale base.
#[derive(Debug, Clone)]
pub struct DeltaEncoder<K: Ord> {
    keyframe_every: u32,
    quantum: f64,
    streams: BTreeMap<K, StreamState>,
}

impl<K: Ord + Copy> DeltaEncoder<K> {
    /// Largest offset magnitude encodable as a delta, modelling the
    /// fixed-point range of the compact wire representation. Larger jumps
    /// (teleports, cross-world events) are sent absolute.
    pub const DEFAULT_MAX_DELTA: f64 = 4096.0;

    /// Default offset resolution: 1/256 world unit. With the default
    /// threshold of ±4096 units an offset spans at most 2²¹ quanta, so
    /// each axis fits a 3-byte signed fixed-point field — the frame the
    /// wire accounting models. Powers of two keep the quantisation
    /// arithmetic exact in `f64`.
    pub const DEFAULT_QUANTUM: f64 = 1.0 / 256.0;

    /// Creates an encoder forcing a keyframe at least every
    /// `keyframe_every` flushes per client (`0` = absolute-only).
    pub fn new(keyframe_every: u32) -> DeltaEncoder<K> {
        DeltaEncoder {
            keyframe_every,
            quantum: Self::DEFAULT_QUANTUM,
            streams: BTreeMap::new(),
        }
    }

    /// Overrides the fixed-point offset resolution (`0.0` drops the
    /// lattice requirement — useful for tests, but then the compact
    /// frame size the accounting models is not generally attainable).
    pub fn with_quantum(mut self, quantum: f64) -> DeltaEncoder<K> {
        self.quantum = quantum;
        self
    }

    /// The configured keyframe interval (`0` = delta encoding disabled).
    pub fn keyframe_every(&self) -> u32 {
        self.keyframe_every
    }

    /// Number of client streams currently holding a delta base.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Whether `d` fits the compact fixed-point offset field: an exact
    /// multiple of the quantum (no lattice requirement when the quantum
    /// is 0).
    fn fits_fixed_point(&self, d: f64) -> bool {
        self.quantum == 0.0 || (d / self.quantum).fract() == 0.0
    }

    /// Tries to encode `next` as an offset from `base`: the offset must
    /// be finite, within the threshold, representable in the compact
    /// fixed-point frame, and reconstruct bit-for-bit.
    fn try_offset(&self, base: Point, next: Point) -> Option<EncodedOrigin> {
        let dx = next.x - base.x;
        let dy = next.y - base.y;
        let exact = dx.is_finite()
            && dy.is_finite()
            && dx.abs() <= Self::DEFAULT_MAX_DELTA
            && dy.abs() <= Self::DEFAULT_MAX_DELTA
            && self.fits_fixed_point(dx)
            && self.fits_fixed_point(dy)
            && base.x + dx == next.x
            && base.y + dy == next.y;
        exact.then_some(EncodedOrigin::Offset { dx, dy })
    }

    /// Opens one flush of `client`'s stream. Feed the returned
    /// [`FlushEncoder`] the origins about to be sent, in order, then
    /// [`finish`](FlushEncoder::finish) it to commit the stream state.
    /// The first item is absolute when the client has no stream (fresh
    /// or reset) or the keyframe countdown expired; otherwise every item
    /// chains off the previous reconstructed origin.
    pub fn begin_flush(&mut self, client: K) -> FlushEncoder<'_, K> {
        let state = self.streams.get(&client).copied();
        FlushEncoder {
            client,
            countdown: state.map(|s| s.flushes_until_keyframe),
            base: state.map(|s| s.base),
            emitted: false,
            sent_keyframe: false,
            encoder: self,
        }
    }

    /// Drops `client`'s stream: the receiver may have lost its base
    /// (join, re-join, handover) or departed — its next flush, if any,
    /// starts with a keyframe.
    pub fn reset(&mut self, client: K) {
        self.streams.remove(&client);
    }

    /// Wipes every stream (driver shutdown): any client that later
    /// rejoins gets a keyframe, never a delta against a base it lost.
    pub fn clear(&mut self) {
        self.streams.clear();
    }
}

/// One flush of one client's delta stream, in progress
/// ([`DeltaEncoder::begin_flush`]). Items are encoded one at a time, so
/// a caller assembling wire items needs no intermediate origin or
/// encoding buffer.
#[derive(Debug)]
#[must_use = "finish() commits the stream state the emitted items assume"]
pub struct FlushEncoder<'a, K: Ord> {
    encoder: &'a mut DeltaEncoder<K>,
    client: K,
    /// The keyframe countdown the stream entered this flush with
    /// (`None` = no stream: fresh or reset).
    countdown: Option<u32>,
    /// The origin the receiver holds after the items emitted so far.
    base: Option<Point>,
    emitted: bool,
    sent_keyframe: bool,
}

impl<K: Ord + Copy> FlushEncoder<'_, K> {
    /// Encodes the flush's next origin.
    pub fn encode(&mut self, origin: Point) -> EncodedOrigin {
        if self.encoder.keyframe_every == 0 {
            return EncodedOrigin::Absolute(origin);
        }
        // A stream without a base, or one whose countdown expired,
        // opens the flush with a keyframe.
        let force_keyframe = !self.emitted && self.countdown.unwrap_or(0) == 0;
        let encoded = match self.base {
            Some(b) if !force_keyframe => self
                .encoder
                .try_offset(b, origin)
                .unwrap_or(EncodedOrigin::Absolute(origin)),
            _ => EncodedOrigin::Absolute(origin),
        };
        self.emitted = true;
        self.sent_keyframe |= encoded.is_keyframe();
        // Offsets reconstruct exactly, so the receiver's base after
        // this item is the true origin on both sides.
        self.base = Some(origin);
        encoded
    }

    /// Commits the stream state: the last origin becomes the base of
    /// the next flush, and the keyframe countdown restarts if this
    /// flush carried a keyframe and ticks down otherwise. An empty
    /// flush, and absolute-only mode, leave the encoder untouched.
    pub fn finish(self) {
        if !self.emitted {
            return;
        }
        let base = self.base.expect("every emitted item sets the base");
        let flushes_until_keyframe = if self.sent_keyframe {
            self.encoder.keyframe_every.saturating_sub(1)
        } else {
            self.countdown.unwrap_or(0).saturating_sub(1)
        };
        self.encoder.streams.insert(
            self.client,
            StreamState {
                base,
                flushes_until_keyframe,
            },
        );
    }
}

/// Snaps a point onto the fixed-point lattice of resolution `quantum`
/// (`0.0` returns the point unchanged). Producers quantise batch
/// origins — keyframes and deltas alike — before they enter the
/// dissemination pipeline, so offsets between any two origins are exact
/// multiples of the quantum and fit the compact delta frame. With a
/// power-of-two quantum the snapped coordinates are exact in `f64` for
/// any realistic world size.
pub fn quantize(p: Point, quantum: f64) -> Point {
    if quantum == 0.0 {
        return p;
    }
    let snap = |v: f64| {
        let q = (v / quantum).round() * quantum;
        if q.is_finite() {
            q
        } else {
            v // magnitudes beyond the lattice stay absolute-only
        }
    };
    Point::new(snap(p.x), snap(p.y))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One whole flush through the streaming encoder, collected.
    fn encode_flush(
        enc: &mut DeltaEncoder<u32>,
        client: u32,
        origins: &[Point],
    ) -> Vec<EncodedOrigin> {
        let mut flush = enc.begin_flush(client);
        let out = origins.iter().map(|&p| flush.encode(p)).collect();
        flush.finish();
        out
    }

    fn decode(items: &[EncodedOrigin], base: &mut Option<Point>) -> Vec<Point> {
        items
            .iter()
            .map(|i| i.decode(base).expect("decodable"))
            .collect()
    }

    #[test]
    fn first_flush_is_keyframed_then_deltas_chain() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(4);
        let origins = [
            Point::new(10.0, 10.0),
            Point::new(11.5, 10.0),
            Point::new(12.0, 9.0),
        ];
        let items = encode_flush(&mut enc, 1, &origins);
        assert!(items[0].is_keyframe());
        assert!(!items[1].is_keyframe());
        assert!(!items[2].is_keyframe());
        let mut base = None;
        assert_eq!(decode(&items, &mut base), origins);

        // Next flush chains off the last origin without a keyframe.
        let next = [Point::new(12.5, 9.0)];
        let items = encode_flush(&mut enc, 1, &next);
        assert!(!items[0].is_keyframe());
        assert_eq!(decode(&items, &mut base), next);
    }

    #[test]
    fn keyframe_interval_forces_absolute() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(2);
        let p = |i: u64| [Point::new(10.0 + i as f64, 10.0)];
        assert!(encode_flush(&mut enc, 1, &p(0))[0].is_keyframe()); // flush 1: key
        assert!(!encode_flush(&mut enc, 1, &p(1))[0].is_keyframe()); // flush 2: delta
        assert!(encode_flush(&mut enc, 1, &p(2))[0].is_keyframe()); // flush 3: forced
        assert!(!encode_flush(&mut enc, 1, &p(3))[0].is_keyframe());
    }

    #[test]
    fn zero_interval_disables_deltas() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(0);
        for i in 0..5u64 {
            let items = encode_flush(&mut enc, 1, &[Point::new(i as f64, 0.0)]);
            assert!(items[0].is_keyframe());
        }
        assert_eq!(enc.streams(), 0, "absolute-only mode keeps no state");
    }

    #[test]
    fn teleports_and_extreme_magnitudes_fall_back_to_keyframes() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(8);
        encode_flush(&mut enc, 1, &[Point::new(0.0, 0.0)]);
        // Beyond the threshold: absolute.
        let far = encode_flush(&mut enc, 1, &[Point::new(1.0e5, 0.0)]);
        assert!(far[0].is_keyframe());
        // Magnitudes whose difference cannot round-trip: absolute.
        encode_flush(&mut enc, 1, &[Point::new(1.0e16, 0.0)]);
        let tiny = encode_flush(&mut enc, 1, &[Point::new(1.0, 0.0)]);
        assert!(tiny[0].is_keyframe());
    }

    #[test]
    fn off_lattice_offsets_fall_back_to_keyframes() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(8);
        encode_flush(&mut enc, 1, &[Point::new(0.0, 0.0)]);
        // 0.1 is not a multiple of 1/256: the compact fixed-point frame
        // cannot carry it exactly, so the item ships absolute.
        let off = encode_flush(&mut enc, 1, &[Point::new(0.1, 0.0)]);
        assert!(off[0].is_keyframe());
        // Snapped onto the lattice it deltas fine.
        let p = quantize(Point::new(0.1, 0.0), DeltaEncoder::<u32>::DEFAULT_QUANTUM);
        enc.reset(1);
        encode_flush(&mut enc, 1, &[Point::new(0.0, 0.0)]);
        let on = encode_flush(&mut enc, 1, &[p]);
        assert!(!on[0].is_keyframe());
    }

    #[test]
    fn quantize_snaps_exactly_and_passes_through_zero_quantum() {
        let q = DeltaEncoder::<u32>::DEFAULT_QUANTUM;
        let p = quantize(Point::new(123.456, -7.89), q);
        assert_eq!(p.x, (123.456f64 / q).round() * q);
        assert_eq!((p.x / q).fract(), 0.0);
        assert_eq!((p.y / q).fract(), 0.0);
        let raw = Point::new(1.23456789, 2.0);
        assert_eq!(quantize(raw, 0.0), raw);
        // Magnitudes beyond the lattice stay untouched rather than
        // overflowing to infinity.
        let huge = Point::new(f64::MAX, 0.0);
        assert_eq!(quantize(huge, q), huge);
    }

    #[test]
    fn reset_forces_resync_keyframe() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(100);
        encode_flush(&mut enc, 7, &[Point::new(5.0, 5.0)]);
        assert!(!encode_flush(&mut enc, 7, &[Point::new(6.0, 5.0)])[0].is_keyframe());
        enc.reset(7);
        assert!(encode_flush(&mut enc, 7, &[Point::new(7.0, 5.0)])[0].is_keyframe());
    }

    #[test]
    fn clear_wipes_every_stream() {
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(8);
        encode_flush(&mut enc, 1, &[Point::new(1.0, 1.0)]);
        encode_flush(&mut enc, 2, &[Point::new(2.0, 2.0)]);
        assert_eq!(enc.streams(), 2);
        enc.clear();
        assert_eq!(enc.streams(), 0);
        assert!(encode_flush(&mut enc, 1, &[Point::new(1.5, 1.0)])[0].is_keyframe());
    }

    #[test]
    fn offset_without_base_is_rejected() {
        let offset = EncodedOrigin::Offset { dx: 1.0, dy: 0.0 };
        let mut base = None;
        assert_eq!(offset.decode(&mut base), None);
        assert_eq!(base, None, "a rejected item leaves the base alone");
        let key = EncodedOrigin::Absolute(Point::new(1.0, 2.0));
        assert_eq!(key.decode(&mut base), Some(Point::new(1.0, 2.0)));
        assert_eq!(offset.decode(&mut base), Some(Point::new(2.0, 2.0)));
        assert_eq!(base, Some(Point::new(2.0, 2.0)));
    }
}
