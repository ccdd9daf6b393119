//! The hasher of the tables keyed by router-assigned integer ids.
//!
//! The event path probes a handful of tables once per *delivery* — a
//! receiver's queue, its prediction bases, its sampling counters, the
//! grid index — and every one of them is keyed by a client or entity id.
//! std's default `RandomState` runs SipHash-1-3 over those eight bytes,
//! which costs more than the probe it feeds. [`IdHasher`] replaces it
//! with the splitmix64 finalizer ([`mix64`]): two multiplies, bijective
//! on `u64`, every output bit a function of every input bit, so
//! sequential ids land in unrelated buckets.
//!
//! # What is given up, and why that is nothing here
//!
//! SipHash is keyed per process so that a peer who *chooses* the keys
//! cannot aim them all at one bucket and turn each probe into a scan.
//! `mix64` is a fixed public function; against chosen keys it offers no
//! such resistance. No table using it has chosen keys: client ids are a
//! counter the router hands out (`matrix-rt`'s
//! `Router::allocate_client_id`), entity ids are client ids, and no
//! server-side table is keyed by a value read off a socket. The one
//! client-side user, [`Extrapolator`](crate::Extrapolator), is keyed by
//! the entity ids its own game server sends — that same counter.
//!
//! # Where it must not be used
//!
//! Any map keyed by wire input — a name, a token, an id a client sends
//! and the server does not check against what it issued. Leave std's
//! default hasher there.
//!
//! Iteration order under this hasher is a function of the keys alone
//! (no per-process seed), but it is still *table* order: anything that
//! leaves the process in a defined order is sorted on the way out, never
//! read off a map.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: a fixed bijective bit mixer on `u64`. Also
/// the slot hash of the flush policy's supersede set
/// (`matrix_interest::FlushPolicy`), so sequential ids spread instead
/// of striping.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] for integer-id keys: each integer written is folded into
/// the state with one [`mix64`]. See the module docs for what it trades
/// away and where it must not be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings fold eight bytes at a time; the integer writes below
    /// are the path every id-keyed table takes.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` of [`IdHasher`] (stateless: every map hashes alike).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` over router-assigned integer ids, hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn one_integer_write_is_one_mix() {
        for id in [0u64, 1, 7, u32::MAX as u64, u64::MAX] {
            assert_eq!(IdBuildHasher::default().hash_one(id), mix64(id));
        }
        // Newtype ids and narrower integers hash as their value.
        #[derive(Hash)]
        struct Id(u64);
        assert_eq!(IdBuildHasher::default().hash_one(Id(42)), mix64(42));
        assert_eq!(IdBuildHasher::default().hash_one(42u32), mix64(42));
    }

    #[test]
    fn sequential_ids_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets with the low bits and tags entries
        // with the top seven: both must vary across a run of ids.
        let mut low = [0u32; 16];
        let mut high = [0u32; 16];
        for id in 0..4096u64 {
            let h = mix64(id);
            low[(h & 15) as usize] += 1;
            high[(h >> 60) as usize] += 1;
        }
        for (i, (l, h)) in low.iter().zip(&high).enumerate() {
            assert!((180..=340).contains(l), "low nibble {i}: {l} of 4096");
            assert!((180..=340).contains(h), "high nibble {i}: {h} of 4096");
        }
    }

    #[test]
    fn compound_keys_depend_on_every_part_and_their_order() {
        let h = |k: (u64, u64)| IdBuildHasher::default().hash_one(k);
        assert_ne!(h((1, 2)), h((2, 1)));
        assert_ne!(h((1, 2)), h((1, 3)));
        assert_ne!(h((0, 0)), h((0, 1)));
    }

    #[test]
    fn byte_strings_fold_whole() {
        let h = |b: &[u8]| {
            let mut s = IdHasher::default();
            s.write(b);
            s.finish()
        };
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefghj"), "the tail counts");
    }
}
