//! Stable shard routing for per-receiver pipeline state.
//!
//! The sharded flush engine partitions per-receiver state (delta
//! streams, sampling phase, prediction mirrors, queued batches) across
//! `flush_workers` independent shards. The partition must be *stable* —
//! the same key lands in the same shard on every node, every run, every
//! platform — because region snapshots ship per-receiver state between
//! primaries and standbys whose `flush_workers` may differ: the importer
//! re-routes each entry by `shard_hash() % local_shard_count`, which is
//! only deterministic if the hash itself is. `std::hash::Hash` offers no
//! such guarantee (`RandomState` is seeded per process), so sharding
//! gets its own tiny trait instead.

use matrix_predict::mix64;

/// A key with a stable, platform-independent 64-bit hash used only for
/// shard routing. Implementations must be pure functions of the key's
/// value.
pub trait ShardKey {
    /// The stable hash. Raw identity bits are fine — the router applies
    /// its own bit mixer before reducing modulo the shard count, so
    /// sequential ids spread evenly.
    fn shard_hash(&self) -> u64;
}

macro_rules! impl_shard_key {
    ($($t:ty),*) => {
        $(impl ShardKey for $t {
            fn shard_hash(&self) -> u64 {
                *self as u64
            }
        })*
    };
}

impl_shard_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Maps a stable hash onto `shards` buckets via the splitmix64
/// finalizer ([`mix64`], the mixer the id-keyed tables hash with) —
/// sequential client ids (the common case) spread uniformly instead of
/// striping.
pub fn shard_of(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (mix64(hash) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in 1..=8usize {
            for key in 0..1000u64 {
                let a = shard_of(key.shard_hash(), shards);
                let b = shard_of(key.shard_hash(), shards);
                assert_eq!(a, b, "stable for key {key}");
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let shards = 4usize;
        let mut counts = vec![0usize; shards];
        for key in 0..4000u64 {
            counts[shard_of(key.shard_hash(), shards)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(c),
                "shard {i} holds {c} of 4000 keys — the mixer failed to spread"
            );
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        for key in [0u64, 1, u64::MAX] {
            assert_eq!(shard_of(key, 1), 0);
        }
    }
}
