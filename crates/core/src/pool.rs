//! The resource pool — the paper's "non-Matrix external entity" that hands
//! out spare servers (§3.2.3).
//!
//! The paper treats server allocation as an oracle; modelling it explicitly
//! lets experiments study pool exhaustion (what happens when there is no
//! spare capacity left, i.e. the failure mode static over-provisioning is
//! meant to prevent).
//!
//! Servers may carry **zone tags** (rack / availability-zone ids). A
//! standby acquisition then prefers a spare in a *different* zone from
//! the requesting primary, so a single failure domain cannot take out a
//! region and its replica together — falling back to any spare when no
//! cross-zone one is free (a co-located standby still beats none).

use crate::messages::{PoolMsg, PoolPurpose, PoolReply};
use matrix_geometry::ServerId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Counters describing pool behaviour over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Successful allocations.
    pub grants: u64,
    /// Allocations that went to warm standbys (a subset of `grants`) —
    /// the capacity replication spends on availability instead of
    /// throughput.
    pub standby_grants: u64,
    /// Requests refused for lack of capacity.
    pub denials: u64,
    /// Servers returned after reclaims.
    pub releases: u64,
    /// High-water mark of simultaneously allocated servers.
    pub peak_allocated: usize,
    /// Standby grants placed in a different zone from their primary (a
    /// subset of `standby_grants`; only counted when both zones are
    /// known).
    pub cross_zone_grants: u64,
}

/// A finite pool of spare server identities.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourcePool {
    free: BTreeSet<ServerId>,
    allocated: BTreeSet<ServerId>,
    /// Optional failure-domain tags (rack / availability zone) per
    /// server — spares and active servers alike may be tagged.
    zones: BTreeMap<ServerId, u32>,
    stats: PoolStats,
}

impl ResourcePool {
    /// Creates a pool holding the given spare server ids.
    pub fn new(spares: impl IntoIterator<Item = ServerId>) -> ResourcePool {
        ResourcePool {
            free: spares.into_iter().collect(),
            allocated: BTreeSet::new(),
            zones: BTreeMap::new(),
            stats: PoolStats::default(),
        }
    }

    /// A pool of `n` spares with ids starting after `first_id`.
    pub fn with_capacity(first_id: u32, n: u32) -> ResourcePool {
        ResourcePool::new((0..n).map(|i| ServerId(first_id + i)))
    }

    /// Tags servers with failure-domain (zone) ids. Tags survive
    /// acquire/release cycles; untagged servers have an unknown zone.
    pub fn with_zones(mut self, zones: impl IntoIterator<Item = (ServerId, u32)>) -> ResourcePool {
        self.zones.extend(zones);
        self
    }

    /// The zone a server is tagged with, if any.
    pub fn zone_of(&self, server: ServerId) -> Option<u32> {
        self.zones.get(&server).copied()
    }

    /// Spare servers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Servers currently out in the field.
    pub fn allocated(&self) -> usize {
        self.allocated.len()
    }

    /// Counters for experiments.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Handles an acquire/release message, producing the reply (if any).
    /// This is the pool's one entry point: every allocation names its
    /// requester, whose zone tag (when known) steers a standby grant to a
    /// different failure domain.
    pub fn handle(&mut self, msg: PoolMsg) -> Option<PoolReply> {
        match msg {
            PoolMsg::Acquire { requester, purpose } => {
                Some(self.acquire_placed(purpose, requester))
            }
            PoolMsg::Release { server } => {
                self.release(server);
                None
            }
        }
    }

    /// Allocates a spare for `purpose`, or denies. The purpose is echoed
    /// in the reply so a requester with both a split and a standby
    /// acquisition in flight can tell them apart. Standby placement: when
    /// the requester's zone is known, a standby grant prefers the
    /// lowest-numbered spare *not* provably in that zone (untagged spares
    /// qualify — they cannot be shown co-located), falling back to any
    /// spare. Splits always take the lowest id: a split target serves
    /// live load next to its parent anyway.
    fn acquire_placed(&mut self, purpose: PoolPurpose, requester: ServerId) -> PoolReply {
        let primary_zone = match purpose {
            PoolPurpose::Standby => self.zone_of(requester),
            PoolPurpose::Split => None,
        };
        let preferred = primary_zone.and_then(|zone| {
            self.free
                .iter()
                .find(|s| self.zones.get(s) != Some(&zone))
                .copied()
        });
        let picked = preferred.or_else(|| self.free.iter().next().copied());
        match picked {
            Some(server) => {
                self.free.remove(&server);
                self.allocated.insert(server);
                self.stats.grants += 1;
                if purpose == PoolPurpose::Standby {
                    self.stats.standby_grants += 1;
                    if let (Some(pz), Some(sz)) = (primary_zone, self.zone_of(server)) {
                        if pz != sz {
                            self.stats.cross_zone_grants += 1;
                        }
                    }
                }
                self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated.len());
                PoolReply::Grant { server, purpose }
            }
            None => {
                self.stats.denials += 1;
                PoolReply::Denied { purpose }
            }
        }
    }

    /// Returns a server to the pool. Unknown ids are tolerated (a release
    /// can race a failure declaration) but not double-counted.
    fn release(&mut self, server: ServerId) {
        if self.allocated.remove(&server) {
            self.free.insert(server);
            self.stats.releases += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One acquisition through the pool's message interface.
    fn acquire(pool: &mut ResourcePool, requester: u32, purpose: PoolPurpose) -> PoolReply {
        pool.handle(PoolMsg::Acquire {
            requester: ServerId(requester),
            purpose,
        })
        .expect("an acquisition is always answered")
    }

    /// One release through the pool's message interface.
    fn release(pool: &mut ResourcePool, server: ServerId) {
        assert_eq!(pool.handle(PoolMsg::Release { server }), None);
    }

    #[test]
    fn grants_until_exhausted() {
        let mut pool = ResourcePool::with_capacity(10, 2);
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Split),
            PoolReply::Grant {
                server: ServerId(10),
                purpose: PoolPurpose::Split,
            }
        );
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Standby),
            PoolReply::Grant {
                server: ServerId(11),
                purpose: PoolPurpose::Standby,
            }
        );
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Split),
            PoolReply::Denied {
                purpose: PoolPurpose::Split
            }
        );
        assert_eq!(pool.stats().grants, 2);
        assert_eq!(pool.stats().standby_grants, 1);
        assert_eq!(pool.stats().denials, 1);
        assert_eq!(pool.stats().peak_allocated, 2);
    }

    #[test]
    fn release_recycles_servers() {
        let mut pool = ResourcePool::with_capacity(10, 1);
        let PoolReply::Grant { server, .. } = acquire(&mut pool, 1, PoolPurpose::Split) else {
            panic!()
        };
        release(&mut pool, server);
        assert_eq!(pool.available(), 1);
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Split),
            PoolReply::Grant {
                server,
                purpose: PoolPurpose::Split
            }
        );
    }

    #[test]
    fn double_release_is_idempotent() {
        let mut pool = ResourcePool::with_capacity(1, 1);
        let PoolReply::Grant { server, .. } = acquire(&mut pool, 9, PoolPurpose::Split) else {
            panic!()
        };
        release(&mut pool, server);
        release(&mut pool, server);
        assert_eq!(pool.stats().releases, 1);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn release_of_unknown_server_is_ignored() {
        let mut pool = ResourcePool::with_capacity(1, 1);
        release(&mut pool, ServerId(99));
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.stats().releases, 0);
    }

    #[test]
    fn standby_acquisition_prefers_a_different_zone() {
        // Spares 10 (zone 0) and 11 (zone 1); the primary sits in zone 0.
        let mut pool = ResourcePool::with_capacity(10, 2).with_zones([
            (ServerId(1), 0),
            (ServerId(10), 0),
            (ServerId(11), 1),
        ]);
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Standby),
            PoolReply::Grant {
                server: ServerId(11),
                purpose: PoolPurpose::Standby,
            },
            "the zone-1 spare is preferred over the lower-numbered zone-0 one"
        );
        assert_eq!(pool.stats().cross_zone_grants, 1);

        // Only the co-zoned spare remains: fall back rather than deny.
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Standby),
            PoolReply::Grant {
                server: ServerId(10),
                purpose: PoolPurpose::Standby,
            },
            "a co-located standby still beats none"
        );
        assert_eq!(pool.stats().cross_zone_grants, 1);
        assert_eq!(pool.stats().standby_grants, 2);
    }

    #[test]
    fn split_acquisition_ignores_zones() {
        let mut pool = ResourcePool::with_capacity(10, 2).with_zones([
            (ServerId(1), 0),
            (ServerId(10), 0),
            (ServerId(11), 1),
        ]);
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Split),
            PoolReply::Grant {
                server: ServerId(10),
                purpose: PoolPurpose::Split,
            },
            "splits take the lowest id regardless of zones"
        );
    }

    #[test]
    fn untagged_spares_qualify_as_cross_zone_candidates() {
        // Spare 10 shares the primary's zone; spare 11 is untagged. The
        // untagged one cannot be proven co-located, so it is preferred —
        // but not counted as a confirmed cross-zone placement.
        let mut pool =
            ResourcePool::with_capacity(10, 2).with_zones([(ServerId(1), 3), (ServerId(10), 3)]);
        assert_eq!(
            acquire(&mut pool, 1, PoolPurpose::Standby),
            PoolReply::Grant {
                server: ServerId(11),
                purpose: PoolPurpose::Standby,
            }
        );
        assert_eq!(
            pool.stats().cross_zone_grants,
            0,
            "zone unknown, not counted"
        );
        // An untagged primary gets no preference at all.
        release(&mut pool, ServerId(11));
        assert_eq!(
            acquire(&mut pool, 99, PoolPurpose::Standby),
            PoolReply::Grant {
                server: ServerId(10),
                purpose: PoolPurpose::Standby,
            }
        );
    }

    #[test]
    fn zone_tags_survive_release_cycles() {
        let mut pool = ResourcePool::with_capacity(10, 1).with_zones([(ServerId(10), 7)]);
        let PoolReply::Grant { server, .. } = acquire(&mut pool, 1, PoolPurpose::Split) else {
            panic!()
        };
        release(&mut pool, server);
        assert_eq!(pool.zone_of(ServerId(10)), Some(7));
    }

    #[test]
    fn handle_maps_messages() {
        let mut pool = ResourcePool::with_capacity(5, 1);
        let reply = pool.handle(PoolMsg::Acquire {
            requester: ServerId(1),
            purpose: PoolPurpose::Split,
        });
        assert_eq!(
            reply,
            Some(PoolReply::Grant {
                server: ServerId(5),
                purpose: PoolPurpose::Split,
            })
        );
        assert_eq!(
            pool.handle(PoolMsg::Release {
                server: ServerId(5)
            }),
            None
        );
        assert_eq!(pool.available(), 1);
    }
}
