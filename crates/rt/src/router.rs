//! The address book of a running cluster.
//!
//! Every component (node, coordinator, pool, client) owns an unbounded
//! mpsc inbox; the router maps ids to senders so the sans-io state
//! machines' actions can be delivered without any component knowing the
//! topology. A shared monotonic clock converts wall time to [`SimTime`]
//! so the state machines see the same time type under simulation and
//! deployment.

use crate::node::NodeMsg;
use matrix_core::{ClientId, CoordMsg, GameToClient, PoolMsg};
use matrix_geometry::ServerId;
use matrix_sim::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};
use std::time::Instant;
use tokio::sync::mpsc;

/// Cheaply cloneable handle to the cluster's address book and clock.
#[derive(Clone)]
pub struct Router {
    inner: Arc<Inner>,
}

struct Inner {
    start: Instant,
    nodes: RwLock<HashMap<ServerId, mpsc::UnboundedSender<NodeMsg>>>,
    clients: RwLock<HashMap<ClientId, mpsc::UnboundedSender<GameToClient>>>,
    coordinator: RwLock<Option<mpsc::UnboundedSender<CoordMsg>>>,
    pool: RwLock<Option<mpsc::UnboundedSender<(ServerId, PoolMsg)>>>,
    next_client: AtomicU64,
}

/// Takes the guard of one of the router's locks whether or not a task
/// panicked while holding it. Every update under these locks is a
/// single map insert, remove or slot store, so the tables are valid at
/// every step — and one panicking connection task must not take every
/// other client's delivery path down with it.
fn recover<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// Creates an empty router with the clock starting now.
    pub fn new() -> Router {
        Router {
            inner: Arc::new(Inner {
                start: Instant::now(),
                nodes: RwLock::new(HashMap::new()),
                clients: RwLock::new(HashMap::new()),
                coordinator: RwLock::new(None),
                pool: RwLock::new(None),
                next_client: AtomicU64::new(1),
            }),
        }
    }

    /// Wall-clock time since cluster start, as the protocol time type.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.inner.start.elapsed().as_micros() as u64)
    }

    /// Allocates a fresh globally unique client id.
    pub fn allocate_client_id(&self) -> ClientId {
        ClientId(self.inner.next_client.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a node's inbox.
    pub fn register_node(&self, id: ServerId, tx: mpsc::UnboundedSender<NodeMsg>) {
        recover(self.inner.nodes.write()).insert(id, tx);
    }

    /// Registers a client's inbox.
    pub fn register_client(&self, id: ClientId, tx: mpsc::UnboundedSender<GameToClient>) {
        recover(self.inner.clients.write()).insert(id, tx);
    }

    /// Removes a client (disconnect).
    pub fn unregister_client(&self, id: ClientId) {
        recover(self.inner.clients.write()).remove(&id);
    }

    /// Registers the coordinator's inbox.
    pub fn register_coordinator(&self, tx: mpsc::UnboundedSender<CoordMsg>) {
        *recover(self.inner.coordinator.write()) = Some(tx);
    }

    /// Registers the pool's inbox.
    pub fn register_pool(&self, tx: mpsc::UnboundedSender<(ServerId, PoolMsg)>) {
        *recover(self.inner.pool.write()) = Some(tx);
    }

    /// Sends to a node; silently drops if the node is gone (matching the
    /// network's at-most-once delivery to dead hosts).
    pub fn send_node(&self, id: ServerId, msg: NodeMsg) {
        if let Some(tx) = recover(self.inner.nodes.read()).get(&id) {
            let _ = tx.send(msg);
        }
    }

    /// Sends to a client.
    pub fn send_client(&self, id: ClientId, msg: GameToClient) {
        if let Some(tx) = recover(self.inner.clients.read()).get(&id) {
            let _ = tx.send(msg);
        }
    }

    /// Sends to the coordinator.
    pub fn send_coordinator(&self, msg: CoordMsg) {
        if let Some(tx) = recover(self.inner.coordinator.read()).as_ref() {
            let _ = tx.send(msg);
        }
    }

    /// Sends to the pool on behalf of `from`.
    pub fn send_pool(&self, from: ServerId, msg: PoolMsg) {
        if let Some(tx) = recover(self.inner.pool.read()).as_ref() {
            let _ = tx.send((from, msg));
        }
    }

    /// Ids of all registered nodes.
    pub fn node_ids(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = recover(self.inner.nodes.read()).keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_lock_does_not_stop_delivery() {
        let router = Router::new();
        let (tx, mut rx) = mpsc::unbounded_channel();
        let id = router.allocate_client_id();
        router.register_client(id, tx);

        let poisoner = router.clone();
        let died = std::thread::spawn(move || {
            let _guard = poisoner.inner.clients.write();
            panic!("a connection task dies holding the client table");
        })
        .join();
        assert!(died.is_err() && router.inner.clients.is_poisoned());

        router.send_client(id, GameToClient::Ack { seq: 7 });
        assert_eq!(rx.try_recv(), Ok(GameToClient::Ack { seq: 7 }));
        router.unregister_client(id);
        router.send_client(id, GameToClient::Ack { seq: 8 });
        assert!(rx.try_recv().is_err(), "unregistered after the poisoning");
    }
}
