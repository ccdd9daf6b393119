//! The in-process game client.
//!
//! Implements the client side of the paper's contract: clients talk only
//! to game servers, obey `SwitchServer` instructions by re-joining the
//! named server, and are otherwise oblivious to Matrix (§3.2.1).
//!
//! The client also mirrors the server's dissemination pipeline on the
//! receive side: each `UpdateBatch` item ([`matrix_core::BatchItem`])
//! carries its origin as the server's delta encoder emitted it, a
//! keyframe or an offset ([`matrix_core::EncodedOrigin`]), so the client
//! threads a per-stream base through [`matrix_core::reconstruct_updates`]
//! and resets it whenever the stream restarts (join, server switch) —
//! exactly when the server's encoder keyframes. Counters read the
//! item's fields directly.
//!
//! Velocity-tagged items additionally feed a dead-reckoning
//! [`Extrapolator`]: between flushes the client can render every
//! visible entity at its *extrapolated* position
//! ([`RtClient::extrapolated`]) instead of its last reported one — the
//! receiver half of predictive dissemination, whose server half
//! suppresses updates while this extrapolation stays within the ring's
//! error budget.

use crate::node::NodeMsg;
use crate::router::Router;
use matrix_core::{
    reconstruct_updates, ClientId, ClientToGame, Extrapolator, GameToClient, HostInput,
};
use matrix_geometry::{Point, ServerId};
use matrix_sim::SimTime;
use tokio::sync::mpsc;

/// Counters a client accumulates over its session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Action acknowledgements received.
    pub acks: u64,
    /// World updates received (batched updates count individually).
    pub updates: u64,
    /// `UpdateBatch` messages received.
    pub batches: u64,
    /// Absolute keyframe items among the batched updates.
    pub keyframes: u64,
    /// Delta-encoded items among the batched updates.
    pub deltas: u64,
    /// Items that arrived through an outer vision ring (ring > 0):
    /// sampled periphery the client should render at reduced fidelity.
    pub far_items: u64,
    /// Items that carried a dead-reckoning velocity — each one rebased
    /// this client's extrapolation for its entity.
    pub velocity_items: u64,
    /// Items that carried a causal trace tag — for each one the client
    /// measured delivery latency and staleness-at-apply and echoed a
    /// `TraceAck` upstream.
    pub traced_items: u64,
    /// Server switches performed.
    pub switches: u64,
}

/// An in-process client connection.
pub struct RtClient {
    id: ClientId,
    router: Router,
    rx: mpsc::UnboundedReceiver<GameToClient>,
    server: ServerId,
    pos: Point,
    state_bytes: u64,
    /// Delta-stream base: the last reconstructed update origin.
    delta_base: Option<Point>,
    /// Dead-reckoning state: the last received basis per visible
    /// entity, advanced on demand between flushes.
    extrap: Extrapolator,
    counters: ClientCounters,
}

impl RtClient {
    /// Connects (registers an inbox and sends the initial `Join`).
    pub(crate) fn connect(router: Router, server: ServerId, pos: Point) -> RtClient {
        let id = router.allocate_client_id();
        let (tx, rx) = mpsc::unbounded_channel();
        router.register_client(id, tx);
        let client = RtClient {
            id,
            router,
            rx,
            server,
            pos,
            state_bytes: 1_024,
            delta_base: None,
            extrap: Extrapolator::new(),
            counters: ClientCounters::default(),
        };
        client.send(ClientToGame::Join {
            pos,
            state_bytes: client.state_bytes,
        });
        client
    }

    /// This client's globally unique id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The server currently serving this client.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Current position.
    pub fn pos(&self) -> Point {
        self.pos
    }

    /// Session counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// The origin of the most recent reconstructed *batched* update,
    /// i.e. this client's delta-stream base. Singleton
    /// `GameToClient::Update` messages are outside the delta stream and
    /// do not move it.
    pub fn last_update_origin(&self) -> Option<Point> {
        self.delta_base
    }

    /// Where this client currently renders `entity`: its dead-reckoning
    /// extrapolation at `at`, or `None` before any velocity-tagged
    /// update arrived for it. Between flushes this is how a predicted
    /// entity keeps moving on screen while the server suppresses
    /// updates.
    pub fn extrapolated(&self, entity: u64, at: SimTime) -> Option<Point> {
        self.extrap.predict(entity, at.as_secs_f64())
    }

    /// Number of entities this client holds a dead-reckoning basis for.
    pub fn extrapolated_entities(&self) -> usize {
        self.extrap.tracked()
    }

    /// Culls dead-reckoning bases last rebased before `cutoff`,
    /// returning how many were dropped. Call periodically from the
    /// render loop: an entity silent that long has left the area of
    /// interest (or the game) and must stop being extrapolated — there
    /// is no explicit departure message for mere AOI exits.
    pub fn prune_extrapolations(&mut self, cutoff: SimTime) -> usize {
        self.extrap.prune_older_than(cutoff.as_secs_f64())
    }

    fn send(&self, msg: ClientToGame) {
        self.router
            .send_node(self.server, NodeMsg::Input(HostInput::Client(self.id, msg)));
    }

    /// Moves to `pos` and tells the server.
    pub fn move_to(&mut self, pos: Point) {
        self.pos = pos;
        self.send(ClientToGame::Move { pos });
    }

    /// Performs an action at the current position.
    pub fn action(&mut self, payload_bytes: usize) {
        self.send(ClientToGame::Action {
            pos: self.pos,
            payload_bytes,
        });
    }

    /// Leaves the game and releases the inbox.
    pub fn leave(mut self) {
        self.send(ClientToGame::Leave);
        self.rx.close();
        self.router.unregister_client(self.id);
    }

    /// Digests one server message: updates counters, the delta-stream
    /// base and the current-server bookkeeping. Returns `false` for
    /// `SwitchServer`, which is handled transparently (re-join) and
    /// never surfaced to callers.
    fn digest(&mut self, msg: &GameToClient) -> bool {
        match msg {
            GameToClient::SwitchServer { to } => {
                self.counters.switches += 1;
                self.server = *to;
                // The new server's encoder starts our stream fresh, and
                // so does its prediction mirror.
                self.delta_base = None;
                self.extrap.reset();
                self.send(ClientToGame::Join {
                    pos: self.pos,
                    state_bytes: self.state_bytes,
                });
                false
            }
            GameToClient::Ack { .. } => {
                self.counters.acks += 1;
                true
            }
            GameToClient::Update { origin: _, .. } => {
                // Singleton updates are outside the batch pipeline: the
                // server's encoder does not advance its base for them,
                // so neither may the client, or the streams desync.
                self.counters.updates += 1;
                true
            }
            GameToClient::UpdateBatch { updates } => {
                self.counters.batches += 1;
                self.counters.updates += updates.len() as u64;
                for item in updates {
                    if item.origin.is_keyframe() {
                        self.counters.keyframes += 1;
                    } else {
                        self.counters.deltas += 1;
                    }
                    if item.ring > 0 {
                        self.counters.far_items += 1;
                    }
                }
                // Reconstruction threads the base forward; the server
                // keyframes after every resync, so a failure here means
                // a protocol bug — drop the base and recover on the next
                // keyframe rather than panicking a live client.
                match reconstruct_updates(&mut self.delta_base, updates) {
                    Some(items) => {
                        // EVERY attributed item rebases the extrapolator,
                        // exactly as the sender's mirror rebases on every
                        // transmission: a velocity-tagged item keeps the
                        // entity moving between flushes, and a
                        // velocity-free one pins it at the reported
                        // position (an entity that stopped must stop on
                        // screen too — its zero velocity is *information*,
                        // it just travels as the omitted default).
                        let at = self.router.now();
                        let now = at.as_secs_f64();
                        for u in items {
                            if u.has_velocity() {
                                self.counters.velocity_items += 1;
                            }
                            if u.entity != 0 {
                                self.extrap.update(u.entity, u.origin, (u.vx, u.vy), now);
                            }
                            // Close the causal trace: measure this item
                            // end-to-end on the receiver's clock and echo
                            // the numbers to the serving node, which folds
                            // them into its per-ring freshness histograms.
                            if let Some(tag) = u.trace {
                                self.counters.traced_items += 1;
                                self.send(ClientToGame::TraceAck {
                                    ring: u.ring,
                                    latency_us: tag.latency_us(at.as_micros()),
                                    staleness_us: tag.staleness_us(at.as_micros()),
                                });
                            }
                        }
                    }
                    None => self.delta_base = None,
                }
                true
            }
            GameToClient::Joined { server } => {
                self.server = *server;
                // A (re)join restarts the delta stream on the server —
                // and the prediction stream with it.
                self.delta_base = None;
                self.extrap.reset();
                true
            }
        }
    }

    /// Receives the next server message, transparently handling switches
    /// (re-joining the new server, as the paper's clients do).
    pub async fn recv(&mut self) -> Option<GameToClient> {
        loop {
            let msg = self.rx.recv().await?;
            if self.digest(&msg) {
                return Some(msg);
            }
        }
    }

    /// Drains any immediately available messages without waiting.
    pub fn drain(&mut self) -> Vec<GameToClient> {
        let mut out = Vec::new();
        while let Ok(msg) = self.rx.try_recv() {
            if self.digest(&msg) {
                out.push(msg);
            }
        }
        out
    }
}
