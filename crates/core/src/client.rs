//! The client half of the protocol, written once. The paper gives a
//! client one contract (§3.2.1): talk only to your game server, and when
//! it sends `SwitchServer`, re-join the named server.
//! [`ClientSession::apply`] is the one place a server message is applied.
//! Like [`crate::Host`] it does no I/O: the side that owns the uplink
//! sends the trace acks `apply` appends and, after a switch, the
//! [`ClientSession::rejoin`] that [`ClientSession::upload`] keeps current.

use crate::messages::{reconstruct_counting_keyframes, ClientToGame, GameToClient, UpdateItem};
use matrix_geometry::{Point, ServerId};
use matrix_interest::{Extrapolator, ANON_ENTITY};
use matrix_sim::SimTime;
use matrix_telemetry::TraceTag;

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
    /// Batches rejected because a delta item arrived with no base: the
    /// base is dropped and the stream recovers on the next keyframe. A
    /// rejected batch counts in `batches` and `updates`, not in the
    /// per-item counters above.
    pub desyncs: u64,
}

/// The echo of a traced item applied at `apply_us`: the latency and
/// staleness the serving node folds into its per-ring histograms.
pub fn trace_ack(ring: u8, tag: TraceTag, apply_us: u64) -> ClientToGame {
    ClientToGame::TraceAck {
        ring,
        latency_us: tag.latency_us(apply_us),
        staleness_us: tag.staleness_us(apply_us),
    }
}

/// One client's side of a session (see the module docs).
#[derive(Debug, Clone)]
pub struct ClientSession {
    server: ServerId,
    /// The last uploaded position and session-state size.
    pos: Point,
    state_bytes: u64,
    /// Delta-stream base: the last reconstructed batch origin.
    base: Option<Point>,
    extrap: Extrapolator,
    counters: ClientCounters,
}

impl ClientSession {
    /// A fresh session on `server`, before the client uploaded anything.
    pub fn new(server: ServerId) -> ClientSession {
        ClientSession {
            server,
            pos: Point::ORIGIN,
            state_bytes: 0,
            base: None,
            extrap: Extrapolator::new(),
            counters: ClientCounters::default(),
        }
    }

    /// The server the client is on.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The last uploaded position.
    pub fn pos(&self) -> Point {
        self.pos
    }

    /// Session counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// The delta-stream base: the origin of the last reconstructed
    /// *batched* update (singleton `Update`s do not move it).
    pub fn last_update_origin(&self) -> Option<Point> {
        self.base
    }

    /// Where the client renders `entity` at `at`: its dead-reckoning
    /// extrapolation, or `None` before any update for it arrived.
    pub fn extrapolated(&self, entity: u64, at: SimTime) -> Option<Point> {
        self.extrap.predict(entity, at.as_secs_f64())
    }

    /// Number of entities the client holds a dead-reckoning basis for.
    pub fn extrapolated_entities(&self) -> usize {
        self.extrap.tracked()
    }

    /// Culls bases last rebased before `cutoff`: [`Extrapolator::prune_older_than`].
    pub fn prune_extrapolations(&mut self, cutoff: SimTime) -> usize {
        self.extrap.prune_older_than(cutoff.as_secs_f64())
    }

    /// Records one message the client sent.
    pub fn upload(&mut self, msg: &ClientToGame) {
        match msg {
            ClientToGame::Join { pos, state_bytes } => {
                self.pos = *pos;
                self.state_bytes = *state_bytes;
            }
            ClientToGame::Move { pos } | ClientToGame::Action { pos, .. } => self.pos = *pos,
            ClientToGame::TraceAck { .. } | ClientToGame::Leave => {}
        }
    }

    /// The re-join a `SwitchServer` calls for, at the last uploaded
    /// position and state size: a promoted standby already holds the
    /// player there, so no corrective move follows.
    pub fn rejoin(&self) -> ClientToGame {
        ClientToGame::Join {
            pos: self.pos,
            state_bytes: self.state_bytes,
        }
    }

    /// Applies one server message at `now`; returns the items it
    /// reconstructed (none unless it was a batch that decoded).
    ///
    /// Every attributed item rebases the extrapolator (a zero velocity
    /// pins the entity); anonymous ones ([`ANON_ENTITY`]) are skipped.
    /// Each traced item appends one [`trace_ack`] to `uploads`. A delta
    /// item with no base rejects its batch and counts a desync; the next
    /// keyframe recovers.
    pub fn apply(
        &mut self,
        now: SimTime,
        msg: &GameToClient,
        uploads: &mut Vec<ClientToGame>,
    ) -> Vec<UpdateItem> {
        match msg {
            GameToClient::Joined { server } | GameToClient::SwitchServer { to: server } => {
                let switch = matches!(msg, GameToClient::SwitchServer { .. });
                self.counters.switches += u64::from(switch);
                // The server's encoder and prediction mirror restart this
                // client's streams; so does the client.
                self.server = *server;
                self.base = None;
                self.extrap.reset();
            }
            GameToClient::Ack { .. } => self.counters.acks += 1,
            // A singleton update is outside the batch stream and its base.
            GameToClient::Update { .. } => self.counters.updates += 1,
            GameToClient::UpdateBatch { updates } => {
                self.counters.batches += 1;
                self.counters.updates += updates.len() as u64;
                // One pass over the bytes; the loop below reads the
                // items it produced.
                let Some((applied, keyframes)) =
                    reconstruct_counting_keyframes(&mut self.base, updates)
                else {
                    self.base = None;
                    self.counters.desyncs += 1;
                    return Vec::new();
                };
                self.counters.keyframes += keyframes;
                self.counters.deltas += applied.len() as u64 - keyframes;
                let at = now.as_secs_f64();
                for u in &applied {
                    self.counters.far_items += u64::from(u.ring > 0);
                    self.counters.velocity_items += u64::from(u.has_velocity());
                    if u.entity != ANON_ENTITY {
                        self.extrap.update(u.entity, u.origin, (u.vx, u.vy), at);
                    }
                    if let Some(tag) = u.trace {
                        self.counters.traced_items += 1;
                        uploads.push(trace_ack(u.ring, tag, now.as_micros()));
                    }
                }
                return applied;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BatchItem, WireBatch};
    use matrix_interest::EncodedOrigin;

    fn item(origin: EncodedOrigin, entity: u64) -> BatchItem {
        BatchItem {
            origin,
            payload_bytes: 16,
            entity,
            ring: 0,
            vx: 0.0,
            vy: 0.0,
            trace: None,
        }
    }

    fn keyframe(x: f64, y: f64, entity: u64) -> BatchItem {
        item(EncodedOrigin::Absolute(Point::new(x, y)), entity)
    }

    fn batch(items: &[BatchItem]) -> GameToClient {
        GameToClient::UpdateBatch {
            updates: WireBatch::from_items(items),
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A session on server 1 holding a base and a moving entity 7.
    fn streaming() -> ClientSession {
        let mut s = ClientSession::new(ServerId(1));
        let moving = BatchItem {
            vx: 10.0,
            ..keyframe(100.0, 100.0, 7)
        };
        s.apply(at(0), &batch(&[moving]), &mut Vec::new());
        assert_eq!(s.last_update_origin(), Some(Point::new(100.0, 100.0)));
        assert_eq!(s.extrapolated_entities(), 1);
        s
    }

    #[test]
    fn upload_tracks_what_a_rejoin_carries() {
        let mut s = ClientSession::new(ServerId(1));
        assert_eq!(
            s.rejoin(),
            ClientToGame::Join {
                pos: Point::ORIGIN,
                state_bytes: 0
            }
        );
        s.upload(&ClientToGame::Join {
            pos: Point::new(100.0, 100.0),
            state_bytes: 512,
        });
        s.upload(&ClientToGame::Move {
            pos: Point::new(110.0, 105.0),
        });
        s.upload(&ClientToGame::Action {
            pos: Point::new(112.0, 105.0),
            payload_bytes: 64,
        });
        s.upload(&ClientToGame::Leave);
        assert_eq!(
            s.rejoin(),
            ClientToGame::Join {
                pos: Point::new(112.0, 105.0),
                state_bytes: 512,
            },
            "the transparent re-join carries the real position and state"
        );
    }

    #[test]
    fn a_switch_moves_the_client_and_restarts_its_streams() {
        let mut s = streaming();
        s.upload(&ClientToGame::Join {
            pos: Point::new(40.0, 30.0),
            state_bytes: 256,
        });
        s.upload(&ClientToGame::Move {
            pos: Point::new(42.0, 31.0),
        });
        let mut uploads = Vec::new();
        let applied = s.apply(
            at(10),
            &GameToClient::SwitchServer { to: ServerId(2) },
            &mut uploads,
        );
        assert!(applied.is_empty());
        assert!(uploads.is_empty(), "the uplink's owner sends the re-join");
        assert_eq!(s.server(), ServerId(2));
        assert_eq!(s.counters().switches, 1);
        assert_eq!(s.last_update_origin(), None);
        assert_eq!(s.extrapolated_entities(), 0);
        assert_eq!(
            s.rejoin(),
            ClientToGame::Join {
                pos: Point::new(42.0, 31.0),
                state_bytes: 256,
            }
        );
    }

    #[test]
    fn joined_restarts_the_streams() {
        let mut s = streaming();
        s.apply(
            at(10),
            &GameToClient::Joined {
                server: ServerId(3),
            },
            &mut Vec::new(),
        );
        assert_eq!(s.server(), ServerId(3));
        assert_eq!(s.last_update_origin(), None);
        assert_eq!(s.extrapolated_entities(), 0);
        assert_eq!(s.counters().switches, 0, "a join is not a switch");
    }

    #[test]
    fn a_singleton_update_does_not_move_the_base() {
        let mut s = streaming();
        let applied = s.apply(
            at(10),
            &GameToClient::Update {
                origin: Point::new(5.0, 5.0),
                payload_bytes: 8,
            },
            &mut Vec::new(),
        );
        assert!(applied.is_empty());
        assert_eq!(s.counters().updates, 2);
        assert_eq!(s.last_update_origin(), Some(Point::new(100.0, 100.0)));
        // The next delta still chains off the batch stream's base.
        let next = batch(&[item(EncodedOrigin::Offset { dx: 1.0, dy: 0.0 }, 8)]);
        let applied = s.apply(at(20), &next, &mut Vec::new());
        assert_eq!(applied[0].origin, Point::new(101.0, 100.0));
    }

    #[test]
    fn a_zero_velocity_rebase_pins_the_entity() {
        let mut s = streaming();
        assert_eq!(
            s.extrapolated(7, at(1_000)),
            Some(Point::new(110.0, 100.0)),
            "moving at 10 u/s"
        );
        // The entity stopped: its rebase carries no velocity.
        s.apply(
            at(1_000),
            &batch(&[keyframe(110.0, 100.0, 7)]),
            &mut Vec::new(),
        );
        assert_eq!(s.extrapolated(7, at(5_000)), Some(Point::new(110.0, 100.0)));
        assert_eq!(s.counters().velocity_items, 1);
    }

    #[test]
    fn anonymous_items_apply_without_a_basis() {
        let mut s = ClientSession::new(ServerId(1));
        let applied = s.apply(
            at(0),
            &batch(&[keyframe(1.0, 2.0, ANON_ENTITY), keyframe(3.0, 4.0, 5)]),
            &mut Vec::new(),
        );
        assert_eq!(applied.len(), 2);
        assert_eq!(s.extrapolated(ANON_ENTITY, at(0)), None);
        assert_eq!(s.extrapolated(5, at(0)), Some(Point::new(3.0, 4.0)));
    }

    #[test]
    fn every_traced_item_echoes_one_ack() {
        let mut s = ClientSession::new(ServerId(1));
        let mut tag = TraceTag::new(1, 9, 1_000);
        tag.charge(500);
        let traced = BatchItem {
            ring: 2,
            trace: Some(tag),
            ..keyframe(10.0, 10.0, 4)
        };
        let plain = keyframe(11.0, 10.0, 5);
        let mut uploads = Vec::new();
        s.apply(at(3), &batch(&[traced, plain, traced]), &mut uploads);
        let ack = ClientToGame::TraceAck {
            ring: 2,
            latency_us: 2_000,
            staleness_us: 2_500,
        };
        assert_eq!(uploads, vec![ack.clone(), ack]);
        assert_eq!(s.counters().traced_items, 2);
        assert_eq!(trace_ack(2, tag, 3_000), uploads[0]);
    }

    #[test]
    fn a_delta_without_a_base_is_counted_and_the_next_keyframe_recovers() {
        let mut s = ClientSession::new(ServerId(1));
        let orphan = batch(&[item(EncodedOrigin::Offset { dx: 1.0, dy: 1.0 }, 3)]);
        let mut uploads = Vec::new();
        assert!(s.apply(at(0), &orphan, &mut uploads).is_empty());
        assert_eq!(s.counters().desyncs, 1);
        assert_eq!(s.last_update_origin(), None);
        assert_eq!(s.extrapolated_entities(), 0, "nothing of the batch applied");
        let recovered = batch(&[
            keyframe(20.0, 20.0, 3),
            item(EncodedOrigin::Offset { dx: 1.0, dy: 1.0 }, 3),
        ]);
        let applied = s.apply(at(10), &recovered, &mut uploads);
        assert_eq!(applied[1].origin, Point::new(21.0, 21.0));
        assert_eq!(s.counters().desyncs, 1);
        assert_eq!(s.last_update_origin(), Some(Point::new(21.0, 21.0)));
    }
}
