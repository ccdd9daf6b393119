//! One machine of a deployment: a game server beside its Matrix server.
//!
//! The paper co-locates the two (§3.2.2), so whatever one says to the
//! other never leaves the machine. [`Host`] owns the pair and is the one
//! place that conversation is carried out: [`Host::step`] runs the
//! handler an input names, then passes `GameAction::ToMatrix` and
//! `Action::ToGame` back and forth, first in first out and all at the
//! step's single instant, until neither side has anything left for the
//! other. What is left is addressed to someone else — a client, a peer,
//! the coordinator, the pool — and comes back as [`Outbound`] entries in
//! the order the handlers produced them. A driver is then only a
//! transport: it decides when inputs arrive and where outbound entries
//! go, and cannot reorder what happens in between.

use crate::gameserver::{GameAction, GameServerNode};
use crate::messages::{
    ClientToGame, CoordMsg, CoordReply, GameToClient, MatrixToGame, PeerMsg, PoolMsg, PoolReply,
};
use crate::packet::ClientId;
use crate::server::{Action, Lifecycle, MatrixServer};
use matrix_geometry::{Rect, ServerId};
use matrix_sim::SimTime;
use std::collections::VecDeque;

/// Something that arrives at the machine, or a timer firing on it.
#[derive(Debug, Clone, PartialEq)]
pub enum HostInput {
    /// A client packet for the game server.
    Client(ClientId, ClientToGame),
    /// A peer Matrix server's message.
    Peer {
        /// Sending server.
        from: ServerId,
        /// The message.
        msg: PeerMsg,
    },
    /// A coordinator reply.
    Coord(CoordReply),
    /// A pool reply.
    Pool(PoolReply),
    /// Developer bootstrap: register the game world on this machine.
    Register {
        /// The world rectangle.
        world: Rect,
        /// Radius of visibility.
        radius: f64,
    },
    /// The periodic tick. The game side ticks (and flushes) only while
    /// the Matrix side is `Active`; the Matrix side ticks in every
    /// lifecycle, because an idle warm standby still heartbeats.
    Tick {
        /// Receive-queue backlog the driver observed, folded into the
        /// game server's load report: the one place a measured
        /// utilisation signal enters.
        queue_backlog: f64,
    },
    /// Graceful stop: flush what the batcher still holds and clear every
    /// per-client delta base.
    Shutdown,
}

/// What a step leaves for the driver, in the order it came up.
#[derive(Debug, Clone, PartialEq)]
pub enum Outbound {
    /// To a connected client.
    ToClient(ClientId, GameToClient),
    /// To a peer Matrix server.
    ToPeer(ServerId, PeerMsg),
    /// To the coordinator.
    ToCoord(CoordMsg),
    /// To the resource pool.
    ToPool(PoolMsg),
    /// Not a message: what one Matrix-to-game delivery cost the game
    /// server, reported at the point it happened for a driver that
    /// models the receive queue. A driver with a real queue ignores it.
    Local(LocalDelivery),
}

/// The two local deliveries a receive-queue model has to account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalDelivery {
    /// A peer's update reached the game server and fanned out.
    PeerUpdate {
        /// Local receivers it was fanned out to.
        fanned: u64,
    },
    /// A redirect instruction moved connections off this machine.
    Redirect {
        /// Connected clients before the redirect.
        before: usize,
        /// Connected clients after it.
        after: usize,
    },
}

/// A co-located game server and Matrix server, stepped as one unit.
#[derive(Debug, Clone)]
pub struct Host {
    game: GameServerNode,
    matrix: MatrixServer,
    /// What the game side has asked for and nobody has carried out yet.
    /// Empty between steps unless [`Host::stage_client`] left something.
    local: VecDeque<GameAction>,
}

impl Host {
    /// Joins the two halves. They are passed in built, so a driver picks
    /// the game server's emission mode and whether the Matrix server
    /// starts idle or already owns a range.
    pub fn new(game: GameServerNode, matrix: MatrixServer) -> Host {
        Host {
            game,
            matrix,
            local: VecDeque::new(),
        }
    }

    /// The game-server half, for snapshots and reports.
    pub fn game(&self) -> &GameServerNode {
        &self.game
    }

    /// The Matrix-server half, for snapshots and reports.
    pub fn matrix(&self) -> &MatrixServer {
        &self.matrix
    }

    /// Handles one input at `now` and runs the pair to quiescence,
    /// appending everything that leaves the machine to `out`.
    pub fn step(&mut self, now: SimTime, input: HostInput, out: &mut Vec<Outbound>) {
        match input {
            HostInput::Client(client, msg) => {
                let actions = self.game.on_client(now, client, msg);
                self.run_game(now, actions, out);
            }
            HostInput::Peer { from, msg } => {
                let actions = self.matrix.on_peer(now, from, msg);
                self.run_matrix(now, actions, out);
            }
            HostInput::Coord(reply) => {
                let actions = self.matrix.on_coord(now, reply);
                self.run_matrix(now, actions, out);
            }
            HostInput::Pool(reply) => {
                let actions = self.matrix.on_pool(now, reply);
                self.run_matrix(now, actions, out);
            }
            HostInput::Register { world, radius } => {
                let actions = self.game.register(world, radius);
                self.run_game(now, actions, out);
            }
            HostInput::Tick { queue_backlog } => {
                if self.matrix.lifecycle() == Lifecycle::Active {
                    let actions = self.game.on_tick(now, queue_backlog);
                    self.run_game(now, actions, out);
                }
                let actions = self.matrix.on_tick(now);
                self.run_matrix(now, actions, out);
            }
            HostInput::Shutdown => {
                let actions = self.game.shutdown_flush(now);
                self.run_game(now, actions, out);
            }
        }
    }

    /// Runs the client handler now but leaves what it asked for queued:
    /// the next [`Host::step`] carries it out, after that step's own
    /// handler has run and ahead of what that handler asks for. This is
    /// how a driver delivers two packets that arrived as one — the
    /// discrete-event harness sends a cycle's move and action together,
    /// and the action must be handled before the move's owner query is
    /// answered.
    pub fn stage_client(&mut self, now: SimTime, client: ClientId, msg: ClientToGame) {
        let actions = self.game.on_client(now, client, msg);
        self.local.extend(actions);
    }

    fn run_game(&mut self, now: SimTime, actions: Vec<GameAction>, out: &mut Vec<Outbound>) {
        self.local.extend(actions);
        self.drain(now, out);
    }

    fn run_matrix(&mut self, now: SimTime, actions: Vec<Action>, out: &mut Vec<Outbound>) {
        self.route_matrix(now, actions, out);
        self.drain(now, out);
    }

    fn drain(&mut self, now: SimTime, out: &mut Vec<Outbound>) {
        while let Some(action) = self.local.pop_front() {
            match action {
                GameAction::ToMatrix(msg) => {
                    let actions = self.matrix.on_game(now, msg);
                    self.route_matrix(now, actions, out);
                }
                GameAction::ToClient(client, msg) => out.push(Outbound::ToClient(client, msg)),
            }
        }
    }

    /// Matrix actions in order: a local delivery is handed to the game
    /// server at once (its replies join the back of the queue), anything
    /// else leaves the machine.
    fn route_matrix(&mut self, now: SimTime, actions: Vec<Action>, out: &mut Vec<Outbound>) {
        for action in actions {
            match action {
                Action::ToGame(msg) => self.deliver_local(now, msg, out),
                Action::ToPeer(peer, msg) => out.push(Outbound::ToPeer(peer, msg)),
                Action::ToCoord(msg) => out.push(Outbound::ToCoord(msg)),
                Action::ToPool(msg) => out.push(Outbound::ToPool(msg)),
            }
        }
    }

    fn deliver_local(&mut self, now: SimTime, msg: MatrixToGame, out: &mut Vec<Outbound>) {
        let peer_update = matches!(msg, MatrixToGame::Deliver(_));
        let redirect = matches!(
            msg,
            MatrixToGame::RedirectClients { .. } | MatrixToGame::RedirectAll { .. }
        );
        let fanned_before = self.game.stats().updates_fanned;
        let before = self.game.client_count();
        let actions = self.game.on_matrix(now, msg);
        if peer_update {
            let fanned = self.game.stats().updates_fanned - fanned_before;
            out.push(Outbound::Local(LocalDelivery::PeerUpdate { fanned }));
        } else if redirect {
            let after = self.game.client_count();
            out.push(Outbound::Local(LocalDelivery::Redirect { before, after }));
        }
        self.local.extend(actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GameServerConfig, MatrixConfig};
    use crate::messages::{PoolPurpose, PoolReply};
    use matrix_geometry::Point;
    use matrix_sim::SimDuration;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn matrix_cfg() -> MatrixConfig {
        MatrixConfig {
            overload_clients: 3,
            underload_clients: 1,
            ..MatrixConfig::default()
        }
    }

    fn game_cfg() -> GameServerConfig {
        GameServerConfig {
            report_every_ticks: 1,
            ..GameServerConfig::default()
        }
    }

    fn host(id: u32) -> Host {
        let id = ServerId(id);
        Host::new(
            GameServerNode::new(id, game_cfg()).with_fanout(),
            MatrixServer::new(id, matrix_cfg()),
        )
    }

    fn step(host: &mut Host, at_ms: u64, input: HostInput) -> Vec<Outbound> {
        let mut out = Vec::new();
        host.step(SimTime::from_millis(at_ms), input, &mut out);
        out
    }

    /// A registered bootstrap host with three clients: two in the left
    /// half of the world (the half a split gives away), one in the right.
    fn loaded_bootstrap() -> Host {
        let mut h = host(1);
        step(
            &mut h,
            0,
            HostInput::Register {
                world: world(),
                radius: 50.0,
            },
        );
        for (c, x) in [(1, 50.0), (2, 120.0), (3, 350.0)] {
            let join = ClientToGame::Join {
                pos: Point::new(x, 200.0),
                state_bytes: 0,
            };
            step(&mut h, 0, HostInput::Client(ClientId(c), join));
        }
        h
    }

    #[test]
    fn a_step_drains_to_quiescence_and_keeps_local_traffic_in() {
        let mut h = host(1);
        let out = step(
            &mut h,
            0,
            HostInput::Register {
                world: world(),
                radius: 50.0,
            },
        );
        // The game's Register went to its Matrix server inside the step;
        // only the coordinator message leaves.
        assert!(matches!(
            out.as_slice(),
            [Outbound::ToCoord(CoordMsg::RegisterWorld { .. })]
        ));
        assert_eq!(h.matrix().lifecycle(), Lifecycle::Active);
        assert!(h.local.is_empty());

        // A join, a move and an action: acks and nothing else (one
        // server, no peers), and the queue is empty after every step.
        let c = ClientId(9);
        let pos = Point::new(200.0, 200.0);
        let join = ClientToGame::Join {
            pos,
            state_bytes: 0,
        };
        let out = step(&mut h, 1, HostInput::Client(c, join));
        assert_eq!(
            out,
            vec![Outbound::ToClient(
                c,
                GameToClient::Joined {
                    server: ServerId(1)
                }
            )]
        );
        let out = step(&mut h, 2, HostInput::Client(c, ClientToGame::Move { pos }));
        assert!(out.is_empty(), "{out:?}");
        let action = ClientToGame::Action {
            pos,
            payload_bytes: 64,
        };
        let out = step(&mut h, 3, HostInput::Client(c, action));
        assert!(
            matches!(
                out.as_slice(),
                [Outbound::ToClient(_, GameToClient::Ack { .. })]
            ),
            "{out:?}"
        );
        assert!(h.local.is_empty());
        assert_eq!(h.matrix().stats().packets_in, 2, "both were forwarded");
    }

    #[test]
    fn the_matrix_side_checks_relevance_with_the_games_metric() {
        // The Matrix config carries no metric: the game's is registered
        // with the radius, so a Chebyshev game's peer update that is 40
        // away on both axes (56.6 by Euclid) is inside its radius of 50.
        let game = GameServerConfig {
            metric: matrix_geometry::Metric::Chebyshev,
            ..game_cfg()
        };
        let id = ServerId(1);
        let mut h = Host::new(
            GameServerNode::new(id, game).with_fanout(),
            MatrixServer::new(id, MatrixConfig::default()),
        );
        let register = HostInput::Register {
            world: world(),
            radius: 50.0,
        };
        step(&mut h, 0, register);
        let corner = Point::new(440.0, 440.0);
        let pkt = crate::packet::GamePacket::synthetic(
            ClientId(7),
            crate::packet::SpatialTag::at(corner),
            64,
            0,
        );
        let update = HostInput::Peer {
            from: ServerId(2),
            msg: PeerMsg::Update(pkt),
        };
        let out = step(&mut h, 1, update);
        assert_eq!(h.matrix().stats().peer_updates_in, 1, "{out:?}");
        assert!(
            matches!(
                out.as_slice(),
                [Outbound::Local(LocalDelivery::PeerUpdate { .. })]
            ),
            "{out:?}"
        );
    }

    #[test]
    fn tick_on_an_idle_standby_heartbeats_and_leaves_the_game_side_alone() {
        // A vision radius of its own, so the unregistered game server
        // fans out and the test can leave it a batch it must not flush.
        let game = GameServerConfig {
            vision_radius: 100.0,
            ..game_cfg()
        };
        let id = ServerId(7);
        let mut h = Host::new(
            GameServerNode::new(id, game).with_fanout(),
            MatrixServer::new(id, matrix_cfg()),
        );
        let assign = PeerMsg::StandbyAssign {
            primary: ServerId(1),
            range: world(),
            radius: 50.0,
        };
        step(
            &mut h,
            0,
            HostInput::Peer {
                from: ServerId(1),
                msg: assign,
            },
        );
        assert_eq!(h.matrix().lifecycle(), Lifecycle::Idle);
        let pos = Point::new(0.5, 0.5);
        for c in [1, 2] {
            let join = ClientToGame::Join {
                pos,
                state_bytes: 0,
            };
            step(&mut h, 0, HostInput::Client(ClientId(c), join));
        }
        step(
            &mut h,
            1,
            HostInput::Client(ClientId(1), ClientToGame::Move { pos }),
        );
        assert_eq!(h.game().stats().updates_fanned, 1, "a batch is pending");

        let out = step(&mut h, 100, HostInput::Tick { queue_backlog: 0.0 });
        assert!(
            matches!(
                out.as_slice(),
                [Outbound::ToCoord(CoordMsg::Heartbeat {
                    server: ServerId(7),
                    ..
                })]
            ),
            "{out:?}"
        );
        assert_eq!(h.game().stats().batches_flushed, 0, "the game side slept");
        let second = step(&mut h, 200, HostInput::Tick { queue_backlog: 0.0 });
        assert!(second.is_empty(), "heartbeat not due yet: {second:?}");
    }

    #[test]
    fn shutdown_flushes_pending_batches_and_clears_delta_bases() {
        let mut h = host(1);
        step(
            &mut h,
            0,
            HostInput::Register {
                world: world(),
                radius: 50.0,
            },
        );
        let pos = Point::new(200.0, 200.0);
        for c in [1, 2] {
            let join = ClientToGame::Join {
                pos,
                state_bytes: 0,
            };
            step(&mut h, 0, HostInput::Client(ClientId(c), join));
        }
        // One flushed batch gives client 2 a delta base …
        step(
            &mut h,
            10,
            HostInput::Client(ClientId(1), ClientToGame::Move { pos }),
        );
        let tick = game_cfg().batch_interval + SimDuration::from_millis(10);
        let flushed = step(
            &mut h,
            tick.as_micros() / 1000,
            HostInput::Tick { queue_backlog: 0.0 },
        );
        assert!(flushed.iter().any(|o| matches!(
            o,
            Outbound::ToClient(ClientId(2), GameToClient::UpdateBatch { .. })
        )));
        assert!(h.game().delta_streams() > 0);
        // … and a second move is still pending when the stop arrives.
        let at = tick.as_micros() / 1000 + 1;
        step(
            &mut h,
            at,
            HostInput::Client(ClientId(1), ClientToGame::Move { pos }),
        );
        let out = step(&mut h, at + 1, HostInput::Shutdown);
        assert!(
            out.iter().any(|o| matches!(
                o,
                Outbound::ToClient(ClientId(2), GameToClient::UpdateBatch { .. })
            )),
            "the last interval's update must be delivered: {out:?}"
        );
        assert_eq!(h.game().delta_streams(), 0);
    }

    #[test]
    fn outbound_order_is_the_order_of_a_scripted_split() {
        let mut h = loaded_bootstrap();
        // Two overloaded load reports (the default streak) ask the pool.
        let first = step(&mut h, 100, HostInput::Tick { queue_backlog: 0.0 });
        assert!(
            !first.iter().any(|o| matches!(o, Outbound::ToPool(_))),
            "a streak of one must not act: {first:?}"
        );
        let second = step(&mut h, 200, HostInput::Tick { queue_backlog: 0.0 });
        assert_eq!(
            second,
            vec![Outbound::ToPool(PoolMsg::Acquire {
                requester: ServerId(1),
                purpose: PoolPurpose::Split,
            })]
        );

        let grant = PoolReply::Grant {
            server: ServerId(2),
            purpose: PoolPurpose::Split,
        };
        let out = step(&mut h, 700, HostInput::Pool(grant));
        let given = Rect::from_coords(0.0, 0.0, 200.0, 400.0);
        let kept = Rect::from_coords(200.0, 0.0, 400.0, 400.0);
        let to = ServerId(2);
        let from = ServerId(1);
        let cfg = game_cfg();
        let transfer = |c| {
            Outbound::ToPeer(
                to,
                PeerMsg::ClientTransfer {
                    from,
                    client: ClientId(c),
                    bytes: cfg.client_state_bytes,
                },
            )
        };
        let switch = |c| Outbound::ToClient(ClientId(c), GameToClient::SwitchServer { to });
        // The Matrix server's own sends first, in the order it listed
        // them; then the redirect it ordered locally, observed where it
        // happened; then what the game server answered, first in first
        // out: the bulk state, and per client its transfer and its
        // switch notice.
        assert_eq!(
            out,
            vec![
                Outbound::ToPeer(
                    to,
                    PeerMsg::AdoptPartition {
                        parent: from,
                        range: given,
                        radius: 50.0,
                        metric: cfg.metric,
                        epoch: 0,
                    },
                ),
                Outbound::ToCoord(CoordMsg::SplitOccurred {
                    parent: from,
                    child: to,
                    parent_range: kept,
                    child_range: given,
                }),
                Outbound::Local(LocalDelivery::Redirect {
                    before: 3,
                    after: 1,
                }),
                Outbound::ToPeer(
                    to,
                    PeerMsg::StateTransfer {
                        from,
                        bytes: cfg.global_state_bytes,
                    },
                ),
                transfer(1),
                switch(1),
                transfer(2),
                switch(2),
            ]
        );
        assert_eq!(h.game().range(), Some(kept));
        assert_eq!(h.game().client_count(), 1);
    }

    #[test]
    fn a_staged_packet_is_carried_out_by_the_next_step_in_arrival_order() {
        // Client 1 walks out of the kept half after a split. Staged, its
        // move and its action are both handled before the Matrix server
        // answers the move's owner query; stepped one by one, the answer
        // redirects the client first and the action finds nobody.
        let roamer = ClientId(3);
        let outside = Point::new(100.0, 200.0);
        let action = ClientToGame::Action {
            pos: outside,
            payload_bytes: 64,
        };
        let split = |h: &mut Host| {
            step(h, 100, HostInput::Tick { queue_backlog: 0.0 });
            step(h, 200, HostInput::Tick { queue_backlog: 0.0 });
            let grant = PoolReply::Grant {
                server: ServerId(2),
                purpose: PoolPurpose::Split,
            };
            step(h, 700, HostInput::Pool(grant));
            // The coordinator's table: without a directory the owner
            // query would leave the machine instead of being answered.
            let mut map = matrix_geometry::PartitionMap::new(world(), ServerId(1));
            map.split(
                ServerId(1),
                ServerId(2),
                &matrix_geometry::SplitStrategy::SplitToLeft,
                &[],
            )
            .unwrap();
            let overlap =
                matrix_geometry::build_overlap(&map, 50.0, matrix_geometry::Metric::Euclidean);
            let tables = CoordReply::Tables {
                epoch: 1,
                tables: vec![(
                    overlap.radius().to_bits(),
                    overlap.table_for(ServerId(1)).unwrap().clone(),
                )],
                map,
            };
            step(h, 701, HostInput::Coord(tables));
        };

        let mut staged = loaded_bootstrap();
        split(&mut staged);
        staged.stage_client(
            SimTime::from_millis(800),
            roamer,
            ClientToGame::Move { pos: outside },
        );
        assert!(!staged.local.is_empty());
        let out = step(&mut staged, 800, HostInput::Client(roamer, action.clone()));
        assert!(staged.local.is_empty());
        assert_eq!(staged.matrix().stats().packets_in, 2, "{out:?}");
        let kinds: Vec<&str> = out
            .iter()
            .map(|o| match o {
                Outbound::ToPeer(_, PeerMsg::Update(_)) => "update",
                Outbound::ToClient(_, GameToClient::Ack { .. }) => "ack",
                Outbound::ToPeer(_, PeerMsg::ClientTransfer { .. }) => "transfer",
                Outbound::ToClient(_, GameToClient::SwitchServer { .. }) => "switch",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["update", "update", "ack", "transfer", "switch"]);

        let mut stepped = loaded_bootstrap();
        split(&mut stepped);
        step(
            &mut stepped,
            800,
            HostInput::Client(roamer, ClientToGame::Move { pos: outside }),
        );
        let out = step(&mut stepped, 800, HostInput::Client(roamer, action));
        assert!(out.is_empty(), "already redirected: {out:?}");
        assert_eq!(stepped.matrix().stats().packets_in, 1);
    }
}
