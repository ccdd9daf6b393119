//! A whole deployment on a zero-latency loopback: N [`Host`]s, the
//! coordinator and the resource pool joined by one FIFO queue. There is
//! no link model, no runtime and no clock but the test's own — the
//! transport is the few dozen lines of [`Loopback::send`] — so this is
//! the smallest driver `Host::step` can be run under, and the place to
//! start from when a transport should lose, reorder or delay messages.
//!
//! The scenario overloads the bootstrap host into a split, then thins
//! the crowd out until the parent reclaims its child. After **every**
//! step it checks the two things no interleaving may break: each
//! connected client is owned exactly once, and the partitions tile the
//! world.

use matrix_middleware::core::{
    ClientId, ClientToGame, CoordAction, Coordinator, CoordinatorConfig, GameServerConfig,
    GameServerNode, GameToClient, Host, HostInput, Lifecycle, MatrixConfig, MatrixServer, Outbound,
    ResourcePool,
};
use matrix_middleware::geometry::{Point, Rect, ServerId};
use matrix_middleware::sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

const TICK: SimDuration = SimDuration::from_millis(100);

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, 400.0, 400.0)
}

struct Loopback {
    hosts: BTreeMap<ServerId, Host>,
    coordinator: Coordinator,
    pool: ResourcePool,
    /// Everything in flight, in the order it was sent.
    wire: VecDeque<(ServerId, HostInput)>,
    /// Where each connected client stands.
    clients: BTreeMap<ClientId, Point>,
    now: SimTime,
    steps: u64,
}

impl Loopback {
    fn new() -> Loopback {
        let mut net = Loopback {
            hosts: BTreeMap::new(),
            coordinator: Coordinator::new(CoordinatorConfig::default()),
            pool: ResourcePool::with_capacity(2, 2),
            wire: VecDeque::new(),
            clients: BTreeMap::new(),
            now: SimTime::ZERO,
            steps: 0,
        };
        let register = HostInput::Register {
            world: world(),
            radius: 50.0,
        };
        net.wire.push_back((ServerId(1), register));
        net.settle();
        net
    }

    /// A machine fresh from the pool: idle until a peer hands it a range.
    fn fresh_host(id: ServerId) -> Host {
        let matrix = MatrixConfig {
            overload_clients: 30,
            underload_clients: 15,
            cooldown: SimDuration::from_secs(1),
            ..MatrixConfig::default()
        };
        let game = GameServerConfig {
            report_every_ticks: 1,
            ..GameServerConfig::default()
        };
        Host::new(
            GameServerNode::new(id, game).with_fanout(),
            MatrixServer::new(id, matrix),
        )
    }

    /// The transport: everything a step on `from` left goes straight
    /// onto the wire (the coordinator and the pool answer in place).
    fn send(&mut self, from: ServerId, out: Vec<Outbound>) {
        for outbound in out {
            match outbound {
                Outbound::ToPeer(to, msg) => {
                    self.wire.push_back((to, HostInput::Peer { from, msg }));
                }
                Outbound::ToCoord(msg) => {
                    for CoordAction::Send(to, reply) in self.coordinator.handle(self.now, msg) {
                        self.wire.push_back((to, HostInput::Coord(reply)));
                    }
                }
                Outbound::ToPool(msg) => {
                    if let Some(reply) = self.pool.handle(msg) {
                        self.wire.push_back((from, HostInput::Pool(reply)));
                    }
                }
                // A redirected client reconnects where it was told to.
                Outbound::ToClient(client, GameToClient::SwitchServer { to }) => {
                    if let Some(&pos) = self.clients.get(&client) {
                        let join = ClientToGame::Join {
                            pos,
                            state_bytes: 0,
                        };
                        self.wire.push_back((to, HostInput::Client(client, join)));
                    }
                }
                Outbound::ToClient(..) | Outbound::Local(_) => {}
            }
        }
    }

    /// Delivers what is in flight, one step at a time, until nothing is.
    fn settle(&mut self) {
        while let Some((to, input)) = self.wire.pop_front() {
            let host = self
                .hosts
                .entry(to)
                .or_insert_with(|| Loopback::fresh_host(to));
            let mut out = Vec::new();
            host.step(self.now, input, &mut out);
            self.send(to, out);
            self.steps += 1;
            self.check_invariants();
        }
    }

    /// One tick of every host, in id order, a tick interval later.
    fn tick(&mut self) {
        self.now += TICK;
        for id in self.hosts.keys().copied().collect::<Vec<_>>() {
            self.wire
                .push_back((id, HostInput::Tick { queue_backlog: 0.0 }));
        }
        self.settle();
    }

    fn tick_until(&mut self, what: &str, mut done: impl FnMut(&Loopback) -> bool) {
        for _ in 0..200 {
            if done(self) {
                return;
            }
            self.tick();
        }
        panic!("no {what} within 200 ticks");
    }

    fn client(&mut self, id: u64, msg: ClientToGame) {
        let client = ClientId(id);
        match msg {
            ClientToGame::Join { pos, .. } | ClientToGame::Move { pos } => {
                self.clients.insert(client, pos);
            }
            ClientToGame::Leave => {
                self.clients.remove(&client);
            }
            _ => {}
        }
        // A joining client asks the directory; the others know their server.
        let server = self
            .holder_of(client)
            .or_else(|| self.coordinator.map()?.owner_of(self.clients[&client]))
            .expect("somebody owns every point");
        self.wire
            .push_back((server, HostInput::Client(client, msg)));
        self.settle();
    }

    fn holder_of(&self, client: ClientId) -> Option<ServerId> {
        let mut holders = self
            .hosts
            .iter()
            .filter(|(_, h)| h.game().has_client(client));
        let first = holders.next().map(|(id, _)| *id);
        assert!(holders.next().is_none(), "{client:?} is held twice");
        first
    }

    fn held_by(&self, server: u32) -> usize {
        self.hosts[&ServerId(server)].game().client_count()
    }

    fn partitions(&self) -> usize {
        self.coordinator.map().map_or(0, |m| m.len())
    }

    fn check_invariants(&self) {
        let step = self.steps;
        // Every connected client is on one host, or on its way to one.
        for &client in self.clients.keys() {
            let held = self.holder_of(client).is_some() as usize;
            let joining = self
                .wire
                .iter()
                .filter(|(_, input)| {
                    matches!(input, HostInput::Client(c, ClientToGame::Join { .. }) if *c == client)
                })
                .count();
            assert_eq!(
                held + joining,
                1,
                "step {step}: {client:?} is held {held}× with {joining} joins in flight"
            );
        }
        // The directory tiles the world, and no two machines claim the
        // same ground (a range changes hands through the wire, so between
        // the two steps of a handover nobody claims it).
        let Some(map) = self.coordinator.map() else {
            return;
        };
        map.validate()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        let claimed: Vec<(ServerId, Rect)> = self
            .hosts
            .iter()
            .filter_map(|(id, h)| Some((*id, h.matrix().range()?)))
            .collect();
        for (i, (a, ra)) in claimed.iter().enumerate() {
            assert!(world().contains_rect(ra), "step {step}: {a} escapes");
            for (b, rb) in &claimed[i + 1..] {
                assert!(!ra.intersects(rb), "step {step}: {a} and {b} overlap");
            }
        }
    }
}

#[test]
fn a_crowd_splits_the_bootstrap_host_and_its_dispersal_reclaims_the_child() {
    let mut net = Loopback::new();
    assert_eq!(net.partitions(), 1);

    // 24 clients in the left half, 8 in the right: 32 > 30 overloads.
    for i in 0..32u64 {
        let x = if i < 24 {
            20.0 + 6.0 * i as f64
        } else {
            220.0 + 20.0 * (i - 24) as f64
        };
        let pos = Point::new(x, 40.0 + 10.0 * i as f64);
        net.client(
            i + 1,
            ClientToGame::Join {
                pos,
                state_bytes: 0,
            },
        );
    }
    assert_eq!(net.held_by(1), 32);

    net.tick_until("split", |net| net.partitions() == 2);
    // Split-to-left hands the left half, and the crowd in it, to the
    // pool's first spare.
    assert_eq!(
        net.hosts[&ServerId(2)].matrix().lifecycle(),
        Lifecycle::Active
    );
    assert_eq!((net.held_by(1), net.held_by(2)), (8, 24));
    assert_eq!(net.pool.available(), 1);

    // The crowd thins out: sixteen leave, four walk across the line.
    for i in 0..16u64 {
        net.client(i + 1, ClientToGame::Leave);
    }
    for i in 16..20u64 {
        let pos = Point::new(300.0, 40.0 + 10.0 * i as f64);
        net.client(i + 1, ClientToGame::Move { pos });
    }
    assert_eq!(
        (net.held_by(1), net.held_by(2)),
        (12, 4),
        "roamers handed over"
    );

    net.tick_until("reclaim", |net| net.partitions() == 1);
    net.tick();
    assert_eq!(
        net.hosts[&ServerId(2)].matrix().lifecycle(),
        Lifecycle::Retired
    );
    assert_eq!(net.hosts[&ServerId(1)].matrix().range(), Some(world()));
    assert_eq!((net.held_by(1), net.held_by(2)), (16, 0));
    assert_eq!(net.pool.available(), 2, "the child went back to the pool");
    assert_eq!(net.clients.len(), 16);
    assert!(
        net.steps > 100,
        "every one of {} steps was checked",
        net.steps
    );
}
