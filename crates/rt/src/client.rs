//! The in-process game client: router transport around a
//! [`ClientSession`], which applies every server message (§3.2.1). This
//! type sends what the session asks for — trace acks, and after a
//! `SwitchServer` the re-join — to the server the session names.

use crate::node::NodeMsg;
use crate::router::Router;
use matrix_core::{ClientCounters, ClientId, ClientSession, ClientToGame, GameToClient, HostInput};
use matrix_geometry::{Point, ServerId};
use matrix_sim::SimTime;
use tokio::sync::mpsc;

/// An in-process client connection.
pub struct RtClient {
    id: ClientId,
    router: Router,
    rx: mpsc::UnboundedReceiver<GameToClient>,
    session: ClientSession,
}

impl RtClient {
    /// Connects (registers an inbox and sends the initial `Join`).
    pub(crate) fn connect(router: Router, server: ServerId, pos: Point) -> RtClient {
        let id = router.allocate_client_id();
        let (tx, rx) = mpsc::unbounded_channel();
        router.register_client(id, tx);
        let mut client = RtClient {
            id,
            router,
            rx,
            session: ClientSession::new(server),
        };
        client.upload(ClientToGame::Join {
            pos,
            state_bytes: 1_024,
        });
        client
    }

    /// This client's globally unique id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The server currently serving this client.
    pub fn server(&self) -> ServerId {
        self.session.server()
    }

    /// Current position.
    pub fn pos(&self) -> Point {
        self.session.pos()
    }

    /// Session counters.
    pub fn counters(&self) -> ClientCounters {
        self.session.counters()
    }

    /// See [`ClientSession::last_update_origin`].
    pub fn last_update_origin(&self) -> Option<Point> {
        self.session.last_update_origin()
    }

    /// See [`ClientSession::extrapolated`]: between flushes this is how
    /// a predicted entity keeps moving while the server suppresses it.
    pub fn extrapolated(&self, entity: u64, at: SimTime) -> Option<Point> {
        self.session.extrapolated(entity, at)
    }

    /// See [`ClientSession::extrapolated_entities`].
    pub fn extrapolated_entities(&self) -> usize {
        self.session.extrapolated_entities()
    }

    /// See [`ClientSession::prune_extrapolations`]; call it periodically
    /// from the render loop, as there is no departure message for mere
    /// AOI exits.
    pub fn prune_extrapolations(&mut self, cutoff: SimTime) -> usize {
        self.session.prune_extrapolations(cutoff)
    }

    /// Records `msg` in the session and sends it to the session's server.
    fn upload(&mut self, msg: ClientToGame) {
        self.session.upload(&msg);
        let input = NodeMsg::Input(HostInput::Client(self.id, msg));
        self.router.send_node(self.session.server(), input);
    }

    /// Moves to `pos` and tells the server.
    pub fn move_to(&mut self, pos: Point) {
        self.upload(ClientToGame::Move { pos });
    }

    /// Performs an action at the current position.
    pub fn action(&mut self, payload_bytes: usize) {
        self.upload(ClientToGame::Action {
            pos: self.session.pos(),
            payload_bytes,
        });
    }

    /// Leaves the game and releases the inbox.
    pub fn leave(mut self) {
        self.upload(ClientToGame::Leave);
        self.rx.close();
        self.router.unregister_client(self.id);
    }

    /// Applies one server message and sends what it asks for. Returns
    /// `false` for `SwitchServer`, handled here and never surfaced.
    fn apply(&mut self, msg: &GameToClient) -> bool {
        let mut uploads = Vec::new();
        self.session.apply(self.router.now(), msg, &mut uploads);
        for up in uploads {
            self.upload(up);
        }
        if matches!(msg, GameToClient::SwitchServer { .. }) {
            self.upload(self.session.rejoin());
            return false;
        }
        true
    }

    /// Receives the next server message, transparently handling switches
    /// (re-joining the new server, as the paper's clients do).
    pub async fn recv(&mut self) -> Option<GameToClient> {
        loop {
            let msg = self.rx.recv().await?;
            if self.apply(&msg) {
                return Some(msg);
            }
        }
    }

    /// Drains any immediately available messages without waiting.
    pub fn drain(&mut self) -> Vec<GameToClient> {
        let mut out = Vec::new();
        while let Ok(msg) = self.rx.try_recv() {
            if self.apply(&msg) {
                out.push(msg);
            }
        }
        out
    }
}
