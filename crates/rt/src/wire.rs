//! TCP gateway: remote game clients over the wire protocol.
//!
//! Demonstrates the middleware across a real socket: remote clients speak
//! [`ClientToGame`]/[`GameToClient`] as length-prefixed binary frames
//! (`matrix_core::codec_v2`, `docs/WIRE.md`). The gateway bridges each
//! connection onto the in-process cluster, keeping the client's current
//! server in sync with `SwitchServer` instructions it relays (so the
//! remote client stays oblivious to topology, §3.2.1).
//!
//! # Session opening
//!
//! A client opens with a [`Frame::Hello`] carrying its protocol version
//! and waits for the gateway's own `Hello` before it joins
//! ([`TcpGameClient::connect`]). A connection whose first byte is not
//! the frame magic is not a client of this protocol and is closed.
//!
//! `UpdateBatch` frames arrive delta-compressed (`matrix_core::codec_v2`)
//! and the gateway relays them verbatim; a remote client applies them
//! with a `matrix_core::ClientSession`, as `RtClient` does. The gateway
//! owns the uplink, so its per-connection session sees only the uploads
//! and builds the re-join (`ClientSession::rejoin`) a switch calls for.
//!
//! # Transport
//!
//! Every game socket runs with `TCP_NODELAY` on — a 20 Hz stream of
//! small frames must not wait out a delayed ACK — and the gateway
//! issues one write per wake-up, carrying every frame that was ready.
//! Frame boundaries are therefore never packet or read boundaries:
//! receivers delimit frames with the [`FrameAccumulator`].
//!
//! # Stats port
//!
//! The one place another format is spoken: the operator stats endpoint
//! ([`spawn_stats_endpoint`]) writes Prometheus text at whoever
//! connects and closes, so `nc host port` scrapes it. It reads nothing.

use crate::node::{NodeHandle, NodeMsg};
use crate::router::Router;
use matrix_core::codec_v2::{self, CodecError, Frame, FrameAccumulator, FrameMeta};
use matrix_core::{
    render_prometheus, ClientId, ClientSession, ClientToGame, GameToClient, HostInput,
    TelemetrySnapshot, WireCodec,
};
use matrix_geometry::ServerId;
use tokio::io::{AsyncChunkReadExt, AsyncWriteExt, Chunks};
use tokio::net::tcp::OwnedWriteHalf;
use tokio::net::{TcpListener, TcpStream, ToSocketAddrs};
use tokio::sync::mpsc;

/// Errors from the TCP layer.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame was not valid for the expected message type.
    BadFrame(CodecError),
    /// The peer closed the connection.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadFrame(e) => write!(f, "malformed frame: {e}"),
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::BadFrame(e)
    }
}

fn bad_frame(reason: impl Into<String>) -> WireError {
    WireError::BadFrame(CodecError {
        reason: reason.into(),
    })
}

/// Outgoing frame bookkeeping: the per-connection sequence counter and
/// millisecond clock stamped into every frame header.
struct FrameClock {
    seq: u64,
    started: std::time::Instant,
    crc: bool,
}

impl FrameClock {
    fn new(crc: bool) -> FrameClock {
        FrameClock {
            seq: 0,
            started: std::time::Instant::now(),
            crc,
        }
    }

    fn meta(&mut self) -> FrameMeta {
        let meta = FrameMeta {
            seq: self.seq,
            stamp_ms: self.started.elapsed().as_millis() as u32,
        };
        self.seq += 1;
        meta
    }
}

/// Gateway behaviour knobs (see [`spawn_gateway_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayOptions {
    /// Append CRC32 trailers to outgoing frames.
    pub frame_crc: bool,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        GatewayOptions { frame_crc: true }
    }
}

impl GatewayOptions {
    /// Options matching a game-server config: mirrors its CRC policy.
    pub fn from_config(cfg: &matrix_core::GameServerConfig) -> GatewayOptions {
        GatewayOptions {
            frame_crc: cfg.frame_crc,
        }
    }
}

/// Binds a TCP gateway in front of a running cluster with default
/// options (CRC on). Returns the local address; the accept loop runs
/// until the listener task is dropped.
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_gateway(
    addr: impl ToSocketAddrs,
    router: Router,
    entry: ServerId,
) -> Result<std::net::SocketAddr, WireError> {
    spawn_gateway_with(addr, router, entry, GatewayOptions::default()).await
}

/// Binds a TCP gateway with explicit [`GatewayOptions`].
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_gateway_with(
    addr: impl ToSocketAddrs,
    router: Router,
    entry: ServerId,
    opts: GatewayOptions,
) -> Result<std::net::SocketAddr, WireError> {
    let listener = TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else {
                break;
            };
            tokio::spawn(serve_connection(stream, router.clone(), entry, opts));
        }
    });
    Ok(local)
}

/// One connection's bridge onto the cluster: where the client's uploads
/// go, and the bytes of the current wake-up on their way back.
struct Bridge {
    router: Router,
    client_id: ClientId,
    /// The server that currently owns this client, so uploads land at
    /// the right node.
    current: ServerId,
    /// What the client uploaded, so a transparent re-join lands where
    /// the player actually is (a promoted standby already holds it
    /// there, so no corrective move follows a failover).
    session: ClientSession,
    clock: FrameClock,
    /// Every frame of one wake-up, back to back; reused across wake-ups.
    out: Vec<u8>,
}

impl Bridge {
    /// Forwards one upload to the owning node.
    fn upload(&mut self, msg: ClientToGame) {
        self.session.upload(&msg);
        self.router.send_node(
            self.current,
            NodeMsg::Input(HostInput::Client(self.client_id, msg)),
        );
    }

    /// Frames `first` and everything already queued behind it in `inbox`
    /// into one buffer, in order, for a single write: with Nagle off, a
    /// write per frame would be a packet and a syscall per message. A
    /// `SwitchServer` re-points the bridge (and re-joins) at its place in
    /// the sequence.
    fn coalesce(
        &mut self,
        first: GameToClient,
        inbox: &mut mpsc::UnboundedReceiver<GameToClient>,
    ) -> &[u8] {
        self.out.clear();
        let mut next = Some(first);
        while let Some(msg) = next {
            if let GameToClient::SwitchServer { to } = &msg {
                self.current = *to;
                // Transparent re-join on the client's behalf, at the
                // client's real position and state size; the remote
                // end still sees the SwitchServer for observability.
                self.router.send_node(
                    self.current,
                    NodeMsg::Input(HostInput::Client(self.client_id, self.session.rejoin())),
                );
            }
            let meta = self.clock.meta();
            codec_v2::encode_server_frame_into(&mut self.out, &msg, meta, self.clock.crc);
            next = inbox.try_recv().ok();
        }
        &self.out
    }
}

async fn serve_connection(
    stream: TcpStream,
    router: Router,
    entry: ServerId,
    opts: GatewayOptions,
) {
    // Best effort: a socket that refuses the option still works.
    let _ = stream.set_nodelay(true);
    let client_id = router.allocate_client_id();
    let (inbox_tx, mut inbox_rx) = mpsc::unbounded_channel::<GameToClient>();
    router.register_client(client_id, inbox_tx);

    let (read_half, mut write_half) = stream.into_split();
    let mut chunks = read_half.into_chunks();
    let mut bridge = Bridge {
        router,
        client_id,
        current: entry,
        session: ClientSession::new(entry),
        clock: FrameClock::new(opts.frame_crc),
        out: Vec::new(),
    };
    let mut acc = FrameAccumulator::new();
    let mut opened = false;

    'conn: loop {
        tokio::select! {
            chunk = chunks.next_chunk() => {
                let Ok(Some(bytes)) = chunk else { break };
                if !opened {
                    // The accumulator resyncs past garbage *between*
                    // frames; a stream that does not even open with the
                    // frame magic is not a client of this protocol.
                    if bytes.first() != Some(&codec_v2::MAGIC[0]) {
                        break;
                    }
                    opened = true;
                }
                acc.push(&bytes);
                while let Some(item) = acc.next() {
                    match item {
                        Ok((Frame::Hello { .. }, _)) => {
                            // Advertise our version back; the client is
                            // waiting on this before it joins.
                            let hello = Frame::Hello {
                                version: codec_v2::WIRE_VERSION,
                            };
                            let clock = &mut bridge.clock;
                            let bytes = codec_v2::encode_frame(&hello, clock.meta(), clock.crc);
                            if write_half.write_all(&bytes).await.is_err() {
                                break 'conn;
                            }
                        }
                        Ok((Frame::Client(msg), _)) => bridge.upload(msg),
                        // A client has no business sending server
                        // frames.
                        Ok((Frame::Server(_), _)) => break 'conn,
                        // Corrupt region: the accumulator already
                        // resynced at the next magic boundary.
                        Err(_) => continue,
                    }
                }
            }
            msg = inbox_rx.recv() => {
                let Some(msg) = msg else { break };
                let framed = bridge.coalesce(msg, &mut inbox_rx);
                if write_half.write_all(framed).await.is_err() {
                    break;
                }
            }
        }
    }
    bridge.router.unregister_client(client_id);
}

/// Binds the live stats endpoint in front of a set of node handles.
/// Returns the local address; the accept loop runs until the listener
/// task is dropped.
///
/// Protocol: connect and read to EOF. The endpoint writes the
/// Prometheus-style text exposition ([`render_prometheus`]) of every
/// node's snapshot and closes; it reads nothing from the socket. Nodes
/// with telemetry off contribute nothing, so the body is empty — not an
/// error — on a dark cluster.
///
/// When an `slo` probe is supplied, the coordinator's freshness-SLO
/// gauges (`slo_*`) are appended as pseudo-node `ServerId(0)` — the
/// coordinator is not a game server, but its tracker is cluster state
/// an operator scrapes from the same port. A dark tracker (no ring
/// targets configured) contributes nothing.
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_stats_endpoint(
    addr: impl ToSocketAddrs,
    nodes: Vec<NodeHandle>,
    slo: Option<crate::cluster::SloProbe>,
) -> Result<std::net::SocketAddr, WireError> {
    let listener = TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else {
                break;
            };
            tokio::spawn(serve_stats(stream, nodes.clone(), slo.clone()));
        }
    });
    Ok(local)
}

async fn serve_stats(
    stream: TcpStream,
    nodes: Vec<NodeHandle>,
    slo: Option<crate::cluster::SloProbe>,
) {
    let mut snaps: Vec<(ServerId, TelemetrySnapshot)> = Vec::new();
    if let Some(probe) = &slo {
        if let Some(snap) = probe.snapshot().await {
            if !snap.is_empty() {
                snaps.push((ServerId(0), snap));
            }
        }
    }
    for node in &nodes {
        if let Some(snap) = node.snapshot().await {
            if let Some(telemetry) = snap.telemetry {
                snaps.push((snap.id, telemetry));
            }
        }
    }
    // Nothing is read from the peer: the read half is dropped unused.
    let (_, mut write_half) = stream.into_split();
    let _ = write_half
        .write_all(render_prometheus(&snaps).as_bytes())
        .await;
    // The socket closes here: the reader's EOF is what ends the text.
}

/// A remote consumer of the live stats endpoint: one read per
/// connection, like `curl` against a metrics port.
pub struct TcpStatsClient;

impl TcpStatsClient {
    /// Fetches the Prometheus-style text exposition (reads to EOF).
    ///
    /// # Errors
    ///
    /// Socket errors from connecting or reading the response; a reply
    /// that is not UTF-8 is [`WireError::Io`] with `InvalidData`, as
    /// `read_to_string` reports it.
    pub async fn fetch_text(addr: impl ToSocketAddrs) -> Result<String, WireError> {
        let stream = TcpStream::connect(addr).await?;
        // Dropping the write half would shut the socket down both ways.
        let (read_half, _write_half) = stream.into_split();
        let mut chunks = read_half.into_chunks();
        let mut reply = Vec::new();
        while let Some(chunk) = chunks.next_chunk().await? {
            reply.extend_from_slice(&chunk);
        }
        String::from_utf8(reply)
            .map_err(|e| WireError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))
    }
}

/// Receive side of a frame stream: a chunk reader feeding a frame
/// accumulator.
struct FrameReader {
    chunks: Chunks,
    acc: FrameAccumulator,
}

impl FrameReader {
    async fn next_frame(&mut self) -> Result<Frame, WireError> {
        loop {
            if let Some(item) = self.acc.next() {
                match item {
                    Ok((frame, _)) => return Ok(frame),
                    Err(e) => return Err(WireError::BadFrame(e)),
                }
            }
            match self.chunks.next_chunk().await? {
                Some(bytes) => self.acc.push(&bytes),
                None => return Err(WireError::Closed),
            }
        }
    }
}

/// A remote TCP game client.
pub struct TcpGameClient {
    reader: FrameReader,
    writer: OwnedWriteHalf,
    clock: FrameClock,
    /// The frame being sent; reused across sends.
    out: Vec<u8>,
}

impl TcpGameClient {
    /// Connects to a gateway: opens with a `Hello` carrying the
    /// protocol version and waits for the gateway's own.
    ///
    /// # Errors
    ///
    /// Connection errors; [`WireError::Closed`] or
    /// [`WireError::BadFrame`] when the peer does not answer the
    /// `Hello` with one.
    pub async fn connect(addr: impl ToSocketAddrs) -> Result<TcpGameClient, WireError> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        let (read_half, mut writer) = stream.into_split();
        let mut reader = FrameReader {
            chunks: read_half.into_chunks(),
            acc: FrameAccumulator::new(),
        };
        let mut clock = FrameClock::new(true);
        let hello = codec_v2::encode_frame(
            &Frame::Hello {
                version: codec_v2::WIRE_VERSION,
            },
            clock.meta(),
            clock.crc,
        );
        writer.write_all(&hello).await?;
        match reader.next_frame().await? {
            Frame::Hello { .. } => Ok(TcpGameClient {
                reader,
                writer,
                clock,
                out: Vec::new(),
            }),
            _ => Err(bad_frame("expected a hello frame")),
        }
    }

    /// [`connect`](TcpGameClient::connect), spelled with the codec: the
    /// signature the repository's benchmark calls.
    ///
    /// # Errors
    ///
    /// As [`connect`](TcpGameClient::connect).
    pub async fn connect_with(
        addr: impl ToSocketAddrs,
        codec: WireCodec,
    ) -> Result<TcpGameClient, WireError> {
        match codec {
            WireCodec::BinaryV2 => TcpGameClient::connect(addr).await,
        }
    }

    /// Sends one client message.
    ///
    /// # Errors
    ///
    /// Returns socket errors; serialisation of these types cannot fail.
    pub async fn send(&mut self, msg: &ClientToGame) -> Result<(), WireError> {
        self.out.clear();
        let meta = self.clock.meta();
        codec_v2::encode_client_frame_into(&mut self.out, msg, meta, self.clock.crc);
        self.writer.write_all(&self.out).await?;
        Ok(())
    }

    /// Receives the next server message.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the server hangs up, or socket/frame
    /// errors.
    pub async fn recv(&mut self) -> Result<GameToClient, WireError> {
        loop {
            match self.reader.next_frame().await? {
                Frame::Server(msg) => return Ok(msg),
                Frame::Hello { .. } => continue, // late re-advertisement
                _ => return Err(bad_frame("unexpected frame from gateway")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix_geometry::Point;

    #[test]
    fn a_stats_reply_that_is_not_text_is_an_error() {
        use std::io::Write;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for reply in [&b"matrix_joins 2\n"[..], &b"matrix_joins \xff\xfe\n"[..]] {
                let (mut peer, _) = listener.accept().unwrap();
                peer.write_all(reply).unwrap();
                // Dropped here: the reader's EOF ends the reply.
            }
        });
        let text = tokio::runtime::block_on(TcpStatsClient::fetch_text(addr));
        assert_eq!(text.unwrap(), "matrix_joins 2\n");
        let garbage = tokio::runtime::block_on(TcpStatsClient::fetch_text(addr));
        assert!(
            matches!(&garbage, Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData),
            "{garbage:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn switch_then_batch_in_one_wake_up_is_one_ordered_write() {
        use matrix_core::{BatchItem, EncodedOrigin, WireBatch};

        let router = Router::new();
        let (node_tx, mut new_owner) = mpsc::unbounded_channel();
        router.register_node(ServerId(2), node_tx);
        let mut bridge = Bridge {
            client_id: router.allocate_client_id(),
            router,
            current: ServerId(1),
            session: ClientSession::new(ServerId(1)),
            clock: FrameClock::new(true),
            out: b"the last wake-up's bytes".to_vec(),
        };
        bridge.upload(ClientToGame::Join {
            pos: Point::new(40.0, 30.0),
            state_bytes: 256,
        });

        // What the node queued before the connection task woke up.
        let switch = GameToClient::SwitchServer { to: ServerId(2) };
        let batch = GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&[BatchItem {
                origin: EncodedOrigin::Absolute(Point::new(41.0, 30.0)),
                payload_bytes: 64,
                entity: 9,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            }]),
        };
        let (inbox_tx, mut inbox) = mpsc::unbounded_channel();
        inbox_tx.send(batch.clone()).unwrap();
        inbox_tx.send(GameToClient::Ack { seq: 3 }).unwrap();

        // One buffer, so one `write_all`; the client's one read decodes
        // the frames in the order the node emitted them.
        let written = bridge.coalesce(switch.clone(), &mut inbox).to_vec();
        let mut acc = FrameAccumulator::new();
        acc.push(&written);
        let mut seen = Vec::new();
        while let Some(item) = acc.next() {
            let (frame, meta) = item.expect("valid frame");
            seen.push((meta.seq, frame));
        }
        assert_eq!(
            seen,
            vec![
                (0, Frame::Server(switch)),
                (1, Frame::Server(batch)),
                (2, Frame::Server(GameToClient::Ack { seq: 3 })),
            ]
        );
        assert!(inbox.try_recv().is_err(), "the inbox was drained");

        // The switch took effect at its place in the sequence: the
        // re-join went to the new owner, and so does the next upload.
        assert_eq!(bridge.current, ServerId(2));
        let rejoin = ClientToGame::Join {
            pos: Point::new(40.0, 30.0),
            state_bytes: 256,
        };
        assert!(matches!(
            new_owner.try_recv(),
            Ok(NodeMsg::Input(HostInput::Client(id, msg))) if id == bridge.client_id && msg == rejoin
        ));
        bridge.upload(ClientToGame::Leave);
        assert!(matches!(
            new_owner.try_recv(),
            Ok(NodeMsg::Input(HostInput::Client(_, ClientToGame::Leave)))
        ));
    }
}
