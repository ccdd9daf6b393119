//! The wire protocol: length-prefixed binary frames.
//!
//! Every message the middleware puts on a real wire — the client
//! session — is one [`Frame`] here; `docs/WIRE.md` is the byte-level
//! reference. A session opens with a [`Frame::Hello`] carrying the
//! protocol version, which the gateway answers with its own. The only
//! other format in the program is the Prometheus text
//! the operator stats port writes (`matrix_telemetry::render_prometheus`);
//! that port reads nothing, so frames are the only input parsed off a
//! socket.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xD7 0x4D
//! 2       1     protocol version (3)
//! 3       1     frame type (low 5 bits) | flags (high 3 bits; 0x80 = CRC)
//! 4       4     body length, u32 LE
//! 8       8     sender sequence number, u64 LE
//! 16      4     sender timestamp, ms, u32 LE
//! 20      len   body (grammar per frame type, see `docs/WIRE.md`)
//! 20+len  4     CRC32 (IEEE) of bytes 0..20+len — only when flag 0x80
//! ```
//!
//! The header is fixed-size (20 bytes; 24 with the CRC trailer) so a
//! receiver can delimit a frame in O(1) without touching the body;
//! varints appear only *inside* bodies (counts, ids, string lengths)
//! where they pay for themselves. With the CRC on — the default — the
//! per-frame overhead is exactly [`BATCH_OVERHEAD_BYTES`] = 24, the
//! figure the byte-accounting model has always charged per batch.
//!
//! # Batch items
//!
//! `UpdateBatch` bodies are a plain concatenation of items (the frame
//! length delimits them; no count prefix). Each item leads with a
//! header byte of four 2-bit class fields:
//!
//! ```text
//! bits 0-1 origin:   0 absolute 2×f64 | delta 1 2×i16, 2 2×i24, 3 2×f64
//! bits 2-3 vision ring (0..=3)
//! bits 4-5 velocity: 0 none | 1 2×i16, 2 2×i24, 3 2×f64
//! bits 6-7 scalars:  0 u16 entity + u8 length | 1 u24 + u16
//!                    | 2 u64 + u64 | 3 reserved (rejected)
//! ```
//!
//! followed by the entity id, the payload length, the coordinates and,
//! when present, the velocity pair, all little-endian. The i16 and i24
//! pair classes are fixed-point on the 1/256 lattice, with magnitudes up
//! to 2¹⁵−1 and 2²³−1 steps. The encoder puts every field in the
//! narrowest class that holds its values exactly, and an item's length
//! follows from its header byte alone.
//!
//! In memory a batch is its body: a [`WireBatch`] holds the bytes above
//! (trace section, then items), its item count and where the items
//! start. Stage 5 of the flush writes each item once, through a
//! [`BatchWriter`] and the one function that decides an item's header
//! byte and lattice values; the encoder copies the body, the decoder
//! checks every item's header and length and keeps the body, and a
//! receiver parses it once ([`crate::reconstruct_updates`]).
//! [`BatchItem`] is only what a test builds a batch from
//! ([`WireBatch::from_items`]) and what inspection yields
//! ([`WireBatch::items`]). The canonical shapes measure exactly what the
//! accounting constants claim: an absolute item is
//! [`UpdateItem::WIRE_BYTES`] = 20, a delta
//! [`BatchItem::DELTA_WIRE_BYTES`] = 8, a velocity pair
//! [`UpdateItem::VELOCITY_WIRE_BYTES`] = 4 (the wire-bytes audit in
//! `tests/codec_v2_properties.rs` pins this on the bytes written).
//! Payload *content* is never materialized: the length is a declared
//! number — the simulation ships sizes, not state.
//!
//! # Robustness
//!
//! Decoders never panic and never read past the buffer: every read is
//! bounds-checked, trailing body bytes are rejected, and unknown
//! versions, frame types or flag bits fail loudly, as does a client
//! position (`Join`, `Move`, `Action`) with a NaN or infinite
//! coordinate — nothing downstream has a meaning for one. A CRC-carrying
//! frame rejects any corruption of header or body; the
//! [`FrameAccumulator`] then resynchronizes the stream at the next
//! magic boundary. The fuzz suite (`tests/codec_v2_fuzz.rs`) drives
//! random bytes, truncations and bit flips through every decoder.

use crate::messages::{BatchItem, ClientToGame, GameToClient, UpdateItem};
use matrix_geometry::{Point, ServerId};
use matrix_interest::EncodedOrigin;
use matrix_telemetry::TraceTag;

/// A malformed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError {
    /// What went wrong, for diagnostics.
    pub reason: String,
}

impl CodecError {
    fn new(reason: impl Into<String>) -> CodecError {
        CodecError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// The two bytes every binary frame opens with.
pub const MAGIC: [u8; 2] = [0xD7, 0x4D];

/// Protocol version carried in byte 2 of every frame.
pub const WIRE_VERSION: u8 = 3;

/// Fixed frame-header size (magic, version, type/flags, length, seq,
/// timestamp).
pub const HEADER_BYTES: usize = 20;

/// CRC32 trailer size, when the frame carries one.
pub const CRC_BYTES: usize = 4;

/// Per-frame overhead with the CRC trailer on (the default): header
/// plus trailer. Equals the 24 bytes the byte-accounting model charges
/// per `UpdateBatch`.
pub const BATCH_OVERHEAD_BYTES: usize = HEADER_BYTES + CRC_BYTES;

/// Upper bound on a body length a decoder will accept. Far above any
/// real frame (a batch carries at most [`MAX_BATCH_ITEMS`] items: about
/// 4.9 MB in the widest item shape with every item traced); bounds the
/// memory a corrupt length prefix can make a receiver reserve.
pub const MAX_BODY_BYTES: u32 = 1 << 24;

/// Most items one `UpdateBatch` carries: trace entries name their item
/// by a `u16` index. The game server caps its flush policy here, so a
/// surplus is rate-limited like any other policy drop.
pub const MAX_BATCH_ITEMS: usize = u16::MAX as usize;

/// Flag bit in the type byte: frame carries a CRC32 trailer.
const FLAG_CRC: u8 = 0x80;
/// Flag bit in the type byte: a `T_BATCH` body opens with a sampled
/// trace section (`u16` entry count, then per entry: `u16` item index,
/// `u32` origin node, `u32` event seq, `u64` ingest µs, `u64` charged
/// staleness µs). Only valid on `T_BATCH`; untraced batches never set
/// it, so their frames stay byte-identical to pre-trace ones.
const FLAG_TRACE: u8 = 0x40;
/// Reserved flag bits — must be zero.
const FLAG_RESERVED: u8 = 0x20;
/// Frame-type mask in the type byte.
const TYPE_MASK: u8 = 0x1F;

// Frame type codes (low 5 bits of byte 3).
const T_HELLO: u8 = 0;
const T_JOIN: u8 = 1;
const T_MOVE: u8 = 2;
const T_ACTION: u8 = 3;
const T_LEAVE: u8 = 4;
const T_JOINED: u8 = 5;
const T_ACK: u8 = 6;
const T_UPDATE: u8 = 7;
const T_BATCH: u8 = 8;
const T_SWITCH: u8 = 9;
/// Type codes 10–14 are reserved: unassigned, and a frame bearing one
/// is rejected as unknown.
const RESERVED_TYPES: std::ops::RangeInclusive<u8> = 10..=14;
const T_TRACE_ACK: u8 = 15;

/// Wire size of one trace-section entry (item index + origin + seq +
/// ingest + staleness). Public so byte-accounting mirrors (tests, the
/// sim's bandwidth model) can compose frame lengths without encoding.
pub const TRACE_ENTRY_BYTES: usize = 2 + 4 + 4 + 8 + 8;

// Batch-item header byte: four 2-bit class fields (module docs above).
const ITEM_CLASS_MASK: u8 = 0x03;
const ITEM_RING_SHIFT: u8 = 2;
const ITEM_VEL_SHIFT: u8 = 4;
const ITEM_SCALARS_SHIFT: u8 = 6;
/// Pair classes of the origin field (where 0 is an absolute keyframe)
/// and the velocity field (where 0 is "no velocity").
const PAIR_I16: u8 = 1;
const PAIR_I24: u8 = 2;
const PAIR_F64: u8 = 3;
/// Scalar classes: entity id and payload length together. Class 3 is
/// reserved and rejected.
const SCALARS_U16_U8: u8 = 0;
const SCALARS_U24_U16: u8 = 1;
const SCALARS_U64_U64: u8 = 2;
/// Bytes of an item's origin, by origin class.
const ORIGIN_BYTES: [usize; 4] = [16, 4, 6, 16];
/// Bytes of an item's velocity, by velocity class.
const VELOCITY_BYTES: [usize; 4] = [0, 4, 6, 16];
/// Bytes of an item's entity id and payload length, by scalar class.
const SCALAR_BYTES: [usize; 3] = [3, 5, 16];

/// The fixed-point lattice the compact delta/velocity encodings live
/// on: 1/256 world units, the same quantum the delta encoder snaps
/// wire origins to (`GameServerConfig::origin_quantum`).
const LATTICE: f64 = 256.0;
/// Largest magnitude an i24 lattice component can carry.
const I24_MAX: i32 = (1 << 23) - 1;
/// Largest magnitude an i16 lattice component carries: the classes are
/// symmetric, so neither writes its most negative two's-complement value.
const I16_MAX: u32 = i16::MAX as u32;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven eight bytes per step, built at compile time
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `[0]` is the classic bytewise table, and `[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE 802.3 polynomial) of `bytes`: eight bytes per step, the
/// tail (fewer than eight) one byte at a time through table 0.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The one-lookup-per-byte form, kept as the reference the word-wide
/// [`crc32`] is tested against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// The frame set
// ---------------------------------------------------------------------------

/// Per-frame transport metadata carried in the fixed header: the
/// sender's sequence number and millisecond timestamp. Purely
/// observational (loss/reorder diagnostics, one-way delay estimates);
/// no decoder behavior depends on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// Sender's monotone frame counter.
    pub seq: u64,
    /// Sender's clock at encode time, in milliseconds (wraps ~50 days).
    pub stamp_ms: u32,
}

/// One decoded v2 frame: every message the middleware puts on a real
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake: the sender speaks protocol `version`. A
    /// client opens with one and the gateway replies with its own
    /// before any session traffic flows.
    Hello {
        /// Highest protocol version the sender speaks.
        version: u8,
    },
    /// A client-to-game message (`join` / `move` / `action` / `leave`).
    Client(ClientToGame),
    /// A game-to-client message (`joined` / `ack` / `update` / `batch`
    /// / `switch`).
    Server(GameToClient),
}

/// Outcome of [`decode_frame`] on a (possibly partial) buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameStatus {
    /// The buffer holds a valid prefix of a frame; feed more bytes.
    Incomplete,
    /// One whole frame was decoded.
    Complete {
        /// The decoded frame.
        frame: Frame,
        /// Transport metadata from the fixed header.
        meta: FrameMeta,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
}

// ---------------------------------------------------------------------------
// Little-endian / varint writers
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn put_u24(out: &mut Vec<u8>, v: u32) {
    debug_assert!(v <= 0x00FF_FFFF);
    out.extend_from_slice(&v.to_le_bytes()[..3]);
}

fn put_i24(out: &mut Vec<u8>, v: i32) {
    debug_assert!((-(I24_MAX + 1)..=I24_MAX).contains(&v));
    out.extend_from_slice(&(v as u32).to_le_bytes()[..3]);
}

/// LEB128 unsigned varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Snaps `v` onto the 1/256 lattice as an i24, or `None` if it is not
/// exactly representable there (off-lattice value or out of range).
fn lattice_i24(v: f64) -> Option<i32> {
    let scaled = v * LATTICE;
    if scaled.abs() > I24_MAX as f64 {
        return None;
    }
    // In range the cast truncates exactly, so it round-trips iff
    // `scaled` is integral (NaN never does) — and x/256 is exact in
    // binary floating point for any integral x, so decoding is
    // bit-faithful. A cast rather than `fract()`: `trunc` is a libm
    // call on baseline x86-64, and this runs twice per delta item.
    let i = scaled as i32;
    (i as f64 == scaled).then_some(i)
}

/// The narrowest class of a pair (offsets or velocity) and its lattice
/// form: 2×i16 or 2×i24 when both components are lattice values of that
/// magnitude, else 2×f64 (the lattice form is then unused).
fn pair_class(x: f64, y: f64) -> (u8, (i32, i32)) {
    match (lattice_i24(x), lattice_i24(y)) {
        (Some(a), Some(b)) if a.unsigned_abs().max(b.unsigned_abs()) <= I16_MAX => {
            (PAIR_I16, (a, b))
        }
        (Some(a), Some(b)) => (PAIR_I24, (a, b)),
        _ => (PAIR_F64, (0, 0)),
    }
}

/// Writes a pair in `class`: its lattice form as 2×i16 or 2×i24, or
/// `(x, y)` as 2×f64.
fn put_pair(out: &mut Vec<u8>, class: u8, (a, b): (i32, i32), x: f64, y: f64) {
    match class {
        PAIR_I16 => {
            out.extend_from_slice(&(a as i16).to_le_bytes());
            out.extend_from_slice(&(b as i16).to_le_bytes());
        }
        PAIR_I24 => {
            put_i24(out, a);
            put_i24(out, b);
        }
        _ => {
            put_f64(out, x);
            put_f64(out, y);
        }
    }
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A cursor over a frame body. Every read is bounds-checked; the body
/// must be fully consumed (`finish`) for a decode to succeed.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!("truncated {what}")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, CodecError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn point(&mut self, what: &str) -> Result<Point, CodecError> {
        Ok(Point::new(self.f64(what)?, self.f64(what)?))
    }

    /// A client-reported position: NaN and ±∞ are rejected here, at
    /// ingest, rather than reaching the grid and the flush ranking.
    fn finite_point(&mut self, what: &str) -> Result<Point, CodecError> {
        let p = self.point(what)?;
        if p.x.is_finite() && p.y.is_finite() {
            Ok(p)
        } else {
            Err(CodecError::new(format!("non-finite {what}")))
        }
    }

    fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let low = (byte & 0x7F) as u64;
            // The tenth byte may only carry the final bit of a u64.
            if shift == 63 && low > 1 {
                return Err(CodecError::new(format!("varint overflow in {what}")));
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::new(format!("varint overflow in {what}")))
    }

    fn varu32(&mut self, what: &str) -> Result<u32, CodecError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| CodecError::new(format!("{what} out of u32 range")))
    }

    fn finish(self, what: &str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::new(format!(
                "{} trailing bytes after {what} body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame encode
// ---------------------------------------------------------------------------

/// Buffer reserved up front for a frame that is not an `UpdateBatch`:
/// header, trailer and the largest fixed-shape body (a `Join` or
/// `Update`: a point plus a varint) fit with room to spare.
const SMALL_FRAME_BYTES: usize = 64;

/// Encodes one frame, returning the complete wire bytes (header, body
/// and — when `crc` — the CRC32 trailer).
pub fn encode_frame(frame: &Frame, meta: FrameMeta, crc: bool) -> Vec<u8> {
    if let Frame::Server(msg) = frame {
        return encode_server_frame(msg, meta, crc);
    }
    let mut out = Vec::with_capacity(SMALL_FRAME_BYTES);
    encode_frame_into(&mut out, frame, meta, crc);
    out
}

/// Encodes a client message as a frame, without wrapping it in an
/// owned [`Frame`] first.
pub fn encode_client_frame(msg: &ClientToGame, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(SMALL_FRAME_BYTES);
    encode_client_frame_into(&mut out, msg, meta, crc);
    out
}

/// Encodes a server message as a frame, without wrapping it in an
/// owned [`Frame`] first.
pub fn encode_server_frame(msg: &GameToClient, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let capacity = match msg {
        GameToClient::UpdateBatch { updates } => BATCH_OVERHEAD_BYTES + updates.body().len(),
        _ => SMALL_FRAME_BYTES,
    };
    let mut out = Vec::with_capacity(capacity);
    encode_server_frame_into(&mut out, msg, meta, crc);
    out
}

/// Appends one complete frame to `out`, leaving what `out` already held
/// untouched — a sender coalescing several frames into one write calls
/// this once per frame on one buffer.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame, meta: FrameMeta, crc: bool) {
    frame_into(out, meta, crc, |body| encode_body(frame, body));
}

/// Appends a client message as one complete frame to `out`
/// (see [`encode_frame_into`]).
pub fn encode_client_frame_into(out: &mut Vec<u8>, msg: &ClientToGame, meta: FrameMeta, crc: bool) {
    frame_into(out, meta, crc, |body| encode_client_body(msg, body));
}

/// Appends a server message as one complete frame to `out`
/// (see [`encode_frame_into`]).
pub fn encode_server_frame_into(out: &mut Vec<u8>, msg: &GameToClient, meta: FrameMeta, crc: bool) {
    frame_into(out, meta, crc, |body| encode_server_body(msg, body));
}

/// The one frame writer: reserves the header at the end of `out`, lets
/// `body` append the body in place (returning the type byte, flags
/// included), then patches type and length and appends the CRC over
/// this frame's own bytes.
fn frame_into(
    out: &mut Vec<u8>,
    meta: FrameMeta,
    crc: bool,
    body: impl FnOnce(&mut Vec<u8>) -> u8,
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&[0; 5]); // type/flags and body length, patched below
    put_u64(out, meta.seq);
    put_u32(out, meta.stamp_ms);
    let ty = body(out);
    let len = out.len() - start - HEADER_BYTES;
    debug_assert!(len <= MAX_BODY_BYTES as usize, "oversized frame body");
    out[start + 3] = ty | if crc { FLAG_CRC } else { 0 };
    out[start + 4..start + 8].copy_from_slice(&(len as u32).to_le_bytes());
    if crc {
        let sum = crc32(&out[start..]);
        put_u32(out, sum);
    }
}

fn encode_body(frame: &Frame, out: &mut Vec<u8>) -> u8 {
    match frame {
        Frame::Hello { version } => {
            out.push(*version);
            T_HELLO
        }
        Frame::Client(msg) => encode_client_body(msg, out),
        Frame::Server(msg) => encode_server_body(msg, out),
    }
}

fn encode_client_body(msg: &ClientToGame, out: &mut Vec<u8>) -> u8 {
    match msg {
        ClientToGame::Join { pos, state_bytes } => {
            put_point(out, *pos);
            put_varint(out, *state_bytes);
            T_JOIN
        }
        ClientToGame::Move { pos } => {
            put_point(out, *pos);
            T_MOVE
        }
        ClientToGame::Action { pos, payload_bytes } => {
            put_point(out, *pos);
            put_varint(out, *payload_bytes as u64);
            T_ACTION
        }
        ClientToGame::Leave => T_LEAVE,
        ClientToGame::TraceAck {
            ring,
            latency_us,
            staleness_us,
        } => {
            out.push(*ring);
            put_varint(out, *latency_us);
            put_varint(out, *staleness_us);
            T_TRACE_ACK
        }
    }
}

fn encode_server_body(msg: &GameToClient, out: &mut Vec<u8>) -> u8 {
    match msg {
        GameToClient::Joined { server } => {
            put_varint(out, server.0 as u64);
            T_JOINED
        }
        GameToClient::Ack { seq } => {
            put_varint(out, *seq);
            T_ACK
        }
        GameToClient::Update {
            origin,
            payload_bytes,
        } => {
            put_point(out, *origin);
            put_varint(out, *payload_bytes as u64);
            T_UPDATE
        }
        GameToClient::UpdateBatch { updates } => {
            // The batch already is its body; a leading trace section
            // (only when some item is traced) sets `FLAG_TRACE`, so
            // untraced batches encode byte-identically to pre-trace
            // frames.
            out.extend_from_slice(updates.body());
            if updates.traced() {
                T_BATCH | FLAG_TRACE
            } else {
                T_BATCH
            }
        }
        GameToClient::SwitchServer { to } => {
            put_varint(out, to.0 as u64);
            T_SWITCH
        }
    }
}

// ---------------------------------------------------------------------------
// Batch bodies: written once, checked once, parsed once
// ---------------------------------------------------------------------------

/// An `UpdateBatch` in its wire form: the frame body exactly as
/// `docs/WIRE.md` lays it out — the trace section when an item is
/// traced, then the items — beside the item count and the offset where
/// the items start.
///
/// Only [`BatchWriter::finish`] and the decoder make one (besides
/// `Default`, the empty batch), and the decoder checks every item's
/// header and length first, so a parse of the body cannot fail on
/// structure. Equality is equality of the wire bytes.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WireBatch {
    body: Vec<u8>,
    len: u32,
    /// `0` without a trace section, else its length.
    items_at: u32,
}

impl WireBatch {
    /// The batch of `items`, in order, written as stage 5 writes one
    /// (tests and tools build batches this way).
    pub fn from_items(items: &[BatchItem]) -> WireBatch {
        let mut writer = BatchWriter::with_capacity(items.len());
        for item in items {
            writer.push_item(item);
        }
        writer.finish()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch holds no item.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frame body, byte for byte.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Whether the body opens with a trace section (the frame then
    /// carries `FLAG_TRACE`).
    pub(crate) fn traced(&self) -> bool {
        self.items_at > 0
    }

    /// The items in order, each rebuilt as a [`BatchItem`] with its trace
    /// tag: for tests and inspection. Receivers reconstruct with
    /// [`crate::reconstruct_updates`], which makes the same single pass.
    pub fn items(&self) -> BatchItems<'_> {
        let at = self.items_at as usize;
        BatchItems {
            items: &self.body[at..],
            traces: self.body.get(2..at).unwrap_or_default(),
            index: 0,
        }
    }

    /// Checks a received body: trace entries with strictly ascending
    /// in-range item indices, then items whose header bytes are ones an
    /// encoder writes and whose lengths those headers fix, up to the
    /// last byte. Keeps the body as it came.
    fn decode(body: &[u8], traced: bool) -> Result<WireBatch, CodecError> {
        let mut items_at = 0;
        let mut last_traced = None;
        if traced {
            let mut r = Reader::new(body);
            let n = r.u16("trace entry count")? as usize;
            if n * TRACE_ENTRY_BYTES > r.remaining() {
                return Err(CodecError::new("trace section exceeds frame size"));
            }
            for _ in 0..n {
                let index = r.u16("trace item index")?;
                r.take(TRACE_ENTRY_BYTES - 2, "trace entry")?;
                if last_traced.is_some_and(|last| index <= last) {
                    return Err(CodecError::new("trace entry indices not ascending"));
                }
                last_traced = Some(index);
            }
            items_at = r.pos;
        }
        let mut at = items_at;
        let mut len = 0u32;
        while at < body.len() {
            let n = item_len(body[at])?;
            if body.len() - at < n {
                return Err(CodecError::new("truncated batch item"));
            }
            at += n;
            len += 1;
        }
        if last_traced.is_some_and(|last| u32::from(last) >= len) {
            return Err(CodecError::new("trace entry index out of range"));
        }
        Ok(WireBatch {
            body: body.to_vec(),
            len,
            items_at: items_at as u32,
        })
    }
}

/// Prints the items as a list: `[BatchItem { .. }, ..]`.
impl std::fmt::Debug for WireBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.items()).finish()
    }
}

/// Writes one batch body item by item: stage 5 of the flush pushes each
/// kept item once, in its most compact admissible shape, and
/// [`finish`](BatchWriter::finish) puts the trace section in front.
#[derive(Debug, Default)]
pub struct BatchWriter {
    body: Vec<u8>,
    len: u32,
    /// Trace entries of the traced items so far, in item order.
    traces: Vec<u8>,
}

/// Room reserved per batch item: the largest canonical shape, a
/// keyframe with an i16 velocity pair. A batch of canonical items is
/// allocated exactly once; one whose items average more (wider classes)
/// or that carries a trace section can outgrow it and reallocate, which
/// is still correct.
const ITEM_RESERVE_BYTES: usize = UpdateItem::WIRE_BYTES + UpdateItem::VELOCITY_WIRE_BYTES;

impl BatchWriter {
    /// A writer with room for `items` items of any canonical shape.
    pub fn with_capacity(items: usize) -> BatchWriter {
        BatchWriter {
            body: Vec::with_capacity(items * ITEM_RESERVE_BYTES),
            ..BatchWriter::default()
        }
    }

    /// Appends one item and returns the bytes it took. The fields mean
    /// what they do on [`UpdateItem`], with the origin as the delta
    /// encoder emitted it.
    ///
    /// # Panics
    ///
    /// On a traced item at index [`MAX_BATCH_ITEMS`] or beyond, which a
    /// trace entry could not name.
    pub fn push(
        &mut self,
        origin: EncodedOrigin,
        payload_bytes: usize,
        entity: u64,
        ring: u8,
        (vx, vy): (f64, f64),
        trace: Option<TraceTag>,
    ) -> usize {
        let start = self.body.len();
        let out = &mut self.body;
        let shape = item_shape(origin, payload_bytes, entity, ring, (vx, vy));
        let h = shape.header;
        out.push(h);
        match h >> ITEM_SCALARS_SHIFT {
            SCALARS_U16_U8 => {
                put_u16(out, entity as u16);
                out.push(payload_bytes as u8);
            }
            SCALARS_U24_U16 => {
                put_u24(out, entity as u32);
                put_u16(out, payload_bytes as u16);
            }
            _ => {
                put_u64(out, entity);
                put_u64(out, payload_bytes as u64);
            }
        }
        match origin {
            EncodedOrigin::Absolute(p) => put_point(out, p),
            EncodedOrigin::Offset { dx, dy } => {
                put_pair(out, h & ITEM_CLASS_MASK, shape.offsets, dx, dy);
            }
        }
        let vel = (h >> ITEM_VEL_SHIFT) & ITEM_CLASS_MASK;
        if vel != 0 {
            put_pair(out, vel, shape.velocity, vx, vy);
        }
        if let Some(tag) = trace {
            assert!(
                (self.len as usize) < MAX_BATCH_ITEMS,
                "traced item {} is past the u16 trace index space",
                self.len
            );
            put_u16(&mut self.traces, self.len as u16);
            put_u32(&mut self.traces, tag.origin);
            put_u32(&mut self.traces, tag.seq);
            put_u64(&mut self.traces, tag.ingest_us);
            put_u64(&mut self.traces, tag.stale_us);
        }
        self.len += 1;
        self.body.len() - start
    }

    /// [`push`](BatchWriter::push) for an item spelled out as a
    /// [`BatchItem`] (tests and tools).
    pub fn push_item(&mut self, i: &BatchItem) -> usize {
        self.push(
            i.origin,
            i.payload_bytes,
            i.entity,
            i.ring,
            (i.vx, i.vy),
            i.trace,
        )
    }

    /// The finished batch: the trace section (entry count, then the
    /// entries) moved in front of the items when any item is traced.
    pub fn finish(self) -> WireBatch {
        let BatchWriter {
            mut body,
            len,
            traces,
        } = self;
        if traces.is_empty() {
            return WireBatch {
                body,
                len,
                items_at: 0,
            };
        }
        let (items, section) = (body.len(), 2 + traces.len());
        body.resize(items + section, 0);
        body.copy_within(..items, section);
        let entries = (traces.len() / TRACE_ENTRY_BYTES) as u16;
        body[..2].copy_from_slice(&entries.to_le_bytes());
        body[2..section].copy_from_slice(&traces);
        WireBatch {
            body,
            len,
            items_at: section as u32,
        }
    }
}

/// How one batch item goes on the wire: its header byte (the origin,
/// ring, velocity and scalar classes) and the lattice forms of its
/// offsets and velocity where their class has one. [`item_shape`] is the
/// only place these are decided, and [`BatchWriter::push`] writes what
/// it says.
struct ItemShape {
    header: u8,
    offsets: (i32, i32),
    velocity: (i32, i32),
}

/// The shape of an item: every field in the narrowest class that holds
/// its values exactly.
///
/// Encoder contract: `ring < MAX_RINGS` (4) — the header byte has two
/// ring bits, exactly matching the pipeline's ring cap.
fn item_shape(
    origin: EncodedOrigin,
    payload_bytes: usize,
    entity: u64,
    ring: u8,
    (vx, vy): (f64, f64),
) -> ItemShape {
    debug_assert!(ring < 4, "ring {ring} does not fit the item header");
    let scalars = if entity <= 0xFFFF && payload_bytes <= 0xFF {
        SCALARS_U16_U8
    } else if entity <= 0x00FF_FFFF && payload_bytes <= 0xFFFF {
        SCALARS_U24_U16
    } else {
        SCALARS_U64_U64
    };
    let (origin_class, offsets) = match origin {
        EncodedOrigin::Absolute(_) => (0, (0, 0)),
        EncodedOrigin::Offset { dx, dy } => pair_class(dx, dy),
    };
    // The rule of `UpdateItem::has_velocity`: zero is "none".
    let (vel_class, velocity) = if vx != 0.0 || vy != 0.0 {
        pair_class(vx, vy)
    } else {
        (0, (0, 0))
    };
    ItemShape {
        header: origin_class
            | (ring & ITEM_CLASS_MASK) << ITEM_RING_SHIFT
            | vel_class << ITEM_VEL_SHIFT
            | scalars << ITEM_SCALARS_SHIFT,
        offsets,
        velocity,
    }
}

/// An item's encoded length, fixed by its header byte alone; an error
/// for the reserved scalar class, the one header no encoder writes.
fn item_len(h: u8) -> Result<usize, CodecError> {
    let scalars = SCALAR_BYTES
        .get(usize::from(h >> ITEM_SCALARS_SHIFT))
        .ok_or_else(|| CodecError::new("reserved scalar class in a batch item header"))?;
    let origin = ORIGIN_BYTES[usize::from(h & ITEM_CLASS_MASK)];
    let vel = VELOCITY_BYTES[usize::from((h >> ITEM_VEL_SHIFT) & ITEM_CLASS_MASK)];
    Ok(1 + scalars + origin + vel)
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_u64(b))
}

/// A pair of `class` at the front of `b` as [`put_pair`] wrote it, and
/// its length.
#[inline(always)]
fn le_pair(b: &[u8], class: u8) -> ((f64, f64), usize) {
    match class {
        PAIR_I16 => {
            let i16 = |b: &[u8]| f64::from(i16::from_le_bytes([b[0], b[1]]));
            ((i16(b) / LATTICE, i16(&b[2..]) / LATTICE), 4)
        }
        PAIR_I24 => {
            let i24 = |b: &[u8]| ((u32::from_le_bytes([0, b[0], b[1], b[2]]) as i32) >> 8) as f64;
            ((i24(b) / LATTICE, i24(&b[3..]) / LATTICE), 6)
        }
        _ => ((le_f64(b), le_f64(&b[8..])), 16),
    }
}

/// The item at the front of a checked body (no trace tag), and its
/// length. Never fails: [`WireBatch::decode`] or [`BatchWriter`] already
/// vouched for the header and the length.
#[inline(always)]
fn parse_item(b: &[u8]) -> (BatchItem, usize) {
    let h = b[0];
    let (entity, payload_bytes, mut at) = match h >> ITEM_SCALARS_SHIFT {
        SCALARS_U16_U8 => (u64::from(le_u16(&b[1..])), usize::from(b[3]), 4),
        SCALARS_U24_U16 => (
            u64::from(u32::from_le_bytes([b[1], b[2], b[3], 0])),
            usize::from(le_u16(&b[4..])),
            6,
        ),
        _ => (le_u64(&b[1..]), le_u64(&b[9..]) as usize, 17),
    };
    let origin = match h & ITEM_CLASS_MASK {
        0 => {
            at += 16;
            EncodedOrigin::Absolute(Point::new(le_f64(&b[at - 16..]), le_f64(&b[at - 8..])))
        }
        class => {
            let ((dx, dy), n) = le_pair(&b[at..], class);
            at += n;
            EncodedOrigin::Offset { dx, dy }
        }
    };
    let (vx, vy) = match (h >> ITEM_VEL_SHIFT) & ITEM_CLASS_MASK {
        0 => (0.0, 0.0),
        class => {
            let (v, n) = le_pair(&b[at..], class);
            at += n;
            v
        }
    };
    let item = BatchItem {
        origin,
        payload_bytes,
        entity,
        ring: (h >> ITEM_RING_SHIFT) & ITEM_CLASS_MASK,
        vx,
        vy,
        trace: None,
    };
    (item, at)
}

/// The items of a [`WireBatch`] in order ([`WireBatch::items`]): one
/// pass over the item bytes with the trace entries merged in by index.
#[derive(Debug)]
pub struct BatchItems<'a> {
    items: &'a [u8],
    traces: &'a [u8],
    index: u32,
}

impl Iterator for BatchItems<'_> {
    type Item = BatchItem;

    #[inline]
    fn next(&mut self) -> Option<BatchItem> {
        if self.items.is_empty() {
            return None;
        }
        let (mut item, n) = parse_item(self.items);
        self.items = &self.items[n..];
        if self.traces.len() >= TRACE_ENTRY_BYTES && u32::from(le_u16(self.traces)) == self.index {
            let e = self.traces;
            item.trace = Some(TraceTag {
                origin: le_u32(&e[2..]),
                seq: le_u32(&e[6..]),
                ingest_us: le_u64(&e[10..]),
                stale_us: le_u64(&e[18..]),
            });
            self.traces = &e[TRACE_ENTRY_BYTES..];
        }
        self.index += 1;
        Some(item)
    }
}

// ---------------------------------------------------------------------------
// Frame decode
// ---------------------------------------------------------------------------

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns [`FrameStatus::Incomplete`] while `buf` is a valid prefix of
/// a frame (feed more bytes and retry).
///
/// # Errors
///
/// [`CodecError`] as soon as the buffer cannot be (a prefix of) a valid
/// frame: bad magic, unsupported version, unknown type or flags, an
/// oversized length prefix, a CRC mismatch, or a malformed body. The
/// decoder reads nothing past the declared frame end.
pub fn decode_frame(buf: &[u8]) -> Result<FrameStatus, CodecError> {
    for (i, &expect) in MAGIC.iter().enumerate() {
        match buf.get(i) {
            None => return Ok(FrameStatus::Incomplete),
            Some(&b) if b == expect => {}
            Some(&b) => {
                return Err(CodecError::new(format!(
                    "bad magic byte 0x{b:02X} at offset {i}"
                )))
            }
        }
    }
    match buf.get(2) {
        None => return Ok(FrameStatus::Incomplete),
        Some(&WIRE_VERSION) => {}
        Some(&v) => {
            return Err(CodecError::new(format!(
                "unsupported wire version {v} (expected {WIRE_VERSION})"
            )))
        }
    }
    let ty_flags = match buf.get(3) {
        None => return Ok(FrameStatus::Incomplete),
        Some(&b) => b,
    };
    if ty_flags & FLAG_RESERVED != 0 {
        return Err(CodecError::new("reserved frame flags set"));
    }
    let ty = ty_flags & TYPE_MASK;
    if ty > T_TRACE_ACK || RESERVED_TYPES.contains(&ty) {
        return Err(CodecError::new(format!("unknown frame type {ty}")));
    }
    let traced = ty_flags & FLAG_TRACE != 0;
    if traced && ty != T_BATCH {
        return Err(CodecError::new("trace flag on a non-batch frame"));
    }
    if buf.len() < 8 {
        return Ok(FrameStatus::Incomplete);
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if len > MAX_BODY_BYTES {
        return Err(CodecError::new(format!(
            "frame body of {len} bytes too large"
        )));
    }
    let has_crc = ty_flags & FLAG_CRC != 0;
    let total = HEADER_BYTES + len as usize + if has_crc { CRC_BYTES } else { 0 };
    if buf.len() < total {
        return Ok(FrameStatus::Incomplete);
    }
    let meta = FrameMeta {
        seq: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        stamp_ms: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
    };
    let body_end = HEADER_BYTES + len as usize;
    if has_crc {
        let declared = u32::from_le_bytes(buf[body_end..total].try_into().expect("4 bytes"));
        let actual = crc32(&buf[..body_end]);
        if declared != actual {
            return Err(CodecError::new(format!(
                "CRC mismatch: frame says {declared:#010X}, computed {actual:#010X}"
            )));
        }
    }
    let frame = decode_body(ty, traced, &buf[HEADER_BYTES..body_end])?;
    Ok(FrameStatus::Complete {
        frame,
        meta,
        consumed: total,
    })
}

fn decode_body(ty: u8, traced: bool, body: &[u8]) -> Result<Frame, CodecError> {
    let mut r = Reader::new(body);
    let frame = match ty {
        T_HELLO => Frame::Hello {
            version: r.u8("hello version")?,
        },
        T_JOIN => Frame::Client(ClientToGame::Join {
            pos: r.finite_point("join position")?,
            state_bytes: r.varint("join state size")?,
        }),
        T_MOVE => Frame::Client(ClientToGame::Move {
            pos: r.finite_point("move position")?,
        }),
        T_ACTION => Frame::Client(ClientToGame::Action {
            pos: r.finite_point("action position")?,
            payload_bytes: r.varint("action payload size")? as usize,
        }),
        T_LEAVE => Frame::Client(ClientToGame::Leave),
        T_TRACE_ACK => Frame::Client(ClientToGame::TraceAck {
            ring: r.u8("trace-ack ring")?,
            latency_us: r.varint("trace-ack latency")?,
            staleness_us: r.varint("trace-ack staleness")?,
        }),
        T_JOINED => Frame::Server(GameToClient::Joined {
            server: ServerId(r.varu32("joined server id")?),
        }),
        T_ACK => Frame::Server(GameToClient::Ack {
            seq: r.varint("ack sequence")?,
        }),
        T_UPDATE => Frame::Server(GameToClient::Update {
            origin: r.point("update origin")?,
            payload_bytes: r.varint("update payload size")? as usize,
        }),
        T_BATCH => {
            return Ok(Frame::Server(GameToClient::UpdateBatch {
                updates: WireBatch::decode(body, traced)?,
            }))
        }
        T_SWITCH => Frame::Server(GameToClient::SwitchServer {
            to: ServerId(r.varu32("switch server id")?),
        }),
        _ => unreachable!("type range checked by decode_frame"),
    };
    let what = frame_name(ty);
    r.finish(what)?;
    Ok(frame)
}

fn frame_name(ty: u8) -> &'static str {
    match ty {
        T_HELLO => "hello",
        T_JOIN => "join",
        T_MOVE => "move",
        T_ACTION => "action",
        T_LEAVE => "leave",
        T_JOINED => "joined",
        T_ACK => "ack",
        T_UPDATE => "update",
        T_BATCH => "batch",
        T_SWITCH => "switch",
        T_TRACE_ACK => "trace-ack",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// Frame lengths (accounting without encoding)
// ---------------------------------------------------------------------------

/// Fixed per-frame overhead: header plus the CRC trailer when on. A
/// batch frame is this plus its [`WireBatch::body`].
pub fn frame_overhead(crc: bool) -> usize {
    HEADER_BYTES + if crc { CRC_BYTES } else { 0 }
}

// ---------------------------------------------------------------------------
// Stream accumulator
// ---------------------------------------------------------------------------

/// Reassembles frames from an arbitrary byte stream, resynchronizing
/// at the next magic boundary after a corrupt frame.
///
/// Push received chunks with [`push`](FrameAccumulator::push), then
/// drain frames with [`next`](FrameAccumulator::next): `None` means
/// "need more bytes", `Some(Err(_))` reports one corrupt region (the
/// stream skips forward to the next plausible frame start and keeps
/// going — a magic pair *inside* the corrupt region may yield further
/// errors before a genuine boundary is reached, but a well-formed
/// frame behind the corruption is always recovered).
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Read offset: `buf[..head]` is consumed. Frames are taken by
    /// advancing it — a chunk carrying many frames is not shifted once
    /// per frame — and the consumed prefix is dropped on the next
    /// [`push`](FrameAccumulator::push).
    head: usize,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Attempts to decode the next frame.
    ///
    /// # Errors
    ///
    /// Forwards the [`CodecError`] of a corrupt frame after discarding
    /// bytes up to the next magic boundary; calling again continues
    /// with the remainder of the stream.
    #[allow(clippy::should_implement_trait)] // streaming pop, not iteration
    pub fn next(&mut self) -> Option<Result<(Frame, FrameMeta), CodecError>> {
        let pending = &self.buf[self.head..];
        if pending.is_empty() {
            return None;
        }
        match decode_frame(pending) {
            Ok(FrameStatus::Incomplete) => None,
            Ok(FrameStatus::Complete {
                frame,
                meta,
                consumed,
            }) => {
                self.head += consumed;
                Some(Ok((frame, meta)))
            }
            Err(e) => {
                self.resync();
                Some(Err(e))
            }
        }
    }

    /// Discards bytes up to the next occurrence of the magic pair at
    /// offset ≥ 1 (or everything, when none is buffered).
    fn resync(&mut self) {
        let pending = &self.buf[self.head..];
        let next = pending[1..]
            .windows(2)
            .position(|w| w == MAGIC)
            .map(|i| i + 1);
        self.head += next.unwrap_or_else(|| {
            // Keep a trailing lone 0xD7: it may be the first byte of a
            // magic pair split across chunks.
            pending.len() - usize::from(pending.last() == Some(&MAGIC[0]))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        for crc in [true, false] {
            let meta = FrameMeta {
                seq: 99,
                stamp_ms: 123_456,
            };
            let bytes = encode_frame(&frame, meta, crc);
            match decode_frame(&bytes).expect("decode") {
                FrameStatus::Complete {
                    frame: got,
                    meta: got_meta,
                    consumed,
                } => {
                    assert_eq!(got, frame);
                    assert_eq!(got_meta, meta);
                    assert_eq!(consumed, bytes.len());
                }
                FrameStatus::Incomplete => panic!("whole frame reported incomplete"),
            }
        }
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Hello { version: 2 });
        round_trip(Frame::Client(ClientToGame::Join {
            pos: Point::new(1.5, -2.25),
            state_bytes: 4096,
        }));
        round_trip(Frame::Client(ClientToGame::Move {
            pos: Point::new(0.0, 777.125),
        }));
        round_trip(Frame::Client(ClientToGame::Action {
            pos: Point::new(-3.0, 4.0),
            payload_bytes: 90,
        }));
        round_trip(Frame::Client(ClientToGame::Leave));
        round_trip(Frame::Server(GameToClient::Joined {
            server: ServerId(7),
        }));
        round_trip(Frame::Server(GameToClient::Ack { seq: u64::MAX }));
        round_trip(Frame::Server(GameToClient::Update {
            origin: Point::new(8.0, 9.0),
            payload_bytes: 1_000_000,
        }));
        round_trip(Frame::Server(GameToClient::SwitchServer {
            to: ServerId(u32::MAX),
        }));
    }

    #[test]
    fn reserved_frame_types_are_rejected() {
        // Well-formed bodies of the frames these codes once carried (an
        // empty replica batch at snapshot version 2, a replica ack, a
        // stats query, an empty stats reply, a bare load report), so the
        // type code is the only thing on trial.
        let bodies: [(u8, &[u8]); 5] = [
            (10, &[2, 4, 1, 0]),
            (11, &[42, 1]),
            (12, &[1, 0]),
            (13, &[1, 0]),
            (14, &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (ty, body) in bodies {
            for crc in [true, false] {
                let mut bytes = Vec::new();
                frame_into(&mut bytes, FrameMeta::default(), crc, |out| {
                    out.extend_from_slice(body);
                    ty
                });
                let err = decode_frame(&bytes).expect_err("reserved type must be rejected");
                assert!(
                    err.to_string()
                        .contains(&format!("unknown frame type {ty}")),
                    "type {ty}: {err}"
                );
            }
        }
    }

    #[test]
    fn lattice_check_agrees_with_the_fract_rule() {
        // The rule as first written: integral after scaling, and in range.
        let reference = |v: f64| {
            let s = v * LATTICE;
            (s.fract() == 0.0 && s.abs() <= I24_MAX as f64).then_some(s as i32)
        };
        let max = I24_MAX as f64 / LATTICE;
        let edges = [
            0.0,
            -0.0,
            1.0 / LATTICE,
            0.5 / LATTICE,
            0.1,
            max,
            -max,
            max + 1.0 / LATTICE,
            -max - 2.0 / LATTICE,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let randoms = (0..20_000).map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 3.0 * max;
            // Every other value snapped onto the lattice.
            if i % 2 == 0 {
                (v * LATTICE).round() / LATTICE
            } else {
                v
            }
        });
        for v in edges.into_iter().chain(randoms) {
            assert_eq!(lattice_i24(v), reference(v), "{v:e}");
        }
    }

    #[test]
    fn non_finite_client_positions_are_rejected() {
        let kinds: [fn(Point) -> ClientToGame; 3] = [
            |pos| ClientToGame::Join {
                pos,
                state_bytes: 64,
            },
            |pos| ClientToGame::Move { pos },
            |pos| ClientToGame::Action {
                pos,
                payload_bytes: 90,
            },
        ];
        for kind in kinds {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for pos in [Point::new(bad, 2.0), Point::new(1.0, bad)] {
                    let bytes = encode_frame(&Frame::Client(kind(pos)), FrameMeta::default(), true);
                    let err = decode_frame(&bytes).expect_err("non-finite position must fail");
                    assert!(err.reason.contains("non-finite"), "{pos:?}: {err}");
                }
            }
            round_trip(Frame::Client(kind(Point::new(-1.0e9, 0.125))));
        }
    }

    #[test]
    fn batch_items_hit_the_documented_constants() {
        let abs = BatchItem {
            origin: EncodedOrigin::Absolute(Point::new(10.0, 20.0)),
            payload_bytes: 64,
            entity: 9,
            ring: 1,
            vx: 0.0,
            vy: 0.0,
            trace: None,
        };
        let delta = BatchItem {
            origin: EncodedOrigin::Offset { dx: 0.5, dy: -0.25 },
            payload_bytes: 32,
            ring: 0,
            vx: 1.5,
            vy: -2.0,
            ..abs
        };
        let mut writer = BatchWriter::with_capacity(2);
        let pushed = [writer.push_item(&abs), writer.push_item(&delta)];
        assert_eq!(
            pushed,
            [
                UpdateItem::WIRE_BYTES,
                BatchItem::DELTA_WIRE_BYTES + UpdateItem::VELOCITY_WIRE_BYTES
            ]
        );
        let updates = writer.finish();
        assert_eq!(updates, WireBatch::from_items(&[abs, delta]));
        assert_eq!(updates.items().collect::<Vec<_>>(), [abs, delta]);
        let frame = Frame::Server(GameToClient::UpdateBatch { updates });
        let bytes = encode_frame(&frame, FrameMeta::default(), true);
        assert_eq!(
            bytes.len(),
            frame_overhead(true) + pushed.iter().sum::<usize>(),
            "the bytes written are the frame body"
        );
        round_trip(frame);
    }

    #[test]
    fn wide_escapes_round_trip() {
        // Entity beyond u24, payload beyond u16, off-lattice delta and
        // velocity: every wide bit at once.
        let item = BatchItem {
            // 0.1 is not a 1/256 multiple
            origin: EncodedOrigin::Offset {
                dx: 0.1,
                dy: 9000.0,
            },
            payload_bytes: 100_000,
            entity: u64::MAX,
            ring: 3,
            vx: 0.3,
            vy: 0.0,
            trace: None,
        };
        let mut writer = BatchWriter::default();
        assert_eq!(writer.push_item(&item), 1 + 8 + 8 + 16 + 16);
        let updates = writer.finish();
        assert_eq!(updates.items().collect::<Vec<_>>(), [item]);
        round_trip(Frame::Server(GameToClient::UpdateBatch { updates }));
    }

    #[test]
    fn trace_entries_must_name_ascending_items() {
        // Stage 5 writes one entry per traced item, in item order; a
        // repeated or out-of-order index is a shape no encoder writes.
        let tag = |seq| TraceTag::new(1, seq, 500);
        let item = |seq| BatchItem {
            origin: EncodedOrigin::Absolute(Point::new(1.0, 2.0)),
            payload_bytes: 8,
            entity: 3,
            ring: 0,
            vx: 0.0,
            vy: 0.0,
            trace: Some(tag(seq)),
        };
        let frame = Frame::Server(GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&[item(7), item(8)]),
        });
        round_trip(frame.clone());
        let good = encode_frame(&frame, FrameMeta::default(), false);
        // Entry k's index sits at body offset 2 + k × TRACE_ENTRY_BYTES.
        let second = HEADER_BYTES + 2 + TRACE_ENTRY_BYTES;
        for (index, why) in [(0u16, "not ascending"), (2, "out of range")] {
            let mut bad = good.clone();
            bad[second..second + 2].copy_from_slice(&index.to_le_bytes());
            let err = decode_frame(&bad).expect_err("rejected");
            assert!(err.reason.contains(why), "index {index}: {err}");
        }
        // Swapping the two entries wholesale is out of order too.
        let mut swapped = good.clone();
        let first = HEADER_BYTES + 2;
        let (a, b) = swapped[first..second + TRACE_ENTRY_BYTES].split_at_mut(TRACE_ENTRY_BYTES);
        a.swap_with_slice(b);
        let err = decode_frame(&swapped).expect_err("rejected");
        assert!(err.reason.contains("not ascending"), "{err}");
    }

    #[test]
    fn crc_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the CRC-32 check value");
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn word_wide_crc_equals_the_bytewise_reference() {
        // Every length 0..=80 at every start offset 0..8: the head, whole
        // eight-byte steps and every tail length, at every alignment.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=80 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc_rejects_corruption() {
        let frame = Frame::Client(ClientToGame::Move {
            pos: Point::new(5.0, 6.0),
        });
        let mut bytes = encode_frame(&frame, FrameMeta::default(), true);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_frame(&bytes).is_err(), "flipped CRC must fail");
    }

    #[test]
    fn accumulator_resyncs_after_corruption() {
        let a = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 1 }),
            FrameMeta::default(),
            true,
        );
        let mut b = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 2 }),
            FrameMeta::default(),
            true,
        );
        let c = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 3 }),
            FrameMeta::default(),
            true,
        );
        b[HEADER_BYTES] ^= 0xFF; // corrupt B's body; its CRC now fails
        let mut acc = FrameAccumulator::new();
        acc.push(&a);
        acc.push(&b);
        acc.push(&c);
        let mut frames = Vec::new();
        let mut errors = 0;
        while let Some(item) = acc.next() {
            match item {
                Ok((frame, _)) => frames.push(frame),
                Err(_) => errors += 1,
            }
        }
        assert_eq!(
            frames,
            vec![
                Frame::Server(GameToClient::Ack { seq: 1 }),
                Frame::Server(GameToClient::Ack { seq: 3 }),
            ],
            "the stream must recover at the next magic boundary"
        );
        assert!(errors >= 1, "the corrupt frame must surface as an error");
        assert_eq!(acc.pending_bytes(), 0);
    }

    #[test]
    fn trace_flag_is_rejected_on_non_batch_frames() {
        // Only `T_BATCH` carries a trace section; the flag on any other
        // type means a corrupt or hostile stream, and the decoder must
        // refuse before trying to read a section that is not there.
        let frames = [
            Frame::Hello { version: 2 },
            Frame::Client(ClientToGame::Move {
                pos: Point::new(5.0, 6.0),
            }),
            Frame::Client(ClientToGame::TraceAck {
                ring: 0,
                latency_us: 10,
                staleness_us: 20,
            }),
            Frame::Server(GameToClient::Ack { seq: 9 }),
        ];
        for frame in frames {
            // No CRC, so the flipped flag is the only defect on trial.
            let mut bytes = encode_frame(&frame, FrameMeta::default(), false);
            assert_eq!(bytes[3] & FLAG_TRACE, 0, "{frame:?} must encode untraced");
            bytes[3] |= FLAG_TRACE;
            let err = decode_frame(&bytes).expect_err("trace flag must be rejected");
            assert!(
                err.to_string().contains("non-batch"),
                "unexpected error for {frame:?}: {err}"
            );
        }
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let bytes = encode_frame(
            &Frame::Client(ClientToGame::Join {
                pos: Point::new(1.0, 2.0),
                state_bytes: 64,
            }),
            FrameMeta::default(),
            true,
        );
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]).expect("prefix must stay decodable"),
                FrameStatus::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }
}
