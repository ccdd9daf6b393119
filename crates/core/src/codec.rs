//! Hand-written JSON-lines codec for the client-facing protocol.
//!
//! The TCP gateway frames [`ClientToGame`] / [`GameToClient`] as one JSON
//! object per line. The codec is written by hand (rather than through a
//! serde backend) so the workspace builds fully offline; the format is
//! ordinary JSON, so any client language can speak it.
//!
//! Wire shapes:
//!
//! ```text
//! client → game   {"t":"join","x":1.0,"y":2.0,"state":64}
//!                 {"t":"move","x":1.0,"y":2.0}
//!                 {"t":"action","x":1.0,"y":2.0,"bytes":90}
//!                 {"t":"leave"}
//!                 {"t":"trace-ack","ring":0,"lat":1500,"stale":2500}
//! game → client   {"t":"joined","server":3}
//!                 {"t":"ack","seq":17}
//!                 {"t":"update","x":1.0,"y":2.0,"bytes":90}
//!                 {"t":"batch","updates":[[1.0,2.0,90,7],["d",0.5,-0.25,32,7]]}
//!                 {"t":"switch","to":4}
//! ```
//!
//! Batch items come in two shapes: an absolute keyframe
//! `[x, y, bytes, entity?, ring?, vx?, vy?]` and a delta
//! `["d", dx, dy, bytes, entity?, ring?, vx?, vy?]` whose origin is the
//! previous item's reconstructed origin offset by `(dx, dy)` (the first
//! item of a batch chains off the last origin of the previous batch;
//! see [`reconstruct_updates`](crate::reconstruct_updates)). The
//! trailing source-entity and vision-ring tags are omitted when zero
//! (anonymous item / near ring) and tolerated as absent on decode, so
//! pre-entity and pre-ring frames still parse; a non-zero ring forces
//! the entity tag to be present as its positional placeholder. The
//! dead-reckoning velocity `vx, vy` (world units/second) travels as a
//! trailing *pair* — both present or both absent — and forces the
//! entity and ring placeholders; a zero velocity is omitted, keeping
//! prediction-off frames byte-identical to pre-prediction ones.
//!
//! Sampled causal traces ride a batch as a separate optional `"tr"`
//! field — `[[item_index, origin, seq, ingest_us, stale_us], …]`, one
//! entry per traced item — so the item arrays themselves never change
//! shape and untraced batches stay byte-identical to pre-trace frames.
//! The client echoes a traced item's measured latency back as the
//! `trace-ack` frame above.
//!
//! The replication layer adds three frames, all carrying an explicit
//! format version (`"v"`) so incompatible peers fail loudly instead of
//! mis-decoding state they are about to adopt a region from:
//!
//! The telemetry plane adds a versioned stats query/reply pair spoken on
//! the runtime's stats endpoint (legacy frames above are untouched):
//!
//! ```text
//! stats query     {"t":"stats","v":1,"fmt":"json"}        ("json" | "prom")
//! stats reply     {"t":"stats-reply","v":1,"nodes":[[3,{"counters":[["joins",5]],
//!                  "hists":[["flush_us",10,123.5,1.0,50.0,[[96,3],[97,7]]]],
//!                  "dropped":0,"seen":7}]]}
//! ```
//!
//! ```text
//! region snapshot {"t":"snapshot","v":1,"seq":9,"ready":true,
//!                  "range":[0.0,0.0,400.0,400.0],"radius":50.0,
//!                  "flushed_us":120000,
//!                  "clients":[[7,1.0,2.0,64]],
//!                  "streams":[[7,1.0,2.0,3]],
//!                  "pending":[[7,[[1.0,2.0,32,9]]]],
//!                  "bases":[[7,[[9,1.0,2.0,12.5,-3.0,4.2]]]]}   (optional)
//! replica batch   {"t":"replica","v":1,"seq":4,"snapshot":{...}}
//!                 {"t":"replica","v":1,"seq":5,"ops":[["j",7,1.0,2.0,64],
//!                  ["m",7,1.5,2.0],["l",7],["r",0.0,0.0,400.0,400.0,50.0]]}
//! replica ack     {"t":"replica-ack","v":1,"seq":5,"resync":false}
//! ```
//!
//! Floats are emitted with Rust's shortest round-trip formatting, so
//! decode(encode(m)) == m exactly.

use crate::messages::{
    BatchItem, ClientToGame, DeltaItem, GameToClient, LoadReport, RegionSnapshot, ReplicaBatch,
    ReplicaOp, UpdateItem,
};
use crate::packet::ClientId;
use matrix_geometry::{Point, Rect, ServerId};
use matrix_replication::{
    PendingUpdate, PredictBasis, ReplicaPayload, SessionState, StreamBase, TunerState,
};
use matrix_sim::SimTime;
use matrix_telemetry::{HistSnapshot, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A malformed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError {
    /// What went wrong, for diagnostics.
    pub reason: String,
}

impl CodecError {
    pub(crate) fn new(reason: impl Into<String>) -> CodecError {
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

// ---------------------------------------------------------------------------
// Minimal JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset the protocol uses).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn err(&self, what: &str) -> CodecError {
        CodecError::new(format!("{what} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), CodecError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, CodecError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, CodecError> {
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(
                self.bytes[self.at],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("non-utf8 number"))?;
        let value = text.parse::<f64>().map_err(|_| self.err("bad number"))?;
        // JSON has no Inf/NaN; `"1e999".parse::<f64>()` yields infinity,
        // which would round-trip into frames no JSON parser accepts —
        // reject it at the boundary instead of poisoning later encodes.
        if !value.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Value::Num(value))
    }

    fn string(&mut self) -> Result<String, CodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let tail = &self.bytes[self.at - 1..];
                    let text = std::str::from_utf8(tail).map_err(|_| self.err("non-utf8"))?;
                    let ch = text.chars().next().ok_or_else(|| self.err("empty char"))?;
                    out.push(ch);
                    self.at += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, CodecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, CodecError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse(text: &str) -> Result<BTreeMap<String, Value>, CodecError> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    match v {
        Value::Obj(map) => Ok(map),
        _ => Err(CodecError::new("frame must be a JSON object")),
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn field<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, CodecError> {
    obj.get(key)
        .ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

fn num(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, CodecError> {
    field(obj, key)?
        .as_num()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a number")))
}

fn uint(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, CodecError> {
    let n = num(obj, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(CodecError::new(format!(
            "field '{key}' must be a non-negative integer"
        )));
    }
    Ok(n as u64)
}

fn point(obj: &BTreeMap<String, Value>) -> Result<Point, CodecError> {
    Ok(Point::new(num(obj, "x")?, num(obj, "y")?))
}

fn push_f64(out: &mut String, v: f64) {
    // An integral value needs no fraction marker in JSON: `84` parses
    // back to the same f64 as `84.0`, two bytes shorter — and snapped
    // wire values (origin/velocity lattices) are integral often enough
    // for this to matter on the hot batch path. `{:.0}` keeps the sign
    // of `-0.0` so even that round-trips. Everything else takes `{:?}`,
    // the shortest representation that round-trips.
    if v.is_finite() && v.fract() == 0.0 {
        let _ = write!(out, "{v:.0}");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

/// Encodes a client→server message as a single JSON line (no newline).
pub fn encode_client_to_game(msg: &ClientToGame) -> String {
    let mut s = String::with_capacity(64);
    match msg {
        ClientToGame::Join { pos, state_bytes } => {
            s.push_str("{\"t\":\"join\",\"x\":");
            push_f64(&mut s, pos.x);
            s.push_str(",\"y\":");
            push_f64(&mut s, pos.y);
            let _ = write!(s, ",\"state\":{state_bytes}}}");
        }
        ClientToGame::Move { pos } => {
            s.push_str("{\"t\":\"move\",\"x\":");
            push_f64(&mut s, pos.x);
            s.push_str(",\"y\":");
            push_f64(&mut s, pos.y);
            s.push('}');
        }
        ClientToGame::Action { pos, payload_bytes } => {
            s.push_str("{\"t\":\"action\",\"x\":");
            push_f64(&mut s, pos.x);
            s.push_str(",\"y\":");
            push_f64(&mut s, pos.y);
            let _ = write!(s, ",\"bytes\":{payload_bytes}}}");
        }
        ClientToGame::Leave => s.push_str("{\"t\":\"leave\"}"),
        ClientToGame::TraceAck {
            ring,
            latency_us,
            staleness_us,
        } => {
            let _ = write!(
                s,
                "{{\"t\":\"trace-ack\",\"ring\":{ring},\"lat\":{latency_us},\"stale\":{staleness_us}}}"
            );
        }
    }
    s
}

/// Decodes one client→server JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is not valid JSON or not a known message.
pub fn decode_client_to_game(line: &str) -> Result<ClientToGame, CodecError> {
    let obj = parse(line)?;
    let tag = match field(&obj, "t")? {
        Value::Str(t) => t.as_str(),
        _ => return Err(CodecError::new("field 't' must be a string")),
    };
    match tag {
        "join" => Ok(ClientToGame::Join {
            pos: point(&obj)?,
            state_bytes: uint(&obj, "state")?,
        }),
        "move" => Ok(ClientToGame::Move { pos: point(&obj)? }),
        "action" => Ok(ClientToGame::Action {
            pos: point(&obj)?,
            payload_bytes: uint(&obj, "bytes")? as usize,
        }),
        "leave" => Ok(ClientToGame::Leave),
        "trace-ack" => Ok(ClientToGame::TraceAck {
            ring: uint(&obj, "ring")? as u8,
            latency_us: uint(&obj, "lat")?,
            staleness_us: uint(&obj, "stale")?,
        }),
        other => Err(CodecError::new(format!("unknown client message '{other}'"))),
    }
}

/// Encodes a server→client message as a single JSON line (no newline).
pub fn encode_game_to_client(msg: &GameToClient) -> String {
    let mut s = String::with_capacity(64);
    match msg {
        GameToClient::Joined { server } => {
            let _ = write!(s, "{{\"t\":\"joined\",\"server\":{}}}", server.0);
        }
        GameToClient::Ack { seq } => {
            let _ = write!(s, "{{\"t\":\"ack\",\"seq\":{seq}}}");
        }
        GameToClient::Update {
            origin,
            payload_bytes,
        } => {
            s.push_str("{\"t\":\"update\",\"x\":");
            push_f64(&mut s, origin.x);
            s.push_str(",\"y\":");
            push_f64(&mut s, origin.y);
            let _ = write!(s, ",\"bytes\":{payload_bytes}}}");
        }
        GameToClient::UpdateBatch { updates } => push_update_batch(&mut s, updates),
        GameToClient::SwitchServer { to } => {
            let _ = write!(s, "{{\"t\":\"switch\",\"to\":{}}}", to.0);
        }
    }
    s
}

/// Appends the `batch` line of `updates` (no newline) to `s`.
fn push_update_batch(s: &mut String, updates: &[BatchItem]) {
    s.push_str("{\"t\":\"batch\",\"updates\":[");
    for (i, item) in updates.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match item {
            BatchItem::Absolute(u) => {
                let vel = u.has_velocity();
                s.push('[');
                push_f64(s, u.origin.x);
                s.push(',');
                push_f64(s, u.origin.y);
                let _ = write!(s, ",{}", u.payload_bytes);
                if u.entity != 0 || u.ring != 0 || vel {
                    let _ = write!(s, ",{}", u.entity);
                }
                if u.ring != 0 || vel {
                    let _ = write!(s, ",{}", u.ring);
                }
                if vel {
                    s.push(',');
                    push_f64(s, u.vx);
                    s.push(',');
                    push_f64(s, u.vy);
                }
                s.push(']');
            }
            BatchItem::Delta(d) => {
                let vel = d.has_velocity();
                s.push_str("[\"d\",");
                push_f64(s, d.dx);
                s.push(',');
                push_f64(s, d.dy);
                let _ = write!(s, ",{}", d.payload_bytes);
                if d.entity != 0 || d.ring != 0 || vel {
                    let _ = write!(s, ",{}", d.entity);
                }
                if d.ring != 0 || vel {
                    let _ = write!(s, ",{}", d.ring);
                }
                if vel {
                    s.push(',');
                    push_f64(s, d.vx);
                    s.push(',');
                    push_f64(s, d.vy);
                }
                s.push(']');
            }
        }
    }
    s.push(']');
    // Sampled causal traces, keyed by item index so the item
    // arrays stay untouched (untraced batches are byte-identical
    // to pre-trace frames).
    if updates.iter().any(|u| u.trace().is_some()) {
        s.push_str(",\"tr\":[");
        let mut first = true;
        for (i, item) in updates.iter().enumerate() {
            if let Some(tag) = item.trace() {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "[{i},{},{},{},{}]",
                    tag.origin, tag.seq, tag.ingest_us, tag.stale_us
                );
            }
        }
        s.push(']');
    }
    s.push('}');
}

/// Wire length of the `batch` line carrying `updates`, newline
/// terminator included — what byte accounting charges a JSON client for
/// one flush. JSON has no arithmetic mirror of its encoder (shortest
/// round-trip floats), so this encodes the line; it borrows the items,
/// leaving them to the caller to ship.
pub fn update_batch_line_len(updates: &[BatchItem]) -> usize {
    let mut line = String::with_capacity(32 * updates.len() + 32);
    push_update_batch(&mut line, updates);
    line.len() + 1
}

/// Decodes one server→client JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is not valid JSON or not a known message.
pub fn decode_game_to_client(line: &str) -> Result<GameToClient, CodecError> {
    let obj = parse(line)?;
    let tag = match field(&obj, "t")? {
        Value::Str(t) => t.as_str(),
        _ => return Err(CodecError::new("field 't' must be a string")),
    };
    match tag {
        "joined" => Ok(GameToClient::Joined {
            server: ServerId(uint(&obj, "server")? as u32),
        }),
        "ack" => Ok(GameToClient::Ack {
            seq: uint(&obj, "seq")?,
        }),
        "update" => Ok(GameToClient::Update {
            origin: point(&obj)?,
            payload_bytes: uint(&obj, "bytes")? as usize,
        }),
        "batch" => {
            let items = match field(&obj, "updates")? {
                Value::Arr(items) => items,
                _ => return Err(CodecError::new("field 'updates' must be an array")),
            };
            let mut updates = Vec::with_capacity(items.len());
            for item in items {
                let Value::Arr(fields) = item else {
                    return Err(CodecError::new(
                        "batch item must be [x, y, bytes] or [\"d\", dx, dy, bytes]",
                    ));
                };
                let num_at = |i: usize| {
                    fields
                        .get(i)
                        .and_then(Value::as_num)
                        .ok_or_else(|| CodecError::new("batch item fields must be numbers"))
                };
                match fields.first() {
                    Some(Value::Str(tag)) if tag == "d" => {
                        // 4–6 elements, or 8 with the trailing velocity
                        // pair (7 would be a dangling vx).
                        if !(4..=6).contains(&fields.len()) && fields.len() != 8 {
                            return Err(CodecError::new(
                                "delta batch item must have 4 to 6 or 8 elements",
                            ));
                        }
                        let entity = if fields.len() >= 5 {
                            num_at(4)? as u64
                        } else {
                            0
                        };
                        let ring = if fields.len() >= 6 {
                            num_at(5)? as u8
                        } else {
                            0
                        };
                        let (vx, vy) = if fields.len() == 8 {
                            (num_at(6)?, num_at(7)?)
                        } else {
                            (0.0, 0.0)
                        };
                        updates.push(BatchItem::Delta(DeltaItem {
                            dx: num_at(1)?,
                            dy: num_at(2)?,
                            payload_bytes: num_at(3)? as usize,
                            entity,
                            ring,
                            vx,
                            vy,
                            trace: None,
                        }));
                    }
                    Some(Value::Str(_)) => {
                        return Err(CodecError::new("unknown batch item tag"));
                    }
                    _ => {
                        // 3–5 elements, or 7 with the trailing velocity
                        // pair (6 would be a dangling vx).
                        if !(3..=5).contains(&fields.len()) && fields.len() != 7 {
                            return Err(CodecError::new(
                                "absolute batch item must have 3 to 5 or 7 elements",
                            ));
                        }
                        let entity = if fields.len() >= 4 {
                            num_at(3)? as u64
                        } else {
                            0
                        };
                        let ring = if fields.len() >= 5 {
                            num_at(4)? as u8
                        } else {
                            0
                        };
                        let (vx, vy) = if fields.len() == 7 {
                            (num_at(5)?, num_at(6)?)
                        } else {
                            (0.0, 0.0)
                        };
                        updates.push(BatchItem::Absolute(UpdateItem {
                            origin: Point::new(num_at(0)?, num_at(1)?),
                            payload_bytes: num_at(2)? as usize,
                            entity,
                            ring,
                            vx,
                            vy,
                            trace: None,
                        }));
                    }
                }
            }
            // Optional sampled trace tags, keyed by item index.
            if let Some(value) = obj.get("tr") {
                let Value::Arr(entries) = value else {
                    return Err(CodecError::new("field 'tr' must be an array"));
                };
                for entry in entries {
                    let Value::Arr(fields) = entry else {
                        return Err(CodecError::new("trace entry must be an array"));
                    };
                    let f = nums(fields, "trace entry")?;
                    if f.len() != 5 {
                        return Err(CodecError::new(
                            "trace entry must be [index, origin, seq, ingest_us, stale_us]",
                        ));
                    }
                    let idx = f[0] as usize;
                    let tag = matrix_telemetry::TraceTag {
                        origin: f[1] as u32,
                        seq: f[2] as u32,
                        ingest_us: f[3] as u64,
                        stale_us: f[4] as u64,
                    };
                    match updates.get_mut(idx) {
                        Some(BatchItem::Absolute(u)) => u.trace = Some(tag),
                        Some(BatchItem::Delta(d)) => d.trace = Some(tag),
                        None => {
                            return Err(CodecError::new("trace entry index out of range"));
                        }
                    }
                }
            }
            Ok(GameToClient::UpdateBatch { updates })
        }
        "switch" => Ok(GameToClient::SwitchServer {
            to: ServerId(uint(&obj, "to")? as u32),
        }),
        other => Err(CodecError::new(format!("unknown server message '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Replication frames (versioned)
// ---------------------------------------------------------------------------

fn bool_field(obj: &BTreeMap<String, Value>, key: &str) -> Result<bool, CodecError> {
    match field(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(CodecError::new(format!("field '{key}' must be a boolean"))),
    }
}

fn arr_field<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v [Value], CodecError> {
    match field(obj, key)? {
        Value::Arr(items) => Ok(items),
        _ => Err(CodecError::new(format!("field '{key}' must be an array"))),
    }
}

fn check_version(obj: &BTreeMap<String, Value>) -> Result<(), CodecError> {
    let v = uint(obj, "v")? as u32;
    if v != RegionSnapshot::VERSION {
        return Err(CodecError::new(format!(
            "unsupported replication format version {v} (expected {})",
            RegionSnapshot::VERSION
        )));
    }
    Ok(())
}

fn nums(fields: &[Value], what: &str) -> Result<Vec<f64>, CodecError> {
    fields
        .iter()
        .map(|v| {
            v.as_num()
                .ok_or_else(|| CodecError::new(format!("{what} fields must be numbers")))
        })
        .collect()
}

fn push_rect(s: &mut String, r: &Rect) {
    s.push('[');
    push_f64(s, r.min().x);
    s.push(',');
    push_f64(s, r.min().y);
    s.push(',');
    push_f64(s, r.max().x);
    s.push(',');
    push_f64(s, r.max().y);
    s.push(']');
}

fn rect_from(fields: &[f64]) -> Rect {
    Rect::from_coords(fields[0], fields[1], fields[2], fields[3])
}

fn push_snapshot_body(s: &mut String, snap: &RegionSnapshot) {
    let _ = write!(
        s,
        "{{\"t\":\"snapshot\",\"v\":{},\"seq\":{},\"ready\":{},\"range\":",
        RegionSnapshot::VERSION,
        snap.seq,
        snap.ready
    );
    match &snap.range {
        Some(r) => push_rect(s, r),
        None => s.push_str("null"),
    }
    s.push_str(",\"radius\":");
    push_f64(s, snap.radius);
    let _ = write!(s, ",\"flushed_us\":{}", snap.last_flush.as_micros());
    if let Some(t) = &snap.tuner {
        // Optional, omitted when the primary runs a static grid: old
        // decoders never see it, new decoders tolerate its absence.
        // The third element (the in-flight streak's target) is itself
        // omitted when idle.
        if t.pending != 0 {
            let _ = write!(s, ",\"tuner\":[{},{},{}]", t.cells, t.streak, t.pending);
        } else {
            let _ = write!(s, ",\"tuner\":[{},{}]", t.cells, t.streak);
        }
    }
    s.push_str(",\"clients\":[");
    for (i, (id, c)) in snap.clients.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},", id.0);
        push_f64(s, c.pos.x);
        s.push(',');
        push_f64(s, c.pos.y);
        let _ = write!(s, ",{}]", c.state_bytes);
    }
    s.push_str("],\"streams\":[");
    for (i, (id, st)) in snap.streams.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},", id.0);
        push_f64(s, st.base.x);
        s.push(',');
        push_f64(s, st.base.y);
        let _ = write!(s, ",{}]", st.countdown);
    }
    s.push_str("],\"pending\":[");
    for (i, (id, items)) in snap.pending.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},[", id.0);
        for (j, u) in items.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let vel = u.vx != 0.0 || u.vy != 0.0;
            let traced = u.trace.is_some();
            s.push('[');
            push_f64(s, u.origin.x);
            s.push(',');
            push_f64(s, u.origin.y);
            let _ = write!(s, ",{},{}", u.payload_bytes, u.entity);
            if u.ring != 0 || vel || traced {
                let _ = write!(s, ",{}", u.ring);
            }
            if vel || traced {
                s.push(',');
                push_f64(s, u.vx);
                s.push(',');
                push_f64(s, u.vy);
            }
            // A trace tag extends the item to 11 positional numbers,
            // forcing the ring and velocity placeholders; untraced items
            // stay byte-identical to pre-trace frames.
            if let Some(tag) = u.trace {
                let _ = write!(
                    s,
                    ",{},{},{},{}",
                    tag.origin, tag.seq, tag.ingest_us, tag.stale_us
                );
            }
            s.push(']');
        }
        s.push_str("]]");
    }
    s.push(']');
    // Dead-reckoning bases, omitted when prediction is off: frames from
    // (and for) prediction-free peers stay byte-identical.
    if !snap.bases.is_empty() {
        s.push_str(",\"bases\":[");
        for (i, (id, bases)) in snap.bases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{},[", id.0);
            for (j, b) in bases.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{},", b.entity);
                push_f64(s, b.pos.x);
                s.push(',');
                push_f64(s, b.pos.y);
                s.push(',');
                push_f64(s, b.vx);
                s.push(',');
                push_f64(s, b.vy);
                s.push(',');
                push_f64(s, b.time_secs);
                s.push(']');
            }
            s.push_str("]]");
        }
        s.push(']');
    }
    s.push('}');
}

fn snapshot_from_obj(obj: &BTreeMap<String, Value>) -> Result<RegionSnapshot, CodecError> {
    check_version(obj)?;
    let range = match field(obj, "range")? {
        Value::Null => None,
        Value::Arr(fields) if fields.len() == 4 => Some(rect_from(&nums(fields, "range")?)),
        _ => return Err(CodecError::new("field 'range' must be null or 4 numbers")),
    };
    let tuner = match obj.get("tuner") {
        None => None,
        Some(Value::Arr(fields)) if fields.len() == 2 || fields.len() == 3 => {
            let f = nums(fields, "tuner")?;
            Some(TunerState {
                cells: f[0] as u32,
                streak: f[1] as u32,
                pending: f.get(2).copied().unwrap_or(0.0) as u32,
            })
        }
        Some(_) => {
            return Err(CodecError::new(
                "field 'tuner' must be [cells, streak, pending?]",
            ))
        }
    };
    let mut snap = RegionSnapshot {
        range,
        radius: num(obj, "radius")?,
        ready: bool_field(obj, "ready")?,
        seq: uint(obj, "seq")?,
        last_flush: SimTime::from_micros(uint(obj, "flushed_us")?),
        tuner,
        ..RegionSnapshot::default()
    };
    for entry in arr_field(obj, "clients")? {
        let Value::Arr(fields) = entry else {
            return Err(CodecError::new("client entry must be an array"));
        };
        let f = nums(fields, "client")?;
        if f.len() != 4 {
            return Err(CodecError::new("client entry must be [id, x, y, state]"));
        }
        snap.clients.insert(
            ClientId(f[0] as u64),
            SessionState {
                pos: Point::new(f[1], f[2]),
                state_bytes: f[3] as u64,
            },
        );
    }
    for entry in arr_field(obj, "streams")? {
        let Value::Arr(fields) = entry else {
            return Err(CodecError::new("stream entry must be an array"));
        };
        let f = nums(fields, "stream")?;
        if f.len() != 4 {
            return Err(CodecError::new(
                "stream entry must be [id, x, y, countdown]",
            ));
        }
        snap.streams.insert(
            ClientId(f[0] as u64),
            StreamBase {
                base: Point::new(f[1], f[2]),
                countdown: f[3] as u32,
            },
        );
    }
    for entry in arr_field(obj, "pending")? {
        let Value::Arr(fields) = entry else {
            return Err(CodecError::new("pending entry must be an array"));
        };
        let (Some(id), Some(Value::Arr(items)), 2) = (
            fields.first().and_then(Value::as_num),
            fields.get(1),
            fields.len(),
        ) else {
            return Err(CodecError::new("pending entry must be [id, [items]]"));
        };
        let mut updates = Vec::with_capacity(items.len());
        for item in items {
            let Value::Arr(fields) = item else {
                return Err(CodecError::new("pending item must be an array"));
            };
            let f = nums(fields, "pending item")?;
            // 4–5 numbers, 7 with the trailing velocity pair, or 11 with
            // a trace tag (which forces the ring/velocity placeholders).
            if f.len() != 4 && f.len() != 5 && f.len() != 7 && f.len() != 11 {
                return Err(CodecError::new(
                    "pending item must be [x, y, bytes, entity, ring?, vx?, vy?, trace…?]",
                ));
            }
            let trace = (f.len() == 11).then(|| matrix_telemetry::TraceTag {
                origin: f[7] as u32,
                seq: f[8] as u32,
                ingest_us: f[9] as u64,
                stale_us: f[10] as u64,
            });
            updates.push(PendingUpdate {
                origin: Point::new(f[0], f[1]),
                payload_bytes: f[2] as usize,
                entity: f[3] as u64,
                ring: f.get(4).copied().unwrap_or(0.0) as u8,
                vx: f.get(5).copied().unwrap_or(0.0),
                vy: f.get(6).copied().unwrap_or(0.0),
                trace,
            });
        }
        snap.pending.insert(ClientId(id as u64), updates);
    }
    if let Some(value) = obj.get("bases") {
        let Value::Arr(entries) = value else {
            return Err(CodecError::new("field 'bases' must be an array"));
        };
        for entry in entries {
            let Value::Arr(fields) = entry else {
                return Err(CodecError::new("bases entry must be an array"));
            };
            let (Some(id), Some(Value::Arr(items)), 2) = (
                fields.first().and_then(Value::as_num),
                fields.get(1),
                fields.len(),
            ) else {
                return Err(CodecError::new("bases entry must be [id, [bases]]"));
            };
            let mut bases = Vec::with_capacity(items.len());
            for item in items {
                let Value::Arr(fields) = item else {
                    return Err(CodecError::new("basis must be an array"));
                };
                let f = nums(fields, "basis")?;
                if f.len() != 6 {
                    return Err(CodecError::new("basis must be [entity, x, y, vx, vy, t]"));
                }
                bases.push(PredictBasis {
                    entity: f[0] as u64,
                    pos: Point::new(f[1], f[2]),
                    vx: f[3],
                    vy: f[4],
                    time_secs: f[5],
                });
            }
            snap.bases.insert(ClientId(id as u64), bases);
        }
    }
    Ok(snap)
}

/// Encodes a region snapshot as a single JSON line (no newline),
/// carrying the snapshot format version.
pub fn encode_region_snapshot(snap: &RegionSnapshot) -> String {
    let mut s = String::with_capacity(128 + snap.client_count() * 48);
    push_snapshot_body(&mut s, snap);
    s
}

/// Decodes one region-snapshot JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed or carries an unsupported
/// format version.
pub fn decode_region_snapshot(line: &str) -> Result<RegionSnapshot, CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "snapshot" => snapshot_from_obj(&obj),
        _ => Err(CodecError::new("expected a snapshot frame")),
    }
}

/// Encodes a replication batch (snapshot or ops) as a single JSON line
/// (no newline).
pub fn encode_replica_batch(batch: &ReplicaBatch) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"t\":\"replica\",\"v\":{},\"seq\":{},",
        RegionSnapshot::VERSION,
        batch.seq
    );
    match &batch.payload {
        ReplicaPayload::Full(snap) => {
            s.push_str("\"snapshot\":");
            push_snapshot_body(&mut s, snap);
        }
        ReplicaPayload::Ops(ops) => {
            s.push_str("\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                match *op {
                    ReplicaOp::Join {
                        client,
                        pos,
                        state_bytes,
                    } => {
                        let _ = write!(s, "[\"j\",{},", client.0);
                        push_f64(&mut s, pos.x);
                        s.push(',');
                        push_f64(&mut s, pos.y);
                        let _ = write!(s, ",{state_bytes}]");
                    }
                    ReplicaOp::Move { client, pos } => {
                        let _ = write!(s, "[\"m\",{},", client.0);
                        push_f64(&mut s, pos.x);
                        s.push(',');
                        push_f64(&mut s, pos.y);
                        s.push(']');
                    }
                    ReplicaOp::Leave { client } => {
                        let _ = write!(s, "[\"l\",{}]", client.0);
                    }
                    ReplicaOp::Range { range, radius } => {
                        s.push_str("[\"r\",");
                        push_f64(&mut s, range.min().x);
                        s.push(',');
                        push_f64(&mut s, range.min().y);
                        s.push(',');
                        push_f64(&mut s, range.max().x);
                        s.push(',');
                        push_f64(&mut s, range.max().y);
                        s.push(',');
                        push_f64(&mut s, radius);
                        s.push(']');
                    }
                }
            }
            s.push(']');
        }
    }
    s.push('}');
    s
}

/// Decodes one replication-batch JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed or carries an unsupported
/// format version.
pub fn decode_replica_batch(line: &str) -> Result<ReplicaBatch, CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "replica" => {}
        _ => return Err(CodecError::new("expected a replica frame")),
    }
    check_version(&obj)?;
    let seq = uint(&obj, "seq")?;
    if let Some(Value::Obj(snap)) = obj.get("snapshot") {
        return Ok(ReplicaBatch {
            seq,
            payload: ReplicaPayload::Full(snapshot_from_obj(snap)?),
        });
    }
    let mut ops = Vec::new();
    for entry in arr_field(&obj, "ops")? {
        let Value::Arr(fields) = entry else {
            return Err(CodecError::new("op must be an array"));
        };
        let tag = match fields.first() {
            Some(Value::Str(tag)) => tag.as_str(),
            _ => return Err(CodecError::new("op must start with a tag")),
        };
        let f = nums(&fields[1..], "op")?;
        let op = match (tag, f.len()) {
            ("j", 4) => ReplicaOp::Join {
                client: ClientId(f[0] as u64),
                pos: Point::new(f[1], f[2]),
                state_bytes: f[3] as u64,
            },
            ("m", 3) => ReplicaOp::Move {
                client: ClientId(f[0] as u64),
                pos: Point::new(f[1], f[2]),
            },
            ("l", 1) => ReplicaOp::Leave {
                client: ClientId(f[0] as u64),
            },
            ("r", 5) => ReplicaOp::Range {
                range: rect_from(&f[0..4]),
                radius: f[4],
            },
            _ => return Err(CodecError::new(format!("unknown or malformed op '{tag}'"))),
        };
        ops.push(op);
    }
    Ok(ReplicaBatch {
        seq,
        payload: ReplicaPayload::Ops(ops),
    })
}

/// Encodes a replication acknowledgement as a single JSON line.
pub fn encode_replica_ack(seq: u64, resync: bool) -> String {
    format!(
        "{{\"t\":\"replica-ack\",\"v\":{},\"seq\":{seq},\"resync\":{resync}}}",
        RegionSnapshot::VERSION
    )
}

/// Decodes one replication-acknowledgement JSON line into
/// `(seq, resync)`.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed or carries an unsupported
/// format version.
pub fn decode_replica_ack(line: &str) -> Result<(u64, bool), CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "replica-ack" => {}
        _ => return Err(CodecError::new("expected a replica-ack frame")),
    }
    check_version(&obj)?;
    Ok((uint(&obj, "seq")?, bool_field(&obj, "resync")?))
}

// ---------------------------------------------------------------------------
// Live stats frames (versioned)
// ---------------------------------------------------------------------------

/// Format version of the stats query/reply frames. Versioned separately
/// from the replication frames: the stats endpoint and the replication
/// link evolve independently.
pub const STATS_VERSION: u32 = 1;

/// The exposition format a stats query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Structured JSON reply (machine-readable, decodable with
    /// [`decode_stats_reply`]).
    Json,
    /// Prometheus-style text exposition
    /// ([`matrix_telemetry::render_prometheus`]).
    Prom,
}

fn check_stats_version(obj: &BTreeMap<String, Value>) -> Result<(), CodecError> {
    let v = uint(obj, "v")? as u32;
    if v != STATS_VERSION {
        return Err(CodecError::new(format!(
            "unsupported stats format version {v} (expected {STATS_VERSION})"
        )));
    }
    Ok(())
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
    out.push('"');
}

/// Encodes a live-stats query as a single JSON line (no newline):
/// `{"t":"stats","v":1,"fmt":"json"|"prom"}`.
pub fn encode_stats_query(fmt: StatsFormat) -> String {
    let fmt = match fmt {
        StatsFormat::Json => "json",
        StatsFormat::Prom => "prom",
    };
    format!("{{\"t\":\"stats\",\"v\":{STATS_VERSION},\"fmt\":\"{fmt}\"}}")
}

/// Decodes one stats-query JSON line into the requested format.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed, carries an unsupported
/// version, or names an unknown format.
pub fn decode_stats_query(line: &str) -> Result<StatsFormat, CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "stats" => {}
        _ => return Err(CodecError::new("expected a stats frame")),
    }
    check_stats_version(&obj)?;
    match field(&obj, "fmt")? {
        Value::Str(f) if f == "json" => Ok(StatsFormat::Json),
        Value::Str(f) if f == "prom" => Ok(StatsFormat::Prom),
        Value::Str(f) => Err(CodecError::new(format!("unknown stats format '{f}'"))),
        _ => Err(CodecError::new("field 'fmt' must be a string")),
    }
}

/// Encodes a stats reply — one [`TelemetrySnapshot`] per node — as a
/// single JSON line (no newline). Histograms travel in sparse form
/// (`[name, count, sum, min, max, [[bucket, n], …]]`), so the reply
/// stays small no matter how long the node has been up.
pub fn encode_stats_reply(nodes: &[(ServerId, TelemetrySnapshot)]) -> String {
    let mut s = String::with_capacity(64 + nodes.len() * 256);
    let _ = write!(
        s,
        "{{\"t\":\"stats-reply\",\"v\":{STATS_VERSION},\"nodes\":["
    );
    for (i, (id, snap)) in nodes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},", id.0);
        push_telemetry_body(&mut s, snap);
        s.push(']');
    }
    s.push_str("]}");
    s
}

/// Appends one telemetry snapshot as a JSON object (shared by the
/// stats reply and the load-report heartbeat).
fn push_telemetry_body(s: &mut String, snap: &TelemetrySnapshot) {
    s.push_str("{\"counters\":[");
    for (j, (name, v)) in snap.counters.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        s.push('[');
        push_json_str(s, name);
        let _ = write!(s, ",{v}]");
    }
    s.push_str("],\"hists\":[");
    for (j, h) in snap.hists.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        s.push('[');
        push_json_str(s, &h.name);
        let _ = write!(s, ",{},", h.count);
        push_f64(s, h.sum);
        s.push(',');
        push_f64(s, h.min);
        s.push(',');
        push_f64(s, h.max);
        s.push_str(",[");
        for (k, (idx, n)) in h.buckets.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{idx},{n}]");
        }
        s.push_str("]]");
    }
    let _ = write!(
        s,
        "],\"dropped\":{},\"seen\":{}}}",
        snap.events_dropped, snap.events_seen
    );
}

/// Decodes one stats-reply JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed or carries an unsupported
/// format version.
pub fn decode_stats_reply(line: &str) -> Result<Vec<(ServerId, TelemetrySnapshot)>, CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "stats-reply" => {}
        _ => return Err(CodecError::new("expected a stats-reply frame")),
    }
    check_stats_version(&obj)?;
    let mut nodes = Vec::new();
    for entry in arr_field(&obj, "nodes")? {
        let Value::Arr(fields) = entry else {
            return Err(CodecError::new("node entry must be an array"));
        };
        let (Some(id), Some(Value::Obj(body)), 2) = (
            fields.first().and_then(Value::as_num),
            fields.get(1),
            fields.len(),
        ) else {
            return Err(CodecError::new("node entry must be [id, {snapshot}]"));
        };
        nodes.push((ServerId(id as u32), telemetry_from_obj(body)?));
    }
    Ok(nodes)
}

/// Rebuilds one telemetry snapshot from its JSON-object form (shared
/// by the stats reply and the load-report heartbeat).
fn telemetry_from_obj(body: &BTreeMap<String, Value>) -> Result<TelemetrySnapshot, CodecError> {
    let mut snap = TelemetrySnapshot::new();
    for c in arr_field(body, "counters")? {
        let Value::Arr(f) = c else {
            return Err(CodecError::new("counter must be an array"));
        };
        let (Some(Value::Str(name)), Some(v), 2) =
            (f.first(), f.get(1).and_then(Value::as_num), f.len())
        else {
            return Err(CodecError::new("counter must be [name, value]"));
        };
        snap.counters.push((name.clone(), v as u64));
    }
    for hv in arr_field(body, "hists")? {
        let Value::Arr(f) = hv else {
            return Err(CodecError::new("hist must be an array"));
        };
        let (Some(Value::Str(name)), 6) = (f.first(), f.len()) else {
            return Err(CodecError::new(
                "hist must be [name, count, sum, min, max, [buckets]]",
            ));
        };
        let moment = |i: usize| {
            f[i].as_num()
                .ok_or_else(|| CodecError::new("hist moments must be numbers"))
        };
        let Value::Arr(entries) = &f[5] else {
            return Err(CodecError::new("hist buckets must be an array"));
        };
        let mut buckets = Vec::with_capacity(entries.len());
        for b in entries {
            let Value::Arr(pair) = b else {
                return Err(CodecError::new("bucket must be an array"));
            };
            let p = nums(pair, "bucket")?;
            if p.len() != 2 {
                return Err(CodecError::new("bucket must be [index, count]"));
            }
            buckets.push((p[0] as u32, p[1] as u64));
        }
        snap.hists.push(HistSnapshot {
            name: name.clone(),
            count: moment(1)? as u64,
            sum: moment(2)?,
            min: moment(3)?,
            max: moment(4)?,
            buckets,
        });
    }
    snap.events_dropped = uint(body, "dropped")?;
    snap.events_seen = uint(body, "seen")?;
    Ok(snap)
}

/// Encodes a load-report heartbeat as a single JSON line (no newline):
/// `{"t":"load","v":1,"clients":3,"backlog":0.5,"pos":[[x,y],…]}`, with
/// an optional `"telemetry"` object in the stats-reply snapshot shape.
/// The JSON form exists for interop/debugging parity with the binary
/// [`crate::codec_v2::Frame::Load`]; in-process load reports never
/// touch a codec.
pub fn encode_load_report(report: &LoadReport) -> String {
    let mut s = String::with_capacity(64 + report.positions.len() * 16);
    let _ = write!(
        s,
        "{{\"t\":\"load\",\"v\":{STATS_VERSION},\"clients\":{},\"backlog\":",
        report.clients
    );
    push_f64(&mut s, report.queue_backlog);
    s.push_str(",\"pos\":[");
    for (i, p) in report.positions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        push_f64(&mut s, p.x);
        s.push(',');
        push_f64(&mut s, p.y);
        s.push(']');
    }
    s.push(']');
    if let Some(snap) = &report.telemetry {
        s.push_str(",\"telemetry\":");
        push_telemetry_body(&mut s, snap);
    }
    s.push('}');
    s
}

/// Decodes one load-report JSON line.
///
/// # Errors
///
/// [`CodecError`] when the frame is malformed or carries an unsupported
/// format version.
pub fn decode_load_report(line: &str) -> Result<LoadReport, CodecError> {
    let obj = parse(line)?;
    match field(&obj, "t")? {
        Value::Str(t) if t == "load" => {}
        _ => return Err(CodecError::new("expected a load frame")),
    }
    check_stats_version(&obj)?;
    let mut positions = Vec::new();
    for entry in arr_field(&obj, "pos")? {
        let Value::Arr(pair) = entry else {
            return Err(CodecError::new("position must be an array"));
        };
        let p = nums(pair, "position")?;
        if p.len() != 2 {
            return Err(CodecError::new("position must be [x, y]"));
        }
        positions.push(Point::new(p[0], p[1]));
    }
    let telemetry = match obj.get("telemetry") {
        Some(Value::Obj(body)) => Some(Box::new(telemetry_from_obj(body)?)),
        Some(_) => return Err(CodecError::new("field 'telemetry' must be an object")),
        None => None,
    };
    Ok(LoadReport {
        clients: uint(&obj, "clients")? as u32,
        queue_backlog: num(&obj, "backlog")?,
        positions,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_client(msg: ClientToGame) {
        let line = encode_client_to_game(&msg);
        assert_eq!(decode_client_to_game(&line).expect(&line), msg, "{line}");
    }

    fn round_trip_server(msg: GameToClient) {
        let line = encode_game_to_client(&msg);
        assert_eq!(decode_game_to_client(&line).expect(&line), msg, "{line}");
    }

    #[test]
    fn every_client_variant_round_trips() {
        round_trip_client(ClientToGame::Join {
            pos: Point::new(0.0, -0.5),
            state_bytes: 0,
        });
        round_trip_client(ClientToGame::Join {
            pos: Point::new(123.456789, 1e-9),
            state_bytes: u64::MAX >> 12,
        });
        round_trip_client(ClientToGame::Move {
            pos: Point::new(-1.25, 7.75),
        });
        round_trip_client(ClientToGame::Action {
            pos: Point::new(3.5, 4.5),
            payload_bytes: 90,
        });
        round_trip_client(ClientToGame::Leave);
    }

    #[test]
    fn every_server_variant_round_trips() {
        round_trip_server(GameToClient::Joined {
            server: ServerId(7),
        });
        round_trip_server(GameToClient::Ack { seq: 123456 });
        round_trip_server(GameToClient::Update {
            origin: Point::new(1.0, 2.0),
            payload_bytes: 3,
        });
        round_trip_server(GameToClient::UpdateBatch { updates: vec![] });
        round_trip_server(GameToClient::UpdateBatch {
            updates: vec![
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(10.5, -20.25),
                    payload_bytes: 64,
                    entity: 9,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(0.0, 0.0),
                    payload_bytes: 0,
                    entity: 0,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: -1.25,
                    dy: 0.5,
                    payload_bytes: 32,
                    entity: 9,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: 0.0,
                    dy: 0.0,
                    payload_bytes: 0,
                    entity: 0,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
            ],
        });
        round_trip_server(GameToClient::SwitchServer { to: ServerId(9) });
    }

    #[test]
    fn whitespace_and_field_order_are_tolerated() {
        let msg = decode_client_to_game(
            " { \"state\" : 64 , \"x\" : 1.0, \"y\": 2.0, \"t\": \"join\" } ",
        )
        .unwrap();
        assert_eq!(
            msg,
            ClientToGame::Join {
                pos: Point::new(1.0, 2.0),
                state_bytes: 64
            }
        );
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for bad in [
            "",
            "nonsense",
            "[1,2,3]",
            "{\"t\":\"join\"}",
            "{\"t\":\"warp\",\"x\":1,\"y\":2}",
            "{\"t\":\"join\",\"x\":1.0,\"y\":2.0,\"state\":64} trailing",
            "{\"t\":\"join\",\"x\":\"NaN\",\"y\":2.0,\"state\":64}",
            "{\"t\":\"join\",\"x\":1e999,\"y\":2.0,\"state\":64}",
            "{\"t\":\"move\",\"x\":-1e999,\"y\":0.0}",
            "{\"t\":\"ack\",\"seq\":-1}",
        ] {
            assert!(decode_client_to_game(bad).is_err(), "{bad}");
        }
        assert!(decode_game_to_client("{\"t\":\"batch\",\"updates\":[[1,2]]}").is_err());
        assert!(decode_game_to_client("{\"t\":\"batch\",\"updates\":[[\"d\",1,2]]}").is_err());
        assert!(decode_game_to_client("{\"t\":\"batch\",\"updates\":[[\"q\",1,2,3]]}").is_err());
        assert!(decode_game_to_client("{\"t\":\"batch\",\"updates\":[[1,2,3,4,5,6]]}").is_err());
        assert!(
            decode_game_to_client("{\"t\":\"batch\",\"updates\":[[\"d\",1,2,3,4,5,6]]}").is_err()
        );
    }

    #[test]
    fn special_floats_round_trip() {
        // Positions are finite in practice, but the codec must not mangle
        // extreme magnitudes.
        round_trip_client(ClientToGame::Move {
            pos: Point::new(f64::MAX / 2.0, f64::MIN_POSITIVE),
        });
    }

    #[test]
    fn ring_tagged_items_round_trip_and_omit_zero() {
        // Ring tags travel as the optional trailing element; a non-zero
        // ring forces the entity placeholder. Near-ring (0) items encode
        // exactly as pre-ring frames did.
        let far = GameToClient::UpdateBatch {
            updates: vec![
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(1.0, 2.0),
                    payload_bytes: 8,
                    entity: 0,
                    ring: 2,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: 0.5,
                    dy: -0.5,
                    payload_bytes: 4,
                    entity: 9,
                    ring: 1,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
            ],
        };
        let line = encode_game_to_client(&far);
        assert!(line.contains("[1,2,8,0,2]"), "{line}");
        assert!(line.contains("[\"d\",0.5,-0.5,4,9,1]"), "{line}");
        assert_eq!(decode_game_to_client(&line).unwrap(), far);

        let near = GameToClient::UpdateBatch {
            updates: vec![BatchItem::Absolute(UpdateItem {
                origin: Point::new(1.0, 2.0),
                payload_bytes: 8,
                entity: 7,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            })],
        };
        let line = encode_game_to_client(&near);
        assert!(line.contains("[1,2,8,7]"), "ring 0 omitted: {line}");
        assert_eq!(decode_game_to_client(&line).unwrap(), near);
    }

    #[test]
    fn tuner_state_round_trips_and_is_omitted_when_absent() {
        let mut snap = sample_snapshot();
        assert!(
            !encode_region_snapshot(&snap).contains("tuner"),
            "static-grid snapshots stay byte-identical to pre-tuner frames"
        );
        snap.tuner = Some(TunerState {
            cells: 64,
            streak: 2,
            pending: 0,
        });
        let line = encode_region_snapshot(&snap);
        assert!(line.contains("\"tuner\":[64,2]"), "{line}");
        assert_eq!(decode_region_snapshot(&line).unwrap(), snap);
    }

    #[test]
    fn velocity_tagged_items_round_trip_and_omit_zero() {
        // Velocities travel as a trailing pair, forcing the entity and
        // ring placeholders; zero velocity encodes exactly like a
        // pre-prediction frame.
        let msg = GameToClient::UpdateBatch {
            updates: vec![
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(1.0, 2.0),
                    payload_bytes: 8,
                    entity: 0,
                    ring: 0,
                    vx: 12.5,
                    vy: -3.25,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: 0.5,
                    dy: -0.5,
                    payload_bytes: 4,
                    entity: 9,
                    ring: 2,
                    vx: -0.25,
                    vy: 1.0,
                    trace: None,
                }),
            ],
        };
        let line = encode_game_to_client(&msg);
        assert!(line.contains("[1,2,8,0,0,12.5,-3.25]"), "{line}");
        assert!(line.contains("[\"d\",0.5,-0.5,4,9,2,-0.25,1]"), "{line}");
        assert_eq!(decode_game_to_client(&line).unwrap(), msg);

        let still = GameToClient::UpdateBatch {
            updates: vec![BatchItem::Absolute(UpdateItem {
                origin: Point::new(1.0, 2.0),
                payload_bytes: 8,
                entity: 7,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            })],
        };
        let line = encode_game_to_client(&still);
        assert!(
            line.contains("[1,2,8,7]"),
            "zero velocity stays off the wire: {line}"
        );
        assert_eq!(decode_game_to_client(&line).unwrap(), still);
    }

    #[test]
    fn dangling_velocity_components_are_rejected() {
        // A lone vx with no vy is not a valid frame in either shape.
        assert!(decode_game_to_client("{\"t\":\"batch\",\"updates\":[[1,2,3,4,5,6]]}").is_err());
        assert!(
            decode_game_to_client("{\"t\":\"batch\",\"updates\":[[\"d\",1,2,3,4,5,6]]}").is_err()
        );
    }

    #[test]
    fn snapshot_bases_round_trip_and_are_omitted_when_empty() {
        let mut snap = sample_snapshot();
        assert!(
            !encode_region_snapshot(&snap).contains("bases"),
            "prediction-free snapshots stay byte-identical to pre-prediction frames"
        );
        snap.bases.insert(
            ClientId(7),
            vec![
                PredictBasis {
                    entity: 9,
                    pos: Point::new(10.5, -3.0),
                    vx: 12.5,
                    vy: -3.25,
                    time_secs: 4.2,
                },
                PredictBasis {
                    entity: 11,
                    pos: Point::new(0.0, 0.0),
                    vx: 0.0,
                    vy: 0.0,
                    time_secs: 0.0,
                },
            ],
        );
        snap.pending.insert(
            ClientId(8),
            vec![PendingUpdate {
                origin: Point::new(1.0, 2.0),
                payload_bytes: 8,
                entity: 9,
                ring: 1,
                vx: 2.5,
                vy: -1.5,
                trace: None,
            }],
        );
        let line = encode_region_snapshot(&snap);
        assert!(
            line.contains("\"bases\":[[7,[[9,10.5,-3,12.5,-3.25,4.2]"),
            "{line}"
        );
        assert!(
            line.contains("[1,2,8,9,1,2.5,-1.5]"),
            "pending items carry their velocity: {line}"
        );
        assert_eq!(decode_region_snapshot(&line).unwrap(), snap);
    }

    #[test]
    fn pre_entity_batch_frames_still_decode() {
        // Item shapes from before the entity tag ([x,y,bytes] and
        // ["d",dx,dy,bytes]) parse as anonymous items.
        let msg =
            decode_game_to_client("{\"t\":\"batch\",\"updates\":[[1.0,2.0,8],[\"d\",0.5,0.5,4]]}")
                .unwrap();
        let GameToClient::UpdateBatch { updates } = msg else {
            panic!("expected a batch");
        };
        assert!(updates.iter().all(|u| u.entity() == 0));
    }

    fn sample_snapshot() -> RegionSnapshot {
        let mut snap = RegionSnapshot {
            range: Some(matrix_geometry::Rect::from_coords(0.0, 0.0, 400.0, 400.0)),
            radius: 50.0,
            ready: true,
            seq: 42,
            last_flush: SimTime::from_millis(1250),
            ..RegionSnapshot::default()
        };
        snap.clients.insert(
            ClientId(7),
            SessionState {
                pos: Point::new(10.5, -3.25),
                state_bytes: 2048,
            },
        );
        snap.streams.insert(
            ClientId(7),
            StreamBase {
                base: Point::new(10.0, -3.0),
                countdown: 5,
            },
        );
        snap.pending.insert(
            ClientId(7),
            vec![PendingUpdate {
                origin: Point::new(11.0, -3.0),
                payload_bytes: 64,
                entity: 9,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            }],
        );
        snap
    }

    #[test]
    fn region_snapshot_round_trips() {
        let snap = sample_snapshot();
        let line = encode_region_snapshot(&snap);
        assert_eq!(decode_region_snapshot(&line).unwrap(), snap, "{line}");
        // Empty snapshot too.
        let empty = RegionSnapshot::default();
        let line = encode_region_snapshot(&empty);
        assert_eq!(decode_region_snapshot(&line).unwrap(), empty, "{line}");
    }

    #[test]
    fn replica_frames_round_trip() {
        let full = ReplicaBatch {
            seq: 4,
            payload: ReplicaPayload::Full(sample_snapshot()),
        };
        let line = encode_replica_batch(&full);
        assert_eq!(decode_replica_batch(&line).unwrap(), full, "{line}");

        let ops = ReplicaBatch {
            seq: 5,
            payload: ReplicaPayload::Ops(vec![
                ReplicaOp::Join {
                    client: ClientId(7),
                    pos: Point::new(1.5, 2.5),
                    state_bytes: 64,
                },
                ReplicaOp::Move {
                    client: ClientId(7),
                    pos: Point::new(1.75, 2.5),
                },
                ReplicaOp::Leave {
                    client: ClientId(7),
                },
                ReplicaOp::Range {
                    range: matrix_geometry::Rect::from_coords(0.0, 0.0, 200.0, 400.0),
                    radius: 50.0,
                },
            ]),
        };
        let line = encode_replica_batch(&ops);
        assert_eq!(decode_replica_batch(&line).unwrap(), ops, "{line}");

        let line = encode_replica_ack(17, true);
        assert_eq!(decode_replica_ack(&line).unwrap(), (17, true));
    }

    #[test]
    fn unsupported_snapshot_versions_are_rejected() {
        let mut line = encode_region_snapshot(&sample_snapshot());
        line = line.replace("\"v\":1", "\"v\":2");
        let err = decode_region_snapshot(&line).unwrap_err();
        assert!(err.reason.contains("version"), "{err}");
        let mut line = encode_replica_ack(1, false);
        line = line.replace("\"v\":1", "\"v\":999");
        assert!(decode_replica_ack(&line).is_err());
    }

    #[test]
    fn stats_query_round_trips_and_rejects_bad_versions() {
        for fmt in [StatsFormat::Json, StatsFormat::Prom] {
            let line = encode_stats_query(fmt);
            assert_eq!(decode_stats_query(&line).unwrap(), fmt, "{line}");
        }
        let bad = encode_stats_query(StatsFormat::Json).replace("\"v\":1", "\"v\":7");
        let err = decode_stats_query(&bad).unwrap_err();
        assert!(err.reason.contains("version"), "{err}");
        assert!(decode_stats_query("{\"t\":\"stats\",\"v\":1,\"fmt\":\"xml\"}").is_err());
        assert!(decode_stats_query("{\"t\":\"join\",\"x\":1.0,\"y\":2.0,\"state\":0}").is_err());
    }

    #[test]
    fn stats_reply_round_trips() {
        let mut a = TelemetrySnapshot::new();
        a.counter("joins", 5);
        a.counter("batch_bytes", u64::MAX >> 12);
        let mut h = matrix_telemetry::Histogram::new();
        for v in [1.0, 7.5, 900.25, -3.5] {
            h.record(v);
        }
        a.hist("flush_us", &h);
        a.events_seen = 9;
        a.events_dropped = 2;
        let b = TelemetrySnapshot::new();
        let nodes = vec![(ServerId(3), a), (ServerId(11), b)];
        let line = encode_stats_reply(&nodes);
        assert_eq!(decode_stats_reply(&line).unwrap(), nodes, "{line}");
        // Quantiles survive the sparse form.
        let decoded = decode_stats_reply(&line).unwrap();
        let back = decoded[0].1.get_hist("flush_us").unwrap().to_histogram();
        assert_eq!(back, h);
        // Empty reply too.
        let line = encode_stats_reply(&[]);
        assert_eq!(decode_stats_reply(&line).unwrap(), vec![]);
        // Version mismatches fail loudly.
        let bad = encode_stats_reply(&[]).replace("\"v\":1", "\"v\":2");
        assert!(decode_stats_reply(&bad).is_err());
    }

    #[test]
    fn snapshot_codec_survives_randomised_round_trips() {
        // Fuzz-ish: a seeded xorshift drives randomised snapshots (sizes,
        // magnitudes, signs, empty and non-empty maps) through the codec;
        // every one must round-trip exactly. Deterministic, so failures
        // reproduce.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let mut snap = RegionSnapshot::default();
            if next() % 4 != 0 {
                let x = (next() % 10_000) as f64 / 16.0 - 300.0;
                let y = (next() % 10_000) as f64 / 32.0 - 150.0;
                snap.range = Some(matrix_geometry::Rect::from_coords(
                    x,
                    y,
                    x + 500.0,
                    y + 400.0,
                ));
            }
            snap.radius = (next() % 1_000) as f64 / 8.0;
            snap.ready = next() % 2 == 0;
            snap.seq = next() % 1_000_000;
            snap.last_flush = SimTime::from_micros(next() % 10_000_000);
            if next() % 3 == 0 {
                snap.tuner = Some(TunerState {
                    cells: (next() % 256) as u32 + 1,
                    streak: (next() % 8) as u32,
                    pending: (next() % 3 == 0) as u32 * ((next() % 256) as u32 + 1),
                });
            }
            for _ in 0..next() % 20 {
                let id = ClientId(next() % 10_000);
                let pos = Point::new(
                    (next() % 1_000_000) as f64 / 256.0 - 2_000.0,
                    (next() % 1_000_000) as f64 / 256.0 - 2_000.0,
                );
                snap.clients.insert(
                    id,
                    SessionState {
                        pos,
                        state_bytes: next() % 100_000,
                    },
                );
                if next() % 2 == 0 {
                    snap.streams.insert(
                        id,
                        StreamBase {
                            base: pos,
                            countdown: (next() % 16) as u32,
                        },
                    );
                }
                if next() % 3 == 0 {
                    let items = (0..next() % 5)
                        .map(|_| PendingUpdate {
                            origin: Point::new(
                                (next() % 100_000) as f64 / 256.0,
                                (next() % 100_000) as f64 / 256.0,
                            ),
                            payload_bytes: (next() % 512) as usize,
                            entity: next() % 10_000,
                            ring: (next() % 4) as u8,
                            vx: 0.0,
                            vy: 0.0,
                            trace: None,
                        })
                        .collect();
                    snap.pending.insert(id, items);
                }
            }
            let line = encode_region_snapshot(&snap);
            let decoded = decode_region_snapshot(&line)
                .unwrap_or_else(|e| panic!("round {round}: {e}\n{line}"));
            assert_eq!(decoded, snap, "round {round}");
        }
    }
}
