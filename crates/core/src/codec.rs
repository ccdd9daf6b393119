//! The operator stats port's text plane: a hand-written JSON line codec.
//!
//! Game, replication and load traffic speak the one binary wire protocol
//! (`crate::codec_v2`, `docs/WIRE.md`). JSON survives only where an
//! operator types at a socket: the runtime's stats endpoint takes a
//! versioned one-line query and answers with a one-line reply (or
//! Prometheus text), so `nc` and any scripting language can scrape a
//! cluster with no binary tooling. The codec is written by hand (rather
//! than through a serde backend) so the workspace builds fully offline.
//!
//! ```text
//! stats query     {"t":"stats","v":1,"fmt":"json"}        ("json" | "prom")
//! stats reply     {"t":"stats-reply","v":1,"nodes":[[3,{"counters":[["joins",5]],
//!                  "hists":[["flush_us",10,123.5,1.0,50.0,[[96,3],[97,7]]]],
//!                  "dropped":0,"seen":7}]]}
//! ```
//!
//! The query line arrives from outside the program, so the parser
//! rejects anything that is not one well-formed JSON object (trailing
//! data, non-finite numbers, unknown escapes). Floats are emitted with
//! Rust's shortest round-trip formatting, so decode(encode(m)) == m
//! exactly. [`CodecError`] is shared with the binary codec.

use matrix_geometry::ServerId;
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

fn push_f64(out: &mut String, v: f64) {
    // An integral value needs no fraction marker in JSON: `84` parses
    // back to the same f64 as `84.0`, two bytes shorter. `{:.0}` keeps
    // the sign of `-0.0` so even that round-trips. Everything else takes
    // `{:?}`, the shortest representation that round-trips.
    if v.is_finite() && v.fract() == 0.0 {
        let _ = write!(out, "{v:.0}");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

fn arr_field<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v [Value], CodecError> {
    match field(obj, key)? {
        Value::Arr(items) => Ok(items),
        _ => Err(CodecError::new(format!("field '{key}' must be an array"))),
    }
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

/// Appends one telemetry snapshot as a JSON object.
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

/// Rebuilds one telemetry snapshot from its JSON-object form.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_and_field_order_are_tolerated() {
        let fmt =
            decode_stats_query(" { \"fmt\" : \"prom\" , \"v\" : 1, \"t\": \"stats\" } \r").unwrap();
        assert_eq!(fmt, StatsFormat::Prom);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for bad in [
            "",
            "nonsense",
            "[1,2,3]",
            "{\"t\":\"stats\"}",
            "{\"t\":\"stats\",\"v\":1}",
            "{\"t\":\"stats\",\"v\":1,\"fmt\":\"json\"} trailing",
            "{\"t\":\"stats\",\"v\":\"1\",\"fmt\":\"json\"}",
            "{\"t\":\"stats\",\"v\":1e999,\"fmt\":\"json\"}",
            "{\"t\":\"stats\",\"v\":-1,\"fmt\":\"json\"}",
            "{\"t\":\"stats\",\"v\":1.5,\"fmt\":\"json\"}",
            "{\"t\":\"stats\",\"v\":1,\"fmt\":\"js\\u006fn\"}",
            "{\"t\":\"stats\",\"v\":1,\"fmt\":\"json",
        ] {
            assert!(decode_stats_query(bad).is_err(), "{bad}");
        }
        assert!(decode_stats_reply("{\"t\":\"stats-reply\",\"v\":1,\"nodes\":[[1]]}").is_err());
        assert!(decode_stats_reply("{\"t\":\"stats-reply\",\"v\":1,\"nodes\":7}").is_err());
    }

    #[test]
    fn special_floats_round_trip() {
        // Histogram moments are finite in practice, but the codec must
        // not mangle extreme magnitudes or the sign of zero.
        let mut snap = TelemetrySnapshot::new();
        snap.hists.push(HistSnapshot {
            name: "edge".into(),
            count: 3,
            sum: f64::MAX / 2.0,
            min: -0.0,
            max: f64::MIN_POSITIVE,
            buckets: vec![],
        });
        let line = encode_stats_reply(&[(ServerId(1), snap.clone())]);
        let back = decode_stats_reply(&line).expect(&line);
        assert_eq!(back, vec![(ServerId(1), snap)], "{line}");
        assert!(back[0].1.hists[0].min.is_sign_negative(), "{line}");
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
}
