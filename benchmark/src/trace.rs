//! In-memory spans around the benchmark's calls into each layer.
//!
//! The spans are recorded from the benchmark's side of every call, never
//! from inside the program. A span's parent is the span whose output
//! caused the call (`on_client` → `on_game` → `on_peer` → ...), and all
//! spans of one schedule op or one tick share its event id. The replay
//! driver makes its calls one after another, so no span lies inside
//! another's interval and a layer's self time is its spans' total.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

/// The layer a span measures: one public entry point of the program (or
/// of its client-side library), named `crate.module.function`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `GameServerNode::register`.
    Register,
    /// `GameServerNode::on_client`.
    OnClient,
    /// `GameServerNode::on_tick` (flush included).
    GameOnTick,
    /// `GameServerNode::on_matrix`, replica batches excepted.
    OnMatrix,
    /// `GameServerNode::on_matrix(ReplicaBatch)`: the standby applying a
    /// replication batch.
    ReplicaApply,
    /// `MatrixServer::on_game`.
    OnGame,
    /// `MatrixServer::on_peer`.
    OnPeer,
    /// `MatrixServer::on_coord`.
    OnCoord,
    /// `MatrixServer::on_pool`.
    OnPool,
    /// `MatrixServer::on_tick`.
    ServerOnTick,
    /// `Coordinator::handle`.
    CoordHandle,
    /// `Coordinator::check_liveness`.
    CoordLiveness,
    /// `ResourcePool::handle`.
    PoolHandle,
    /// `codec_v2::encode_server_frame`.
    Encode,
    /// `FrameAccumulator::{push, next}`.
    Decode,
    /// `reconstruct_updates`.
    Reconstruct,
    /// `Extrapolator::update` over one batch.
    ExtrapUpdate,
    /// The benchmark's own output checks (decoded == sent, lattice).
    Check,
}

/// Number of layers.
pub const LAYERS: usize = Layer::Check as usize + 1;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Register,
        Layer::OnClient,
        Layer::GameOnTick,
        Layer::OnMatrix,
        Layer::ReplicaApply,
        Layer::OnGame,
        Layer::OnPeer,
        Layer::OnCoord,
        Layer::OnPool,
        Layer::ServerOnTick,
        Layer::CoordHandle,
        Layer::CoordLiveness,
        Layer::PoolHandle,
        Layer::Encode,
        Layer::Decode,
        Layer::Reconstruct,
        Layer::ExtrapUpdate,
        Layer::Check,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Register => "core.gameserver.register",
            Layer::OnClient => "core.gameserver.on_client",
            Layer::GameOnTick => "core.gameserver.on_tick",
            Layer::OnMatrix => "core.gameserver.on_matrix",
            Layer::ReplicaApply => "replication.apply",
            Layer::OnGame => "core.server.on_game",
            Layer::OnPeer => "core.server.on_peer",
            Layer::OnCoord => "core.server.on_coord",
            Layer::OnPool => "core.server.on_pool",
            Layer::ServerOnTick => "core.server.on_tick",
            Layer::CoordHandle => "core.coordinator.handle",
            Layer::CoordLiveness => "core.coordinator.check_liveness",
            Layer::PoolHandle => "core.pool.handle",
            Layer::Encode => "core.codec_v2.encode",
            Layer::Decode => "core.codec_v2.decode",
            Layer::Reconstruct => "core.messages.reconstruct",
            Layer::ExtrapUpdate => "predict.extrapolator_update",
            Layer::Check => "bench.check",
        }
    }
}

/// "No causing span": the call came straight from the schedule or a
/// timer.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// Index of the span whose output caused this call, or [`NO_PARENT`].
    pub parent: u32,
    /// Id of the schedule op or tick this work belongs to.
    pub event: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Heap allocations made inside the span.
    pub allocs: u32,
}

/// An open span, to be handed back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    allocs: u64,
}

impl Open {
    /// The span's index, usable as a parent while it is still open
    /// ([`NO_PARENT`] when the tracer is off).
    pub fn index(self) -> u32 {
        self.index
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration, ns.
    pub ns: u64,
    /// Their summed allocations.
    pub allocs: u64,
}

/// The span recorder. Switched off it records nothing and reads no
/// clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    event: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or is inert.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            // Room for a few seconds of replay before the first regrowth.
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
            event: 0,
        }
    }

    /// Sets the event id stamped on the spans that follow.
    pub fn set_event(&mut self, event: u32) {
        self.event = event;
    }

    /// Opens a span caused by `parent`.
    #[inline]
    pub fn begin(&mut self, layer: Layer, parent: u32) -> Open {
        if !self.on {
            return Open {
                index: NO_PARENT,
                allocs: 0,
            };
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent,
            event: self.event,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        // Clock and counter are read last, so the push above — which may
        // grow the vector — stays outside the span.
        let allocs = alloc::count();
        self.spans[index as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open { index, allocs }
    }

    /// Closes a span; returns its index for use as a parent
    /// ([`NO_PARENT`] when the tracer is off).
    #[inline]
    pub fn end(&mut self, open: Open) -> u32 {
        if self.on {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            let span = &mut self.spans[open.index as usize];
            span.end_ns = end_ns;
            span.allocs = (alloc::count() - open.allocs) as u32;
        }
        open.index
    }

    /// Closes `open` and opens a span of `layer` at the same instant —
    /// one clock read for two back-to-back calls.
    #[inline]
    pub fn then(&mut self, open: Open, layer: Layer, parent: u32) -> Open {
        if !self.on {
            return open;
        }
        let closed_allocs = alloc::count();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent,
            event: self.event,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        // Counted again after the push, so a growing span vector is
        // charged to neither span.
        let allocs = alloc::count();
        let now_ns = self.origin.elapsed().as_nanos() as u64;
        let closing = &mut self.spans[open.index as usize];
        closing.end_ns = now_ns;
        closing.allocs = (closed_allocs - open.allocs) as u32;
        self.spans[index as usize].start_ns = now_ns;
        Open { index, allocs }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals over the spans that start at or after `from_ns`.
    pub fn totals_since(&self, from_ns: u64) -> [LayerTotal; LAYERS] {
        let mut out = [LayerTotal::default(); LAYERS];
        for s in self.spans.iter().filter(|s| s.start_ns >= from_ns) {
            let t = &mut out[s.layer as usize];
            t.count += 1;
            t.ns += s.end_ns - s.start_ns;
            t.allocs += u64::from(s.allocs);
        }
        out
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes every span as one CSV line:
    /// `name,index,parent,event,start_ns,end_ns,allocs` (`parent` empty
    /// for none).
    pub fn write_csv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "name,index,parent,event,start_ns,end_ns,allocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{i},{parent},{},{},{},{}",
                s.layer.name(),
                s.event,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_inert_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin(Layer::OnClient, NO_PARENT);
        assert_eq!(t.end(open), NO_PARENT);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_keep_their_cause_event_and_order() {
        let mut t = Tracer::new(true);
        t.set_event(9);
        let a = t.begin(Layer::OnClient, NO_PARENT);
        let a = t.end(a);
        let b = t.begin(Layer::OnGame, a);
        let b = t.end(b);
        assert_eq!((a, b), (0, 1));
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].event, 9);
        assert!(spans[0].start_ns <= spans[0].end_ns);
        assert!(spans[0].end_ns <= spans[1].start_ns, "calls are sequential");
        let c = t.begin(Layer::Encode, b);
        let d = t.then(c, Layer::Decode, c.index());
        t.end(d);
        let spans = t.spans();
        assert_eq!(spans[2].end_ns, spans[3].start_ns, "one clock read");
        assert_eq!((spans[3].layer, spans[3].parent), (Layer::Decode, 2));
        let totals = t.totals_since(0);
        assert_eq!(totals[Layer::OnClient as usize].count, 1);
        assert_eq!(totals[Layer::OnGame as usize].count, 1);
        assert_eq!(t.totals_since(u64::MAX)[Layer::OnGame as usize].count, 0);
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("core.server.on_game,1,0,9,"));
    }

    #[test]
    fn layer_table_is_in_declaration_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
    }
}
