//! The capacity run: the schedule replayed in virtual time, closed loop,
//! on one thread, as fast as the program goes.
//!
//! Every 50 ms boundary ticks every node *before* that window's ops, so
//! flushes fire from `on_tick` and never inline in `on_client`. Every
//! client-bound message is encoded, decoded, reconstructed and applied
//! (see [`crate::sut::Sim`]), so codec and apply cost and the exact wire
//! bytes are part of the number. The same replay run with the tracer on
//! gives the per-layer breakdown.

use crate::alloc;
use crate::calib;
use crate::stats;
use crate::sut::{GameCounts, MatrixCounts, NodeTotals, Sim, StageSums, Tally};
use crate::trace::{LayerTotal, Tracer, LAYERS};
use crate::workload::{Schedule, Spec, TICK_US};

/// Virtual seconds replayed before the measured window: enough for the
/// split workload to split once and warm both standbys.
pub const WARMUP_VIRTUAL_US: u64 = 3_000_000;

/// What one replay measured over its window.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall seconds the measured window took.
    pub wall_s: f64,
    /// Wall seconds one tick window takes at reference speed: the median
    /// over ticks of the tick's wall time divided by the slowdown the
    /// calibration kernel showed right after it (see [`crate::calib`]).
    /// Every tick carries the same number of ops.
    pub tick_wall_s: f64,
    /// Median wall seconds of the calibration kernel between ticks.
    pub kernel_s: f64,
    /// Client ops per tick window.
    pub events_per_tick: f64,
    /// Virtual seconds it covers.
    pub virtual_s: f64,
    /// Client ops replayed in it.
    pub events: u64,
    /// Checks and exact counts, whole replay (warm-up included).
    pub whole: Tally,
    /// The same, measured window only.
    pub window: Tally,
    /// Node counters over the window.
    pub nodes: NodeTotals,
    /// Stage histograms over the window (zero unless traced).
    pub stages: StageSums,
    /// Per-layer span totals over the window (zero unless traced).
    pub layers: [LayerTotal; LAYERS],
    /// Servers the two probes ended on.
    pub probe_servers: [Option<u32>; 2],
    /// Why the replay's outputs are wrong, if they are.
    pub violation: Option<String>,
}

/// `$a - $b` over the named counter fields; every other field is `$a`'s.
macro_rules! since {
    ($a:expr, $b:expr, $T:ident { $($field:ident),* }) => {
        {
            // With every field named the rest pattern is empty: harmless.
            #[allow(clippy::needless_update)]
            let delta = $T { $($field: $a.$field - $b.$field,)* ..$a.clone() };
            delta
        }
    };
}

fn sub_stages(a: &StageSums, b: &StageSums) -> StageSums {
    let sub = |x: (u64, f64), y: (u64, f64)| (x.0 - y.0, x.1 - y.1);
    StageSums {
        query: sub(a.query, b.query),
        tier: sub(a.tier, b.tier),
        predict: sub(a.predict, b.predict),
        policy: sub(a.policy, b.policy),
        delta: sub(a.delta, b.delta),
        flush: sub(a.flush, b.flush),
    }
}

/// Replays `schedule` for `warmup_us` (normally [`WARMUP_VIRTUAL_US`])
/// of warm-up plus `measure_us` of measurement, both whole ticks. Returns
/// the measurements and the tracer (holding the spans when `traced`).
pub fn run(
    spec: &Spec,
    schedule: &Schedule,
    warmup_us: u64,
    measure_us: u64,
    traced: bool,
) -> (Replay, Tracer) {
    assert!(warmup_us.is_multiple_of(TICK_US) && measure_us >= TICK_US);
    let end_us = warmup_us + measure_us;
    let mut sim = Sim::new(spec, &schedule.starts, traced);
    let sweep_every = sim.sweep_every_us();
    let mut next_op = 0usize;
    let mut start = None;
    let mut events = 0u64;
    let mut tick_walls: Vec<f64> = Vec::with_capacity((measure_us / TICK_US) as usize);
    let mut kernel_walls: Vec<f64> = Vec::with_capacity(tick_walls.capacity());
    // Wall time spent in the calibration kernel, kept out of the replay's.
    let mut kernel_ns = 0u64;
    let mut now_us = 0u64;
    while now_us < end_us {
        if now_us == warmup_us {
            start = Some((
                sim.tally.clone(),
                sim.totals(),
                sim.stage_sums(),
                sim.tracer.now_ns(),
            ));
            alloc::arm(traced);
        }
        let tick_started = sim.tracer.now_ns();
        sim.tracer.set_event((now_us / TICK_US) as u32 | 1 << 31);
        sim.tick(now_us);
        if now_us > 0 && now_us.is_multiple_of(sweep_every) {
            sim.sweep(now_us);
        }
        let window_end = now_us + TICK_US;
        while let Some(op) = schedule
            .ops
            .get(next_op)
            .filter(|op| op.due_us < window_end)
        {
            sim.tracer.set_event(next_op as u32);
            sim.client_op(op);
            next_op += 1;
            events += u64::from(start.is_some());
        }
        if start.is_some() {
            let tick_wall = (sim.tracer.now_ns() - tick_started) as f64 / 1e9;
            let kernel_started = sim.tracer.now_ns();
            let kernel_wall = calib::run();
            kernel_ns += sim.tracer.now_ns() - kernel_started;
            tick_walls.push(tick_wall / calib::slowdown(kernel_wall));
            kernel_walls.push(kernel_wall);
        }
        now_us = window_end;
    }
    alloc::arm(false);
    let (tally0, totals0, stages0, from_ns) =
        start.expect("the measured window starts on a tick boundary");
    let wall_ns = (sim.tracer.now_ns() - from_ns - kernel_ns) as f64;
    let totals = sim.totals();
    let whole = sim.tally.clone();
    let nodes = NodeTotals {
        game: since!(
            totals.game,
            totals0.game,
            GameCounts {
                events,
                fanned,
                sampled_out,
                suppressed,
                rate_limited,
                dropped,
                batched,
                batches,
                keyframes,
                redirects,
                remote_updates,
                replica_batches_out,
                replica_bytes_out,
                replica_batches_in
            }
        ),
        matrix: since!(
            totals.matrix,
            totals0.matrix,
            MatrixCounts {
                packets_in,
                peer_updates_out
            }
        ),
        ..totals
    };
    let probe_servers = [
        sim.server_of(spec.probe_client(0)),
        sim.server_of(spec.probe_client(1)),
    ];
    let mut replay = Replay {
        wall_s: wall_ns / 1e9,
        tick_wall_s: stats::median(&tick_walls).unwrap_or(0.0),
        kernel_s: stats::median(&kernel_walls).unwrap_or(0.0),
        events_per_tick: events as f64 / tick_walls.len().max(1) as f64,
        virtual_s: measure_us as f64 / 1e6,
        events,
        window: since!(
            whole,
            tally0,
            Tally {
                frames,
                wire_bytes,
                batch_bytes,
                batches,
                items,
                acks,
                switches,
                coord_msgs,
                peer_msgs
            }
        ),
        whole,
        nodes,
        stages: sub_stages(&sim.stage_sums(), &stages0),
        layers: sim.tracer.totals_since(from_ns),
        probe_servers,
        violation: None,
    };
    replay.violation = check(spec, &replay, &totals, &totals0);
    (replay, sim.tracer)
}

/// The replay's output checks; `None` when every one holds.
fn check(spec: &Spec, r: &Replay, end: &NodeTotals, warm: &NodeTotals) -> Option<String> {
    let t = &r.whole;
    if t.bad_frames > 0 {
        return Some(format!(
            "{} frames did not decode to what was sent",
            t.bad_frames
        ));
    }
    if t.bad_batches > 0 {
        return Some(format!(
            "{} batches failed reconstruction or left the lattice",
            t.bad_batches
        ));
    }
    if t.ops_unroutable > 0 {
        return Some(format!("{} ops had no server to go to", t.ops_unroutable));
    }
    if t.items != end.game.batched {
        return Some(format!(
            "clients applied {} items, servers batched {}",
            t.items, end.game.batched
        ));
    }
    if r.events == 0 || r.nodes.game.events != r.events {
        return Some(format!(
            "{} ops replayed, servers processed {}",
            r.events, r.nodes.game.events
        ));
    }
    match spec.split {
        None if end.active != 1 || end.matrix.splits != 0 => Some(format!(
            "{} active servers on a one-server workload",
            end.active
        )),
        Some(_) if warm.active != 2 || warm.standbys_warm != 2 || end.matrix.splits != 1 => {
            Some(format!(
                "split workload not steady after warm-up: {} active, {} warm standbys, {} splits",
                warm.active, warm.standbys_warm, end.matrix.splits
            ))
        }
        Some(_) if r.probe_servers[0] == r.probe_servers[1] => {
            Some(format!("split probes on one server: {:?}", r.probe_servers))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Layer;
    use crate::workload::WORKLOADS;

    /// Short windows keep the suite quick; the split workload still gets
    /// the full warm-up it needs to split and warm its standbys.
    fn windows(spec: &Spec) -> (u64, u64) {
        match spec.split {
            Some(_) => (WARMUP_VIRTUAL_US, 500_000),
            None => (500_000, 500_000),
        }
    }

    #[test]
    fn two_replays_of_one_seed_agree_on_every_byte_and_count() {
        for spec in &WORKLOADS {
            let (warmup, measure) = windows(spec);
            let schedule = Schedule::generate(spec, 11, warmup + measure);
            let (a, _) = run(spec, &schedule, warmup, measure, false);
            let (b, _) = run(spec, &schedule, warmup, measure, false);
            let (t, tracer) = run(spec, &schedule, warmup, measure, true);
            assert_eq!(a.violation, None, "{}", spec.name);
            assert_eq!(t.violation, None, "{}", spec.name);
            assert_eq!(a.whole, b.whole, "{}", spec.name);
            assert_eq!(a.nodes, b.nodes, "{}", spec.name);
            assert_eq!(a.whole, t.whole, "{}: tracing changed the bytes", spec.name);
            assert_eq!(
                a.nodes, t.nodes,
                "{}: tracing changed the counts",
                spec.name
            );
            assert!(
                a.window.wire_bytes > 0 && a.window.items > 0,
                "{}",
                spec.name
            );
            assert_eq!(a.events, b.events);
            // Another seed gives other bytes.
            let other = Schedule::generate(spec, 12, warmup + measure);
            let (c, _) = run(spec, &other, warmup, measure, false);
            assert_ne!(a.whole.wire_digest, c.whole.wire_digest, "{}", spec.name);
            // Every span is closed, ordered, and caused by an earlier one.
            for (i, s) in tracer.spans().iter().enumerate() {
                assert!(s.start_ns <= s.end_ns);
                assert!(s.parent == crate::trace::NO_PARENT || (s.parent as usize) < i);
            }
            assert!(
                a.layers.iter().all(|l| l.count == 0),
                "untraced means no spans"
            );
            assert!(t.layers[Layer::OnClient as usize].count >= t.events);
            assert!(t.stages.flush.0 > 0, "telemetry histograms are read");
        }
    }

    #[test]
    fn the_workloads_exercise_the_layers_they_claim() {
        let count = |r: &Replay, l: Layer| r.layers[l as usize].count;
        for spec in &WORKLOADS {
            let (warmup, measure) = windows(spec);
            let schedule = Schedule::generate(spec, 5, warmup + measure);
            let (r, _) = run(spec, &schedule, warmup, measure, true);
            assert_eq!(r.violation, None, "{}", spec.name);
            let split = spec.split.is_some();
            assert_eq!(count(&r, Layer::OnPeer) > 0, split, "{}", spec.name);
            assert_eq!(count(&r, Layer::ReplicaApply) > 0, split, "{}", spec.name);
            assert_eq!(r.nodes.game.redirects > 0, split, "{}", spec.name);
            assert_eq!(
                r.nodes.game.suppressed > 0,
                spec.rings.is_some(),
                "{}",
                spec.name
            );
            assert_eq!(
                r.nodes.game.sampled_out > 0,
                spec.rings.is_some(),
                "{}",
                spec.name
            );
            assert_eq!(r.nodes.game.rate_limited > 0, spec.name == "hotspot_dense");
            // Flushes are pinned to ticks: one flush per active node per
            // tick, none inline.
            let ticks = measure / TICK_US;
            assert_eq!(
                r.stages.flush.0,
                ticks * u64::from(r.nodes.active),
                "{}",
                spec.name
            );
        }
    }
}
