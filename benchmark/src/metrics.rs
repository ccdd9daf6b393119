//! The metric registry: every name the benchmark prints, with unit,
//! direction and — for end-to-end metrics — the regression bound, and
//! the arithmetic that derives each value from a run. `BENCHMARK.json`
//! repeats the registry; a test holds the two equal.

use crate::replay::Replay;
use crate::rt::RtResult;
use crate::stats;
use crate::trace::Layer;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as regressed (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a player or an operator sees. The bounds are sized against the
/// spread ten runs on ten seeds show on the two-core sandbox the
/// benchmark was sized on (see `README.md`); process CPU and resident
/// memory spread wider than any bound the contract allows there and are
/// listed per-layer instead.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("apply_latency_p50_ms", "ms", Lower, 0.20),
    e2e("apply_latency_p95_ms", "ms", Lower, 0.20),
    e2e("action_ack_p50_ms", "ms", Lower, 0.24),
    e2e("replay_events_per_s", "1/s", Higher, 0.15),
    e2e("wire_bytes_per_client_s", "B/s", Lower, 0.07),
];

/// One layer each; no bounds.
pub const PER_LAYER: &[Def] = &[
    layer("core.gameserver.on_client_us_per_event", "us", Lower),
    layer("core.gameserver.on_client_allocs_per_event", "count", Lower),
    layer("core.gameserver.on_matrix_us_per_call", "us", Lower),
    layer("interest.pipeline.query_us_per_event", "us", Lower),
    layer("interest.pipeline.tier_us_per_event", "us", Lower),
    layer("interest.pipeline.predict_us_per_event", "us", Lower),
    layer("core.gameserver.on_tick_us_per_flush", "us", Lower),
    layer("core.gameserver.on_tick_allocs_per_flush", "count", Lower),
    layer("core.gameserver.flush_overhead_us_per_flush", "us", Lower),
    layer("interest.pipeline.policy_us_per_flush", "us", Lower),
    layer("interest.pipeline.delta_us_per_flush", "us", Lower),
    layer("interest.pipeline.deliveries_per_event", "count", Higher),
    layer("interest.pipeline.rate_limited_share", "%", Lower),
    layer("interest.pipeline.suppressed_share", "%", Higher),
    layer("interest.pipeline.sampled_out_share", "%", Higher),
    layer("interest.pipeline.keyframe_share", "%", Lower),
    layer("core.codec_v2.encode_ns_per_item", "ns", Lower),
    layer("core.codec_v2.encode_allocs_per_batch", "count", Lower),
    layer("core.codec_v2.decode_ns_per_item", "ns", Lower),
    layer("core.codec_v2.bytes_per_item", "B", Lower),
    layer("core.messages.reconstruct_ns_per_item", "ns", Lower),
    layer("predict.extrapolator_update_ns_per_item", "ns", Lower),
    layer("rt.probe.apply_latency_p99_ms", "ms", Lower),
    layer("rt.probe.apply_latency_max_ms", "ms", Lower),
    layer("rt.client.drain_us_per_item", "us", Lower),
    layer("rt.process.sut_cpu_ms_per_s", "ms/s", Lower),
    layer("rt.process.rss_mb", "MiB", Lower),
    layer("rt.process.peak_rss_mb", "MiB", Lower),
    layer("core.server.on_game_us_per_event", "us", Lower),
    layer("core.server.on_peer_us_per_msg", "us", Lower),
    layer("core.server.peer_updates_per_event", "count", Lower),
    layer("core.coordinator.handle_us_per_msg", "us", Lower),
    layer("core.coordinator.msgs", "count", Lower),
    layer("replication.apply_us_per_batch", "us", Lower),
    layer("replication.ship_bytes_per_s", "B/s", Lower),
    layer("replication.batches", "count", Lower),
    layer("core.gameserver.handovers_per_s", "1/s", Higher),
    layer("rt.wire.ack_rtt_p95_us", "us", Lower),
    layer("bench.generator.lateness_p99_ms", "ms", Lower),
    layer("bench.generator.cpu_ms_per_s", "ms/s", Lower),
    layer("bench.replay.unattributed_share", "%", Lower),
    layer("bench.trace_overhead_share", "%", Lower),
    layer("bench.replay.send_path_share", "%", Lower),
    layer("bench.replay.ingest_path_share", "%", Lower),
    layer("bench.replay.traced_events_per_s", "1/s", Higher),
    layer("bench.rt.apply_latency_samples", "count", Higher),
    layer("bench.rt.ops_late", "count", Lower),
    layer("bench.rt.crowd_ops_per_s", "1/s", Higher),
    layer("bench.replay.calibration_kernel_us", "us", Lower),
    layer("bench.replay.raw_events_per_s", "1/s", Higher),
];

/// Looks a definition up in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// A measured value and the number of samples behind it (`0` for
/// ratios of exact counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it summarises.
    pub n: u64,
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, Value>;

fn put(values: &mut Values, name: &'static str, value: f64, n: u64) {
    debug_assert!(def(name).is_some(), "unregistered metric {name}");
    values.insert(name, Value { value, n });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The unattributed share a traced replay may show before the layer
/// breakdown counts as incomplete.
pub const MAX_UNATTRIBUTED: f64 = 0.10;
/// The generator lateness a quiet machine stays under, ms; beyond it a
/// run is flagged. (The sizing sandbox stalls a thread for tens to
/// hundreds of milliseconds every few minutes, so this cannot fail a run
/// there.)
pub const EXPECTED_LATENESS_P99_MS: f64 = 5.0;

/// The end-to-end metrics of one `--trace 0` run.
pub fn end_to_end(spec_clients: u32, rt: &RtResult, replay: &Replay) -> Result<Values, String> {
    let mut v = Values::new();
    let setup = stats::median(&rt.setup_s).ok_or("no set-up was timed")?;
    put(&mut v, "setup_s", setup, rt.setup_s.len() as u64);
    let apply = stats::tail(&rt.apply_ms, 99.0).ok_or("too few apply-latency samples")?;
    put(&mut v, "apply_latency_p50_ms", apply.p50, apply.n as u64);
    if rt.apply_tail_ms <= 0.0 {
        return Err("too few apply-latency samples per slice".into());
    }
    // The median 2 s slice's p95 (see `RtResult::apply_tail_ms`).
    put(
        &mut v,
        "apply_latency_p95_ms",
        rt.apply_tail_ms,
        apply.n as u64,
    );
    let ack = stats::median(&rt.ack_ms).ok_or("no action was acknowledged")?;
    put(&mut v, "action_ack_p50_ms", ack, rt.ack_ms.len() as u64);
    put(
        &mut v,
        "replay_events_per_s",
        ratio(replay.events_per_tick, replay.tick_wall_s),
        replay.events,
    );
    put(
        &mut v,
        "wire_bytes_per_client_s",
        ratio(
            replay.window.wire_bytes as f64,
            f64::from(spec_clients) * replay.virtual_s,
        ),
        replay.window.frames,
    );
    Ok(v)
}

/// The per-layer metrics of one `--trace 1` run: `traced` is the replay
/// with spans, allocation counting and telemetry on, `plain` the same
/// replay with all three off.
pub fn per_layer(rt: &RtResult, traced: &Replay, plain: &Replay) -> Values {
    let mut v = Values::new();
    let l = |layer: Layer| traced.layers[layer as usize];
    let us = |layer: Layer| l(layer).ns as f64 / 1e3;
    let events = traced.events as f64;
    let g = &traced.nodes.game;
    let st = &traced.stages;
    let flushes = st.flush.0 as f64;
    let items = traced.window.items as f64;

    put(
        &mut v,
        "core.gameserver.on_client_us_per_event",
        ratio(us(Layer::OnClient), events),
        traced.events,
    );
    put(
        &mut v,
        "core.gameserver.on_client_allocs_per_event",
        ratio(l(Layer::OnClient).allocs as f64, events),
        traced.events,
    );
    let on_matrix = l(Layer::OnMatrix);
    put(
        &mut v,
        "core.gameserver.on_matrix_us_per_call",
        ratio(us(Layer::OnMatrix), on_matrix.count as f64),
        on_matrix.count,
    );
    put(
        &mut v,
        "interest.pipeline.query_us_per_event",
        ratio(st.query.1, events),
        st.query.0,
    );
    put(
        &mut v,
        "interest.pipeline.tier_us_per_event",
        ratio(st.tier.1, events),
        st.tier.0,
    );
    put(
        &mut v,
        "interest.pipeline.predict_us_per_event",
        ratio(st.predict.1, events),
        st.predict.0,
    );
    put(
        &mut v,
        "core.gameserver.on_tick_us_per_flush",
        ratio(us(Layer::GameOnTick), flushes),
        st.flush.0,
    );
    put(
        &mut v,
        "core.gameserver.on_tick_allocs_per_flush",
        ratio(l(Layer::GameOnTick).allocs as f64, flushes),
        st.flush.0,
    );
    put(
        &mut v,
        "core.gameserver.flush_overhead_us_per_flush",
        ratio(us(Layer::GameOnTick) - st.policy.1 - st.delta.1, flushes),
        st.flush.0,
    );
    put(
        &mut v,
        "interest.pipeline.policy_us_per_flush",
        ratio(st.policy.1, flushes),
        st.policy.0,
    );
    put(
        &mut v,
        "interest.pipeline.delta_us_per_flush",
        ratio(st.delta.1, flushes),
        st.delta.0,
    );

    let candidates = (g.fanned + g.suppressed + g.sampled_out) as f64;
    put(
        &mut v,
        "interest.pipeline.deliveries_per_event",
        ratio(g.fanned as f64, events),
        0,
    );
    put(
        &mut v,
        "interest.pipeline.rate_limited_share",
        100.0 * ratio(g.rate_limited as f64, g.fanned as f64),
        0,
    );
    put(
        &mut v,
        "interest.pipeline.suppressed_share",
        100.0 * ratio(g.suppressed as f64, candidates),
        0,
    );
    put(
        &mut v,
        "interest.pipeline.sampled_out_share",
        100.0 * ratio(g.sampled_out as f64, candidates),
        0,
    );
    put(
        &mut v,
        "interest.pipeline.keyframe_share",
        100.0 * ratio(g.keyframes as f64, g.batched as f64),
        0,
    );

    let encode = l(Layer::Encode);
    put(
        &mut v,
        "core.codec_v2.encode_ns_per_item",
        ratio(encode.ns as f64, items),
        encode.count,
    );
    put(
        &mut v,
        "core.codec_v2.encode_allocs_per_batch",
        ratio(encode.allocs as f64, encode.count as f64),
        encode.count,
    );
    put(
        &mut v,
        "core.codec_v2.decode_ns_per_item",
        ratio(l(Layer::Decode).ns as f64, items),
        l(Layer::Decode).count,
    );
    put(
        &mut v,
        "core.codec_v2.bytes_per_item",
        ratio(traced.window.batch_bytes as f64, items),
        0,
    );
    put(
        &mut v,
        "core.messages.reconstruct_ns_per_item",
        ratio(l(Layer::Reconstruct).ns as f64, items),
        l(Layer::Reconstruct).count,
    );
    put(
        &mut v,
        "predict.extrapolator_update_ns_per_item",
        ratio(l(Layer::ExtrapUpdate).ns as f64, items),
        l(Layer::ExtrapUpdate).count,
    );
    // Whole-window tail by the percentile rule: p99, or the highest
    // percentile a short run leaves ten samples beyond.
    let samples = rt.apply_ms.len() as u64;
    let whole = stats::tail(&rt.apply_ms, 99.0);
    put(
        &mut v,
        "rt.probe.apply_latency_p99_ms",
        whole.map_or(0.0, |t| t.tail),
        samples,
    );
    put(
        &mut v,
        "rt.probe.apply_latency_max_ms",
        rt.apply_ms.iter().copied().fold(0.0, f64::max),
        samples,
    );
    put(
        &mut v,
        "rt.client.drain_us_per_item",
        rt.drain_us_per_item,
        rt.crowd_ops,
    );
    put(
        &mut v,
        "rt.process.sut_cpu_ms_per_s",
        rt.sut_cpu_ms_per_s,
        rt.slices,
    );
    put(&mut v, "rt.process.rss_mb", rt.rss_mb, rt.slices);
    put(&mut v, "rt.process.peak_rss_mb", rt.peak_rss_mb, 1);

    put(
        &mut v,
        "core.server.on_game_us_per_event",
        ratio(us(Layer::OnGame), events),
        l(Layer::OnGame).count,
    );
    put(
        &mut v,
        "core.server.on_peer_us_per_msg",
        ratio(us(Layer::OnPeer), l(Layer::OnPeer).count as f64),
        l(Layer::OnPeer).count,
    );
    put(
        &mut v,
        "core.server.peer_updates_per_event",
        ratio(traced.nodes.matrix.peer_updates_out as f64, events),
        0,
    );
    let coord = l(Layer::CoordHandle);
    put(
        &mut v,
        "core.coordinator.handle_us_per_msg",
        ratio(us(Layer::CoordHandle), coord.count as f64),
        coord.count,
    );
    put(
        &mut v,
        "core.coordinator.msgs",
        traced.window.coord_msgs as f64,
        0,
    );
    let apply = l(Layer::ReplicaApply);
    put(
        &mut v,
        "replication.apply_us_per_batch",
        ratio(us(Layer::ReplicaApply), apply.count as f64),
        apply.count,
    );
    put(
        &mut v,
        "replication.ship_bytes_per_s",
        ratio(g.replica_bytes_out as f64, traced.virtual_s),
        0,
    );
    put(
        &mut v,
        "replication.batches",
        g.replica_batches_out as f64,
        0,
    );
    put(
        &mut v,
        "core.gameserver.handovers_per_s",
        ratio(g.redirects as f64, traced.virtual_s),
        0,
    );

    let mut rtt = rt.ack_rtt_us.clone();
    rtt.sort_by(f64::total_cmp);
    let rtt_p95 = if rtt.is_empty() {
        0.0
    } else {
        stats::percentile_sorted(&rtt, 95.0)
    };
    put(&mut v, "rt.wire.ack_rtt_p95_us", rtt_p95, rtt.len() as u64);
    put(
        &mut v,
        "bench.generator.lateness_p99_ms",
        rt.lateness_p99_ms,
        rt.crowd_ops + rt.attempted,
    );
    put(
        &mut v,
        "bench.generator.cpu_ms_per_s",
        rt.bench_cpu_ms_per_s,
        rt.slices,
    );

    let wall_us = traced.wall_s * 1e6;
    let attributed: f64 = Layer::ALL.iter().map(|layer| us(*layer)).sum();
    put(
        &mut v,
        "bench.replay.unattributed_share",
        100.0 * ratio(wall_us - attributed, wall_us),
        0,
    );
    put(
        &mut v,
        "bench.trace_overhead_share",
        100.0 * (ratio(traced.tick_wall_s, plain.tick_wall_s) - 1.0),
        0,
    );
    let send = [
        Layer::GameOnTick,
        Layer::Encode,
        Layer::Decode,
        Layer::Reconstruct,
        Layer::ExtrapUpdate,
    ];
    let ingest = [Layer::OnClient, Layer::OnGame];
    let share = |layers: &[Layer]| 100.0 * ratio(layers.iter().map(|x| us(*x)).sum(), wall_us);
    put(&mut v, "bench.replay.send_path_share", share(&send), 0);
    put(&mut v, "bench.replay.ingest_path_share", share(&ingest), 0);
    put(
        &mut v,
        "bench.replay.traced_events_per_s",
        ratio(traced.events_per_tick, traced.tick_wall_s),
        traced.events,
    );
    put(
        &mut v,
        "bench.rt.apply_latency_samples",
        rt.apply_ms.len() as f64,
        0,
    );
    put(&mut v, "bench.rt.ops_late", rt.late as f64, 0);
    put(
        &mut v,
        "bench.replay.calibration_kernel_us",
        plain.kernel_s * 1e6,
        1,
    );
    put(
        &mut v,
        "bench.replay.raw_events_per_s",
        ratio(plain.events as f64, plain.wall_s),
        plain.events,
    );
    put(
        &mut v,
        "bench.rt.crowd_ops_per_s",
        ratio(rt.crowd_ops as f64, rt.window_s),
        rt.crowd_ops,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert_eq!(END_TO_END[0].name, "setup_s");
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound,
            Some(widest),
            "set-up has the largest bound"
        );
    }
}
