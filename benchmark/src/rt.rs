//! The real-time, open-loop run: a live cluster behind its TCP gateway.
//!
//! Two benchmark threads drive it. The *generator* owns the in-process
//! crowd: it sends each client's ops when they fall due and drains every
//! client once per batch interval. The *probe* thread owns the only two
//! sockets — a pair of real TCP clients — and both writes their ops and
//! reads, decodes and applies what the gateway sends them. Probe
//! latencies run from an op's *due* time, so a stalled generator or
//! server shows as latency, not as reduced load.

use crate::procfs;
use crate::stats;
use crate::sut::{Applied, Crowd, ProbeEvent, ProbePair, RtWorld};
use crate::workload::{Op, OpKind, Schedule, Spec, TICK_US};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A probe op not applied by its peer within this long has failed.
pub const FAIL_AFTER_MS: f64 = 1_000.0;
/// The paper's playability bound: an op applied later than this is late.
pub const LATE_AFTER_MS: f64 = 150.0;
/// Set-up gives up (and the run fails) after this long.
pub const SETUP_TIMEOUT_S: f64 = 6.0;
/// Pause between "steady state reached" and the measured window.
pub const SETTLE_S: f64 = 1.0;
/// Slice length of the tail-latency figure, seconds: ~210 probe samples.
pub const TAIL_SLICE_S: f64 = 2.0;
/// CPU and memory are read once per slice of the measured window.
const SLICE_US: u64 = 500_000;
/// The generator never wakes more often than this.
const MIN_WAKE_GAP: Duration = Duration::from_millis(1);

/// How long a schedule must be to cover set-up, settling, `seconds` of
/// measurement and the grace period for stragglers.
pub fn horizon_us(seconds: f64) -> u64 {
    ((SETUP_TIMEOUT_S + SETTLE_S + seconds + FAIL_AFTER_MS / 1e3) * 1e6) as u64
}

/// State shared between the main thread and the two benchmark threads.
/// Flags and window bounds publish no other data, so relaxed ordering
/// would do; `SeqCst` is used for the window so a thread that sees `to`
/// also sees `from`.
struct Shared {
    t0: Instant,
    stop: AtomicBool,
    probes_linked: AtomicBool,
    failed: AtomicBool,
    probe_servers: [AtomicU32; 2],
    measure_from_us: AtomicU64,
    measure_to_us: AtomicU64,
    generator_tid: AtomicU32,
    probe_tid: AtomicU32,
}

impl Shared {
    fn clock_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn window(&self) -> (u64, u64) {
        let to = self.measure_to_us.load(Ordering::SeqCst);
        (self.measure_from_us.load(Ordering::SeqCst), to)
    }

    fn in_window(&self, due_us: u64) -> bool {
        let (from, to) = self.window();
        (from..to).contains(&due_us)
    }

    /// Whether everything due inside the window, plus the grace period,
    /// is behind us.
    fn finished(&self, now_us: u64) -> bool {
        let (_, to) = self.window();
        self.stop.load(Ordering::SeqCst)
            || (to != u64::MAX && now_us >= to + (FAIL_AFTER_MS * 1e3) as u64)
    }
}

/// What the generator thread measured.
#[derive(Debug, Default)]
struct GeneratorReport {
    /// `now − due` of every crowd op sent inside the window, ms.
    lateness_ms: Vec<f32>,
    /// Crowd ops sent inside the window.
    ops: u64,
    /// Time spent inside `RtClient::drain` during the window, µs.
    drain_us: f64,
    /// Batch items those drains applied.
    drained_items: u64,
    /// Server switches the crowd followed, whole run.
    switches: u64,
}

/// What the probe thread measured.
#[derive(Debug, Default)]
struct ProbeReport {
    /// `(due µs, due → applied-by-peer ms)` per op due inside the window.
    apply_ms: Vec<(u64, f64)>,
    /// Due → `Ack` received, ms, per action due inside the window.
    ack_ms: Vec<f64>,
    /// Socket write → `Ack` received, µs.
    ack_rtt_us: Vec<f64>,
    /// `now − due` at the socket write, ms.
    lateness_ms: Vec<f32>,
    /// Probe ops due inside the window.
    attempted: u64,
    /// Of those, never applied by the peer (or later than
    /// [`FAIL_AFTER_MS`]), plus unacknowledged actions.
    failed: u64,
    /// Of those applied, later than [`LATE_AFTER_MS`].
    late: u64,
    /// Why the run is invalid, if it is.
    violation: Option<String>,
}

/// Everything one real-time run produced.
#[derive(Debug, Default)]
pub struct RtResult {
    /// Start → steady state, per set-up attempt, seconds.
    pub setup_s: Vec<f64>,
    /// Due → applied-by-peer latencies, ms.
    pub apply_ms: Vec<f64>,
    /// The tail of a typical stretch of the run: the window is cut into
    /// [`TAIL_SLICE_S`]-second slices by due time, each slice gives the
    /// highest percentile up to p95 that leaves ten samples beyond it, and
    /// this is the median slice. A stall of the machine lands in one slice
    /// or two and cannot move it; the whole-window p99 it would move is
    /// reported beside it.
    pub apply_tail_ms: f64,
    /// The percentile the slices supported (95 unless the probe rate or
    /// the slice length was cut).
    pub apply_tail_p: f64,
    /// Due → acknowledged latencies of probe actions, ms.
    pub ack_ms: Vec<f64>,
    /// Socket write → `Ack`, µs.
    pub ack_rtt_us: Vec<f64>,
    /// Probe ops due in the window.
    pub attempted: u64,
    /// Probe ops that failed.
    pub failed: u64,
    /// Probe ops applied late.
    pub late: u64,
    /// Crowd ops sent in the window.
    pub crowd_ops: u64,
    /// Wall seconds the window took.
    pub window_s: f64,
    /// CPU and memory slices it was cut into.
    pub slices: u64,
    /// CPU of every thread but the benchmark's own, ms per wall second:
    /// the first quartile over the window's slices.
    pub sut_cpu_ms_per_s: f64,
    /// The benchmark's own threads' CPU, ms per wall second (first
    /// quartile of the slices).
    pub bench_cpu_ms_per_s: f64,
    /// Median `VmRSS` over the window's slices, MiB.
    pub rss_mb: f64,
    /// `VmHWM` after the run, MiB.
    pub peak_rss_mb: f64,
    /// p99 of `now − due` over every op sent in the window, ms.
    pub lateness_p99_ms: f64,
    /// Time inside `RtClient::drain` per item applied, µs.
    pub drain_us_per_item: f64,
    /// Server switches the crowd followed.
    pub crowd_switches: u64,
    /// Servers the probes ended on.
    pub probe_servers: [u32; 2],
    /// Why the run is invalid, if it is.
    pub violation: Option<String>,
}

/// Sends the crowd's ops as they fall due and drains every client once
/// per batch interval, a slice per wake-up.
fn generator(shared: &Shared, spec: &Spec, ops: &[Op], crowd: &mut [Crowd]) -> GeneratorReport {
    shared
        .generator_tid
        .store(procfs::current_tid().unwrap_or(0), Ordering::SeqCst);
    let mut report = GeneratorReport::default();
    let mut next = 0usize;
    let mut drain_cursor = 0usize;
    // Clients drained per wake-up so a full round takes one tick.
    let wakes_per_tick = (TICK_US / MIN_WAKE_GAP.as_micros() as u64) as usize;
    let slice = crowd.len().div_ceil(wakes_per_tick).max(1);
    loop {
        let woke = Instant::now();
        let now_us = shared.clock_us();
        if shared.finished(now_us) {
            break;
        }
        while let Some(op) = ops.get(next).filter(|op| op.due_us <= now_us) {
            next += 1;
            if spec.probe_index(op.client).is_some() {
                continue;
            }
            crowd[op.client as usize].send(op.kind, op.pos);
            if shared.in_window(op.due_us) {
                report.ops += 1;
                report
                    .lateness_ms
                    .push((shared.clock_us() - op.due_us) as f32 / 1e3);
            }
        }
        let measuring = shared.in_window(now_us);
        let t = Instant::now();
        let mut items = 0;
        for _ in 0..slice.min(crowd.len()) {
            items += crowd[drain_cursor].drain();
            drain_cursor = (drain_cursor + 1) % crowd.len();
        }
        if measuring {
            report.drain_us += t.elapsed().as_secs_f64() * 1e6;
            report.drained_items += items;
        }
        // A fixed cadence: every wake-up sends what fell due and drains
        // one slice, so a full drain round takes one batch interval.
        std::thread::sleep(MIN_WAKE_GAP.saturating_sub(woke.elapsed()));
    }
    report.switches = crowd.iter().map(Crowd::switches).sum();
    report
}

/// One reading of the process's CPU clocks and memory.
struct Sample {
    at: Instant,
    /// CPU seconds of every live thread.
    all: f64,
    /// CPU seconds of the benchmark's own threads.
    own: f64,
    rss_mb: f64,
}

/// One probe op on the wire, awaiting its peer's apply.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due_us: u64,
    measured: bool,
    applied: bool,
}

/// Writes the probes' ops when due and applies everything the gateway
/// sends either probe, timing each op from its due instant to the peer's
/// apply of an update at least as fresh.
fn probe_loop(shared: &Shared, spec: &Spec, ops: &[Op], mut pair: ProbePair) -> ProbeReport {
    shared
        .probe_tid
        .store(procfs::current_tid().unwrap_or(0), Ordering::SeqCst);
    let mut report = ProbeReport::default();
    let probe_ops: Vec<&Op> = ops
        .iter()
        .filter(|op| spec.probe_index(op.client).is_some())
        .collect();
    let mut next = 0usize;
    // Index = sequence number; slot 0 is the join position.
    let mut sent: [Vec<Sent>; 2] = [Vec::new(), Vec::new()];
    for s in &mut sent {
        s.push(Sent {
            due_us: 0,
            measured: false,
            applied: true,
        });
    }
    let mut applied_upto = [0u32; 2];
    let mut entity_of = [0u64; 2];
    let mut awaiting_ack: [VecDeque<(u64, Instant, bool)>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut sightings: Vec<(usize, u64, f64, f64)> = Vec::new();
    loop {
        let now_us = shared.clock_us();
        if shared.finished(now_us) {
            break;
        }
        while let Some(op) = probe_ops.get(next).filter(|op| op.due_us <= now_us) {
            next += 1;
            let p = spec.probe_index(op.client).expect("filtered to probe ops");
            let measured = shared.in_window(op.due_us);
            let wrote = Instant::now();
            if !pair.send(p, op.kind, op.pos) {
                report.violation = Some(format!("probe {p}: socket write failed"));
                shared.failed.store(true, Ordering::SeqCst);
                return report;
            }
            sent[p].push(Sent {
                due_us: op.due_us,
                measured,
                applied: false,
            });
            if op.kind == OpKind::Action {
                awaiting_ack[p].push_back((op.due_us, wrote, measured));
            }
            if measured {
                report.attempted += 1;
                report
                    .lateness_ms
                    .push((shared.clock_us() - op.due_us) as f32 / 1e3);
            }
        }
        let next_due = probe_ops.get(next).map_or(now_us + TICK_US, |op| op.due_us);
        let until = shared.t0 + Duration::from_micros(next_due.min(now_us + TICK_US));
        sightings.clear();
        let event = pair.wait(until, |p, entity, x, y| sightings.push((p, entity, x, y)));
        let applied_us = shared.clock_us();
        match event {
            ProbeEvent::Due => {}
            ProbeEvent::Failed(p) => {
                report.violation = Some(format!("probe {p}: connection or stream failed"));
                shared.failed.store(true, Ordering::SeqCst);
                return report;
            }
            ProbeEvent::Applied(p, Applied::Joined(server)) => {
                shared.probe_servers[p].store(server, Ordering::SeqCst);
            }
            ProbeEvent::Applied(p, Applied::Ack) => {
                if let Some((due_us, wrote, measured)) = awaiting_ack[p].pop_front() {
                    if measured {
                        report.ack_ms.push((applied_us - due_us) as f64 / 1e3);
                        report.ack_rtt_us.push(wrote.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
            ProbeEvent::Applied(_, Applied::Items(_)) => {
                for &(p, entity, x, y) in &sightings {
                    let Some((q, seq)) = spec.decode_probe(x, y) else {
                        continue;
                    };
                    // A probe is told about its peer, never about itself,
                    // and the peer keeps one entity id throughout.
                    let known = std::mem::replace(&mut entity_of[q], entity);
                    if q == p || seq as usize >= sent[q].len() || (known != 0 && known != entity) {
                        report.violation = Some(format!(
                            "probe {p} applied an impossible item: probe {q} seq {seq} entity {entity}"
                        ));
                        shared.failed.store(true, Ordering::SeqCst);
                        return report;
                    }
                    // Per-entity superseding is by design: an update at
                    // least as fresh as op k applies op k.
                    for k in applied_upto[q] + 1..=seq {
                        let s = &mut sent[q][k as usize];
                        s.applied = true;
                        if s.measured {
                            let ms = (applied_us - s.due_us) as f64 / 1e3;
                            if ms > FAIL_AFTER_MS {
                                report.failed += 1;
                            } else {
                                report.late += u64::from(ms > LATE_AFTER_MS);
                                report.apply_ms.push((s.due_us, ms));
                            }
                        }
                    }
                    applied_upto[q] = applied_upto[q].max(seq);
                }
                if applied_upto.iter().all(|s| *s > 0) {
                    shared.probes_linked.store(true, Ordering::SeqCst);
                }
            }
            ProbeEvent::Applied(..) => {}
        }
    }
    report.failed += sent
        .iter()
        .flatten()
        .filter(|s| s.measured && !s.applied)
        .count() as u64;
    report.failed += awaiting_ack
        .iter()
        .flatten()
        .filter(|(_, _, measured)| *measured)
        .count() as u64;
    pair.leave();
    report
}

/// One set-up attempt brought to steady state, with its threads running.
struct Live<'s> {
    shared: Arc<Shared>,
    world: RtWorld,
    generator: std::thread::ScopedJoinHandle<'s, (GeneratorReport, Vec<Crowd>)>,
    probe: std::thread::ScopedJoinHandle<'s, ProbeReport>,
    setup_s: f64,
}

/// Starts a cluster, joins crowd and probes and waits until every join
/// is accepted; then starts the schedule and waits for steady state: on a
/// split workload the one split has happened and both primaries hold a
/// warm standby. That is the timed set-up. Untimed, it then waits until
/// each probe has applied an update from the other.
fn set_up<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    spec: &'static Spec,
    schedule: &'s Schedule,
) -> Result<Live<'s>, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(SETUP_TIMEOUT_S);
    let timed_out = || format!("no steady state within {SETUP_TIMEOUT_S} s");
    let world = RtWorld::start(spec).map_err(|e| format!("cluster start: {e}"))?;
    let mut crowd: Vec<Crowd> = schedule.starts[..spec.clients as usize]
        .iter()
        .map(|pos| world.join_crowd(*pos))
        .collect();
    let mut pair = world
        .connect_probes([spec.probe_pos(0, 0), spec.probe_pos(1, 0)])
        .map_err(|e| format!("probe connect: {e}"))?;
    let mut probe_servers = [0u32; 2];
    while probe_servers.contains(&0) {
        match pair.wait(deadline, |_, _, _, _| {}) {
            ProbeEvent::Applied(p, Applied::Joined(server)) => probe_servers[p] = server,
            ProbeEvent::Applied(..) => {}
            ProbeEvent::Due => return Err(timed_out()),
            ProbeEvent::Failed(p) => return Err(format!("probe {p} failed while joining")),
        }
    }
    while !crowd.iter().all(Crowd::joined) {
        if Instant::now() > deadline {
            return Err(timed_out());
        }
        for c in crowd.iter_mut().filter(|c| !c.joined()) {
            c.drain();
        }
        std::thread::yield_now();
    }
    let shared = Arc::new(Shared {
        t0: Instant::now(),
        stop: AtomicBool::new(false),
        probes_linked: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        probe_servers: probe_servers.map(AtomicU32::new),
        measure_from_us: AtomicU64::new(u64::MAX),
        measure_to_us: AtomicU64::new(u64::MAX),
        generator_tid: AtomicU32::new(0),
        probe_tid: AtomicU32::new(0),
    });
    let generator = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bench-generator".into())
            .spawn_scoped(scope, move || {
                let report = generator(&shared, spec, &schedule.ops, &mut crowd);
                (report, crowd)
            })
            .map_err(|e| format!("spawn generator: {e}"))?
    };
    let probe = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn_scoped(scope, move || {
                probe_loop(&shared, spec, &schedule.ops, pair)
            })
            .map_err(|e| format!("spawn probe: {e}"))?
    };
    let mut live = Live {
        shared,
        world,
        generator,
        probe,
        setup_s: 0.0,
    };
    let split_steady = |world: &RtWorld| {
        let views = world.views();
        let active: Vec<_> = views.iter().filter(|v| v.active).collect();
        active.len() == 2
            && active.iter().all(|v| v.standby_warm)
            && views.iter().map(|v| v.splits).sum::<u64>() == 1
    };
    let mut outcome = Ok(());
    loop {
        if live.setup_s == 0.0 && (spec.split.is_none() || split_steady(&live.world)) {
            live.setup_s = started.elapsed().as_secs_f64();
        }
        if live.setup_s > 0.0 && live.shared.probes_linked.load(Ordering::SeqCst) {
            break;
        }
        if live.shared.failed.load(Ordering::SeqCst) {
            outcome = Err("a probe failed during set-up".to_string());
            break;
        }
        if Instant::now() > deadline {
            outcome = Err(timed_out());
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    match outcome {
        Ok(()) => Ok(live),
        Err(e) => {
            let _ = tear_down(live);
            Err(e)
        }
    }
}

/// Stops the threads, makes every client leave and shuts the nodes down.
fn tear_down(live: Live<'_>) -> Result<(GeneratorReport, ProbeReport), String> {
    live.shared.stop.store(true, Ordering::SeqCst);
    let generated = live.generator.join();
    let probed = live.probe.join();
    let (generated, crowd) = generated.map_err(|_| "generator thread panicked".to_string())?;
    for c in crowd {
        c.leave();
    }
    live.world.shutdown();
    let probed = probed.map_err(|_| "probe thread panicked".to_string())?;
    Ok((generated, probed))
}

/// Runs the workload in real time: `setups` set-ups (all but the last
/// torn down again straight away), then `seconds` of measurement on the
/// last one.
pub fn run(
    spec: &'static Spec,
    schedule: &Schedule,
    seconds: f64,
    setups: usize,
) -> Result<RtResult, String> {
    let mut result = RtResult::default();
    let main_tid = procfs::current_tid().ok_or("cannot read /proc/thread-self")?;
    let mut window_from_us = 0;
    for attempt in 0..setups {
        let last = attempt + 1 == setups;
        let (generated, probed) = std::thread::scope(|scope| {
            let live = set_up(scope, spec, schedule)?;
            result.setup_s.push(live.setup_s);
            if !last {
                return tear_down(live);
            }
            let shared = live.shared.clone();
            let from_us = shared.clock_us() + (SETTLE_S * 1e6) as u64;
            window_from_us = from_us;
            let to_us = from_us + (seconds * 1e6) as u64;
            shared.measure_from_us.store(from_us, Ordering::SeqCst);
            shared.measure_to_us.store(to_us, Ordering::SeqCst);
            let tids = [
                main_tid,
                shared.generator_tid.load(Ordering::SeqCst),
                shared.probe_tid.load(Ordering::SeqCst),
            ];
            let sample = || -> Result<Sample, String> {
                let all = procfs::live_threads_cpu_secs().ok_or("cannot read /proc/self/task")?;
                let mut own = 0.0;
                for tid in tids {
                    own += procfs::thread_cpu_secs(tid)
                        .ok_or_else(|| format!("cannot read cpu of thread {tid}"))?;
                }
                let (rss_mb, _) = procfs::rss_mb().ok_or("cannot read VmRSS")?;
                Ok(Sample {
                    at: Instant::now(),
                    all,
                    own,
                    rss_mb,
                })
            };
            let sleep_until = |us: u64| {
                std::thread::sleep(Duration::from_micros(us.saturating_sub(shared.clock_us())));
            };
            sleep_until(from_us);
            let mut samples = vec![sample()];
            let mut next_us = from_us;
            while next_us < to_us {
                next_us = (next_us + SLICE_US).min(to_us);
                sleep_until(next_us);
                samples.push(sample());
            }
            // Let stragglers land (or fail) before stopping.
            sleep_until(to_us + (FAIL_AFTER_MS * 1e3) as u64);
            result.probe_servers = [
                shared.probe_servers[0].load(Ordering::SeqCst),
                shared.probe_servers[1].load(Ordering::SeqCst),
            ];
            let reports = tear_down(live)?;
            let samples = samples.into_iter().collect::<Result<Vec<_>, _>>()?;
            // One reading per slice: `(sut, own)`. This sandbox's cores
            // each drop, for a second or ten at a time, to about 70 % of
            // their speed, which stretches CPU time and never shrinks it;
            // the first quartile of the slices is the cost undisturbed.
            let slices: Vec<(f64, f64)> = samples
                .windows(2)
                .map(|w| {
                    let dt = w[1].at.duration_since(w[0].at).as_secs_f64();
                    let own = w[1].own - w[0].own;
                    (((w[1].all - w[0].all) - own) / dt * 1e3, own / dt * 1e3)
                })
                .collect();
            let low_quartile = |f: &dyn Fn(&(f64, f64)) -> f64| {
                stats::quartiles(&slices.iter().map(f).collect::<Vec<_>>()).map_or(0.0, |q| q.0)
            };
            result.slices = slices.len() as u64;
            result.sut_cpu_ms_per_s = low_quartile(&|s| s.0);
            result.bench_cpu_ms_per_s = low_quartile(&|s| s.1);
            result.rss_mb =
                stats::median(&samples.iter().map(|s| s.rss_mb).collect::<Vec<_>>()).unwrap_or(0.0);
            let first = samples.first().expect("at least two samples");
            let last = samples.last().expect("at least two samples");
            result.window_s = last.at.duration_since(first.at).as_secs_f64();
            Ok(reports)
        })?;
        if !last {
            continue;
        }
        result.peak_rss_mb = procfs::rss_mb().ok_or("cannot read VmHWM")?.1;
        let mut lateness: Vec<f64> = generated
            .lateness_ms
            .iter()
            .chain(&probed.lateness_ms)
            .map(|ms| f64::from(*ms))
            .collect();
        lateness.sort_by(f64::total_cmp);
        if !lateness.is_empty() {
            result.lateness_p99_ms = stats::percentile_sorted(&lateness, 99.0);
        }
        if generated.drained_items > 0 {
            result.drain_us_per_item = generated.drain_us / generated.drained_items as f64;
        }
        result.crowd_ops = generated.ops;
        result.crowd_switches = generated.switches;
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for (due_us, ms) in &probed.apply_ms {
            let slice = ((due_us - window_from_us) as f64 / (TAIL_SLICE_S * 1e6)) as usize;
            slices.resize(slices.len().max(slice + 1), Vec::new());
            slices[slice].push(*ms);
        }
        let tails: Vec<stats::Tail> = slices.iter().filter_map(|s| stats::tail(s, 95.0)).collect();
        result.apply_tail_ms =
            stats::median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>()).unwrap_or(0.0);
        result.apply_tail_p = tails.iter().map(|t| t.tail_p).fold(95.0, f64::min);
        result.apply_ms = probed.apply_ms.into_iter().map(|(_, ms)| ms).collect();
        result.ack_ms = probed.ack_ms;
        result.ack_rtt_us = probed.ack_rtt_us;
        result.attempted = probed.attempted;
        result.failed = probed.failed;
        result.late = probed.late;
        result.violation = probed.violation;
        if spec.split.is_some() && result.probe_servers[0] == result.probe_servers[1] {
            result.violation.get_or_insert(format!(
                "split probes ended on one server: {:?}",
                result.probe_servers
            ));
        }
    }
    Ok(result)
}
