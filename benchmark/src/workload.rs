//! The four workloads and their input schedules.
//!
//! A schedule is a pure function of `(workload, seed, horizon)`: the
//! program under test only ever sees the generated `(due, client, op)`
//! list. Generation uses nothing but IEEE-exact arithmetic (`+ - * /`
//! and `sqrt`), so a schedule hashes the same on every machine.

use crate::stats::Fnv64;

/// Game tick and batch interval of every workload, µs.
pub const TICK_US: u64 = 50_000;
/// One lattice step of the server's origin quantisation (world units).
pub const QUANTUM: f64 = 1.0 / 256.0;
/// Payload of an action op, bytes.
pub const ACTION_BYTES: usize = 64;
/// A probe op is due every `PROBE_PERIOD_US`: the 50 ms flush interval
/// divided by the golden ratio squared. A probe rate the flush interval
/// divides (20 Hz, say) lands every op on the same phase of the flush
/// and the median latency then wanders with that phase from run to run;
/// at this most irrational of ratios the phases of any stretch of ops
/// cover the interval as evenly as points can.
pub const PROBE_PERIOD_US: u64 = 19_098;
/// Every `PROBE_ACTION_EVERY`-th probe op is an action (acknowledged).
const PROBE_ACTION_EVERY: u32 = 4;
/// A probe's x offset encodes its op sequence number in lattice steps;
/// this many steps keep a probe within a few units of its start.
pub const PROBE_MAX_OPS: u32 = 2_048;
/// Lattice rows (offsets from the probe's nominal y, in steps) reserved
/// for the two probes; crowd ops are nudged off them.
const PROBE_ROW_STEPS: [f64; 2] = [37.0, 91.0];

/// How the crowd moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Movement {
    /// Homes drawn from a gaussian around `center`; each client paces a
    /// small box around its home.
    Hotspot {
        /// Crowd centre.
        center: (f64, f64),
        /// Standard deviation of the homes.
        sigma: f64,
    },
    /// Uniform over the world; heading re-drawn about once a second.
    Roam {
        /// Speed, units/s.
        speed: f64,
    },
    /// Uniform over `[x0,x1]×[y0,y1]`; straight runs bouncing off its
    /// edges.
    Bounce {
        /// The rectangle `(x0, y0, x1, y1)`.
        area: (f64, f64, f64, f64),
        /// Speed, units/s.
        speed: f64,
    },
}

/// Multi-ring AOI and dead-reckoning settings (`racer_predict`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rings {
    /// Ring radii, ascending.
    pub radii: [f64; 3],
    /// Per-ring sampling rates.
    pub rates: [u32; 3],
    /// Per-ring prediction error budgets.
    pub budgets: [f64; 3],
    /// Ring from which payloads are stripped.
    pub position_only_ring: u8,
    /// Velocity lattice, units/s.
    pub velocity_quantum: f64,
}

/// Adaptive-split and replication settings (`split_roam`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Client count that flags overload.
    pub overload_clients: u32,
    /// Client count below which a server is underloaded.
    pub underload_clients: u32,
    /// Spare servers in the pool.
    pub pool_size: u32,
    /// Roaming hysteresis, units.
    pub handoff_margin: f64,
}

/// One workload: the knobs it sets and how its crowd moves. Every knob
/// not named here stays at the repository's default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Crowd size (the probe pair comes on top).
    pub clients: u32,
    /// World is `[0,side]²`.
    pub side: f64,
    /// Registered radius of visibility (consistency routing).
    pub radius: f64,
    /// Per-client vision radius (`0` inherits `radius`).
    pub vision_radius: f64,
    /// Per-client cap on items per flush.
    pub max_updates_per_flush: u32,
    /// Ring tiers and prediction, if any.
    pub rings: Option<Rings>,
    /// Split and replication, if any.
    pub split: Option<Split>,
    /// Crowd movement.
    pub movement: Movement,
    /// Nominal position of probe A; probe B sits 12 units to its right.
    pub probe_at: (f64, f64),
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hotspot_dense",
        why: "flash crowd inside one vision radius: policy, delta, batch rebuild, encode and apply do the work, ingest almost none",
        clients: 200,
        side: 800.0,
        radius: 100.0,
        vision_radius: 0.0,
        max_updates_per_flush: 128,
        rings: None,
        split: None,
        movement: Movement::Hotspot {
            center: (400.0, 400.0),
            sigma: 30.0,
        },
        probe_at: (392.0, 400.0),
    },
    Spec {
        name: "sparse_roam",
        why: "1000 spread-out walkers: ingest, forwarding and grid query dominate and flushes are small, so a send-path change must show no change here",
        clients: 1000,
        side: 800.0,
        radius: 50.0,
        vision_radius: 50.0,
        max_updates_per_flush: 128,
        rings: None,
        split: None,
        movement: Movement::Roam { speed: 10.0 },
        probe_at: (392.0, 400.0),
    },
    Spec {
        name: "racer_predict",
        why: "fast straight runs under rings, sampling, dead reckoning and payload stripping: the same flush layers used the adaptive way",
        clients: 400,
        side: 600.0,
        radius: 150.0,
        vision_radius: 0.0,
        max_updates_per_flush: 128,
        rings: Some(Rings {
            radii: [52.5, 97.5, 150.0],
            rates: [1, 2, 4],
            budgets: [0.0, 4.875, 7.5],
            position_only_ring: 2,
            velocity_quantum: 1.0,
        }),
        split: None,
        movement: Movement::Bounce {
            area: (0.0, 0.0, 600.0, 600.0),
            speed: 120.0,
        },
        probe_at: (292.0, 300.0),
    },
    Spec {
        name: "split_roam",
        why: "a crowd roaming across one split line with warm standbys: control plane, peer routing, handover and replication beside the data plane",
        clients: 400,
        side: 800.0,
        radius: 50.0,
        vision_radius: 50.0,
        max_updates_per_flush: 128,
        rings: None,
        split: Some(Split {
            overload_clients: 260,
            underload_clients: 20,
            pool_size: 3,
            handoff_margin: 15.0,
        }),
        movement: Movement::Bounce {
            area: (250.0, 100.0, 550.0, 700.0),
            speed: 40.0,
        },
        // A ends left of the x = 400 split line, B right of it.
        probe_at: (390.0, 400.0),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Clients in a run: the crowd plus the probe pair.
    pub fn total_clients(&self) -> u32 {
        self.clients + 2
    }

    /// Schedule index of probe `p` (0 or 1).
    pub fn probe_client(&self, p: usize) -> u32 {
        self.clients + p as u32
    }

    /// Which probe a schedule client index is, if any.
    pub fn probe_index(&self, client: u32) -> Option<usize> {
        (client >= self.clients).then(|| (client - self.clients) as usize)
    }

    /// Where probe `p` stands at its op number `seq`: the sequence number
    /// rides in the x coordinate, one lattice step per op.
    pub fn probe_pos(&self, p: usize, seq: u32) -> (f64, f64) {
        let x0 = self.probe_at.0 + 12.0 * p as f64;
        (x0 + f64::from(seq) * QUANTUM, self.probe_row(p))
    }

    /// The lattice row reserved for probe `p`.
    pub fn probe_row(&self, p: usize) -> f64 {
        self.probe_at.1 + PROBE_ROW_STEPS[p] * QUANTUM
    }

    /// Decodes an update origin seen on the wire: `(probe, seq)` when it
    /// lies on a probe's reserved row, at a lattice point of its track.
    pub fn decode_probe(&self, x: f64, y: f64) -> Option<(usize, u32)> {
        let p = (0..2).find(|p| y == self.probe_row(*p))?;
        let steps = (x - self.probe_pos(p, 0).0) / QUANTUM;
        (steps >= 0.0 && steps < f64::from(PROBE_MAX_OPS) && steps.fract() == 0.0)
            .then_some((p, steps as u32))
    }
}

/// What a client does at an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Position update.
    Move,
    /// Game action with an [`ACTION_BYTES`] payload (acknowledged).
    Action,
}

/// One scheduled client input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When the op is due, µs from schedule start.
    pub due_us: u64,
    /// Schedule client index (crowd first, then the two probes).
    pub client: u32,
    /// Move or action.
    pub kind: OpKind,
    /// Position the op reports.
    pub pos: (f64, f64),
}

/// A generated input schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Join position per client index.
    pub starts: Vec<(f64, f64)>,
    /// Ops ascending by `(due_us, client)`.
    pub ops: Vec<Op>,
}

/// SplitMix64: the schedule's only source of randomness.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, client)`, so one client's ops do
    /// not depend on how many another drew — nor on the horizon.
    fn stream(seed: u64, client: u32) -> Rng {
        let mut r = Rng(seed ^ 0x4d41_5452_4958_0000);
        r.0 = r.next_u64() ^ u64::from(client).wrapping_mul(0xd6e8_feb8_6659_fd93);
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Approximately standard normal (Irwin–Hall, twelve uniforms): exact
    /// arithmetic only, and tails clipped at ±6σ, which suits a crowd.
    fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }

    /// A unit vector, by rejection from the unit disc.
    fn direction(&mut self) -> (f64, f64) {
        loop {
            let (x, y) = (self.uniform(-1.0, 1.0), self.uniform(-1.0, 1.0));
            let r2 = x * x + y * y;
            if r2 > 1e-4 && r2 <= 1.0 {
                let r = r2.sqrt();
                return (x / r, y / r);
            }
        }
    }
}

/// A client walking straight at constant speed inside a box, bouncing
/// off its edges.
#[derive(Debug, Clone)]
struct Walker {
    pos: (f64, f64),
    dir: (f64, f64),
    speed: f64,
    area: (f64, f64, f64, f64),
    /// Steps between heading re-draws (`0` = never).
    redraw_every: u32,
}

impl Walker {
    fn step(&mut self, dt: f64, k: u32, rng: &mut Rng) {
        if self.redraw_every > 0 && k.is_multiple_of(self.redraw_every) {
            self.dir = rng.direction();
        }
        let (x0, y0, x1, y1) = self.area;
        let bounce = |p: f64, d: f64, lo: f64, hi: f64| {
            let q = p + d * self.speed * dt;
            if q < lo {
                (lo + (lo - q), -d)
            } else if q > hi {
                (hi - (q - hi), -d)
            } else {
                (q, d)
            }
        };
        let (x, dx) = bounce(self.pos.0, self.dir.0, x0, x1);
        let (y, dy) = bounce(self.pos.1, self.dir.1, y0, y1);
        self.pos = (x, y);
        self.dir = (dx, dy);
    }
}

/// Half-side of the box a hotspot client paces around its home, and its
/// pace.
const HOTSPOT_PACE_BOX: f64 = 3.0;
const HOTSPOT_PACE_SPEED: f64 = 5.0;
/// Steps between heading re-draws of a roaming client (1 s at 20 Hz).
const ROAM_REDRAW_STEPS: u32 = 20;
/// One op in this many is an action: 0.2 Hz at 20 Hz ops.
const CROWD_ACTION_ONE_IN: u64 = 100;

impl Schedule {
    /// Generates the schedule of `spec` for `seed`, covering
    /// `[0, horizon_us)`.
    pub fn generate(spec: &Spec, seed: u64, horizon_us: u64) -> Schedule {
        let world = (0.0, 0.0, spec.side, spec.side);
        let rows = [spec.probe_row(0), spec.probe_row(1)];
        // Keeps crowd origins off the probes' reserved lattice rows,
        // whichever way the server rounds.
        let off_rows = |(x, y): (f64, f64)| {
            if rows.iter().any(|r| (y - r).abs() < 2.0 * QUANTUM) {
                (x, y + 4.0 * QUANTUM)
            } else {
                (x, y)
            }
        };
        let dt = TICK_US as f64 / 1e6;
        let steps = horizon_us.div_ceil(TICK_US) as u32;
        let mut starts = Vec::with_capacity(spec.total_clients() as usize);
        let mut ops = Vec::with_capacity((steps * spec.clients) as usize + 256);
        for client in 0..spec.clients {
            let mut rng = Rng::stream(seed, client);
            let mut walker = match spec.movement {
                Movement::Hotspot { center, sigma } => {
                    let clip = |v: f64| v.clamp(HOTSPOT_PACE_BOX, spec.side - HOTSPOT_PACE_BOX);
                    let home = (
                        clip(center.0 + sigma * rng.normal()),
                        clip(center.1 + sigma * rng.normal()),
                    );
                    Walker {
                        pos: home,
                        dir: rng.direction(),
                        speed: HOTSPOT_PACE_SPEED,
                        area: (
                            home.0 - HOTSPOT_PACE_BOX,
                            home.1 - HOTSPOT_PACE_BOX,
                            home.0 + HOTSPOT_PACE_BOX,
                            home.1 + HOTSPOT_PACE_BOX,
                        ),
                        redraw_every: 0,
                    }
                }
                Movement::Roam { speed } => Walker {
                    pos: (rng.uniform(0.0, spec.side), rng.uniform(0.0, spec.side)),
                    dir: rng.direction(),
                    speed,
                    area: world,
                    redraw_every: ROAM_REDRAW_STEPS,
                },
                Movement::Bounce { area, speed } => Walker {
                    pos: (rng.uniform(area.0, area.2), rng.uniform(area.1, area.3)),
                    dir: rng.direction(),
                    speed,
                    area,
                    redraw_every: 0,
                },
            };
            starts.push(off_rows(walker.pos));
            // Each client ticks at 20 Hz on its own phase.
            let phase_us = rng.next_u64() % TICK_US;
            for k in 0..steps {
                let due_us = phase_us + u64::from(k) * TICK_US;
                if due_us >= horizon_us {
                    break;
                }
                walker.step(dt, k + 1, &mut rng);
                let kind = if rng.next_u64().is_multiple_of(CROWD_ACTION_ONE_IN) {
                    OpKind::Action
                } else {
                    OpKind::Move
                };
                ops.push(Op {
                    due_us,
                    client,
                    kind,
                    pos: off_rows(walker.pos),
                });
            }
        }
        for p in 0..2 {
            let mut rng = Rng::stream(seed, spec.probe_client(p));
            starts.push(spec.probe_pos(p, 0));
            let offset_us = rng.next_u64() % PROBE_PERIOD_US;
            for seq in 1..PROBE_MAX_OPS {
                let due_us = offset_us + u64::from(seq) * PROBE_PERIOD_US;
                if due_us >= horizon_us {
                    break;
                }
                ops.push(Op {
                    due_us,
                    client: spec.probe_client(p),
                    kind: if seq % PROBE_ACTION_EVERY == 0 {
                        OpKind::Action
                    } else {
                        OpKind::Move
                    },
                    pos: spec.probe_pos(p, seq),
                });
            }
        }
        ops.sort_by_key(|op| (op.due_us, op.client));
        Schedule { starts, ops }
    }

    /// Digest of every start and op: the pin `cargo test` holds each
    /// workload's inputs to.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        for (x, y) in &self.starts {
            h.update_u64(x.to_bits());
            h.update_u64(y.to_bits());
        }
        for op in &self.ops {
            h.update_u64(op.due_us);
            h.update_u64(u64::from(op.client) << 1 | u64::from(op.kind == OpKind::Action));
            h.update_u64(op.pos.0.to_bits());
            h.update_u64(op.pos.1.to_bits());
        }
        h.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON_US: u64 = 5_000_000;

    #[test]
    fn schedule_is_a_pure_function_of_workload_and_seed() {
        for spec in &WORKLOADS {
            let a = Schedule::generate(spec, 7, HORIZON_US);
            let b = Schedule::generate(spec, 7, HORIZON_US);
            let c = Schedule::generate(spec, 8, HORIZON_US);
            assert_eq!(a.digest(), b.digest(), "{}", spec.name);
            assert_ne!(a.digest(), c.digest(), "{}", spec.name);
            // A longer horizon only appends.
            let long = Schedule::generate(spec, 7, 2 * HORIZON_US);
            let prefix: Vec<Op> = long
                .ops
                .iter()
                .copied()
                .filter(|op| op.due_us < HORIZON_US)
                .collect();
            assert_eq!(prefix, a.ops, "{}", spec.name);
        }
    }

    #[test]
    fn schedule_hashes_are_pinned() {
        let pinned = [
            ("hotspot_dense", 0xa01d_a7c2_685f_7adb_u64),
            ("sparse_roam", 0x83a3_329c_9fa5_1e09),
            ("racer_predict", 0xfad6_b82d_a8d5_47a0),
            ("split_roam", 0xebf6_64fa_f729_c2e6),
        ];
        let got: Vec<(&str, u64)> = pinned
            .iter()
            .map(|(name, _)| {
                let schedule = Schedule::generate(by_name(name).unwrap(), 1, HORIZON_US);
                (*name, schedule.digest())
            })
            .collect();
        assert_eq!(got, pinned, "schedule hashes moved: {got:#018x?}");
    }

    #[test]
    fn ops_are_ordered_inside_the_world_and_at_the_stated_rates() {
        for spec in &WORKLOADS {
            let s = Schedule::generate(spec, 3, HORIZON_US);
            assert_eq!(s.starts.len(), spec.total_clients() as usize);
            assert!(s.ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            assert!(s.ops.iter().all(|op| op.due_us < HORIZON_US
                && (0.0..=spec.side).contains(&op.pos.0)
                && (0.0..=spec.side).contains(&op.pos.1)));
            let crowd = s.ops.iter().filter(|op| op.client < spec.clients).count();
            assert_eq!(crowd as u32, spec.clients * 100, "20 Hz for 5 s");
            let actions = s
                .ops
                .iter()
                .filter(|op| op.client < spec.clients && op.kind == OpKind::Action)
                .count() as f64;
            let share = actions / crowd as f64;
            assert!((0.005..0.015).contains(&share), "{}: {share}", spec.name);
        }
    }

    #[test]
    fn probe_ops_carry_their_sequence_and_nothing_else_sits_on_their_rows() {
        for spec in &WORKLOADS {
            let s = Schedule::generate(spec, 5, HORIZON_US);
            let mut next = [1u32; 2];
            let mut gaps = Vec::new();
            let mut last_due = [None::<u64>; 2];
            for op in &s.ops {
                let decoded = spec.decode_probe(op.pos.0, op.pos.1);
                match spec.probe_index(op.client) {
                    Some(p) => {
                        assert_eq!(decoded, Some((p, next[p])), "{}", spec.name);
                        next[p] += 1;
                        if let Some(prev) = last_due[p].replace(op.due_us) {
                            gaps.push(op.due_us - prev);
                        }
                    }
                    None => {
                        // Crowd origins stay off the rows even after the
                        // server snaps them to the lattice.
                        let snapped = (op.pos.1 / QUANTUM).round() * QUANTUM;
                        assert_eq!(spec.decode_probe(op.pos.0, snapped), None);
                    }
                }
            }
            assert!(next[0] > 250 && next[1] > 250, "{:?}", next);
            assert!(gaps.iter().all(|g| *g == PROBE_PERIOD_US));
            // Phases against the 50 ms flush are evenly covered: each
            // fifth of the interval holds about a fifth of the ops.
            let mut fifths = [0u32; 5];
            for op in s.ops.iter().filter(|op| op.client == spec.probe_client(0)) {
                fifths[(op.due_us % TICK_US / 10_000) as usize] += 1;
            }
            let total: u32 = fifths.iter().sum();
            for f in fifths {
                let share = f64::from(f) / f64::from(total);
                assert!((0.19..0.21).contains(&share), "{}: {fifths:?}", spec.name);
            }
        }
    }

    #[test]
    fn split_probes_straddle_the_split_line() {
        let spec = by_name("split_roam").unwrap();
        for seq in [0, PROBE_MAX_OPS - 1] {
            assert!(spec.probe_pos(0, seq).0 < spec.side / 2.0);
            assert!(spec.probe_pos(1, seq).0 > spec.side / 2.0);
        }
    }
}
