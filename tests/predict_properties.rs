//! Dead-reckoning property suites.
//!
//! **Extrapolation determinism**: the sender's suppression decisions
//! simulate the receiver with the same arithmetic the receiver runs, so
//! for any random stream of bases, velocities and timestamps, the
//! sender-simulated prediction error equals the receiver's real
//! extrapolation error **bit-for-bit** — the property that turns the
//! per-ring error budget from a heuristic into a hard bound.
//!
//! **Budget bound, end-to-end**: random movement scripts through a
//! predicting `GameServerNode` with per-event flushes, every receiver
//! mirrored by a real `ClientSession` applying the emitted batches. At
//! every movement event, every in-AOI receiver's extrapolation error is
//! within its ring's configured budget (delivered events rebase to the
//! exact wire position; suppressed events were only suppressed because
//! the — identical — simulation stayed within budget).
//!
//! **Velocity codec round-trips**: velocity-tagged batch items survive
//! encode/decode exactly and cost the bytes of their velocity class
//! (`UpdateItem::VELOCITY_WIRE_BYTES` for a 2×i16 pair); velocity-free
//! items keep their pre-prediction size and decode as velocity-free.
//!
//! **No velocity when off**: with `predict` off, a ringed node's wire
//! items carry no velocity class and nothing is suppressed, so
//! switching the feature off really does restore the pre-prediction
//! item shapes. (The untiered half of this pin lives in
//! `tests/interest_properties.rs`:
//! `pipeline_is_byte_identical_to_the_hand_wired_flush_path`.)
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible).

use matrix_middleware::core::{
    codec_v2, quantize, BatchItem, ClientId, ClientSession, ClientToGame, EncodedOrigin,
    Extrapolator, GameAction, GameServerConfig, GameServerNode, GameToClient, RingSet, ServerId,
    UpdateItem, WireBatch,
};
use matrix_middleware::geometry::{Point, Rect};
use matrix_middleware::predict::{extrapolate, quantize_velocity, Admission, PredictedStream};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Encodes `msg` (an `UpdateBatch`) as a wire frame, checks
/// the frame is exactly the frame overhead plus the bytes the batch
/// writer pushes per item, and returns those per-item lengths with the
/// frame bytes.
fn measured_items(msg: &GameToClient) -> (Vec<usize>, Vec<u8>) {
    let GameToClient::UpdateBatch { updates } = msg else {
        panic!("expected a batch");
    };
    let bytes = codec_v2::encode_server_frame(msg, codec_v2::FrameMeta::default(), true);
    let mut writer = codec_v2::BatchWriter::default();
    let lens: Vec<usize> = updates.items().map(|i| writer.push_item(&i)).collect();
    assert_eq!(
        bytes.len(),
        codec_v2::frame_overhead(true) + lens.iter().sum::<usize>(),
        "the pushed item lengths are the encoded bytes"
    );
    (lens, bytes)
}

// ---------------------------------------------------------------------------
// Extrapolation determinism
// ---------------------------------------------------------------------------

/// For random event streams, the sender's simulated receiver error and
/// the real receiver's extrapolation error are the same f64, bit for
/// bit, and suppression alone never lets the receiver drift past the
/// budget at event instants.
#[test]
fn sender_simulated_error_equals_receiver_error_bitwise() {
    let mut rng = SimRng::seed_from_u64(0xDEAD_0EC0);
    for case in 0..40 {
        let budget = rng.uniform(0.1, 20.0);
        let mut sender: PredictedStream<u32> = PredictedStream::new();
        let mut receiver = Extrapolator::new();
        let mut time = 0.0f64;
        let mut pos = Point::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
        let mut vel = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0));
        for step in 0..200 {
            time += rng.uniform(0.01, 0.5);
            // Mostly inertial motion with occasional swerves and
            // teleports, so both branches (suppress and rebase) fire.
            match rng.uniform_u64(0, 10) {
                0..=6 => {
                    pos = extrapolate(pos, vel, 0.1);
                }
                7..=8 => {
                    vel = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0));
                    pos = extrapolate(pos, vel, 0.1);
                }
                _ => {
                    pos = Point::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
                }
            }
            let receiver_err = receiver.predict(7, time).map(|p| p.distance(pos));
            match sender.admit(1, 7, pos, vel, time, budget) {
                Admission::Suppress { error } => {
                    let real = receiver_err.unwrap_or_else(|| {
                        panic!("case {case}: suppression requires a receiver-side basis")
                    });
                    assert_eq!(
                        error.to_bits(),
                        real.to_bits(),
                        "case {case} step {step}: simulated and real error must be \
                         the same f64"
                    );
                    assert!(
                        real <= budget,
                        "case {case} step {step}: suppressed at error {real} > {budget}"
                    );
                }
                Admission::Send => {
                    // The receiver hears about it and rebases — from
                    // here both sides hold the identical basis again.
                    receiver.update(7, pos, vel, time);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Budget bound, end-to-end through the game server
// ---------------------------------------------------------------------------

/// Random crowds and movement scripts through a predicting node: at
/// every movement event, every in-AOI receiver's mirrored extrapolation
/// is within its ring's error budget (up to the wire lattice quantum
/// for freshly delivered items).
#[test]
fn suppression_never_exceeds_the_ring_budget_end_to_end() {
    let mut rng = SimRng::seed_from_u64(0xB0D9EB);
    for case in 0..8 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let radii = [rng.uniform(20.0, 60.0), rng.uniform(120.0, 300.0)];
        let budgets = [0.0, rng.uniform(0.5, 8.0)];
        let mut cfg = GameServerConfig {
            predict: true,
            emit_updates: true,
            batch_interval: SimDuration::from_millis(0),
            ..GameServerConfig::default()
        };
        cfg.set_rings(&radii, &[1, 1]);
        cfg.set_error_budgets(&budgets);
        let rings = RingSet::from_tiers(&radii, &[1, 1]);
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, radii[1]);

        // Ids from 1: entity 0 is anonymous, and receivers keep no
        // basis for it.
        let clients = rng.uniform_u64(4, 10);
        let mut positions: BTreeMap<ClientId, Point> = BTreeMap::new();
        let mut mirrors: BTreeMap<ClientId, ClientSession> = BTreeMap::new();
        let mut velocities: BTreeMap<ClientId, (f64, f64)> = BTreeMap::new();
        for id in 1..=clients {
            let pos = Point::new(rng.uniform(100.0, 700.0), rng.uniform(100.0, 700.0));
            positions.insert(ClientId(id), pos);
            mirrors.insert(ClientId(id), ClientSession::new(ServerId(1)));
            velocities.insert(
                ClientId(id),
                (rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)),
            );
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos,
                    state_bytes: 0,
                },
            );
        }

        let mut now = SimTime::ZERO;
        for step in 0..120u64 {
            now += SimDuration::from_millis(100);
            let id = ClientId(rng.uniform_u64(1, clients + 1));
            // Mostly straight motion, occasional swerves — and full
            // stops, which exercise the zero-velocity rebase path: a
            // stopped entity's rebase omits the velocity pair on the
            // wire, and the receiver must pin it rather than keep
            // drifting at the old velocity.
            if rng.chance(0.15) {
                velocities.insert(id, (rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)));
            } else if rng.chance(0.1) {
                velocities.insert(id, (0.0, 0.0));
            }
            let v = velocities[&id];
            let pos = world.clamp(extrapolate(positions[&id], v, 0.1));
            positions.insert(id, pos);
            let wire = quantize(pos, GameServerConfig::default().origin_quantum);
            let actions = node.on_client(now, id, ClientToGame::Move { pos });
            for a in actions {
                let GameAction::ToClient(cid, msg) = a else {
                    continue;
                };
                let mirror = mirrors.get_mut(&cid).expect("known receiver");
                mirror.apply(now, &msg, &mut Vec::new());
                assert_eq!(
                    mirror.counters().desyncs,
                    0,
                    "case {case} step {step}: delta streams stay decodable in order"
                );
            }
            for (&rid, mirror) in &mirrors {
                if rid == id {
                    continue;
                }
                let Some(predicted) = mirror.extrapolated(id.0, now) else {
                    continue;
                };
                let d = positions[&rid].distance(pos);
                let Some(ring) = rings.ring_of(d) else {
                    continue; // left the AOI: no delivery promise there
                };
                let err = predicted.distance(wire);
                let bound = if budgets[ring as usize] > 0.0 {
                    budgets[ring as usize]
                } else {
                    // Budget-0 rings deliver every event: the mirror just
                    // rebased onto the exact wire position.
                    1e-9
                };
                assert!(
                    err <= bound + 1e-9,
                    "case {case} step {step}: receiver {rid:?} sees entity {id:?} at \
                     error {err} > ring {ring} bound {bound}"
                );
            }
        }
        assert!(
            node.stats().updates_suppressed > 0,
            "case {case}: the scripts must actually exercise suppression"
        );
    }
}

// ---------------------------------------------------------------------------
// Velocity codec
// ---------------------------------------------------------------------------

/// Random velocity-tagged batches round-trip exactly; a velocity pair
/// (on the lattice senders snap to) costs the bytes of its class —
/// `VELOCITY_WIRE_BYTES` as 2×i16, two more as 2×i24 — and a
/// velocity-free item carries none of it: the pre-prediction item
/// shape, which decodes as velocity-free.
#[test]
fn velocity_fields_round_trip_and_legacy_frames_decode() {
    let mut rng = SimRng::seed_from_u64(0x7E10C17);
    for case in 0..200 {
        let mut updates = Vec::new();
        for _ in 0..rng.uniform_u64(1, 8) {
            let vel = if rng.chance(0.5) {
                let raw = (rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0));
                quantize_velocity(raw, 1.0 / 256.0)
            } else {
                (0.0, 0.0)
            };
            let origin = if rng.chance(0.5) {
                EncodedOrigin::Absolute(Point::new(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)))
            } else {
                EncodedOrigin::Offset {
                    dx: rng.uniform(-100.0, 100.0),
                    dy: rng.uniform(-100.0, 100.0),
                }
            };
            updates.push(BatchItem {
                origin,
                payload_bytes: rng.uniform_u64(0, 512) as usize,
                entity: rng.uniform_u64(0, 50),
                ring: rng.uniform_u64(0, 4) as u8,
                vx: vel.0,
                vy: vel.1,
                trace: None,
            });
        }
        let msg = GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&updates),
        };
        let (lens, bytes) = measured_items(&msg);
        match codec_v2::decode_frame(&bytes) {
            Ok(codec_v2::FrameStatus::Complete {
                frame: codec_v2::Frame::Server(decoded),
                ..
            }) => assert_eq!(decoded, msg, "case {case}"),
            other => panic!("case {case}: {other:?}"),
        }
        // Entities here are narrow and the raw delta offsets take the
        // 2×f64 class (as large as a keyframe's coordinates), so every
        // item is the pre-prediction keyframe size, plus two length
        // bytes for a payload past a u8 (the u24 + u16 scalar class),
        // plus its velocity pair: 2×i16 within ±32 767 lattice steps
        // per axis, 2×i24 beyond.
        for (item, len) in updates.iter().zip(lens) {
            let scalars = if item.payload_bytes > 0xFF { 2 } else { 0 };
            let vel = if !item.has_velocity() {
                0
            } else if item.vx.abs().max(item.vy.abs()) * 256.0 <= 32_767.0 {
                UpdateItem::VELOCITY_WIRE_BYTES
            } else {
                UpdateItem::VELOCITY_WIRE_BYTES + 2
            };
            assert_eq!(
                len,
                UpdateItem::WIRE_BYTES + scalars + vel,
                "case {case}: {item:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// No velocity when off
// ---------------------------------------------------------------------------

/// With `predict` off, a ringed node's items carry no velocity: the
/// velocity class bits of every item header are 0 and nothing is
/// suppressed — the feature leaves no trace on the wire when disabled.
#[test]
fn predict_off_leaves_the_wire_in_the_pr4_grammar() {
    let mut rng = SimRng::seed_from_u64(0x0FF0FF);
    for case in 0..10 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let mut cfg = GameServerConfig {
            emit_updates: true,
            batch_interval: if rng.chance(0.3) {
                SimDuration::from_millis(0)
            } else {
                SimDuration::from_millis(50)
            },
            ..GameServerConfig::default()
        };
        cfg.set_rings(
            &[rng.uniform(20.0, 60.0), rng.uniform(100.0, 200.0)],
            &[1, rng.uniform_u64(1, 4) as u32],
        );
        // A deliberately poisoned predictor knob: it must be inert while
        // `predict` stays false.
        cfg.set_error_budgets(&[0.0, rng.uniform(1.0, 50.0)]);
        assert!(!cfg.predict);
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, 200.0);
        for id in 0..8u64 {
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos: Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0)),
                    state_bytes: 0,
                },
            );
        }
        for step in 0..60u64 {
            let actions = node.on_client(
                SimTime::from_millis(step * 40),
                ClientId(step % 8),
                ClientToGame::Move {
                    pos: Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0)),
                },
            );
            for a in actions {
                let GameAction::ToClient(_, msg @ GameToClient::UpdateBatch { .. }) = a else {
                    continue;
                };
                let GameToClient::UpdateBatch { ref updates } = msg else {
                    unreachable!()
                };
                assert!(
                    updates.items().all(|u| !u.has_velocity()),
                    "case {case}: velocity leaked onto a predict-off wire"
                );
                // The items end at the CRC trailer; a trace section
                // would sit in front of them.
                let (lens, bytes) = measured_items(&msg);
                let mut at = bytes.len() - codec_v2::CRC_BYTES - lens.iter().sum::<usize>();
                for len in lens {
                    assert_eq!(
                        bytes[at] & 0x30,
                        0,
                        "case {case}: an item header has a velocity class: {msg:?}"
                    );
                    at += len;
                }
            }
        }
        assert_eq!(node.stats().updates_suppressed, 0, "case {case}");
        assert_eq!(node.prediction_receivers(), 0, "case {case}");
    }
}
