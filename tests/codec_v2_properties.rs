//! Property tests of the wire protocol (`docs/WIRE.md`): for every
//! frame type, the round-trip is the identity over random messages,
//! full-width integers and wide escapes included; a batch's one-pass
//! reconstruction equals the per-item delta fold. Also pins the
//! interest layer's `WIRE_BYTES` constants to the bytes the batch writer
//! actually writes for the corresponding items.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! property-testing framework, keeping the build offline-friendly.

use matrix_middleware::core::codec_v2::{
    self, BatchWriter, Frame, FrameAccumulator, FrameMeta, FrameStatus,
};
use matrix_middleware::core::{
    reconstruct_updates, BatchItem, ClientToGame, Disseminated, EncodedOrigin, GameToClient,
    UpdateItem, WireBatch, MAX_RINGS,
};
use matrix_middleware::geometry::{Point, ServerId};
use matrix_middleware::sim::SimRng;

const CASES: usize = 64;

/// A coordinate on the codec's 1/256 lattice (canonical narrow
/// encoding); the wide-escape path is exercised by `raw_point`.
fn lattice_coord(rng: &mut SimRng) -> f64 {
    (rng.uniform(-30_000.0, 30_000.0) * 256.0).round() / 256.0
}

fn lattice_point(rng: &mut SimRng) -> Point {
    Point::new(lattice_coord(rng), lattice_coord(rng))
}

/// An arbitrary finite point: almost never lattice-representable, so
/// items carrying it take the wide (full f64) escape hatch.
fn raw_point(rng: &mut SimRng) -> Point {
    Point::new(rng.uniform(-1.0e7, 1.0e7), rng.uniform(-1.0e7, 1.0e7))
}

fn any_point(rng: &mut SimRng) -> Point {
    if rng.chance(0.25) {
        raw_point(rng)
    } else {
        lattice_point(rng)
    }
}

/// Entity ids: mostly small (narrow u24), sometimes huge (wide u64),
/// sometimes zero (anonymous — the presence bit stays clear).
fn entity(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 4) {
        0 => 0,
        1 => rng.uniform_u64(1, 1 << 24),
        2 => rng.uniform_u64(1 << 24, u64::MAX),
        _ => rng.uniform_u64(1, 500),
    }
}

/// Payload sizes: mostly narrow (u16), sometimes wide.
fn payload(rng: &mut SimRng) -> usize {
    if rng.chance(0.15) {
        rng.uniform_u64(1 << 16, 1 << 40) as usize
    } else {
        rng.uniform_u64(0, 1 << 16) as usize
    }
}

/// A velocity pair — `(0, 0)` means "absent" on the wire, so the
/// generator covers present and absent explicitly.
fn velocity(rng: &mut SimRng) -> (f64, f64) {
    if rng.chance(0.4) {
        (0.0, 0.0)
    } else if rng.chance(0.2) {
        (rng.uniform(-900.0, 900.0), rng.uniform(-900.0, 900.0))
    } else {
        (lattice_coord(rng) / 100.0, lattice_coord(rng) / 100.0)
    }
}

fn ring(rng: &mut SimRng) -> u8 {
    rng.uniform_u64(0, MAX_RINGS as u64) as u8
}

/// A causal trace tag — absent most of the time (sampling is sparse by
/// design), charged (`stale_us > 0`) sometimes, so both the plain and
/// the suppression-charged shapes round-trip.
fn trace(rng: &mut SimRng) -> Option<matrix_middleware::telemetry::TraceTag> {
    if rng.chance(0.7) {
        return None;
    }
    Some(matrix_middleware::telemetry::TraceTag {
        origin: rng.uniform_u64(0, 1 << 20) as u32,
        seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
        ingest_us: rng.uniform_u64(0, 1 << 50),
        stale_us: if rng.chance(0.5) {
            rng.uniform_u64(0, 1 << 30)
        } else {
            0
        },
    })
}

/// One batch item hitting a random cell of the optional-field matrix:
/// absolute/delta × entity present/absent × ring × velocity × narrow/
/// wide encodings.
fn batch_item(rng: &mut SimRng) -> BatchItem {
    let (vx, vy) = velocity(rng);
    let origin = if rng.chance(0.5) {
        EncodedOrigin::Absolute(any_point(rng))
    } else {
        EncodedOrigin::Offset {
            dx: lattice_coord(rng) / 100.0,
            dy: lattice_coord(rng) / 100.0,
        }
    };
    BatchItem {
        origin,
        payload_bytes: payload(rng),
        entity: entity(rng),
        ring: ring(rng),
        vx,
        vy,
        trace: trace(rng),
    }
}

/// The bytes one item takes on the wire, as the writer measures them.
fn wire_len(item: &BatchItem) -> usize {
    BatchWriter::default().push_item(item)
}

fn client_msg(rng: &mut SimRng) -> ClientToGame {
    match rng.uniform_u64(0, 5) {
        0 => ClientToGame::Join {
            pos: any_point(rng),
            state_bytes: rng.uniform_u64(0, 1 << 32),
        },
        1 => ClientToGame::Move {
            pos: any_point(rng),
        },
        2 => ClientToGame::Action {
            pos: any_point(rng),
            payload_bytes: payload(rng),
        },
        3 => ClientToGame::TraceAck {
            ring: ring(rng),
            latency_us: rng.uniform_u64(0, 1 << 40),
            staleness_us: rng.uniform_u64(0, 1 << 40),
        },
        _ => ClientToGame::Leave,
    }
}

fn server_msg(rng: &mut SimRng) -> GameToClient {
    match rng.uniform_u64(0, 5) {
        0 => GameToClient::Joined {
            server: ServerId(rng.uniform_u64(1, 1 << 20) as u32),
        },
        1 => GameToClient::Ack {
            seq: rng.uniform_u64(0, u64::MAX),
        },
        2 => GameToClient::Update {
            origin: any_point(rng),
            payload_bytes: payload(rng),
        },
        3 => GameToClient::SwitchServer {
            to: ServerId(rng.uniform_u64(1, 1 << 20) as u32),
        },
        _ => {
            let items: Vec<BatchItem> = (0..rng.uniform_u64(0, 12))
                .map(|_| batch_item(rng))
                .collect();
            GameToClient::UpdateBatch {
                updates: WireBatch::from_items(&items),
            }
        }
    }
}

fn meta(rng: &mut SimRng) -> FrameMeta {
    FrameMeta {
        seq: rng.uniform_u64(0, u64::MAX),
        stamp_ms: rng.uniform_u64(0, 1 << 32) as u32,
    }
}

/// The round-trip must be the identity, byte count must be exact,
/// and the transport metadata must survive. Returns the decoded frame.
fn assert_binary_roundtrip(case: usize, frame: &Frame, m: FrameMeta, crc: bool) -> Frame {
    let bytes = codec_v2::encode_frame(frame, m, crc);
    match codec_v2::decode_frame(&bytes) {
        Ok(FrameStatus::Complete {
            frame: decoded,
            meta: dm,
            consumed,
        }) => {
            assert_eq!(&decoded, frame, "case {case}: binary round-trip drifted");
            assert_eq!(dm, m, "case {case}: header metadata drifted");
            assert_eq!(consumed, bytes.len(), "case {case}: length accounting");
            decoded
        }
        other => panic!("case {case}: expected a complete frame, got {other:?}"),
    }
}

#[test]
fn client_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C001);
    for case in 0..CASES {
        let msg = client_msg(&mut rng);
        let m = meta(&mut rng);
        let crc = rng.chance(0.5);
        assert_binary_roundtrip(case, &Frame::Client(msg), m, crc);
    }
}

#[test]
fn server_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C002);
    for case in 0..CASES {
        let msg = server_msg(&mut rng);
        let m = meta(&mut rng);
        let crc = rng.chance(0.5);
        assert_binary_roundtrip(case, &Frame::Server(msg), m, crc);
    }
}

#[test]
fn every_batch_item_shape_roundtrips() {
    // The full optional-field matrix, deliberately: absolute and delta
    // items, entity/ring/velocity present and absent, narrow lattice
    // and wide-escape encodings, traced items at random positions —
    // built, encoded and decoded; the decoded bytes read back as the
    // items the batch was built from.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C003);
    for case in 0..CASES * 4 {
        let items: Vec<BatchItem> = (0..rng.uniform_u64(1, 8))
            .map(|_| batch_item(&mut rng))
            .collect();
        let msg = GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&items),
        };
        let crc = rng.chance(0.5);
        let decoded = assert_binary_roundtrip(case, &Frame::Server(msg), meta(&mut rng), crc);
        let Frame::Server(GameToClient::UpdateBatch { updates }) = decoded else {
            unreachable!("a batch decodes as a batch");
        };
        assert_eq!(updates.len(), items.len(), "case {case}");
        assert_eq!(updates.items().collect::<Vec<_>>(), items, "case {case}");
    }
}

/// A receiver's one pass over the bytes equals the reference fold: each
/// item's `EncodedOrigin::decode` against the stream base, in order,
/// with the base threaded across batches — and both reject a delta that
/// arrives with no base.
#[test]
fn reconstruct_over_the_bytes_equals_the_per_item_decode_fold() {
    fn fold(base: &mut Option<Point>, items: &[BatchItem]) -> Option<Vec<UpdateItem>> {
        items
            .iter()
            .map(|i| {
                Some(UpdateItem {
                    origin: i.origin.decode(base)?,
                    payload_bytes: i.payload_bytes,
                    entity: i.entity,
                    ring: i.ring,
                    vx: i.vx,
                    vy: i.vy,
                    trace: i.trace,
                })
            })
            .collect()
    }
    let mut rng = SimRng::seed_from_u64(0xC0DE_C00B);
    let (mut rejected, mut applied) = (0, 0);
    for case in 0..CASES * 2 {
        // A stream of batches; each one a fresh stream now and then.
        let (mut fold_base, mut byte_base) = (None, None);
        for step in 0..rng.uniform_u64(1, 6) {
            if rng.chance(0.2) {
                (fold_base, byte_base) = (None, None);
            }
            let items: Vec<BatchItem> = (0..rng.uniform_u64(1, 10))
                .map(|_| batch_item(&mut rng))
                .collect();
            let expected = fold(&mut fold_base, &items);
            let got = reconstruct_updates(&mut byte_base, &WireBatch::from_items(&items));
            assert_eq!(got, expected, "case {case} step {step}");
            if expected.is_none() {
                rejected += 1;
                (fold_base, byte_base) = (None, None);
            } else {
                applied += 1;
                assert_eq!(byte_base, fold_base, "case {case} step {step}: base");
            }
        }
    }
    assert!(
        rejected > 0 && applied > 0,
        "{rejected} rejected, {applied} applied"
    );
}

#[test]
fn hello_frames_roundtrip() {
    // Any version byte survives: rejecting a version the peer cannot
    // speak is the receiver's decision, not the codec's.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C006);
    for case in 0..CASES {
        let frame = Frame::Hello {
            version: rng.uniform_u64(0, 256) as u8,
        };
        assert_binary_roundtrip(case, &frame, meta(&mut rng), rng.chance(0.5));
    }
}

#[test]
fn frame_len_predicts_the_encoder_exactly() {
    // Byte accounting is the bytes the writer wrote: per-item pushes
    // plus the trace section compose the body, and the frame is the
    // body plus its overhead, with and without the CRC trailer.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C007);
    for case in 0..CASES * 2 {
        let items: Vec<BatchItem> = (0..rng.uniform_u64(0, 20))
            .map(|_| batch_item(&mut rng))
            .collect();
        let mut writer = BatchWriter::with_capacity(items.len());
        let item_sum: usize = items.iter().map(|i| writer.push_item(i)).sum();
        let updates = writer.finish();
        // Trace tags ride in a frame-level section (u16 count + fixed
        // entries), not in per-item framing — compose it explicitly.
        let traced = items.iter().filter(|u| u.trace.is_some()).count();
        let trace_section = if traced > 0 {
            2 + traced * codec_v2::TRACE_ENTRY_BYTES
        } else {
            0
        };
        assert_eq!(
            updates.body().len(),
            item_sum + trace_section,
            "case {case}: per-item lengths must compose"
        );
        for crc in [false, true] {
            let predicted = codec_v2::frame_overhead(crc) + updates.body().len();
            let msg = GameToClient::UpdateBatch {
                updates: updates.clone(),
            };
            let actual = codec_v2::encode_server_frame(&msg, FrameMeta::default(), crc).len();
            assert_eq!(predicted, actual, "case {case} crc={crc}: {items:?}");
        }
    }
}

#[test]
fn appending_encoders_equal_the_concatenated_owned_encoders() {
    // A sender coalescing one wake-up's frames into a single write
    // appends them to one buffer. Whatever the buffer already holds,
    // each appended frame must be byte-for-byte the frame the owning
    // encoder returns (the CRC covers the frame's own bytes only), and
    // the receiver must get every frame back out of a single `push`.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C00A);
    for case in 0..CASES {
        let crc = rng.chance(0.5);
        let prefix: Vec<u8> = (0..rng.uniform_u64(1, 40))
            .map(|_| rng.uniform_u64(0, 256) as u8)
            .collect();
        let mut appended = prefix.clone();
        let mut concatenated = prefix.clone();
        let mut sent = Vec::new();
        for _ in 0..rng.uniform_u64(1, 9) {
            let m = meta(&mut rng);
            let frame = match rng.uniform_u64(0, 4) {
                0 => {
                    let msg = client_msg(&mut rng);
                    codec_v2::encode_client_frame_into(&mut appended, &msg, m, crc);
                    concatenated.extend(codec_v2::encode_client_frame(&msg, m, crc));
                    Frame::Client(msg)
                }
                1 | 2 => {
                    let msg = server_msg(&mut rng);
                    codec_v2::encode_server_frame_into(&mut appended, &msg, m, crc);
                    concatenated.extend(codec_v2::encode_server_frame(&msg, m, crc));
                    Frame::Server(msg)
                }
                _ => {
                    let frame = match rng.uniform_u64(0, 3) {
                        0 => Frame::Hello {
                            version: rng.uniform_u64(0, 256) as u8,
                        },
                        1 => Frame::Client(client_msg(&mut rng)),
                        _ => Frame::Server(server_msg(&mut rng)),
                    };
                    codec_v2::encode_frame_into(&mut appended, &frame, m, crc);
                    concatenated.extend(codec_v2::encode_frame(&frame, m, crc));
                    frame
                }
            };
            sent.push((frame, m));
        }
        assert_eq!(appended, concatenated, "case {case} crc={crc}");

        let mut acc = FrameAccumulator::new();
        acc.push(&appended[prefix.len()..]);
        for (i, expected) in sent.iter().enumerate() {
            let got = acc.next().expect("a frame per frame sent");
            assert_eq!(got.as_ref(), Ok(expected), "case {case} frame {i}");
        }
        assert!(
            acc.next().is_none(),
            "case {case}: no frame beyond the last"
        );
        assert_eq!(acc.pending_bytes(), 0, "case {case}: nothing left over");
    }
}

/// The interest layer's modeled byte constants are *measured* truth:
/// each one equals the bytes the batch writer pushes for the
/// corresponding canonical item (lattice coords, narrow entity, narrow
/// payload length).
#[test]
fn wire_bytes_constants_match_measured_frames() {
    let keyframe = BatchItem {
        origin: EncodedOrigin::Absolute(Point::new(100.0, -250.5)),
        payload_bytes: 64,
        entity: 7,
        ring: 1,
        vx: 0.0,
        vy: 0.0,
        trace: None,
    };
    assert_eq!(
        wire_len(&keyframe),
        UpdateItem::WIRE_BYTES,
        "a canonical keyframe item measures UpdateItem::WIRE_BYTES"
    );

    let delta = BatchItem {
        origin: EncodedOrigin::Offset { dx: 1.5, dy: -0.25 },
        ..keyframe
    };
    assert_eq!(
        wire_len(&delta),
        BatchItem::DELTA_WIRE_BYTES,
        "a canonical delta item measures BatchItem::DELTA_WIRE_BYTES"
    );

    let with_velocity = BatchItem {
        vx: 3.5,
        vy: -2.25,
        ..delta
    };
    assert_eq!(
        wire_len(&with_velocity) - wire_len(&delta),
        UpdateItem::VELOCITY_WIRE_BYTES,
        "the velocity tag measures VELOCITY_WIRE_BYTES"
    );

    // The per-batch overhead constant is the measured empty frame.
    let empty = codec_v2::encode_server_frame(
        &GameToClient::UpdateBatch {
            updates: WireBatch::default(),
        },
        FrameMeta::default(),
        true,
    );
    assert_eq!(empty.len(), codec_v2::BATCH_OVERHEAD_BYTES);
    assert_eq!(
        codec_v2::frame_overhead(true),
        codec_v2::BATCH_OVERHEAD_BYTES
    );

    // And the budget policy's item model composes: an update's
    // `Disseminated::wire_bytes` (which charges the declared payload on
    // top of the framing) is the measured length of the keyframe it
    // ships as plus that payload, with or without a velocity pair.
    for item in [
        keyframe,
        BatchItem {
            vx: 3.5,
            ..keyframe
        },
    ] {
        let update = UpdateItem {
            origin: Point::new(100.0, -250.5),
            payload_bytes: item.payload_bytes,
            entity: item.entity,
            ring: item.ring,
            vx: item.vx,
            vy: item.vy,
            trace: None,
        };
        assert_eq!(
            Disseminated::wire_bytes(&update),
            wire_len(&item) + item.payload_bytes
        );
    }
}

/// The bytes the writer counts and the encoded frame agree on every item
/// header byte, exhaustively rather than by chance: each origin class
/// (keyframe, delta as 2×i16 / 2×i24 / 2×f64), every ring, each
/// velocity class (none, 2×i16 / 2×i24 / 2×f64) and each scalar class
/// (u16 + u8, u24 + u16, u64 + u64). Each item is built to need exactly
/// the classes of its header byte; the writer must write that byte, at
/// the length the classes fix, and the item must read back intact. The
/// reserved scalar class is the one header byte no encoder writes, and
/// the decoder rejects it.
#[test]
fn wire_len_audit_covers_every_header_combination() {
    let (mut checked, mut rejected) = (0, 0);
    for h in 0..=u8::MAX {
        let (origin, ring, vel, scalars) = (h & 3, (h >> 2) & 3, (h >> 4) & 3, h >> 6);
        let build = |scalars: u8| BatchItem {
            // ±32 767 lattice steps is the i16 edge; -4096 is on the
            // lattice at the delta threshold, in i24; 0.1 is off it.
            origin: match origin {
                0 => EncodedOrigin::Absolute(Point::new(0.1, -7.0)),
                1 => EncodedOrigin::Offset {
                    dx: -32_767.0 / 256.0,
                    dy: 2.5,
                },
                2 => EncodedOrigin::Offset {
                    dx: -4096.0,
                    dy: 2.5,
                },
                _ => EncodedOrigin::Offset { dx: 0.1, dy: 2.5 },
            },
            payload_bytes: [0xFF, 0xFFFF, 1 << 16][usize::from(scalars)],
            entity: [0xFFFF, 0xFF_FFFF, 1 << 24][usize::from(scalars)],
            ring,
            vx: [0.0, 3.5, 200.0, 0.3][usize::from(vel)],
            vy: if vel != 0 { -1.0 / 256.0 } else { 0.0 },
            trace: None,
        };
        if scalars == 3 {
            // The u64 + u64 item with its header byte patched to the
            // reserved class: the header alone is on trial.
            let msg = GameToClient::UpdateBatch {
                updates: WireBatch::from_items(&[build(2)]),
            };
            let mut bytes = codec_v2::encode_server_frame(&msg, FrameMeta::default(), false);
            assert_eq!(bytes[codec_v2::HEADER_BYTES], h & !0x40);
            bytes[codec_v2::HEADER_BYTES] = h;
            let err = codec_v2::decode_frame(&bytes).expect_err("reserved class must be rejected");
            assert!(
                err.reason.contains("reserved scalar class"),
                "{h:#04x}: {err}"
            );
            rejected += 1;
            continue;
        }
        let item = build(scalars);
        let expected = 1
            + [3, 5, 16][usize::from(scalars)]
            + [16, 4, 6, 16][usize::from(origin)]
            + [0, 4, 6, 16][usize::from(vel)];
        let mut writer = BatchWriter::default();
        let pushed = writer.push_item(&item);
        assert_eq!(pushed, expected, "{h:#04x}: {item:?}");
        let updates = writer.finish();
        assert_eq!(updates.items().collect::<Vec<_>>(), [item]);
        let msg = GameToClient::UpdateBatch { updates };
        let bytes = codec_v2::encode_server_frame(&msg, FrameMeta::default(), false);
        assert_eq!(bytes[codec_v2::HEADER_BYTES], h, "{item:?}");
        assert_eq!(
            bytes.len() - codec_v2::frame_overhead(false),
            pushed,
            "{item:?}"
        );
        assert_binary_roundtrip(h as usize, &Frame::Server(msg), FrameMeta::default(), true);
        checked += 1;
    }
    // Three scalar classes of 64 header bytes each; the fourth is reserved.
    assert_eq!((checked, rejected), (192, 64));
    assert_eq!(MAX_RINGS, 4, "the header byte carries exactly the ring cap");
}

/// Every value at the edge of a class round-trips bit for bit through
/// `WireBatch::from_items` → `items()` and lands in the narrowest class
/// that holds it: offsets and velocities at ±32 767 / ±32 768 lattice
/// steps (i16 / i24), at the i24 limit and just past it, and off the
/// lattice (f64); entity ids and payload lengths at the u16/u8,
/// u24/u16 and u64 edges. A frame of the previous protocol version is
/// rejected outright.
#[test]
fn class_edges_round_trip_in_the_narrowest_class() {
    const I24_MAX: f64 = ((1 << 23) - 1) as f64;
    let (i16_class, i24_class, f64_class) = (1u8, 2, 3);
    let pairs = [
        (32_767.0 / 256.0, i16_class),
        (-32_767.0 / 256.0, i16_class),
        (32_768.0 / 256.0, i24_class),
        (-32_768.0 / 256.0, i24_class),
        (I24_MAX / 256.0, i24_class),
        (-I24_MAX / 256.0, i24_class),
        ((I24_MAX + 1.0) / 256.0, f64_class),
        (-(I24_MAX + 1.0) / 256.0, f64_class),
        (0.1, f64_class),
        (0.5 / 256.0, f64_class),
    ];
    let base = BatchItem {
        origin: EncodedOrigin::Absolute(Point::new(3.0, 4.0)),
        payload_bytes: 32,
        entity: 7,
        ring: 2,
        vx: 0.0,
        vy: 0.0,
        trace: None,
    };
    // The item's header byte, after checking it reads back bit for bit.
    let header = |item: BatchItem| {
        let updates = WireBatch::from_items(&[item]);
        let back: Vec<BatchItem> = updates.items().collect();
        assert_eq!(format!("{back:?}"), format!("{:?}", [item]), "{item:?}");
        updates.body()[0]
    };
    for (v, class) in pairs {
        for (x, y) in [(v, 0.0), (0.0, v), (v, v)] {
            let delta = BatchItem {
                origin: EncodedOrigin::Offset { dx: x, dy: y },
                ..base
            };
            assert_eq!(header(delta) & 0x03, class, "offsets ({x}, {y})");
            let moving = BatchItem {
                vx: x,
                vy: y,
                ..base
            };
            assert_eq!((header(moving) >> 4) & 0x03, class, "velocity ({x}, {y})");
        }
    }
    let (u16_u8, u24_u16, u64_u64) = (0u8, 1, 2);
    for (entity, class) in [
        (0xFFFF, u16_u8),
        (0x1_0000, u24_u16),
        (0xFF_FFFF, u24_u16),
        (0x100_0000, u64_u64),
        (u64::MAX, u64_u64),
    ] {
        let item = BatchItem { entity, ..base };
        assert_eq!(header(item) >> 6, class, "entity {entity:#x}");
    }
    for (payload_bytes, class) in [
        (255, u16_u8),
        (256, u24_u16),
        (65_535, u24_u16),
        (65_536, u64_u64),
    ] {
        let item = BatchItem {
            payload_bytes,
            ..base
        };
        assert_eq!(header(item) >> 6, class, "payload {payload_bytes}");
    }

    let msg = GameToClient::UpdateBatch {
        updates: WireBatch::from_items(&[base]),
    };
    for crc in [false, true] {
        let mut bytes = codec_v2::encode_server_frame(&msg, FrameMeta::default(), crc);
        assert_eq!(bytes[2], codec_v2::WIRE_VERSION);
        bytes[2] = 2;
        let err = codec_v2::decode_frame(&bytes).expect_err("a v2 frame must be rejected");
        assert!(err.reason.contains("unsupported wire version"), "{err}");
    }
}

/// The extremes of every integer field (no `f64` anywhere on the
/// path) survive bit-for-bit.
#[test]
fn full_u64_values_survive_the_binary_codec() {
    let frames = [
        Frame::Server(GameToClient::Ack { seq: u64::MAX }),
        Frame::Client(ClientToGame::TraceAck {
            ring: 3,
            latency_us: u64::MAX - 1,
            staleness_us: u64::MAX,
        }),
        Frame::Server(GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&[BatchItem {
                origin: EncodedOrigin::Absolute(Point::new(0.5, -0.5)),
                payload_bytes: usize::MAX >> 8,
                entity: u64::MAX,
                ring: 3,
                vx: 1.0,
                vy: -1.0,
                trace: None,
            }]),
        }),
        Frame::Client(ClientToGame::Join {
            pos: Point::new(0.5, -0.5),
            state_bytes: u64::MAX,
        }),
    ];
    let m = FrameMeta {
        seq: u64::MAX,
        stamp_ms: u32::MAX,
    };
    for (case, frame) in frames.iter().enumerate() {
        assert_binary_roundtrip(case, frame, m, true);
    }
}
