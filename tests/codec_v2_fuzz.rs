//! Seeded fuzz tests of the v2 binary decoder (`docs/WIRE.md`): random
//! bytes, truncated frames and bit-flipped valid frames must never
//! panic or over-read — malformed input surfaces as `Err` (or
//! `Incomplete` for a plausible prefix), CRC-protected frames reject
//! every single-bit corruption, and a frame stream resynchronizes at
//! the next magic boundary after a corrupt region. Batch bodies are
//! checked against an independent reference of the batch grammar: the
//! decoder accepts exactly what it accepts, less the one shape it
//! names (trace indices that do not ascend), and a receiver's parse of
//! an accepted body never panics and reads what the reference reads.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! fuzzing framework, keeping the build offline-friendly.

use matrix_middleware::core::codec_v2::{
    self, Frame, FrameAccumulator, FrameMeta, FrameStatus, MAGIC,
};
use matrix_middleware::core::{
    reconstruct_updates, BatchItem, ClientToGame, EncodedOrigin, GameToClient, UpdateItem,
    WireBatch,
};
use matrix_middleware::geometry::{Point, ServerId};
use matrix_middleware::sim::SimRng;
use matrix_middleware::telemetry::TraceTag;

/// A small valid frame with a deliberately low-entropy body (lattice
/// coordinates, small integers): realistic traffic that is very
/// unlikely to contain an accidental magic pair, which keeps resync
/// behaviour deterministic to assert on.
fn small_frame(rng: &mut SimRng) -> Frame {
    match rng.uniform_u64(0, 5) {
        0 => Frame::Server(GameToClient::Ack {
            seq: rng.uniform_u64(0, 10_000),
        }),
        1 => Frame::Server(GameToClient::Joined {
            server: ServerId(rng.uniform_u64(1, 100) as u32),
        }),
        2 => Frame::Client(ClientToGame::Move {
            pos: Point::new(
                rng.uniform_u64(0, 1000) as f64,
                rng.uniform_u64(0, 1000) as f64,
            ),
        }),
        3 => Frame::Client(ClientToGame::Leave),
        _ => Frame::Server(GameToClient::UpdateBatch {
            updates: WireBatch::from_items(&[
                BatchItem {
                    origin: EncodedOrigin::Absolute(Point::new(100.0, 200.5)),
                    payload_bytes: rng.uniform_u64(0, 200) as usize,
                    entity: rng.uniform_u64(0, 100),
                    ring: rng.uniform_u64(0, 4) as u8,
                    vx: 0.0,
                    vy: 0.0,
                    // Sometimes traced, so the mutation sweep also chews
                    // on frames carrying the trace section.
                    trace: (rng.uniform_u64(0, 3) == 0).then(|| {
                        matrix_middleware::telemetry::TraceTag::new(
                            rng.uniform_u64(1, 100) as u32,
                            rng.uniform_u64(0, 1 << 20) as u32,
                            rng.uniform_u64(0, 1 << 40),
                        )
                    }),
                },
                BatchItem {
                    origin: EncodedOrigin::Offset { dx: 1.5, dy: -0.25 },
                    payload_bytes: rng.uniform_u64(0, 200) as usize,
                    entity: rng.uniform_u64(0, 100),
                    ring: 0,
                    vx: 2.0,
                    vy: -1.5,
                    trace: None,
                },
            ]),
        }),
    }
}

fn meta(rng: &mut SimRng) -> FrameMeta {
    FrameMeta {
        seq: rng.uniform_u64(0, 100_000),
        stamp_ms: rng.uniform_u64(0, 1 << 20) as u32,
    }
}

/// Purely random buffers: the decoder must return, not panic — any of
/// Ok(Incomplete) / Ok(Complete) / Err is acceptable, but a Complete
/// must not claim more bytes than it was given.
#[test]
fn random_bytes_never_panic_the_decoder() {
    let mut rng = SimRng::seed_from_u64(0xF022_0001);
    for _ in 0..2000 {
        let len = rng.uniform_u64(0, 300) as usize;
        let mut buf: Vec<u8> = (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect();
        // Half the time, plant a real magic/version prefix so the fuzz
        // reaches past the first guard checks.
        if rng.chance(0.5) && buf.len() >= 3 {
            buf[0] = MAGIC[0];
            buf[1] = MAGIC[1];
            buf[2] = codec_v2::WIRE_VERSION;
        }
        match codec_v2::decode_frame(&buf) {
            Ok(FrameStatus::Complete {
                consumed, frame, ..
            }) => {
                assert!(
                    consumed <= buf.len(),
                    "decoder over-read: {consumed} > {len}"
                );
                if let Frame::Server(GameToClient::UpdateBatch { updates }) = frame {
                    let _ = reconstruct_updates(&mut None, &updates);
                    let _ = reconstruct_updates(&mut Some(Point::ORIGIN), &updates);
                }
            }
            Ok(FrameStatus::Incomplete) | Err(_) => {}
        }
    }
}

/// The same random garbage through the streaming accumulator, in random
/// chunk sizes: it must keep yielding errors / frames and never panic,
/// loop forever, or grow without bound.
#[test]
fn random_bytes_never_panic_the_accumulator() {
    let mut rng = SimRng::seed_from_u64(0xF022_0002);
    for _ in 0..300 {
        let mut acc = FrameAccumulator::new();
        let len = rng.uniform_u64(1, 600) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect();
        let mut offset = 0;
        while offset < bytes.len() {
            let chunk = rng.uniform_u64(1, 64) as usize;
            let end = (offset + chunk).min(bytes.len());
            acc.push(&bytes[offset..end]);
            offset = end;
            // Drain; each next() either consumes bytes or returns None,
            // so this loop is bounded by the buffer size.
            while acc.next().is_some() {}
        }
        assert!(
            acc.pending_bytes() <= bytes.len(),
            "the accumulator must not grow beyond its input"
        );
    }
}

/// Every proper prefix of a valid frame is just "not enough bytes yet":
/// Ok(Incomplete), never an error, never a bogus Complete.
#[test]
fn truncated_frames_are_incomplete_not_errors() {
    let mut rng = SimRng::seed_from_u64(0xF022_0003);
    for _ in 0..100 {
        let frame = small_frame(&mut rng);
        let crc = rng.chance(0.5);
        let bytes = codec_v2::encode_frame(&frame, meta(&mut rng), crc);
        for cut in 0..bytes.len() {
            match codec_v2::decode_frame(&bytes[..cut]) {
                Ok(FrameStatus::Incomplete) => {}
                other => panic!("prefix of {cut}/{} bytes gave {other:?}", bytes.len()),
            }
        }
    }
}

/// Single-bit corruption of a CRC-protected frame must never decode to
/// different content. The only flip that may still decode is the CRC
/// presence bit itself (the trailer then reads as spare bytes) — and
/// even then the content is bit-identical; every other position fails
/// the checksum, a header guard, or the body parser.
#[test]
fn crc_frames_reject_single_bit_corruption() {
    let mut rng = SimRng::seed_from_u64(0xF022_0004);
    for _ in 0..100 {
        let frame = small_frame(&mut rng);
        let m = meta(&mut rng);
        let bytes = codec_v2::encode_frame(&frame, m, true);
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            match codec_v2::decode_frame(&corrupt) {
                Err(_) | Ok(FrameStatus::Incomplete) => {}
                Ok(FrameStatus::Complete {
                    frame: decoded,
                    meta: dm,
                    ..
                }) => {
                    assert_eq!(
                        (decoded, dm),
                        (frame.clone(), m),
                        "bit {bit} flipped and the decoder accepted different content"
                    );
                }
            }
        }
    }
}

/// Without the CRC trailer the decoder still must not panic on any
/// single-bit flip (structural guards catch what they can; silent
/// misdecodes are the documented price of `frame_crc = false`).
#[test]
fn flipped_uncrc_frames_never_panic() {
    let mut rng = SimRng::seed_from_u64(0xF022_0005);
    for _ in 0..100 {
        let frame = small_frame(&mut rng);
        let bytes = codec_v2::encode_frame(&frame, meta(&mut rng), false);
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let _ = codec_v2::decode_frame(&corrupt); // any result; no panic
        }
    }
}

/// A corrupt frame in the middle of a stream costs exactly that frame:
/// the accumulator reports the error, resynchronizes at the next magic
/// boundary, and every later frame decodes intact.
#[test]
fn streams_resync_at_the_next_magic_boundary() {
    let mut rng = SimRng::seed_from_u64(0xF022_0006);
    for case in 0..200 {
        let n = rng.uniform_u64(3, 8) as usize;
        let frames: Vec<Frame> = (0..n).map(|_| small_frame(&mut rng)).collect();
        let victim = rng.uniform_u64(1, n as u64 - 1) as usize;

        let mut stream = Vec::new();
        let mut victim_span = (0, 0);
        for (i, frame) in frames.iter().enumerate() {
            let bytes = codec_v2::encode_frame(frame, meta(&mut rng), true);
            if i == victim {
                victim_span = (stream.len(), stream.len() + bytes.len());
            }
            stream.extend_from_slice(&bytes);
        }
        // Corrupt one byte of the victim's seq/stamp fields or body —
        // past the framing prefix (magic/version/flags/length, so the
        // frame boundary stays intact) and before the trailer. The CRC
        // covers this whole span.
        let (start, end) = victim_span;
        let body = start + 8..end - codec_v2::CRC_BYTES;
        let target = rng.uniform_u64(body.start as u64, body.end as u64) as usize;
        stream[target] ^= 0x40;

        let mut acc = FrameAccumulator::new();
        let mut offset = 0;
        let mut decoded = Vec::new();
        let mut errors = 0;
        while offset < stream.len() {
            let chunk = rng.uniform_u64(1, 80) as usize;
            let end = (offset + chunk).min(stream.len());
            acc.push(&stream[offset..end]);
            offset = end;
            while let Some(item) = acc.next() {
                match item {
                    Ok((frame, _)) => decoded.push(frame),
                    Err(_) => errors += 1,
                }
            }
        }
        let mut expect = frames;
        expect.remove(victim);
        assert_eq!(decoded, expect, "case {case}: exactly the victim is lost");
        assert!(errors >= 1, "case {case}: the corruption must be reported");
        assert_eq!(acc.pending_bytes(), 0, "case {case}: stream fully consumed");
    }
}

// ---------------------------------------------------------------------------
// Batch bodies against a reference grammar
// ---------------------------------------------------------------------------

/// The batch-body grammar of `docs/WIRE.md`, parsed field by field with
/// no code shared with the codec: `None` where the body does not parse.
/// Trace entries attach by index, in any order (a repeated index keeps
/// the last tag) — the one latitude the decoder does not grant.
fn reference_parse(body: &[u8], traced: bool) -> Option<(Vec<BatchItem>, Vec<u16>)> {
    struct Cur<'a>(&'a [u8]);
    impl Cur<'_> {
        fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
            let (head, rest) = self.0.split_at_checked(N)?;
            self.0 = rest;
            head.try_into().ok()
        }
        fn u64(&mut self) -> Option<u64> {
            self.take::<8>().map(u64::from_le_bytes)
        }
        fn f64(&mut self) -> Option<f64> {
            self.take::<8>().map(f64::from_le_bytes)
        }
        fn i16(&mut self) -> Option<f64> {
            self.take::<2>()
                .map(|b| f64::from(i16::from_le_bytes(b)) / 256.0)
        }
        fn i24(&mut self) -> Option<f64> {
            let [a, b, c] = self.take::<3>()?;
            Some(((i32::from_le_bytes([a, b, c, 0]) << 8) >> 8) as f64 / 256.0)
        }
        /// A pair of class 1 (2×i16), 2 (2×i24) or 3 (2×f64).
        fn pair(&mut self, class: u8) -> Option<(f64, f64)> {
            match class {
                1 => Some((self.i16()?, self.i16()?)),
                2 => Some((self.i24()?, self.i24()?)),
                _ => Some((self.f64()?, self.f64()?)),
            }
        }
    }
    let mut cur = Cur(body);
    let mut tags = Vec::new();
    if traced {
        let n = u16::from_le_bytes(cur.take::<2>()?);
        for _ in 0..n {
            let index = u16::from_le_bytes(cur.take::<2>()?);
            let origin = u32::from_le_bytes(cur.take::<4>()?);
            let seq = u32::from_le_bytes(cur.take::<4>()?);
            let ingest_us = cur.u64()?;
            let stale_us = cur.u64()?;
            tags.push((
                index,
                TraceTag {
                    origin,
                    seq,
                    ingest_us,
                    stale_us,
                },
            ));
        }
    }
    let mut items = Vec::new();
    while !cur.0.is_empty() {
        let [h] = cur.take::<1>()?;
        let (entity, payload_bytes) = match h >> 6 {
            0 => {
                let [a, b, len] = cur.take::<3>()?;
                (u64::from(u16::from_le_bytes([a, b])), usize::from(len))
            }
            1 => {
                let [a, b, c, l0, l1] = cur.take::<5>()?;
                (
                    u64::from(u32::from_le_bytes([a, b, c, 0])),
                    usize::from(u16::from_le_bytes([l0, l1])),
                )
            }
            2 => (cur.u64()?, cur.u64()? as usize),
            _ => return None,
        };
        let origin = match h & 0x03 {
            0 => EncodedOrigin::Absolute(Point::new(cur.f64()?, cur.f64()?)),
            class => {
                let (dx, dy) = cur.pair(class)?;
                EncodedOrigin::Offset { dx, dy }
            }
        };
        let (vx, vy) = match (h >> 4) & 0x03 {
            0 => (0.0, 0.0),
            class => cur.pair(class)?,
        };
        items.push(BatchItem {
            origin,
            payload_bytes,
            entity,
            ring: (h >> 2) & 0x03,
            vx,
            vy,
            trace: None,
        });
    }
    let mut indices = Vec::new();
    for (index, tag) in tags {
        items.get_mut(usize::from(index))?.trace = Some(tag);
        indices.push(index);
    }
    Some((items, indices))
}

/// `f64` fields compared by their printed form, which is exact and
/// treats two NaNs alike.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Random batch bodies — any header byte, random field bytes, random
/// trace sections with indices in and out of order, truncations and
/// trailing junk — framed and decoded. The decoder accepts a body
/// exactly when the reference grammar parses it and its trace indices
/// strictly ascend; an accepted body reads back as the reference's
/// items, and `reconstruct_updates` over it never panics and equals the
/// per-item `EncodedOrigin::decode` fold over those items.
#[test]
fn batch_bodies_decode_exactly_as_the_reference_grammar() {
    let mut rng = SimRng::seed_from_u64(0xF022_0007);
    let (mut accepted, mut out_of_order) = (0, 0);
    for case in 0..4000 {
        let mut items = Vec::new();
        let count = rng.uniform_u64(0, 6);
        for _ in 0..count {
            // Mostly headers an encoder writes, so bodies get far.
            let mut h = rng.uniform_u64(0, 256) as u8;
            if rng.chance(0.8) && h >> 6 == 3 {
                h &= 0x7F; // the reserved scalar class becomes u24 + u16
            }
            let pair = |class: u8| [0, 4, 6, 16][usize::from(class)];
            let len = [3, 5, 16, 0][usize::from(h >> 6)]
                + (if h & 0x03 == 0 { 16 } else { pair(h & 0x03) })
                + pair((h >> 4) & 0x03);
            items.push(h);
            items.extend((0..len).map(|_| rng.uniform_u64(0, 256) as u8));
        }
        let traced = rng.chance(0.5);
        let mut body = Vec::new();
        if traced {
            let n = rng.uniform_u64(0, 4) as u16;
            // In range but for the odd one past the last item.
            let mut indices: Vec<u16> = (0..n)
                .map(|_| rng.uniform_u64(0, count.max(1) + 1) as u16)
                .collect();
            if rng.chance(0.6) {
                indices.sort_unstable();
                indices.dedup();
            }
            body.extend((indices.len() as u16).to_le_bytes());
            for index in indices {
                body.extend(index.to_le_bytes());
                body.extend((0..24).map(|_| rng.uniform_u64(0, 256) as u8));
            }
        }
        body.extend(items);
        if rng.chance(0.1) && !body.is_empty() {
            body.truncate(rng.uniform_u64(0, body.len() as u64) as usize);
        }
        if rng.chance(0.1) {
            body.extend((0..rng.uniform_u64(1, 4)).map(|_| rng.uniform_u64(0, 256) as u8));
        }

        let mut frame = vec![MAGIC[0], MAGIC[1], codec_v2::WIRE_VERSION];
        frame.push(8 | if traced { 0x40 } else { 0 });
        frame.extend((body.len() as u32).to_le_bytes());
        frame.extend([0; 12]);
        frame.extend(&body);

        let reference = reference_parse(&body, traced);
        let ascending = reference
            .as_ref()
            .is_some_and(|(_, ix)| ix.windows(2).all(|w| w[0] < w[1]));
        out_of_order += usize::from(reference.is_some() && !ascending);
        let decoded = match codec_v2::decode_frame(&frame) {
            Ok(FrameStatus::Complete {
                frame: Frame::Server(GameToClient::UpdateBatch { updates }),
                consumed,
                ..
            }) => {
                assert_eq!(consumed, frame.len(), "case {case}");
                Some(updates)
            }
            Ok(other) => panic!("case {case}: a whole batch frame gave {other:?}"),
            Err(_) => None,
        };
        assert_eq!(
            decoded.is_some(),
            ascending,
            "case {case}: decoder and reference disagree on {body:?}"
        );
        let (Some(updates), Some((items, _))) = (decoded, reference) else {
            continue;
        };
        accepted += 1;
        assert_eq!(updates.len(), items.len(), "case {case}");
        assert!(
            same(&updates.items().collect::<Vec<_>>(), &items),
            "case {case}"
        );
        for start in [None, Some(Point::new(5.0, -3.0))] {
            let (mut fold_base, mut byte_base) = (start, start);
            let fold: Option<Vec<UpdateItem>> = items
                .iter()
                .map(|i| {
                    Some(UpdateItem {
                        origin: i.origin.decode(&mut fold_base)?,
                        payload_bytes: i.payload_bytes,
                        entity: i.entity,
                        ring: i.ring,
                        vx: i.vx,
                        vy: i.vy,
                        trace: i.trace,
                    })
                })
                .collect();
            let got = reconstruct_updates(&mut byte_base, &updates);
            assert!(same(&got, &fold), "case {case} from {start:?}");
        }
    }
    assert!(accepted > 1000, "accepted bodies: {accepted}");
    assert!(
        out_of_order > 40,
        "out-of-order trace sections: {out_of_order}"
    );
}
