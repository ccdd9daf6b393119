//! Interest-layer property suites.
//!
//! **Receiver-set equivalence**: the spatial-hash interest grid must
//! return exactly the same receivers as a brute-force linear scan, for
//! every metric, radius, grid resolution and hysteresis setting —
//! including query origins and subscriber positions sitting exactly on
//! cell boundaries. Fan-out correctness *is* consistency for a game
//! server; any divergence between the fast path and the obvious path is
//! a lost or spurious update.
//!
//! **Delta-stream equivalence**: decode(encode(stream)) must
//! reconstruct the *exact* absolute positions an absolute-only encoder
//! would send — across keyframe boundaries, client resyncs, teleports
//! and extreme magnitudes — and a rate-limited delta stream must stay
//! exactly decodable while delivering the most relevant subset of each
//! flush (converging to the absolute stream as budgets allow).
//!
//! **Pipeline equivalence**: with rings untiered and the auto-tuner
//! off, the composed `DisseminationPipeline` inside `GameServerNode`
//! must produce **byte-identical** wire output to the pre-refactor
//! hand-wired flush path (grid → batcher → policy → encoder glued
//! directly), for every random script of joins, moves, actions, leaves
//! and ticks — the refactor is a pure re-seaming, not a behaviour
//! change.
//!
//! **Flush-policy oracle**: the index-ranking `FlushPolicy::select`
//! must keep exactly the items, in exactly the order, that the policy
//! as first written (`reference_select` below: tuple sort, map-based
//! superseding, merge pass) keeps — over anonymous and repeated
//! entities, repeated origins, distance ties, mixed sizes and every
//! budget edge.
//!
//! **Shared event log**: storing an event's payload once per ring in a
//! shared log, with 4-byte indices in the per-receiver queues, must
//! flush exactly what one owned payload per delivery flushes — under
//! tiered and sampled rings, position-only rings, prediction budgets,
//! caps, trace charging and churn, and without calling the producer's
//! `make` per receiver.
//!
//! **Ring membership / sampling**: every delivered item carries the
//! ring its receiver's enqueue-time distance falls in, nothing outside
//! the outermost ring is delivered, the near ring is never sampled,
//! and each outer ring delivers exactly ⌈candidates / rate⌉ items per
//! receiver (deterministic, evenly spaced sampling).
//!
//! **Tuner hysteresis**: the density-driven grid tuner never leaves its
//! bounds, never reacts to jitter inside the hysteresis band, always
//! reacts to a sustained decisive change within its streak, and
//! reproduces its decisions after a state export/restore (the failover
//! inheritance path).
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible).

use matrix_middleware::core::{
    AutoTunerConfig, DeltaEncoder, EncodedOrigin, FlushPolicy, InterestGrid, PolicyScratch,
    ANON_ENTITY,
};
use matrix_middleware::geometry::{Metric, Point, Rect};
use matrix_middleware::sim::SimRng;
use std::collections::{BTreeMap, HashMap};

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

fn metric_of(sel: u64) -> Metric {
    METRICS[(sel % 3) as usize]
}

/// One whole flush through the streaming delta encoder, collected.
fn encode_flush<K: Ord + Copy>(
    enc: &mut DeltaEncoder<K>,
    client: K,
    origins: &[Point],
) -> Vec<EncodedOrigin> {
    let mut flush = enc.begin_flush(client);
    let out = origins.iter().map(|&p| flush.encode(p)).collect();
    flush.finish();
    out
}

/// The flush policy as first written, kept verbatim as the oracle the
/// index-ranking `FlushPolicy::select` is held to: sort `(distance,
/// arrival, item)` tuples, supersede per `(entity, size)` through a
/// map, merge duplicate origins into a second vector, keep the prefix
/// that fits. Returns the kept items in delivery order and the number
/// merged away or dropped.
fn reference_select<U>(
    policy: FlushPolicy,
    viewer: Point,
    metric: Metric,
    origin_of: impl Fn(&U) -> Point,
    entity_of: impl Fn(&U) -> u64,
    size_of: impl Fn(&U) -> usize,
    items: Vec<U>,
) -> (Vec<U>, usize) {
    let total = items.len();
    let mut ranked: Vec<(f64, usize, U)> = items
        .into_iter()
        .enumerate()
        .map(|(i, u)| (origin_of(&u).distance_by(viewer, metric), i, u))
        .collect();
    // Stable relevance order: distance, then arrival.
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let over_count = policy.max_items > 0 && ranked.len() > policy.max_items;
    let over_bytes = policy.budget_bytes > 0
        && ranked.iter().map(|(_, _, u)| size_of(u)).sum::<usize>() > policy.budget_bytes;
    if over_count || over_bytes {
        let mut newest: BTreeMap<(u64, usize), usize> = BTreeMap::new();
        for (_, i, u) in &ranked {
            let entity = entity_of(u);
            if entity != ANON_ENTITY {
                let slot = newest.entry((entity, size_of(u))).or_insert(*i);
                *slot = (*slot).max(*i);
            }
        }
        ranked.retain(|(_, i, u)| {
            let entity = entity_of(u);
            entity == ANON_ENTITY || newest[&(entity, size_of(u))] == *i
        });
        let mut merged: Vec<(f64, usize, U)> = Vec::with_capacity(ranked.len());
        for (d, i, u) in ranked {
            match merged.last_mut() {
                Some(last) if last.0 == d && origin_of(&last.2) == origin_of(&u) => {
                    *last = (d, i, u);
                }
                _ => merged.push((d, i, u)),
            }
        }
        ranked = merged;
    }

    let mut kept = Vec::new();
    let mut bytes = 0usize;
    for (_, _, u) in ranked {
        if policy.max_items > 0 && kept.len() >= policy.max_items {
            break;
        }
        let cost = size_of(&u);
        if policy.budget_bytes > 0 && !kept.is_empty() && bytes + cost > policy.budget_bytes {
            break;
        }
        bytes += cost;
        kept.push(u);
    }
    let dropped = total - kept.len();
    (kept, dropped)
}

/// Brute-force receiver set over the mirror position map.
fn linear_scan(
    positions: &HashMap<u32, Point>,
    origin: Point,
    radius: f64,
    metric: Metric,
) -> Vec<u32> {
    let mut out: Vec<u32> = positions
        .iter()
        .filter(|(_, p)| p.distance_by(origin, metric) <= radius)
        .map(|(k, _)| *k)
        .collect();
    out.sort_unstable();
    out
}

fn assert_equivalent(
    grid: &InterestGrid<u32>,
    positions: &HashMap<u32, Point>,
    origin: Point,
    radius: f64,
    metric: Metric,
    context: &str,
) {
    let mut from_grid = grid.query_collect(origin, radius, metric);
    from_grid.sort_unstable();
    let from_scan = linear_scan(positions, origin, radius, metric);
    assert_eq!(
        from_grid, from_scan,
        "{context}: grid and linear scan disagree at {origin} r={radius} {metric:?}"
    );
}

/// Random crowds, random worlds, random resolutions: the grid and the
/// linear scan agree on every query.
#[test]
fn grid_matches_linear_scan_on_random_crowds() {
    let mut rng = SimRng::seed_from_u64(0x0121_7E57);
    for case in 0..60 {
        // Random world rectangle (varied origin and aspect ratio).
        let x0 = rng.uniform(-500.0, 500.0);
        let y0 = rng.uniform(-500.0, 500.0);
        let w = rng.uniform(10.0, 2000.0);
        let h = rng.uniform(10.0, 2000.0);
        let world = Rect::from_coords(x0, y0, x0 + w, y0 + h);
        // Up to the tuner's ceiling: the finest grid a server runs.
        let cells = rng.uniform_u64(1, AutoTunerConfig::MAX_CELLS as u64 + 1) as u32;
        let hysteresis = if rng.chance(0.5) {
            0.0
        } else {
            rng.uniform(0.0, (w.min(h) / cells as f64) * 0.5)
        };
        let mut grid: InterestGrid<u32> =
            InterestGrid::new(world, cells).with_hysteresis(hysteresis);
        let mut positions: HashMap<u32, Point> = HashMap::new();

        let n = rng.uniform_u64(0, 400) as u32;
        for key in 0..n {
            // Some positions stray outside the world (roaming clients).
            let p = Point::new(
                rng.uniform(x0 - 50.0, x0 + w + 50.0),
                rng.uniform(y0 - 50.0, y0 + h + 50.0),
            );
            grid.insert(key, p);
            positions.insert(key, p);
        }
        for _ in 0..6 {
            // Origins stray outside the world too (events from roaming
            // clients clamped into edge cells).
            let origin = Point::new(
                rng.uniform(x0 - 80.0, x0 + w + 80.0),
                rng.uniform(y0 - 80.0, y0 + h + 80.0),
            );
            let radius = rng.uniform(0.0, w.max(h) * 0.6);
            let metric = metric_of(rng.uniform_u64(0, 3));
            assert_equivalent(
                &grid,
                &positions,
                origin,
                radius,
                metric,
                &format!("case {case}"),
            );
        }
    }
}

/// Incremental updates (moves, removals, re-insertions) keep the grid in
/// lockstep with the mirror — including hysteresis-heavy jitter across
/// cell boundaries.
#[test]
fn grid_stays_equivalent_under_incremental_moves() {
    let mut rng = SimRng::seed_from_u64(0x00DD_50CC);
    for case in 0..40 {
        let world = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let cells = rng.uniform_u64(2, 200) as u32;
        let cell = 1000.0 / cells as f64;
        let mut grid: InterestGrid<u32> =
            InterestGrid::new(world, cells).with_hysteresis(cell * 0.2);
        let mut positions: HashMap<u32, Point> = HashMap::new();

        for step in 0..300u32 {
            let key = rng.uniform_u64(0, 60) as u32;
            match rng.uniform_u64(0, 10) {
                // Mostly small jittery moves (boundary crossers).
                0..=6 => {
                    let base = positions.get(&key).copied().unwrap_or_else(|| {
                        Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
                    });
                    let p = Point::new(
                        base.x + rng.uniform(-cell, cell),
                        base.y + rng.uniform(-cell, cell),
                    );
                    grid.update(key, p);
                    positions.insert(key, p);
                }
                // Teleports.
                7..=8 => {
                    let p = Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0));
                    grid.update(key, p);
                    positions.insert(key, p);
                }
                // Departures.
                _ => {
                    let was_tracked = positions.remove(&key).is_some();
                    assert_eq!(grid.remove(key), was_tracked, "case {case} step {step}");
                }
            }
            assert_eq!(grid.len(), positions.len(), "case {case} step {step}");
            if step % 10 == 0 {
                let origin = Point::new(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0));
                let radius = rng.uniform(0.0, 400.0);
                let metric = metric_of(rng.uniform_u64(0, 3));
                assert_equivalent(
                    &grid,
                    &positions,
                    origin,
                    radius,
                    metric,
                    &format!("case {case} step {step}"),
                );
            }
        }
    }
}

/// Points exactly on cell boundaries — subscribers *and* query origins —
/// are where floor/clamp arithmetic goes wrong; pin them down explicitly
/// at several grid resolutions and radii whose balls end exactly on
/// boundaries.
#[test]
fn exact_cell_boundaries_are_handled() {
    let world = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
    for cells in [1u32, 2, 4, 5, 10, 50] {
        let cell = 100.0 / cells as f64;
        for hysteresis in [0.0, cell * 0.25] {
            let mut grid: InterestGrid<u32> =
                InterestGrid::new(world, cells).with_hysteresis(hysteresis);
            let mut positions: HashMap<u32, Point> = HashMap::new();
            let mut key = 0u32;
            // Subscribers on every cell corner, including the world's own
            // boundary corners.
            for i in 0..=cells {
                for j in 0..=cells {
                    let p = Point::new(i as f64 * cell, j as f64 * cell);
                    grid.insert(key, p);
                    positions.insert(key, p);
                    key += 1;
                }
            }
            // Query from corners and edge midpoints with radii that are
            // exact multiples of the cell size (boundary-touching balls).
            for metric in METRICS {
                for &origin in &[
                    Point::new(0.0, 0.0),
                    Point::new(100.0, 100.0),
                    Point::new(50.0, 0.0),
                    Point::new(cell, cell),
                    Point::new(cell * 1.5, cell),
                ] {
                    for radius in [0.0, cell, cell * 2.0, 50.0, 100.0] {
                        assert_equivalent(
                            &grid,
                            &positions,
                            origin,
                            radius,
                            metric,
                            &format!("cells={cells} hysteresis={hysteresis}"),
                        );
                    }
                }
            }
        }
    }
}

/// The grid path must agree with the scan when driven through the real
/// game-server fan-out (counting mode), across random crowds: this pins
/// the integration, not just the data structure.
#[test]
fn gameserver_fanout_counts_match_linear_scan() {
    use matrix_middleware::core::{
        ClientId, ClientToGame, GameServerConfig, GameServerNode, ServerId,
    };
    use matrix_middleware::sim::SimTime;

    let mut rng = SimRng::seed_from_u64(0xFA_0FF);
    for case in 0..20 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let radius = rng.uniform(20.0, 200.0);
        let metric = metric_of(rng.uniform_u64(0, 3));
        let cfg = GameServerConfig {
            metric,
            cells_per_axis: rng.uniform_u64(1, 48) as u32,
            ..GameServerConfig::default()
        };
        let mut node = GameServerNode::new(ServerId(1), cfg);
        node.register(world, radius);

        let n = rng.uniform_u64(2, 200);
        for id in 0..n {
            let pos = Point::new(rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0));
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos,
                    state_bytes: 0,
                },
            );
        }
        // A few movement rounds so the incremental index is exercised.
        for _ in 0..50 {
            let id = rng.uniform_u64(0, n);
            let pos = Point::new(rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0));
            node.on_client(SimTime::ZERO, ClientId(id), ClientToGame::Move { pos });
        }

        let actor = ClientId(0);
        let origin = Point::new(rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0));
        let before = node.stats().updates_fanned;
        node.on_client(SimTime::ZERO, actor, ClientToGame::Move { pos: origin });
        let counted = node.stats().updates_fanned - before;

        let expected = node
            .client_positions()
            .iter()
            .filter(|p| p.distance_by(origin, metric) <= radius)
            .count() as u64
            - 1; // the actor (at `origin`, distance 0) never sees itself
        assert_eq!(
            counted, expected,
            "case {case}: fan-out diverged from linear scan"
        );
    }
}

// ---------------------------------------------------------------------------
// Delta-stream equivalence
// ---------------------------------------------------------------------------

/// The delta codec in isolation: for every keyframe interval, resync
/// pattern and origin distribution (lattice-quantised crowd steps as
/// the game server produces, off-lattice stragglers, teleports, extreme
/// magnitudes), decoding reproduces the absolute origins bit-for-bit.
#[test]
fn delta_codec_reconstructs_absolute_streams_exactly() {
    use matrix_middleware::core::quantize;

    let quantum = DeltaEncoder::<u32>::DEFAULT_QUANTUM;
    let mut rng = SimRng::seed_from_u64(0x0DE1_7A57);
    for case in 0..80 {
        let keyframe_every = rng.uniform_u64(0, 7) as u32;
        let mut enc: DeltaEncoder<u32> = DeltaEncoder::new(keyframe_every);
        let clients = rng.uniform_u64(1, 5) as u32;
        // Each receiver's stream base, as `EncodedOrigin::decode` threads it.
        let mut bases: Vec<Option<Point>> = vec![None; clients as usize];
        let mut cursors: Vec<Point> = (0..clients)
            .map(|_| Point::new(rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)))
            .collect();
        let mut deltas_seen = 0usize;

        for flush in 0..40 {
            let cid = rng.uniform_u64(0, clients as u64) as u32;
            // A resync (join / handover) drops state on both sides.
            if rng.chance(0.1) {
                enc.reset(cid);
                bases[cid as usize] = None;
            }
            let n = rng.uniform_u64(1, 9) as usize;
            let origins: Vec<Point> = (0..n)
                .map(|_| {
                    let p = cursors[cid as usize];
                    let next = match rng.uniform_u64(0, 10) {
                        // Mostly small correlated steps snapped onto the
                        // wire lattice, as `GameServerNode::fan_out`
                        // produces (the crowd case: these must delta).
                        0..=5 => quantize(
                            Point::new(p.x + rng.uniform(-5.0, 5.0), p.y + rng.uniform(-5.0, 5.0)),
                            quantum,
                        ),
                        // Off-lattice stragglers: exact, but not
                        // representable in the compact frame.
                        6 => Point::new(p.x + rng.uniform(-5.0, 5.0), p.y + rng.uniform(-5.0, 5.0)),
                        // Teleports past the delta threshold.
                        7..=8 => Point::new(rng.uniform(-1.0e5, 1.0e5), rng.uniform(-1.0e5, 1.0e5)),
                        // Extreme magnitudes where f64 deltas cannot
                        // round-trip: the encoder must keyframe.
                        _ => Point::new(rng.uniform(-1.0, 1.0) * 1.0e15, rng.uniform(-1.0, 1.0)),
                    };
                    cursors[cid as usize] = next;
                    next
                })
                .collect();
            let encoded = encode_flush(&mut enc, cid, &origins);
            assert_eq!(encoded.len(), origins.len());
            deltas_seen += encoded.iter().filter(|e| !e.is_keyframe()).count();
            let decoded: Vec<Point> = encoded
                .iter()
                .map(|e| {
                    e.decode(&mut bases[cid as usize])
                        .expect("sender keyframes after every resync")
                })
                .collect();
            assert_eq!(
                decoded, origins,
                "case {case} flush {flush} (keyframe_every={keyframe_every}): \
                 decode(encode(..)) must be exact"
            );
            if keyframe_every == 0 {
                assert!(
                    encoded.iter().all(|e| e.is_keyframe()),
                    "keyframe_every=0 disables deltas"
                );
            }
        }
        if keyframe_every > 0 {
            assert!(
                deltas_seen > 0,
                "case {case}: lattice steps must actually exercise the delta path"
            );
        }
    }
}

/// The full game-server pipeline: a delta-encoding node's client streams
/// reconstruct to exactly the item sequences an absolute-origin node
/// emits for identical inputs, across flush boundaries and client
/// resyncs — and with rate limiting on, every flush stays exactly
/// decodable and delivers the nearest subset of the absolute flush.
#[test]
fn delta_node_streams_reconstruct_absolute_node_streams() {
    use matrix_middleware::core::{
        reconstruct_updates, ClientId, ClientToGame, GameAction, GameServerConfig, GameServerNode,
        GameToClient, ServerId, UpdateItem, WireBatch,
    };
    use matrix_middleware::sim::{SimDuration, SimTime};
    use std::collections::BTreeMap;

    type Batches = BTreeMap<ClientId, Vec<WireBatch>>;

    // One scripted input stream, replayed into differently configured
    // nodes.
    #[derive(Clone)]
    enum Step {
        Client(u64, ClientId, ClientToGame),
        Tick(u64),
    }

    fn replay(cfg: GameServerConfig, world: Rect, radius: f64, script: &[Step]) -> Batches {
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, radius);
        let mut batches: Batches = BTreeMap::new();
        let mut collect = |actions: Vec<GameAction>| {
            for a in actions {
                if let GameAction::ToClient(cid, GameToClient::UpdateBatch { updates }) = a {
                    batches.entry(cid).or_default().push(updates);
                }
            }
        };
        for step in script {
            match step {
                Step::Client(t, cid, msg) => {
                    collect(node.on_client(SimTime::from_millis(*t), *cid, msg.clone()))
                }
                Step::Tick(t) => collect(node.on_tick(SimTime::from_millis(*t), 0.0)),
            }
        }
        batches
    }

    fn absolutes(batch: &WireBatch) -> Vec<UpdateItem> {
        assert!(
            batch.items().all(|i| i.origin.is_keyframe()),
            "absolute node must never emit deltas"
        );
        reconstruct_updates(&mut None, batch).expect("keyframes need no base")
    }

    let mut rng = SimRng::seed_from_u64(0x5E0_0E11);
    for case in 0..12 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let radius = rng.uniform(40.0, 150.0);
        let clients = rng.uniform_u64(4, 14);
        // Script: joins, correlated moves, actions, occasional rejoins,
        // periodic ticks.
        let mut script = Vec::new();
        let mut pos: Vec<Point> = Vec::new();
        for id in 0..clients {
            let p = Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0));
            pos.push(p);
            script.push(Step::Client(
                0,
                ClientId(id),
                ClientToGame::Join {
                    pos: p,
                    state_bytes: 0,
                },
            ));
        }
        let mut t = 0u64;
        for _ in 0..60 {
            t += rng.uniform_u64(5, 30);
            let id = rng.uniform_u64(0, clients);
            match rng.uniform_u64(0, 10) {
                0..=5 => {
                    let p = Point::new(
                        (pos[id as usize].x + rng.uniform(-10.0, 10.0)).clamp(0.0, 800.0),
                        (pos[id as usize].y + rng.uniform(-10.0, 10.0)).clamp(0.0, 800.0),
                    );
                    pos[id as usize] = p;
                    script.push(Step::Client(t, ClientId(id), ClientToGame::Move { pos: p }));
                }
                6..=7 => script.push(Step::Client(
                    t,
                    ClientId(id),
                    ClientToGame::Action {
                        pos: pos[id as usize],
                        payload_bytes: rng.uniform_u64(0, 200) as usize,
                    },
                )),
                8 => script.push(Step::Tick(t)),
                // Resync: leave and immediately rejoin elsewhere.
                _ => {
                    script.push(Step::Client(t, ClientId(id), ClientToGame::Leave));
                    let p = Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0));
                    pos[id as usize] = p;
                    script.push(Step::Client(
                        t,
                        ClientId(id),
                        ClientToGame::Join {
                            pos: p,
                            state_bytes: 0,
                        },
                    ));
                }
            }
        }
        script.push(Step::Tick(t + 100));

        let base_cfg = GameServerConfig {
            emit_updates: true,
            batch_interval: SimDuration::from_millis(50),
            ..GameServerConfig::default()
        };
        let absolute_cfg = GameServerConfig {
            keyframe_every: 0,
            max_updates_per_flush: 0,
            client_budget_bytes: 0,
            ..base_cfg
        };
        let delta_cfg = GameServerConfig {
            keyframe_every: rng.uniform_u64(1, 7) as u32,
            max_updates_per_flush: 0,
            client_budget_bytes: 0,
            ..base_cfg
        };
        let capped_cfg = GameServerConfig {
            keyframe_every: rng.uniform_u64(1, 7) as u32,
            max_updates_per_flush: rng.uniform_u64(1, 4) as u32,
            client_budget_bytes: 0,
            ..base_cfg
        };

        let reference = replay(absolute_cfg, world, radius, &script);
        let delta = replay(delta_cfg, world, radius, &script);
        let capped = replay(capped_cfg, world, radius, &script);

        // Uncapped delta node ≡ absolute node after reconstruction.
        assert_eq!(
            reference.keys().collect::<Vec<_>>(),
            delta.keys().collect::<Vec<_>>(),
            "case {case}: same receivers"
        );
        for (cid, ref_batches) in &reference {
            let delta_batches = &delta[cid];
            assert_eq!(
                ref_batches.len(),
                delta_batches.len(),
                "case {case} {cid:?}"
            );
            let mut base = None;
            for (i, (r, d)) in ref_batches.iter().zip(delta_batches).enumerate() {
                let rebuilt = reconstruct_updates(&mut base, d)
                    .expect("delta stream must always be decodable in order");
                assert_eq!(
                    rebuilt,
                    absolutes(r),
                    "case {case} {cid:?} flush {i}: reconstruction must equal \
                     the absolute-origin stream exactly"
                );
            }
        }

        // Rate-limited node: every flush decodes exactly, is the nearest
        // subset of the corresponding absolute flush, and respects the cap.
        let cap = capped_cfg.max_updates_per_flush as usize;
        for (cid, cap_batches) in &capped {
            let ref_batches = &reference[cid];
            assert_eq!(ref_batches.len(), cap_batches.len(), "case {case} {cid:?}");
            let mut base = None;
            for (i, (r, c)) in ref_batches.iter().zip(cap_batches).enumerate() {
                let rebuilt = reconstruct_updates(&mut base, c)
                    .expect("rate limiting must never corrupt the delta stream");
                assert!(
                    rebuilt.len() <= cap && !rebuilt.is_empty(),
                    "case {case} {cid:?} flush {i}: cap violated"
                );
                let full = absolutes(r);
                // Every delivered item is one of the absolute node's
                // items for the same flush, reconstructed exactly
                // (degradation defers events, it never invents or warps
                // them).
                for item in &rebuilt {
                    assert!(
                        full.contains(item),
                        "case {case} {cid:?} flush {i}: {item:?} not in the absolute flush"
                    );
                }
                // Without pressure the two flushes are identical. Under
                // pressure, degradation is entity-aware: repeated
                // same-sized updates from one entity supersede each
                // other, so a degraded flush never ships two states of
                // the same entity (the nearest *surviving* items ship,
                // which may displace a stale nearer one).
                if rebuilt.len() == full.len() {
                    assert_eq!(rebuilt, full, "case {case} {cid:?} flush {i}");
                } else {
                    let mut seen = std::collections::BTreeSet::new();
                    for item in &rebuilt {
                        if item.entity != 0 {
                            assert!(
                                seen.insert((item.entity, item.payload_bytes)),
                                "case {case} {cid:?} flush {i}: superseded state shipped \
                                 in a degraded flush: {item:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flush-policy oracle
// ---------------------------------------------------------------------------

/// `FlushPolicy::select` against `reference_select`: same kept items,
/// same order, same `dropped`, on queues built to hit every branch —
/// anonymous and repeated entities, origins repeated exactly, distinct
/// origins at exactly equal distance (integer offsets mirrored around
/// the viewer tie under every metric), mixed item sizes — under every
/// count cap in {0, 1, n−1, n, n+1} crossed with byte budgets of 0,
/// less than one item, about half the queue and more than all of it.
/// One scratch serves every case, as it serves every receiver of a
/// flush.
#[test]
fn select_matches_the_reference_policy() {
    /// `(origin, size, entity, arrival)` — the arrival index identifies
    /// the item in the comparison.
    type Item = (Point, usize, u64, usize);

    let mut rng = SimRng::seed_from_u64(0x5E1E_C7ED);
    let mut scratch = PolicyScratch::default();
    let viewer = Point::new(100.0, 100.0);
    let (mut cases, mut degraded, mut ties) = (0u32, 0u32, 0u32);
    for set in 0..150u64 {
        let metric = metric_of(set);
        let n = rng.uniform_u64(0, 41) as usize;
        let spread = rng.uniform_u64(1, 7) as i64;
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let dx = rng.uniform_u64(0, 2 * spread as u64 + 1) as i64 - spread;
                let dy = rng.uniform_u64(0, 2 * spread as u64 + 1) as i64 - spread;
                let origin = Point::new(viewer.x + dx as f64, viewer.y + dy as f64);
                let entity = if rng.chance(0.3) {
                    ANON_ENTITY
                } else {
                    rng.uniform_u64(1, 6)
                };
                let size = [8usize, 8, 8, 30, 64][rng.uniform_u64(0, 5) as usize];
                (origin, size, entity, i)
            })
            .collect();
        let total: usize = items.iter().map(|u| u.1).sum();
        ties += items
            .iter()
            .filter(|a| {
                items.iter().any(|b| {
                    a.0 != b.0 && a.0.distance_by(viewer, metric) == b.0.distance_by(viewer, metric)
                })
            })
            .count() as u32;
        for max_items in [0, 1, n.saturating_sub(1), n, n + 1] {
            for budget_bytes in [0, 5, total / 2, total + 1] {
                let policy = FlushPolicy {
                    max_items,
                    budget_bytes,
                };
                let (want, want_dropped) = reference_select(
                    policy,
                    viewer,
                    metric,
                    |u: &Item| u.0,
                    |u: &Item| u.2,
                    |u: &Item| u.1,
                    items.clone(),
                );
                let dropped = policy.select(
                    viewer,
                    metric,
                    |u: &Item| u.0,
                    |u: &Item| u.2,
                    |u: &Item| u.1,
                    &items,
                    &mut scratch,
                );
                let got: Vec<Item> = scratch.kept().map(|i| items[i]).collect();
                assert_eq!(
                    got, want,
                    "set {set} ({metric:?}, n={n}) {policy:?}: kept items or their order"
                );
                assert_eq!(dropped, want_dropped, "set {set} {policy:?}: dropped");
                cases += 1;
                degraded += u32::from(dropped > 0);
            }
        }
    }
    assert!(cases >= 2000, "{cases} cases");
    assert!(
        degraded > cases / 4,
        "only {degraded} of {cases} cases degraded"
    );
    assert!(
        ties > 100,
        "only {ties} equal-distance items from distinct origins"
    );
}

/// The selection `FlushPolicy::select` made while it still found the
/// newest item per `(entity, size)` by comparison-sorting `(entity,
/// size, arrival)` triples: kept indices in delivery order, and the
/// dropped count. The linear supersede pass must be this function.
fn sort_based_select(
    policy: FlushPolicy,
    viewer: Point,
    metric: Metric,
    items: &[(Point, usize, u64)],
) -> (Vec<usize>, usize) {
    let key = |i: usize| (items[i].0.distance_by(viewer, metric), i);
    let over_count = policy.max_items > 0 && items.len() > policy.max_items;
    let over_bytes =
        policy.budget_bytes > 0 && items.iter().map(|u| u.1).sum::<usize>() > policy.budget_bytes;
    let degraded = over_count || over_bytes;
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    if degraded {
        let mut groups: Vec<(u64, usize, usize)> = Vec::new();
        for (i, u) in items.iter().enumerate() {
            match u.2 {
                ANON_ENTITY => ranked.push(key(i)),
                entity => groups.push((entity, u.1, i)),
            }
        }
        groups.sort_unstable();
        for (g, &(entity, size, i)) in groups.iter().enumerate() {
            let newest = groups
                .get(g + 1)
                .is_none_or(|&(e, s, _)| (e, s) != (entity, size));
            if newest {
                ranked.push(key(i));
            }
        }
    } else {
        ranked.extend((0..items.len()).map(key));
    }
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    if degraded {
        let mut merged: Vec<(f64, usize)> = Vec::new();
        for (d, i) in ranked {
            match merged.last_mut() {
                Some(last) if last.0 == d && items[last.1].0 == items[i].0 => *last = (d, i),
                _ => merged.push((d, i)),
            }
        }
        ranked = merged;
        let (mut kept, mut bytes) = (0, 0usize);
        for &(_, i) in &ranked {
            if policy.max_items > 0 && kept >= policy.max_items {
                break;
            }
            let cost = items[i].1;
            if policy.budget_bytes > 0 && kept > 0 && bytes + cost > policy.budget_bytes {
                break;
            }
            bytes += cost;
            kept += 1;
        }
        ranked.truncate(kept);
    }
    let kept: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();
    let dropped = items.len() - kept.len();
    (kept, dropped)
}

/// The supersede pass is the same selection: over queues of entities
/// from a pool small enough to repeat, sizes from {32, 64} and anonymous
/// items mixed in, `select` keeps the same indices in the same order and
/// drops the same count as the sort-based selection — under every count
/// cap 1..=n with the byte budget off and on. One scratch serves queues
/// that grow, shrink and grow again, so a table sized for a long queue
/// is probed by a short one and regrown by a longer one.
#[test]
fn supersede_pass_matches_the_sort_based_selection() {
    let mut rng = SimRng::seed_from_u64(0x5EED_5E75);
    let mut scratch = PolicyScratch::default();
    let viewer = Point::new(0.0, 0.0);
    let (mut cases, mut superseding) = (0u32, 0u32);
    for (set, n) in [6usize, 40, 3, 150, 1, 17, 90, 2, 260, 9, 33]
        .into_iter()
        .enumerate()
    {
        let metric = metric_of(set as u64);
        let pool = rng.uniform_u64(2, 2 + n as u64 / 3);
        let items: Vec<(Point, usize, u64)> = (0..n)
            .map(|_| {
                let origin = Point::new(
                    rng.uniform_u64(0, 64) as f64 * 0.25,
                    rng.uniform_u64(0, 64) as f64 * 0.25,
                );
                let entity = if rng.chance(0.15) {
                    ANON_ENTITY
                } else {
                    rng.uniform_u64(1, 1 + pool)
                };
                let size = if rng.chance(0.5) { 32 } else { 64 };
                (origin, size, entity)
            })
            .collect();
        let total: usize = items.iter().map(|u| u.1).sum();
        for max_items in 1..=n {
            for budget_bytes in [0, total / 3] {
                let policy = FlushPolicy {
                    max_items,
                    budget_bytes,
                };
                let (want, want_dropped) = sort_based_select(policy, viewer, metric, &items);
                let dropped = policy.select(
                    viewer,
                    metric,
                    |u: &(Point, usize, u64)| u.0,
                    |u| u.2,
                    |u| u.1,
                    &items,
                    &mut scratch,
                );
                let got: Vec<usize> = scratch.kept().collect();
                assert_eq!(got, want, "set {set} (n={n}) {policy:?}: kept indices");
                assert_eq!(
                    dropped, want_dropped,
                    "set {set} (n={n}) {policy:?}: dropped"
                );
                cases += 1;
                superseding += u32::from(dropped > n - max_items.min(n));
            }
        }
    }
    assert!(cases >= 1000, "{cases} cases");
    assert!(
        superseding > cases / 2,
        "only {superseding} of {cases} cases superseded or merged anything"
    );
}

// ---------------------------------------------------------------------------
// Pipeline equivalence (the refactor-safety pin)
// ---------------------------------------------------------------------------

/// With rings untiered and the tuner off, the pipeline-backed
/// `GameServerNode` must emit byte-for-byte the wire frames the
/// pre-refactor hand-wired flush path produced: same receivers, same
/// batch boundaries, same item order, same keyframe/delta decisions,
/// same encoded JSON. The reference below *is* that pre-refactor path —
/// `InterestGrid` + `UpdateBatcher` + the flush policy + `DeltaEncoder`
/// glued together exactly as `GameServerNode::flush_updates` wired them
/// before the `DisseminationPipeline` existed. Its policy stage is
/// `reference_select`, so the oracle shares no ranking code with the
/// pipeline it checks.
#[test]
fn pipeline_is_byte_identical_to_the_hand_wired_flush_path() {
    use matrix_middleware::core::{
        codec_v2::{self, FrameMeta},
        quantize, BatchItem, ClientId, ClientToGame, GameAction, GameServerConfig, GameServerNode,
        GameToClient, ServerId, UpdateBatcher, UpdateItem, WireBatch,
    };
    use matrix_middleware::sim::{SimDuration, SimTime};

    /// The pre-refactor send path, reproduced verbatim.
    struct Reference {
        cfg: GameServerConfig,
        radius: f64,
        clients: BTreeMap<ClientId, Point>,
        grid: InterestGrid<ClientId>,
        batcher: UpdateBatcher<ClientId, UpdateItem>,
        encoder: DeltaEncoder<ClientId>,
        last_flush: SimTime,
    }

    impl Reference {
        fn new(cfg: GameServerConfig, world: Rect, radius: f64) -> Reference {
            let cells = cfg.cells_per_axis.max(1);
            let margin = 0.1 * (world.width() / cells as f64).min(world.height() / cells as f64);
            Reference {
                radius,
                clients: BTreeMap::new(),
                grid: InterestGrid::new(world, cells).with_hysteresis(margin.max(0.0)),
                batcher: UpdateBatcher::new(),
                encoder: DeltaEncoder::new(cfg.keyframe_every).with_quantum(cfg.origin_quantum),
                last_flush: SimTime::ZERO,
                cfg,
            }
        }

        fn vision(&self) -> f64 {
            if self.cfg.vision_radius > 0.0 {
                self.cfg.vision_radius
            } else {
                self.radius
            }
        }

        fn join(&mut self, cid: ClientId, pos: Point) {
            self.clients.insert(cid, pos);
            self.grid.insert(cid, pos);
            self.encoder.reset(cid);
        }

        fn leave(&mut self, cid: ClientId) {
            if self.clients.remove(&cid).is_some() {
                self.grid.remove(cid);
                self.batcher.forget(cid);
                self.encoder.reset(cid);
            }
        }

        fn event(
            &mut self,
            now: SimTime,
            cid: ClientId,
            pos: Point,
            payload: usize,
        ) -> Vec<(ClientId, Vec<BatchItem>)> {
            if !self.clients.contains_key(&cid) {
                return Vec::new();
            }
            self.clients.insert(cid, pos);
            self.grid.update(cid, pos);
            let wire_origin = quantize(pos, self.cfg.origin_quantum);
            let vision = self.vision();
            let batcher = &mut self.batcher;
            self.grid.query(pos, vision, self.cfg.metric, |other, _| {
                if other == cid {
                    return;
                }
                batcher.push(
                    other,
                    UpdateItem {
                        origin: wire_origin,
                        payload_bytes: payload,
                        entity: cid.0,
                        ring: 0,
                        vx: 0.0,
                        vy: 0.0,
                        trace: None,
                    },
                );
            });
            self.flush_if_due(now)
        }

        fn flush_if_due(&mut self, now: SimTime) -> Vec<(ClientId, Vec<BatchItem>)> {
            if self.batcher.is_empty() || now.since(self.last_flush) < self.cfg.batch_interval {
                return Vec::new();
            }
            self.flush(now)
        }

        fn flush(&mut self, now: SimTime) -> Vec<(ClientId, Vec<BatchItem>)> {
            self.last_flush = now;
            let policy = FlushPolicy {
                max_items: self.cfg.max_updates_per_flush as usize,
                budget_bytes: self.cfg.client_budget_bytes as usize,
            };
            let mut queued = Vec::new();
            self.batcher.drain_each(|cid, updates| {
                queued.push((cid, updates.to_vec()));
                true
            });
            let mut out = Vec::new();
            for (cid, updates) in queued {
                let Some(viewer) = self.clients.get(&cid).copied() else {
                    self.encoder.reset(cid);
                    continue;
                };
                let (kept, _) = reference_select(
                    policy,
                    viewer,
                    self.cfg.metric,
                    |u: &UpdateItem| u.origin,
                    |u: &UpdateItem| u.entity,
                    |u: &UpdateItem| UpdateItem::WIRE_BYTES + u.payload_bytes,
                    updates,
                );
                let origins: Vec<Point> = kept.iter().map(|u| u.origin).collect();
                let encoded = encode_flush(&mut self.encoder, cid, &origins);
                let items: Vec<BatchItem> = kept
                    .into_iter()
                    .zip(encoded)
                    .map(|(u, origin)| BatchItem {
                        origin,
                        payload_bytes: u.payload_bytes,
                        entity: u.entity,
                        ring: 0,
                        vx: 0.0,
                        vy: 0.0,
                        trace: None,
                    })
                    .collect();
                out.push((cid, items));
            }
            out
        }
    }

    fn batches_of(actions: &[GameAction]) -> Vec<(ClientId, WireBatch)> {
        actions
            .iter()
            .filter_map(|a| match a {
                GameAction::ToClient(cid, GameToClient::UpdateBatch { updates }) => {
                    Some((*cid, updates.clone()))
                }
                _ => None,
            })
            .collect()
    }

    let mut rng = SimRng::seed_from_u64(0xB17E_1DE7);
    for case in 0..15 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let radius = rng.uniform(40.0, 150.0);
        let cfg = GameServerConfig {
            emit_updates: true,
            cells_per_axis: rng.uniform_u64(1, 48) as u32,
            vision_radius: if rng.chance(0.5) {
                0.0
            } else {
                rng.uniform(20.0, 120.0)
            },
            batch_interval: if rng.chance(0.2) {
                SimDuration::from_millis(0)
            } else {
                SimDuration::from_millis(50)
            },
            keyframe_every: rng.uniform_u64(0, 7) as u32,
            max_updates_per_flush: rng.uniform_u64(0, 5) as u32,
            client_budget_bytes: if rng.chance(0.3) { 200 } else { 0 },
            // Rings and the tuner stay OFF: this is the equivalence pin.
            ..GameServerConfig::default()
        };
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, radius);
        let mut reference = Reference::new(cfg, world, radius);

        let clients = rng.uniform_u64(3, 12);
        let mut pos: Vec<Point> = Vec::new();
        for id in 0..clients {
            let p = Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0));
            pos.push(p);
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos: p,
                    state_bytes: 0,
                },
            );
            reference.join(ClientId(id), p);
        }

        let mut t = 0u64;
        for step in 0..120 {
            t += rng.uniform_u64(5, 30);
            let now = SimTime::from_millis(t);
            let id = rng.uniform_u64(0, clients);
            let (node_actions, ref_batches) = match rng.uniform_u64(0, 10) {
                0..=5 => {
                    let p = Point::new(
                        (pos[id as usize].x + rng.uniform(-10.0, 10.0)).clamp(0.0, 800.0),
                        (pos[id as usize].y + rng.uniform(-10.0, 10.0)).clamp(0.0, 800.0),
                    );
                    pos[id as usize] = p;
                    (
                        node.on_client(now, ClientId(id), ClientToGame::Move { pos: p }),
                        reference.event(now, ClientId(id), p, 32),
                    )
                }
                6..=7 => {
                    let payload = rng.uniform_u64(0, 200) as usize;
                    (
                        node.on_client(
                            now,
                            ClientId(id),
                            ClientToGame::Action {
                                pos: pos[id as usize],
                                payload_bytes: payload,
                            },
                        ),
                        reference.event(now, ClientId(id), pos[id as usize], payload),
                    )
                }
                8 => (node.on_tick(now, 0.0), reference.flush_if_due(now)),
                _ => {
                    // Leave and immediately rejoin elsewhere (resync).
                    node.on_client(now, ClientId(id), ClientToGame::Leave);
                    reference.leave(ClientId(id));
                    let p = Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0));
                    pos[id as usize] = p;
                    reference.join(ClientId(id), p);
                    (
                        node.on_client(
                            now,
                            ClientId(id),
                            ClientToGame::Join {
                                pos: p,
                                state_bytes: 0,
                            },
                        ),
                        Vec::new(),
                    )
                }
            };
            let node_batches = batches_of(&node_actions);
            assert_eq!(
                node_batches.len(),
                ref_batches.len(),
                "case {case} step {step}: flush boundaries diverged"
            );
            for ((nc, nb), (rc, rb)) in node_batches.iter().zip(&ref_batches) {
                assert_eq!(nc, rc, "case {case} step {step}: receiver order");
                // Byte-identical on the actual wire: compare the encoded
                // frames (under one fixed header), not just the structs.
                let frame = |updates: WireBatch| {
                    codec_v2::encode_server_frame(
                        &GameToClient::UpdateBatch { updates },
                        FrameMeta::default(),
                        true,
                    )
                };
                assert_eq!(
                    frame(nb.clone()),
                    frame(WireBatch::from_items(rb)),
                    "case {case} step {step} {nc:?}: wire bytes diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared event log (one payload per event and ring) vs one per delivery
// ---------------------------------------------------------------------------

/// The pipeline stores an event's payload once per *(event, ring)* in a
/// shared log and queues 4-byte indices per receiver. The oracle below
/// is the send path with the storage it had before: one owned payload
/// per delivery — `make(ring, vel)`, strip, charge, push onto that
/// receiver's own `Vec` — found by a brute-force scan instead of the
/// grid, flushed by one plain walk. Over random crowds with tiered
/// and sampled rings, position-only outer rings, dead-reckoning
/// budgets, count and byte caps, trace charging, departures, rejoins
/// and receivers that vanish between enqueue and flush, every flush of
/// the pipeline must equal the oracle's: receivers, item order, ring tags,
/// stripped payloads, `stale_us` charges, encoded origins,
/// `rate_limited` and `orphaned` counts. And `make` runs at most once
/// per ring plus once per charged delivery, never once per receiver.
/// The generator reaches superseding: degraded queues that hold an
/// entry and its twin (same `(entity, wire_bytes)`).
#[test]
fn shared_event_log_matches_one_payload_per_delivery() {
    use matrix_middleware::core::{
        quantize, quantize_velocity, Admission, AutoTunerConfig, Disseminated,
        DisseminationPipeline, MotionModel, PipelineConfig, PredictedStream, PredictorConfig,
        RingSampler, RingSet, UpdateItem, MAX_RINGS,
    };
    use matrix_middleware::telemetry::TraceTag;
    use std::cell::Cell;

    /// One receiver's batch: `(receiver, items in delivery order,
    /// rate_limited)`.
    type Batch = (u32, Vec<(UpdateItem, EncodedOrigin)>, u64);

    /// One flush, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Flushed {
        batches: Vec<Batch>,
        orphaned: u64,
    }

    /// What one dissemination did: `(delivered, sampled_out,
    /// suppressed, stripped)`.
    type Counts = (u64, u64, u64, u64);

    struct Oracle {
        cfg: PipelineConfig,
        rings: RingSet,
        positions: BTreeMap<u32, Point>,
        sampler: RingSampler<u32>,
        motion: MotionModel,
        predicted: PredictedStream<u32>,
        /// `(entity, receiver)` → earliest undelivered event time (µs).
        charges: BTreeMap<(u64, u32), u64>,
        /// One owned payload per delivery.
        queues: BTreeMap<u32, Vec<UpdateItem>>,
        encoder: DeltaEncoder<u32>,
        scratch: PolicyScratch,
        /// Flushes with a degraded queue holding a twin.
        flushes_with_twin: u32,
    }

    impl Oracle {
        fn new(cfg: PipelineConfig, rings: RingSet) -> Oracle {
            Oracle {
                cfg,
                rings,
                positions: BTreeMap::new(),
                sampler: RingSampler::new(),
                motion: MotionModel::new(),
                predicted: PredictedStream::new(),
                charges: BTreeMap::new(),
                queues: BTreeMap::new(),
                encoder: DeltaEncoder::new(cfg.keyframe_every).with_quantum(cfg.origin_quantum),
                scratch: PolicyScratch::default(),
                flushes_with_twin: 0,
            }
        }

        fn subscribe(&mut self, key: u32, pos: Point) {
            self.positions.insert(key, pos);
            self.encoder.reset(key);
            self.predicted.forget_receiver(key);
        }

        fn drop_receiver_state(&mut self, key: u32) {
            self.encoder.reset(key);
            self.predicted.forget_receiver(key);
            self.charges.retain(|&(_, receiver), _| receiver != key);
        }

        fn unsubscribe(&mut self, key: u32) -> usize {
            self.positions.remove(&key);
            self.sampler.forget(key);
            self.drop_receiver_state(key);
            self.queues.remove(&key).map_or(0, |q| q.len())
        }

        fn forget_entity(&mut self, entity: u64) {
            self.motion.forget(entity);
            self.predicted.forget_entity(entity);
            self.charges.retain(|&(e, _), _| e != entity);
        }

        /// Returns the counts and how many deliveries picked up a
        /// staleness charge.
        #[allow(clippy::too_many_arguments)]
        fn disseminate(
            &mut self,
            origin: Point,
            wire_origin: Point,
            entity: u64,
            now_secs: f64,
            suppressible: bool,
            exclude: Option<u32>,
            make: impl Fn(u8, (f64, f64)) -> UpdateItem,
        ) -> (Counts, u64) {
            let (mut delivered, mut sampled_out, mut suppressed, mut stripped) = (0, 0, 0, 0);
            let mut charged = 0;
            let now_us = (now_secs * 1e6) as u64;
            let predicting = self.cfg.predict.enabled && entity != ANON_ENTITY;
            let vel = if predicting {
                self.motion.observe(entity, wire_origin, now_secs);
                quantize_velocity(
                    self.motion.velocity(entity),
                    self.cfg.predict.velocity_quantum,
                )
            } else {
                (0.0, 0.0)
            };
            let candidates: Vec<(u32, u8)> = self
                .positions
                .iter()
                .filter(|(&key, _)| Some(key) != exclude)
                .filter_map(|(&key, pos)| {
                    let ring = self
                        .rings
                        .ring_of(pos.distance_by(origin, self.cfg.metric))?;
                    Some((key, ring))
                })
                .collect();
            for (key, ring) in candidates {
                if !self.sampler.admit(&self.rings, key, ring) {
                    sampled_out += 1;
                    continue;
                }
                if predicting {
                    let budget = if suppressible {
                        self.cfg.predict.budget_for(ring)
                    } else {
                        0.0
                    };
                    let admission =
                        self.predicted
                            .admit(key, entity, wire_origin, vel, now_secs, budget);
                    if let Admission::Suppress { .. } = admission {
                        suppressed += 1;
                        let first = self.charges.entry((entity, key)).or_insert(now_us);
                        *first = (*first).min(now_us);
                        continue;
                    }
                }
                delivered += 1;
                let mut item = make(ring, vel);
                if self.cfg.position_only_ring > 0 && ring >= self.cfg.position_only_ring {
                    stripped += 1;
                    item.strip_payload();
                }
                if let Some(first_us) = self.charges.remove(&(entity, key)) {
                    charged += 1;
                    item.trace_charge(now_us.saturating_sub(first_us));
                }
                self.queues.entry(key).or_default().push(item);
            }
            ((delivered, sampled_out, suppressed, stripped), charged)
        }

        fn flush(&mut self, gone: Option<u32>) -> Flushed {
            let mut out = Flushed {
                batches: Vec::new(),
                orphaned: 0,
            };
            let mut twin = false;
            for (receiver, queued) in std::mem::take(&mut self.queues) {
                if Some(receiver) == gone {
                    out.orphaned += queued.len() as u64;
                    self.drop_receiver_state(receiver);
                    continue;
                }
                let policy = self.cfg.policy;
                let bytes: usize = queued.iter().map(UpdateItem::wire_bytes).sum();
                if (policy.max_items > 0 && queued.len() > policy.max_items)
                    || (policy.budget_bytes > 0 && bytes > policy.budget_bytes)
                {
                    let mut in_queue = BTreeMap::new();
                    for u in queued.iter().filter(|u| u.entity != ANON_ENTITY) {
                        let pair = (u.entity, u.wire_bytes());
                        *in_queue.entry(pair).or_insert(0u32) += 1;
                    }
                    twin |= in_queue.values().any(|&n| n > 1);
                }
                let dropped = self.cfg.policy.select(
                    self.positions[&receiver],
                    self.cfg.metric,
                    UpdateItem::origin,
                    UpdateItem::entity,
                    UpdateItem::wire_bytes,
                    &queued,
                    &mut self.scratch,
                );
                let kept: Vec<usize> = self.scratch.kept().collect();
                for (i, u) in queued.iter().enumerate() {
                    let Some(tag) = u.trace else { continue };
                    if !kept.contains(&i) {
                        let first_us = tag.charge_origin_us();
                        let first = self.charges.entry((u.entity, receiver)).or_insert(first_us);
                        *first = (*first).min(first_us);
                    }
                }
                let mut stream = self.encoder.begin_flush(receiver);
                let items = kept
                    .iter()
                    .map(|&i| (queued[i], stream.encode(queued[i].origin)))
                    .collect();
                stream.finish();
                out.batches.push((receiver, items, dropped as u64));
            }
            self.flushes_with_twin += u32::from(twin);
            out
        }
    }

    let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
    let mut rng = SimRng::seed_from_u64(0x0024_106f);
    let (mut cases_charged, mut cases_stripped, mut cases_limited, mut cases_two_rings) =
        (0, 0, 0, 0);
    let (mut flushes, mut flushes_with_twin) = (0, 0);
    for case in 0..24 {
        // 2–4 ascending tiers; the near ring ships every event, outer
        // rings sample 1-in-1…3.
        let tiers = rng.uniform_u64(2, MAX_RINGS as u64 + 1) as usize;
        let mut radii: Vec<f64> = (0..tiers).map(|_| rng.uniform(15.0, 160.0)).collect();
        radii.sort_by(|a, b| a.total_cmp(b));
        let mut rates: Vec<u32> = (0..tiers).map(|_| rng.uniform_u64(1, 4) as u32).collect();
        rates[0] = 1;
        let rings = RingSet::from_tiers(&radii, &rates);
        let budgets: Vec<f64> = (0..tiers)
            .map(|_| {
                if rng.chance(0.7) {
                    rng.uniform(0.5, 4.0)
                } else {
                    0.0
                }
            })
            .collect();
        let cfg = PipelineConfig {
            metric: metric_of(rng.uniform_u64(0, 3)),
            policy: FlushPolicy {
                max_items: if rng.chance(0.6) {
                    rng.uniform_u64(2, 9) as usize
                } else {
                    0
                },
                budget_bytes: if rng.chance(0.3) {
                    rng.uniform_u64(80, 600) as usize
                } else {
                    0
                },
            },
            keyframe_every: rng.uniform_u64(0, 6) as u32,
            origin_quantum: 1.0 / 16.0,
            autotune: AutoTunerConfig::default(),
            predict: if rng.chance(0.75) {
                PredictorConfig::with_budgets(&budgets)
            } else {
                PredictorConfig::default()
            },
            position_only_ring: rng.uniform_u64(0, tiers as u64) as u8,
            telemetry: false,
        };
        let trace_every = rng.uniform_u64(1, 4);

        let mut oracle = Oracle::new(cfg, rings);
        let mut pipe: DisseminationPipeline<u32, UpdateItem> =
            DisseminationPipeline::new(world, rng.uniform_u64(1, 24) as u32, rings, cfg)
                .with_trace_charging();

        // A crowd around one spot, wide enough to span every ring.
        let n = rng.uniform_u64(8, 28) as u32;
        let centre = Point::new(rng.uniform(150.0, 250.0), rng.uniform(150.0, 250.0));
        let spread = radii[tiers - 1] * 0.8;
        let mut bodies: Vec<(Point, (f64, f64))> = (0..n)
            .map(|_| {
                let pos = Point::new(
                    (centre.x + rng.uniform(-spread, spread)).clamp(1.0, 399.0),
                    (centre.y + rng.uniform(-spread, spread)).clamp(1.0, 399.0),
                );
                (pos, (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)))
            })
            .collect();
        let mut present = vec![true; n as usize];
        for (k, (pos, _)) in bodies.iter().enumerate() {
            oracle.subscribe(k as u32, *pos);
            pipe.subscribe(k as u32, *pos);
        }

        let (mut seq, mut now) = (0u64, 0.0f64);
        let (mut charged_total, mut stripped_total, mut limited_total) = (0u64, 0u64, 0u64);
        let mut rings_used = [false; MAX_RINGS];
        let rounds = 30;
        for round in 0..rounds {
            for _ in 0..rng.uniform_u64(1, 3 * n as u64) {
                now += 0.004;
                seq += 1;
                let trace = (seq % trace_every == 0)
                    .then(|| TraceTag::new(1, seq as u32, (now * 1e6) as u64));
                // A move (suppressible), an action (never suppressed,
                // another size) or an anonymous effect.
                let k = rng.uniform_u64(0, n as u64) as usize;
                let kind = rng.uniform_u64(0, 10);
                let (entity, exclude, suppressible, payload_bytes) = match kind {
                    0 => (ANON_ENTITY, None, false, 24),
                    1 | 2 => (k as u64 + 1, Some(k as u32), false, 48),
                    _ => (k as u64 + 1, Some(k as u32), true, 16),
                };
                if kind > 2 {
                    // Mostly straight, sometimes a turn — so dead
                    // reckoning both suppresses and gives up.
                    let (pos, vel) = &mut bodies[k];
                    if rng.chance(0.15) {
                        *vel = (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0));
                    }
                    *pos = Point::new(
                        (pos.x + vel.0 * 0.05).clamp(1.0, 399.0),
                        (pos.y + vel.1 * 0.05).clamp(1.0, 399.0),
                    );
                    if present[k] {
                        oracle.positions.insert(k as u32, *pos);
                        pipe.reposition(k as u32, *pos);
                    }
                }
                let origin = bodies[k].0;
                let wire_origin = quantize(origin, cfg.origin_quantum);
                let make = |ring: u8, (vx, vy): (f64, f64)| UpdateItem {
                    origin: wire_origin,
                    payload_bytes,
                    entity,
                    ring,
                    vx,
                    vy,
                    trace,
                };
                let (counts, charged) = oracle.disseminate(
                    origin,
                    wire_origin,
                    entity,
                    now,
                    suppressible,
                    exclude,
                    make,
                );
                charged_total += charged;
                stripped_total += counts.3;
                let made = Cell::new(0u64);
                let stats = pipe.disseminate(
                    origin,
                    wire_origin,
                    entity,
                    now,
                    suppressible,
                    exclude,
                    true,
                    |ring, vel| {
                        made.set(made.get() + 1);
                        rings_used[ring as usize] = true;
                        make(ring, vel)
                    },
                );
                assert_eq!(
                    (
                        stats.delivered,
                        stats.sampled_out,
                        stats.suppressed,
                        stats.stripped
                    ),
                    counts,
                    "case {case} round {round} event {seq}"
                );
                assert!(
                    made.get() <= MAX_RINGS as u64 + charged,
                    "case {case} event {seq}: make ran {} times for {} deliveries ({charged} \
                     charged)",
                    made.get(),
                    counts.0
                );
            }
            // Churn between flushes: someone leaves with a queue
            // behind them, someone comes back.
            if rng.chance(0.3) {
                let k = rng.uniform_u64(0, n as u64) as usize;
                if present[k] {
                    let dropped = oracle.unsubscribe(k as u32);
                    oracle.forget_entity(k as u64 + 1);
                    assert_eq!(pipe.unsubscribe(k as u32), dropped, "case {case}");
                    pipe.forget_entity(k as u64 + 1);
                } else {
                    oracle.subscribe(k as u32, bodies[k].0);
                    pipe.subscribe(k as u32, bodies[k].0);
                }
                present[k] = !present[k];
            }
            // One receiver in ten flushes has vanished by flush time.
            let gone = rng.chance(0.1).then(|| rng.uniform_u64(0, n as u64) as u32);
            let expected = oracle.flush(gone);
            limited_total += expected.batches.iter().map(|b| b.2).sum::<u64>();
            let positions = &oracle.positions;
            let outcome = pipe.flush(
                |key| (Some(key) != gone).then(|| positions[&key]),
                Vec::with_capacity,
                |acc: &mut Vec<_>, item, encoded| acc.push((*item, encoded)),
            );
            let got = Flushed {
                batches: outcome
                    .batches
                    .into_iter()
                    .map(|b| (b.receiver, b.acc, b.rate_limited))
                    .collect(),
                orphaned: outcome.orphaned,
            };
            assert_eq!(got, expected, "case {case} round {round}");
            assert!(!pipe.has_pending());
            if let Some(key) = gone {
                // The driver's view catches up with the vanished
                // receiver (its queue is already gone).
                if std::mem::take(&mut present[key as usize]) {
                    oracle.unsubscribe(key);
                    pipe.unsubscribe(key);
                }
            }
        }
        cases_charged += usize::from(charged_total > 0);
        cases_stripped += usize::from(stripped_total > 0);
        cases_limited += usize::from(limited_total > 0);
        cases_two_rings += usize::from(rings_used.iter().filter(|&&used| used).count() > 1);
        flushes += rounds;
        flushes_with_twin += oracle.flushes_with_twin;
    }
    // The generator reaches what the property is about.
    assert!(
        cases_two_rings >= 20,
        "two variants of one event: {cases_two_rings}/24"
    );
    assert!(cases_charged >= 8, "charged deliveries: {cases_charged}/24");
    assert!(
        cases_stripped >= 8,
        "stripped payloads: {cases_stripped}/24"
    );
    assert!(
        cases_limited >= 8,
        "rate-limited flushes: {cases_limited}/24"
    );
    assert!(
        flushes_with_twin > flushes / 3,
        "only {flushes_with_twin} of {flushes} flushes superseded a twin"
    );
}

// ---------------------------------------------------------------------------
// Ring membership and sampling
// ---------------------------------------------------------------------------

/// Every delivered item lands in the ring its receiver's enqueue-time
/// distance falls in; nothing outside the outermost ring is delivered;
/// the near ring is never sampled; and each (receiver, ring) delivers
/// exactly ⌈candidates / rate⌉ items — the deterministic, evenly spaced
/// sample the wire promises.
#[test]
fn ring_membership_and_sampling_are_exact() {
    use matrix_middleware::core::{
        AutoTunerConfig, DisseminationPipeline, PipelineConfig, RingSet, UpdateItem,
    };

    let mut rng = SimRng::seed_from_u64(0x0812_6512);
    for case in 0..40 {
        let world = Rect::from_coords(0.0, 0.0, 400.0, 400.0);
        let metric = metric_of(rng.uniform_u64(0, 3));
        // 1–4 ascending tiers with random rates.
        let tiers = rng.uniform_u64(1, 5) as usize;
        let mut radii: Vec<f64> = (0..tiers).map(|_| rng.uniform(10.0, 150.0)).collect();
        radii.sort_by(|a, b| a.total_cmp(b));
        let rates: Vec<u32> = (0..tiers).map(|_| rng.uniform_u64(1, 6) as u32).collect();
        let rings = RingSet::from_tiers(&radii, &rates);
        let mut pipe: DisseminationPipeline<u32, UpdateItem> = DisseminationPipeline::new(
            world,
            rng.uniform_u64(1, 32) as u32,
            rings,
            PipelineConfig {
                metric,
                policy: FlushPolicy::unlimited(),
                keyframe_every: rng.uniform_u64(0, 5) as u32,
                origin_quantum: 0.0,
                autotune: AutoTunerConfig::default(),
                predict: matrix_middleware::core::PredictorConfig::default(),
                position_only_ring: 0,
                telemetry: false,
            },
        );

        // Static receivers: ring membership is then purely a function of
        // the (event, receiver) distance.
        let n = rng.uniform_u64(5, 40) as u32;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)))
            .collect();
        for (k, p) in positions.iter().enumerate() {
            pipe.subscribe(k as u32, *p);
        }

        // A burst of events from fixed origins; count per-(receiver,
        // ring) candidates by brute force.
        let mut candidates: HashMap<(u32, u8), u64> = HashMap::new();
        let events = rng.uniform_u64(10, 60);
        let origins: Vec<Point> = (0..3)
            .map(|_| Point::new(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)))
            .collect();
        for e in 0..events {
            let origin = origins[(e % 3) as usize];
            pipe.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
                UpdateItem {
                    origin,
                    payload_bytes: 8,
                    entity: 1,
                    ring,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }
            });
            for (k, p) in positions.iter().enumerate() {
                if let Some(ring) = rings.ring_of(p.distance_by(origin, metric)) {
                    *candidates.entry((k as u32, ring)).or_default() += 1;
                }
            }
        }

        let outcome = pipe.flush(
            |k| positions.get(k as usize).copied(),
            Vec::with_capacity,
            |acc: &mut Vec<UpdateItem>, item, _| acc.push(*item),
        );
        assert_eq!(outcome.orphaned, 0);
        let mut delivered: HashMap<(u32, u8), u64> = HashMap::new();
        for batch in &outcome.batches {
            for item in &batch.acc {
                // Membership: the tag matches the enqueue-time distance
                // tier (receivers are static, so it is checkable here).
                let d = positions[batch.receiver as usize].distance_by(item.origin, metric);
                assert_eq!(
                    rings.ring_of(d),
                    Some(item.ring),
                    "case {case}: item tagged with the wrong ring"
                );
                *delivered.entry((batch.receiver, item.ring)).or_default() += 1;
            }
        }
        for ((k, ring), &cand) in &candidates {
            let got = delivered.get(&(*k, *ring)).copied().unwrap_or(0);
            let rate = rings.rate(*ring) as u64;
            assert_eq!(
                got,
                cand.div_ceil(rate),
                "case {case}: receiver {k} ring {ring}: {cand} candidates at rate {rate}"
            );
            if *ring == 0 {
                assert_eq!(got, cand, "case {case}: near ring must never sample");
            }
        }
        // Completeness: nothing delivered without a candidate.
        for (key, got) in &delivered {
            assert!(
                candidates.contains_key(key),
                "case {case}: {got} items delivered outside every ring: {key:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tuner hysteresis
// ---------------------------------------------------------------------------

/// The density tuner stays within bounds, ignores jitter inside the
/// hysteresis band, reacts to sustained decisive shifts within its
/// streak, and reproduces decisions across a state export/restore.
#[test]
fn tuner_hysteresis_properties_hold() {
    use matrix_middleware::core::{AutoTuner, AutoTunerConfig};

    let mut rng = SimRng::seed_from_u64(0x7_0E12);
    for case in 0..60 {
        let cfg = AutoTunerConfig { enabled: true };
        let initial = rng.uniform_u64(1, 300) as u32;
        let mut tuner = AutoTuner::new(cfg, initial);

        // Sustained decisive density: within `STREAK` observations the
        // tuner lands on the steady-state resolution and then stays.
        let n = rng.uniform_u64(0, 200_000) as usize;
        let want = AutoTunerConfig::cells_for(n);
        for _ in 0..AutoTunerConfig::STREAK * 2 {
            tuner.observe(n);
        }
        let settled = tuner.current();
        // Every resolution the tuner *picks* respects the bounds (an
        // out-of-bounds configured start may legitimately persist when
        // the ideal stays inside its hysteresis band).
        assert!(
            settled == initial
                || (AutoTunerConfig::MIN_CELLS..=AutoTunerConfig::MAX_CELLS).contains(&settled),
            "case {case}: tuner picked out-of-bounds {settled}"
        );
        // Either it retuned to the steady-state value, or the starting
        // resolution was already inside the hysteresis band of the
        // ideal (in which case staying put is the correct outcome).
        if settled != want {
            let ideal = (n as f64 / AutoTunerConfig::TARGET_PER_CELL)
                .sqrt()
                .max(1.0);
            let lo = settled as f64 / AutoTunerConfig::HYSTERESIS;
            let hi = settled as f64 * AutoTunerConfig::HYSTERESIS;
            assert!(
                ideal > lo && ideal < hi,
                "case {case}: settled {settled} is outside the hysteresis band \
                 of ideal {ideal} yet did not move to {want}"
            );
        }

        // Jitter inside the guaranteed band: a *settled* tuner (current
        // == steady state, so the ideal axis is within √2 of current by
        // pow2 rounding) must ignore subscriber jitter small enough to
        // keep the ideal inside the 1.5× band — ±5% subscribers moves
        // the ideal by ±2.5%, and √2 × 1.025 < 1.5.
        if settled == want {
            for i in 0..40 {
                let jittered = (n as f64 * rng.uniform(0.95, 1.05)) as usize;
                assert_eq!(
                    tuner.observe(jittered),
                    None,
                    "case {case} obs {i}: retuned on jitter"
                );
            }
            assert_eq!(tuner.current(), settled);
        }

        // Export/restore equivalence under a shared observation stream.
        let (cells, streak, pending) = tuner.state();
        let mut restored = AutoTuner::new(cfg, 1);
        restored.restore(cells, streak, pending);
        for _ in 0..10 {
            let m = rng.uniform_u64(0, 200_000) as usize;
            assert_eq!(tuner.observe(m), restored.observe(m), "case {case}");
            assert_eq!(tuner.state(), restored.state(), "case {case}");
        }
    }
}
