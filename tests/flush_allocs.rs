//! Allocation pin for the send path.
//!
//! A flush allocates once per receiver — the wire bytes of its batch,
//! sized from the kept count, that travel in the `UpdateBatch` as a
//! `WireBatch` — plus a constant for the action
//! and batch lists; ingesting a move allocates a constant, because the
//! event log and every receiver's queue keep their memory across
//! flushes. This test holds
//! both to a ceiling with its own counting `#[global_allocator]`, so a
//! later change to the send path that reintroduces a per-item or
//! per-receiver-per-stage allocation fails here, by count, on any
//! machine.
//!
//! The counter is armed per thread and only around the measured calls,
//! so the harness's own threads never contribute.

use matrix_middleware::core::{
    ClientId, ClientToGame, GameAction, GameServerConfig, GameServerNode, GameToClient, ServerId,
};
use matrix_middleware::geometry::{Point, Rect};
use matrix_middleware::sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
// A statistic; publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state and
// its thread-local is const-initialised, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with the counter armed on this thread; returns its result
/// and the allocations (and reallocations) it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const CLIENTS: u64 = 200;
const WARM_TICKS: u64 = 20;
const MEASURED_TICKS: u64 = 10;

/// Client `id`'s position at `tick`: a 20 × 10 lattice two units apart —
/// all of it inside one 50-unit vision radius — breathing by one unit.
fn position(id: u64, tick: u64) -> Point {
    let sway = ((tick + id) % 2) as f64;
    Point::new(
        100.0 + (id % 20) as f64 * 2.0 + sway,
        100.0 + (id / 20) as f64 * 2.0,
    )
}

#[test]
fn steady_state_send_path_allocations_stay_under_the_ceiling() {
    let mut node = GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
    node.register(Rect::from_coords(0.0, 0.0, 400.0, 400.0), 50.0);
    for id in 0..CLIENTS {
        node.on_client(
            SimTime::ZERO,
            ClientId(id),
            ClientToGame::Join {
                pos: position(id, 0),
                state_bytes: 0,
            },
        );
    }

    // Anchor the batch interval: tick `t` then moves at 50t + 10 ms and
    // flushes at 50t + 50 ms.
    node.flush_updates(SimTime::from_millis(50));

    let (mut flushes, mut flush_allocs, mut receivers) = (0u64, 0u64, 0u64);
    let (mut moves, mut move_allocs, mut worst_move) = (0u64, 0u64, 0u64);
    for tick in 1..=WARM_TICKS + MEASURED_TICKS {
        let measured = tick > WARM_TICKS;
        // Every client moves once, 10 ms into the batch interval…
        let now = SimTime::from_millis(tick * 50 + 10);
        for id in 0..CLIENTS {
            let msg = ClientToGame::Move {
                pos: position(id, tick),
            };
            let (actions, allocs) = counted(|| node.on_client(now, ClientId(id), msg));
            assert!(
                !actions.iter().any(|a| matches!(
                    a,
                    GameAction::ToClient(_, GameToClient::UpdateBatch { .. })
                )),
                "a move inside the batch interval must not flush"
            );
            if measured {
                moves += 1;
                move_allocs += allocs;
                worst_move = worst_move.max(allocs);
            }
        }
        // …and the interval's end flushes all of it.
        let (actions, allocs) =
            counted(|| node.flush_updates(SimTime::from_millis(tick * 50 + 50)));
        let batches = actions
            .iter()
            .filter(|a| matches!(a, GameAction::ToClient(_, GameToClient::UpdateBatch { .. })))
            .count() as u64;
        assert_eq!(batches, CLIENTS, "tick {tick}: everyone sees everyone");
        if measured {
            flushes += 1;
            flush_allocs += allocs;
            receivers += batches;
            assert!(
                allocs <= 2 * batches + 16,
                "tick {tick}: flush_updates made {allocs} allocations for {batches} receivers"
            );
        }
    }
    assert!(
        worst_move <= 1,
        "on_client(Move) made up to {worst_move} allocations (mean {:.2})",
        move_allocs as f64 / moves as f64
    );
    // No move pays for growth: the event log keeps its memory across
    // flushes as the queues do, so every steady-state move costs alike.
    assert_eq!(move_allocs, worst_move * moves, "some moves allocate more");
    println!(
        "flush_updates: {:.1} allocations per flush over {:.0} receivers; \
         on_client(Move): {:.2} per move (worst {worst_move})",
        flush_allocs as f64 / flushes as f64,
        receivers as f64 / flushes as f64,
        move_allocs as f64 / moves as f64
    );
}
