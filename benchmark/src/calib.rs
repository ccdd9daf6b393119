//! A fixed reference kernel for speed normalisation.
//!
//! Each core of the sandbox this benchmark was sized on drops, for a
//! second or a minute at a time, to about 70 % of its speed (a python
//! loop that does nothing else shows the same two modes, and the two
//! cores drop independently), so a figure in CPU time spreads by that
//! much between runs of one commit. The single-threaded replay cures
//! most of it by timing this fixed piece of work on its own thread after
//! every tick and reporting its throughput at the speed at which the
//! kernel takes [`REFERENCE_S`]: a slow spell stretches both alike and
//! cancels out (run-to-run range ±25 % raw, ±5 % normalised, on that
//! box). `bench.replay.calibration_kernel_us` and
//! `bench.replay.raw_events_per_s` report the kernel time and the
//! unscaled figure. The real-time run cannot do the same — its work is
//! on the program's threads, not the benchmark's — and filters slow
//! spells by slicing instead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's run time on the sizing box in its fast mode, measured in
/// place between replay ticks, seconds. `matrix-benchmark calibrate`
/// prints what a box gives.
pub const REFERENCE_S: f64 = 150e-6;

/// Entries the kernel's map holds, and lookups it makes.
const ENTRIES: u64 = 600;
const LOOKUPS: u64 = 1_200;
const KEY_SPACE: u64 = 4_096;

/// One run of the reference work, with warm caches: an untimed run first
/// pulls code and allocator state back in after whatever ran before, the
/// second run is the one whose wall seconds are returned.
pub fn run() -> f64 {
    once();
    let started = Instant::now();
    once();
    started.elapsed().as_secs_f64()
}

/// Small allocations, an ordered map built and probed, a ranked vector:
/// the instruction mix of the program's own session tables and flush
/// policy. (A plain integer sort over an L1-resident buffer tracked the
/// program's slow-downs only half as well.)
fn once() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..ENTRIES {
        map.insert(next() % KEY_SPACE, vec![i; 4]);
    }
    let mut hits = Vec::new();
    for i in 0..LOOKUPS {
        let key = next();
        if let Some(v) = map.get(&(key % KEY_SPACE)) {
            hits.push((v[0] ^ i, key));
        }
    }
    hits.sort_by(|a, b| (a.1 as f64).total_cmp(&(b.1 as f64)));
    black_box(&hits);
}

/// How much slower than the reference the machine ran, given a kernel
/// time observed alongside the measured work.
pub fn slowdown(kernel_s: f64) -> f64 {
    kernel_s / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_the_reference_is_unit_slowdown() {
        let t = run();
        assert!(t > 0.0 && t < 0.1, "{t}");
        assert_eq!(slowdown(REFERENCE_S), 1.0);
        assert_eq!(slowdown(2.0 * REFERENCE_S), 2.0);
    }
}
