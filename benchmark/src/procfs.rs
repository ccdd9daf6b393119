//! CPU time and memory of this process, read from `/proc`.
//!
//! The benchmark runs its load generator inside the process it measures,
//! so the program's own CPU is the process total minus the generator's
//! threads — which needs per-thread readings.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// The calling thread's kernel task id.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `utime + stime` of one `/proc/.../stat` line, in seconds. The command
/// name may hold spaces and parentheses, so fields are counted from the
/// last `)`.
fn stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds consumed so far by every live thread of the process, at
/// the per-thread reader's precision. Threads that exit between two
/// readings take their time with them, so difference this only across
/// spans in which none does.
pub fn live_threads_cpu_secs() -> Option<f64> {
    let mut total = 0.0;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let tid = entry.ok()?.file_name().to_str()?.parse().ok()?;
        // A thread may exit between the listing and the read.
        total += thread_cpu_secs(tid).unwrap_or(0.0);
    }
    Some(total)
}

/// CPU seconds consumed so far by one thread of this process: the
/// scheduler's nanosecond run time where the kernel exports it, the
/// tick counters otherwise.
pub fn thread_cpu_secs(tid: u32) -> Option<f64> {
    let base = format!("/proc/self/task/{tid}");
    if let Ok(s) = fs::read_to_string(format!("{base}/schedstat")) {
        if let Some(ns) = s
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse::<f64>().ok())
        {
            return Some(ns / 1e9);
        }
    }
    stat_cpu_secs(&fs::read_to_string(format!("{base}/stat")).ok()?)
}

/// Resident set size of the process, in MiB: `(now, peak so far)`
/// (`VmRSS`, `VmHWM`).
pub fn rss_mb() -> Option<(f64, f64)> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn stat_line_parses_past_a_hostile_command_name() {
        let line = "7 (a) b) c) R 1 7 7 0 -1 4194304 112 0 0 0 250 50 0 0 20 0 1 0 1 2 3";
        assert_eq!(stat_cpu_secs(line), Some(3.0));
    }

    #[test]
    fn per_thread_reader_sees_the_spinning_thread_only() {
        let spin = |d: Duration| {
            let end = Instant::now() + d;
            let mut x = 0u64;
            while Instant::now() < end {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let idle_tid = current_tid().expect("tid of the test thread");
        let idle_before = thread_cpu_secs(idle_tid).expect("idle thread cpu");
        let busy = std::thread::spawn(move || {
            let tid = current_tid().expect("tid of the spinner");
            let before = thread_cpu_secs(tid).expect("spinner cpu");
            spin(Duration::from_millis(200));
            thread_cpu_secs(tid).expect("spinner cpu") - before
        })
        .join()
        .expect("spinner joins");
        let idle = thread_cpu_secs(idle_tid).expect("idle thread cpu") - idle_before;
        assert!(busy > 0.1, "the spinner burnt {busy} s in 200 ms");
        assert!(idle < 0.05, "the joining thread burnt {idle} s");
        assert!(live_threads_cpu_secs().expect("all threads' cpu") >= idle_before + idle);
        let (now, peak) = rss_mb().expect("VmRSS and VmHWM");
        assert!(now > 0.5 && peak >= now);
    }
}
