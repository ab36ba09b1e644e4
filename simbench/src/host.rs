//! Host readings the simulator does not provide: process CPU time and the
//! speed of the host on a fixed reference workload. Peak RSS and the
//! `host.calib_s` annotation come from `scaleup_bench::perf`, shared with
//! `repro perf`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included (also threads that have already exited), at `1/USER_HZ`
/// resolution; 0 where the proc filesystem is unavailable.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Host seconds of a fixed workload shaped like the simulator's event
/// calendar: 2 M pop/push pairs on a binary heap of 64 Ki hashed
/// timestamps (512 KiB). It is part of the benchmark, not of the simulator,
/// so no change to the simulator moves it; end-to-end times are scaled by
/// it (see `REF_S` in `main.rs`).
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x1234_5678;
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    for _ in 0..1 << 16 {
        heap.push(Reverse(next() >> 20));
    }
    for _ in 0..2_000_000 {
        let Reverse(t) = heap.pop().expect("the heap never empties");
        heap.push(Reverse(t + (next() >> 44)));
    }
    std::hint::black_box(heap.peek());
    t0.elapsed().as_secs_f64()
}

/// `utime + stime` from the text of `/proc/<pid>/stat`. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_tricky_command_name() {
        let stat = "4242 (a) b (c) R 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = process_cpu_s();
        let mut x = 1u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() > before);
    }
}
