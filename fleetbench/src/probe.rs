//! Host-speed probe. The build box is a shared virtual machine whose speed
//! for fixed work swings by more than half within tens of seconds, which
//! would bury any program change. Every timed repetition is bracketed by
//! this fixed, repository-independent workload run on each worker thread at
//! once, and timings are rescaled to the probe's nominal duration.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe duration that rescaled timings are expressed against: measured
/// times are multiplied by `NOMINAL_PROBE_S / probe_seconds`.
pub const NOMINAL_PROBE_S: f64 = 0.08;

/// A fixed mix of ordered-map updates, branchy integer work, float math, a
/// multiply-xorshift chain, and random read-modify-writes over 4 MiB. The
/// last part matters: other tenants mostly contend for cache and memory
/// bandwidth, which a cache-resident probe does not feel. It is shaped like
/// the simulator's work but shares none of its code.
fn work() -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for i in 0..240_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 2_048).or_insert(0) += i;
        if x & 3 == 0 {
            acc += (x as f64).sqrt() * 1e-9;
        } else if let Some((_, v)) = map.range(x % 2_048..).next() {
            acc += *v as f64 * 1e-12;
        }
    }
    let mut h = x;
    for i in 0..8_000_000u64 {
        h = h.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (h >> 29);
    }
    const WORDS: usize = 1 << 19;
    let mut buf: Vec<u64> = (0..WORDS as u64).collect();
    for _ in 0..3_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (WORDS - 1);
        buf[i] = buf[i].wrapping_mul(3).wrapping_add(x);
    }
    let mixed = buf.iter().fold(h, |a, &b| a ^ b);
    black_box(acc.to_bits() ^ map.len() as u64 ^ mixed)
}

/// Runs `f` between two probes on `threads` threads and returns its result,
/// its host time in seconds, and the factor that rescales host time to the
/// probe's nominal speed.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = probe(threads);
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    let after = probe(threads);
    (out, seconds, 2.0 * NOMINAL_PROBE_S / (before + after))
}

/// Runs the probe once on each of `threads` threads at the same time and
/// returns the harmonic mean of their durations in seconds: work-stealing
/// workers finish at the threads' combined rate, so a slow processor costs
/// the pipeline less than the plain mean would say. One thread means the
/// calling thread, so the probe sees the same processor as the timed work.
fn probe(threads: usize) -> f64 {
    let time = || {
        let start = Instant::now();
        black_box(work());
        start.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return time();
    }
    let rate: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(time)).collect();
        handles
            .into_iter()
            .map(|h| 1.0 / h.join().expect("the probe does not panic"))
            .sum()
    });
    threads as f64 / rate
}
