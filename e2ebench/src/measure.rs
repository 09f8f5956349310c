//! Measurement primitives the workloads share: the heap high-water mark,
//! process CPU time, and the order statistics every timing is reported by.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a running count of live heap bytes and their
/// high-water mark. The counters publish no other data, so `Relaxed` is
/// enough; the peak is a `fetch_max`, exact under concurrent allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, which
        // is exactly `System::realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Restarts the high-water mark at the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap high-water mark since the last [`reset_peak_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64` fields on
    // 64-bit Linux) that outlives the call; `clock` is the process CPU clock
    // or the CPU clock of a thread that is registered, hence still running.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of threads the benchmark runs for itself rather than for the
/// program: finished ones summed, running ones by their clocks.
struct Excluded {
    done_s: f64,
    live: Vec<i32>,
}

static EXCLUDED: Mutex<Excluded> = Mutex::new(Excluded { done_s: 0.0, live: Vec::new() });

fn excluded() -> MutexGuard<'static, Excluded> {
    EXCLUDED.lock().expect("CPU exclusion lock poisoned: a benchmark thread panicked")
}

/// Runs `f` on the calling thread with that thread's CPU time left out of
/// [`process_cpu_s`].
pub fn excluded_from_cpu_time(f: impl FnOnce()) {
    let mut clock = 0;
    // SAFETY: `pthread_self` has no preconditions; `clock` is a valid place
    // for the clock id.
    let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    excluded().live.push(clock);
    f();
    let mut ex = excluded();
    // Read under the lock, before the clock leaves `live`, so no reader
    // sees this thread's time both in `done_s` and on its clock, or in
    // neither.
    ex.done_s += clock_s(clock);
    ex.live.retain(|&c| c != clock);
}

/// CPU time of the whole process in seconds: every thread, including threads
/// that have already exited (the vendored rayon starts fresh threads on every
/// parallel call, so per-thread clocks would miss most of the fan-out), less
/// the benchmark's own [`excluded_from_cpu_time`] threads.
pub fn process_cpu_s() -> f64 {
    let ex = excluded();
    clock_s(PROCESS_CPUTIME) - ex.done_s - ex.live.iter().map(|&c| clock_s(c)).sum::<f64>()
}

/// Steal and total jiffies of all CPUs since boot, from `/proc/stat`: time
/// the hypervisor ran something else while this VM's vCPUs wanted to run.
pub fn host_steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100] of `sorted`, which must be sorted.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let n = sorted.len();
    sorted[nearest_rank(pct, n) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n > 0` samples. The small
/// offset keeps float error in `pct · n` from rounding an exact rank up.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail latency together with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile, no higher than `cap`, that has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the lowest candidate
/// lacks them. The cap is how a workload keeps the reported percentile the
/// same from run to run, at the level its sample count supports steadily.
pub fn tail(values: &[f64], cap: f64) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().copied().filter(|&p| p <= cap).find_map(|pct| {
        let rank = nearest_rank(pct, n);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Tail { pct, value: sorted[rank - 1], samples: n, beyond })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.5 leaves 5 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000), 99.9).expect("supported");
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (99.0, 990.0, 1000, 10));
        // 10_000 samples support p99.9 (10 beyond).
        let t = tail(&ramp(10_000), 99.9).expect("supported");
        assert_eq!((t.pct, t.beyond, t.samples), (99.9, 10, 10_000));
        // 200 samples: p95 leaves 10, p98 only 4.
        let t = tail(&ramp(200), 99.9).expect("supported");
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_respects_cap_and_reports_unsupported() {
        let t = tail(&ramp(1000), 90.0).expect("supported");
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 100));
        // 30 samples: p75 leaves 7 beyond — nothing qualifies.
        assert_eq!(tail(&ramp(30), 99.9), None);
        assert_eq!(tail(&[], 99.9), None);
    }

    #[test]
    fn median_and_percentile_agree_on_small_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
    }

    #[test]
    fn peak_heap_sees_a_large_allocation() {
        reset_peak_heap();
        let v = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_heap_mb() >= 8.0, "peak must include the 8 MiB block");
        drop(v);
    }

    #[test]
    fn excluded_thread_cpu_is_left_out() {
        let before = process_cpu_s();
        std::thread::spawn(|| {
            excluded_from_cpu_time(|| {
                let t = std::time::Instant::now();
                while t.elapsed().as_millis() < 400 {
                    std::hint::spin_loop();
                }
            })
        })
        .join()
        .expect("spinning thread");
        // Other tests may run meanwhile; 400 ms of spinning must not show.
        assert!(process_cpu_s() - before < 0.2);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
