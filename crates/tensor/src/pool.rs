//! Thread-local, size-classed buffer pool for `f32` storage.
//!
//! Every [`crate::Tensor`] draws its backing `Vec<f32>` from this pool and
//! returns it on drop, so the train loop's steady state recycles the same
//! allocations step after step instead of hammering the global allocator
//! (~41 distinct allocation sites in the autograd graph alone).
//!
//! Design
//! - **Thread-local**: no locks, no sharing. A buffer returns to the pool of
//!   whichever thread drops it; the rayon band workers in the matmul kernels
//!   take and give scratch on their own threads.
//! - **Size-classed free lists**: class `c` holds buffers whose *capacity* is
//!   at least `2^c` elements (capacity is floor-classed on give and
//!   ceil-classed on take, so a pooled buffer always satisfies the request
//!   without reallocating).
//! - **Bounded**: per-class buffer counts and an idle budget of 8 MiB per
//!   thread cap retention; overflow buffers are genuinely freed and counted
//!   as `dropped`. The budget bounds what a thread keeps after a phase ends,
//!   like a per-thread allocator cache limit. Uncapped, the thread that
//!   trains `serve-steady`'s fixture keeps 28.6 MiB idle and the serving
//!   lane about 33 MiB from its warm-up plan compiles, while steady batch-1
//!   requests need about 0.5 MiB; capped, that workload peaks at about
//!   34 MiB of heap instead of 65 (about 2 × budget plus the 18 MiB trace of
//!   the batch-8 compile). The budget does not bind on `ladder-search` or
//!   `serve-burst`: their peak heap is unchanged. A 4 MiB budget would: the
//!   ladder's peak heap fell from 5.8 to 4.9 MiB with it, as its training
//!   loop dropped buffers it reuses.
//!
//! Hit/miss/drop counters and the idle bytes are kept per thread and
//! surfaced two ways: directly via [`stats`], and as `tensor.pool.hits` /
//! `tensor.pool.misses` / `tensor.pool.dropped` deltas emitted through
//! `octs-obs` by the model trainer (see `octs-model`), following the same
//! before/after-delta idiom as the search cache counters.

use std::cell::RefCell;

/// Number of size classes: class `c` covers capacities in `[2^c, 2^(c+1))`.
/// 2^31 elements (8 GiB of f32) is far beyond any workload here.
const NUM_CLASSES: usize = 32;

/// Maximum buffers retained per class. A single autograd step keeps a few
/// hundred tensors live at peak, most clustered in a handful of classes.
const MAX_PER_CLASS: usize = 1024;

/// Total budget of pooled (idle) f32 elements per thread: 2 Mi elements =
/// 8 MiB. Above it, returned buffers are freed instead of retained.
const MAX_POOLED_ELEMS: usize = 2 * 1024 * 1024;

/// Snapshot of one thread's pool counters since thread start (or the last
/// [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list (no allocation).
    pub hits: u64,
    /// Takes that had to allocate fresh storage.
    pub misses: u64,
    /// Buffers accepted back into a free list.
    pub returned: u64,
    /// Buffers freed on return because a cap was reached.
    pub dropped: u64,
    /// Bytes of capacity idle in the free lists now.
    pub idle_bytes: u64,
    /// Most bytes idle at once since thread start (or the last
    /// [`reset_stats`]).
    pub peak_idle_bytes: u64,
}

impl PoolStats {
    /// Fraction of takes served without allocating (1.0 when no takes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot; the idle-byte
    /// gauges keep this snapshot's values.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            returned: self.returned - earlier.returned,
            dropped: self.dropped - earlier.dropped,
            ..*self
        }
    }
}

struct BufferPool {
    classes: Vec<Vec<Vec<f32>>>,
    pooled_elems: usize,
    peak_pooled_elems: usize,
    stats: PoolStats,
    enabled: bool,
}

impl BufferPool {
    fn new() -> Self {
        Self {
            classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            pooled_elems: 0,
            peak_pooled_elems: 0,
            stats: PoolStats::default(),
            enabled: true,
        }
    }

    /// Smallest class whose buffers are guaranteed to fit `len` elements.
    fn take_class(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Largest class this capacity can serve: floor(log2(capacity)).
    fn give_class(capacity: usize) -> usize {
        (usize::BITS - 1 - capacity.leading_zeros()) as usize
    }

    /// A cleared (length 0) buffer with capacity for at least `cap` elements.
    fn take_empty(&mut self, cap: usize) -> Vec<f32> {
        if !self.enabled {
            return Vec::with_capacity(cap);
        }
        if cap == 0 {
            // Zero-length takes are always "hits": nothing to allocate.
            self.stats.hits += 1;
            return Vec::new();
        }
        let class = Self::take_class(cap);
        if let Some(mut buf) = self.classes.get_mut(class).and_then(Vec::pop) {
            debug_assert!(buf.capacity() >= cap);
            self.pooled_elems -= buf.capacity();
            self.stats.hits += 1;
            buf.clear();
            buf
        } else {
            self.stats.misses += 1;
            // Allocate the full class size so the buffer re-enters the same
            // class it was taken from, keeping classes stable across steps.
            Vec::with_capacity(1usize << class)
        }
    }

    /// A buffer of exactly `len` elements with *unspecified* contents (stale
    /// values from its previous use). Never exposes uninitialized memory:
    /// pooled buffers keep the length they were given back with, so the take
    /// either truncates (all elements previously written) or zero-extends
    /// (new elements written here). The matmul/conv packing scratch uses this
    /// to skip the zero pass its full overwrite would waste.
    fn take_raw(&mut self, len: usize) -> Vec<f32> {
        if !self.enabled {
            return vec![0.0; len];
        }
        if len == 0 {
            self.stats.hits += 1;
            return Vec::new();
        }
        let class = Self::take_class(len);
        if let Some(mut buf) = self.classes.get_mut(class).and_then(Vec::pop) {
            debug_assert!(buf.capacity() >= len);
            self.pooled_elems -= buf.capacity();
            self.stats.hits += 1;
            if buf.len() > len {
                buf.truncate(len);
            } else {
                buf.resize(len, 0.0);
            }
            buf
        } else {
            self.stats.misses += 1;
            let mut buf = Vec::with_capacity(1usize << class);
            buf.resize(len, 0.0);
            buf
        }
    }

    fn give(&mut self, buf: Vec<f32>) {
        if !self.enabled || buf.capacity() == 0 {
            return;
        }
        let class = Self::give_class(buf.capacity());
        let list = &mut self.classes[class];
        if list.len() >= MAX_PER_CLASS || self.pooled_elems + buf.capacity() > MAX_POOLED_ELEMS {
            self.stats.dropped += 1;
            return;
        }
        self.pooled_elems += buf.capacity();
        self.peak_pooled_elems = self.peak_pooled_elems.max(self.pooled_elems);
        self.stats.returned += 1;
        list.push(buf);
    }

    fn stats(&self) -> PoolStats {
        let bytes = |elems: usize| (elems * std::mem::size_of::<f32>()) as u64;
        PoolStats {
            idle_bytes: bytes(self.pooled_elems),
            peak_idle_bytes: bytes(self.peak_pooled_elems),
            ..self.stats
        }
    }
}

thread_local! {
    static POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// Takes a zero-filled buffer of exactly `len` elements from this thread's
/// pool, allocating only on a pool miss.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = take_empty(len);
    buf.resize(len, 0.0);
    buf
}

/// Takes a cleared buffer (length 0) with capacity for at least `cap`
/// elements — the fill-it-yourself variant that skips the zero pass.
pub fn take_empty(cap: usize) -> Vec<f32> {
    POOL.with(|p| p.borrow_mut().take_empty(cap))
}

/// Takes a buffer initialized to a copy of `src` (pooled storage, single
/// write pass).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = take_empty(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Takes a buffer of exactly `len` elements whose contents are unspecified
/// (stale values from earlier pool use — never uninitialized memory). For
/// scratch the caller overwrites completely before reading, e.g. packed
/// matmul panels; steady-state takes cost no fill pass at all.
pub fn take_raw(len: usize) -> Vec<f32> {
    POOL.with(|p| p.borrow_mut().take_raw(len))
}

/// Takes a buffer of `len` elements all set to `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut buf = take_empty(len);
    buf.resize(len, value);
    buf
}

/// Returns a buffer to this thread's pool (freed for real if caps are hit).
///
/// Safe to call during thread teardown: once the thread-local pool has been
/// destroyed the buffer is simply dropped.
pub fn give(buf: Vec<f32>) {
    let _ = POOL.try_with(|p| {
        // A panic can strike while the pool is borrowed (e.g. inside `take`);
        // leaking the return beats a double-panic abort during unwinding.
        if let Ok(mut pool) = p.try_borrow_mut() {
            pool.give(buf);
        }
    });
}

/// This thread's counters since thread start or the last [`reset_stats`].
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats())
}

/// Zeroes this thread's counters and restarts the idle high-water mark at
/// the bytes idle now (retained buffers stay pooled).
pub fn reset_stats() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.stats = PoolStats::default();
        pool.peak_pooled_elems = pool.pooled_elems;
    });
}

/// Frees every retained buffer on this thread and zeroes the byte budget.
/// Counters are preserved.
pub fn clear() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for list in pool.classes.iter_mut() {
            list.clear();
        }
        pool.pooled_elems = 0;
    });
}

/// Enables or disables pooling on this thread (for A/B benchmarking; when
/// disabled, takes allocate directly and gives free directly).
pub fn set_enabled(enabled: bool) {
    POOL.with(|p| p.borrow_mut().enabled = enabled);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_storage() {
        clear();
        reset_stats();
        let buf = take(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| v == 0.0));
        let ptr = buf.as_ptr();
        give(buf);
        let buf2 = take(100);
        assert_eq!(buf2.as_ptr(), ptr, "same storage must come back");
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        give(buf2);
    }

    #[test]
    fn reused_buffers_are_rezeroed() {
        clear();
        let mut buf = take(16);
        buf.iter_mut().for_each(|v| *v = 7.0);
        give(buf);
        let buf2 = take(16);
        assert!(buf2.iter().all(|&v| v == 0.0), "pool must hand out zeroed buffers");
        give(buf2);
    }

    #[test]
    fn smaller_take_fits_larger_class_buffer() {
        clear();
        reset_stats();
        give(take(120)); // classed by capacity 128
        let buf = take(70); // also class 128 (next_pow2(70) = 128)
        assert_eq!(buf.len(), 70);
        assert_eq!(stats().hits, 1, "cross-length reuse within a class");
        give(buf);
    }

    #[test]
    fn take_raw_reuses_without_rezeroing() {
        clear();
        reset_stats();
        let mut buf = take_raw(16);
        assert_eq!(buf.len(), 16);
        buf.iter_mut().for_each(|v| *v = 7.0);
        give(buf);
        let buf2 = take_raw(12);
        assert_eq!(buf2.len(), 12, "truncated to the requested length");
        assert!(buf2.iter().all(|&v| v == 7.0), "stale contents are allowed");
        give(buf2);
        // Growing within the class zero-fills only the extension.
        let buf3 = take_raw(16);
        assert!(buf3[..12].iter().all(|&v| v == 7.0));
        assert!(buf3[12..].iter().all(|&v| v == 0.0));
        give(buf3);
        assert_eq!(stats().misses, 1, "one allocation serves all three takes");
    }

    #[test]
    fn zero_length_takes_never_allocate() {
        clear();
        reset_stats();
        let buf = take(0);
        assert!(buf.is_empty());
        assert_eq!(stats().misses, 0);
        give(buf);
    }

    #[test]
    fn idle_bytes_are_capped_at_the_budget() {
        clear();
        reset_stats();
        // 16 MiB of buffers, 1 MiB each, handed back at once.
        let mib = 1 << 18;
        let bufs: Vec<Vec<f32>> = (0..16).map(|_| take(mib)).collect();
        bufs.into_iter().for_each(give);
        let s = stats();
        assert_eq!(s.idle_bytes, 8 << 20, "the pool keeps exactly its 8 MiB budget");
        assert_eq!(s.peak_idle_bytes, 8 << 20);
        assert_eq!((s.returned, s.dropped), (8, 8), "the other 8 MiB are freed");
        clear();
        assert_eq!(stats().idle_bytes, 0);
        assert_eq!(stats().peak_idle_bytes, 8 << 20, "clear keeps the high-water mark");
        reset_stats();
        assert_eq!(stats().peak_idle_bytes, 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let s = PoolStats { hits: 99, misses: 1, ..PoolStats::default() };
        assert!((s.hit_rate() - 0.99).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let later = PoolStats {
            hits: 120,
            misses: 2,
            returned: 50,
            dropped: 1,
            idle_bytes: 64,
            peak_idle_bytes: 128,
        };
        let d = later.since(&s);
        assert_eq!(d, PoolStats { hits: 21, misses: 1, returned: 50, dropped: 1, ..later });
    }
}
