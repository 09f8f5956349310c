//! Serial-vs-parallel comparator-guided search measurement.
//!
//! Runs the `K_s` seeding tournament (the dominant ranking cost at scale)
//! under several `RAYON_NUM_THREADS` settings, checks that the resulting
//! order is byte-identical across worker counts, and records wall-clock,
//! speedup and embedding-cache hit rates to `BENCH_search_parallel.json`.
//!
//! Every row is annotated with the host's effective core budget
//! (`min(threads, available_parallelism)`): a row whose thread count exceeds
//! the physical cores measures oversubscription overhead, not scaling, so
//! the speedup gate (`> 1.0x`) applies only to rows that both run more than
//! one thread *and* fit the machine — and never in `--quick` mode, whose
//! workload is too small for stable timing.
//!
//! ```sh
//! cargo run --release --bin search_parallel            # k_s = 2048
//! cargo run --release --bin search_parallel -- --quick # k_s = 256
//! ```

use octs_comparator::{Tahc, TahcConfig};
use octs_search::{evolve_search, tournament_rank, EvolveConfig};
use octs_space::{HyperSpace, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    /// `min(threads, available cores)` — what this row can actually use.
    effective_cores: usize,
    /// Whether the `speedup > 1.0x` gate applies to this row.
    gate_applied: bool,
    tournament_secs: f64,
    speedup_vs_serial: f64,
    topk_identical_to_serial: bool,
    embed_cache_hits: usize,
    embed_cache_misses: usize,
    embed_cache_hit_rate: f64,
}

#[derive(Serialize)]
struct EvolveRun {
    threads: usize,
    /// `min(threads, available cores)` — what this row can actually use.
    effective_cores: usize,
    /// Whether the `speedup > 1.0x` gate applies to this row.
    gate_applied: bool,
    evolve_secs: f64,
    speedup_vs_serial: f64,
    top_identical_to_serial: bool,
}

#[derive(Serialize)]
struct Report {
    k_s: usize,
    tournament_rounds: usize,
    available_cores: usize,
    note: String,
    tournament: Vec<ThreadRun>,
    evolve: Vec<EvolveRun>,
}

fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let k_s = if quick { 256 } else { 2048 };
    let rounds = 2;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let space = JointSpace::scaled();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let candidates = space.sample_distinct(k_s, &mut rng);
    let tahc = Tahc::new(
        TahcConfig { task_aware: false, ..TahcConfig::scaled() },
        HyperSpace::scaled(),
        0,
    );

    let mut thread_counts = vec![1usize, 2, 4];
    if cores > 4 {
        thread_counts.push(cores);
    }

    // Untimed warm-up: fault in the allocator pools and code paths so the
    // serial row (measured first) is not charged one-time start-up costs.
    set_threads(1);
    tournament_rank(&tahc, None, &candidates, 1, 7);
    tahc.invalidate_caches();

    // --- K_s seeding tournament under each worker count -------------------
    let mut tournament = Vec::new();
    let mut serial_secs = 0.0f64;
    let mut serial_order: Vec<usize> = Vec::new();
    for &threads in &thread_counts {
        set_threads(threads);
        tahc.invalidate_caches();
        let t0 = Instant::now();
        let order = tournament_rank(&tahc, None, &candidates, rounds, 7).order;
        let secs = t0.elapsed().as_secs_f64();
        let stats = tahc.embed_cache_stats();
        if threads == 1 {
            serial_secs = secs;
            serial_order = order.clone();
        }
        let run = ThreadRun {
            threads,
            effective_cores: threads.min(cores),
            gate_applied: !quick && threads > 1 && threads <= cores,
            tournament_secs: secs,
            speedup_vs_serial: serial_secs / secs,
            topk_identical_to_serial: order == serial_order,
            embed_cache_hits: stats.hits,
            embed_cache_misses: stats.misses,
            embed_cache_hit_rate: stats.hit_rate(),
        };
        eprintln!(
            "[tournament] threads={} cores={} {:.3}s speedup={:.2}x gated={} identical={} \
             cache hit rate {:.3}",
            threads,
            run.effective_cores,
            secs,
            run.speedup_vs_serial,
            run.gate_applied,
            run.topk_identical_to_serial,
            stats.hit_rate()
        );
        tournament.push(run);
    }

    // --- full evolutionary search, serial vs parallel ---------------------
    let cfg = EvolveConfig { k_s, ..EvolveConfig::scaled() };
    let mut evolve = Vec::new();
    let mut serial_evolve = 0.0f64;
    let mut serial_top = Vec::new();
    for &threads in &[1usize, cores.max(2)] {
        set_threads(threads);
        tahc.invalidate_caches();
        let t0 = Instant::now();
        let top = evolve_search(&tahc, None, &space, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        if threads == 1 {
            serial_evolve = secs;
            serial_top = top.clone();
        }
        let run = EvolveRun {
            threads,
            effective_cores: threads.min(cores),
            gate_applied: !quick && threads > 1 && threads <= cores,
            evolve_secs: secs,
            speedup_vs_serial: serial_evolve / secs,
            top_identical_to_serial: top == serial_top,
        };
        eprintln!(
            "[evolve]     threads={} cores={} {:.3}s speedup={:.2}x gated={} identical={}",
            threads,
            run.effective_cores,
            secs,
            run.speedup_vs_serial,
            run.gate_applied,
            run.top_identical_to_serial
        );
        evolve.push(run);
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    let report = Report {
        k_s,
        tournament_rounds: rounds,
        available_cores: cores,
        note: format!(
            "measured on a {cores}-core host; rows with threads > effective_cores oversubscribe \
             the machine and measure scheduling overhead, not scaling, so the speedup gate \
             applies only to rows with gate_applied=true (threads <= cores, non-quick); the \
             embedding memoization (hit-rate column) cuts GIN forwards regardless of cores"
        ),
        tournament,
        evolve,
    };
    octs_bench::write_report("BENCH_search_parallel.json", quick, &report);

    let all_identical = report.tournament.iter().all(|r| r.topk_identical_to_serial)
        && report.evolve.iter().all(|r| r.top_identical_to_serial);
    assert!(all_identical, "rankings must be byte-identical across thread counts");

    for r in &report.tournament {
        assert!(
            !r.gate_applied || r.speedup_vs_serial > 1.0,
            "tournament with {} thread(s) on {} core(s) must beat serial, got {:.2}x",
            r.threads,
            r.effective_cores,
            r.speedup_vs_serial
        );
    }
    for r in &report.evolve {
        assert!(
            !r.gate_applied || r.speedup_vs_serial > 1.0,
            "evolve with {} thread(s) on {} core(s) must beat serial, got {:.2}x",
            r.threads,
            r.effective_cores,
            r.speedup_vs_serial
        );
    }
    if cores < 2 {
        eprintln!(
            "note: {cores}-core host — every multi-thread row is oversubscribed, so no \
             scaling claim is made or gated; re-run on a multi-core host to measure speedup"
        );
    }
}
