//! Serial-vs-parallel comparator-guided search measurement.
//!
//! Runs the `K_s` seeding tournament (the dominant ranking cost at scale)
//! and the full evolutionary search under several `RAYON_NUM_THREADS`
//! settings, checks that the resulting order is byte-identical across worker
//! counts, and records wall-clock, speedup and embedding-cache hit rates to
//! `BENCH_search_parallel.json`. Each thread count `n > 1` is timed against
//! one thread in [`PAIRS`] alternating pairs ([`octs_bench::paired`]); its
//! speedup is the median per-pair serial/parallel ratio.
//!
//! Every row is annotated with the host's effective core budget
//! (`min(threads, available_parallelism)`): a row whose thread count exceeds
//! the physical cores measures oversubscription overhead, not scaling, so
//! the speedup gate (`> 1.0x`) applies only to rows that both run more than
//! one thread *and* fit the machine — and never in `--quick` mode, whose
//! workload is too small for stable timing. A failed gate prints the host's
//! measured parallel capacity from the report header: a host whose other
//! tenants hold its CPUs cannot show scaling.
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
use std::time::Duration;

/// Alternating serial/parallel pairs behind every row.
const PAIRS: usize = 11;

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    /// `min(threads, available cores)` — what this row can actually use.
    effective_cores: usize,
    /// Whether the `speedup > 1.0x` gate applies to this row.
    gate_applied: bool,
    serial_secs: f64,
    tournament_secs: f64,
    speedup_vs_serial: f64,
    speedup_q1: f64,
    speedup_q3: f64,
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
    serial_secs: f64,
    evolve_secs: f64,
    speedup_vs_serial: f64,
    speedup_q1: f64,
    speedup_q3: f64,
    top_identical_to_serial: bool,
}

#[derive(Serialize)]
struct Report {
    k_s: usize,
    tournament_rounds: usize,
    pairs: usize,
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

    let mut thread_counts = vec![2usize, 4];
    if cores > 4 {
        thread_counts.push(cores);
    }
    let rayon_env = std::env::var("RAYON_NUM_THREADS").ok();

    // --- K_s seeding tournament, one thread vs each worker count ----------
    let mut tournament = Vec::new();
    for &threads in &thread_counts {
        let (mut serial_order, mut order, mut stats) = (Vec::new(), Vec::new(), None);
        let timing = octs_bench::paired(PAIRS, Duration::ZERO, |parallel| {
            set_threads(if parallel { threads } else { 1 });
            tahc.invalidate_caches();
            let ranked = tournament_rank(&tahc, None, &candidates, rounds, 7).order;
            if parallel {
                order = ranked;
                stats = Some(tahc.embed_cache_stats());
            } else {
                serial_order = ranked;
            }
        });
        let stats = stats.expect("the parallel side ran");
        let run = ThreadRun {
            threads,
            effective_cores: threads.min(cores),
            gate_applied: !quick && threads > 1 && threads <= cores,
            serial_secs: timing.a_ns / 1e9,
            tournament_secs: timing.b_ns / 1e9,
            speedup_vs_serial: timing.ratio.median,
            speedup_q1: timing.ratio.q1,
            speedup_q3: timing.ratio.q3,
            topk_identical_to_serial: order == serial_order,
            embed_cache_hits: stats.hits,
            embed_cache_misses: stats.misses,
            embed_cache_hit_rate: stats.hit_rate(),
        };
        eprintln!(
            "[tournament] threads={} cores={} serial {:.3}s parallel {:.3}s speedup={:.2}x \
             (q1 {:.2}x, q3 {:.2}x) gated={} identical={} cache hit rate {:.3}",
            threads,
            run.effective_cores,
            run.serial_secs,
            run.tournament_secs,
            run.speedup_vs_serial,
            run.speedup_q1,
            run.speedup_q3,
            run.gate_applied,
            run.topk_identical_to_serial,
            stats.hit_rate()
        );
        tournament.push(run);
    }

    // --- full evolutionary search, serial vs parallel ---------------------
    let cfg = EvolveConfig { k_s, ..EvolveConfig::scaled() };
    let threads = cores.max(2);
    let (mut serial_top, mut top) = (Vec::new(), Vec::new());
    let timing = octs_bench::paired(PAIRS, Duration::ZERO, |parallel| {
        set_threads(if parallel { threads } else { 1 });
        tahc.invalidate_caches();
        let found = evolve_search(&tahc, None, &space, &cfg);
        if parallel {
            top = found;
        } else {
            serial_top = found;
        }
    });
    let run = EvolveRun {
        threads,
        effective_cores: threads.min(cores),
        gate_applied: !quick && threads > 1 && threads <= cores,
        serial_secs: timing.a_ns / 1e9,
        evolve_secs: timing.b_ns / 1e9,
        speedup_vs_serial: timing.ratio.median,
        speedup_q1: timing.ratio.q1,
        speedup_q3: timing.ratio.q3,
        top_identical_to_serial: top == serial_top,
    };
    eprintln!(
        "[evolve]     threads={} cores={} serial {:.3}s parallel {:.3}s speedup={:.2}x \
         (q1 {:.2}x, q3 {:.2}x) gated={} identical={}",
        threads,
        run.effective_cores,
        run.serial_secs,
        run.evolve_secs,
        run.speedup_vs_serial,
        run.speedup_q1,
        run.speedup_q3,
        run.gate_applied,
        run.top_identical_to_serial
    );
    let evolve = vec![run];
    match rayon_env {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    let report = Report {
        k_s,
        tournament_rounds: rounds,
        pairs: PAIRS,
        note: format!(
            "each row times one thread (serial_secs) against `threads` in {PAIRS} alternating \
             pairs; speedup_vs_serial is the median per-pair serial/parallel ratio, q1/q3 \
             beside it; rows with threads > effective_cores oversubscribe the machine and \
             measure scheduling overhead, not scaling, so the speedup gate applies only to \
             rows with gate_applied=true (threads <= header.cores, non-quick); the embedding \
             memoization (hit-rate column) cuts GIN forwards regardless of cores"
        ),
        tournament,
        evolve,
    };
    let header = octs_bench::write_report("BENCH_search_parallel.json", quick, &report);
    let capacity = header.parallel_capacity;

    let all_identical = report.tournament.iter().all(|r| r.topk_identical_to_serial)
        && report.evolve.iter().all(|r| r.top_identical_to_serial);
    assert!(all_identical, "rankings must be byte-identical across thread counts");

    for r in &report.tournament {
        assert!(
            !r.gate_applied || r.speedup_vs_serial > 1.0,
            "tournament with {} thread(s) on {} core(s) must beat serial, got {:.2}x \
             (measured parallel capacity {capacity:.2} cores)",
            r.threads,
            r.effective_cores,
            r.speedup_vs_serial
        );
    }
    for r in &report.evolve {
        assert!(
            !r.gate_applied || r.speedup_vs_serial > 1.0,
            "evolve with {} thread(s) on {} core(s) must beat serial, got {:.2}x \
             (measured parallel capacity {capacity:.2} cores)",
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
