//! Search-phase scaling benches: how ranking cost grows with the candidate
//! count — the engineering fact behind Table 13's time column and the
//! tournament-seeding design choice (full round-robin is quadratic).
//!
//! The `thread_sweep` group crosses `RAYON_NUM_THREADS` with `K_s` to expose
//! the serial-vs-parallel gap of the tournament seeding stage; comparator
//! caches are cleared between iterations so each measurement includes the
//! embed-once cost (run `search_parallel` for the cached steady state).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octs_comparator::{Tahc, TahcConfig};
use octs_search::{evolve_search, round_robin_rank, tournament_rank, EvolveConfig};
use octs_space::{HyperSpace, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn comparator() -> Tahc {
    Tahc::new(TahcConfig { task_aware: false, ..TahcConfig::scaled() }, HyperSpace::scaled(), 0)
}

fn bench_round_robin(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_robin_rank");
    group.sample_size(10);
    for &k in &[8usize, 16, 32] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let candidates = JointSpace::scaled().sample_distinct(k, &mut rng);
        let tahc = comparator();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(round_robin_rank(&tahc, None, &candidates).order));
        });
    }
    group.finish();
}

fn bench_tournament(c: &mut Criterion) {
    let mut group = c.benchmark_group("tournament_rank_2rounds");
    group.sample_size(10);
    for &k in &[32usize, 128, 512] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let candidates = JointSpace::scaled().sample_distinct(k, &mut rng);
        let tahc = comparator();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(tournament_rank(&tahc, None, &candidates, 2, 7).order));
        });
    }
    group.finish();
}

fn bench_thread_sweep(c: &mut Criterion) {
    // threads × K_s cross: same seeding tournament, different worker counts.
    // RAYON_NUM_THREADS is read per parallel call, so setting it between
    // iterations is honoured; results stay byte-identical across the sweep.
    let mut group = c.benchmark_group("tournament_thread_sweep");
    group.sample_size(10);
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    for &threads in &[1usize, 2, 4] {
        for &k in &[128usize, 512] {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let candidates = JointSpace::scaled().sample_distinct(k, &mut rng);
            let tahc = comparator();
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            let id = BenchmarkId::new(&format!("threads_{threads}"), k);
            group.bench_with_input(id, &k, |bench, _| {
                bench.iter(|| {
                    // fresh cache each iteration: measure the embed-once cost too
                    tahc.invalidate_caches();
                    black_box(tournament_rank(&tahc, None, &candidates, 2, 7).order)
                });
            });
        }
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    group.finish();
}

fn bench_full_evolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("evolve_search");
    group.sample_size(10);
    for &ks in &[64usize, 256] {
        let tahc = comparator();
        let space = JointSpace::scaled();
        let cfg = EvolveConfig { k_s: ks, generations: 2, ..EvolveConfig::test() };
        group.bench_with_input(BenchmarkId::from_parameter(ks), &ks, |bench, _| {
            bench.iter(|| black_box(evolve_search(&tahc, None, &space, &cfg)));
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    c.bench_function("joint_space_sample_distinct_256", |bench| {
        let space = JointSpace::scaled();
        bench.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            black_box(space.sample_distinct(256, &mut rng))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_round_robin, bench_tournament, bench_thread_sweep, bench_full_evolve, bench_sampling
}
criterion_main!(benches);
