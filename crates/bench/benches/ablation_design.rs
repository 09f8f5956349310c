//! Design-choice ablation benches (DESIGN.md §Key design decisions): the
//! runtime cost of the alternatives — deeper GIN, Set-Transformer vs mean
//! pooling, tournament seeding rounds — so the accuracy-vs-cost trade-offs
//! discussed in the paper are measurable here too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octs_comparator::{
    gin_encode, materialize_gin, materialize_pool_task, pool_task, GinConfig, PoolKind,
    TaskEmbedConfig,
};
use octs_comparator::{Tahc, TahcConfig};
use octs_search::tournament_rank;
use octs_space::{HyperSpace, JointSpace};
use octs_tensor::{Graph, ParamStore, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_gin_depth(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let ah = JointSpace::scaled().sample(&mut rng);
    let enc = ah.encode(&HyperSpace::scaled());
    let mut group = c.benchmark_group("gin_layers");
    for &layers in &[2usize, 4] {
        let cfg = GinConfig { layers, dim: 32 };
        let mut ps = ParamStore::new(0);
        materialize_gin(&mut ps, "gin", &cfg);
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |bench, _| {
            bench.iter(|| {
                let g = Graph::new();
                black_box(gin_encode(&ps, &g, "gin", &enc, &cfg).value())
            });
        });
    }
    group.finish();
}

fn bench_pooling_variants(c: &mut Criterion) {
    let prelim = Tensor::full([6, 24, 16], 0.1);
    let mut group = c.benchmark_group("task_pooling");
    for (label, pool) in
        [("set_transformer", PoolKind::SetTransformer), ("mean_pool", PoolKind::MeanPool)]
    {
        let cfg = TaskEmbedConfig { pool, ..TaskEmbedConfig::scaled() };
        let mut ps = ParamStore::new(0);
        materialize_pool_task(&mut ps, "pool", &cfg);
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let g = Graph::new();
                black_box(pool_task(&ps, &g, "pool", &prelim, &cfg).value())
            });
        });
    }
    group.finish();
}

fn bench_tournament_rounds(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let candidates = JointSpace::scaled().sample_distinct(128, &mut rng);
    let mut group = c.benchmark_group("tournament_rounds");
    group.sample_size(10);
    for &rounds in &[1usize, 2, 4] {
        let tahc = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::scaled() },
            HyperSpace::scaled(),
            0,
        );
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |bench, _| {
            bench.iter(|| black_box(tournament_rank(&tahc, None, &candidates, rounds, 9).order));
        });
    }
    group.finish();
}

fn bench_encoding_variants(c: &mut Criterion) {
    // dual-graph encoding cost per candidate (amortized across ranking)
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let ahs = JointSpace::scaled().sample_distinct(64, &mut rng);
    let space = HyperSpace::scaled();
    c.bench_function("archhyper_encode_64", |bench| {
        bench.iter(|| {
            for ah in &ahs {
                black_box(ah.encode(&space));
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gin_depth, bench_pooling_variants, bench_tournament_rounds, bench_encoding_variants
}
criterion_main!(benches);
