//! Comparator-guided evolutionary search over the joint space (Section 3.3).

use crate::rank::{round_robin_rank, tournament_rank, RankOutcome};
use octs_comparator::Tahc;
use octs_space::{ArchHyper, JointSpace};
use octs_tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Evolutionary-search knobs (paper: `p₁ = 0.8`, `p₂ = 0.2`, `k_p = 10`,
/// top-3 final candidates; `K_s` up to 600 000 — scaled here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvolveConfig {
    /// Initial random sample count `K_s`.
    pub k_s: usize,
    /// Opponents per candidate in the seeding tournament.
    pub tournament_rounds: usize,
    /// Population size `k_p`.
    pub k_p: usize,
    /// Evolution generations.
    pub generations: usize,
    /// Crossover probability `p₁`.
    pub p_crossover: f64,
    /// Mutation probability `p₂`.
    pub p_mutation: f64,
    /// How many top candidates to return.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl EvolveConfig {
    /// CPU-scaled defaults mirroring the paper's settings.
    pub fn scaled() -> Self {
        Self {
            k_s: 2048,
            tournament_rounds: 2,
            k_p: 10,
            generations: 8,
            p_crossover: 0.8,
            p_mutation: 0.2,
            top_k: 3,
            seed: 0,
        }
    }

    /// Tiny defaults for tests.
    pub fn test() -> Self {
        Self {
            k_s: 24,
            tournament_rounds: 2,
            k_p: 6,
            generations: 2,
            p_crossover: 0.8,
            p_mutation: 0.2,
            top_k: 2,
            seed: 0,
        }
    }
}

/// Runs the heuristic search: sample `K_s` admissible arch-hypers, seed a
/// population via a sparse tournament, evolve with comparator-judged
/// survival, and return the Round-Robin top-K of the final population.
///
/// Comparator calls fan out across threads in fixed-size chunks (see
/// [`crate::rank`] — the evolutionary loop's tiny per-generation round-robins
/// are exactly the schedules that used to drown in per-item task overhead);
/// the result is byte-identical for any `RAYON_NUM_THREADS`, because
/// candidate generation stays on the master RNG stream and match schedules
/// come from per-candidate streams. The comparator's embedding cache
/// persists across generations, so surviving candidates are never
/// re-encoded. Candidates whose comparator evaluation panics are quarantined
/// by the rankers (never promoted into the surviving population while
/// healthy candidates remain) and surface through the
/// `evolve.quarantined` counter.
pub fn evolve_search(
    tahc: &Tahc,
    prelim: Option<&Tensor>,
    space: &JointSpace,
    cfg: &EvolveConfig,
) -> Vec<ArchHyper> {
    let _obs = octs_obs::span_detail("rank.evolve", format!("k_s {}", cfg.k_s));
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let candidates = space.sample_distinct(cfg.k_s, &mut rng);
    octs_obs::counter("evolve.sampled", candidates.len() as u64);
    let mut quarantined_total = 0usize;
    let mut tally = |out: &RankOutcome| quarantined_total += out.quarantined.len();

    // Seed population from a cheap tournament ranking.
    let seeding =
        tournament_rank(tahc, prelim, &candidates, cfg.tournament_rounds, cfg.seed ^ 0x70);
    tally(&seeding);
    let mut population: Vec<ArchHyper> =
        seeding.order.iter().take(cfg.k_p).map(|&i| candidates[i].clone()).collect();

    for _gen in 0..cfg.generations {
        // Generate offspring.
        let mut offspring = Vec::new();
        for i in 0..population.len() {
            if rng.gen_bool(cfg.p_crossover) {
                let j = rng.gen_range(0..population.len());
                if j != i {
                    offspring.push(space.crossover(&population[i], &population[j], &mut rng));
                }
            }
            if rng.gen_bool(cfg.p_mutation) {
                offspring.push(space.mutate(&population[i], &mut rng));
            }
        }
        population.extend(offspring);
        // Survival: Round-Robin over the (small) population, keep k_p.
        let survival = round_robin_rank(tahc, prelim, &population);
        tally(&survival);
        population = survival.order.iter().take(cfg.k_p).map(|&i| population[i].clone()).collect();
    }

    let final_rank = round_robin_rank(tahc, prelim, &population);
    tally(&final_rank);
    if quarantined_total > 0 {
        octs_obs::counter("evolve.quarantined", quarantined_total as u64);
    }
    final_rank.order.iter().take(cfg.top_k).map(|&i| population[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_comparator::TahcConfig;

    #[test]
    fn returns_topk_valid_candidates() {
        let space = JointSpace::scaled();
        let tahc = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let cfg = EvolveConfig::test();
        let top = evolve_search(&tahc, None, &space, &cfg);
        assert_eq!(top.len(), cfg.top_k);
        for ah in &top {
            assert!(space.hyper.contains(&ah.hyper));
            assert_eq!(ah.arch.c(), ah.hyper.c);
            assert!(ah.arch.has_both_st());
        }
    }

    #[test]
    fn search_is_deterministic_given_seed() {
        let space = JointSpace::scaled();
        let cfg = EvolveConfig::test();
        let t1 = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let t2 = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let a = evolve_search(&t1, None, &space, &cfg);
        let b = evolve_search(&t2, None, &space, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn search_identical_across_thread_counts() {
        // The tentpole determinism guarantee: same seed => byte-identical
        // top-k whether comparator calls run on 1 worker or many. Safe to
        // toggle the env var mid-process because the vendored rayon reads it
        // per parallel call, and no other test depends on its value (results
        // are thread-count-independent by construction).
        let space = JointSpace::scaled();
        let cfg = EvolveConfig::test();
        let saved = std::env::var("RAYON_NUM_THREADS").ok();

        std::env::set_var("RAYON_NUM_THREADS", "1");
        let t1 = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let serial = evolve_search(&t1, None, &space, &cfg);

        std::env::set_var("RAYON_NUM_THREADS", "4");
        let t2 = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let parallel = evolve_search(&t2, None, &space, &cfg);

        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        assert_eq!(serial, parallel, "top-k must not depend on worker count");
    }

    #[test]
    fn larger_ks_explores_more() {
        // sanity: config with more samples doesn't crash and still yields top_k
        let space = JointSpace::scaled();
        let tahc = Tahc::new(
            TahcConfig { task_aware: false, ..TahcConfig::test() },
            space.hyper.clone(),
            0,
        );
        let cfg = EvolveConfig { k_s: 64, ..EvolveConfig::test() };
        let top = evolve_search(&tahc, None, &space, &cfg);
        assert_eq!(top.len(), cfg.top_k);
    }
}
