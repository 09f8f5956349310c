//! Seeded, shrinking generators.
//!
//! Every generator draws from a [`Gen`] whose entire state derives from one
//! `u64` seed, so a failing case replays from the seed alone — assert
//! messages should always include `gen.seed()`. [`Gen::fork`] derives an
//! independent, equally replayable substream, so unrelated draws do not
//! perturb each other when a generator grows new fields.
//!
//! [`shrink`] is the companion minimizer: given a failing value and a
//! function proposing strictly "smaller" variants, it greedily walks to a
//! local minimum that still fails — the minimal reproducer the conformance
//! sweep reports.

use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_obs::fault::FaultPlan;
use octs_search::LadderConfig;
use octs_space::{ArchHyper, JointSpace};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded generator stream. All randomness in the testkit flows through
/// one of these, created from a single replayable `u64`.
pub struct Gen {
    seed: u64,
    rng: ChaCha8Rng,
}

impl Gen {
    /// A generator whose whole stream is determined by `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self { seed, rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// The seed this stream was created from — print it in every assert.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The underlying RNG, for APIs that take `&mut impl Rng` directly.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Derives an independent substream keyed by `salt`. Forked streams are
    /// replayable from `(seed, salt)` and do not consume draws from `self`,
    /// so adding a forked generator never shifts existing ones.
    pub fn fork(&self, salt: u64) -> Gen {
        Gen::from_seed(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ salt)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..=hi)
    }

    /// A uniform float in `lo..hi`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// A fair coin.
    pub fn flip(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// Returns `items` in a generated order.
    pub fn shuffled<T>(&mut self, mut items: Vec<T>) -> Vec<T> {
        items.shuffle(&mut self.rng);
        items
    }

    /// One candidate from the joint space.
    pub fn arch_hyper(&mut self, space: &JointSpace) -> ArchHyper {
        space.sample(&mut self.rng)
    }

    /// A pool of `k` distinct candidates.
    pub fn arch_hyper_pool(&mut self, space: &JointSpace, k: usize) -> Vec<ArchHyper> {
        space.sample_distinct(k, &mut self.rng)
    }

    /// A small synthetic CTS dataset profile: random domain, 3–5 series,
    /// 180–260 steps — big enough for multi-step windows, small enough that
    /// labelling a candidate on it stays sub-second.
    pub fn dataset_profile(&mut self, name: &str) -> DatasetProfile {
        const DOMAINS: [Domain; 5] =
            [Domain::Traffic, Domain::Energy, Domain::Solar, Domain::Exchange, Domain::Demand];
        let domain = *DOMAINS.choose(&mut self.rng).expect("nonempty");
        let n = self.usize_in(3, 5);
        let t = self.usize_in(180, 260);
        let coupling = self.f32_in(0.1, 0.5);
        let noise = self.f32_in(0.02, 0.15);
        let scale = self.f32_in(1.0, 20.0);
        let seed = self.rng.gen::<u64>();
        DatasetProfile::custom(name, domain, n, t, 24, coupling, noise, scale, seed)
    }

    /// A generated forecasting task descriptor (dataset + setting + split):
    /// short multi-step horizons over a generated dataset, with enough steps
    /// in every split for at least one window.
    pub fn task(&mut self, name: &str) -> ForecastTask {
        let profile = self.dataset_profile(name);
        let p = self.usize_in(3, 6);
        let q = self.usize_in(1, 3);
        let stride = self.usize_in(1, 2);
        ForecastTask::new(profile.generate(0), ForecastSetting::multi(p, q), 0.6, 0.2, stride)
    }

    /// A small task-bank configuration: 2–3 generated profiles, 4–10 tasks,
    /// 1–4 tasks per shard (so multi-shard layouts are the common case), and
    /// short admissible settings so every derived subset pairs cheaply.
    pub fn task_bank(&mut self, name: &str) -> octs_data::bank::BankConfig {
        let profiles: Vec<DatasetProfile> = (0..self.usize_in(2, 3))
            .map(|i| self.dataset_profile(&format!("{name}-p{i}")))
            .collect();
        let enrich = octs_data::EnrichConfig {
            subsets_per_dataset: 1,
            time_frac: (0.6, 0.9),
            series_frac: (0.7, 1.0),
            settings: vec![ForecastSetting::multi(4, 2), ForecastSetting::multi(6, 2)],
            min_spans: 8,
            stride: 2,
            seed: self.rng.gen(),
        };
        octs_data::bank::BankConfig {
            n_tasks: self.usize_in(4, 10),
            shard_tasks: self.usize_in(1, 4),
            profiles,
            enrich,
            seed: self.rng.gen(),
        }
    }

    /// A valid successive-halving ladder configuration: monotone quotas
    /// (`pool ≥ stage1 ≥ stage2 ≥ 1`) over a small pool, cheap proxy budgets.
    /// Always passes [`LadderConfig::validate`], so properties over generated
    /// ladders exercise the search itself, not the validation error path.
    pub fn ladder_config(&mut self) -> LadderConfig {
        let pool = self.usize_in(6, 12);
        let stage1 = self.usize_in(2, pool.min(6));
        let stage2 = self.usize_in(1, stage1.min(3));
        LadderConfig {
            pool,
            stage1,
            stage2,
            proxy_epochs: self.usize_in(1, 2),
            screen_rounds: self.usize_in(1, 3),
        }
    }

    /// A fault plan over a labelling phase of `n_units` units and a journal
    /// of up to `n_appends` appends: a generated mix of persistent NaN
    /// losses, unit panics, and one-shot IO failures at journal boundaries.
    pub fn fault_plan(&mut self, n_units: u64, n_appends: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for unit in 0..n_units {
            match self.usize_in(0, 5) {
                0 => plan = plan.nan_loss(unit, self.usize_in(0, 2)),
                1 => plan = plan.panic_unit(unit),
                _ => {}
            }
        }
        if n_appends > 0 && self.flip() {
            plan = plan.io_error("journal.append", self.rng.gen_range(0..n_appends));
        }
        plan
    }

    /// A fault plan over a serving lane: a generated mix of forward panics,
    /// NaN forward outputs, and slow forwards at `forward_site` (ordinals in
    /// `0..n_forwards`), plus one-shot IO failures and delays at `io_site`
    /// (ordinals in `io_lo..io_hi` — lets callers exempt the ops a lane
    /// start-up is known to consume). Always injects at least one forward
    /// fault so a chaos run exercises the breaker path.
    pub fn serve_fault_plan(
        &mut self,
        forward_site: &str,
        n_forwards: u64,
        io_site: &str,
        io_lo: u64,
        io_hi: u64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut injected = false;
        for op in 0..n_forwards {
            match self.usize_in(0, 7) {
                0 => {
                    plan = plan.panic_at(forward_site, op);
                    injected = true;
                }
                1 => {
                    plan = plan.nan_at(forward_site, op);
                    injected = true;
                }
                2 => plan = plan.slow_io(forward_site, op, self.rng.gen_range(1..=5)),
                _ => {}
            }
        }
        if !injected && n_forwards > 0 {
            let op = self.rng.gen_range(0..n_forwards);
            plan = if self.flip() {
                plan.panic_at(forward_site, op)
            } else {
                plan.nan_at(forward_site, op)
            };
        }
        if io_hi > io_lo {
            if self.flip() {
                plan = plan.io_error(io_site, self.rng.gen_range(io_lo..io_hi));
            }
            if self.flip() {
                plan = plan.slow_io(io_site, self.rng.gen_range(io_lo..io_hi), 1);
            }
        }
        plan
    }
}

/// Greedy shrinking: starting from a failing `value`, repeatedly replace it
/// with the first `smaller(value)` candidate for which `fails` still returns
/// true, until no candidate fails. The result is a locally-minimal failing
/// value; with deterministic `fails`, re-running the same shrink from the
/// same seed reproduces it exactly.
pub fn shrink<T>(
    mut value: T,
    smaller: impl Fn(&T) -> Vec<T>,
    mut fails: impl FnMut(&T) -> bool,
) -> T {
    loop {
        let mut advanced = false;
        for candidate in smaller(&value) {
            if fails(&candidate) {
                value = candidate;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return value;
        }
    }
}

/// Shape-shrink proposals: every way of halving one dimension (toward 1).
/// Used by the conformance sweep to minimize failing gradient checks.
pub fn smaller_shapes(shape: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (i, &d) in shape.iter().enumerate() {
        if d > 1 {
            let mut s = shape.to_vec();
            s[i] = d / 2;
            out.push(s);
        }
    }
    out
}

/// Fault-plan shrink proposals: every plan with exactly one fault removed.
pub fn smaller_fault_plans(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for unit in plan.nan_loss_units.keys() {
        let mut p = plan.clone();
        p.nan_loss_units.remove(unit);
        out.push(p);
    }
    for unit in plan.panic_units.iter() {
        let mut p = plan.clone();
        p.panic_units.remove(unit);
        out.push(p);
    }
    for fault in plan.io_faults.iter() {
        let mut p = plan.clone();
        p.io_faults.remove(fault);
        out.push(p);
    }
    for key in plan.io_delays.keys() {
        let mut p = plan.clone();
        p.io_delays.remove(key);
        out.push(p);
    }
    for fault in plan.site_panics.iter() {
        let mut p = plan.clone();
        p.site_panics.remove(fault);
        out.push(p);
    }
    for fault in plan.site_nans.iter() {
        let mut p = plan.clone();
        p.site_nans.remove(fault);
        out.push(p);
    }
    for fault in plan.quant_overflows.iter() {
        let mut p = plan.clone();
        p.quant_overflows.remove(fault);
        out.push(p);
    }
    out
}

/// Arch-hyper shrink proposals: drop one edge whose destination keeps
/// another in-edge (the DAG stays valid), preserving the hyperparameters.
pub fn smaller_arch_hypers(ah: &ArchHyper) -> Vec<ArchHyper> {
    let edges = ah.arch.edges();
    let mut out = Vec::new();
    for skip in 0..edges.len() {
        let kept: Vec<_> =
            edges.iter().enumerate().filter(|(i, _)| *i != skip).map(|(_, e)| *e).collect();
        if let Ok(arch) = octs_space::ArchDag::new(ah.arch.c(), kept) {
            out.push(ArchHyper::new(arch, ah.hyper));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_from_seed() {
        let mut a = Gen::from_seed(7);
        let mut b = Gen::from_seed(7);
        let space = JointSpace::scaled();
        assert_eq!(a.arch_hyper(&space), b.arch_hyper(&space));
        assert_eq!(a.fault_plan(8, 10), b.fault_plan(8, 10));
        let ta = a.task("t");
        let tb = b.task("t");
        assert_eq!(ta.data.values(), tb.data.values());
        assert_eq!(ta.id(), tb.id());
    }

    #[test]
    fn forks_are_independent_and_replayable() {
        let root = Gen::from_seed(3);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let space = JointSpace::scaled();
        // distinct salts give (almost surely) distinct streams
        assert_ne!(f1.arch_hyper(&space), f2.arch_hyper(&space));
        // same salt replays
        let mut again = Gen::from_seed(3).fork(1);
        let mut f1b = Gen::from_seed(3).fork(1);
        assert_eq!(again.arch_hyper(&space), f1b.arch_hyper(&space));
    }

    #[test]
    fn generated_tasks_have_windows_in_every_split() {
        use octs_data::Split;
        for seed in 0..30 {
            let mut g = Gen::from_seed(seed);
            let task = g.task("w");
            for split in [Split::Train, Split::Val, Split::Test] {
                assert!(
                    !task.windows(split).is_empty(),
                    "seed {seed}: split {split:?} has no windows"
                );
            }
        }
    }

    #[test]
    fn generated_fault_plans_stay_in_bounds() {
        for seed in 0..50 {
            let mut g = Gen::from_seed(seed);
            let plan = g.fault_plan(6, 9);
            assert!(plan.nan_loss_units.keys().all(|&u| u < 6), "seed {seed}");
            assert!(plan.panic_units.iter().all(|&u| u < 6), "seed {seed}");
            assert!(
                plan.io_faults.iter().all(|(site, op)| site == "journal.append" && *op < 9),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn shrink_minimizes_shapes() {
        // "fails" whenever the element count is >= 8: the minimal failing
        // shape halves every dim as far as the predicate allows.
        let min =
            shrink(vec![8usize, 8, 4], |s| smaller_shapes(s), |s| s.iter().product::<usize>() >= 8);
        assert_eq!(min.iter().product::<usize>(), 8);
    }

    #[test]
    fn shrink_minimizes_fault_plans() {
        let mut g = Gen::from_seed(11);
        let plan = g.fault_plan(20, 20);
        // Pretend only plans containing a panic on unit 2 fail; shrinking
        // must strip everything else.
        let plan = {
            let mut p = plan;
            p.panic_units.insert(2);
            p
        };
        let min = shrink(plan, smaller_fault_plans, |p| p.panic_units.contains(&2));
        assert_eq!(min.panic_units.len(), 1);
        assert!(min.nan_loss_units.is_empty());
        assert!(min.io_faults.is_empty());
    }

    #[test]
    fn shrink_minimizes_arch_hypers() {
        let mut g = Gen::from_seed(13);
        let space = JointSpace::scaled();
        let ah = g.arch_hyper(&space);
        // minimal DAG still containing a GDCC edge (if any; otherwise skip)
        let has_gdcc =
            |a: &ArchHyper| a.arch.edges().iter().any(|e| e.op == octs_space::OpKind::Gdcc);
        if !has_gdcc(&ah) {
            return;
        }
        let min = shrink(ah, smaller_arch_hypers, |a| has_gdcc(a));
        assert!(has_gdcc(&min));
        // every non-input node is at minimal in-degree or its edges are
        // load-bearing: dropping any further edge breaks the predicate/DAG
        for candidate in smaller_arch_hypers(&min) {
            assert!(!has_gdcc(&candidate), "shrink left a droppable edge");
        }
    }
}
