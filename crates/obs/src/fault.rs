//! Deterministic fault injection for the AutoCTS+ robustness layer.
//!
//! Long-running phases (label collection, comparator pre-training, ranking,
//! serving) must survive diverging trainings, panicking evaluations and IO
//! errors or delays. A [`FaultPlan`] schedules exactly those failures, keyed
//! by identifiers the pipelines already have: a labelling **unit** (one
//! candidate on one task), a **candidate index** in a ranking pool, a
//! comparator pre-training **epoch**, or a **(site, op)** pair such as the
//! `k`-th `journal.append`, the `k`-th batched forward at
//! `serve.forward.<task>` or the `k`-th int8 load probe at
//! `serve.quant.<task>`. Every recovery path is thus exercised
//! deterministically.
//!
//! A [`FaultScope`] arms a plan on the current run (see [`crate::RunCtx`])
//! and restores the run's previous plan on drop; the plan reaches that run's
//! workers and no other run. With no plan armed every hook is one
//! thread-local read and one relaxed atomic load.
//!
//! Injected panics carry the [`InjectedPanic`] payload and are muted by the
//! scope's panic hook, so fault-suite output stays readable; real panics
//! still print through the previous hook.

use crate::ctx::{self, Held, OnDrop};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// The payload of every injected panic; lets `catch_unwind` sites and the
/// quiet panic hook distinguish scheduled faults from genuine bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The unit / candidate index the fault was keyed on.
    pub unit: u64,
}

/// A deterministic schedule of faults to inject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Labelling units whose training loss turns NaN at the given epoch,
    /// every attempt — the candidate diverges persistently, so the trainer's
    /// rollback budget runs out and the candidate is poisoned.
    pub nan_loss_units: BTreeMap<u64, usize>,
    /// Labelling units whose training loss turns NaN at the given epoch
    /// *once* — the first attempt diverges, then the rollback + halved-lr
    /// retry must recover and complete the run unpoisoned.
    pub transient_nan_units: BTreeMap<u64, usize>,
    /// Labelling units that panic as soon as evaluation starts.
    pub panic_units: BTreeSet<u64>,
    /// Candidate indices (within a ranking pool) whose comparator embedding
    /// panics — the ranking layer must quarantine them.
    pub compare_panic_units: BTreeSet<u64>,
    /// Comparator pre-training epochs whose first loss goes NaN, once —
    /// the epoch-level rollback must absorb the transient and converge.
    pub pretrain_nan_epochs: BTreeSet<usize>,
    /// One-shot IO failures keyed by `(site, op index)`, e.g.
    /// `("journal.append", 7)` fails the 8th journal append.
    pub io_faults: BTreeSet<(String, u64)>,
    /// One-shot IO delays in milliseconds keyed by `(site, op index)` —
    /// e.g. `("registry.load", 0)` makes the first checkpoint load slow, the
    /// latency-degradation sibling of [`FaultPlan::io_error`].
    pub io_delays: BTreeMap<(String, u64), u64>,
    /// Forward-site panics keyed by `(site, op index)`: the `op`-th guarded
    /// forward at `site` panics mid-flight. Each ordinal occurs at most once
    /// per site counter, so these fire at most once by construction.
    pub site_panics: BTreeSet<(String, u64)>,
    /// One-shot non-finite-output injections keyed by `(site, op index)`:
    /// the `op`-th guarded forward at `site` reports garbage output, the
    /// numeric-poisoning sibling of [`FaultPlan::panic_at`].
    pub site_nans: BTreeSet<(String, u64)>,
    /// One-shot int8 activation-overflow injections keyed by `(site, op
    /// index)`: the `op`-th quantized load probe at `site` (e.g.
    /// `serve.quant.<task>`) runs with saturating activation quantization,
    /// so the serving layer's precision fallback path is exercised.
    pub quant_overflows: BTreeSet<(String, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a persistent NaN loss for `unit` at training `epoch`.
    pub fn nan_loss(mut self, unit: u64, epoch: usize) -> Self {
        self.nan_loss_units.insert(unit, epoch);
        self
    }

    /// Schedules a one-shot NaN loss for `unit` at training `epoch` — the
    /// rollback must absorb it and the run must still complete.
    pub fn transient_nan(mut self, unit: u64, epoch: usize) -> Self {
        self.transient_nan_units.insert(unit, epoch);
        self
    }

    /// Schedules a panic when labelling `unit` begins.
    pub fn panic_unit(mut self, unit: u64) -> Self {
        self.panic_units.insert(unit);
        self
    }

    /// Schedules a panic inside the comparator embedding of ranking-pool
    /// candidate `idx`.
    pub fn compare_panic(mut self, idx: u64) -> Self {
        self.compare_panic_units.insert(idx);
        self
    }

    /// Schedules a one-shot NaN loss in comparator pre-training `epoch`.
    pub fn pretrain_nan(mut self, epoch: usize) -> Self {
        self.pretrain_nan_epochs.insert(epoch);
        self
    }

    /// Schedules a one-shot IO failure at `(site, op)`.
    pub fn io_error(mut self, site: &str, op: u64) -> Self {
        self.io_faults.insert((site.to_string(), op));
        self
    }

    /// Schedules a one-shot IO delay of `millis` at `(site, op)` — the
    /// slow-disk / cold-cache scenario for checkpoint loads.
    pub fn slow_io(mut self, site: &str, op: u64, millis: u64) -> Self {
        self.io_delays.insert((site.to_string(), op), millis);
        self
    }

    /// Schedules a panic in the `op`-th guarded forward at `site`.
    pub fn panic_at(mut self, site: &str, op: u64) -> Self {
        self.site_panics.insert((site.to_string(), op));
        self
    }

    /// Schedules non-finite output from the `op`-th guarded forward at
    /// `site` (consumed on fire).
    pub fn nan_at(mut self, site: &str, op: u64) -> Self {
        self.site_nans.insert((site.to_string(), op));
        self
    }

    /// Schedules a saturating int8 activation overflow for the `op`-th
    /// quantized load probe at `site` (consumed on fire).
    pub fn quant_overflow(mut self, site: &str, op: u64) -> Self {
        self.quant_overflows.insert((site.to_string(), op));
        self
    }

    /// A seeded random plan over `n_units` labelling units: `n_nan` distinct
    /// units diverge with NaN losses (at epoch 0) and `n_panic` further
    /// distinct units panic. For every registered IO site `(name, n_ops)` in
    /// `io_sites`, one IO error and one IO delay (1–15 ms) are drawn from the
    /// site's first `n_ops` operation ordinals, so seeded chaos plans cover
    /// the IO paths too. For every quantized-probe site `(name, n_ops)` in
    /// `quant_sites`, one activation overflow is drawn the same way. Fully
    /// determined by `seed` and the site lists.
    pub fn seeded(
        seed: u64,
        n_units: u64,
        n_nan: usize,
        n_panic: usize,
        io_sites: &[(&str, u64)],
        quant_sites: &[(&str, u64)],
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut units: Vec<u64> = (0..n_units).collect();
        units.shuffle(&mut rng);
        let mut plan = Self::new();
        let mut it = units.into_iter();
        plan.nan_loss_units.extend(it.by_ref().take(n_nan).map(|u| (u, 0)));
        plan.panic_units.extend(it.take(n_panic));
        for &(site, n_ops) in io_sites.iter().filter(|s| s.1 > 0) {
            plan.io_faults.insert((site.to_string(), rng.gen_range(0..n_ops)));
            let op = rng.gen_range(0..n_ops);
            plan.io_delays.insert((site.to_string(), op), rng.gen_range(1..=15));
        }
        for &(site, n_ops) in quant_sites.iter().filter(|s| s.1 > 0) {
            plan.quant_overflows.insert((site.to_string(), rng.gen_range(0..n_ops)));
        }
        plan
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self == &Self::default()
    }
}

thread_local! {
    static CURRENT_UNIT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII guard keeping a [`FaultPlan`] armed on the current run; restores the
/// run's previous plan on drop.
pub struct FaultScope {
    _held: Held<FaultPlan>,
}

impl FaultScope {
    /// Arms `plan` on the current thread's run context for the lifetime of
    /// the returned guard.
    pub fn activate(plan: FaultPlan) -> Self {
        install_quiet_hook();
        Self { _held: Held::arm(plan) }
    }
}

/// True when the current run has a fault plan armed (the fast path every
/// hook takes first).
#[inline]
pub fn armed() -> bool {
    ctx::armed::<FaultPlan>()
}

/// Runs `f` with the current thread's fault unit set to `unit` (restored
/// afterwards). The labelling fan-outs wrap each candidate's work in this so
/// the trainer's hooks know which unit they are running for. Cheap enough to
/// call unconditionally.
pub fn with_unit<R>(unit: u64, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_UNIT.with(|c| c.replace(Some(unit)));
    let _restore = OnDrop(Some(move || CURRENT_UNIT.with(|c| c.set(prev))));
    f()
}

/// The fault unit the current thread is labelling, if any.
pub fn current_unit() -> Option<u64> {
    CURRENT_UNIT.with(|c| c.get())
}

fn with_plan<R>(f: impl FnOnce(&mut FaultPlan) -> R) -> Option<R> {
    ctx::with(f)
}

/// Hook for the forecaster trainer: true when the current unit's loss should
/// read as NaN at `epoch`. Persistent schedules ([`FaultPlan::nan_loss`])
/// fire on every (re)attempt, exhausting the divergence guard's strike
/// budget; transient ones ([`FaultPlan::transient_nan`]) are consumed on
/// first fire, so the rollback + retry recovers.
pub fn nan_loss_at(epoch: usize) -> bool {
    if !armed() {
        return false;
    }
    let Some(unit) = current_unit() else { return false };
    with_plan(|p| {
        if p.nan_loss_units.get(&unit) == Some(&epoch) {
            return true;
        }
        if p.transient_nan_units.get(&unit) == Some(&epoch) {
            p.transient_nan_units.remove(&unit);
            return true;
        }
        false
    })
    .unwrap_or(false)
}

/// Hook for labelling fan-outs: panics (with [`InjectedPanic`]) if the
/// current unit is scheduled to panic.
pub fn maybe_panic_unit() {
    if !armed() {
        return;
    }
    let Some(unit) = current_unit() else { return };
    if with_plan(|p| p.panic_units.contains(&unit)).unwrap_or(false) {
        std::panic::panic_any(InjectedPanic { unit });
    }
}

/// Hook for the ranking layer: panics (with [`InjectedPanic`]) if ranking-
/// pool candidate `idx` is scheduled to fail during embedding.
pub fn maybe_panic_compare(idx: usize) {
    if with_plan(|p| p.compare_panic_units.contains(&(idx as u64))).unwrap_or(false) {
        std::panic::panic_any(InjectedPanic { unit: idx as u64 });
    }
}

/// Hook for comparator pre-training: true once per scheduled `epoch`
/// (consumed), so the epoch-level rollback retries into a clean run.
pub fn pretrain_nan(epoch: usize) -> bool {
    with_plan(|p| p.pretrain_nan_epochs.remove(&epoch)).unwrap_or(false)
}

/// Hook for persistence layers: returns a scheduled IO error for
/// `(site, op)` exactly once, `Ok(())` otherwise.
pub fn io_fault(site: &str, op: u64) -> std::io::Result<()> {
    let fired = with_plan(|p| p.io_faults.remove(&(site.to_string(), op))).unwrap_or(false);
    if fired {
        Err(std::io::Error::other(format!("injected IO fault at {site}#{op}")))
    } else {
        Ok(())
    }
}

/// Hook for guarded forwards (e.g. a serving lane's batched predict):
/// panics with [`InjectedPanic`] when the `op`-th forward at `site` is
/// scheduled to fail. Call inside the `catch_unwind` that isolates the
/// forward, so the injected panic exercises the real recovery path.
pub fn maybe_panic_site(site: &str, op: u64) {
    if with_plan(|p| p.site_panics.contains(&(site.to_string(), op))).unwrap_or(false) {
        std::panic::panic_any(InjectedPanic { unit: op });
    }
}

/// Hook for guarded forwards: true when the `op`-th forward at `site` is
/// scheduled to produce non-finite output (consumed on fire). The caller is
/// responsible for actually poisoning its output so the downstream finite
/// check fails the way a genuinely garbage forward would.
pub fn nan_at_site(site: &str, op: u64) -> bool {
    with_plan(|p| p.site_nans.remove(&(site.to_string(), op))).unwrap_or(false)
}

/// Hook for quantized load probes (e.g. a serving lane's int8 conformance
/// check at model load): true when the `op`-th probe at `site` is scheduled
/// to overflow (consumed on fire). The caller arms saturating activation
/// quantization for the probe forward, so the downstream tolerance check
/// fails the way a genuinely clipping model would.
pub fn quant_overflow_at(site: &str, op: u64) -> bool {
    with_plan(|p| p.quant_overflows.remove(&(site.to_string(), op))).unwrap_or(false)
}

/// Hook for persistence layers: sleeps for a scheduled IO delay at
/// `(site, op)` exactly once (consumed), a no-op otherwise. Callers time the
/// surrounding operation as usual, so an injected delay surfaces in the same
/// latency histograms a genuinely slow disk would.
pub fn io_delay(site: &str, op: u64) {
    let millis = with_plan(|p| p.io_delays.remove(&(site.to_string(), op))).flatten();
    if let Some(ms) = millis {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Installed once, process-wide: mutes panics carrying the [`InjectedPanic`]
/// payload and delegates every other panic to the previous hook (captured by
/// move, so the hook-info type never needs naming).
fn install_quiet_hook() {
    static QUIET_HOOK: std::sync::Once = std::sync::Once::new();
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_some() {
                return; // scheduled fault: stay quiet
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_hooks_are_noops() {
        // another thread's run arms every fault probed here
        crate::tests::armed_elsewhere(|| {
            assert!(!armed());
            with_unit(1, || {
                assert!(!nan_loss_at(0));
                maybe_panic_unit();
            });
            maybe_panic_compare(3);
            assert!(!pretrain_nan(0));
            assert!(io_fault("journal.append", 0).is_ok());
            maybe_panic_site("serve.forward.t", 0);
            assert!(!nan_at_site("serve.forward.t", 0));
            assert!(!quant_overflow_at("serve.quant.t", 0));
        });
    }

    #[test]
    fn unit_scoping_nests_and_restores() {
        assert_eq!(current_unit(), None);
        let out = with_unit(7, || {
            assert_eq!(current_unit(), Some(7));
            with_unit(9, || assert_eq!(current_unit(), Some(9)));
            assert_eq!(current_unit(), Some(7));
            42
        });
        assert_eq!(out, 42);
        assert_eq!(current_unit(), None);
    }

    #[test]
    fn scheduled_faults_fire_and_one_shots_consume() {
        let plan = FaultPlan::new()
            .nan_loss(3, 1)
            .panic_unit(5)
            .pretrain_nan(2)
            .io_error("journal.append", 1);
        let _scope = FaultScope::activate(plan);

        // persistent NaN loss: fires repeatedly, only for its (unit, epoch)
        with_unit(3, || {
            assert!(nan_loss_at(1));
            assert!(nan_loss_at(1));
            assert!(!nan_loss_at(0));
        });
        with_unit(4, || assert!(!nan_loss_at(1)));

        // scheduled panic carries the InjectedPanic payload
        let err = std::panic::catch_unwind(|| with_unit(5, maybe_panic_unit)).unwrap_err();
        assert_eq!(err.downcast_ref::<InjectedPanic>(), Some(&InjectedPanic { unit: 5 }));

        // one-shots consume
        assert!(pretrain_nan(2));
        assert!(!pretrain_nan(2));
        assert!(io_fault("journal.append", 0).is_ok());
        assert!(io_fault("journal.append", 1).is_err());
        assert!(io_fault("journal.append", 1).is_ok());
    }

    #[test]
    fn scheduled_delays_fire_once_and_consume() {
        let plan = FaultPlan::new().slow_io("registry.load", 1, 30);
        let _scope = FaultScope::activate(plan);

        let t0 = std::time::Instant::now();
        io_delay("registry.load", 0); // not scheduled: no sleep
        assert!(t0.elapsed() < std::time::Duration::from_millis(20));

        let t1 = std::time::Instant::now();
        io_delay("registry.load", 1);
        assert!(t1.elapsed() >= std::time::Duration::from_millis(30));

        let t2 = std::time::Instant::now();
        io_delay("registry.load", 1); // one-shot: consumed above
        assert!(t2.elapsed() < std::time::Duration::from_millis(20));
    }

    #[test]
    fn scope_drop_disarms() {
        {
            let _scope = FaultScope::activate(FaultPlan::new().panic_unit(1));
            assert!(armed());
        }
        assert!(!armed());
        with_unit(1, maybe_panic_unit); // must not panic once disarmed
    }

    #[test]
    fn seeded_plans_are_deterministic_and_disjoint() {
        let a = FaultPlan::seeded(9, 32, 2, 3, &[], &[]);
        let b = FaultPlan::seeded(9, 32, 2, 3, &[], &[]);
        assert_eq!(a, b);
        assert_eq!(a.nan_loss_units.len(), 2);
        assert_eq!(a.panic_units.len(), 3);
        for u in a.nan_loss_units.keys() {
            assert!(!a.panic_units.contains(u), "unit {u} scheduled twice");
        }
        assert!(a.io_faults.is_empty() && a.io_delays.is_empty(), "no sites registered");
        assert!(a.quant_overflows.is_empty(), "no quant sites registered");
        assert_ne!(a, FaultPlan::seeded(10, 32, 2, 3, &[], &[]));
    }

    #[test]
    fn seeded_plans_cover_registered_io_sites_deterministically() {
        let sites: &[(&str, u64)] = &[("registry.load", 6), ("journal.append", 10)];
        let quant_sites: &[(&str, u64)] = &[("serve.quant.t", 4)];
        let a = FaultPlan::seeded(21, 16, 1, 1, sites, quant_sites);
        let b = FaultPlan::seeded(21, 16, 1, 1, sites, quant_sites);
        assert_eq!(a, b, "same seed and sites must give the same plan");
        for &(site, n_ops) in sites {
            assert!(
                a.io_faults.iter().any(|(s, op)| s == site && *op < n_ops),
                "site {site} got no IO error in range"
            );
            assert!(
                a.io_delays.iter().any(|((s, op), ms)| s == site && *op < n_ops && *ms >= 1),
                "site {site} got no IO delay in range"
            );
        }
        assert!(
            a.quant_overflows.iter().any(|(s, op)| s == "serve.quant.t" && *op < 4),
            "quant site got no overflow in range"
        );
        assert_ne!(a, FaultPlan::seeded(22, 16, 1, 1, sites, quant_sites), "seed changes the plan");
        assert!(
            FaultPlan::seeded(21, 16, 1, 1, &[("registry.load", 0)], &[("serve.quant.t", 0)])
                .io_faults
                .is_empty(),
            "a zero-op site registers nothing"
        );
    }

    #[test]
    fn site_panics_and_nans_fire_at_their_ordinal() {
        let plan = FaultPlan::new().panic_at("serve.forward.t", 2).nan_at("serve.forward.t", 4);
        let _scope = FaultScope::activate(plan);

        maybe_panic_site("serve.forward.t", 1); // not scheduled
        maybe_panic_site("serve.forward.u", 2); // other site
        let err = std::panic::catch_unwind(|| maybe_panic_site("serve.forward.t", 2)).unwrap_err();
        assert_eq!(err.downcast_ref::<InjectedPanic>(), Some(&InjectedPanic { unit: 2 }));

        assert!(!nan_at_site("serve.forward.t", 3));
        assert!(!nan_at_site("serve.forward.u", 4));
        assert!(nan_at_site("serve.forward.t", 4));
        assert!(!nan_at_site("serve.forward.t", 4), "one-shot: consumed");
    }

    #[test]
    fn quant_overflows_fire_at_their_ordinal_and_consume() {
        let plan = FaultPlan::new().quant_overflow("serve.quant.t", 0);
        let _scope = FaultScope::activate(plan);

        assert!(!quant_overflow_at("serve.quant.t", 1), "wrong ordinal");
        assert!(!quant_overflow_at("serve.quant.u", 0), "wrong site");
        assert!(quant_overflow_at("serve.quant.t", 0));
        assert!(!quant_overflow_at("serve.quant.t", 0), "one-shot: consumed");
    }
}
