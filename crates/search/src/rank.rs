//! Comparator-based ranking: tournament scoring and Round-Robin top-K.
//!
//! The comparator is a neural network and does not guarantee transitivity,
//! so the paper selects the final top-K by Round-Robin win counting rather
//! than a comparison sort (Section 3.3).
//!
//! Both rankers build their full match schedule up front and then judge every
//! match with `rayon` against a shared `&Tahc` (comparator inference is
//! `&self` and memoizes per-candidate GIN embeddings, so a candidate that
//! plays many opponents is encoded once). Outcome collection preserves
//! schedule order and opponent schedules come from per-candidate RNG streams
//! derived from the master seed, so rankings are byte-identical for any
//! thread count.
//!
//! Fan-out granularity: probes and matches are batched into fixed-size
//! chunks, one chunk per rayon task, instead of one task per item. A single
//! comparator call is microseconds of work, so item-granular fan-out drowned
//! in scheduling overhead — BENCH_search_parallel.json regressed *below* 1×
//! with extra threads before chunking. Small schedules (at most one chunk)
//! skip the parallel runtime entirely, which is what the evolutionary loop's
//! many tiny round-robins hit. Chunk outputs are collected in schedule
//! order, so the deterministic top-k contract is untouched.

use octs_comparator::{CacheStats, Tahc};
use octs_obs::RunCtx;
use octs_space::ArchHyper;
use octs_tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Probes or matches judged by one rayon task. Comparator inference on the
/// test-sized configs runs in the tens of microseconds, so a batch this size
/// gives each task hundreds of microseconds of real work — coarse enough
/// that thread-spawn/scheduling overhead stays in the noise, fine enough
/// that a `K_s = 2048` tournament still splits into dozens of tasks.
const RANK_CHUNK: usize = 64;

/// Runs `f(i)` for `i in 0..n`, batched into [`RANK_CHUNK`]-sized chunks
/// with one rayon task per chunk. Outputs come back in index order (the
/// vendored rayon's `collect` preserves input order and chunks are
/// contiguous), so callers observe exactly the serial result. Work that
/// fits in a single chunk never touches the parallel runtime. Every chunk
/// runs in the caller's run context.
fn par_chunked<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync + Send) -> Vec<R> {
    if n <= RANK_CHUNK {
        return (0..n).map(f).collect();
    }
    let starts: Vec<usize> = (0..n).step_by(RANK_CHUNK).collect();
    let run = RunCtx::current();
    let per_chunk: Vec<Vec<R>> = starts
        .par_iter()
        .map(|&start| run.enter(|| (start..(start + RANK_CHUNK).min(n)).map(&f).collect()))
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Outcome of a quarantine-aware ranking pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankOutcome {
    /// Healthy candidates by descending win count (ties keep index order),
    /// followed by the quarantined candidates in index order — so the vector
    /// is always a permutation of the pool and legacy callers can keep
    /// taking a prefix.
    pub order: Vec<usize>,
    /// Candidate indices whose comparator evaluation panicked.
    pub quarantined: Vec<usize>,
}

/// Probes every candidate's comparator embedding under `catch_unwind` (in
/// parallel). A candidate whose encoding panics — via an injected
/// [`octs_obs::fault::maybe_panic_compare`] or a genuine bug — is marked
/// unhealthy; because [`Tahc::embedding`] memoizes, a successful probe makes
/// the subsequent match phase reuse the cached encoding.
fn probe_candidates(tahc: &Tahc, candidates: &[ArchHyper]) -> Vec<bool> {
    let instrumented = octs_obs::armed();
    par_chunked(candidates.len(), |i| {
        let started = instrumented.then(std::time::Instant::now);
        let ok = catch_unwind(AssertUnwindSafe(|| {
            octs_obs::fault::maybe_panic_compare(i);
            let _ = tahc.embedding(&candidates[i]);
        }))
        .is_ok();
        if let Some(t0) = started {
            octs_obs::observe("rank.probe_us", t0.elapsed().as_micros() as f64);
        }
        if !ok {
            // Observable mirror only: the authoritative quarantine record is
            // the health vector itself, which flows into
            // `RankOutcome::quarantined` whether or not a recorder is armed.
            octs_obs::event("rank.quarantine", i as f64, &format!("candidate {i}"));
        }
        ok
    })
}

/// Emits the ranking pass's comparator cache activity as counter deltas
/// (hits/misses accrued between `before` and now, for both the embedding and
/// task-pathway caches). No-op when no recorder is attached.
fn record_cache_deltas(tahc: &Tahc, embed_before: CacheStats, task_before: CacheStats) {
    if !octs_obs::armed() {
        return;
    }
    // `saturating_sub`: a cache invalidation (checkpoint restore, training)
    // between the `before` snapshot and now resets the absolute stats, which
    // would underflow — and panic in debug builds — with plain subtraction.
    // A reset window reports a delta of 0 rather than a wrapped count.
    let embed = tahc.embed_cache_stats();
    let task = tahc.task_cache_stats();
    octs_obs::counter("rank.embed_cache.hits", embed.hits.saturating_sub(embed_before.hits) as u64);
    octs_obs::counter(
        "rank.embed_cache.misses",
        embed.misses.saturating_sub(embed_before.misses) as u64,
    );
    octs_obs::counter("rank.task_cache.hits", task.hits.saturating_sub(task_before.hits) as u64);
    octs_obs::counter(
        "rank.task_cache.misses",
        task.misses.saturating_sub(task_before.misses) as u64,
    );
}

/// Judges every `(i, j)` match in parallel; `Some(true)` means `i` won,
/// `None` that the match itself panicked (neither side scores).
fn play_matches(
    tahc: &Tahc,
    prelim: Option<&Tensor>,
    candidates: &[ArchHyper],
    matches: &[(usize, usize)],
) -> Vec<Option<bool>> {
    par_chunked(matches.len(), |m| {
        let (i, j) = matches[m];
        catch_unwind(AssertUnwindSafe(|| tahc.compare(prelim, &candidates[i], &candidates[j]))).ok()
    })
}

/// Tallies wins and assembles the final [`RankOutcome`]: healthy candidates
/// by descending wins (ties by index), quarantined ones appended in index
/// order.
fn assemble_outcome(
    healthy: &[bool],
    matches: &[(usize, usize)],
    outcomes: &[Option<bool>],
) -> RankOutcome {
    let mut wins = vec![0usize; healthy.len()];
    for (&(i, j), outcome) in matches.iter().zip(outcomes) {
        match outcome {
            Some(true) => wins[i] += 1,
            Some(false) => wins[j] += 1,
            None => {}
        }
    }
    let mut order: Vec<usize> = (0..healthy.len()).filter(|&i| healthy[i]).collect();
    order.sort_by(|&a, &b| wins[b].cmp(&wins[a]).then(a.cmp(&b)));
    let quarantined: Vec<usize> = (0..healthy.len()).filter(|&i| !healthy[i]).collect();
    if !quarantined.is_empty() {
        octs_obs::counter("rank.quarantined", quarantined.len() as u64);
    }
    order.extend(&quarantined);
    RankOutcome { order, quarantined }
}

/// Full Round-Robin: each candidate plays every other, `O(K²)` comparisons
/// judged in parallel; `order` ranks candidates by descending win count
/// (stable on ties). Every candidate is probed first and panicking ones are
/// quarantined to the tail. The healthy candidates' relative order is
/// byte-identical to a round-robin over the healthy subpool alone (the
/// schedule restricted to healthy pairs is the same set of matches), so
/// quarantining candidates outside the top-K leaves the top-K unchanged.
pub fn round_robin_rank(
    tahc: &Tahc,
    prelim: Option<&Tensor>,
    candidates: &[ArchHyper],
) -> RankOutcome {
    let _obs = octs_obs::span_detail("rank.round_robin", candidates.len().to_string());
    let embed_before = tahc.embed_cache_stats();
    let task_before = tahc.task_cache_stats();
    let k = candidates.len();
    let healthy = probe_candidates(tahc, candidates);
    let matches: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
        .filter(|&(i, j)| healthy[i] && healthy[j])
        .collect();
    octs_obs::counter("rank.matches", matches.len() as u64);
    let outcomes = play_matches(tahc, prelim, candidates, &matches);
    record_cache_deltas(tahc, embed_before, task_before);
    assemble_outcome(&healthy, &matches, &outcomes)
}

/// Sparse tournament: each candidate plays `rounds` random opponents; cheap
/// pre-ranking used to seed the evolutionary population when the candidate
/// pool is large (the paper's `K_s` reaches 300 000).
///
/// Each candidate's opponents are drawn from its own ChaCha8 stream derived
/// from `seed`, so the schedule — and therefore the ranking — is independent
/// of how the matches are later chunked across threads. The schedule is
/// drawn *before* health filtering, so quarantining a panicking candidate
/// cannot shift any other candidate's schedule; matches touching an
/// unhealthy candidate are simply dropped.
pub fn tournament_rank(
    tahc: &Tahc,
    prelim: Option<&Tensor>,
    candidates: &[ArchHyper],
    rounds: usize,
    seed: u64,
) -> RankOutcome {
    let k = candidates.len();
    if k <= 1 {
        return RankOutcome { order: (0..k).collect(), quarantined: Vec::new() };
    }
    let _obs = octs_obs::span_detail("rank.tournament", k.to_string());
    let embed_before = tahc.embed_cache_stats();
    let task_before = tahc.task_cache_stats();
    let healthy = probe_candidates(tahc, candidates);
    let rounds = rounds.min(k - 1);
    let matches: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| {
            let mut rng = candidate_stream(seed, i);
            let mut opponents: Vec<usize> = Vec::with_capacity(rounds);
            while opponents.len() < rounds {
                let j = rng.gen_range(0..k);
                if j != i && !opponents.contains(&j) {
                    opponents.push(j);
                }
            }
            opponents.into_iter().map(move |j| (i, j)).collect::<Vec<_>>()
        })
        .filter(|&(i, j)| healthy[i] && healthy[j])
        .collect();
    octs_obs::counter("rank.matches", matches.len() as u64);
    let outcomes = play_matches(tahc, prelim, candidates, &matches);
    record_cache_deltas(tahc, embed_before, task_before);
    assemble_outcome(&healthy, &matches, &outcomes)
}

/// Candidate `i`'s private RNG stream: master seed splitmixed with the index
/// so streams are decorrelated but fully determined by `(seed, i)`.
fn candidate_stream(seed: u64, i: usize) -> ChaCha8Rng {
    let salt = (i as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(seed ^ salt)
}

/// Number of comparator invocations a full round-robin over `k` needs.
pub fn round_robin_cost(k: usize) -> usize {
    k * (k - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_comparator::TahcConfig;
    use octs_space::JointSpace;

    fn untrained_fixture(k: usize) -> (Tahc, Vec<ArchHyper>) {
        let space = JointSpace::scaled();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ahs = space.sample_distinct(k, &mut rng);
        let cfg = TahcConfig { task_aware: false, ..TahcConfig::test() };
        (Tahc::new(cfg, space.hyper.clone(), 0), ahs)
    }

    #[test]
    fn round_robin_is_a_permutation() {
        let (tahc, ahs) = untrained_fixture(6);
        let order = round_robin_rank(&tahc, None, &ahs).order;
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn tournament_is_a_permutation_and_cheaper() {
        let (tahc, ahs) = untrained_fixture(10);
        let order = tournament_rank(&tahc, None, &ahs, 2, 7).order;
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!(round_robin_cost(10) > 10 * 2);
    }

    #[test]
    fn deterministic_rankings() {
        let (tahc, ahs) = untrained_fixture(5);
        let a = round_robin_rank(&tahc, None, &ahs).order;
        let b = round_robin_rank(&tahc, None, &ahs).order;
        assert_eq!(a, b);
        let t1 = tournament_rank(&tahc, None, &ahs, 2, 9).order;
        let t2 = tournament_rank(&tahc, None, &ahs, 2, 9).order;
        assert_eq!(t1, t2);
    }

    #[test]
    fn tournament_schedule_is_thread_count_independent() {
        // The opponent schedule is a pure function of (seed, candidate), so
        // rankings cannot depend on RAYON_NUM_THREADS.
        let (tahc, ahs) = untrained_fixture(9);
        let baseline = tournament_rank(&tahc, None, &ahs, 3, 11).order;
        for _ in 0..3 {
            tahc.invalidate_caches();
            assert_eq!(tournament_rank(&tahc, None, &ahs, 3, 11).order, baseline);
        }
    }

    #[test]
    fn tournament_rounds_capped_by_pool_size() {
        // rounds > k-1 must not loop forever looking for distinct opponents.
        let (tahc, ahs) = untrained_fixture(3);
        let order = tournament_rank(&tahc, None, &ahs, 10, 5).order;
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn assemble_outcome_orders_wins_ties_and_quarantine() {
        // Wins: 0 beats 2 (1 win each for 0, 1 via the two matches); ties
        // keep index order; unhealthy 3 goes to the tail.
        let healthy = [true, true, true, false];
        let matches = [(0, 2), (1, 2), (0, 1)];
        let outcomes = [Some(true), Some(true), None];
        let out = assemble_outcome(&healthy, &matches, &outcomes);
        assert_eq!(out.order, vec![0, 1, 2, 3]);
        assert_eq!(out.quarantined, vec![3]);
    }

    #[test]
    fn chunked_fanout_is_byte_identical_to_serial_above_chunk_size() {
        // A pool large enough that probes (k > RANK_CHUNK) and the match
        // schedule (k * rounds > RANK_CHUNK) both split into multiple chunks
        // must still rank exactly as a serial run.
        let (tahc, ahs) = untrained_fixture(RANK_CHUNK + 9);
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = tournament_rank(&tahc, None, &ahs, 3, 13).order;
        for threads in ["2", "4", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            tahc.invalidate_caches();
            assert_eq!(
                tournament_rank(&tahc, None, &ahs, 3, 13).order,
                serial,
                "chunked ranking diverged from serial at {threads} threads"
            );
        }
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }

    #[test]
    fn cache_delta_recording_survives_reset_between_snapshots() {
        // Regression: a cache invalidation between the `before` snapshot and
        // delta computation resets absolute stats below the snapshot, which
        // underflowed (debug-build panic) before `saturating_sub`.
        let (tahc, ahs) = untrained_fixture(4);
        let _ = round_robin_rank(&tahc, None, &ahs); // generate cache traffic
        let embed_before = tahc.embed_cache_stats();
        let task_before = tahc.task_cache_stats();
        assert!(embed_before.hits + embed_before.misses > 0, "fixture must touch the cache");
        tahc.invalidate_caches(); // stats reset: now below the snapshot

        let rec = octs_obs::Recorder::new();
        let scope = octs_obs::ObsScope::activate(&rec);
        record_cache_deltas(&tahc, embed_before, task_before);
        drop(scope);
        let summary = rec.summary();
        assert_eq!(summary.counter("rank.embed_cache.hits"), 0, "reset window must clamp to 0");
        assert_eq!(summary.counter("rank.embed_cache.misses"), 0);
    }

    #[test]
    fn quarantine_is_counted_without_a_recorder_and_mirrored_with_one() {
        // The authoritative quarantine signal must survive a recorder-less
        // run (fault-injection harnesses rely on `RankOutcome` alone); the
        // obs event/counter is only the observable mirror of that record.
        let (tahc, ahs) = untrained_fixture(5);
        let victim = 2usize;
        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().compare_panic(victim as u64),
        );

        // No recorder armed: the outcome still carries the quarantine.
        let unarmed = round_robin_rank(&tahc, None, &ahs);
        assert_eq!(unarmed.quarantined, vec![victim], "quarantine lost without a recorder");

        // Recorder armed: same outcome, plus the observable mirror.
        tahc.invalidate_caches();
        let rec = octs_obs::Recorder::new();
        let scope = octs_obs::ObsScope::activate(&rec);
        let armed = round_robin_rank(&tahc, None, &ahs);
        drop(scope);
        assert_eq!(armed.quarantined, unarmed.quarantined);
        let summary = rec.summary();
        assert_eq!(summary.counter("rank.quarantined"), 1);
        assert_eq!(summary.events.get("rank.quarantine"), Some(&1));
    }

    #[test]
    fn compare_panic_quarantines_without_shifting_healthy_order() {
        // Quarantining a candidate must (a) push it to the tail and (b)
        // leave the healthy candidates' relative order exactly as a ranking
        // of the healthy subpool alone would produce it.
        let (tahc, ahs) = untrained_fixture(8);
        let victim = 5usize;
        let baseline: Vec<ArchHyper> =
            ahs.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, a)| a.clone()).collect();
        let want = round_robin_rank(&tahc, None, &baseline).order;
        tahc.invalidate_caches();

        let _scope = octs_obs::fault::FaultScope::activate(
            octs_obs::fault::FaultPlan::new().compare_panic(victim as u64),
        );
        let out = round_robin_rank(&tahc, None, &ahs);
        assert_eq!(out.quarantined, vec![victim]);
        assert_eq!(out.order.last(), Some(&victim));
        // map healthy-subpool indices back into full-pool indices
        let remap: Vec<usize> = want.iter().map(|&i| if i >= victim { i + 1 } else { i }).collect();
        assert_eq!(&out.order[..7], &remap[..]);
    }
}
