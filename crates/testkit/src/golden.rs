//! Golden-run regression fixtures.
//!
//! A [`GoldenRun`] snapshots everything deterministic about one small
//! fixed-seed search: the winner genotype (render string + fingerprint), the
//! proxy-label vector (bit-exact `f32::to_bits`), the winner's validation
//! MAE, and the deterministic slice of the observability [`Summary`] (span
//! counts and counter totals — never timings, never the embed/task cache
//! split, which races under parallel ranking, and never the `tensor.pool.*`
//! buffer-pool counters, which record what the allocator did rather than
//! what the search decided).
//!
//! Fixtures live in `tests/golden/*.json`. [`check_against_fixture`] compares
//! a fresh capture against the committed fixture and reports a structural
//! diff naming every changed field; setting `UPDATE_GOLDEN=1` regenerates
//! the fixture instead. Any change to search behavior therefore fails
//! loudly with field-level context, and is committed deliberately by
//! rerunning with the environment variable set.

use octs_comparator::{label_one, Tahc, TahcConfig, TaskEmbedConfig, TaskEmbedder, Ts2VecConfig};
use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::TrainConfig;
use octs_obs::{ObsScope, Recorder, Summary};
use octs_search::{
    autocts_plus_search, fidelity_ladder_search, zero_shot_search, AutoCtsPlusConfig, EvolveConfig,
    LadderConfig,
};
use octs_space::{render, JointSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Environment variable that switches fixture checking to regeneration.
pub const UPDATE_GOLDEN_ENV: &str = "UPDATE_GOLDEN";

/// The deterministic snapshot of one golden search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRun {
    /// Bump when the snapshot layout changes (forces regeneration).
    pub schema_version: u64,
    /// Which scenario produced this run (`"autocts_plus"`, `"zero_shot"`).
    pub scenario: String,
    /// The seed the scenario ran under.
    pub seed: u64,
    /// Winner genotype, rendered via [`octs_space::render`].
    pub winner_render: String,
    /// Winner fingerprint (stable content hash of the genotype).
    pub winner_fingerprint: u64,
    /// Bit-exact proxy labels: for `autocts_plus`, the early-validation
    /// score of every pool candidate; for `zero_shot`, the finalists'
    /// validation MAEs. Stored as `f32::to_bits` so byte-level drift shows.
    pub proxy_label_bits: Vec<u64>,
    /// `f32::to_bits` of the winner's best validation MAE.
    pub best_val_mae_bits: u64,
    /// Deterministic counter totals (cache and buffer-pool counters excluded).
    pub counters: BTreeMap<String, u64>,
    /// Span name → completed-span count (durations are never snapshotted).
    pub span_counts: BTreeMap<String, u64>,
}

/// The deterministic slice of an obs [`Summary`]: per-name span counts and
/// every counter except the `*_cache.{hits,misses}` split, whose partition
/// (though not its sum) depends on thread interleaving, and the
/// `tensor.pool.*` counters, which depend on the host's thread count and on
/// how many buffers the tensor kernels happen to take.
fn stable_obs(summary: &Summary) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let counters = summary
        .counters
        .iter()
        .filter(|(name, _)| !name.contains("cache") && !name.starts_with("tensor.pool."))
        .map(|(name, v)| (name.clone(), *v))
        .collect();
    let spans = summary.spans.iter().map(|s| (s.name.clone(), s.count)).collect();
    (counters, spans)
}

/// The fixed task golden `autocts_plus` runs search on.
pub fn golden_autocts_task() -> ForecastTask {
    let profile =
        DatasetProfile::custom("golden-ap", Domain::Traffic, 4, 220, 24, 0.3, 0.1, 10.0, 42);
    ForecastTask::new(profile.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

/// The fixed unseen task golden `zero_shot` runs search on.
pub fn golden_zero_shot_task() -> ForecastTask {
    let profile =
        DatasetProfile::custom("golden-zs", Domain::Energy, 4, 230, 24, 0.25, 0.08, 8.0, 9);
    ForecastTask::new(profile.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2)
}

/// Runs the fixed-seed AutoCTS+ scenario and snapshots it.
///
/// The proxy-label vector is recomputed with [`label_one`] over the same
/// seed-derived candidate pool the search labels internally — scores depend
/// only on `(candidate, task, config)`, so the two agree bit-for-bit.
pub fn capture_autocts_plus() -> GoldenRun {
    capture_autocts_plus_with(&AutoCtsPlusConfig::test())
}

/// [`capture_autocts_plus`] with an explicit config — used by the regression
/// harness to demonstrate that perturbing any search constant fails the
/// golden check with a structural diff naming the changed fields.
pub fn capture_autocts_plus_with(cfg: &AutoCtsPlusConfig) -> GoldenRun {
    let task = golden_autocts_task();
    let space = JointSpace::tiny();

    let recorder = Recorder::new();
    let outcome = {
        let _scope = ObsScope::activate(&recorder);
        autocts_plus_search(&task, &space, cfg).expect("golden scenario must succeed")
    };
    let (counters, span_counts) = stable_obs(&recorder.summary());

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pool = space.sample_distinct(cfg.num_labeled, &mut rng);
    let proxy_label_bits = pool
        .iter()
        .enumerate()
        .map(|(i, ah)| label_one(ah, &task, i as u64, &cfg.label_cfg).score.to_bits() as u64)
        .collect();

    GoldenRun {
        schema_version: 1,
        scenario: "autocts_plus".to_string(),
        seed: cfg.seed,
        winner_render: render(&outcome.best),
        winner_fingerprint: outcome.best.fingerprint(),
        proxy_label_bits,
        best_val_mae_bits: outcome.best_report.best_val_mae.to_bits() as u64,
        counters,
        span_counts,
    }
}

/// Runs the fixed-seed zero-shot scenario (untrained comparator, fixed
/// embedder) and snapshots it. The "proxy labels" here are the finalists'
/// validation MAEs — the quantities the winner selection is decided on.
pub fn capture_zero_shot() -> GoldenRun {
    let task = golden_zero_shot_task();
    let space = JointSpace::tiny();
    let tahc = Tahc::new(TahcConfig::test(), space.hyper.clone(), 0);
    let mut embedder = TaskEmbedder::new(TaskEmbedConfig::test(), Ts2VecConfig::test(), 1);
    let evolve_cfg = EvolveConfig { k_s: 12, generations: 1, top_k: 2, ..EvolveConfig::test() };
    let train_cfg = TrainConfig::test();

    let recorder = Recorder::new();
    let outcome = {
        let _scope = ObsScope::activate(&recorder);
        zero_shot_search(&tahc, &mut embedder, &task, &space, &evolve_cfg, &train_cfg)
    };
    let (counters, span_counts) = stable_obs(&recorder.summary());

    GoldenRun {
        schema_version: 1,
        scenario: "zero_shot".to_string(),
        seed: train_cfg.seed,
        winner_render: render(&outcome.best),
        winner_fingerprint: outcome.best.fingerprint(),
        proxy_label_bits: outcome
            .finalists
            .iter()
            .map(|(_, report)| report.best_val_mae.to_bits() as u64)
            .collect(),
        best_val_mae_bits: outcome.best_report.best_val_mae.to_bits() as u64,
        counters,
        span_counts,
    }
}

/// The deterministic snapshot of one golden fidelity-ladder search: the
/// winner, the exact survivor set every rung promoted, and the bit-exact
/// labels each fidelity paid for. Any change to screening order, promotion
/// quotas, per-candidate RNG streams, or label training shows up as a named
/// field diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenLadderRun {
    /// Bump when the snapshot layout changes (forces regeneration).
    pub schema_version: u64,
    /// Always `"fidelity_ladder"`.
    pub scenario: String,
    /// The seed the scenario ran under.
    pub seed: u64,
    /// Winner genotype, rendered via [`octs_space::render`].
    pub winner_render: String,
    /// Winner fingerprint (stable content hash of the genotype).
    pub winner_fingerprint: u64,
    /// Per-rung promoted-candidate fingerprints, in promotion order:
    /// `[screen → stage 1, proxy → stage 2, full-label survivors]`.
    pub stage_survivors: Vec<Vec<u64>>,
    /// `f32::to_bits` of the healthy stage-1 proxy labels (cheap fidelity).
    pub proxy_label_bits: Vec<u64>,
    /// `f32::to_bits` of the healthy stage-2 full-fidelity labels.
    pub full_label_bits: Vec<u64>,
    /// `f32::to_bits` of the winner's best validation MAE.
    pub best_val_mae_bits: u64,
    /// Total label-training epochs the ladder paid.
    pub label_epochs: u64,
    /// Deterministic counter totals (cache and buffer-pool counters excluded).
    pub counters: BTreeMap<String, u64>,
    /// Span name → completed-span count (durations are never snapshotted).
    pub span_counts: BTreeMap<String, u64>,
}

/// Runs the fixed-seed successive-halving scenario — [`LadderConfig::test`]
/// over the same task and space as [`capture_autocts_plus`] — and snapshots
/// everything deterministic about it.
pub fn capture_fidelity_ladder() -> GoldenLadderRun {
    let task = golden_autocts_task();
    let space = JointSpace::tiny();
    let cfg = AutoCtsPlusConfig::test();
    let ladder = LadderConfig::test();

    let recorder = Recorder::new();
    let outcome = {
        let _scope = ObsScope::activate(&recorder);
        fidelity_ladder_search(&task, &space, &cfg, &ladder)
            .expect("golden ladder scenario must succeed")
    };
    let (counters, span_counts) = stable_obs(&recorder.summary());

    GoldenLadderRun {
        schema_version: 1,
        scenario: "fidelity_ladder".to_string(),
        seed: cfg.seed,
        winner_render: render(&outcome.best),
        winner_fingerprint: outcome.best.fingerprint(),
        stage_survivors: outcome.survivors.clone(),
        proxy_label_bits: outcome.proxy_labeled.iter().map(|l| l.score.to_bits() as u64).collect(),
        full_label_bits: outcome.full_labeled.iter().map(|l| l.score.to_bits() as u64).collect(),
        best_val_mae_bits: outcome.best_report.best_val_mae.to_bits() as u64,
        label_epochs: outcome.label_epochs as u64,
        counters,
        span_counts,
    }
}

// ---------------------------------------------------------------------------
// structural diffing

fn render_leaf(v: &serde::Value) -> String {
    match v {
        serde::Value::Null => "null".to_string(),
        serde::Value::Bool(b) => b.to_string(),
        serde::Value::Num(n) => n.clone(),
        serde::Value::Str(s) => format!("{s:?}"),
        serde::Value::Arr(items) => format!("[..{} items]", items.len()),
        serde::Value::Obj(fields) => format!("{{..{} fields}}", fields.len()),
    }
}

fn diff_values(path: &str, expected: &serde::Value, actual: &serde::Value, out: &mut Vec<String>) {
    use serde::Value;
    match (expected, actual) {
        (Value::Obj(e), Value::Obj(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff_values(&format!("{path}.{key}"), ev, av, out),
                    None => {
                        out.push(format!("{path}.{key}: missing (expected {})", render_leaf(ev)))
                    }
                }
            }
            for (key, av) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: unexpected (got {})", render_leaf(av)));
                }
            }
        }
        (Value::Arr(e), Value::Arr(a)) => {
            if e.len() != a.len() {
                out.push(format!("{path}: length changed, expected {} got {}", e.len(), a.len()));
            }
            for (i, (ev, av)) in e.iter().zip(a.iter()).enumerate() {
                diff_values(&format!("{path}[{i}]"), ev, av, out);
            }
        }
        _ if expected == actual => {}
        _ => out.push(format!(
            "{path}: expected {} got {}",
            render_leaf(expected),
            render_leaf(actual)
        )),
    }
}

/// Structural diff of two JSON documents: one line per changed, missing, or
/// unexpected field, each naming its dotted path. Empty when equivalent.
pub fn diff_json(expected: &str, actual: &str) -> Vec<String> {
    let e = match serde::parse_value(expected) {
        Ok(v) => v,
        Err(err) => return vec![format!("expected side is not valid JSON: {err}")],
    };
    let a = match serde::parse_value(actual) {
        Ok(v) => v,
        Err(err) => return vec![format!("actual side is not valid JSON: {err}")],
    };
    let mut out = Vec::new();
    diff_values("$", &e, &a, &mut out);
    out
}

/// Compares `actual` against the committed fixture at `path`.
///
/// With `UPDATE_GOLDEN=1` in the environment, (re)writes the fixture and
/// returns `Ok`. Otherwise a missing fixture or any structural difference
/// comes back as `Err` with one line per changed field and regeneration
/// instructions.
pub fn check_against_fixture<T: Serialize>(path: &Path, actual: &T) -> Result<(), String> {
    let actual_json = serde_json::to_string(actual).map_err(|e| format!("serialize: {e}"))?;
    if std::env::var(UPDATE_GOLDEN_ENV).as_deref() == Ok("1") {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, format!("{actual_json}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "golden fixture {} unreadable ({e}); run the test once with {UPDATE_GOLDEN_ENV}=1 \
             to generate it",
            path.display()
        )
    })?;
    let diffs = diff_json(expected.trim(), &actual_json);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "golden mismatch against {} ({} field(s) changed):\n  {}\nIf the change is \
             intentional, regenerate with {UPDATE_GOLDEN_ENV}=1.",
            path.display(),
            diffs.len(),
            diffs.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_changed_fields() {
        let a = r#"{"x": 1, "nested": {"y": "a", "z": [1, 2]}}"#;
        let b = r#"{"x": 1, "nested": {"y": "b", "z": [1, 3]}}"#;
        let diffs = diff_json(a, b);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("$.nested.y"), "{diffs:?}");
        assert!(diffs[1].contains("$.nested.z[1]"), "{diffs:?}");
    }

    #[test]
    fn diff_reports_missing_extra_and_length() {
        let diffs = diff_json(r#"{"a": 1, "b": 2}"#, r#"{"b": 2, "c": 3}"#);
        assert!(diffs.iter().any(|d| d.contains("$.a: missing")), "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("$.c: unexpected")), "{diffs:?}");
        let diffs = diff_json("[1, 2, 3]", "[1, 2]");
        assert!(diffs.iter().any(|d| d.contains("length changed")), "{diffs:?}");
    }

    #[test]
    fn identical_documents_diff_empty() {
        let doc = r#"{"a": [1, {"b": null}], "c": true}"#;
        assert!(diff_json(doc, doc).is_empty());
    }

    #[test]
    fn golden_run_round_trips_through_json() {
        let run = GoldenRun {
            schema_version: 1,
            scenario: "unit".to_string(),
            seed: 7,
            winner_render: "Hyper: ...".to_string(),
            winner_fingerprint: 0xDEAD_BEEF,
            proxy_label_bits: vec![f32::INFINITY.to_bits() as u64, 0x3F80_0000],
            best_val_mae_bits: 0x3F00_0000,
            counters: BTreeMap::from([("train.epochs".to_string(), 12)]),
            span_counts: BTreeMap::from([("phase.label".to_string(), 1)]),
        };
        let json = serde_json::to_string(&run).unwrap();
        let back: GoldenRun = serde_json::from_str(&json).unwrap();
        assert_eq!(run, back);
    }

    #[test]
    fn fixture_check_reports_missing_fixture() {
        let run = GoldenRun {
            schema_version: 1,
            scenario: "unit".to_string(),
            seed: 0,
            winner_render: String::new(),
            winner_fingerprint: 0,
            proxy_label_bits: vec![],
            best_val_mae_bits: 0,
            counters: BTreeMap::new(),
            span_counts: BTreeMap::new(),
        };
        let err = check_against_fixture(Path::new("/nonexistent/golden/x.json"), &run)
            .expect_err("missing fixture must error");
        assert!(err.contains("UPDATE_GOLDEN=1"), "{err}");
    }
}
