//! Checkpointing: persist a pre-trained comparator + task encoder so the
//! expensive pre-training (Algorithm 1) runs once and zero-shot searches
//! reuse it across processes — the deployment mode the paper targets.
//!
//! Checkpoints are versioned, checksummed [`crate::persist`] envelopes
//! written atomically: a reader never sees a torn file, and a corrupt or
//! truncated checkpoint is rejected with a descriptive [`CoreError`] instead
//! of deserializing garbage weights.

use crate::facade::{AutoCts, AutoCtsConfig};
use crate::persist::{self, CoreError};
use octs_tensor::ParamStore;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Schema version of [`Checkpoint`] envelopes. Version 1 was the bare
/// (headerless) JSON format, which this build refuses.
pub const CHECKPOINT_VERSION: u32 = 2;

/// On-disk representation of a pre-trained [`AutoCts`].
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    /// The full configuration (space, comparator, encoder).
    pub cfg: AutoCtsConfig,
    /// Comparator parameters (GIN + pooling + FC stack).
    pub tahc_params: ParamStore,
    /// Task-encoder parameters.
    pub encoder_params: ParamStore,
    /// Whether the system was pre-trained when saved.
    pub pretrained: bool,
}

impl AutoCts {
    /// Atomically serializes the system to a checksummed envelope at `path`
    /// (fault site `("checkpoint.save", 0)`). A crash mid-save leaves the
    /// previous checkpoint (or nothing) — never a torn file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let ckpt = Checkpoint {
            cfg: self.cfg.clone(),
            tahc_params: self.tahc.ps.snapshot(),
            encoder_params: self.embedder.encoder().ps.snapshot(),
            pretrained: self.is_pretrained(),
        };
        persist::save_json(path.as_ref(), CHECKPOINT_VERSION, &ckpt, "checkpoint.save", 0)
    }

    /// Restores a system from a checkpoint, validating the envelope's magic,
    /// schema version, length and checksum before touching the payload.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let ckpt: Checkpoint = persist::load_json(path.as_ref(), CHECKPOINT_VERSION)?;
        let mut sys = AutoCts::new(ckpt.cfg);
        sys.tahc.ps = ckpt.tahc_params;
        // The store was swapped out from under the comparator: any memoized
        // inference tensors would be stale.
        sys.tahc.invalidate_caches();
        sys.embedder.encoder_mut().ps = ckpt.encoder_params;
        if ckpt.pretrained {
            sys.embedder.encoder_mut().mark_trained();
            sys.mark_pretrained();
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octs_data::{DatasetProfile, Domain, ForecastSetting, ForecastTask};

    fn load_err(path: &std::path::Path) -> CoreError {
        match AutoCts::load(path) {
            Err(e) => e,
            Ok(_) => panic!("expected load to fail for {}", path.display()),
        }
    }

    fn pretrained_fixture() -> (AutoCts, ForecastTask) {
        let mut sys = AutoCts::new(AutoCtsConfig::test());
        let p = DatasetProfile::custom("ck", Domain::Traffic, 3, 180, 24, 0.3, 0.1, 10.0, 70);
        let task = ForecastTask::new(p.generate(0), ForecastSetting::multi(4, 2), 0.6, 0.2, 2);
        sys.pretrain(vec![task.clone()], &octs_comparator::PretrainConfig::test());
        (sys, task)
    }

    #[test]
    fn save_load_roundtrip_preserves_behaviour() {
        let (mut sys, task) = pretrained_fixture();
        let dir = std::env::temp_dir().join("autocts_ckpt_test.json");
        sys.save(&dir).unwrap();
        let mut restored = AutoCts::load(&dir).unwrap();
        assert!(restored.is_pretrained());

        // Identical comparator decisions after restore.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a = sys.cfg.space.sample(&mut rng);
        let b = sys.cfg.space.sample(&mut rng);
        let prelim = sys.embedder.preliminary(&task);
        let prelim2 = restored.embedder.preliminary(&task);
        assert_eq!(prelim, prelim2, "restored encoder must embed identically");
        assert_eq!(
            sys.tahc.compare(Some(&prelim), &a, &b),
            restored.tahc.compare(Some(&prelim2), &a, &b)
        );
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_checkpoints_are_rejected() {
        let (sys, _) = pretrained_fixture();
        let path = std::env::temp_dir().join("autocts_ckpt_corrupt.json");
        sys.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // truncation: torn write never produced by save itself, but possible
        // through external copy/filesystem damage
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_err(&path);
        assert!(matches!(err, CoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("corrupt"), "{err}");

        // a single flipped payload byte fails the checksum
        let mut flipped = full.clone();
        let n = flipped.len();
        flipped[n - 2] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(load_err(&path), CoreError::Corrupt { .. }));

        // legacy/foreign version numbers are named, not mangled
        let text = String::from_utf8(full).unwrap();
        let old = text.replacen("\"version\":2", "\"version\":1", 1);
        std::fs::write(&path, old).unwrap();
        match load_err(&path) {
            CoreError::Version { found: 1, expected: CHECKPOINT_VERSION, .. } => {}
            other => panic!("want Version error, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_over_existing_checkpoint() {
        let (sys, _) = pretrained_fixture();
        let path = std::env::temp_dir().join("autocts_ckpt_atomic.json");
        sys.save(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        sys.save(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "re-saving an unchanged system is byte-stable");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists(), "no temp residue");
        std::fs::remove_file(&path).ok();
    }
}
