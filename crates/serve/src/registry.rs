//! The model registry: versioned servable checkpoints on disk.
//!
//! Layout: one directory per task under the registry root, one envelope file
//! per published version:
//!
//! ```text
//! <root>/<task>/v00001.ckpt
//! <root>/<task>/v00002.ckpt
//! ```
//!
//! Each file is a checksummed, versioned [`octs_data::persist`] envelope
//! written atomically, so publish-while-serving never exposes a torn
//! checkpoint and every corruption mode maps to a typed [`CoreError`].
//! Publishes commit at the `octs_obs::fault` `registry.publish` site
//! (ordinal = the version being published); loads pass through the
//! `registry.load` site (ordinal = load count), which is where the
//! slow-disk and failed-load scenarios are injected under test.

use crate::model::{ServableCheckpoint, SERVABLE_VERSION};
use crate::ServeError;
use octs_data::persist::{self, CoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The fault-injection site name for checkpoint loads.
pub const LOAD_FAULT_SITE: &str = "registry.load";

/// The fault-injection site name for publishes, keyed by version.
pub const PUBLISH_FAULT_SITE: &str = "registry.publish";

/// A directory of versioned servable checkpoints, one subdirectory per task.
pub struct ModelRegistry {
    root: PathBuf,
    loads: AtomicU64,
    /// Held across version assignment and the write, so concurrent
    /// publishers through one registry get distinct versions.
    publish: Mutex<()>,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let root = root.into();
        persist::create_dir_durable(&root)?;
        Ok(Self { root, loads: AtomicU64::new(0), publish: Mutex::new(()) })
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn task_dir(&self, task: &str) -> PathBuf {
        self.root.join(task)
    }

    fn version_path(&self, task: &str, version: u32) -> PathBuf {
        self.task_dir(task).join(format!("v{version:05}.ckpt"))
    }

    /// Published versions of `task` in ascending order (empty when the task
    /// is unknown). Unparseable filenames are ignored rather than trusted.
    pub fn versions(&self, task: &str) -> Vec<u32> {
        let Ok(entries) = std::fs::read_dir(self.task_dir(task)) else {
            return Vec::new();
        };
        let mut out: Vec<u32> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix('v')?.strip_suffix(".ckpt")?.parse().ok()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The newest published version of `task`, if any.
    pub fn latest(&self, task: &str) -> Option<u32> {
        self.versions(task).last().copied()
    }

    /// Atomically publishes `ckpt` as the next version of its task,
    /// assigning and returning the version number. Readers concurrently
    /// loading see either the previous version set or the new one — never a
    /// partial file. Threads publishing through the same registry are
    /// serialized, so each gets its own version; publishers in separate
    /// processes sharing one root are out of scope.
    pub fn publish(&self, ckpt: &mut ServableCheckpoint) -> Result<u32, CoreError> {
        let _span = octs_obs::span("serve.registry.publish");
        let _publishing = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        let dir = self.task_dir(&ckpt.task);
        persist::create_dir_durable(&dir)?;
        let version = self.latest(&ckpt.task).unwrap_or(0) + 1;
        ckpt.version = version;
        let path = self.version_path(&ckpt.task, version);
        persist::save_json(&path, SERVABLE_VERSION, &*ckpt, PUBLISH_FAULT_SITE, version as u64)?;
        Ok(version)
    }

    /// Loads one published version, validating the envelope (magic, schema
    /// version, length, checksum) before deserializing, and cross-checking
    /// that the payload agrees with the filename it sits under.
    pub fn load(&self, task: &str, version: u32) -> Result<ServableCheckpoint, ServeError> {
        let _span = octs_obs::span("serve.registry.load");
        let op = self.loads.fetch_add(1, Ordering::Relaxed);
        octs_obs::fault::io_delay(LOAD_FAULT_SITE, op);
        let path = self.version_path(task, version);
        if !path.exists() {
            return Err(ServeError::NoSuchVersion { task: task.to_string(), version });
        }
        octs_obs::fault::io_fault(LOAD_FAULT_SITE, op)
            .map_err(|e| CoreError::io(&path, "read", e))?;
        let ckpt: ServableCheckpoint = persist::load_json(&path, SERVABLE_VERSION)?;
        if ckpt.task != task || ckpt.version != version {
            return Err(ServeError::Core(CoreError::corrupt(
                &path,
                format!(
                    "payload claims {}/v{}, file is {task}/v{version}",
                    ckpt.task, ckpt.version
                ),
            )));
        }
        Ok(ckpt)
    }

    /// Loads the newest published version of `task`.
    pub fn load_latest(&self, task: &str) -> Result<ServableCheckpoint, ServeError> {
        let version = self
            .latest(task)
            .ok_or_else(|| ServeError::NoSuchVersion { task: task.to_string(), version: 0 })?;
        self.load(task, version)
    }

    /// [`ModelRegistry::load_latest`] with retry-with-backoff on transient
    /// IO failures (the `io_error` class a flaky disk — or the `octs_obs::fault`
    /// `registry.load` site — produces). Up to `attempts` tries, waiting
    /// `backoff` then doubling between them; any non-IO error (missing
    /// version, corrupt envelope, poisoned payload) fails immediately. This
    /// is the load path a lane's circuit breaker heals through.
    pub fn load_latest_retry(
        &self,
        task: &str,
        attempts: usize,
        mut backoff: std::time::Duration,
    ) -> Result<ServableCheckpoint, ServeError> {
        let mut tries = 0;
        loop {
            tries += 1;
            match self.load_latest(task) {
                Err(ServeError::Core(CoreError::Io { .. })) if tries < attempts.max(1) => {
                    octs_obs::counter("serve.reload_retry", 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
    }
}
