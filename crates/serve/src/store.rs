//! Per-job checkpoint store with corruption fallback.
//!
//! One directory holds every job's durable checkpoint log under a
//! stable name (`bayes-serve-job-<id>.ckpt.json`). A placement appends
//! one checksummed frame to the log at each checkpoint boundary
//! (`bayes_mcmc::checkpoint`), so the log's earlier frames are what a
//! lookup falls back across. A lookup walks the frames and takes the
//! last one that verifies; a torn or corrupt frame ends the walk and
//! is counted as a skipped generation. When no frame verifies (or
//! there is no log) the job restarts cleanly from iteration 0 on the
//! *same* RNG streams, preserving bit-identical draws either way.

use bayes_mcmc::checkpoint::RunCheckpoint;
use std::path::{Path, PathBuf};

/// Directory of per-job durable checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Result of a store lookup for one job.
#[derive(Debug)]
pub struct Lookup {
    /// Newest boundary that passed validation: the iteration it
    /// captures and the log to resume from.
    pub checkpoint: Option<(usize, PathBuf)>,
    /// Generations that existed but failed validation (a torn or
    /// corrupt frame, or an unreadable log) and were skipped.
    pub corrupt_skipped: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical checkpoint log path for `job`.
    pub fn path_for(&self, job: u64) -> PathBuf {
        self.dir.join(format!("bayes-serve-job-{job}.ckpt.json"))
    }

    /// Finds the newest valid checkpoint boundary in `job`'s log: the
    /// last frame that verifies. A torn or corrupt frame after it, or a
    /// log in which no frame verifies, counts as one skipped
    /// generation.
    pub fn lookup(&self, job: u64) -> Lookup {
        let path = self.path_for(job);
        if !path.exists() {
            return Lookup {
                checkpoint: None,
                corrupt_skipped: 0,
            };
        }
        match RunCheckpoint::load_log(&path) {
            Ok(log) => Lookup {
                checkpoint: Some((log.checkpoint.iter, path)),
                corrupt_skipped: u64::from(log.skipped_len > 0),
            },
            Err(_) => Lookup {
                checkpoint: None,
                corrupt_skipped: 1,
            },
        }
    }

    /// Removes `job`'s checkpoint log.
    pub fn remove(&self, job: u64) {
        let _ = std::fs::remove_file(self.path_for(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_mcmc::checkpoint::{DetectorFingerprint, CHECKPOINT_VERSION};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bayes-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Minimal structurally-valid checkpoint; chain payloads are not
    /// needed to exercise generation fallback.
    fn fixture() -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            model: "gauss".into(),
            dim: 2,
            seed: 42,
            chains: 0,
            iters: 100,
            warmup: 50,
            detector: DetectorFingerprint {
                threshold: 1.01,
                check_every: 20,
                min_iters: 20,
                consecutive: 1,
            },
            iter: 0,
            chain_states: Vec::new(),
        }
    }

    /// `fixture()` at each of `iters`, one frame per boundary: a log.
    fn log_at(iters: &[usize]) -> Vec<u8> {
        let mut log = Vec::new();
        for &iter in iters {
            let mut ckpt = fixture();
            ckpt.iter = iter;
            log.extend_from_slice(&ckpt.to_durable_bytes());
        }
        log
    }

    /// The newest frame wins; a corrupt newest frame falls back to the
    /// one before it; with no valid frame the job restarts.
    #[test]
    fn lookup_prefers_current_then_previous_then_none() {
        let store = CheckpointStore::new(test_dir("gen")).unwrap();
        assert!(store.lookup(1).checkpoint.is_none());
        let log = log_at(&[10, 20]);
        let first = log_at(&[10]).len();
        std::fs::write(store.path_for(1), &log).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 0);
        let (iter, path) = found.checkpoint.unwrap();
        assert_eq!(iter, 20);
        assert_eq!(path, store.path_for(1));
        // Corrupt the newest frame: fall back to the previous one.
        let mut bytes = log.clone();
        bytes[first + (log.len() - first) / 2] ^= 0x01;
        std::fs::write(store.path_for(1), &bytes).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 1);
        assert_eq!(found.checkpoint.unwrap(), (10, store.path_for(1)));
        // A torn newest frame falls back the same way.
        std::fs::write(store.path_for(1), &log[..log.len() - 3]).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 1);
        assert_eq!(found.checkpoint.unwrap().0, 10);
        // Corrupt the first frame too: clean restart.
        bytes[first / 2] ^= 0x01;
        std::fs::write(store.path_for(1), &bytes).unwrap();
        let found = store.lookup(1);
        assert!(found.checkpoint.is_none());
        assert_eq!(found.corrupt_skipped, 1);
        store.remove(1);
        assert!(!store.path_for(1).exists());
        assert_eq!(std::fs::read_dir(store.dir()).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A log written by a version-1 build (decimal JSON behind a
    /// `BAYESCKPT 1` header, checksum intact) is skipped like a corrupt
    /// one: the job restarts from iteration 0.
    #[test]
    fn version_one_generations_are_skipped_like_corrupt_ones() {
        let store = CheckpointStore::new(test_dir("v1")).unwrap();
        let json = "{\"version\":1,\"model\":\"gauss\",\"dim\":2,\"seed\":42,\"chains\":0,\
                    \"iters\":100,\"warmup\":50,\"detector\":{\"threshold\":1.01,\
                    \"check_every\":20,\"min_iters\":20,\"consecutive\":1},\"iter\":20,\
                    \"chain_states\":[]}";
        let v1 = format!(
            "BAYESCKPT 1 {} {:016x}\n{json}",
            json.len(),
            bayes_obs::fnv1a64(json.as_bytes())
        );
        std::fs::write(store.path_for(1), &v1).unwrap();
        let found = store.lookup(1);
        assert!(found.checkpoint.is_none());
        assert_eq!(found.corrupt_skipped, 1);
        std::fs::write(store.path_for(1), log_at(&[10])).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 0);
        assert_eq!(found.checkpoint.unwrap().0, 10);
        store.remove(1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A version-2 file (one document, header and blocks intact) is
    /// skipped like a corrupt one, with the frames of a version-3 log
    /// behind it: no frame is read past the first that fails.
    #[test]
    fn version_two_files_are_skipped_like_corrupt_ones() {
        let store = CheckpointStore::new(test_dir("v2")).unwrap();
        let v3 = log_at(&[10]);
        let payload = &v3[v3.iter().position(|&b| b == b'\n').unwrap() + 1..];
        let payload = String::from_utf8(payload.to_vec())
            .unwrap()
            .replace("\"version\":3", "\"version\":2");
        let mut v2 = format!(
            "BAYESCKPT 2 {:020} {:016x}\n{payload}",
            payload.len(),
            bayes_obs::fnv1a64(payload.as_bytes())
        )
        .into_bytes();
        std::fs::write(store.path_for(1), &v2).unwrap();
        let found = store.lookup(1);
        assert!(found.checkpoint.is_none());
        assert_eq!(found.corrupt_skipped, 1);
        v2.extend_from_slice(&log_at(&[20]));
        std::fs::write(store.path_for(1), &v2).unwrap();
        assert!(store.lookup(1).checkpoint.is_none());
        store.remove(1);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
