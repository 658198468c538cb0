//! Per-job checkpoint store with corruption fallback.
//!
//! One directory holds every job's durable [`RunCheckpoint`] under a
//! stable name (`bayes-serve-job-<id>.ckpt.json`). Saves go through
//! the mcmc layer's atomic write path (`<name>.tmp` + rename), which
//! also rotates the previous generation to `<name>.prev` — so the
//! store always has up to two generations to fall back across. A
//! lookup validates the newest generation's checksummed header first
//! and silently falls back to the previous one when the newest is
//! torn or corrupt; when both are bad (or absent) the job restarts
//! cleanly from iteration 0 on the *same* RNG streams, preserving
//! bit-identical draws either way.

use bayes_mcmc::checkpoint::{previous_checkpoint_path, RunCheckpoint};
use std::path::{Path, PathBuf};

/// Directory of per-job durable checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Result of a store lookup for one job.
#[derive(Debug)]
pub struct Lookup {
    /// Newest generation that passed validation: the iteration it
    /// captures and the file to resume from.
    pub checkpoint: Option<(usize, PathBuf)>,
    /// Generations that existed but failed validation (torn write,
    /// checksum mismatch, unreadable) and were skipped.
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

    /// Canonical checkpoint path for `job` (the current generation).
    pub fn path_for(&self, job: u64) -> PathBuf {
        self.dir.join(format!("bayes-serve-job-{job}.ckpt.json"))
    }

    /// Finds the newest valid checkpoint generation for `job`, falling
    /// back from current to previous past corrupt files.
    pub fn lookup(&self, job: u64) -> Lookup {
        let current = self.path_for(job);
        let previous = previous_checkpoint_path(&current);
        let mut corrupt_skipped = 0;
        for candidate in [current, previous] {
            if !candidate.exists() {
                continue;
            }
            match RunCheckpoint::load(&candidate) {
                Ok(ckpt) => {
                    return Lookup {
                        checkpoint: Some((ckpt.iter, candidate)),
                        corrupt_skipped,
                    }
                }
                Err(_) => corrupt_skipped += 1,
            }
        }
        Lookup {
            checkpoint: None,
            corrupt_skipped,
        }
    }

    /// Removes every generation (current, previous, temp) for `job`.
    pub fn remove(&self, job: u64) {
        let current = self.path_for(job);
        let mut tmp_name = current.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let _ = std::fs::remove_file(previous_checkpoint_path(&current));
        let _ = std::fs::remove_file(current.with_file_name(tmp_name));
        let _ = std::fs::remove_file(current);
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

    #[test]
    fn lookup_prefers_current_then_previous_then_none() {
        let store = CheckpointStore::new(test_dir("gen")).unwrap();
        assert!(store.lookup(1).checkpoint.is_none());
        let mut ckpt = fixture();
        ckpt.iter = 10;
        ckpt.save(store.path_for(1)).unwrap();
        ckpt.iter = 20;
        ckpt.save(store.path_for(1)).unwrap(); // rotates 10 → .prev
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 0);
        let (iter, path) = found.checkpoint.unwrap();
        assert_eq!(iter, 20);
        assert_eq!(path, store.path_for(1));
        // Corrupt the current generation: fall back to the previous.
        let mut bytes = std::fs::read(store.path_for(1)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(store.path_for(1), &bytes).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 1);
        let (iter, path) = found.checkpoint.unwrap();
        assert_eq!(iter, 10);
        assert_eq!(path, previous_checkpoint_path(store.path_for(1)));
        // Corrupt both: clean restart (no checkpoint, 2 skipped).
        std::fs::write(&path, b"garbage").unwrap();
        let found = store.lookup(1);
        assert!(found.checkpoint.is_none());
        assert_eq!(found.corrupt_skipped, 2);
        store.remove(1);
        assert!(!store.path_for(1).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A generation written by a version-1 build (decimal JSON behind a
    /// `BAYESCKPT 1` header, checksum intact) is skipped like a corrupt
    /// one: the job resumes from a version-2 generation beside it, or
    /// restarts from iteration 0 when there is none.
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
        let current = store.path_for(1);
        std::fs::write(&current, &v1).unwrap();
        let found = store.lookup(1);
        assert!(found.checkpoint.is_none());
        assert_eq!(found.corrupt_skipped, 1);
        let mut ckpt = fixture();
        ckpt.iter = 10;
        std::fs::write(previous_checkpoint_path(&current), ckpt.to_durable_bytes()).unwrap();
        let found = store.lookup(1);
        assert_eq!(found.corrupt_skipped, 1);
        assert_eq!(found.checkpoint.unwrap().0, 10);
        store.remove(1);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
