//! Durable write-ahead log of job lifecycle transitions.
//!
//! Every state change the scheduler commits — submission, placement,
//! checkpoint, preemption, restart, recovery, and each terminal
//! outcome — is appended to the journal *before* the corresponding
//! trace event is emitted, so after a crash the journal is never
//! behind what clients observed. [`crate::JobServer::recover`] replays
//! the log to rebuild the exact pre-crash queue.
//!
//! ## Record framing
//!
//! One record per line:
//!
//! ```text
//! <len:08x> <fnv1a64:016x> <payload>\n
//! ```
//!
//! where `len` is the payload byte count and the checksum is
//! [`bayes_obs::fnv1a64`] over the payload (a single-line JSON object,
//! [`JournalRecord`] declared through [`bayes_obs::record!`]). The
//! fixed-width hex prefix makes the frame self-describing without
//! binary encoding, and the checksum + trailing newline detect torn
//! tails: [`Journal::open`] replays the longest valid prefix and
//! truncates the rest, so a record is either fully applied or never
//! happened — nothing committed before the last complete append is
//! ever lost.
//!
//! Appends reach the OS page cache via `write_all`, which survives a
//! killed *process* (the recovery model here); surviving power loss
//! would additionally need an `fsync` per append, a durability/latency
//! trade the serving layer deliberately does not make.

use crate::job::{check_scale, JobSpec, SamplerKind};
use bayes_mcmc::ConvergenceDetector;
use bayes_obs::schema;
use bayes_obs::{fnv1a64, span, Phase};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Bytes in the fixed frame prefix: 8 hex (length) + space + 16 hex
/// (checksum) + space.
const FRAME_PREFIX: usize = 8 + 1 + 16 + 1;

bayes_obs::record! {
    /// The serializable identity of a [`JobSpec`] — everything needed to
    /// re-admit the job after a crash with bit-identical draws.
    ///
    /// The one field deliberately *not* captured is the fault injector:
    /// closures do not serialize, and replaying injected faults against a
    /// recovered run would double-apply them. A recovered job runs clean.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpecRecord = "spec" {
        /// Client-supplied label.
        pub name: String,
        /// Registry workload name.
        pub workload: String,
        /// Data scale.
        pub scale: f64,
        /// Chains to run.
        pub chains: u64,
        /// Iterations per chain.
        pub iters: u64,
        /// Base RNG seed.
        pub seed: u64,
        /// Scheduling priority.
        pub priority: u64,
        /// Sampler tag: `"nuts"` or `"mh"`.
        pub sampler: String,
        /// Convergence detector threshold.
        pub threshold: f64,
        /// Detector check cadence.
        pub check_every: u64,
        /// Detector warm-up floor.
        pub min_iters: u64,
        /// Consecutive passes the detector requires.
        pub consecutive: u64,
        /// Explicit chain quorum, if any.
        pub min_quorum: Option<u64>,
        /// Wall-clock deadline in milliseconds, if any.
        pub deadline_ms: Option<u64>,
        /// Restart budget.
        pub restarts: u64,
        /// Base restart backoff in milliseconds.
        pub backoff_ms: u64,
    }
}

impl SpecRecord {
    /// Captures the serializable fields of `spec`.
    pub fn of(spec: &JobSpec) -> Self {
        Self {
            name: spec.name.clone(),
            workload: spec.workload.clone(),
            scale: spec.scale,
            chains: spec.chains as u64,
            iters: spec.iters as u64,
            seed: spec.seed,
            priority: u64::from(spec.priority),
            sampler: match spec.sampler {
                SamplerKind::Nuts => "nuts".into(),
                SamplerKind::Mh => "mh".into(),
            },
            threshold: spec.detector.threshold(),
            check_every: spec.detector.check_every() as u64,
            min_iters: spec.detector.min_iters() as u64,
            consecutive: spec.detector.consecutive() as u64,
            min_quorum: spec.min_quorum.map(|q| q as u64),
            deadline_ms: spec.deadline.map(|d| d.as_millis() as u64),
            restarts: u64::from(spec.restarts),
            backoff_ms: spec.backoff.as_millis() as u64,
        }
    }

    /// Rebuilds a [`JobSpec`] (without any fault injector).
    ///
    /// # Errors
    ///
    /// A record no [`JobSpec`] could have produced — an unknown
    /// sampler tag, a scale outside [`JobSpec::scale`]'s range, or
    /// detector settings its builder refuses (a threshold that is not a
    /// finite number above 1, a zero cadence or streak, fewer than 4
    /// warm-up iterations) — is described, not rebuilt: a write-ahead
    /// log is read back after a crash, and one bad record must not take
    /// the other jobs down with it.
    pub fn to_spec(&self) -> Result<JobSpec, String> {
        let sampler = match self.sampler.as_str() {
            "nuts" => SamplerKind::Nuts,
            "mh" => SamplerKind::Mh,
            other => return Err(format!("unknown sampler '{other}'")),
        };
        check_scale(self.scale)?;
        if !(self.threshold.is_finite() && self.threshold > 1.0) {
            return Err(format!(
                "R-hat threshold {} is not a finite number above 1",
                self.threshold
            ));
        }
        if self.check_every == 0 || self.consecutive == 0 || self.min_iters < 4 {
            return Err(format!(
                "detector cadence {}, streak {} and warm-up {} are not all valid",
                self.check_every, self.consecutive, self.min_iters
            ));
        }
        let mut spec = JobSpec::new(self.name.clone(), self.workload.clone())
            .with_scale(self.scale)
            .with_chains(self.chains as usize)
            .with_iters(self.iters as usize)
            .with_seed(self.seed)
            .with_priority(self.priority.min(u64::from(u8::MAX)) as u8)
            .with_sampler(sampler)
            .with_detector(
                ConvergenceDetector::new()
                    .with_threshold(self.threshold)
                    .with_check_every(self.check_every as usize)
                    .with_min_iters(self.min_iters as usize)
                    .with_consecutive(self.consecutive as usize),
            )
            .with_restarts(self.restarts.min(u64::from(u32::MAX)) as u32)
            .with_backoff(Duration::from_millis(self.backoff_ms));
        if let Some(q) = self.min_quorum {
            spec = spec.with_min_quorum(q as usize);
        }
        if let Some(ms) = self.deadline_ms {
            spec = spec.with_deadline(Duration::from_millis(ms));
        }
        Ok(spec)
    }
}

bayes_obs::record! {
    /// One journaled lifecycle transition.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalRecord {
        /// The job passed admission; `spec` is its full identity.
        Submitted = "submitted" {
            /// Server-assigned job id.
            job: u64,
            /// Serializable spec (injector excluded).
            spec: SpecRecord,
        },
        /// The job started (or resumed) on a core grant.
        Placed = "placed" {
            /// Job id.
            job: u64,
            /// Cores granted.
            cores: u64,
        },
        /// A run checkpoint was persisted at `iter`.
        Checkpointed = "checkpointed" {
            /// Job id.
            job: u64,
            /// Boundary the checkpoint captures.
            iter: u64,
        },
        /// The job was paused bit-exactly at `at` and re-queued.
        Preempted = "preempted" {
            /// Job id.
            job: u64,
            /// Committed pause boundary.
            at: u64,
        },
        /// A failed run consumed one unit of restart budget.
        Restarted = "restarted" {
            /// Job id.
            job: u64,
            /// Restarts consumed so far.
            attempt: u64,
        },
        /// The job was re-admitted by crash recovery.
        Recovered = "recovered" {
            /// Job id.
            job: u64,
            /// Checkpoint iteration it resumes from (`None` = clean
            /// restart of the same RNG streams).
            resumed_from: Option<u64>,
        },
        /// Terminal: finished.
        Completed = "completed" {
            /// Job id.
            job: u64,
        },
        /// Terminal: failed with no budget left.
        Failed = "failed" {
            /// Job id.
            job: u64,
        },
        /// Terminal: deadline passed.
        Expired = "expired" {
            /// Job id.
            job: u64,
        },
        /// Terminal: dropped from the pending queue under overload.
        Shed = "shed" {
            /// Job id.
            job: u64,
        },
    }
}

impl JournalRecord {
    /// The record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        schema::to_line(self)
    }

    /// Parses a record from its JSON payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown record type, or a missing or mistyped
    /// field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        schema::from_line(text)
    }

    /// The job id the record concerns.
    pub fn job(&self) -> u64 {
        match self {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::Placed { job, .. }
            | JournalRecord::Checkpointed { job, .. }
            | JournalRecord::Preempted { job, .. }
            | JournalRecord::Restarted { job, .. }
            | JournalRecord::Recovered { job, .. }
            | JournalRecord::Completed { job }
            | JournalRecord::Failed { job }
            | JournalRecord::Expired { job }
            | JournalRecord::Shed { job } => *job,
        }
    }
}

/// Frames one record: `<len:08x> <fnv:016x> <payload>\n`.
pub fn frame(record: &JournalRecord) -> Vec<u8> {
    let payload = record.to_json();
    let bytes = payload.as_bytes();
    format!("{:08x} {:016x} {payload}\n", bytes.len(), fnv1a64(bytes)).into_bytes()
}

/// Splits `bytes` into the decoded records of its longest valid prefix
/// plus the byte length of that prefix. Everything after the prefix is
/// a torn or corrupt tail.
pub fn scan(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_PREFIX {
            break;
        }
        if rest[8] != b' ' || rest[25] != b' ' {
            break;
        }
        let (Ok(len_hex), Ok(sum_hex)) = (
            std::str::from_utf8(&rest[0..8]),
            std::str::from_utf8(&rest[9..25]),
        ) else {
            break;
        };
        let (Ok(len), Ok(sum)) = (
            usize::from_str_radix(len_hex, 16),
            u64::from_str_radix(sum_hex, 16),
        ) else {
            break;
        };
        let total = FRAME_PREFIX + len + 1;
        if rest.len() < total || rest[FRAME_PREFIX + len] != b'\n' {
            break;
        }
        let payload = &rest[FRAME_PREFIX..FRAME_PREFIX + len];
        if fnv1a64(payload) != sum {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = JournalRecord::from_json(text) else {
            break;
        };
        records.push(record);
        pos += total;
    }
    (records, pos)
}

/// What [`Journal::open`] found on disk.
#[derive(Debug)]
pub struct Replay {
    /// Every record of the longest valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn/corrupt tail truncated away (0 = clean log).
    pub truncated_bytes: u64,
}

/// A fault to inject at one journal append (chaos tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The process dies before any byte of the record lands; the
    /// journal wedges (all later appends are silently dropped, as a
    /// dead process would drop them).
    CrashBeforeAppend,
    /// Only a prefix of the framed record lands, then the process
    /// dies — the canonical torn write.
    TornWrite,
    /// The record lands fully, then the process dies.
    CrashAfterAppend,
    /// The write fails with a disk-full error; the journal stays
    /// usable (append errors are surfaced, not wedging).
    DiskFull,
}

/// Deterministic per-append fault source for the journal.
///
/// `append_index` counts appends attempted through this `Journal`
/// instance, starting at 0; replayed records do not count.
pub trait WalFaultInjector: Send + Sync {
    /// The fault to inject at `append_index`, if any.
    fn fault_at(&self, append_index: u64) -> Option<WalFault>;
}

/// The write-ahead log. One writer (the scheduler thread); appends are
/// length-prefixed, checksummed, and newline-terminated.
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    appends: u64,
    wedged: bool,
    injector: Option<Arc<dyn WalFaultInjector>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appends", &self.appends)
            .field("wedged", &self.wedged)
            .field("injector", &self.injector.is_some())
            .finish()
    }
}

impl Journal {
    /// Creates (or truncates) the journal at `path` — a *new* server
    /// incarnation starts from an empty log so job ids never collide
    /// with a previous run's records. Use [`Journal::open`] to
    /// preserve and replay an existing log.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            path,
            file,
            appends: 0,
            wedged: false,
            injector: None,
        })
    }

    /// Opens the journal at `path`, replaying its longest valid prefix
    /// and truncating any torn tail. A missing file opens as an empty
    /// log.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Self, Replay)> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan(&bytes);
        let truncated_bytes = (bytes.len() - valid_len) as u64;
        if truncated_bytes > 0 {
            file.set_len(valid_len as u64)?;
        }
        file.seek(std::io::SeekFrom::Start(valid_len as u64))?;
        Ok((
            Self {
                path,
                file,
                appends: 0,
                wedged: false,
                injector: None,
            },
            Replay {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Attaches a deterministic fault injector (chaos tests).
    pub fn with_injector(mut self, injector: Arc<dyn WalFaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether an injected crash wedged the journal (appends are now
    /// silently dropped, as by a dead process).
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Appends one record. Counted under [`Phase::Serialize`] so the
    /// span profile exposes journal overhead alongside checkpoint
    /// serialization.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        let _g = span(Phase::Serialize);
        if self.wedged {
            return Ok(());
        }
        let index = self.appends;
        self.appends += 1;
        let bytes = frame(record);
        match self.injector.as_ref().and_then(|i| i.fault_at(index)) {
            Some(WalFault::CrashBeforeAppend) => {
                self.wedged = true;
                Ok(())
            }
            Some(WalFault::TornWrite) => {
                // Land a strict prefix — at least the frame header, so
                // the tail is unambiguously torn rather than absent.
                let cut = (bytes.len() / 2).max(FRAME_PREFIX.min(bytes.len() - 1));
                self.file.write_all(&bytes[..cut])?;
                self.file.flush()?;
                self.wedged = true;
                Ok(())
            }
            Some(WalFault::CrashAfterAppend) => {
                self.file.write_all(&bytes)?;
                self.file.flush()?;
                self.wedged = true;
                Ok(())
            }
            Some(WalFault::DiskFull) => Err(std::io::Error::other("injected disk-full")),
            None => self.file.write_all(&bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        let spec = SpecRecord::of(
            &JobSpec::new("demo", "12cities")
                .with_scale(0.5)
                .with_chains(3)
                .with_iters(120)
                .with_seed(9007199254740993) // > 2^53: must survive JSON
                .with_priority(4)
                .with_min_quorum(2)
                .with_deadline(Duration::from_millis(750))
                .with_restarts(2)
                .with_backoff(Duration::from_millis(25)),
        );
        vec![
            JournalRecord::Submitted { job: 1, spec },
            JournalRecord::Placed { job: 1, cores: 4 },
            JournalRecord::Checkpointed { job: 1, iter: 40 },
            JournalRecord::Preempted { job: 1, at: 40 },
            JournalRecord::Restarted { job: 1, attempt: 1 },
            JournalRecord::Recovered {
                job: 1,
                resumed_from: Some(40),
            },
            JournalRecord::Recovered {
                job: 2,
                resumed_from: None,
            },
            JournalRecord::Completed { job: 1 },
            JournalRecord::Failed { job: 2 },
            JournalRecord::Expired { job: 3 },
            JournalRecord::Shed { job: 4 },
        ]
    }

    #[test]
    fn records_round_trip_through_json() {
        for record in sample_records() {
            let back = JournalRecord::from_json(&record.to_json()).expect("decode");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn spec_record_rebuilds_an_equivalent_spec() {
        let original = JobSpec::new("demo", "12cities")
            .with_scale(0.5)
            .with_chains(3)
            .with_seed(7)
            .with_deadline(Duration::from_millis(750))
            .with_restarts(2);
        let rebuilt = SpecRecord::of(&original).to_spec().expect("a valid spec");
        assert_eq!(SpecRecord::of(&rebuilt), SpecRecord::of(&original));
        assert!(rebuilt.injector.is_none());
    }

    /// An infinite threshold is journaled as `null`; the record reads
    /// back, as NaN, and the records after it replay too.
    #[test]
    fn a_null_threshold_does_not_cut_the_log() {
        let mut spec = sample_records().remove(0);
        if let JournalRecord::Submitted { spec, .. } = &mut spec {
            spec.threshold = f64::INFINITY;
        }
        let records = [
            JournalRecord::Placed { job: 1, cores: 2 },
            spec,
            JournalRecord::Completed { job: 2 },
            JournalRecord::Shed { job: 3 },
        ];
        let bytes: Vec<u8> = records.iter().flat_map(frame).collect();
        assert!(String::from_utf8_lossy(&bytes).contains("\"threshold\":null"));
        let (replayed, len) = scan(&bytes);
        assert_eq!((replayed.len(), len), (4, bytes.len()));
        let JournalRecord::Submitted { spec, .. } = &replayed[1] else {
            panic!("{:?}", replayed[1]);
        };
        assert!(spec.threshold.is_nan());
        assert!(spec.to_spec().unwrap_err().contains("threshold"));
    }

    #[test]
    fn to_spec_refuses_what_the_builders_refuse() {
        let JournalRecord::Submitted { spec: good, .. } = sample_records().remove(0) else {
            unreachable!()
        };
        assert!(good.to_spec().is_ok());
        type Spoil = fn(&mut SpecRecord);
        let cases: [(Spoil, &str); 11] = [
            (|s| s.scale = f64::NAN, "scale"),
            (|s| s.scale = 0.0, "scale"),
            (|s| s.scale = -1.0, "scale"),
            (|s| s.scale = f64::INFINITY, "scale"),
            (|s| s.scale = 2.0, "scale"),
            (|s| s.threshold = 1.0, "threshold"),
            (|s| s.threshold = f64::NAN, "threshold"),
            (|s| s.check_every = 0, "cadence"),
            (|s| s.min_iters = 3, "warm-up"),
            (|s| s.consecutive = 0, "streak"),
            (|s| s.sampler = "hmc".into(), "unknown sampler 'hmc'"),
        ];
        for (spoil, expected) in cases {
            let mut spec = good.clone();
            spoil(&mut spec);
            let err = spec.to_spec().unwrap_err();
            assert!(err.contains(expected), "{err}");
        }
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&frame(r));
        }
        let clean_len = bytes.len();
        // Clean log: everything replays.
        let (replayed, len) = scan(&bytes);
        assert_eq!(replayed, records);
        assert_eq!(len, clean_len);
        // Torn tail: a partial extra record replays to the clean prefix.
        let extra = frame(&JournalRecord::Completed { job: 9 });
        let mut torn = bytes.clone();
        torn.extend_from_slice(&extra[..extra.len() - 3]);
        let (replayed, len) = scan(&torn);
        assert_eq!(replayed, records);
        assert_eq!(len, clean_len);
        // Corrupt byte mid-log: replay stops before the flipped record.
        let mut corrupt = bytes.clone();
        let hit = clean_len / 2;
        corrupt[hit] ^= 0x40;
        let (replayed, len) = scan(&corrupt);
        assert!(replayed.len() < records.len());
        assert!(len <= hit);
        assert_eq!(scan(&bytes[..len]).0, replayed);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_continue() {
        let dir = std::env::temp_dir().join(format!("bayes-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut journal = Journal::create(&path).unwrap();
        let records = sample_records();
        for r in &records {
            journal.append(r).unwrap();
        }
        drop(journal);
        // Tear the tail by hand.
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() - 5;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();
        let (mut journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, records[..records.len() - 1]);
        assert!(replay.truncated_bytes > 0);
        // The log is writable again right where the valid prefix ends.
        journal.append(&JournalRecord::Shed { job: 77 }).unwrap();
        drop(journal);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(
            replay.records.last(),
            Some(&JournalRecord::Shed { job: 77 })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct OneShot(u64, WalFault);
    impl WalFaultInjector for OneShot {
        fn fault_at(&self, index: u64) -> Option<WalFault> {
            (index == self.0).then_some(self.1)
        }
    }

    #[test]
    fn injected_faults_wedge_or_error() {
        let dir = std::env::temp_dir().join(format!("bayes-journal-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, fault, survivors) in [
            ("before", WalFault::CrashBeforeAppend, 1),
            ("torn", WalFault::TornWrite, 1),
            ("after", WalFault::CrashAfterAppend, 2),
        ] {
            let path = dir.join(format!("wal-{name}.log"));
            let mut journal = Journal::create(&path)
                .unwrap()
                .with_injector(Arc::new(OneShot(1, fault)));
            journal
                .append(&JournalRecord::Completed { job: 1 })
                .unwrap();
            journal
                .append(&JournalRecord::Completed { job: 2 })
                .unwrap();
            assert!(journal.wedged());
            // A wedged journal drops appends, like a dead process.
            journal
                .append(&JournalRecord::Completed { job: 3 })
                .unwrap();
            drop(journal);
            let (_, replay) = Journal::open(&path).unwrap();
            assert_eq!(replay.records.len(), survivors, "fault {name}");
            assert!(replay
                .records
                .iter()
                .all(|r| !matches!(r, JournalRecord::Completed { job: 3 })));
        }
        let path = dir.join("wal-full.log");
        let mut journal = Journal::create(&path)
            .unwrap()
            .with_injector(Arc::new(OneShot(0, WalFault::DiskFull)));
        assert!(journal
            .append(&JournalRecord::Completed { job: 1 })
            .is_err());
        assert!(!journal.wedged());
        journal
            .append(&JournalRecord::Completed { job: 2 })
            .unwrap();
        drop(journal);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec![JournalRecord::Completed { job: 2 }]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
