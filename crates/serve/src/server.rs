//! The job server: submission queue, admission, placement, preemption,
//! and crash-safe durability.
//!
//! One scheduler thread owns all state and is the only writer of
//! `job_*` lifecycle events, so every trace and client stream observes
//! transitions in a single consistent order. It blocks until a message
//! or the earliest deadline it owns; nothing polls. Each placement runs on
//! its own worker thread under the fault-tolerant supervisor
//! ([`bayes_mcmc::supervisor::Runtime`]); workers report back over a
//! channel and never touch scheduler state.
//!
//! Placement policy (see DESIGN.md for the rationale):
//!
//! 1. Admission: a job whose modeled working set alone exceeds the
//!    server's LLC budget is rejected outright, as are unknown
//!    workloads and zero-shape runs.
//! 2. Fit: a pending job (scanned in priority-then-FIFO order) is
//!    placed when at least one core is free, the sum of resident
//!    working sets stays within the LLC budget, and — when the
//!    predictor classifies it LLC-bound — no other LLC-bound job is
//!    resident (two streaming jobs thrash the shared cache).
//! 3. Grant: an LLC-bound job gets at most one core per chain (extra
//!    inner threads would only stall on memory); a cache-resident job
//!    gets up to two per chain. The grant flows into
//!    [`bayes_mcmc::RunConfig::with_core_allotment`], which derives
//!    per-chain inner threads without oversubscribing the slice — a
//!    cap the model uses only if its gradient is long enough to repay
//!    a pool dispatch ([`bayes_mcmc::POOL_CROSSOVER_NODES`]).
//! 4. Preemption: when the highest-priority pending job cannot fit,
//!    the newest lowest-priority running job below that priority is
//!    paused bit-exactly at its next checkpoint boundary and re-queued;
//!    its next placement resumes from the checkpoint with identical
//!    draws.
//!
//! Durability (DESIGN.md § "Durability & recovery"): with a journal
//! configured ([`ServerConfig::with_journal`]), every lifecycle
//! transition is appended to a checksummed write-ahead log *before*
//! its trace event is emitted, and every checkpoint is one frame
//! appended to the job's log in the [`CheckpointStore`]. A
//! SIGKILL'd (or [`JobServer::kill`]ed) server restarts through
//! [`JobServer::recover`], which replays the journal, re-queues every
//! job that had no terminal record, and resumes each from its newest
//! valid checkpoint — draws come out bit-identical to an uninterrupted
//! run because resuming restores the exact segmented RNG streams.
//!
//! Job-level robustness policy:
//!
//! * a per-job wall-clock deadline ([`JobSpec::with_deadline`]) expires
//!   pending jobs at the queue and interrupts running placements
//!   cooperatively through the supervisor's deadline, terminating with
//!   [`JobUpdate::Expired`];
//! * a restart budget ([`JobSpec::with_restarts`]) re-queues a failed
//!   job under capped exponential backoff before it is declared failed;
//! * admission-side load shedding ([`ServerConfig::with_queue_limit`],
//!   [`ServerConfig::with_shed_watermark`]) bounds the pending queue
//!   and the summed predicted working set, shedding the lowest-priority
//!   pending job — or the newcomer itself when nothing cheaper is
//!   queued — with [`JobUpdate::Shed`].

use crate::job::{check_scale, JobHandle, JobResult, JobSpec, JobUpdate, SamplerKind};
use crate::journal::{Journal, JournalRecord, SpecRecord, WalFaultInjector};
use crate::store::CheckpointStore;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::summary::{summarize, ParamSummary};
use bayes_mcmc::supervisor::{
    Interrupt, PauseControl, RunError, RunReport, Runtime, SupervisorConfig,
};
use bayes_mcmc::{Model, RunConfig, Sampler};
use bayes_obs::{
    Event, FlightRecorder, MetricsRegistry, Recorder, RecorderHandle, TelemetryHandle,
};
use bayes_sched::LlcMissPredictor;
use bayes_suite::registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinguishes concurrent servers in one process so their default
/// checkpoint directories never collide.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Ceiling on the per-restart exponential backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Longest an `Iteration` event waits on the server side of a job's
/// stream for later ones to travel with it (see [`ClientRecorder`]).
const COALESCE: Duration = Duration::from_millis(1);

/// Events each per-job flight recorder retains (the last-N window a
/// fault dump carries).
const FLIGHT_CAPACITY: usize = 64;

/// Static resources and policy knobs of one server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Cores the server may hand out across all resident jobs.
    pub cores: usize,
    /// Shared last-level-cache budget, bytes; the admission and
    /// co-residency limit for summed working sets.
    pub llc_budget_bytes: usize,
    /// The Section-V working-set predictor driving placement.
    pub predictor: LlcMissPredictor,
    /// Directory preemption/recovery checkpoints are written under.
    /// Defaults to a unique per-server subdirectory of the system temp
    /// dir, removed again on graceful [`JobServer::join`].
    pub checkpoint_dir: PathBuf,
    /// Server-level trace sink for `job_*` lifecycle events.
    pub trace: RecorderHandle,
    /// Write-ahead-log path; `None` (the default) disables journaling
    /// and with it crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Pending-queue depth above which admission sheds (`None` =
    /// unbounded).
    pub max_pending: Option<usize>,
    /// High-water mark, bytes, on the summed predicted working set of
    /// all live jobs above which admission sheds (`None` = unbounded).
    pub shed_bytes: Option<usize>,
    /// Deterministic journal fault injector (chaos tests only).
    pub wal_injector: Option<Arc<dyn WalFaultInjector>>,
    /// Server-level live telemetry: polled once per scheduler pass —
    /// one per message, and one per sampler interval when idle —
    /// emitting `metrics_sample` events with source `"server"` (WAL
    /// append-latency rollups, scheduler tick rate) into the sampler's
    /// recorder. The null handle (default) is free.
    pub telemetry: TelemetryHandle,
    /// True while `checkpoint_dir` is the generated default, which
    /// [`JobServer::join`] deletes on a clean drain.
    default_dir: bool,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("cores", &self.cores)
            .field("llc_budget_bytes", &self.llc_budget_bytes)
            .field("predictor", &self.predictor)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("journal_path", &self.journal_path)
            .field("max_pending", &self.max_pending)
            .field("shed_bytes", &self.shed_bytes)
            .field("wal_injector", &self.wal_injector.is_some())
            .field("telemetry", &self.telemetry.enabled())
            .field("default_dir", &self.default_dir)
            .finish()
    }
}

impl ServerConfig {
    /// A server over `cores` cores using `predictor`, with an 8 MiB
    /// LLC budget, checkpoints under a fresh per-server temp
    /// subdirectory, no journal, no shedding limits, and no trace.
    pub fn new(cores: usize, predictor: LlcMissPredictor) -> Self {
        let seq = SERVER_SEQ.fetch_add(1, Ordering::Relaxed);
        Self {
            cores: cores.max(1),
            llc_budget_bytes: 8 * 1024 * 1024,
            predictor,
            checkpoint_dir: std::env::temp_dir()
                .join(format!("bayes-serve-{}-{seq}", std::process::id())),
            trace: RecorderHandle::null(),
            journal_path: None,
            max_pending: None,
            shed_bytes: None,
            wal_injector: None,
            telemetry: TelemetryHandle::null(),
            default_dir: true,
        }
    }

    /// Sets the LLC budget.
    pub fn with_llc_budget(mut self, bytes: usize) -> Self {
        self.llc_budget_bytes = bytes;
        self
    }

    /// Sets the checkpoint directory (and opts out of the default
    /// dir's automatic removal on [`JobServer::join`]).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = dir.into();
        self.default_dir = false;
        self
    }

    /// Attaches a server-level trace sink.
    pub fn with_trace(mut self, trace: RecorderHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Enables the durable write-ahead log at `path`.
    /// [`JobServer::start`] truncates any existing file (a new server
    /// incarnation); [`JobServer::recover`] replays it.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Bounds the pending queue; admissions past the bound shed.
    pub fn with_queue_limit(mut self, max_pending: usize) -> Self {
        self.max_pending = Some(max_pending);
        self
    }

    /// Sets the working-set high-water mark; admissions that would
    /// push the summed predicted working set past it shed.
    pub fn with_shed_watermark(mut self, bytes: usize) -> Self {
        self.shed_bytes = Some(bytes);
        self
    }

    /// Attaches a deterministic journal fault injector (chaos tests).
    pub fn with_wal_injector(mut self, injector: Arc<dyn WalFaultInjector>) -> Self {
        self.wal_injector = Some(injector);
        self
    }

    /// Attaches a server-level telemetry sampler (usually built over
    /// the same sink as [`ServerConfig::with_trace`], so the
    /// `metrics_sample` stream lands in the server trace).
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Messages into the scheduler thread.
enum Msg {
    Submit(u64, JobSpec, mpsc::Sender<JobUpdate>),
    Done(u64, Outcome),
    /// A placement persisted a run checkpoint at the given iteration
    /// (observed by the client recorder; journaled for recovery).
    Ckpt(u64, u64),
    /// Reply with a live status snapshot. The scheduler is the single
    /// writer of all queue state, so answering on its thread gives a
    /// consistent view without any shared locks.
    Status(mpsc::Sender<ServerStatus>),
    /// Reply on the channel once every admitted job reached a terminal
    /// state; the scheduler then exits.
    Drain(mpsc::Sender<()>),
    Shutdown,
}

/// Point-in-time view of the server, answered by the scheduler thread
/// (see [`JobServer::status`]). Clients and online controllers poll
/// this instead of parsing traces.
#[derive(Debug, Clone)]
pub struct ServerStatus {
    /// Jobs waiting for placement (backoff-gated ones included).
    pub pending: usize,
    /// Jobs currently placed on cores.
    pub running: usize,
    /// Running jobs draining toward a preemption checkpoint.
    pub preempting: usize,
    /// Placement worker threads not yet joined: one per running job,
    /// however many jobs the server has served.
    pub worker_threads: usize,
    /// Cores currently granted to running jobs.
    pub cores_busy: usize,
    /// Total cores the server schedules over.
    pub cores_total: usize,
    /// Summed predicted working set of the *running* jobs, bytes.
    pub resident_bytes: usize,
    /// The shared-LLC budget those working sets are packed into.
    pub llc_budget_bytes: usize,
    /// Jobs completed successfully over the server's lifetime.
    pub completions: u64,
    /// Jobs declared failed (restart budget exhausted).
    pub failures: u64,
    /// Restarts consumed across all jobs.
    pub restarts: u64,
    /// Jobs shed under overload.
    pub sheds: u64,
    /// Jobs expired past their deadline.
    pub expiries: u64,
    /// Bit-exact preemption pauses completed.
    pub preemptions: u64,
    /// Jobs re-admitted by crash recovery.
    pub recoveries: u64,
    /// Per-job progress, ascending job id.
    pub jobs: Vec<JobProgress>,
}

/// One live job inside a [`ServerStatus`] snapshot.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Server-assigned job id.
    pub job: u64,
    /// Client-supplied label.
    pub name: String,
    /// Registry workload name.
    pub workload: String,
    /// Scheduling priority (higher wins).
    pub priority: u8,
    /// Whether the job is currently placed (false = pending).
    pub running: bool,
    /// Cores granted (0 while pending).
    pub cores: usize,
    /// Furthest iteration any chain of the job has completed, live
    /// from the placement's event stream.
    pub iteration: u64,
    /// Crude ESS-so-far proxy: the running sum of per-iteration mean
    /// Metropolis acceptance (≈ "effectively independent draws" if
    /// draws were independent with that probability). An *estimate*
    /// for dashboards — real ESS comes from the post-hoc summary.
    pub ess_so_far: f64,
    /// Predicted working set, bytes.
    pub data_bytes: usize,
    /// Whether the predictor classifies the job LLC-bound.
    pub llc_bound: bool,
    /// Faults absorbed so far (all placements).
    pub faults: usize,
    /// Restarts consumed from the budget.
    pub attempt: u32,
    /// Newest journaled checkpoint iteration, if any.
    pub last_ckpt: Option<u64>,
}

/// Lock-free live progress, shared between a placement's client
/// recorder (writer, on run threads) and the scheduler's status
/// snapshots (reader). Monotone: survives preemption and restarts.
#[derive(Debug, Default)]
struct ProgressCell {
    /// Furthest iteration any chain completed (+1, i.e. a count).
    iter: AtomicU64,
    /// Σ mean-acceptance over iteration events, in milli-units.
    accept_milli: AtomicU64,
}

/// What one placement's worker reported back.
enum Outcome {
    Paused {
        at: usize,
        faults: usize,
        summary: Vec<ParamSummary>,
    },
    Finished(Box<JobResult>),
    Failed {
        faults: usize,
        message: String,
    },
    /// The run hit the job's wall-clock deadline; `at` is the furthest
    /// completed iteration.
    Expired {
        at: usize,
        faults: usize,
    },
    /// The run was cancelled by the server's kill switch; the
    /// scheduler is already gone, so this is never settled.
    Aborted,
}

enum Phase {
    Pending,
    Running {
        cores: usize,
        pause: Arc<PauseControl>,
        /// Set when a pause was requested on behalf of a
        /// higher-priority job (the preemptor's id).
        draining_for: Option<u64>,
    },
}

struct JobState {
    spec: JobSpec,
    tx: mpsc::Sender<JobUpdate>,
    data_bytes: usize,
    llc_bound: bool,
    mpki: f64,
    ckpt: PathBuf,
    /// True when the next placement should look for a checkpoint in
    /// the store (set on preemption, restart, and recovery). The store
    /// lookup at placement time — not a remembered iteration — decides
    /// what actually resumes, so a corrupt newest frame falls back to
    /// the frame before it on every path.
    resume: bool,
    /// Faults accumulated over earlier placements.
    faults: usize,
    /// When the deadline clock started (admission or re-admission by
    /// recovery).
    submitted_at: Instant,
    /// Restarts consumed from the budget.
    attempt: u32,
    /// Backoff gate: the job is not placeable before this instant.
    not_before: Option<Instant>,
    /// Newest journaled checkpoint iteration (progress reporting).
    last_ckpt: Option<u64>,
    /// Live iteration/ESS progress written by the placement's client
    /// recorder, read by status snapshots.
    progress: Arc<ProgressCell>,
    /// Last-N event ring; dumped to JSONL on `chain_fault`, expiry,
    /// shed, and crash-recovery.
    flight: Arc<FlightRecorder>,
}

/// Live jobs reconstructed from the journal, handed to the scheduler
/// to re-admit before it starts serving.
struct Recovery {
    jobs: Vec<(u64, SpecRecord, mpsc::Sender<JobUpdate>)>,
    records: u64,
    truncated_bytes: u64,
}

/// The multi-tenant job server. Submit jobs with
/// [`JobServer::submit`], then either [`JobServer::join`] (run the
/// queue dry and stop) or drop the server (abandon in-flight work).
/// With a journal configured, [`JobServer::kill`] simulates a crash
/// and [`JobServer::recover`] restarts from the durable state.
pub struct JobServer {
    tx: mpsc::Sender<Msg>,
    next_id: AtomicU64,
    sched: Option<JoinHandle<()>>,
    /// Shared abort token: set by [`JobServer::kill`], observed by
    /// every running placement's supervisor.
    kill: Arc<AtomicBool>,
    /// The generated default checkpoint dir, removed on a clean join.
    cleanup: Option<PathBuf>,
}

impl JobServer {
    /// Starts a fresh server; the scheduler thread lives until
    /// [`JobServer::join`], [`JobServer::kill`], or drop. Any existing
    /// journal at the configured path is truncated — use
    /// [`JobServer::recover`] to continue a previous incarnation.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint directory or journal cannot be
    /// created.
    pub fn start(cfg: ServerConfig) -> Self {
        let journal = cfg
            .journal_path
            .clone()
            .map(|p| Journal::create(p).expect("create job-server journal"));
        Self::launch(cfg, journal, None, 1).expect("start job server")
    }

    /// Restarts a crashed (or killed) server from its journal: replays
    /// the log, truncates any torn tail, re-queues every job without a
    /// terminal record, and returns a fresh [`JobHandle`] per
    /// recovered job (ascending id order). Each recovered job
    /// resumes from the newest valid frame of its checkpoint log —
    /// falling back past a torn or corrupt frame, or to a clean restart
    /// of the same RNG streams — so its draws are bit-identical to an
    /// uninterrupted run. Deadline clocks restart at recovery.
    ///
    /// # Errors
    ///
    /// Fails when no journal path is configured or the log cannot be
    /// opened.
    pub fn recover(cfg: ServerConfig) -> std::io::Result<(Self, Vec<JobHandle>)> {
        let Some(path) = cfg.journal_path.clone() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "recover requires ServerConfig::with_journal",
            ));
        };
        let (journal, replay) = Journal::open(path)?;
        let mut live: BTreeMap<u64, SpecRecord> = BTreeMap::new();
        let mut max_id = 0;
        for record in &replay.records {
            max_id = max_id.max(record.job());
            match record {
                JournalRecord::Submitted { job, spec } => {
                    live.insert(*job, spec.clone());
                }
                JournalRecord::Completed { job }
                | JournalRecord::Failed { job }
                | JournalRecord::Expired { job }
                | JournalRecord::Shed { job } => {
                    live.remove(job);
                }
                _ => {}
            }
        }
        let mut handles = Vec::new();
        let mut jobs = Vec::new();
        for (id, spec) in live {
            let (tx, rx) = mpsc::channel();
            handles.push(JobHandle { id, rx });
            jobs.push((id, spec, tx));
        }
        let recovery = Recovery {
            jobs,
            records: replay.records.len() as u64,
            truncated_bytes: replay.truncated_bytes,
        };
        let server = Self::launch(cfg, Some(journal), Some(recovery), max_id + 1)?;
        Ok((server, handles))
    }

    fn launch(
        cfg: ServerConfig,
        journal: Option<Journal>,
        recovery: Option<Recovery>,
        next_id: u64,
    ) -> std::io::Result<Self> {
        let store = CheckpointStore::new(&cfg.checkpoint_dir)?;
        let journal = match (&cfg.wal_injector, journal) {
            (Some(injector), Some(j)) => Some(j.with_injector(injector.clone())),
            (_, j) => j,
        };
        let kill = Arc::new(AtomicBool::new(false));
        let cleanup = cfg.default_dir.then(|| cfg.checkpoint_dir.clone());
        let (tx, rx) = mpsc::channel();
        let done_tx = tx.clone();
        let kill_token = kill.clone();
        let sched = std::thread::Builder::new()
            .name("bayes-serve-sched".into())
            .spawn(move || {
                Scheduler::new(cfg, rx, done_tx, journal, store, kill_token, recovery).run()
            })?;
        Ok(Self {
            tx,
            next_id: AtomicU64::new(next_id),
            sched: Some(sched),
            kill,
            cleanup,
        })
    }

    /// Queues a job. Admission happens asynchronously: a refused job's
    /// handle yields a single [`JobUpdate::Rejected`] (or
    /// [`JobUpdate::Shed`] under overload).
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        // A closed scheduler (post-join) drops the sender, so the
        // handle reports the stream as closed rather than hanging.
        let _ = self.tx.send(Msg::Submit(id, spec, tx));
        JobHandle { id, rx }
    }

    /// A live status snapshot, answered synchronously by the
    /// scheduler thread: queue depths, per-job progress (iteration,
    /// ESS-so-far estimate), lifetime restart/shed/recovery counters,
    /// and the resident working set against the LLC budget. Returns
    /// `None` once the scheduler has exited (post-join/kill).
    pub fn status(&self) -> Option<ServerStatus> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Msg::Status(tx)).ok()?;
        rx.recv().ok()
    }

    /// Runs the queue dry — every admitted job reaches a terminal
    /// state — then stops the scheduler and removes the default
    /// checkpoint directory (an explicitly configured one is left
    /// alone).
    pub fn join(mut self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        let _ = self.tx.send(Msg::Drain(ack_tx));
        let _ = ack_rx.recv();
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
        if let Some(dir) = self.cleanup.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Simulated crash: cancels every running placement through the
    /// shared abort token and stops the scheduler without writing any
    /// terminal journal records — exactly the durable state a SIGKILL
    /// leaves behind. Every outstanding handle receives
    /// [`JobUpdate::ServerLost`]; [`JobServer::recover`] on the same
    /// config picks the jobs back up.
    pub fn kill(mut self) {
        self.kill.store(true, Ordering::Release);
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
        // Deliberately no cleanup: the durable state is the point.
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        if let Some(h) = self.sched.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = h.join();
        }
    }
}

/// Forwards every run event onto the job's client stream, tells the
/// scheduler about persisted checkpoints (which it journals), feeds
/// the job's flight-recorder ring, keeps the live progress cell
/// current, and dumps the flight ring the moment a `chain_fault`
/// arrives — while the fault event is guaranteed still in the window.
///
/// The stream coalesces: waking a client parked in [`JobHandle::recv`]
/// costs more than an iteration of a small model, so `Iteration` events
/// are held and sent as one burst, which wakes it once. Held events
/// leave in the order recorded — with the placement's first iteration,
/// with any other event, with [`Recorder::flush`] and drop, and with an
/// iteration recorded [`COALESCE`] or more after the last that left at
/// once — so nothing is reordered or dropped or waits past the later of
/// 1 ms and the next record, and a model slower than 1 ms an iteration
/// streams exactly as if nothing were held.
struct ClientRecorder {
    job: u64,
    stream: Mutex<ClientStream>,
    sched: Mutex<mpsc::Sender<Msg>>,
    progress: Arc<ProgressCell>,
    flight: Arc<FlightRecorder>,
    /// Where a fault-triggered dump lands.
    fault_dump: PathBuf,
}

struct ClientStream {
    tx: mpsc::Sender<JobUpdate>,
    /// Events recorded since the last delivery, oldest first.
    held: Vec<Event>,
    /// When an iteration last left without waiting; `None` until the
    /// placement's first one has.
    delivered: Option<Instant>,
}

impl ClientStream {
    fn new(tx: mpsc::Sender<JobUpdate>) -> Mutex<Self> {
        Mutex::new(Self {
            tx,
            held: Vec::new(),
            delivered: None,
        })
    }

    fn deliver(&mut self) {
        for event in self.held.drain(..) {
            let _ = self.tx.send(JobUpdate::Event(event));
        }
    }
}

impl Recorder for ClientRecorder {
    fn record(&self, event: &Event) {
        self.flight.record(event);
        match event {
            Event::CheckpointSaved { iter, .. } => {
                let _ = self
                    .sched
                    .lock()
                    .expect("scheduler sender lock")
                    .send(Msg::Ckpt(self.job, *iter));
            }
            Event::Iteration { iter, accept, .. } => {
                self.progress.iter.fetch_max(iter + 1, Ordering::Relaxed);
                if accept.is_finite() && *accept > 0.0 {
                    let milli = (accept.min(1.0) * 1000.0) as u64;
                    self.progress
                        .accept_milli
                        .fetch_add(milli, Ordering::Relaxed);
                }
            }
            Event::ChainFault { .. } => {
                // Rare, and on the supervisor's fault path rather than
                // a sampling hot path: a small bounded file write.
                let _ = self.flight.dump(&self.fault_dump);
            }
            _ => {}
        }
        let mut stream = self.stream.lock().expect("client stream lock");
        stream.held.push(event.clone());
        if !matches!(event, Event::Iteration { .. }) {
            stream.deliver();
        } else if stream.delivered.is_none_or(|at| at.elapsed() >= COALESCE) {
            stream.deliver();
            stream.delivered = Some(Instant::now());
        }
    }

    fn flush(&self) {
        self.stream.lock().expect("client stream lock").deliver();
    }
}

impl Drop for ClientRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Lifetime counters surfaced by [`ServerStatus`].
#[derive(Debug, Default)]
struct LifetimeCounters {
    completions: u64,
    failures: u64,
    restarts: u64,
    sheds: u64,
    expiries: u64,
    preemptions: u64,
    recoveries: u64,
}

struct Scheduler {
    cfg: ServerConfig,
    rx: mpsc::Receiver<Msg>,
    /// Cloned into workers so they can report completion.
    tx: mpsc::Sender<Msg>,
    jobs: BTreeMap<u64, JobState>,
    phases: BTreeMap<u64, Phase>,
    /// The worker of every placement yet to report back, by job.
    workers: BTreeMap<u64, JoinHandle<()>>,
    drain: Option<mpsc::Sender<()>>,
    journal: Option<Journal>,
    store: CheckpointStore,
    kill: Arc<AtomicBool>,
    recovery: Option<Recovery>,
    /// Lifetime terminal/restart counts for status snapshots.
    stats: LifetimeCounters,
    /// Scheduler-owned metrics (WAL append latency histogram); the
    /// cumulative snapshot feeds the server-level telemetry sampler.
    metrics: MetricsRegistry,
    /// Scheduler passes completed — the telemetry iteration counter.
    ticks: u64,
}

impl Scheduler {
    fn new(
        cfg: ServerConfig,
        rx: mpsc::Receiver<Msg>,
        tx: mpsc::Sender<Msg>,
        journal: Option<Journal>,
        store: CheckpointStore,
        kill: Arc<AtomicBool>,
        recovery: Option<Recovery>,
    ) -> Self {
        Self {
            cfg,
            rx,
            tx,
            jobs: BTreeMap::new(),
            phases: BTreeMap::new(),
            workers: BTreeMap::new(),
            drain: None,
            journal,
            store,
            kill,
            recovery,
            stats: LifetimeCounters::default(),
            metrics: MetricsRegistry::new(),
            ticks: 0,
        }
    }

    fn run(mut self) {
        if let Some(recovery) = self.recovery.take() {
            self.readmit(recovery);
            self.place();
        }
        loop {
            // Every state change that can unblock work arrives as a
            // message; only what is gated on time — a pending job's
            // deadline or backoff, the telemetry cadence — needs a
            // timer, and with none of those the scheduler just blocks.
            let msg = match self.next_timer() {
                Some(at) => self
                    .rx
                    .recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self
                    .rx
                    .recv()
                    .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(Msg::Submit(id, spec, tx)) => self.admit(id, spec, tx),
                Ok(Msg::Done(id, outcome)) => {
                    // `Msg::Done` is a worker's last act: the join
                    // returns at once, and frees the thread's stack.
                    if let Some(worker) = self.workers.remove(&id) {
                        let _ = worker.join();
                    }
                    self.settle(id, outcome);
                }
                Ok(Msg::Ckpt(id, iter)) => self.note_checkpoint(id, iter),
                Ok(Msg::Status(tx)) => {
                    let _ = tx.send(self.status_snapshot());
                }
                Ok(Msg::Drain(ack)) => self.drain = Some(ack),
                Ok(Msg::Shutdown) => break,
                // A timer fired: deadlines and backoff gates advance.
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            self.expire_overdue();
            self.place();
            // Server-level live telemetry: once per pass, off every
            // sampling hot path (this thread only schedules).
            self.ticks += 1;
            if self.cfg.telemetry.enabled() {
                self.cfg
                    .telemetry
                    .maybe_sample("server", self.ticks, &self.metrics.snapshot());
            }
            if self.drain.is_some() && self.jobs.is_empty() {
                if let Some(ack) = self.drain.take() {
                    let _ = ack.send(());
                }
                break;
            }
        }
        // Whatever is still live did not reach a terminal state — tell
        // every waiting client the server went away. No terminal
        // journal records are written here: on a crash/kill path these
        // jobs must replay as live.
        for job in self.jobs.values() {
            let _ = job.tx.send(JobUpdate::ServerLost);
        }
        for worker in std::mem::take(&mut self.workers).into_values() {
            let _ = worker.join();
        }
    }

    /// The earliest instant at which something the scheduler owns
    /// becomes due without a message announcing it.
    fn next_timer(&self) -> Option<Instant> {
        let now = Instant::now();
        let pending = self
            .phases
            .iter()
            .filter(|(_, p)| matches!(p, Phase::Pending))
            .map(|(id, _)| &self.jobs[id]);
        let gates = pending.flat_map(|job| {
            let deadline = job.spec.deadline.map(|d| job.submitted_at + d);
            [deadline, job.not_before.filter(|&gate| gate > now)]
        });
        let telemetry = self.cfg.telemetry.due_in().map(|d| now + d);
        gates.flatten().chain(telemetry).min()
    }

    /// Best-effort journal append: the WAL protects restarts, but a
    /// full disk must not take the serving path down with it. Append
    /// latency lands in the `wal.append_ns` histogram, whose rollups
    /// the server telemetry samples.
    fn journal_append(&mut self, record: &JournalRecord) {
        if let Some(journal) = self.journal.as_mut() {
            let started = Instant::now();
            let _ = journal.append(record);
            self.metrics
                .record("wal.append_ns", started.elapsed().as_nanos() as u64);
        }
    }

    /// Records a lifecycle event in the server trace, on the owning
    /// job's client stream, and in the job's flight-recorder ring.
    fn emit(&self, id: u64, event: Event) {
        self.cfg.trace.record(event.clone());
        if let Some(job) = self.jobs.get(&id) {
            job.flight.record(&event);
            let _ = job.tx.send(JobUpdate::Event(event));
        }
    }

    /// Dumps a job's flight-recorder ring to
    /// `<checkpoint_dir>/job-<id>-flight-<reason>.jsonl` (best
    /// effort — a post-mortem aid must not affect serving).
    fn flight_dump(&self, id: u64, reason: &str) {
        if let Some(job) = self.jobs.get(&id) {
            let path = self
                .cfg
                .checkpoint_dir
                .join(format!("job-{id}-flight-{reason}.jsonl"));
            let _ = job.flight.dump(&path);
        }
    }

    /// Assembles the [`ServerStatus`] snapshot answered to
    /// [`JobServer::status`]. Runs on the scheduler thread, so queue
    /// state is internally consistent; per-job iteration/ESS numbers
    /// are read from the placements' lock-free progress cells.
    fn status_snapshot(&self) -> ServerStatus {
        let mut pending = 0usize;
        let mut running = 0usize;
        let mut preempting = 0usize;
        let mut cores_busy = 0usize;
        let mut resident_bytes = 0usize;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (id, job) in &self.jobs {
            let (is_running, cores) = match self.phases.get(id) {
                Some(Phase::Running {
                    cores,
                    draining_for,
                    ..
                }) => {
                    running += 1;
                    cores_busy += cores;
                    resident_bytes += job.data_bytes;
                    if draining_for.is_some() {
                        preempting += 1;
                    }
                    (true, *cores)
                }
                _ => {
                    pending += 1;
                    (false, 0)
                }
            };
            jobs.push(JobProgress {
                job: *id,
                name: job.spec.name.clone(),
                workload: job.spec.workload.clone(),
                priority: job.spec.priority,
                running: is_running,
                cores,
                iteration: job.progress.iter.load(Ordering::Relaxed),
                ess_so_far: job.progress.accept_milli.load(Ordering::Relaxed) as f64 / 1000.0,
                data_bytes: job.data_bytes,
                llc_bound: job.llc_bound,
                faults: job.faults,
                attempt: job.attempt,
                last_ckpt: job.last_ckpt,
            });
        }
        ServerStatus {
            pending,
            running,
            preempting,
            worker_threads: self.workers.len(),
            cores_busy,
            cores_total: self.cfg.cores,
            resident_bytes,
            llc_budget_bytes: self.cfg.llc_budget_bytes,
            completions: self.stats.completions,
            failures: self.stats.failures,
            restarts: self.stats.restarts,
            sheds: self.stats.sheds,
            expiries: self.stats.expiries,
            preemptions: self.stats.preemptions,
            recoveries: self.stats.recoveries,
            jobs,
        }
    }

    /// Re-admits journal-recovered jobs ahead of normal service.
    fn readmit(&mut self, recovery: Recovery) {
        let path = self
            .journal
            .as_ref()
            .map(|j| j.path().display().to_string())
            .unwrap_or_default();
        if recovery.truncated_bytes > 0 {
            self.cfg.trace.record(Event::JournalTruncated {
                path: path.clone(),
                truncated_bytes: recovery.truncated_bytes,
                records: recovery.records,
            });
        }
        self.cfg.trace.record(Event::JournalReplayed {
            path,
            records: recovery.records,
            jobs_recovered: recovery.jobs.len() as u64,
        });
        for (id, spec_record, tx) in recovery.jobs {
            // A job that cannot be rebuilt fails alone; the others
            // still recover.
            let rebuilt = spec_record
                .to_spec()
                .map_err(|e| format!("the journaled spec cannot be rebuilt: {e}"))
                .and_then(
                    |spec| match registry::workload(&spec.workload, spec.scale, spec.seed) {
                        Some(wl) => Ok((spec, wl)),
                        None => Err(format!(
                            "workload '{}' vanished from the registry across restarts",
                            spec.workload
                        )),
                    },
                );
            let (spec, wl) = match rebuilt {
                Ok(rebuilt) => rebuilt,
                Err(message) => {
                    self.journal_append(&JournalRecord::Failed { job: id });
                    let _ = tx.send(JobUpdate::Failed(message));
                    continue;
                }
            };
            let data_bytes = wl.meta().modeled_data_bytes;
            drop(wl);
            let lookup = self.store.lookup(id);
            let resumed_from = lookup.checkpoint.as_ref().map(|(iter, _)| *iter as u64);
            self.journal_append(&JournalRecord::Recovered {
                job: id,
                resumed_from,
            });
            self.jobs.insert(
                id,
                JobState {
                    llc_bound: self.cfg.predictor.is_llc_bound(data_bytes),
                    mpki: self.cfg.predictor.predict_mpki(data_bytes),
                    ckpt: self.store.path_for(id),
                    spec,
                    tx,
                    data_bytes,
                    resume: true,
                    faults: 0,
                    submitted_at: Instant::now(),
                    attempt: 0,
                    not_before: None,
                    last_ckpt: resumed_from,
                    progress: Arc::new(ProgressCell::default()),
                    flight: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)),
                },
            );
            self.phases.insert(id, Phase::Pending);
            self.stats.recoveries += 1;
            self.emit(
                id,
                Event::JobRecovered {
                    job: id,
                    resumed_from,
                    corrupt_skipped: lookup.corrupt_skipped,
                },
            );
            self.flight_dump(id, "recovered");
        }
    }

    fn admit(&mut self, id: u64, spec: JobSpec, tx: mpsc::Sender<JobUpdate>) {
        let reject = |msg: String| {
            let _ = tx.send(JobUpdate::Rejected(msg));
        };
        if spec.chains == 0 || spec.iters == 0 {
            return reject(format!(
                "job '{}' has a zero run shape ({} chains × {} iters)",
                spec.name, spec.chains, spec.iters
            ));
        }
        if let Err(e) = check_scale(spec.scale) {
            return reject(format!("job '{}': {e}", spec.name));
        }
        let Some(wl) = registry::workload(&spec.workload, spec.scale, spec.seed) else {
            return reject(format!("unknown workload '{}'", spec.workload));
        };
        let data_bytes = wl.meta().modeled_data_bytes;
        drop(wl);
        if data_bytes > self.cfg.llc_budget_bytes {
            return reject(format!(
                "job '{}' working set ({data_bytes} B) exceeds the server LLC budget ({} B)",
                spec.name, self.cfg.llc_budget_bytes
            ));
        }
        // Overload shedding. Queue depth counts pending jobs; the
        // watermark sums the predicted working set of every live job
        // plus the candidate. At most one victim is shed per
        // admission, and only one with strictly lower priority than
        // the newcomer — otherwise the newcomer itself is shed.
        let pending_now = self
            .phases
            .values()
            .filter(|p| matches!(p, Phase::Pending))
            .count();
        let queued_bytes = self
            .jobs
            .values()
            .map(|j| j.data_bytes)
            .sum::<usize>()
            .saturating_add(data_bytes);
        let overloaded = self.cfg.max_pending.is_some_and(|m| pending_now + 1 > m)
            || self.cfg.shed_bytes.is_some_and(|m| queued_bytes > m);
        if overloaded {
            let victim = self
                .phases
                .iter()
                .filter(|(_, p)| matches!(p, Phase::Pending))
                .map(|(vid, _)| *vid)
                .filter(|vid| self.jobs[vid].spec.priority < spec.priority)
                .min_by_key(|vid| (self.jobs[vid].spec.priority, std::cmp::Reverse(*vid)));
            match victim {
                Some(vid) => self.shed(vid, (pending_now + 1) as u64, queued_bytes as u64),
                None => {
                    // Never admitted, so never journaled: recovery
                    // must not resurrect a shed submission.
                    let event = Event::JobShed {
                        job: id,
                        priority: u64::from(spec.priority),
                        queue_depth: (pending_now + 1) as u64,
                        queued_bytes: queued_bytes as u64,
                    };
                    self.cfg.trace.record(event.clone());
                    self.stats.sheds += 1;
                    let _ = tx.send(JobUpdate::Event(event));
                    let _ = tx.send(JobUpdate::Shed(format!(
                        "job '{}' shed at admission: server overloaded \
                         ({pending_now} pending, {queued_bytes} B predicted working set)",
                        spec.name
                    )));
                    return;
                }
            }
        }
        let ckpt = self.store.path_for(id);
        let event = Event::JobSubmitted {
            job: id,
            name: spec.name.clone(),
            workload: spec.workload.clone(),
            priority: u64::from(spec.priority),
            chains: spec.chains as u64,
            iters: spec.iters as u64,
            seed: spec.seed,
            data_bytes: data_bytes as u64,
        };
        self.journal_append(&JournalRecord::Submitted {
            job: id,
            spec: SpecRecord::of(&spec),
        });
        self.jobs.insert(
            id,
            JobState {
                llc_bound: self.cfg.predictor.is_llc_bound(data_bytes),
                mpki: self.cfg.predictor.predict_mpki(data_bytes),
                spec,
                tx,
                data_bytes,
                ckpt,
                resume: false,
                faults: 0,
                submitted_at: Instant::now(),
                attempt: 0,
                not_before: None,
                last_ckpt: None,
                progress: Arc::new(ProgressCell::default()),
                flight: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            },
        );
        self.phases.insert(id, Phase::Pending);
        self.emit(id, event);
    }

    /// Drops a pending job under overload (terminal).
    fn shed(&mut self, id: u64, queue_depth: u64, queued_bytes: u64) {
        self.journal_append(&JournalRecord::Shed { job: id });
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let priority = u64::from(job.spec.priority);
        let name = job.spec.name.clone();
        let tx = job.tx.clone();
        self.emit(
            id,
            Event::JobShed {
                job: id,
                priority,
                queue_depth,
                queued_bytes,
            },
        );
        self.flight_dump(id, "shed");
        self.stats.sheds += 1;
        let _ = tx.send(JobUpdate::Shed(format!(
            "job '{name}' shed from the pending queue: server overloaded \
             (depth {queue_depth}, {queued_bytes} B predicted working set)"
        )));
        self.jobs.remove(&id);
        self.phases.remove(&id);
    }

    /// Expires pending jobs whose wall-clock deadline has passed.
    /// Running placements expire through the supervisor's own deadline
    /// and come back as [`Outcome::Expired`].
    fn expire_overdue(&mut self) {
        let now = Instant::now();
        let overdue: Vec<u64> = self
            .phases
            .iter()
            .filter(|(_, p)| matches!(p, Phase::Pending))
            .map(|(id, _)| *id)
            .filter(|id| {
                let job = &self.jobs[id];
                job.spec
                    .deadline
                    .is_some_and(|d| now.duration_since(job.submitted_at) >= d)
            })
            .collect();
        for id in overdue {
            let iters_done = self.jobs[&id].last_ckpt.unwrap_or(0);
            self.expire(id, iters_done);
        }
    }

    /// Terminates an over-deadline job (terminal).
    fn expire(&mut self, id: u64, iters_done: u64) {
        self.journal_append(&JournalRecord::Expired { job: id });
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let deadline_ms = job
            .spec
            .deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or_default();
        let name = job.spec.name.clone();
        let tx = job.tx.clone();
        self.emit(
            id,
            Event::JobExpired {
                job: id,
                deadline_ms,
                iters_done,
            },
        );
        self.flight_dump(id, "expired");
        self.stats.expiries += 1;
        let _ = tx.send(JobUpdate::Expired(format!(
            "job '{name}' exceeded its {deadline_ms} ms deadline after {iters_done} iters"
        )));
        self.jobs.remove(&id);
        self.phases.remove(&id);
    }

    /// Journals a checkpoint the placement just persisted.
    fn note_checkpoint(&mut self, id: u64, iter: u64) {
        if self.jobs.contains_key(&id) {
            self.journal_append(&JournalRecord::Checkpointed { job: id, iter });
            if let Some(job) = self.jobs.get_mut(&id) {
                job.last_ckpt = Some(iter);
            }
        }
    }

    fn settle(&mut self, id: u64, outcome: Outcome) {
        if !self.jobs.contains_key(&id) {
            return; // job dropped at shutdown
        }
        match outcome {
            Outcome::Paused {
                at,
                faults,
                summary,
            } => {
                self.journal_append(&JournalRecord::Preempted {
                    job: id,
                    at: at as u64,
                });
                let job = self.jobs.get_mut(&id).expect("settled job exists");
                job.faults += faults;
                job.resume = true;
                let by = match self.phases.get(&id) {
                    Some(Phase::Running {
                        draining_for: Some(by),
                        ..
                    }) => *by,
                    _ => 0,
                };
                let checkpoint = self.jobs[&id].ckpt.display().to_string();
                let tx = self.jobs[&id].tx.clone();
                self.phases.insert(id, Phase::Pending);
                self.stats.preemptions += 1;
                self.emit(
                    id,
                    Event::JobPreempted {
                        job: id,
                        at_iter: at as u64,
                        by,
                        checkpoint,
                    },
                );
                let _ = tx.send(JobUpdate::Preempted { at, by, summary });
            }
            Outcome::Finished(mut result) => {
                self.journal_append(&JournalRecord::Completed { job: id });
                self.stats.completions += 1;
                let job = &self.jobs[&id];
                result.faults += job.faults;
                let tx = job.tx.clone();
                self.emit(
                    id,
                    Event::JobCompleted {
                        job: id,
                        stopped_at: result.stopped_at.map(|t| t as u64),
                        iters_done: result.iters_done as u64,
                        degraded: result.degraded,
                        faults: result.faults as u64,
                        grad_evals: result.grad_evals,
                    },
                );
                let _ = tx.send(JobUpdate::Completed(result));
                self.jobs.remove(&id);
                self.phases.remove(&id);
            }
            Outcome::Failed { faults, message } => {
                let job = self.jobs.get_mut(&id).expect("settled job exists");
                job.faults += faults;
                if job.attempt < job.spec.restarts {
                    // Consume restart budget: re-queue behind a capped
                    // exponential backoff, resuming from the last good
                    // checkpoint when one exists.
                    job.attempt += 1;
                    let shift = (job.attempt - 1).min(16);
                    let backoff = job
                        .spec
                        .backoff
                        .saturating_mul(1u32 << shift)
                        .min(MAX_BACKOFF);
                    job.not_before = Some(Instant::now() + backoff);
                    job.resume = true;
                    let attempt = u64::from(job.attempt);
                    self.phases.insert(id, Phase::Pending);
                    self.stats.restarts += 1;
                    self.journal_append(&JournalRecord::Restarted { job: id, attempt });
                    return;
                }
                let total = job.faults;
                let tx = job.tx.clone();
                self.stats.failures += 1;
                self.journal_append(&JournalRecord::Failed { job: id });
                self.emit(
                    id,
                    Event::JobCompleted {
                        job: id,
                        stopped_at: None,
                        iters_done: 0,
                        degraded: true,
                        faults: total as u64,
                        grad_evals: 0,
                    },
                );
                let _ = tx.send(JobUpdate::Failed(message));
                self.jobs.remove(&id);
                self.phases.remove(&id);
            }
            Outcome::Expired { at, faults } => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.faults += faults;
                }
                self.expire(id, at as u64);
            }
            Outcome::Aborted => {
                // Kill in progress: leave the job live so the exit
                // path reports ServerLost and recovery replays it.
            }
        }
    }

    fn running_cores(&self) -> usize {
        self.phases
            .values()
            .map(|p| match p {
                Phase::Running { cores, .. } => *cores,
                Phase::Pending => 0,
            })
            .sum()
    }

    fn pending_order(&self) -> Vec<u64> {
        let now = Instant::now();
        let mut ids: Vec<u64> = self
            .phases
            .iter()
            .filter(|(id, p)| {
                matches!(p, Phase::Pending)
                    && self.jobs[*id].not_before.is_none_or(|gate| now >= gate)
            })
            .map(|(id, _)| *id)
            .collect();
        // Priority first, FIFO (id order) within a priority.
        ids.sort_by_key(|id| (std::cmp::Reverse(self.jobs[id].spec.priority), *id));
        ids
    }

    /// Greedy placement pass; loops until nothing else fits, then
    /// considers one preemption for the head of the queue.
    fn place(&mut self) {
        loop {
            let free = self.cfg.cores - self.running_cores();
            let resident_bytes: usize = self
                .phases
                .iter()
                .filter(|(_, p)| matches!(p, Phase::Running { .. }))
                .map(|(id, _)| self.jobs[id].data_bytes)
                .sum();
            let resident_llc_bound = self
                .phases
                .iter()
                .any(|(id, p)| matches!(p, Phase::Running { .. }) && self.jobs[id].llc_bound);
            let pending = self.pending_order();
            let fit = pending.iter().copied().find_map(|id| {
                let job = &self.jobs[&id];
                grant(
                    free,
                    self.cfg.llc_budget_bytes,
                    resident_bytes,
                    resident_llc_bound,
                    job.spec.chains,
                    job.data_bytes,
                    job.llc_bound,
                )
                .map(|cores| (id, cores))
            });
            match fit {
                Some((id, cores)) => self.start(id, cores),
                None => {
                    if let Some(&head) = pending.first() {
                        self.preempt_for(head);
                    }
                    return;
                }
            }
        }
    }

    /// Requests a bit-exact pause of the newest lowest-priority
    /// running job strictly below `head`'s priority. At
    /// most one drain is in flight at a time — the paused cores come
    /// back through [`Scheduler::settle`], which re-runs placement.
    fn preempt_for(&mut self, head: u64) {
        let head_priority = self.jobs[&head].spec.priority;
        if self
            .phases
            .values()
            .any(|p| matches!(p, Phase::Running { draining_for, .. } if draining_for.is_some()))
        {
            return;
        }
        let victim = self
            .phases
            .iter()
            .filter_map(|(id, p)| match p {
                Phase::Running {
                    draining_for: None, ..
                } if self.jobs[id].spec.priority < head_priority => {
                    Some((self.jobs[id].spec.priority, *id))
                }
                _ => None,
            })
            .min_by_key(|&(priority, id)| (priority, std::cmp::Reverse(id)))
            .map(|(_, id)| id);
        if let Some(victim) = victim {
            if let Some(Phase::Running {
                pause: pc,
                draining_for,
                ..
            }) = self.phases.get_mut(&victim)
            {
                *draining_for = Some(head);
                pc.request();
            }
        }
    }

    fn start(&mut self, id: u64, cores: usize) {
        // The store lookup — not a remembered iteration — decides what
        // the placement resumes: the newest checkpoint frame that
        // validates, or a clean start when none does.
        let resume_from = {
            let job = &self.jobs[&id];
            if job.resume {
                self.store.lookup(id).checkpoint
            } else {
                None
            }
        };
        let job = self.jobs.get_mut(&id).expect("placed job exists");
        job.resume = false;
        let spec = job.spec.clone();
        let ckpt = job.ckpt.clone();
        let updates = job.tx.clone();
        let progress = job.progress.clone();
        let flight = job.flight.clone();
        let fault_dump = self
            .cfg
            .checkpoint_dir
            .join(format!("job-{id}-flight-chain_fault.jsonl"));
        let deadline_left = spec
            .deadline
            .map(|d| d.saturating_sub(job.submitted_at.elapsed()));
        let pause = PauseControl::new();
        let inner_threads = (cores / spec.chains.max(1)).max(1);
        let (llc_bound, mpki) = (job.llc_bound, job.mpki);
        self.journal_append(&JournalRecord::Placed {
            job: id,
            cores: cores as u64,
        });
        self.phases.insert(
            id,
            Phase::Running {
                cores,
                pause: pause.clone(),
                draining_for: None,
            },
        );
        self.emit(
            id,
            Event::JobPlaced {
                job: id,
                cores: cores as u64,
                inner_threads: inner_threads as u64,
                llc_bound,
                predicted_mpki: mpki,
                resumed_from: resume_from.as_ref().map(|(iter, _)| *iter as u64),
            },
        );
        let done = self.tx.clone();
        let sched = self.tx.clone();
        let abort = self.kill.clone();
        let worker = std::thread::Builder::new()
            .name(format!("bayes-serve-job-{id}"))
            .spawn(move || {
                let outcome = run_placement(
                    id,
                    &spec,
                    cores,
                    resume_from,
                    &ckpt,
                    pause,
                    updates,
                    deadline_left,
                    abort,
                    sched,
                    progress,
                    flight,
                    fault_dump,
                );
                let _ = done.send(Msg::Done(id, outcome));
            })
            .expect("spawn job worker");
        self.workers.insert(id, worker);
    }
}

/// Core grant for one candidate, or `None` when it does not fit.
///
/// LLC-bound jobs get one core per chain and sole LLC-bound
/// residency; cache-resident jobs get up to two cores per chain
/// (inner shard threads scale until the working set spills).
fn grant(
    free: usize,
    llc_budget: usize,
    resident_bytes: usize,
    resident_llc_bound: bool,
    chains: usize,
    data_bytes: usize,
    llc_bound: bool,
) -> Option<usize> {
    if free == 0 {
        return None;
    }
    if resident_bytes.saturating_add(data_bytes) > llc_budget {
        return None;
    }
    if llc_bound && resident_llc_bound {
        return None;
    }
    let desired = chains.max(1) * if llc_bound { 1 } else { 2 };
    Some(desired.min(free))
}

/// One placement: build the workload, run (or resume) it under the
/// supervisor, and report how it ended. Runs on a worker thread.
#[allow(clippy::too_many_arguments)]
fn run_placement(
    id: u64,
    spec: &JobSpec,
    cores: usize,
    resume_from: Option<(usize, PathBuf)>,
    ckpt: &PathBuf,
    pause: Arc<PauseControl>,
    updates: mpsc::Sender<JobUpdate>,
    deadline_left: Option<Duration>,
    abort: Arc<AtomicBool>,
    sched: mpsc::Sender<Msg>,
    progress: Arc<ProgressCell>,
    flight: Arc<FlightRecorder>,
    fault_dump: PathBuf,
) -> Outcome {
    let Some(wl) = registry::workload(&spec.workload, spec.scale, spec.seed) else {
        return Outcome::Failed {
            faults: 0,
            message: format!("workload '{}' vanished from the registry", spec.workload),
        };
    };
    let recorder = RecorderHandle::new(Arc::new(ClientRecorder {
        job: id,
        stream: ClientStream::new(updates),
        sched: Mutex::new(sched),
        progress,
        flight,
        fault_dump,
    }));
    wl.attach_recorder(&recorder);
    let cfg = RunConfig::new(spec.iters)
        .with_chains(spec.chains)
        .with_seed(spec.seed)
        .with_core_allotment(cores)
        .with_recorder(recorder);
    // The supervisor's default quorum (2) would reject every
    // single-chain job at validation, so the server clamps the quorum
    // — explicit or default — to the job's chain count.
    let mut sup = SupervisorConfig::new();
    let quorum = spec.min_quorum.unwrap_or(2).clamp(1, spec.chains.max(1));
    sup = sup.with_min_quorum(quorum).with_abort(abort);
    if let Some(left) = deadline_left {
        sup = sup.with_deadline(left);
    }
    if let Some(injector) = &spec.injector {
        sup = sup.with_injector(injector.clone());
    }
    sup = sup.with_checkpoint_path(ckpt).with_pause(pause);
    let runtime = Runtime::new(spec.detector.clone()).with_config(sup);
    // The dynamics model carries the same posterior at study scale —
    // what every sampling study in the repo runs; the full-scale model
    // is the admission feature, not the sampling target.
    let model = wl.dynamics_model();
    let path = resume_from.as_ref().map(|(_, path)| path.as_path());
    let result = match spec.sampler {
        SamplerKind::Nuts => run_or_resume(&runtime, &Nuts::default(), model, &cfg, path),
        SamplerKind::Mh => run_or_resume(&runtime, &MetropolisHastings::new(), model, &cfg, path),
    };
    wl.flush_telemetry();
    match result {
        Ok(report) => {
            let summary = summarize(&report.run);
            if let Some(at) = report.paused_at {
                return Outcome::Paused {
                    at,
                    faults: report.faults.len(),
                    summary,
                };
            }
            let iters_done = report
                .run
                .chains
                .iter()
                .map(|c| c.draws.len())
                .max()
                .unwrap_or(0);
            if let Some(reason) = report.interrupted {
                return match reason {
                    Interrupt::DeadlineExpired => Outcome::Expired {
                        at: iters_done,
                        faults: report.faults.len(),
                    },
                    Interrupt::Aborted => Outcome::Aborted,
                };
            }
            Outcome::Finished(Box::new(JobResult {
                job: id,
                stopped_at: report.stopped_at,
                iters_done,
                degraded: report.degraded,
                survivors: report.survivors.clone(),
                faults: report.faults.len(),
                grad_evals: report.run.chains.iter().map(|c| c.grad_evals).sum(),
                summary,
                draws: report.run.chains.iter().map(|c| c.draws.clone()).collect(),
            }))
        }
        Err(e) => Outcome::Failed {
            faults: match &e {
                RunError::QuorumLost { faults, .. } => faults.len(),
                _ => 0,
            },
            message: format!("job '{}' failed: {e}", spec.name),
        },
    }
}

/// Resumes from the checkpoint log at `path` — its newest valid frame,
/// after which the run's frames are appended — or runs from the start,
/// its first frame starting a new log at the job's canonical path.
fn run_or_resume<S: Sampler>(
    runtime: &Runtime,
    sampler: &S,
    model: &dyn Model,
    cfg: &RunConfig,
    path: Option<&std::path::Path>,
) -> Result<RunReport, RunError> {
    match path {
        Some(path) => runtime.resume(sampler, model, cfg, path),
        None => runtime.run(sampler, model, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_sched::predictor::suite;

    #[test]
    fn grant_policy_fits_and_sizes() {
        // Cache-resident job: two cores per chain, capped at free.
        assert_eq!(grant(8, 100, 0, false, 2, 10, false), Some(4));
        assert_eq!(grant(3, 100, 0, false, 2, 10, false), Some(3));
        // LLC-bound job: one core per chain.
        assert_eq!(grant(8, 100, 0, false, 2, 10, true), Some(2));
        // No free cores — never fits.
        assert_eq!(grant(0, 100, 0, false, 2, 10, false), None);
        // Footprint sum over budget — wait.
        assert_eq!(grant(8, 100, 95, false, 2, 10, false), None);
        // Two LLC-bound jobs never co-reside.
        assert_eq!(grant(8, 100, 10, true, 2, 10, true), None);
        // ... but a cache-resident job may join an LLC-bound one.
        assert_eq!(grant(8, 100, 10, true, 2, 10, false), Some(4));
        // Footprint math saturates instead of wrapping.
        assert_eq!(
            grant(8, usize::MAX - 1, usize::MAX, false, 2, 10, false),
            None
        );
    }

    #[test]
    fn rejects_zero_shapes_and_unknown_workloads() {
        let server = JobServer::start(ServerConfig::new(4, suite()));
        let bad_shape = server.submit(JobSpec::new("empty", "12cities").with_chains(0));
        let bad_name = server.submit(JobSpec::new("typo", "13cities"));
        let bad_scales = [f64::NAN, 0.0, 2.0]
            .map(|scale| server.submit(JobSpec::new("bad-scale", "12cities").with_scale(scale)));
        for handle in [bad_shape, bad_name].into_iter().chain(bad_scales) {
            match handle.wait().outcome {
                crate::job::JobOutcome::Rejected(_) => {}
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        server.join();
    }

    #[test]
    fn finished_workers_are_joined_as_they_report() {
        let server = JobServer::start(ServerConfig::new(2, suite()));
        for i in 0..6 {
            let spec = JobSpec::new(format!("job-{i}"), "votes")
                .with_chains(1)
                .with_iters(20);
            let done = server.submit(spec).wait();
            assert!(matches!(done.outcome, crate::job::JobOutcome::Completed(_)));
            // The worker is joined before its job is settled, so by the
            // time the client has the outcome nothing of it is left.
            let status = server.status().expect("scheduler is running");
            assert_eq!((status.running, status.worker_threads), (0, 0), "job {i}");
        }
        server.join();
    }

    #[test]
    fn a_job_too_short_for_an_ess_reports_no_error_bars() {
        // Three iterations a chain leave too few draws for an ESS, so
        // the summary has neither a rank-R̂ nor an MCSE; the job
        // completes with both NaN rather than an error bar of `sd`.
        let server = JobServer::start(ServerConfig::new(2, suite()));
        let spec = JobSpec::new("short", "votes").with_chains(2).with_iters(3);
        let done = server.submit(spec).wait();
        let crate::job::JobOutcome::Completed(result) = done.outcome else {
            panic!("expected completion, got {:?}", done.outcome);
        };
        assert!(!result.summary.is_empty());
        for row in &result.summary {
            assert!(row.mean.is_finite(), "{row:?}");
            assert!(row.ess.is_nan() && row.rhat_rank.is_nan(), "{row:?}");
            assert!(row.mcse.is_nan(), "{row:?}");
        }
        server.join();
    }

    fn iteration(iter: u64) -> Event {
        Event::Iteration {
            chain: 0,
            iter,
            step_size: 0.1,
            tree_depth: 2,
            leapfrogs: 3,
            divergent: false,
            accept: 0.9,
        }
    }

    /// The events `handle` can take without waiting.
    fn ready(handle: &JobHandle) -> Vec<Event> {
        std::iter::from_fn(|| handle.rx.try_recv().ok())
            .map(|update| match update {
                JobUpdate::Event(event) => event,
                other => panic!("unexpected update {other:?}"),
            })
            .collect()
    }

    #[test]
    fn client_stream_batches_iterations_and_nothing_else() {
        let (tx, rx) = mpsc::channel();
        let handle = JobHandle { id: 1, rx };
        let (sched, _sched_rx) = mpsc::channel();
        let recorder = ClientRecorder {
            job: 1,
            stream: ClientStream::new(tx),
            sched: Mutex::new(sched),
            progress: Arc::default(),
            flight: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            fault_dump: std::env::temp_dir().join("bayes-serve-client-stream-test.jsonl"),
        };
        let mut recorded = Vec::new();
        let mut received = Vec::new();
        let record = |recorded: &mut Vec<Event>, event: Event| {
            recorder.record(&event);
            recorded.push(event);
        };

        // Events ahead of the first iteration pass straight through,
        // and so does the placement's first iteration.
        record(
            &mut recorded,
            Event::RunStart {
                model: "m".into(),
                chains: 1,
                iters: 400,
                seed: 7,
            },
        );
        record(&mut recorded, iteration(0));
        received.extend(ready(&handle));
        assert_eq!(received, recorded, "first iteration is not held");

        // A run of iterations faster than the window travels together:
        // the client cannot have all hundred unless every one of them
        // took a millisecond to record.
        for iter in 1..=100 {
            record(&mut recorded, iteration(iter));
        }
        received.extend(ready(&handle));
        assert!(received.len() < recorded.len(), "nothing was held");

        // An iteration recorded a window or more after the last one
        // that left at once leaves at once, with everything held.
        std::thread::sleep(2 * COALESCE);
        record(&mut recorded, iteration(101));
        received.extend(ready(&handle));
        assert_eq!(received, recorded, "a slow iteration is not held");

        // Any other event takes the held iterations with it, in order.
        record(&mut recorded, iteration(102));
        record(&mut recorded, iteration(103));
        record(
            &mut recorded,
            Event::CheckpointSaved {
                path: "p".into(),
                iter: 104,
                chains: 1,
            },
        );
        received.extend(ready(&handle));
        assert_eq!(received, recorded, "another event flushes");

        // So do `flush` and drop.
        record(&mut recorded, iteration(104));
        recorder.flush();
        received.extend(ready(&handle));
        assert_eq!(received, recorded, "flush delivers");
        record(&mut recorded, iteration(105));
        drop(recorder);
        // Through the blocking entry this time: the last event, then
        // the end of the stream.
        match handle.recv() {
            Some(JobUpdate::Event(event)) => received.push(event),
            other => panic!("unexpected update {other:?}"),
        }
        assert_eq!(received, recorded, "drop delivers");
        assert!(handle.recv().is_none());
    }

    #[test]
    fn recover_without_a_journal_is_an_error() {
        assert!(JobServer::recover(ServerConfig::new(4, suite())).is_err());
    }

    /// A journaled spec its builders would refuse fails its own job at
    /// recovery, journaled `failed`, and every other job recovers: an
    /// infinite threshold (journaled `null`, read back as NaN), a
    /// threshold of 1, a zero cadence, too short a warm-up, a zero
    /// streak, an unknown sampler, a NaN scale.
    #[test]
    fn a_spec_that_cannot_be_rebuilt_fails_alone_at_recovery() {
        let dir = std::env::temp_dir().join(format!("bayes-serve-bad-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join("wal.log");
        let good = SpecRecord::of(&JobSpec::new("good", "votes").with_chains(1).with_iters(20));
        let bad: [fn(&mut SpecRecord); 7] = [
            |s| s.threshold = f64::INFINITY,
            |s| s.threshold = 1.0,
            |s| s.check_every = 0,
            |s| s.min_iters = 3,
            |s| s.consecutive = 0,
            |s| s.sampler = "hmc".into(),
            |s| s.scale = f64::NAN,
        ];
        let mut journal = Journal::create(&wal).unwrap();
        for (job, spoil) in (1..).zip(bad) {
            let mut spec = good.clone();
            spoil(&mut spec);
            journal
                .append(&JournalRecord::Submitted { job, spec })
                .unwrap();
        }
        journal
            .append(&JournalRecord::Submitted { job: 8, spec: good })
            .unwrap();
        drop(journal);

        let cfg = ServerConfig::new(2, suite())
            .with_journal(&wal)
            .with_checkpoint_dir(dir.join("ckpt"));
        let (server, handles) = JobServer::recover(cfg).unwrap();
        assert_eq!(handles.len(), 8, "every submission replays");
        for handle in handles {
            let id = handle.id;
            match (id, handle.wait().outcome) {
                (8, crate::job::JobOutcome::Completed(_)) => {}
                (1..=7, crate::job::JobOutcome::Failed(msg)) => {
                    assert!(msg.contains("cannot be rebuilt"), "job {id}: {msg}")
                }
                (_, other) => panic!("job {id}: {other:?}"),
            }
        }
        server.join();
        let (_, replay) = Journal::open(&wal).unwrap();
        let failed: Vec<u64> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Failed { job } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(failed, [1, 2, 3, 4, 5, 6, 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
