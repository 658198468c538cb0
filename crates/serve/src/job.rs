//! Job requests, client-side handles, and the update stream.

use bayes_mcmc::summary::ParamSummary;
use bayes_mcmc::supervisor::FaultInjector;
use bayes_mcmc::ConvergenceDetector;
use bayes_obs::Event;
use bayes_suite::registry;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Which sampler a job runs under the supervisor. The kernel is all
/// it picks: every job is checkpointed, preemptible and recoverable
/// the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// The No-U-Turn Sampler.
    Nuts,
    /// Random-walk Metropolis–Hastings.
    Mh,
}

/// One inference job request: workload × scale × sampler × run shape.
///
/// The spec is the job's identity across placements — a preempted job
/// is resumed from its checkpoint under the *same* spec, which is what
/// makes the resumed draws bit-identical (the supervisor validates the
/// run shape against the checkpoint).
#[derive(Clone)]
pub struct JobSpec {
    /// Client-supplied label, free-form (appears in `job_submitted`).
    pub name: String,
    /// Registry workload name (`"12cities"`, `"ad"`, …).
    pub workload: String,
    /// Data scale: a number above 0 and at most the largest of the
    /// registry's declared scales. The server refuses any other.
    pub scale: f64,
    /// Chains to run.
    pub chains: usize,
    /// Iterations per chain.
    pub iters: usize,
    /// Base RNG seed (chain streams derive from it).
    pub seed: u64,
    /// Scheduling priority; higher preempts lower.
    pub priority: u8,
    /// Sampler the supervisor drives.
    pub sampler: SamplerKind,
    /// Convergence detector for early stopping; its checkpoint
    /// schedule doubles as the set of legal preemption boundaries.
    pub detector: ConvergenceDetector,
    /// Minimum surviving chains before the job fails (`None` keeps the
    /// supervisor default).
    pub min_quorum: Option<usize>,
    /// Wall-clock budget from admission, all placements and queue time
    /// included; an over-deadline job terminates with
    /// [`JobOutcome::Expired`]. `None` means no deadline. After a
    /// crash recovery the clock restarts — the journal records no wall
    /// time, so the budget is per server incarnation.
    pub deadline: Option<Duration>,
    /// Extra placements the scheduler may grant after a failed run
    /// before declaring the job failed (the restart budget).
    pub restarts: u32,
    /// Base delay before a restarted placement becomes eligible;
    /// doubles per consumed restart, capped at 2 s.
    pub backoff: Duration,
    /// Deterministic fault injector applied to every placement of this
    /// job (tests and smoke runs); `None` in production. Faults stream
    /// on the job's own update channel and never touch co-resident
    /// jobs.
    pub injector: Option<Arc<dyn FaultInjector>>,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("workload", &self.workload)
            .field("scale", &self.scale)
            .field("chains", &self.chains)
            .field("iters", &self.iters)
            .field("seed", &self.seed)
            .field("priority", &self.priority)
            .field("sampler", &self.sampler)
            .field("min_quorum", &self.min_quorum)
            .field("deadline", &self.deadline)
            .field("restarts", &self.restarts)
            .field("backoff", &self.backoff)
            .field("injector", &self.injector.is_some())
            .finish()
    }
}

impl JobSpec {
    /// A job over `workload` with conservative defaults: quarter
    /// scale, 2 chains, 200 iterations, seed 42, priority 1, NUTS.
    pub fn new(name: impl Into<String>, workload: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workload: workload.into(),
            scale: 0.25,
            chains: 2,
            iters: 200,
            seed: 42,
            priority: 1,
            sampler: SamplerKind::Nuts,
            detector: ConvergenceDetector::new(),
            min_quorum: None,
            deadline: None,
            restarts: 0,
            backoff: Duration::from_millis(50),
            injector: None,
        }
    }

    /// Sets the data scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the chain count.
    pub fn with_chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Sets iterations per chain.
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.iters = iters;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority (higher preempts lower).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Selects the sampler.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Replaces the convergence detector.
    pub fn with_detector(mut self, detector: ConvergenceDetector) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the chain quorum the job fails below.
    pub fn with_min_quorum(mut self, quorum: usize) -> Self {
        self.min_quorum = Some(quorum);
        self
    }

    /// Sets a wall-clock deadline measured from admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Grants `restarts` extra placements after failed runs.
    pub fn with_restarts(mut self, restarts: u32) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the base restart backoff (doubles per restart, capped).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Attaches a deterministic fault injector to every placement.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// Refuses a data scale that is NaN, infinite, zero or negative, or
/// above the largest of [`registry::SCALES`]. The server checks this
/// before it asks the registry for the workload: generating the data
/// is what a huge scale would make expensive, and the LLC-budget check
/// can only run after it.
///
/// # Errors
///
/// A description of the refused scale.
pub(crate) fn check_scale(scale: f64) -> Result<(), String> {
    let largest = registry::SCALES.iter().copied().fold(0.0, f64::max);
    if scale > 0.0 && scale <= largest {
        Ok(())
    } else {
        Err(format!("data scale {scale} is not in (0, {largest}]"))
    }
}

/// Final result of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Server-assigned job id.
    pub job: u64,
    /// Stop decision of the convergence monitor, if any.
    pub stopped_at: Option<usize>,
    /// Iterations executed per chain (max over survivors).
    pub iters_done: usize,
    /// True when the job finished without its full chain complement.
    pub degraded: bool,
    /// Indices of the surviving chains.
    pub survivors: Vec<usize>,
    /// Faults observed across all of the job's placements.
    pub faults: usize,
    /// Gradient evaluations across surviving chains.
    pub grad_evals: u64,
    /// Posterior summary rows, one per parameter.
    pub summary: Vec<ParamSummary>,
    /// Full draws per surviving chain (warmup included) — what the
    /// bit-identity guarantees are stated over.
    pub draws: Vec<Vec<Vec<f64>>>,
}

/// One message on a job's client stream, in server order.
#[derive(Debug, Clone)]
pub enum JobUpdate {
    /// A `bayes_obs` event from the job's runs or lifecycle
    /// (iterations, convergence checkpoints, faults, `job_*` rows).
    Event(Event),
    /// The job was paused at a checkpoint boundary to make room for a
    /// higher-priority job; `summary` covers the draws so far.
    Preempted {
        /// Boundary the pause committed at.
        at: usize,
        /// Job id of the preemptor.
        by: u64,
        /// Partial posterior summary over `[0, at)`.
        summary: Vec<ParamSummary>,
    },
    /// Terminal: the job finished.
    Completed(Box<JobResult>),
    /// Terminal: the job failed (e.g. chain quorum lost).
    Failed(String),
    /// Terminal: admission refused the job (unknown workload, zero
    /// shape, or a working set over the server's LLC budget).
    Rejected(String),
    /// Terminal: the job's wall-clock deadline passed before it
    /// finished; partial work stays on disk but no result is returned.
    Expired(String),
    /// Terminal: the server shed the job under overload — either at
    /// admission, or later from the pending queue to make room for a
    /// higher-priority submission.
    Shed(String),
    /// Terminal: the server went away (crash, kill, or drop) before
    /// the job reached any other terminal state. A journaling server
    /// can be recovered with [`crate::JobServer::recover`], which
    /// re-issues handles for every job that ended this way.
    ServerLost,
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Finished; the full result.
    Completed(Box<JobResult>),
    /// Failed after admission.
    Failed(String),
    /// Refused at admission.
    Rejected(String),
    /// Deadline passed before completion.
    Expired(String),
    /// Dropped under overload.
    Shed(String),
    /// The server crashed or shut down with the job still live.
    ServerLost,
}

/// Everything a job streamed plus its terminal outcome, as collected
/// by [`JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Server-assigned job id.
    pub id: u64,
    /// Every event the job streamed, in order.
    pub events: Vec<Event>,
    /// Each preemption the job survived: `(boundary, preemptor id)`.
    pub preemptions: Vec<(usize, u64)>,
    /// Terminal outcome.
    pub outcome: JobOutcome,
}

/// Client side of one submitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// Server-assigned job id.
    pub id: u64,
    pub(crate) rx: mpsc::Receiver<JobUpdate>,
}

impl JobHandle {
    /// Blocks for the next update; `None` once the stream is closed
    /// after a terminal update.
    pub fn recv(&self) -> Option<JobUpdate> {
        self.rx.recv().ok()
    }

    /// Drains the stream to its terminal update, collecting events and
    /// preemption points along the way.
    ///
    /// A closed stream without a terminal update (a race against server
    /// teardown) reports as [`JobOutcome::ServerLost`], the same
    /// outcome the scheduler sends explicitly on crash or drop — every
    /// handle is guaranteed a terminal outcome either way.
    pub fn wait(self) -> CompletedJob {
        let mut events = Vec::new();
        let mut preemptions = Vec::new();
        let mut outcome = None;
        while let Ok(update) = self.rx.recv() {
            match update {
                JobUpdate::Event(ev) => events.push(ev),
                JobUpdate::Preempted { at, by, .. } => preemptions.push((at, by)),
                JobUpdate::Completed(r) => outcome = Some(JobOutcome::Completed(r)),
                JobUpdate::Failed(msg) => outcome = Some(JobOutcome::Failed(msg)),
                JobUpdate::Rejected(msg) => outcome = Some(JobOutcome::Rejected(msg)),
                JobUpdate::Expired(msg) => outcome = Some(JobOutcome::Expired(msg)),
                JobUpdate::Shed(msg) => outcome = Some(JobOutcome::Shed(msg)),
                JobUpdate::ServerLost => outcome = Some(JobOutcome::ServerLost),
            }
        }
        CompletedJob {
            id: self.id,
            events,
            preemptions,
            outcome: outcome.unwrap_or(JobOutcome::ServerLost),
        }
    }
}
