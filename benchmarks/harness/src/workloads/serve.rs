//! `serve_mix`: the job server under a closed loop of two clients, with
//! one kill/recover cycle and one preemption per round.
//!
//! This workload uses `bayes-mcmc` differently from the two NUTS
//! workloads — through the supervisor, in checkpointed segments, with
//! every iteration encoded and streamed to the client — and it reads
//! back what it wrote (journal replay, checkpoint decode on resume and
//! recovery), so a sampler or codec gain that costs the supervised,
//! resumed or decode path shows here and nowhere else.
//!
//! A round is, in order:
//!
//! 1. **closed loop** — two client threads each submit six small
//!    one-chain NUTS jobs to the long-lived main server, the next only
//!    after the previous one's terminal update (a caller that waits
//!    for its reply; a slow server receives less load);
//! 2. **kill/recover** — a side server with its own journal and
//!    checkpoint directory runs one longer job to its first durable
//!    checkpoint, is `kill()`ed, and is `recover()`ed; the job resumes
//!    and completes;
//! 3. **preemption** — a low-priority job occupies the main server,
//!    a high-priority arrival preempts it at the next checkpoint
//!    boundary, both complete.
//!
//! All fifteen jobs count as work; turnaround is taken over the twelve
//! closed-loop jobs only.

use crate::engine::{digest_draws, mix, Env, SplitMix, UnitOutput, Workload};
use crate::spans::{SpanGuard, SpanId, Tracer};
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::supervisor::{Runtime, SupervisorConfig};
use bayes_mcmc::{ConvergenceDetector, RunConfig};
use bayes_obs::{Event, MemoryRecorder, RecorderHandle, TelemetryHandle, TelemetrySampler};
use bayes_sched::predictor::MissSample;
use bayes_sched::LlcMissPredictor;
use bayes_serve::{JobHandle, JobServer, JobSpec, JobUpdate, ServerConfig};
use bayes_suite::registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cores the server schedules over: the host's two.
pub const CORES: usize = 2;
const CLIENTS: usize = 2;
const JOBS_PER_CLIENT: usize = 6;
const LOOP_ITERS: usize = 400;
/// The closed-loop mix. `12cities` (a tape cell, ~25× the cost of the
/// sufficient-statistics trio) appears once in twelve, so the slow mode
/// it creates — itself and the tenant that queues behind it — stays
/// well clear of the median turnaround.
const MIX: [&str; CLIENTS * JOBS_PER_CLIENT] = [
    "votes", "memory", "survival", "votes", "memory", "12cities", "survival", "votes", "memory",
    "survival", "votes", "memory",
];
/// Distinct job-seed sets (units).
const SEED_SETS: usize = 4;

/// Checkpoint cadence of every job: full-length runs (the threshold is
/// unreachable), checked and checkpointed every 50 iterations, which
/// are also the legal preemption boundaries.
pub fn detector() -> ConvergenceDetector {
    ConvergenceDetector::new()
        .with_threshold(1.0 + 1e-12)
        .with_check_every(50)
        .with_min_iters(50)
}

/// Predictor whose LLC threshold lies far above every study-scale
/// working set: every job is cache-resident and is granted two cores
/// per chain — so a one-chain job holds the whole two-core server and
/// a second tenant queues behind it (see README.md, findings).
pub fn predictor() -> LlcMissPredictor {
    LlcMissPredictor::fit(&[
        MissSample {
            data_bytes: 4 << 20,
            mpki: 0.2,
        },
        MissSample {
            data_bytes: 64 << 20,
            mpki: 12.0,
        },
    ])
}

/// A small one-chain NUTS job.
pub fn job(name: String, workload: &str, iters: usize, seed: u64, priority: u8) -> JobSpec {
    JobSpec::new(name, workload)
        .with_chains(1)
        .with_iters(iters)
        .with_seed(seed)
        .with_priority(priority)
        .with_detector(detector())
}

/// The same job run in isolation, under the supervisor with
/// checkpointing on (checkpointing segments the RNG streams, so it is
/// part of a served job's identity). Returns the digest a served copy
/// of the job must reproduce: its draws, then its gradient count.
pub fn isolated_digest(workload: &str, iters: usize, seed: u64, scratch: &Path) -> u64 {
    let wl = registry::workload(workload, 0.25, seed).expect("registry workload");
    let cfg = RunConfig::new(iters)
        .with_chains(1)
        .with_seed(seed)
        .with_core_allotment(CORES);
    let ckpt = scratch.join(format!("isolated-{workload}-{seed}.ckpt.json"));
    let report = Runtime::new(detector())
        .with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_checkpoint_path(&ckpt),
        )
        .run(&Nuts::default(), wl.dynamics_model(), &cfg)
        .expect("isolated supervised run");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(bayes_mcmc::checkpoint::previous_checkpoint_path(&ckpt));
    let grad_evals: u64 = report.run.chains.iter().map(|c| c.grad_evals).sum();
    let draws: Vec<Vec<Vec<f64>>> = report.run.chains.into_iter().map(|c| c.draws).collect();
    mix(digest_draws(0, &draws), grad_evals)
}

/// Client-side record of one job, clocked as its updates arrived.
pub struct JobTrack {
    pub name: String,
    pub submitted: Instant,
    pub placed: Option<Instant>,
    pub first_draw: Option<Instant>,
    pub last_draw: Option<Instant>,
    pub done: Instant,
    pub completed: bool,
    pub preemptions: usize,
    pub resumed: bool,
    pub digest: u64,
    pub grad_evals: u64,
    pub outcome: String,
}

impl JobTrack {
    pub fn turnaround_s(&self) -> f64 {
        (self.done - self.submitted).as_secs_f64()
    }
}

/// Follows a job's update stream until its terminal update, or until
/// `until` accepts an update (the caller wants to act at that event
/// and will call again to continue). `track.done` is the arrival time
/// of the update that ended the call.
pub fn follow(handle: &JobHandle, track: &mut JobTrack, until: impl Fn(&JobUpdate) -> bool) {
    loop {
        let Some(update) = handle.recv() else {
            track.outcome = "stream closed without a terminal update".into();
            track.done = Instant::now();
            return;
        };
        track.done = Instant::now();
        let stop = until(&update);
        match update {
            JobUpdate::Event(Event::JobPlaced { resumed_from, .. }) => {
                track.placed.get_or_insert(track.done);
                track.resumed |= resumed_from.is_some();
            }
            JobUpdate::Event(Event::Iteration { .. }) => {
                track.first_draw.get_or_insert(track.done);
                track.last_draw = Some(track.done);
            }
            JobUpdate::Event(_) => {}
            JobUpdate::Preempted { .. } => track.preemptions += 1,
            JobUpdate::Completed(result) => {
                track.completed = true;
                track.grad_evals = result.grad_evals;
                track.digest = mix(digest_draws(0, &result.draws), result.grad_evals);
                track.outcome = "completed".into();
            }
            JobUpdate::Failed(m) => track.outcome = format!("failed: {m}"),
            JobUpdate::Rejected(m) => track.outcome = format!("rejected: {m}"),
            JobUpdate::Expired(m) => track.outcome = format!("expired: {m}"),
            JobUpdate::Shed(m) => track.outcome = format!("shed: {m}"),
            JobUpdate::ServerLost => track.outcome = "server lost".into(),
        }
        // Every terminal update sets `outcome`.
        if stop || !track.outcome.is_empty() {
            return;
        }
    }
}

fn new_track(name: &str, submitted: Instant) -> JobTrack {
    JobTrack {
        name: name.to_string(),
        submitted,
        placed: None,
        first_draw: None,
        last_draw: None,
        done: submitted,
        completed: false,
        preemptions: 0,
        resumed: false,
        digest: 0,
        grad_evals: 0,
        outcome: String::new(),
    }
}

/// Submits a job and follows it to its terminal update.
pub fn submit_and_wait(server: &JobServer, spec: JobSpec) -> JobTrack {
    let name = spec.name.clone();
    let submitted = Instant::now();
    let handle = server.submit(spec);
    let mut track = new_track(&name, submitted);
    follow(&handle, &mut track, |_| false);
    track
}

/// Lays a finished job's phases under `parent` as spans: queueing and
/// start-up and completion are the server's, the stretch between the
/// first and last streamed draw is the supervised sampler's.
pub fn job_spans(tracer: &Tracer, parent: Option<SpanId>, round: u64, weight: f64, t: &JobTrack) {
    let Some(job) = tracer.closed("serve.job", parent, round, weight, t.submitted, t.done) else {
        return;
    };
    if let (Some(first), Some(last)) = (t.first_draw, t.last_draw) {
        tracer.closed("mcmc.supervised_run", Some(job), round, weight, first, last);
    }
}

/// One kill/recover cycle on a side server under `dir`. Returns the
/// recovered job's track and the seconds from the `recover()` call to
/// the first resumed draw.
pub fn recovery_cycle(dir: &Path, spec: JobSpec) -> (JobTrack, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create side-server directory");
    let config = || {
        ServerConfig::new(CORES, predictor())
            .with_checkpoint_dir(dir)
            .with_journal(dir.join("journal.wal"))
    };
    let name = spec.name.clone();
    let submitted = Instant::now();
    let server = JobServer::start(config());
    let handle = server.submit(spec);
    let mut before = new_track(&name, submitted);
    follow(&handle, &mut before, |u| {
        matches!(u, JobUpdate::Event(Event::CheckpointSaved { .. }))
    });
    server.kill();
    drop(handle);

    let recover_at = Instant::now();
    let (server, handles) = JobServer::recover(config()).expect("recover from the journal");
    let mut track = new_track(&name, submitted);
    let mut recover_s = f64::NAN;
    match handles.into_iter().next() {
        Some(handle) => {
            follow(&handle, &mut track, |u| {
                matches!(u, JobUpdate::Event(Event::Iteration { .. }))
            });
            recover_s = (track.done - recover_at).as_secs_f64();
            if track.outcome.is_empty() {
                follow(&handle, &mut track, |_| false);
            }
        }
        None => track.outcome = "recover() returned no live job".into(),
    }
    server.join();
    let _ = std::fs::remove_dir_all(dir);
    (track, recover_s)
}

/// One preemption on `server`: a low-priority victim is running when a
/// high-priority job arrives. Returns both tracks and the seconds from
/// the arrival's submission to its placement.
pub fn preemption_cycle(
    server: &JobServer,
    victim: JobSpec,
    urgent: JobSpec,
) -> (JobTrack, JobTrack, f64) {
    let victim_name = victim.name.clone();
    let victim_at = Instant::now();
    let victim_handle = server.submit(victim);
    let mut victim_track = new_track(&victim_name, victim_at);
    follow(&victim_handle, &mut victim_track, |u| {
        matches!(u, JobUpdate::Event(Event::Iteration { .. }))
    });
    let urgent_name = urgent.name.clone();
    let urgent_at = Instant::now();
    let urgent_handle = server.submit(urgent);
    let mut urgent_track = new_track(&urgent_name, urgent_at);
    follow(&urgent_handle, &mut urgent_track, |u| {
        matches!(u, JobUpdate::Event(Event::JobPlaced { .. }))
    });
    let pause_s = (urgent_track.done - urgent_at).as_secs_f64();
    if urgent_track.outcome.is_empty() {
        follow(&urgent_handle, &mut urgent_track, |_| false);
    }
    if victim_track.outcome.is_empty() {
        follow(&victim_handle, &mut victim_track, |_| false);
    }
    (victim_track, urgent_track, pause_s)
}

/// Jobs the workload keeps for `verify`: `(workload, iters, seed,
/// served digest)`.
type Sample = (&'static str, usize, u64, u64);

static INSTANCE: AtomicU64 = AtomicU64::new(0);

pub struct ServeMix {
    dir: PathBuf,
    server: Option<JobServer>,
    /// The server's own trace sink (traced runs): every lifecycle and
    /// telemetry event lands here, which is the recording cost the
    /// traced/untraced ratio prices.
    trace: Option<Arc<MemoryRecorder>>,
    cycles: u64,
    samples: Vec<Sample>,
}

const RECOVER_ITERS: usize = 150;
const VICTIM_ITERS: usize = 150;
const URGENT_ITERS: usize = 100;

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    // One sampling thread at a time does the work (a one-chain job
    // holds the whole server); clients and scheduler mostly wait.
    const LOAD_THREADS: usize = 1;
    // About a third of a round is clients and scheduler waiting for the
    // server's 20 ms poll, which no neighbour slows.
    const HOST_ELASTICITY: f64 = 0.7;

    fn build(env: &Env, traced: bool) -> Self {
        let dir = env.scratch.join(format!(
            "serve-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let main = dir.join("main");
        std::fs::create_dir_all(&main).expect("create server directory");
        let mut config = ServerConfig::new(CORES, predictor())
            .with_checkpoint_dir(&main)
            .with_journal(main.join("journal.wal"));
        let trace = traced.then(|| Arc::new(MemoryRecorder::new()));
        if let Some(trace) = &trace {
            let sink = RecorderHandle::new(trace.clone());
            config = config
                .with_trace(sink.clone())
                .with_telemetry(TelemetryHandle::new(TelemetrySampler::new(sink)));
        }
        Self {
            dir,
            server: Some(JobServer::start(config)),
            trace,
            cycles: 0,
            samples: Vec::new(),
        }
    }

    fn units(&self) -> usize {
        SEED_SETS
    }

    fn run_unit(
        &mut self,
        unit: usize,
        order: u64,
        tracer: &Tracer,
        round: &SpanGuard<'_>,
        id: u64,
    ) -> UnitOutput {
        let server = self.server.as_ref().expect("server is running");
        let base = 1000 + 100 * unit as u64;
        let mut tracks: Vec<JobTrack> = Vec::new();
        let mut out = UnitOutput::default();

        // 1. Closed loop. The job *set* is fixed per unit; `order`
        // decides which client submits which job and when.
        let mut jobs: Vec<(usize, &'static str)> = MIX.iter().copied().enumerate().collect();
        SplitMix(order ^ (unit as u64).wrapping_mul(0x9e37_79b9)).shuffle(&mut jobs);
        let phase_start = Instant::now();
        {
            let span = tracer.open("serve.closed_loop", round.id(), id, 1.0);
            let parent = span.id();
            let lanes: Vec<Vec<JobTrack>> = std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .chunks(JOBS_PER_CLIENT)
                    .map(|mine| {
                        s.spawn(move || {
                            mine.iter()
                                .map(|&(slot, workload)| {
                                    let spec = job(
                                        format!("u{unit}-loop-{slot:02}"),
                                        workload,
                                        LOOP_ITERS,
                                        base + slot as u64,
                                        1,
                                    );
                                    let t = submit_and_wait(server, spec);
                                    job_spans(tracer, parent, id, 1.0 / CLIENTS as f64, &t);
                                    t
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for t in lanes.into_iter().flatten() {
                out.latencies_s.push(t.turnaround_s());
                if let Some(first) = t.first_draw {
                    out.side_s
                        .push(("first_draw", (first - t.submitted).as_secs_f64()));
                }
                tracks.push(t);
            }
        }

        out.side_s
            .push(("closed_loop", phase_start.elapsed().as_secs_f64()));

        // 2. Kill/recover on a side server.
        let phase_start = Instant::now();
        self.cycles += 1;
        let recover_seed = base + 50;
        {
            let span = tracer.open("serve.recovery_cycle", round.id(), id, 1.0);
            let side = self.dir.join(format!("side-{}", self.cycles));
            let spec = job(
                format!("u{unit}-recover"),
                "racial",
                RECOVER_ITERS,
                recover_seed,
                1,
            );
            let (t, recover_s) = recovery_cycle(&side, spec);
            if let (Some(first), Some(last)) = (t.first_draw, t.last_draw) {
                tracer.closed("mcmc.supervised_run", span.id(), id, 1.0, first, last);
            }
            if !t.resumed {
                out.fail(format!(
                    "{}: recovered job restarted instead of resuming a checkpoint",
                    t.name
                ));
            }
            if recover_s.is_finite() {
                out.side_s.push(("recover", recover_s));
            }
            tracks.push(t);
        }

        out.side_s
            .push(("recovery_cycle", phase_start.elapsed().as_secs_f64()));

        // 3. Preemption on the main server.
        let phase_start = Instant::now();
        let victim_seed = base + 60;
        {
            let span = tracer.open("serve.preempt_cycle", round.id(), id, 1.0);
            let victim = job(
                format!("u{unit}-victim"),
                "racial",
                VICTIM_ITERS,
                victim_seed,
                0,
            );
            let urgent = job(
                format!("u{unit}-urgent"),
                "votes",
                URGENT_ITERS,
                base + 61,
                5,
            );
            let (v, u, pause_s) = preemption_cycle(server, victim, urgent);
            // The urgent job runs inside the victim's pause, so the
            // victim's first-to-last-draw stretch covers both.
            if let (Some(first), Some(last)) = (v.first_draw, v.last_draw) {
                tracer.closed("mcmc.supervised_run", span.id(), id, 1.0, first, last);
            }
            if v.preemptions == 0 {
                out.fail(format!("{}: finished without being preempted", v.name));
            }
            out.side_s.push(("preempt_pause", pause_s));
            tracks.push(v);
            tracks.push(u);
        }

        out.side_s
            .push(("preempt_cycle", phase_start.elapsed().as_secs_f64()));

        // The server's own trace is consumed every round, as a live
        // consumer would; nothing in it feeds the metrics.
        if let Some(trace) = &self.trace {
            trace.take();
        }

        tracks.sort_by(|a, b| a.name.cmp(&b.name));
        let mut digest = unit as u64;
        let mut grad_evals = 0u64;
        for t in &tracks {
            out.ops += 1;
            if t.completed {
                out.work += 1.0;
                digest = mix(digest, t.digest);
                grad_evals += t.grad_evals;
            } else {
                out.fail(format!("{}: {}", t.name, t.outcome));
            }
        }
        out.digest = digest;
        out.steps = grad_evals;

        if unit == 0 && self.samples.is_empty() {
            let by_name = |n: &str| tracks.iter().find(|t| t.name == n).map(|t| t.digest);
            let first_loop = MIX[0];
            for (name, workload, iters, seed) in [
                ("u0-loop-00", first_loop, LOOP_ITERS, base),
                ("u0-recover", "racial", RECOVER_ITERS, recover_seed),
                ("u0-victim", "racial", VICTIM_ITERS, victim_seed),
            ] {
                if let Some(d) = by_name(name) {
                    self.samples.push((workload, iters, seed, d));
                }
            }
        }
        out
    }

    /// A served job, the recovered job and the preempted job must each
    /// equal an isolated supervised run of the same spec bit for bit.
    fn verify(&mut self, _env: &Env) -> Vec<String> {
        let mut failures = Vec::new();
        if self.samples.len() != 3 {
            failures.push(
                "unit 0 never ran, so no served job was compared with an isolated run".to_string(),
            );
        }
        for &(workload, iters, seed, served) in &self.samples {
            let alone = isolated_digest(workload, iters, seed, &self.dir);
            if alone != served {
                failures.push(format!(
                    "{workload} seed {seed}: served draws {served:016x} differ from the isolated run {alone:016x}"
                ));
            }
        }
        failures
    }

    fn finish(mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
