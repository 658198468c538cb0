//! serve_sim: synthetic multi-tenant job mix on the inference server.
//!
//! Drives `bayes_serve::JobServer` with concurrent heterogeneous jobs
//! — different workloads, priorities, and samplers — on a small core
//! budget, so the run demonstrates the full serving lifecycle:
//! predictor-driven admission and placement, priority preemption with
//! a bit-exact pause/resume, and per-job event streaming.
//!
//! Modes (`bayes serve_sim --help` lists the flags):
//!
//! * default — run the four-job mix to completion and self-validate
//!   the lifecycle (admission, preemption, resume, completion);
//! * `--state-dir <dir> --kill-after-ms <T>` — run the mix durably
//!   (journal + checkpoints under `<dir>`), then kill the server
//!   mid-flight after `T` ms, leaving the crash state on disk;
//! * `--state-dir <dir> --recover` — recover the killed server from
//!   `<dir>`, wait for the recovered jobs, and assert each one's
//!   draws are bit-identical to a fresh isolated run of the same
//!   spec (the paper's reproducibility bar survives a process crash);
//! * `--policy-demo` — exercise overload shedding (bounded queue,
//!   priority-aware victim selection) and a running-job deadline
//!   expiry, validating the typed outcomes and their trace events.
//!
//! `--trace` writes the server's `job_*` lifecycle events as JSONL
//! (`trace_report` prints them as a jobs section). `--telemetry`
//! attaches a server-side [`TelemetrySampler`] so the trace carries
//! periodic `metrics_sample` events (`serve_top` renders them live).
//! `--inject-fault` panics one chain of the votes batch job mid-run;
//! the retry absorbs it, and the server dumps the job's flight
//! recorder to `<checkpoint_dir>/job-<id>-flight-chain_fault.jsonl`.
//! Every mode validates its own run and exits 1 otherwise, so CI can
//! run each as a check.

use super::{draws_bits_equal, Args, ExitCode, PanicOnce};
use crate::banner;
use bayes_mcmc::ConvergenceDetector;
use bayes_obs::{
    Event, MemoryRecorder, Recorder, RecorderHandle, TelemetryHandle, TelemetrySampler,
};
use bayes_sched::predictor::suite;
use bayes_serve::{JobHandle, JobOutcome, JobServer, JobSpec, SamplerKind, ServerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Records into an in-memory buffer (for self-validation) and the
/// `--trace` sink (for `trace_report`) at once.
struct Tee {
    memory: Arc<MemoryRecorder>,
    file: RecorderHandle,
}

impl Recorder for Tee {
    fn record(&self, event: &Event) {
        self.memory.record(event);
        self.file.record(event.clone());
    }
    fn flush(&self) {
        self.file.flush();
    }
}

/// A detector whose threshold is unreachable: jobs run their full
/// iteration budget, so the preemption window is deterministic, while
/// the checkpoint schedule still provides pause boundaries every 20
/// iterations.
fn full_length_detector() -> ConvergenceDetector {
    ConvergenceDetector::new()
        .with_threshold(1.0 + 1e-12)
        .with_check_every(20)
        .with_min_iters(20)
}

/// The job mix, in submission order (server ids 1..=4). The MH job is
/// placed first and fills the box, so the urgent job preempts it: an MH
/// job has a checkpoint to resume from almost at once, which is what a
/// `--kill-after-ms` strike leaves `--recover`. `durable` scales the
/// iteration budgets up so the strike reliably lands while jobs are
/// still in flight.
fn mix(durable: bool) -> Vec<JobSpec> {
    let scale = if durable { 8 } else { 1 };
    vec![
        JobSpec::new("mh-butterfly", "butterfly")
            .with_iters(400 * scale)
            .with_priority(2)
            .with_seed(13)
            .with_sampler(SamplerKind::Mh)
            .with_detector(full_length_detector()),
        JobSpec::new("batch-votes", "votes")
            .with_iters(160 * scale)
            .with_priority(1)
            .with_seed(12)
            .with_detector(full_length_detector()),
        JobSpec::new("batch-12cities", "12cities")
            .with_iters(240 * scale)
            .with_priority(1)
            .with_seed(11)
            .with_detector(full_length_detector()),
        JobSpec::new("urgent-ad", "ad")
            .with_iters(120 * scale)
            .with_priority(5)
            .with_seed(14)
            .with_detector(full_length_detector()),
    ]
}

/// How many of `events` match `pred`.
fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

/// Builds the durable server config over `dir`: checkpoints in the
/// directory, journal at `<dir>/journal.wal`.
fn durable_config(cores: usize, dir: &Path, trace: RecorderHandle) -> ServerConfig {
    ServerConfig::new(cores, suite())
        .with_llc_budget(8 * 1024 * 1024)
        .with_trace(trace)
        .with_checkpoint_dir(dir)
        .with_journal(dir.join("journal.wal"))
}

/// The flag combinations `run` refuses.
pub fn check(args: &Args) -> Result<(), String> {
    let (kill, recover) = (args.has("--kill-after-ms"), args.has("--recover"));
    if (kill || recover) && !args.has("--state-dir") {
        return Err("--kill-after-ms and --recover require --state-dir <dir>".into());
    }
    if kill && recover {
        return Err("--kill-after-ms and --recover are mutually exclusive".into());
    }
    Ok(())
}

pub fn run(args: &Args) -> ExitCode {
    let cores = args.number("--cores").map_or(4, |n| n as usize);
    let state_dir = args.value("--state-dir").map(Path::new);
    let kill_after_ms = args.number("--kill-after-ms");
    let recover = args.has("--recover");
    banner(
        "Job server simulation",
        "Concurrent heterogeneous jobs with predictor-driven placement and preemption.",
    );

    let memory = Arc::new(MemoryRecorder::new());
    let trace = RecorderHandle::new(Arc::new(Tee {
        memory: memory.clone(),
        file: args.trace.clone(),
    }));

    let ok = match (state_dir, kill_after_ms) {
        _ if args.has("--policy-demo") => run_policy_demo(&memory, trace),
        (Some(dir), Some(kill_ms)) => {
            run_kill(cores, dir, kill_ms, trace);
            return ExitCode::SUCCESS; // run_kill prints its own marker
        }
        (Some(dir), None) if recover => run_recover(cores, dir, &memory, trace),
        _ => run_mix(args, cores, &memory, trace),
    };
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("PASS");
    ExitCode::SUCCESS
}

/// A server-side telemetry sampler on a cadence fast enough for the
/// short simulated mix (the scheduler wakes for the sampler's own
/// interval, so 25 ms yields a steady sample stream).
fn telemetry_sampler(trace: RecorderHandle) -> TelemetryHandle {
    TelemetryHandle::new(TelemetrySampler::new(trace).with_wall_interval(Duration::from_millis(25)))
}

/// Default mode: the full mix to completion, self-validated.
fn run_mix(args: &Args, cores: usize, memory: &MemoryRecorder, trace: RecorderHandle) -> bool {
    let mut cfg = match args.value("--state-dir") {
        Some(dir) => durable_config(cores, Path::new(dir), trace.clone()),
        None => ServerConfig::new(cores, suite())
            .with_llc_budget(8 * 1024 * 1024)
            .with_trace(trace.clone()),
    };
    if args.has("--telemetry") {
        cfg = cfg.with_telemetry(telemetry_sampler(trace.clone()));
    }
    let checkpoint_dir = cfg.checkpoint_dir.clone();
    let server = JobServer::start(cfg);

    // The mix: an MH job that fills the box, two low-priority batch
    // jobs queued behind it, then a high-priority job that must preempt
    // the MH job to get on.
    let mut specs = mix(false);
    if args.has("--inject-fault") {
        // The votes batch job (server id 2) takes the chain panic; one
        // retry absorbs it, and the fault dumps the flight recorder.
        specs[1] = specs[1].clone().with_injector(Arc::new(PanicOnce));
    }
    let handles: Vec<JobHandle> = specs.into_iter().map(|s| server.submit(s)).collect();

    let mut ok = true;
    let mut total_faults = 0usize;
    for handle in handles {
        let job = handle.wait();
        match &job.outcome {
            JobOutcome::Completed(result) => {
                total_faults += result.faults;
                println!(
                    "job {} completed: {} iters, {} grad evals, {} preemption(s), degraded={}",
                    job.id,
                    result.iters_done,
                    result.grad_evals,
                    job.preemptions.len(),
                    result.degraded
                );
                if result.degraded {
                    eprintln!("FAIL: job {} degraded in a fault-free mix", job.id);
                    ok = false;
                }
            }
            other => {
                eprintln!("FAIL: job {} did not complete: {other:?}", job.id);
                ok = false;
            }
        }
    }

    // The fault dump is written while the job runs and the default
    // checkpoint dir is removed on join, so validate it first.
    if args.has("--inject-fault") {
        let dump = checkpoint_dir.join("job-2-flight-chain_fault.jsonl");
        match std::fs::read_to_string(&dump) {
            Ok(text) if text.lines().any(|l| l.contains("\"chain_fault\"")) => {
                println!(
                    "flight dump: {} ({} events)",
                    dump.display(),
                    text.lines().count()
                );
            }
            Ok(_) => {
                eprintln!(
                    "FAIL: flight dump {} lacks the chain_fault event",
                    dump.display()
                );
                ok = false;
            }
            Err(err) => {
                eprintln!("FAIL: no flight dump at {}: {err}", dump.display());
                ok = false;
            }
        }
    }
    server.join();
    trace.flush();

    // Self-validate the lifecycle against the server trace.
    let events = memory.events();
    let submitted = count(&events, |e| matches!(e, Event::JobSubmitted { .. }));
    let placed = count(&events, |e| matches!(e, Event::JobPlaced { .. }));
    let preempted = count(&events, |e| matches!(e, Event::JobPreempted { .. }));
    let completed = count(&events, |e| matches!(e, Event::JobCompleted { .. }));
    let resumed = count(&events, |e| {
        matches!(
            e,
            Event::JobPlaced {
                resumed_from: Some(_),
                ..
            }
        )
    });
    println!(
        "lifecycle: {submitted} submitted, {placed} placements, \
         {preempted} preempted, {resumed} resumed, {completed} completed"
    );
    if submitted != 4 || completed != 4 {
        eprintln!("FAIL: expected all 4 jobs to be admitted and completed");
        ok = false;
    }
    if preempted == 0 || resumed == 0 {
        eprintln!("FAIL: the high-priority job should have preempted the MH job");
        ok = false;
    }
    if placed < submitted + preempted {
        eprintln!("FAIL: every preemption must be followed by a resume placement");
        ok = false;
    }
    if args.has("--telemetry") {
        let samples = count(&events, |e| matches!(e, Event::MetricsSample { .. }));
        println!("telemetry: {samples} metrics_sample events");
        if samples == 0 {
            eprintln!("FAIL: --telemetry produced no metrics_sample events");
            ok = false;
        }
    }
    if args.has("--inject-fault") {
        // Chain faults stream on the job's own update channel, not
        // the server trace; the result counter is the witness.
        println!("faults: {total_faults} absorbed across the mix");
        if total_faults == 0 {
            eprintln!("FAIL: --inject-fault produced no absorbed fault");
            ok = false;
        }
    }
    ok
}

/// Kill mode: run the durable mix, strike after `kill_ms`, leave the
/// journal and checkpoints on disk for `--recover`.
fn run_kill(cores: usize, dir: &Path, kill_ms: u64, trace: RecorderHandle) {
    std::fs::create_dir_all(dir).expect("create state dir");
    let server = JobServer::start(durable_config(cores, dir, trace.clone()));
    // Hold the handles so their channels stay open until the strike.
    let handles: Vec<JobHandle> = mix(true).into_iter().map(|s| server.submit(s)).collect();
    std::thread::sleep(Duration::from_millis(kill_ms));
    server.kill();
    trace.flush();
    drop(handles);
    println!(
        "KILLED after {kill_ms}ms; durable state in {}",
        dir.display()
    );
}

/// Recover mode: rebuild the killed server from `dir`, wait for the
/// recovered jobs, and prove each one's draws are bit-identical to a
/// fresh isolated run of the same spec.
fn run_recover(cores: usize, dir: &Path, memory: &MemoryRecorder, trace: RecorderHandle) -> bool {
    let (server, handles) = match JobServer::recover(durable_config(cores, dir, trace.clone())) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("FAIL: recover from {}: {e}", dir.display());
            return false;
        }
    };
    if handles.is_empty() {
        eprintln!(
            "FAIL: no jobs to recover — was the server killed mid-flight? \
             (try a smaller --kill-after-ms)"
        );
        server.join();
        return false;
    }
    println!("recovered {} job(s) from {}", handles.len(), dir.display());

    let specs = mix(true);
    let mut ok = true;
    for handle in handles {
        let id = handle.id;
        let job = handle.wait();
        let result = match &job.outcome {
            JobOutcome::Completed(result) => result,
            other => {
                eprintln!("FAIL: recovered job {id} did not complete: {other:?}");
                ok = false;
                continue;
            }
        };
        // The reproducibility bar: the crash, the replay, and the
        // checkpoint resume must not perturb a single bit of the
        // posterior. Re-run the same spec alone on a fresh server and
        // compare draw-for-draw.
        let spec = match specs.get(id as usize - 1) {
            Some(spec) => spec.clone(),
            None => {
                eprintln!("FAIL: recovered job {id} outside the known mix");
                ok = false;
                continue;
            }
        };
        let reference =
            JobServer::start(ServerConfig::new(cores, suite()).with_llc_budget(8 * 1024 * 1024));
        let ref_handle = reference.submit(spec);
        let ref_job = ref_handle.wait();
        reference.join();
        match &ref_job.outcome {
            JobOutcome::Completed(ref_result) => {
                let (a, b) = (&result.draws, &ref_result.draws);
                if a.len() == b.len() && a.iter().zip(b).all(|(a, b)| draws_bits_equal(a, b)) {
                    println!(
                        "job {id}: {} iters, bit-identical to the isolated reference run",
                        result.iters_done
                    );
                } else {
                    eprintln!("FAIL: job {id} draws differ from the isolated reference run");
                    ok = false;
                }
            }
            other => {
                eprintln!("FAIL: reference run for job {id} did not complete: {other:?}");
                ok = false;
            }
        }
    }
    server.join();
    trace.flush();

    let events = memory.events();
    let replayed = count(&events, |e| matches!(e, Event::JournalReplayed { .. }));
    let recovered = count(&events, |e| matches!(e, Event::JobRecovered { .. }));
    if replayed == 0 {
        eprintln!("FAIL: recovery must emit journal_replayed");
        ok = false;
    }
    if recovered == 0 {
        eprintln!("FAIL: recovery must emit job_recovered for each rebuilt job");
        ok = false;
    }
    ok
}

/// Policy demo: overload shedding under a bounded queue, then a
/// running-job deadline expiry.
fn run_policy_demo(memory: &MemoryRecorder, trace: RecorderHandle) -> bool {
    // One core and a one-slot queue: the hog occupies the core, the
    // victim waits, and the urgent submission overflows the queue —
    // shedding must evict the strictly-lower-priority victim, never
    // the newcomer.
    let server = JobServer::start(
        ServerConfig::new(1, suite())
            .with_llc_budget(8 * 1024 * 1024)
            .with_trace(trace.clone())
            .with_queue_limit(1),
    );
    let hog = server.submit(
        JobSpec::new("hog", "12cities")
            .with_iters(2_000)
            .with_priority(3)
            .with_seed(21)
            .with_detector(full_length_detector()),
    );
    // Let the hog take the core so the next job queues behind it.
    std::thread::sleep(Duration::from_millis(50));
    let victim = server.submit(
        JobSpec::new("victim", "votes")
            .with_iters(200)
            .with_priority(1)
            .with_seed(22)
            .with_detector(full_length_detector()),
    );
    std::thread::sleep(Duration::from_millis(20));
    let urgent = server.submit(
        JobSpec::new("urgent", "ad")
            .with_iters(120)
            .with_priority(5)
            .with_seed(23)
            .with_detector(full_length_detector()),
    );

    let mut ok = true;
    match victim.wait().outcome {
        JobOutcome::Shed(reason) => println!("victim shed as expected: {reason}"),
        other => {
            eprintln!("FAIL: victim should have been shed, got {other:?}");
            ok = false;
        }
    }
    for (name, handle) in [("hog", hog), ("urgent", urgent)] {
        match handle.wait().outcome {
            JobOutcome::Completed(_) => println!("{name} completed"),
            other => {
                eprintln!("FAIL: {name} should have completed, got {other:?}");
                ok = false;
            }
        }
    }

    // Deadline: a job that cannot possibly finish in 150ms must come
    // back Expired, cancelled cooperatively mid-placement.
    let overdue = server.submit(
        JobSpec::new("overdue", "12cities")
            .with_iters(50_000)
            .with_priority(2)
            .with_seed(24)
            .with_deadline(Duration::from_millis(150))
            .with_detector(full_length_detector()),
    );
    match overdue.wait().outcome {
        JobOutcome::Expired(reason) => println!("overdue expired as expected: {reason}"),
        other => {
            eprintln!("FAIL: overdue job should have expired, got {other:?}");
            ok = false;
        }
    }
    server.join();
    trace.flush();

    let events = memory.events();
    let shed_events = count(&events, |e| matches!(e, Event::JobShed { .. }));
    let expired_events = count(&events, |e| matches!(e, Event::JobExpired { .. }));
    println!("policy: {shed_events} job_shed, {expired_events} job_expired");
    if shed_events == 0 {
        eprintln!("FAIL: shedding must emit job_shed");
        ok = false;
    }
    if expired_events == 0 {
        eprintln!("FAIL: deadline expiry must emit job_expired");
        ok = false;
    }
    ok
}
