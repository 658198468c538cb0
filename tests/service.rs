//! Service tier: multi-tenant job-server integration tests.
//!
//! The serving layer's headline guarantee is that scheduling is
//! invisible in the posterior: a job preempted at a checkpoint
//! boundary and resumed later — possibly on a different core grant —
//! produces draws bit-identical to the same job run uninterrupted,
//! and concurrent jobs produce draws bit-identical to isolated runs.
//! These tests pin that guarantee, plus the admission and per-job
//! fault-containment behaviour of the server.
//!
//! All runs use an unreachable R̂ threshold so every chain executes
//! its full iteration budget and draw comparisons are exact.

use bayes_mcmc::checkpoint::RunCheckpoint;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::supervisor::{InjectedFault, Runtime, SupervisorConfig};
use bayes_mcmc::{ConvergenceDetector, MultiChainRun, RunConfig, Sampler};
use bayes_obs::{Event, MemoryRecorder, RecorderHandle};
use bayes_sched::predictor::MissSample;
use bayes_sched::LlcMissPredictor;
use bayes_serve::{JobOutcome, JobServer, JobSpec, SamplerKind, ServerConfig};
use bayes_suite::registry;
use bayes_testkit::FaultPlan;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threshold barely above 1: no finite run ever converges, so every
/// job runs its full budget and draws are exactly reproducible. The
/// 20-iteration checkpoint schedule doubles as the set of legal
/// preemption boundaries.
fn full_length_detector() -> ConvergenceDetector {
    ConvergenceDetector::new()
        .with_threshold(1.0 + 1e-12)
        .with_check_every(20)
        .with_min_iters(20)
}

/// Two-point training set with the LLC threshold far above every
/// study-scale working set, so placement grants the cache-resident
/// two-cores-per-chain slice and co-residency is unconstrained.
fn cache_resident_predictor() -> LlcMissPredictor {
    LlcMissPredictor::fit(&[
        MissSample {
            data_bytes: 4 * 1024 * 1024,
            mpki: 0.2,
        },
        MissSample {
            data_bytes: 64 * 1024 * 1024,
            mpki: 12.0,
        },
    ])
}

/// A per-test state directory (checkpoint logs, journal, flight dumps),
/// so parallel tests never collide on the server's
/// `bayes-serve-job-<id>` checkpoint names. Removed when the test ends;
/// kept when it panics, so a failure leaves its files to inspect.
struct StateDir(PathBuf);

impl StateDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bayes-service-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create state dir");
        Self(dir)
    }
}

impl std::ops::Deref for StateDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The uninterrupted reference: the same workload/shape/seed run under
/// the supervisor with the same detector *and checkpointing enabled*
/// (checkpointing segments the chain RNG streams, so it is part of the
/// run's identity — the server always checkpoints).
fn uninterrupted(workload: &str, scale: f64, cfg: &RunConfig, dir: &Path) -> MultiChainRun {
    uninterrupted_with(&Nuts::default(), workload, scale, cfg, dir)
}

fn uninterrupted_with<S: Sampler>(
    sampler: &S,
    workload: &str,
    scale: f64,
    cfg: &RunConfig,
    dir: &Path,
) -> MultiChainRun {
    let wl = registry::workload(workload, scale, cfg.seed).expect("registry workload");
    let ckpt = dir.join(format!("ref-{workload}.ckpt.json"));
    let report = Runtime::new(full_length_detector())
        .with_config(SupervisorConfig::new().with_checkpoint_path(&ckpt))
        .run(sampler, wl.dynamics_model(), cfg)
        .expect("uninterrupted reference run");
    assert!(!report.degraded);
    report.run
}

fn draws_of(run: &MultiChainRun) -> Vec<Vec<Vec<f64>>> {
    run.chains.iter().map(|c| c.draws.clone()).collect()
}

fn assert_bitwise_eq(a: &[Vec<Vec<f64>>], b: &[Vec<Vec<f64>>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: chain count");
    for (ci, (ca, cb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ca.len(), cb.len(), "{what}: chain {ci} draw count");
        for (t, (da, db)) in ca.iter().zip(cb).enumerate() {
            for (j, (x, y)) in da.iter().zip(db).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: chain {ci} iter {t} dim {j}: {x} vs {y}"
                );
            }
        }
    }
}

/// A preempted-then-resumed job is bit-identical to the uninterrupted
/// run, and the guarantee is independent of the within-chain worker
/// count: the reference is computed under `BAYES_INNER_THREADS` 1 and
/// 4 while the server run derives its own inner threads from each
/// placement's core grant.
#[test]
fn preempted_job_resumes_bit_identically() {
    let dir = StateDir::new("preempt");
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    // The victim saturates both cores; the urgent job cannot fit and
    // must preempt it at a checkpoint boundary.
    let victim = server.submit(
        JobSpec::new("victim", "12cities")
            .with_chains(2)
            .with_iters(240)
            .with_seed(11)
            .with_detector(full_length_detector()),
    );
    let urgent = server.submit(
        JobSpec::new("urgent", "votes")
            .with_chains(1)
            .with_iters(60)
            .with_seed(12)
            .with_priority(5)
            .with_detector(full_length_detector()),
    );

    let victim = victim.wait();
    let urgent = urgent.wait();
    server.join();
    assert!(
        !victim.preemptions.is_empty(),
        "urgent job should have preempted the saturating batch job"
    );
    let JobOutcome::Completed(result) = &victim.outcome else {
        panic!("victim should complete after resume: {:?}", victim.outcome);
    };
    assert!(!result.degraded);
    assert_eq!(result.iters_done, 240);
    let JobOutcome::Completed(_) = &urgent.outcome else {
        panic!("urgent job should complete: {:?}", urgent.outcome);
    };

    // The env fallback only applies when neither an explicit override
    // nor a core allotment is set, which is exactly the reference
    // configuration here.
    for threads in [1usize, 4] {
        std::env::set_var("BAYES_INNER_THREADS", threads.to_string());
        let cfg = RunConfig::new(240).with_chains(2).with_seed(11);
        let reference = uninterrupted("12cities", 0.25, &cfg, &dir);
        assert_bitwise_eq(
            &result.draws,
            &draws_of(&reference),
            &format!("preempted vs uninterrupted at {threads} inner threads"),
        );
    }
    std::env::remove_var("BAYES_INNER_THREADS");
}

/// Three heterogeneous jobs sharing the server produce the same draws
/// as each job run alone: placement, co-residency, and core grants
/// never leak into the posterior.
#[test]
fn concurrent_jobs_match_isolated_runs() {
    let dir = StateDir::new("concurrent");
    let server = JobServer::start(
        ServerConfig::new(8, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    let specs = [("12cities", 7u64), ("votes", 8), ("butterfly", 9)];
    let handles: Vec<_> = specs
        .iter()
        .map(|&(workload, seed)| {
            server.submit(
                JobSpec::new(format!("job-{workload}"), workload)
                    .with_chains(2)
                    .with_iters(120)
                    .with_seed(seed)
                    .with_detector(full_length_detector()),
            )
        })
        .collect();
    let jobs: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    server.join();

    for (job, &(workload, seed)) in jobs.iter().zip(&specs) {
        let JobOutcome::Completed(result) = &job.outcome else {
            panic!("{workload} should complete: {:?}", job.outcome);
        };
        assert!(!result.degraded, "{workload} degraded in a fault-free mix");
        let cfg = RunConfig::new(120)
            .with_chains(2)
            .with_seed(seed)
            .with_inner_threads(1);
        let isolated = uninterrupted(workload, 0.25, &cfg, &dir);
        assert_bitwise_eq(
            &result.draws,
            &draws_of(&isolated),
            &format!("concurrent vs isolated {workload}"),
        );
    }
}

/// Admission control refuses a job whose modeled working set alone
/// exceeds the server's LLC budget — it never queues, never runs, and
/// the refusal names the budget.
#[test]
fn admission_rejects_over_footprint_jobs() {
    let dir = StateDir::new("admission");
    let server = JobServer::start(
        ServerConfig::new(4, cache_resident_predictor())
            .with_llc_budget(256)
            .with_checkpoint_dir(dir.to_path_buf()),
    );
    let job = server
        .submit(JobSpec::new("whale", "tickets").with_detector(full_length_detector()))
        .wait();
    match &job.outcome {
        JobOutcome::Rejected(msg) => {
            assert!(
                msg.contains("exceeds the server LLC budget"),
                "unhelpful rejection: {msg}"
            );
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    assert!(
        job.events.is_empty(),
        "a refused job must not emit lifecycle events"
    );
    server.join();
}

/// Quorum degradation is contained to the faulting job: a job whose
/// chain dies past the retry budget completes degraded on its
/// survivors, while a clean co-resident job is untouched.
#[test]
fn quorum_degradation_stays_per_job() {
    let dir = StateDir::new("quorum");
    let server = JobServer::start(
        ServerConfig::new(8, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    // Chain 1 panics on every attempt: the default retry budget (2)
    // exhausts and the chain is permanently lost.
    let faulty = server.submit(
        JobSpec::new("faulty", "12cities")
            .with_chains(2)
            .with_iters(120)
            .with_seed(21)
            .with_min_quorum(1)
            .with_injector(Arc::new(FaultPlan::persistent(
                1,
                30,
                InjectedFault::Panic,
                u32::MAX,
            )))
            .with_detector(full_length_detector()),
    );
    let clean = server.submit(
        JobSpec::new("clean", "votes")
            .with_chains(2)
            .with_iters(120)
            .with_seed(22)
            .with_detector(full_length_detector()),
    );

    let faulty = faulty.wait();
    let clean = clean.wait();
    server.join();

    let JobOutcome::Completed(result) = &faulty.outcome else {
        panic!(
            "quorum of 1 should let the job degrade, not fail: {:?}",
            faulty.outcome
        );
    };
    assert!(result.degraded, "losing a chain must mark the job degraded");
    assert_eq!(result.survivors, vec![0]);
    assert!(result.faults >= 2, "both attempts should be on record");

    let JobOutcome::Completed(result) = &clean.outcome else {
        panic!("clean job should complete: {:?}", clean.outcome);
    };
    assert!(!result.degraded, "faults leaked into a co-resident job");
    assert_eq!(result.faults, 0);
    assert_eq!(result.survivors, vec![0, 1]);
}

/// An MH job is preempted like any other: the urgent arrival pauses it
/// at a checkpoint boundary, and once re-placed it finishes with draws
/// bit-equal to the same job run alone.
#[test]
fn mh_job_is_preempted_and_resumes_bit_identically() {
    let dir = StateDir::new("mh");
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    let mh = server.submit(
        JobSpec::new("mh", "butterfly")
            .with_chains(2)
            .with_iters(3000)
            .with_seed(31)
            .with_sampler(SamplerKind::Mh)
            .with_detector(full_length_detector()),
    );
    let urgent = server.submit(
        JobSpec::new("urgent", "votes")
            .with_chains(1)
            .with_iters(40)
            .with_seed(32)
            .with_priority(5)
            .with_detector(full_length_detector()),
    );
    let mh = mh.wait();
    let urgent = urgent.wait();
    server.join();
    assert!(
        !mh.preemptions.is_empty(),
        "the urgent job should have preempted the MH job"
    );
    let JobOutcome::Completed(result) = &mh.outcome else {
        panic!(
            "the MH job should complete after resuming: {:?}",
            mh.outcome
        );
    };
    assert!(matches!(urgent.outcome, JobOutcome::Completed(_)));
    assert_eq!(result.iters_done, 3000);
    let cfg = RunConfig::new(3000).with_chains(2).with_seed(31);
    let isolated = uninterrupted_with(&MetropolisHastings::new(), "butterfly", 0.25, &cfg, &dir);
    assert_bitwise_eq(
        &result.draws,
        &draws_of(&isolated),
        "preempted vs isolated MH",
    );
}

/// Polls until `path` exists (a checkpoint generation has been
/// persisted), panicking after 30s — long past any sane first
/// checkpoint on these tiny workloads.
fn wait_for_file(path: &std::path::Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "{what} never appeared at {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A killed server recovers into bit-identical draws: the job in
/// flight at the kill resumes from its durable checkpoint after a
/// journal replay, and its final posterior matches the uninterrupted
/// reference bit-for-bit — verified against references computed at
/// `BAYES_INNER_THREADS` 1 and 4, like the preemption guarantee.
#[test]
fn killed_server_recovers_bit_identically() {
    let dir = StateDir::new("kill-recover");
    let journal = dir.join("journal.wal");
    let durable = || {
        ServerConfig::new(2, cache_resident_predictor())
            .with_checkpoint_dir(dir.to_path_buf())
            .with_journal(&journal)
    };

    let server = JobServer::start(durable());
    let handle = server.submit(
        JobSpec::new("crashme", "12cities")
            .with_chains(2)
            .with_iters(240)
            .with_seed(41)
            .with_detector(full_length_detector()),
    );
    // Strike once the job has a durable generation to resume from —
    // this is the SIGKILL moment: no drain, no terminal journal
    // records, checkpoints and journal left as-is on disk.
    wait_for_file(&dir.join("bayes-serve-job-1.ckpt.json"), "first checkpoint");
    server.kill();
    assert!(
        matches!(handle.wait().outcome, JobOutcome::ServerLost),
        "a live handle must learn its server died"
    );

    let memory = Arc::new(MemoryRecorder::new());
    let (server, handles) =
        JobServer::recover(durable().with_trace(RecorderHandle::new(memory.clone())))
            .expect("recover from journal");
    assert_eq!(handles.len(), 1, "exactly the in-flight job comes back");
    let job = handles.into_iter().next().unwrap().wait();
    server.join();

    let JobOutcome::Completed(result) = &job.outcome else {
        panic!("recovered job should complete: {:?}", job.outcome);
    };
    assert!(!result.degraded);
    assert_eq!(result.iters_done, 240);

    let events = memory.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::JournalReplayed { .. })),
        "recovery must announce the journal replay"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::JobRecovered {
                job: 1,
                resumed_from: Some(_),
                ..
            }
        )),
        "the recovered job must resume from a checkpoint, not restart"
    );

    for threads in [1usize, 4] {
        std::env::set_var("BAYES_INNER_THREADS", threads.to_string());
        let cfg = RunConfig::new(240).with_chains(2).with_seed(41);
        let reference = uninterrupted("12cities", 0.25, &cfg, &StateDir::new("kill-recover-ref"));
        assert_bitwise_eq(
            &result.draws,
            &draws_of(&reference),
            &format!("recovered vs uninterrupted at {threads} inner threads"),
        );
    }
    std::env::remove_var("BAYES_INNER_THREADS");
}

/// End offsets of the complete frames at the front of a checkpoint
/// log, read from their headers (`BAYESCKPT 3 <len> <sum>\n`) alone.
fn frame_ends(log: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while let Some(nl) = log[at..].iter().position(|&b| b == b'\n') {
        let header = std::str::from_utf8(&log[at..at + nl]).expect("header is text");
        let len: usize = header
            .split(' ')
            .nth(2)
            .expect("length")
            .parse()
            .expect("length");
        let end = at + nl + 1 + len;
        if end > log.len() {
            break;
        }
        ends.push(end);
        at = end;
    }
    ends
}

/// A checkpoint log whose newest frame is corrupt is detected by
/// checksum, and recovery falls back to the frame before it: the job
/// resumes from that frame's boundary, still completes, and is still
/// bit-identical to the uninterrupted run.
///
/// The kill lands once the log holds two frames, found by polling
/// every 5 ms, so the job must still be running well after that: 1 200
/// iterations of `votes` leave tens of milliseconds.
#[test]
fn corrupt_checkpoint_falls_back_to_previous_generation() {
    let dir = StateDir::new("corrupt-ckpt");
    let journal = dir.join("journal.wal");
    let durable = || {
        ServerConfig::new(2, cache_resident_predictor())
            .with_checkpoint_dir(dir.to_path_buf())
            .with_journal(&journal)
    };

    let server = JobServer::start(durable());
    let handle = server.submit(
        JobSpec::new("rotten", "votes")
            .with_chains(2)
            .with_iters(1200)
            .with_seed(42)
            .with_detector(full_length_detector()),
    );
    let log = dir.join("bayes-serve-job-1.ckpt.json");
    // Two frames in the log means recovery has a frame to fall back to
    // once the newest one is rotted.
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::fs::read(&log).map_or(0, |b| frame_ends(&b).len()) < 2 {
        assert!(Instant::now() < deadline, "the log never held two frames");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.kill();
    drop(handle);

    // Flip one byte inside the newest frame.
    let mut bytes = std::fs::read(&log).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(
        *ends.last().unwrap(),
        bytes.len(),
        "the kill left a torn frame"
    );
    let (previous_end, newest_end) = (ends[ends.len() - 2], ends[ends.len() - 1]);
    let fallback = RunCheckpoint::from_durable_bytes(&bytes[..previous_end])
        .expect("the frames before the newest verify")
        .iter;
    bytes[(previous_end + newest_end) / 2] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();

    let memory = Arc::new(MemoryRecorder::new());
    let (server, handles) =
        JobServer::recover(durable().with_trace(RecorderHandle::new(memory.clone())))
            .expect("recover with a rotten newest frame");
    assert_eq!(handles.len(), 1);
    let job = handles.into_iter().next().unwrap().wait();
    server.join();

    let JobOutcome::Completed(result) = &job.outcome else {
        panic!("recovery should survive a corrupt frame: {:?}", job.outcome);
    };
    assert_eq!(result.iters_done, 1200);

    let events = memory.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::JobRecovered {
                job: 1,
                resumed_from: Some(at),
                corrupt_skipped: 1,
            } if *at == fallback as u64
        )),
        "the job must resume from frame {fallback} with the corrupt one skipped: {events:?}"
    );

    let cfg = RunConfig::new(1200).with_chains(2).with_seed(42);
    let reference = uninterrupted("votes", 0.25, &cfg, &StateDir::new("corrupt-ckpt-ref"));
    assert_bitwise_eq(
        &result.draws,
        &draws_of(&reference),
        "recovered-from-previous-frame vs uninterrupted",
    );
}

/// A job that blows its wall-clock deadline is cancelled cooperatively
/// and comes back `Expired` — with the matching `job_expired` trace
/// event — instead of hanging or pretending to complete.
#[test]
fn deadline_expiry_is_a_typed_outcome() {
    let dir = StateDir::new("deadline");
    let memory = Arc::new(MemoryRecorder::new());
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor())
            .with_checkpoint_dir(dir.to_path_buf())
            .with_trace(RecorderHandle::new(memory.clone())),
    );
    let job = server
        .submit(
            JobSpec::new("overdue", "12cities")
                .with_chains(2)
                .with_iters(1_000_000)
                .with_seed(43)
                .with_deadline(Duration::from_millis(120))
                .with_detector(full_length_detector()),
        )
        .wait();
    server.join();

    match &job.outcome {
        JobOutcome::Expired(msg) => {
            assert!(msg.contains("deadline"), "unhelpful expiry message: {msg}");
        }
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    assert!(
        memory
            .events()
            .iter()
            .any(|e| matches!(e, Event::JobExpired { job: 1, .. })),
        "expiry must be on the trace"
    );
}

/// An MH job past its deadline is cut where it is, as a NUTS job is —
/// not after running out its whole budget.
#[test]
fn mh_job_expires_at_its_deadline() {
    let dir = StateDir::new("mh-deadline");
    let memory = Arc::new(MemoryRecorder::new());
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor())
            .with_checkpoint_dir(dir.to_path_buf())
            .with_trace(RecorderHandle::new(memory.clone())),
    );
    let iters = 1_000_000;
    let job = server
        .submit(
            JobSpec::new("overdue-mh", "12cities")
                .with_chains(2)
                .with_iters(iters)
                .with_seed(44)
                .with_sampler(SamplerKind::Mh)
                .with_deadline(Duration::from_millis(120))
                .with_detector(full_length_detector()),
        )
        .wait();
    server.join();
    assert!(
        matches!(&job.outcome, JobOutcome::Expired(_)),
        "expected deadline expiry, got {:?}",
        job.outcome
    );
    let done = memory.events().iter().find_map(|e| match e {
        Event::JobExpired { iters_done, .. } => Some(*iters_done),
        _ => None,
    });
    assert!(
        done.is_some_and(|d| d < iters as u64),
        "expired after {done:?} of {iters} iterations"
    );
}

/// Under overload (bounded pending queue), admission sheds the
/// strictly-lower-priority queued job in favour of the newcomer; the
/// victim gets a typed `Shed` outcome and a `job_shed` trace event,
/// while the running and urgent jobs are untouched.
#[test]
fn overload_sheds_lower_priority_pending_work() {
    let dir = StateDir::new("shed");
    let memory = Arc::new(MemoryRecorder::new());
    let server = JobServer::start(
        ServerConfig::new(1, cache_resident_predictor())
            .with_checkpoint_dir(dir.to_path_buf())
            .with_trace(RecorderHandle::new(memory.clone()))
            .with_queue_limit(1),
    );
    // The hog takes the single core; the victim queues behind it; the
    // urgent job overflows the one-slot queue and must displace the
    // victim, never itself.
    let hog = server.submit(
        JobSpec::new("hog", "12cities")
            .with_chains(1)
            .with_iters(2_000)
            .with_priority(3)
            .with_seed(44)
            .with_detector(full_length_detector()),
    );
    let victim = server.submit(
        JobSpec::new("victim", "votes")
            .with_chains(1)
            .with_iters(100)
            .with_priority(1)
            .with_seed(45)
            .with_detector(full_length_detector()),
    );
    let urgent = server.submit(
        JobSpec::new("urgent", "ad")
            .with_chains(1)
            .with_iters(60)
            .with_priority(5)
            .with_seed(46)
            .with_detector(full_length_detector()),
    );

    let victim = victim.wait();
    match &victim.outcome {
        JobOutcome::Shed(msg) => {
            assert!(msg.contains("overload"), "unhelpful shed message: {msg}");
        }
        other => panic!("victim should have been shed, got {other:?}"),
    }
    assert!(matches!(hog.wait().outcome, JobOutcome::Completed(_)));
    assert!(matches!(urgent.wait().outcome, JobOutcome::Completed(_)));
    server.join();

    assert!(
        memory
            .events()
            .iter()
            .any(|e| matches!(e, Event::JobShed { priority: 1, .. })),
        "the shed decision must be on the trace"
    );
}

/// Killing a server (or losing its scheduler any other way) delivers a
/// terminal `ServerLost` to every outstanding handle — no client ever
/// blocks forever on a dead server.
#[test]
fn killed_server_notifies_every_live_handle() {
    let dir = StateDir::new("server-lost");
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    let handles: Vec<_> = (0..3)
        .map(|i| {
            server.submit(
                JobSpec::new(format!("doomed-{i}"), "12cities")
                    .with_chains(1)
                    .with_iters(100_000)
                    .with_seed(50 + i)
                    .with_detector(full_length_detector()),
            )
        })
        .collect();
    server.kill();
    for handle in handles {
        assert!(
            matches!(handle.wait().outcome, JobOutcome::ServerLost),
            "every live handle must terminate with ServerLost"
        );
    }
}

/// `status()` is a live, non-blocking snapshot: polled mid-run it
/// reports the running jobs with advancing iteration counts, and
/// after completion the lifetime counters. After `join` the channel
/// is gone and `status()` degrades to `None` instead of hanging.
#[test]
fn status_snapshots_a_live_multi_job_run() {
    let dir = StateDir::new("status");
    let server = JobServer::start(
        ServerConfig::new(8, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    // Both jobs run about a second side by side on a two-core host, two
    // hundred polls' worth: at 400 iterations `votes` could start and
    // finish between two polls, and `running == 2` then never held.
    let a = server.submit(
        JobSpec::new("status-a", "12cities")
            .with_chains(2)
            .with_iters(3_000)
            .with_seed(61)
            .with_detector(full_length_detector()),
    );
    let b = server.submit(
        JobSpec::new("status-b", "votes")
            .with_chains(2)
            .with_iters(15_000)
            .with_seed(62)
            .with_detector(full_length_detector()),
    );

    // Poll until a snapshot shows both jobs running and either one past
    // its first iteration (bounded: the jobs run a while).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_progress = false;
    while Instant::now() < deadline {
        let status = server.status().expect("scheduler alive");
        assert_eq!(status.cores_total, 8);
        assert!(status.cores_busy <= status.cores_total);
        assert_eq!(
            status.jobs.len(),
            status.pending + status.running + status.preempting,
            "jobs table must cover every live phase"
        );
        if status.running == 2 {
            let names: Vec<&str> = status.jobs.iter().map(|j| j.name.as_str()).collect();
            assert!(names.contains(&"status-a") && names.contains(&"status-b"));
            for j in &status.jobs {
                assert!(j.cores > 0, "a running job holds a core grant");
                // The ESS proxy sums mean acceptance per iteration
                // event over both chains.
                assert!(j.ess_so_far <= 2.0 * j.iteration as f64 + 2.0);
            }
            if status.jobs.iter().any(|j| j.iteration > 0) {
                saw_progress = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        saw_progress,
        "never observed both jobs running with progress"
    );

    assert!(matches!(a.wait().outcome, JobOutcome::Completed(_)));
    assert!(matches!(b.wait().outcome, JobOutcome::Completed(_)));

    let settled = server.status().expect("scheduler alive");
    assert_eq!(settled.completions, 2);
    assert_eq!(settled.failures, 0);
    assert!(settled.jobs.is_empty(), "completed jobs leave the table");

    server.join();
}

/// A chain fault mid-placement dumps the job's bounded flight
/// recorder next to its checkpoints; the dump is a parseable JSONL
/// trace whose window contains the fault itself.
#[test]
fn chain_fault_dumps_the_flight_recorder() {
    let dir = StateDir::new("flight");
    let server = JobServer::start(
        ServerConfig::new(4, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    let handle = server.submit(
        JobSpec::new("flighty", "12cities")
            .with_chains(2)
            .with_iters(120)
            .with_seed(71)
            .with_injector(Arc::new(FaultPlan::once(0, 30, InjectedFault::Panic)))
            .with_detector(full_length_detector()),
    );
    let id = handle.id;
    let job = handle.wait();
    let JobOutcome::Completed(result) = &job.outcome else {
        panic!("retry should absorb the fault: {:?}", job.outcome);
    };
    assert!(!result.degraded);
    assert!(result.faults >= 1);
    server.join();

    let dump = dir.join(format!("job-{id}-flight-chain_fault.jsonl"));
    let text = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("flight dump missing at {}: {e}", dump.display()));
    let mut events = Vec::new();
    for line in text.lines() {
        events.push(Event::from_json(line).expect("every dumped line decodes"));
    }
    assert!(
        matches!(events.first(), Some(Event::TraceHeader { .. })),
        "dump opens with a trace header"
    );
    assert!(
        events.iter().any(|e| matches!(e, Event::ChainFault { .. })),
        "the fault that triggered the dump is inside the window"
    );
    assert!(
        events.iter().any(|e| matches!(e, Event::Iteration { .. })),
        "the window carries the iterations leading up to the fault"
    );
}

/// A served job's stream is, event for event and in order, what the
/// same job records under an isolated supervised run, between its
/// lifecycle rows: the server may hold iteration events back to send
/// them together, never reorder, drop or alter one.
#[test]
fn served_stream_is_the_isolated_run_event_for_event() {
    let dir = StateDir::new("stream");
    let server = JobServer::start(
        ServerConfig::new(2, cache_resident_predictor()).with_checkpoint_dir(dir.to_path_buf()),
    );
    let served = server
        .submit(
            JobSpec::new("stream", "12cities")
                .with_chains(1)
                .with_iters(120)
                .with_seed(21)
                .with_detector(full_length_detector()),
        )
        .wait();
    server.join();
    assert!(matches!(served.outcome, JobOutcome::Completed(_)));
    let [Event::JobSubmitted { .. }, Event::JobPlaced { cores, .. }, run @ .., Event::JobCompleted { .. }] =
        &served.events[..]
    else {
        panic!("lifecycle rows are missing: {:?}", served.events);
    };

    // The isolated run writes its checkpoints where the served one did,
    // so that `checkpoint_saved` rows compare equal too.
    let ckpt = run
        .iter()
        .find_map(|e| match e {
            Event::CheckpointSaved { path, .. } => Some(PathBuf::from(path)),
            _ => None,
        })
        .expect("the served job checkpointed");
    let memory = Arc::new(MemoryRecorder::new());
    let recorder = RecorderHandle::new(memory.clone());
    let wl = registry::workload("12cities", 0.25, 21).expect("registry workload");
    wl.attach_recorder(&recorder);
    let cfg = RunConfig::new(120)
        .with_chains(1)
        .with_seed(21)
        .with_core_allotment(*cores as usize)
        .with_recorder(recorder);
    Runtime::new(full_length_detector())
        .with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_checkpoint_path(&ckpt),
        )
        .run(&Nuts::default(), wl.dynamics_model(), &cfg)
        .expect("isolated run");
    wl.flush_telemetry();

    // Wall-clock fields are one thing two runs may differ in; where
    // the monitor thread's `checkpoint_saved` rows fall among the chain
    // thread's iterations is the other. Each thread's rows, though,
    // arrive complete and in the order it recorded them, and a
    // checkpoint row never overtakes the iteration that completed it.
    let isolated = memory.take();
    let split = |events: &[Event]| -> (Vec<Event>, Vec<Event>) {
        let mut events = events.to_vec();
        for event in &mut events {
            if let Event::ShardAggregate { elapsed_ns, .. } = event {
                *elapsed_ns = 0;
            }
        }
        events
            .into_iter()
            .partition(|e| matches!(e, Event::CheckpointSaved { .. }))
    };
    let (served_saves, served_rest) = split(run);
    let (isolated_saves, isolated_rest) = split(&isolated);
    assert_eq!(served_rest, isolated_rest);
    assert_eq!(served_saves, isolated_saves);
    let iterations = served_rest
        .iter()
        .filter(|e| matches!(e, Event::Iteration { .. }));
    assert_eq!(iterations.count(), 120);
    assert!(served_rest
        .iter()
        .any(|e| matches!(e, Event::ShardAggregate { threads: 1, .. })));
    for (at, event) in run.iter().enumerate() {
        if let Event::CheckpointSaved { iter: saved, .. } = event {
            let completed = run[..at]
                .iter()
                .any(|e| matches!(e, Event::Iteration { iter, .. } if iter + 1 == *saved));
            assert!(
                completed,
                "checkpoint {saved} arrived ahead of its iteration"
            );
        }
    }
}
