//! Fault-tolerance matrix for the run supervisor.
//!
//! Each `ChainFault` kind is exercised in both directions — the chain
//! recovers within the retry budget, and the chain exhausts its budget
//! so the run degrades — with exact assertions on the `bayes_obs`
//! event sequence the supervisor emits and on bitwise draw equality
//! where the fault model promises it (same-stream retries).
//!
//! All runs use an unreachable R̂ threshold so every chain executes its
//! full iteration count and the expected event traces are exactly
//! deterministic (no convergence decision can race a fault).

use bayes_autodiff::Real;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::obs::{Event, MemoryRecorder, RecorderHandle};
use bayes_mcmc::supervisor::{
    FaultKind, InjectedFault, Interrupt, ReseedPolicy, RetryPolicy, RunError, Runtime,
    SupervisorConfig,
};
use bayes_mcmc::{
    AdModel, ConvergenceDetector, EvalProfile, LogDensity, Model, Purpose, RunConfig, RunReport,
    StreamKey,
};
use bayes_testkit::FaultPlan;
use std::sync::Arc;
use std::time::Duration;

struct Gauss;

impl LogDensity for Gauss {
    fn dim(&self) -> usize {
        2
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        -(t[0].square() + (t[1] - 1.0).square()) * 0.5
    }
}

const ITERS: usize = 300;
const SEED: u64 = 11;

fn detector() -> ConvergenceDetector {
    // Threshold barely above 1: R̂ of a finite run never beats it, so
    // no run stops early and traces are exactly reproducible.
    ConvergenceDetector::new().with_threshold(1.0 + 1e-12)
}

fn config(chains: usize) -> RunConfig {
    RunConfig::new(ITERS).with_chains(chains).with_seed(SEED)
}

/// Runs under supervision with `plan` injected, returning the report
/// (or error) plus only the supervisor-specific events, in order.
fn supervised(
    chains: usize,
    sup: SupervisorConfig,
    plan: Option<FaultPlan>,
) -> (Result<RunReport, RunError>, Vec<Event>) {
    let model = AdModel::new("gauss", Gauss);
    let mem = Arc::new(MemoryRecorder::new());
    let cfg = config(chains).with_recorder(RecorderHandle::new(mem.clone()));
    let sup = match plan {
        Some(p) => sup.with_injector(Arc::new(p)),
        None => sup,
    };
    let result = Runtime::new(detector())
        .with_config(sup)
        .run(&Nuts::default(), &model, &cfg);
    let events = mem
        .take()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                Event::ChainFault { .. }
                    | Event::ChainRetry { .. }
                    | Event::DegradedReport { .. }
                    | Event::CheckpointSaved { .. }
                    | Event::Resume { .. }
            )
        })
        .collect();
    (result, events)
}

fn clean_run(chains: usize) -> RunReport {
    let (result, events) = supervised(chains, SupervisorConfig::new(), None);
    assert!(events.is_empty(), "clean run emitted fault events");
    result.expect("clean run")
}

fn retry_seed(chain: usize, attempt: u32) -> u64 {
    StreamKey::new(SEED)
        .chain(chain as u64)
        .purpose(Purpose::Retry(attempt))
        .derive()
}

fn original_seed(chain: usize) -> u64 {
    config(2).chain_seed(chain)
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_recovers_with_same_stream_and_identical_draws() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new(),
        Some(FaultPlan::once(0, 50, InjectedFault::Panic)),
    );
    let report = result.expect("one retry fits the default budget");
    assert!(!report.degraded);
    assert_eq!(report.survivors, vec![0, 1]);
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].kind, FaultKind::Panic);
    assert_eq!(report.faults[0].chain, 0);
    assert_eq!(report.faults[0].attempt, 0);
    assert_eq!(report.faults[0].iter, Some(50));
    assert_eq!(
        events,
        vec![
            Event::ChainFault {
                chain: 0,
                attempt: 0,
                kind: "panic".to_string(),
                iter: Some(50),
                message: "injected panic (chain 0, iteration 50)".to_string(),
            },
            Event::ChainRetry {
                chain: 0,
                attempt: 1,
                reseed: false,
                seed: original_seed(0),
            },
        ]
    );
    // The acceptance criterion: a panic retry replays the identical
    // stream, so the recovered run is bit-identical to the clean one.
    let clean = clean_run(2);
    for (c, (a, b)) in report.run.chains.iter().zip(&clean.run.chains).enumerate() {
        assert_eq!(a.draws, b.draws, "chain {c} diverged after panic retry");
    }
}

#[test]
fn panic_exhausts_retries_and_degrades() {
    let (result, events) = supervised(
        3,
        SupervisorConfig::new(),
        Some(FaultPlan::persistent(0, 50, InjectedFault::Panic, 2)),
    );
    let report = result.expect("two survivors meet the quorum");
    assert!(report.degraded);
    assert_eq!(report.survivors, vec![1, 2]);
    assert_eq!(report.run.chains.len(), 2);
    assert_eq!(report.faults.len(), 2);
    assert_eq!(
        events[..3],
        [
            Event::ChainFault {
                chain: 0,
                attempt: 0,
                kind: "panic".to_string(),
                iter: Some(50),
                message: "injected panic (chain 0, iteration 50)".to_string(),
            },
            Event::ChainRetry {
                chain: 0,
                attempt: 1,
                reseed: false,
                seed: config(3).chain_seed(0),
            },
            Event::ChainFault {
                chain: 0,
                attempt: 1,
                kind: "panic".to_string(),
                iter: Some(50),
                message: "injected panic (chain 0, iteration 50)".to_string(),
            },
        ]
    );
    // With no profiler attached the span total is exactly zero; the
    // gradient-eval total still reports the surviving chains' work.
    assert!(matches!(
        &events[3],
        Event::DegradedReport {
            model,
            survivors: 2,
            lost: 1,
            faults: 2,
            grad_evals,
            span_ns: 0,
        } if model == "gauss" && *grad_evals > 0
    ));
    assert_eq!(events.len(), 4);
}

// ----------------------------------------------------------- non-finite

#[test]
fn nonfinite_reseeds_and_recovers() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new(),
        Some(FaultPlan::once(0, 50, InjectedFault::NonFinite)),
    );
    let report = result.expect("reseeded retry recovers");
    assert!(!report.degraded);
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].kind, FaultKind::NonFinite);
    assert_eq!(
        events,
        vec![
            Event::ChainFault {
                chain: 0,
                attempt: 0,
                kind: "non_finite".to_string(),
                iter: Some(50),
                message: "non-finite draw at iteration 50".to_string(),
            },
            Event::ChainRetry {
                chain: 0,
                attempt: 1,
                reseed: true,
                seed: retry_seed(0, 1),
            },
        ]
    );
    // A stream fault reseeds: chain 0 moves to the Retry(1) stream and
    // its draws change; the untouched chain 1 stays bit-identical.
    let clean = clean_run(2);
    assert_ne!(report.run.chains[0].draws, clean.run.chains[0].draws);
    assert_eq!(report.run.chains[1].draws, clean.run.chains[1].draws);
    assert_eq!(report.run.chains[0].draws.len(), ITERS);
}

#[test]
fn nonfinite_exhausts_retries_and_degrades() {
    let (result, events) = supervised(
        3,
        SupervisorConfig::new(),
        Some(FaultPlan::persistent(0, 50, InjectedFault::NonFinite, 2)),
    );
    let report = result.expect("two survivors meet the quorum");
    assert!(report.degraded);
    assert_eq!(report.survivors, vec![1, 2]);
    assert_eq!(events.len(), 4);
    assert!(matches!(
        &events[1],
        Event::ChainRetry { reseed: true, seed, .. } if *seed == retry_seed(0, 1)
    ));
    assert!(matches!(
        &events[3],
        Event::DegradedReport {
            survivors: 2,
            lost: 1,
            faults: 2,
            ..
        }
    ));
}

// ---------------------------------------------------------------- stall

#[test]
fn stall_is_cancelled_by_watchdog_and_retry_is_bit_identical() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new().with_stall_deadline(Duration::from_millis(250)),
        Some(FaultPlan::once(0, 50, InjectedFault::Stall)),
    );
    let report = result.expect("stalled chain recovers on retry");
    assert!(!report.degraded);
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].kind, FaultKind::Stalled);
    assert_eq!(report.faults[0].iter, Some(50), "stalled at 50 draws");
    assert_eq!(events.len(), 2);
    assert!(matches!(
        &events[0],
        Event::ChainFault { chain: 0, attempt: 0, kind, iter: Some(50), .. }
            if kind == "stalled"
    ));
    assert!(matches!(
        &events[1],
        Event::ChainRetry { chain: 0, attempt: 1, reseed: false, seed }
            if *seed == original_seed(0)
    ));
    // The no-RNG-perturbation invariant: watchdog cancellation never
    // touches the RNG, so the same-stream retry reproduces the clean
    // run's draws exactly, on every chain.
    let clean = clean_run(2);
    for (c, (a, b)) in report.run.chains.iter().zip(&clean.run.chains).enumerate() {
        assert_eq!(a.draws, b.draws, "chain {c} perturbed by stall recovery");
    }
}

#[test]
fn stall_exhausts_retries_and_degrades() {
    let (result, events) = supervised(
        3,
        SupervisorConfig::new().with_stall_deadline(Duration::from_millis(200)),
        Some(FaultPlan::persistent(0, 50, InjectedFault::Stall, 2)),
    );
    let report = result.expect("two survivors meet the quorum");
    assert!(report.degraded);
    assert_eq!(report.survivors, vec![1, 2]);
    assert_eq!(events.len(), 4);
    assert!(matches!(&events[2], Event::ChainFault { attempt: 1, kind, .. } if kind == "stalled"));
    assert!(matches!(&events[3], Event::DegradedReport { .. }));
}

// ------------------------------------------------------------- diverged

#[test]
fn injected_divergence_reseeds_and_recovers() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new(),
        Some(FaultPlan::once(0, 50, InjectedFault::Diverge)),
    );
    let report = result.expect("reseeded retry recovers");
    assert!(!report.degraded);
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].kind, FaultKind::Diverged);
    assert_eq!(
        events,
        vec![
            Event::ChainFault {
                chain: 0,
                attempt: 0,
                kind: "diverged".to_string(),
                iter: Some(50),
                message: "injected divergence".to_string(),
            },
            Event::ChainRetry {
                chain: 0,
                attempt: 1,
                reseed: true,
                seed: retry_seed(0, 1),
            },
        ]
    );
}

#[test]
fn divergence_exhausts_retries_and_degrades() {
    let (result, events) = supervised(
        3,
        SupervisorConfig::new(),
        Some(FaultPlan::persistent(0, 50, InjectedFault::Diverge, 2)),
    );
    let report = result.expect("two survivors meet the quorum");
    assert!(report.degraded);
    assert_eq!(report.survivors, vec![1, 2]);
    assert!(matches!(
        events.last(),
        Some(Event::DegradedReport {
            survivors: 2,
            lost: 1,
            faults: 2,
            ..
        })
    ));
}

// ------------------------------------------------------ quorum & policy

#[test]
fn quorum_loss_fails_the_run_with_fault_history() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new(),
        Some(FaultPlan::persistent(0, 50, InjectedFault::Panic, 2)),
    );
    match result {
        Err(RunError::QuorumLost {
            survivors,
            required,
            faults,
        }) => {
            assert_eq!(survivors, 1);
            assert_eq!(required, 2);
            assert_eq!(faults.len(), 2);
            assert!(faults.iter().all(|f| f.kind == FaultKind::Panic));
        }
        other => panic!("expected QuorumLost, got {other:?}"),
    }
    // The degraded report is never emitted for a failed run; the fault
    // and retry records are.
    assert!(!events
        .iter()
        .any(|e| matches!(e, Event::DegradedReport { .. })));
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::ChainFault { .. }))
            .count(),
        2
    );
}

#[test]
fn reseed_always_policy_moves_even_a_panic_to_a_retry_stream() {
    let (result, events) = supervised(
        2,
        SupervisorConfig::new().with_retry(RetryPolicy {
            max_attempts: 2,
            reseed: ReseedPolicy::Always,
        }),
        Some(FaultPlan::once(0, 50, InjectedFault::Panic)),
    );
    let report = result.expect("retry recovers");
    assert!(!report.degraded);
    assert!(matches!(
        &events[1],
        Event::ChainRetry { reseed: true, seed, .. } if *seed == retry_seed(0, 1)
    ));
    // Reseeding really changed the stream.
    let clean = clean_run(2);
    assert_ne!(report.run.chains[0].draws, clean.run.chains[0].draws);
}

#[test]
fn multiple_chains_fault_and_all_recover() {
    let plan = FaultPlan::once(0, 40, InjectedFault::Panic).and(bayes_testkit::FaultPoint {
        chain: 1,
        iter: 80,
        fault: InjectedFault::NonFinite,
        attempts: 1,
    });
    let (result, events) = supervised(3, SupervisorConfig::new(), Some(plan));
    let report = result.expect("both faulted chains recover");
    assert!(!report.degraded);
    assert_eq!(report.survivors, vec![0, 1, 2]);
    assert_eq!(report.faults.len(), 2);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::ChainRetry { .. }))
            .count(),
        2
    );
    for c in &report.run.chains {
        assert_eq!(c.draws.len(), ITERS);
    }
}

// ------------------------------------------------- every sampler stops

/// A standard normal that takes a millisecond per density evaluation,
/// so that a Metropolis–Hastings chain over it runs for a while.
struct SlowGauss;

impl Model for SlowGauss {
    fn dim(&self) -> usize {
        2
    }
    fn name(&self) -> &str {
        "slow-gauss"
    }
    fn ln_posterior(&self, theta: &[f64]) -> f64 {
        std::thread::sleep(Duration::from_millis(1));
        -0.5 * theta.iter().map(|t| t * t).sum::<f64>()
    }
    fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        for (g, t) in grad.iter_mut().zip(theta) {
            *g = -t;
        }
        self.ln_posterior(theta)
    }
    fn grad_profile(&self, _theta: &[f64]) -> EvalProfile {
        EvalProfile::default()
    }
}

/// The run deadline cuts an MH chain where it is, as it does NUTS: the
/// run returns at the deadline with the draws made so far, not after
/// the three seconds the chains would take.
#[test]
fn mh_run_expires_at_its_deadline_with_partial_draws() {
    let cfg = RunConfig::new(3000).with_chains(2).with_seed(SEED);
    let started = std::time::Instant::now();
    let report = Runtime::new(detector())
        .with_config(SupervisorConfig::new().with_deadline(Duration::from_millis(100)))
        .run(&MetropolisHastings::new(), &SlowGauss, &cfg)
        .expect("an expired run returns its partial draws");
    let took = started.elapsed();
    assert_eq!(report.interrupted, Some(Interrupt::DeadlineExpired));
    assert!(took < Duration::from_secs(1), "returned after {took:?}");
    for c in &report.run.chains {
        assert!(
            (1..cfg.iters).contains(&c.draws.len()),
            "{} draws",
            c.draws.len()
        );
    }
}

/// An MH chain that runs longer than the stall deadline is not stalled:
/// its draws reach the monitor as it makes them.
#[test]
fn mh_run_past_the_stall_deadline_is_not_a_stall() {
    let cfg = RunConfig::new(600).with_chains(2).with_seed(SEED);
    let report = Runtime::new(detector())
        .with_config(SupervisorConfig::new().with_stall_deadline(Duration::from_millis(250)))
        .run(&MetropolisHastings::new(), &SlowGauss, &cfg)
        .expect("a healthy run completes");
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert!(!report.degraded);
    for c in &report.run.chains {
        assert_eq!(c.draws.len(), 600);
    }
}

// ------------------------------------------------------- monitor wake-ups

/// The monitor sleeps until the draw that completes the boundary it
/// waits for wakes it; a wake it missed costs it the 100 ms safety-net
/// timeout. A free-running chain would not notice — the monitor would
/// only fall behind — so the chains here are made to wait for it: a
/// pause is requested before every placement, the chains park at the
/// next boundary, and the run returns once the monitor has written the
/// checkpoint there. Every one of the boundaries, resumed from one
/// after another, must be committed well inside that timeout: a 1%
/// miss rate would show as ten placements of 100 ms among placements of
/// about one (two are allowed for — a thousand placements write two
/// thousand files, and a disk may stall once). Requesting the pause
/// before a resumed placement has drawn is also what used to park it
/// for good: the boundary picked was the one it resumed at.
#[test]
fn no_boundary_wake_is_missed_across_a_thousand_pauses() {
    let model = AdModel::new("gauss", Gauss);
    // R̂ over a handful of draws can dip below 1; a streak no run is
    // long enough for keeps every run full-length all the same.
    let det = detector()
        .with_check_every(1)
        .with_min_iters(4)
        .with_consecutive(1000);
    let cfg = RunConfig::new(64).with_chains(2).with_seed(SEED);
    let boundaries: Vec<usize> = det.checkpoints(cfg.iters).collect();
    let path = std::env::temp_dir().join(format!(
        "bayes-fault-tolerance-{}-pauses.ckpt.json",
        std::process::id()
    ));
    let mut slow = Vec::new();
    let mut pauses = 0;
    while pauses < 1000 {
        let mut resume = false;
        for &boundary in &boundaries[..boundaries.len() - 1] {
            let pause = bayes_mcmc::supervisor::PauseControl::new();
            pause.request();
            let runtime = Runtime::new(det.clone()).with_config(
                SupervisorConfig::new()
                    .with_checkpoint_path(&path)
                    .with_pause(pause),
            );
            let started = std::time::Instant::now();
            let report = if resume {
                runtime.resume(&Nuts::default(), &model, &cfg, &path)
            } else {
                runtime.run(&Nuts::default(), &model, &cfg)
            }
            .expect("clean placement");
            let took = started.elapsed();
            if took >= Duration::from_millis(90) {
                slow.push(took);
            }
            assert_eq!(report.paused_at, Some(boundary));
            resume = true;
            pauses += 1;
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        slow.len() <= 2,
        "{} of {pauses} paused placements sat out a timeout: {slow:?}",
        slow.len()
    );
}
