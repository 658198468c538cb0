//! Bit-reproducibility of the sampling runtime.
//!
//! Stream derivation (`StreamKey { seed, chain, purpose }`) makes every
//! chain's RNG stream a pure function of the `RunConfig` seed, so runs
//! are draw-for-draw identical regardless of scheduling: serial vs
//! threaded execution, repeated invocations of the threaded
//! convergence-monitored runtime, and — via the fixed-order shard
//! reduction — any `inner_threads` setting of a sharded model must all
//! agree bitwise.

use bayes_autodiff::Real;
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::supervisor::{InjectedFault, PauseControl, RunError, Runtime, SupervisorConfig};
use bayes_mcmc::{
    chain, run_until_converged, AdModel, ConvergenceDetector, LogDensity, MultiChainRun, RunConfig,
    Sampler, ShardedDensity, ShardedModel,
};
use bayes_testkit::FaultPlan;
use std::sync::Arc;

/// Mildly correlated 3-d Gaussian — cheap, but with enough structure
/// that NUTS trees vary in depth (so interleaving bugs would show).
struct Banana3;

impl LogDensity for Banana3 {
    fn dim(&self) -> usize {
        3
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        let a = t[0];
        let b = t[1] - a * 0.5;
        let c = t[2] + a * 0.3;
        -(a * a) * 0.5 - (b * b) * 0.7 - (c * c) * 0.6
    }
}

fn draws_of(run: &MultiChainRun) -> Vec<&Vec<Vec<f64>>> {
    run.chains.iter().map(|c| &c.draws).collect()
}

#[test]
fn run_until_converged_is_bit_identical_across_invocations() {
    let model = AdModel::new("banana3", Banana3);
    let cfg = RunConfig::new(600).with_chains(4).with_seed(42);
    let detector = ConvergenceDetector::new()
        .with_check_every(25)
        .with_min_iters(50);

    let a = run_until_converged(&Nuts::default(), &model, &cfg, &detector);
    let b = run_until_converged(&Nuts::default(), &model, &cfg, &detector);

    assert_eq!(a.stopped_at, b.stopped_at, "stop decision must replay");
    assert_eq!(a.run.chains.len(), b.run.chains.len());
    for (c, (ca, cb)) in a.run.chains.iter().zip(&b.run.chains).enumerate() {
        assert_eq!(
            ca.draws, cb.draws,
            "chain {c}: draws differ between identical invocations"
        );
    }
}

#[test]
fn serial_and_threaded_plain_runs_agree_bitwise() {
    let model = AdModel::new("banana3", Banana3);
    let serial = chain::run(
        &Nuts::default(),
        &model,
        &RunConfig::new(300).with_chains(4).with_seed(7),
    );
    let threaded = chain::run(
        &Nuts::default(),
        &model,
        &RunConfig::new(300).with_chains(4).with_seed(7).threaded(),
    );
    assert_eq!(draws_of(&serial), draws_of(&threaded));
}

/// Gaussian observations with unknown mean and log-scale, written in
/// the sharded `prior + likelihood(range)` shape so the same density
/// drives both the serial and the data-parallel model adapters.
struct GaussShards {
    data: Vec<f64>,
}

impl GaussShards {
    fn synthetic(n: usize) -> Self {
        let data = (0..n)
            .map(|i| ((i as f64 * 0.9).cos() * 1.5) - 0.2)
            .collect();
        Self { data }
    }
}

impl ShardedDensity for GaussShards {
    fn dim(&self) -> usize {
        2
    }
    fn n_data(&self) -> usize {
        self.data.len()
    }
    fn ln_prior<R: Real>(&self, t: &[R]) -> R {
        -(t[0] * t[0]) * 0.5 - (t[1] * t[1]) * 0.5
    }
    fn ln_likelihood_shard<R: Real>(&self, t: &[R], range: std::ops::Range<usize>) -> R {
        let mut acc = t[0] * 0.0;
        let mu = t[0];
        let inv_sigma = (-t[1]).exp();
        for &x in &self.data[range] {
            let z = (mu - x) * inv_sigma;
            acc = acc - z.square() * 0.5 - t[1];
        }
        acc
    }
}

impl LogDensity for GaussShards {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        self.ln_prior(t) + self.ln_likelihood_shard(t, 0..self.n_data())
    }
}

#[test]
fn inner_thread_counts_are_draw_for_draw_identical() {
    // The shard partition is a function of (n_data, shards) only and
    // the reduction runs in fixed shard order, so the monitored runtime
    // must replay exactly no matter how many inner threads evaluate the
    // likelihood shards.
    let detector = ConvergenceDetector::new()
        .with_check_every(20)
        .with_min_iters(40);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let model = ShardedModel::new("gauss_shards", GaussShards::synthetic(64));
            let cfg = RunConfig::new(200)
                .with_chains(2)
                .with_seed(11)
                .with_inner_threads(t);
            run_until_converged(&Nuts::default(), &model, &cfg, &detector)
        })
        .collect();
    for (i, r) in runs.iter().enumerate().skip(1) {
        let t = [1usize, 2, 8][i];
        assert_eq!(
            r.stopped_at, runs[0].stopped_at,
            "inner_threads={t} changed the stop decision"
        );
        assert_eq!(
            draws_of(&r.run),
            draws_of(&runs[0].run),
            "inner_threads={t} changed the draws"
        );
    }
}

#[test]
fn single_shard_model_samples_bitwise_with_the_serial_adapter() {
    // One shard records prior + likelihood on one tape — the exact
    // serial expression — so the sharded adapter must not perturb the
    // trajectory at all, draw for draw. The inner-thread hint on the
    // sharded run is deliberate: a single shard ignores it.
    let serial_model = AdModel::new("gauss_shards", GaussShards::synthetic(64));
    let serial = chain::run(
        &Nuts::default(),
        &serial_model,
        &RunConfig::new(250).with_chains(2).with_seed(5),
    );
    let sharded_model =
        ShardedModel::new("gauss_shards", GaussShards::synthetic(64)).with_shards(1);
    let sharded = chain::run(
        &Nuts::default(),
        &sharded_model,
        &RunConfig::new(250)
            .with_chains(2)
            .with_seed(5)
            .with_inner_threads(4),
    );
    assert_eq!(draws_of(&serial), draws_of(&sharded));
}

#[test]
fn recorders_never_perturb_draws() {
    // Recording is observation only: attaching any recorder — including
    // the JSONL sink doing real file I/O — must leave the stop decision
    // and every draw bit-identical, at any inner-thread count.
    use bayes_mcmc::obs::{JsonlRecorder, MemoryRecorder, RecorderHandle};
    use std::sync::Arc;

    let detector = ConvergenceDetector::new()
        .with_check_every(20)
        .with_min_iters(40);
    let elide = |inner: usize, rec: RecorderHandle| {
        let model = ShardedModel::new("gauss_shards", GaussShards::synthetic(64));
        let cfg = RunConfig::new(200)
            .with_chains(2)
            .with_seed(11)
            .with_inner_threads(inner)
            .with_recorder(rec);
        run_until_converged(&Nuts::default(), &model, &cfg, &detector)
    };

    for inner in [1usize, 4] {
        let baseline = elide(inner, RecorderHandle::null());

        let mem = Arc::new(MemoryRecorder::new());
        let memory = elide(inner, RecorderHandle::new(mem.clone()));
        assert!(!mem.take().is_empty(), "memory recorder saw no events");

        let path = std::env::temp_dir().join(format!("bayes_obs_determinism_{inner}.jsonl"));
        let jsonl = elide(
            inner,
            RecorderHandle::new(Arc::new(
                JsonlRecorder::create(&path).expect("create trace file"),
            )),
        );
        let _ = std::fs::remove_file(&path);

        for (label, run) in [("memory", &memory), ("jsonl", &jsonl)] {
            assert_eq!(
                run.stopped_at, baseline.stopped_at,
                "{label} recorder changed the stop decision (inner={inner})"
            );
            assert_eq!(
                draws_of(&run.run),
                draws_of(&baseline.run),
                "{label} recorder perturbed the draws (inner={inner})"
            );
        }
    }
}

#[test]
fn profiling_never_perturbs_draws() {
    // The span profiler is observation only: RAII wall-clock timers
    // around gradient evals, leapfrogs, doublings, and checkpoint
    // diagnostics never touch the RNG or any control flow, so a fully
    // profiled run must match the unprofiled one bit for bit — at any
    // inner-thread count.
    use bayes_mcmc::obs::{MemoryRecorder, ProfilerHandle, RecorderHandle};
    use std::sync::Arc;

    let detector = ConvergenceDetector::new()
        .with_check_every(20)
        .with_min_iters(40);
    let elide = |inner: usize, profiler: ProfilerHandle| {
        let model = ShardedModel::new("gauss_shards", GaussShards::synthetic(64));
        let cfg = RunConfig::new(200)
            .with_chains(2)
            .with_seed(11)
            .with_inner_threads(inner)
            .with_profiler(profiler);
        run_until_converged(&Nuts::default(), &model, &cfg, &detector)
    };

    for inner in [1usize, 4] {
        let baseline = elide(inner, ProfilerHandle::null());

        let mem = Arc::new(MemoryRecorder::new());
        let profiled = elide(inner, ProfilerHandle::new(RecorderHandle::new(mem.clone())));
        let events = mem.take();
        assert!(!events.is_empty(), "profiler emitted no events");

        assert_eq!(
            profiled.stopped_at, baseline.stopped_at,
            "profiling changed the stop decision (inner={inner})"
        );
        assert_eq!(
            draws_of(&profiled.run),
            draws_of(&baseline.run),
            "profiling perturbed the draws (inner={inner})"
        );
    }
}

#[test]
fn telemetry_never_perturbs_draws() {
    // The telemetry sampler reads cumulative profiler snapshots from
    // the supervisor's monitor thread — off the sampling hot path —
    // and diffs them into rate samples. Like the profiler itself, it
    // must be observation only: a fully telemetered run (profiler +
    // sampler on an aggressive cadence) matches the bare run bit for
    // bit at any inner-thread count.
    use bayes_mcmc::obs::{
        MemoryRecorder, ProfilerHandle, RecorderHandle, TelemetryHandle, TelemetrySampler,
    };
    use std::time::Duration;

    let detector = ConvergenceDetector::new()
        .with_check_every(20)
        .with_min_iters(40);
    let run = |inner: usize, profiler: ProfilerHandle, telemetry: TelemetryHandle| {
        let model = ShardedModel::new("gauss_shards", GaussShards::synthetic(64));
        let cfg = RunConfig::new(200)
            .with_chains(2)
            .with_seed(11)
            .with_inner_threads(inner)
            .with_profiler(profiler);
        Runtime::new(detector.clone())
            .with_config(SupervisorConfig::new().with_telemetry(telemetry))
            .run(&Nuts::default(), &model, &cfg)
            .expect("supervised run")
    };

    for inner in [1usize, 4] {
        let baseline = run(inner, ProfilerHandle::null(), TelemetryHandle::null());

        let mem = Arc::new(MemoryRecorder::new());
        let recorder = RecorderHandle::new(mem.clone());
        let sampler = TelemetrySampler::new(recorder.clone())
            .with_wall_interval(Duration::from_millis(1))
            .with_iter_stride(8);
        let telemetered = run(
            inner,
            ProfilerHandle::new(recorder),
            TelemetryHandle::new(sampler),
        );

        let samples = mem
            .take()
            .into_iter()
            .filter(|e| matches!(e, bayes_mcmc::obs::Event::MetricsSample { .. }))
            .count();
        assert!(samples > 0, "sampler emitted no metrics_sample events");

        assert_eq!(
            telemetered.stopped_at, baseline.stopped_at,
            "telemetry changed the stop decision (inner={inner})"
        );
        assert_eq!(
            draws_of(&telemetered.run),
            draws_of(&baseline.run),
            "telemetry perturbed the draws (inner={inner})"
        );
    }
}

#[test]
fn faulted_then_retried_runs_are_bit_identical_to_fault_free_runs() {
    // A panic retry replays the identical RNG stream (the default
    // ReseedPolicy::StreamFaults keeps the stream for environment
    // faults), so a run that lost a chain at iteration 60 and retried
    // it must match the fault-free supervised run draw for draw — at
    // any inner-thread count.
    let detector = ConvergenceDetector::new()
        .with_check_every(20)
        .with_min_iters(40);
    for inner in [1usize, 4] {
        let run = |plan: Option<FaultPlan>| {
            let model = ShardedModel::new("gauss_shards", GaussShards::synthetic(64));
            let cfg = RunConfig::new(200)
                .with_chains(2)
                .with_seed(11)
                .with_inner_threads(inner);
            let sup = match plan {
                Some(p) => SupervisorConfig::new().with_injector(Arc::new(p)),
                None => SupervisorConfig::new(),
            };
            Runtime::new(detector.clone())
                .with_config(sup)
                .run(&Nuts::default(), &model, &cfg)
                .expect("supervised run")
        };
        let clean = run(None);
        let faulted = run(Some(FaultPlan::once(0, 60, InjectedFault::Panic)));
        assert!(!faulted.degraded, "one retry fits the default budget");
        assert_eq!(faulted.faults.len(), 1, "inner={inner}");
        assert_eq!(
            faulted.stopped_at, clean.stopped_at,
            "inner={inner}: retry changed the stop decision"
        );
        assert_eq!(
            draws_of(&faulted.run),
            draws_of(&clean.run),
            "inner={inner}: retried run is not bit-identical"
        );
    }
}

/// Never converges, so runs are full-length; checkpoints (and RNG
/// segments) every 20 iterations from 40.
fn full_length_detector() -> ConvergenceDetector {
    ConvergenceDetector::new()
        .with_threshold(1.0 + 1e-12)
        .with_check_every(20)
        .with_min_iters(40)
}

fn sharded_model() -> ShardedModel<GaussShards> {
    ShardedModel::new("gauss_shards", GaussShards::synthetic(64))
}

fn sharded_cfg(inner: usize) -> RunConfig {
    RunConfig::new(200)
        .with_chains(2)
        .with_seed(11)
        .with_inner_threads(inner)
}

/// The bitwise reference for a checkpointed run: the same run,
/// checkpointing but uninterrupted, so both draw from the same
/// segmented streams.
fn uninterrupted<S: Sampler>(sampler: &S, inner: usize, path: &std::path::Path) -> MultiChainRun {
    let report = Runtime::new(full_length_detector())
        .with_config(SupervisorConfig::new().with_checkpoint_path(path))
        .run(sampler, &sharded_model(), &sharded_cfg(inner))
        .expect("uninterrupted run");
    let _ = std::fs::remove_file(path);
    report.run
}

/// A run killed mid-flight and resumed from its last on-disk checkpoint
/// finishes with precisely the draws of the run that was never
/// interrupted.
fn checkpoint_resume_case<S: Sampler>(name: &str, sampler: &S, inner: usize) {
    let tmp = std::env::temp_dir();
    let reference = uninterrupted(
        sampler,
        inner,
        &tmp.join(format!("bayes_det_ck_full_{name}_{inner}.json")),
    );

    // Interrupted run: a persistent panic at iteration 110 with a
    // single-attempt budget kills chain 0, the quorum collapses, and
    // the run dies — leaving its last checkpoint (iteration 100) on
    // disk.
    let ck_path = tmp.join(format!("bayes_det_ck_mid_{name}_{inner}.json"));
    let killed = Runtime::new(full_length_detector())
        .with_config(
            SupervisorConfig::new()
                .with_checkpoint_path(&ck_path)
                .with_retry(bayes_mcmc::RetryPolicy {
                    max_attempts: 1,
                    reseed: bayes_mcmc::ReseedPolicy::StreamFaults,
                })
                .with_injector(Arc::new(FaultPlan::persistent(
                    0,
                    110,
                    InjectedFault::Panic,
                    1,
                ))),
        )
        .run(sampler, &sharded_model(), &sharded_cfg(inner));
    assert!(
        matches!(killed, Err(RunError::QuorumLost { survivors: 1, .. })),
        "{name}, inner={inner}: the interrupted run must fail"
    );

    // Resume from the mid-run checkpoint and compare bitwise.
    let resumed = Runtime::new(full_length_detector())
        .resume(sampler, &sharded_model(), &sharded_cfg(inner), &ck_path)
        .expect("resumed run");
    let _ = std::fs::remove_file(&ck_path);
    assert_eq!(resumed.stopped_at, None);
    assert_eq!(
        draws_of(&resumed.run),
        draws_of(&reference),
        "{name}, inner={inner}: resume is not bit-identical"
    );
    for (c, r) in resumed.run.chains.iter().zip(&reference.chains) {
        assert_eq!(
            c.draws.len(),
            200,
            "{name}, inner={inner}: resumed run is short"
        );
        assert_eq!(c.evals_per_iter, r.evals_per_iter);
        assert_eq!(c.grad_evals, r.grad_evals);
        assert_eq!(c.accept_mean.to_bits(), r.accept_mean.to_bits());
    }
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run_bitwise() {
    // Segmented RNG streams make checkpoint/resume exact for every
    // sampler, at any inner-thread count.
    for inner in [1usize, 4] {
        checkpoint_resume_case("nuts", &Nuts::default(), inner);
        checkpoint_resume_case("hmc", &StaticHmc::new(8), inner);
        checkpoint_resume_case("mh", &MetropolisHastings::new(), inner);
    }
}

/// A run paused at its first boundary and resumed at the other
/// inner-thread count finishes with the draws of the run never paused.
fn pause_resume_case<S: Sampler>(name: &str, sampler: &S, inner: usize) {
    let tmp = std::env::temp_dir();
    let reference = uninterrupted(
        sampler,
        inner,
        &tmp.join(format!("bayes_det_pause_ref_{name}_{inner}.json")),
    );

    let path = tmp.join(format!("bayes_det_pause_{name}_{inner}.json"));
    let pause = PauseControl::new();
    pause.request();
    let paused = Runtime::new(full_length_detector())
        .with_config(
            SupervisorConfig::new()
                .with_checkpoint_path(&path)
                .with_pause(pause.clone()),
        )
        .run(sampler, &sharded_model(), &sharded_cfg(inner))
        .expect("paused run");
    assert_eq!(paused.paused_at, Some(40), "{name}, inner={inner}");
    assert!(pause.is_paused());
    for (a, b) in paused.run.chains.iter().zip(&reference.chains) {
        assert_eq!(
            a.draws[..],
            b.draws[..40],
            "{name}, inner={inner}: pause prefix"
        );
    }

    let resumed = Runtime::new(full_length_detector())
        .with_config(SupervisorConfig::new().with_checkpoint_path(&path))
        .resume(sampler, &sharded_model(), &sharded_cfg(5 - inner), &path)
        .expect("resumed run");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        draws_of(&resumed.run),
        draws_of(&reference),
        "{name}, inner={inner}: paused-then-resumed run is not bit-identical"
    );
}

#[test]
fn every_sampler_pauses_and_resumes_bitwise() {
    for inner in [1usize, 4] {
        pause_resume_case("nuts", &Nuts::default(), inner);
        pause_resume_case("hmc", &StaticHmc::new(8), inner);
        pause_resume_case("mh", &MetropolisHastings::new(), inner);
    }
}

#[test]
fn stats_fast_path_workload_replays_bitwise_across_inner_threads() {
    // A sufficient-statistics workload never touches the sharded sweep
    // during sampling, so its NUTS run must be draw-for-draw identical
    // at any inner-thread hint — and across repeated invocations.
    let runs: Vec<_> = [1usize, 4, 1]
        .iter()
        .map(|&t| {
            let w = bayes_suite::workloads::memory::workload(0.25, 3);
            let cfg = RunConfig::new(120)
                .with_chains(2)
                .with_seed(9)
                .with_inner_threads(t);
            assert!(
                w.model().fast_path(),
                "memory must default to the fast path"
            );
            chain::run(&Nuts::default(), w.model(), &cfg)
        })
        .collect();
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            draws_of(r),
            draws_of(&runs[0]),
            "run {i}: stats-path draws changed with the inner-thread hint"
        );
    }
}

#[test]
fn adjacent_seeds_do_not_share_chain_streams() {
    // The old `seed + chain_id` scheme made (seed 0, chain 1) collide
    // with (seed 1, chain 0); derived streams must not.
    let model = AdModel::new("banana3", Banana3);
    let s0 = chain::run(
        &Nuts::default(),
        &model,
        &RunConfig::new(60).with_chains(2).with_seed(0),
    );
    let s1 = chain::run(
        &Nuts::default(),
        &model,
        &RunConfig::new(60).with_chains(2).with_seed(1),
    );
    assert_ne!(
        s0.chains[1].draws, s1.chains[0].draws,
        "adjacent seeds must not reuse a chain stream"
    );
}
