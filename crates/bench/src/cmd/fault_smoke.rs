//! Fault-tolerance smoke run: checkpoint round-trip under injected
//! faults.
//!
//! Unlike the figure/table commands this one actually samples, because
//! the supervisor's guarantees — typed fault isolation, deterministic
//! retry, checkpoint/resume bit-identity — only show up in a live run.
//! Three modes, composable:
//!
//! ```text
//! bayes fault_smoke --checkpoint ck.json                  # clean run + in-process resume
//! bayes fault_smoke --checkpoint ck.json --inject-faults  # chain 0 panics @ iter 60; round-trip
//! bayes fault_smoke --resume-from ck.json                 # resume a previous run's checkpoint
//! ```
//!
//! Every mode accepts `--trace <path>` to stream the run's `bayes_obs`
//! events (chain_fault / chain_retry / checkpoint_saved / resume / …)
//! as JSONL; CI validates those traces. Exits 0 on success, 1 when the
//! resumed draws are not bit-identical to the uninterrupted run's.

use super::{Args, ExitCode, PanicOnce};
use crate::banner;
use bayes_autodiff::Real;
use bayes_mcmc::checkpoint::RunCheckpoint;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::supervisor::Runtime as Supervisor;
use bayes_mcmc::{
    AdModel, ConvergenceDetector, LogDensity, RunConfig, RunReport, SupervisorConfig,
};
use bayes_obs::RecorderHandle;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The smoke workload: a 2-d Gaussian posterior, cheap enough for CI
/// but sampled with the full NUTS + supervisor stack.
struct Gauss;

impl LogDensity for Gauss {
    fn dim(&self) -> usize {
        2
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        -(t[0].square() + (t[1] - 1.0).square()) * 0.5
    }
}

const ITERS: usize = 200;
const CHAINS: usize = 2;
const SEED: u64 = 7;

fn detector() -> ConvergenceDetector {
    // Unreachable threshold: the run executes all ITERS iterations and
    // writes a checkpoint at every schedule boundary, so the smoke test
    // is deterministic in length.
    ConvergenceDetector::new()
        .with_threshold(1.0 + 1e-12)
        .with_check_every(20)
        .with_min_iters(40)
}

fn config(recorder: RecorderHandle) -> RunConfig {
    RunConfig::new(ITERS)
        .with_chains(CHAINS)
        .with_seed(SEED)
        .with_recorder(recorder)
}

fn model() -> AdModel<Gauss> {
    AdModel::new("fault_smoke", Gauss)
}

fn print_report(label: &str, report: &RunReport) {
    println!(
        "{label}: chains={} stopped_at={:?} faults={} degraded={}",
        report.run.chains.len(),
        report.stopped_at,
        report.faults.len(),
        report.degraded,
    );
    for f in &report.faults {
        println!(
            "  fault: chain {} attempt {} {:?} at {:?}: {}",
            f.chain, f.attempt, f.kind, f.iter, f.message
        );
    }
}

fn assert_bitwise(a: &RunReport, b: &RunReport, what: &str) -> Result<(), String> {
    for (c, (ca, cb)) in a.run.chains.iter().zip(&b.run.chains).enumerate() {
        if ca.draws != cb.draws {
            return Err(format!("{what}: chain {c} draws are not bit-identical"));
        }
    }
    println!("  {what}: bit-identical ({} chains)", a.run.chains.len());
    Ok(())
}

pub fn run(args: &Args) -> ExitCode {
    banner(
        "Fault-tolerance smoke",
        "Supervised NUTS run with checkpoint round-trip and optional fault injection.",
    );
    match smoke(args) {
        Ok(()) => {
            println!("PASS");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("FAIL: {err}");
            ExitCode::FAILURE
        }
    }
}

fn smoke(args: &Args) -> Result<(), String> {
    let recorder = &args.trace;
    // Resume-only mode: continue a previous process's checkpoint.
    if let Some(path) = args.value("--resume-from").map(Path::new) {
        let runtime = Supervisor::new(detector());
        let report = runtime
            .resume(&Nuts::default(), &model(), &config(recorder.clone()), path)
            .map_err(|e| format!("resume from {}: {e}", path.display()))?;
        print_report("resumed run", &report);
        if report.degraded || report.run.chains.len() != CHAINS {
            return Err("resumed run lost chains".into());
        }
        return Ok(());
    }

    let ck_path = args.value("--checkpoint").map_or_else(
        || std::env::temp_dir().join("bayes_fault_smoke_ck.json"),
        PathBuf::from,
    );
    let inject = args.has("--inject-faults");

    // Write phase: a supervised checkpointed run, optionally with an
    // injected chain panic that the retry policy must absorb.
    let mut sup = SupervisorConfig::new().with_checkpoint_path(&ck_path);
    if inject {
        sup = sup.with_injector(Arc::new(PanicOnce));
    }
    let runtime = Supervisor::new(detector()).with_config(sup);
    let report = runtime
        .run(&Nuts::default(), &model(), &config(recorder.clone()))
        .map_err(|e| format!("supervised run: {e}"))?;
    print_report(
        if inject {
            "faulted run (recovered)"
        } else {
            "clean run"
        },
        &report,
    );
    if report.degraded {
        return Err("run degraded — the injected fault must be absorbed by one retry".into());
    }
    if inject && report.faults.is_empty() {
        return Err("--inject-faults produced no fault".into());
    }

    // Round-trip phase: load the checkpoint this run wrote and resume
    // it in-process; segmented RNG streams make the result bit-identical
    // to the run that was never interrupted.
    let ck = RunCheckpoint::load(&ck_path)
        .map_err(|e| format!("reload checkpoint {}: {e}", ck_path.display()))?;
    println!(
        "checkpoint: iter {} of {} ({} chains) at {}",
        ck.iter,
        ck.iters,
        ck.chain_states.len(),
        ck_path.display()
    );
    let resumed = Supervisor::new(detector())
        .resume(
            &Nuts::default(),
            &model(),
            &config(RecorderHandle::null()),
            &ck_path,
        )
        .map_err(|e| format!("in-process resume: {e}"))?;
    assert_bitwise(&resumed, &report, "resume round-trip")
}
