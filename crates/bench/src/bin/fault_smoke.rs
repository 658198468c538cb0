//! Fault-tolerance smoke run: checkpoint round-trip under injected
//! faults.
//!
//! Unlike the figure/table binaries this one actually samples, because
//! the supervisor's guarantees — typed fault isolation, deterministic
//! retry, checkpoint/resume bit-identity — only show up in a live run.
//! Three modes, composable:
//!
//! ```text
//! fault_smoke --checkpoint ck.json                    # clean checkpointed run + in-process resume
//! fault_smoke --checkpoint ck.json --inject-faults    # panic chain 0 @ iter 60, recover, round-trip
//! fault_smoke --resume-from ck.json                   # resume a previous run's checkpoint
//! ```
//!
//! Every mode accepts `--trace <path>` to stream the run's `bayes_obs`
//! events (chain_fault / chain_retry / checkpoint_saved / resume / …)
//! as JSONL; CI validates those traces. Exits 0 on success, 1 when the
//! resumed draws are not bit-identical to the uninterrupted run's.

use bayes_autodiff::Real;
use bayes_bench::{banner, trace_recorder_from_args};
use bayes_mcmc::checkpoint::RunCheckpoint;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::supervisor::{FaultInjector, InjectedFault, Runtime as Supervisor};
use bayes_mcmc::{
    AdModel, ConvergenceDetector, LogDensity, RunConfig, RunReport, SupervisorConfig,
};
use bayes_obs::RecorderHandle;
use std::path::PathBuf;
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

/// Panic chain 0 the first time it completes iteration 60 — recovered
/// by one deterministic same-stream retry under the default policy.
struct PanicOnce;

impl FaultInjector for PanicOnce {
    fn inject(&self, chain: usize, attempt: u32, iter: usize) -> Option<InjectedFault> {
        (chain == 0 && attempt == 0 && iter == 60).then_some(InjectedFault::Panic)
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

struct Args {
    checkpoint: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    inject: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        checkpoint: None,
        resume_from: None,
        inject: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--checkpoint" => args.checkpoint = Some(required(&mut argv, "--checkpoint")),
            "--resume-from" => args.resume_from = Some(required(&mut argv, "--resume-from")),
            "--inject-faults" => args.inject = true,
            "--trace" => {
                // Consumed by trace_recorder_from_args; skip the value.
                let _ = required(&mut argv, "--trace");
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; expected --checkpoint <path>, \
                     --resume-from <path>, --inject-faults, --trace <path>"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn required(argv: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    match argv.next() {
        Some(v) => PathBuf::from(v),
        None => {
            eprintln!("{flag} requires a path");
            std::process::exit(2);
        }
    }
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

fn assert_bitwise(a: &RunReport, b: &RunReport, what: &str) {
    for (c, (ca, cb)) in a.run.chains.iter().zip(&b.run.chains).enumerate() {
        if ca.draws != cb.draws {
            eprintln!("FAIL: {what}: chain {c} draws are not bit-identical");
            std::process::exit(1);
        }
    }
    println!("  {what}: bit-identical ({} chains)", a.run.chains.len());
}

fn main() {
    let recorder = trace_recorder_from_args();
    let args = parse_args();
    banner(
        "Fault-tolerance smoke",
        "Supervised NUTS run with checkpoint round-trip and optional fault injection.",
    );

    // Resume-only mode: continue a previous process's checkpoint.
    if let Some(path) = &args.resume_from {
        let runtime = Supervisor::new(detector());
        let report = match runtime.resume(&Nuts::default(), &model(), &config(recorder), path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL: resume from {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        print_report("resumed run", &report);
        if report.degraded || report.run.chains.len() != CHAINS {
            eprintln!("FAIL: resumed run lost chains");
            std::process::exit(1);
        }
        println!("PASS");
        return;
    }

    let ck_path = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("bayes_fault_smoke_ck.json"));

    // Write phase: a supervised checkpointed run, optionally with an
    // injected chain panic that the retry policy must absorb.
    let mut sup = SupervisorConfig::new().with_checkpoint_path(&ck_path);
    if args.inject {
        sup = sup.with_injector(Arc::new(PanicOnce));
    }
    let runtime = Supervisor::new(detector()).with_config(sup);
    let report = match runtime.run(&Nuts::default(), &model(), &config(recorder.clone())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: supervised run: {e}");
            std::process::exit(1);
        }
    };
    print_report(
        if args.inject {
            "faulted run (recovered)"
        } else {
            "clean run"
        },
        &report,
    );
    if report.degraded {
        eprintln!("FAIL: run degraded — the injected fault must be absorbed by one retry");
        std::process::exit(1);
    }
    if args.inject && report.faults.is_empty() {
        eprintln!("FAIL: --inject-faults produced no fault");
        std::process::exit(1);
    }

    // Round-trip phase: load the checkpoint this run wrote and resume
    // it in-process; segmented RNG streams make the result bit-identical
    // to the run that was never interrupted.
    let ck = match RunCheckpoint::load(&ck_path) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("FAIL: reload checkpoint {}: {e}", ck_path.display());
            std::process::exit(1);
        }
    };
    println!(
        "checkpoint: iter {} of {} ({} chains) at {}",
        ck.iter,
        ck.iters,
        ck.chain_states.len(),
        ck_path.display()
    );
    let resumed = match Supervisor::new(detector()).resume(
        &Nuts::default(),
        &model(),
        &config(RecorderHandle::null()),
        &ck_path,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: in-process resume: {e}");
            std::process::exit(1);
        }
    };
    assert_bitwise(&resumed, &report, "resume round-trip");
    println!("PASS");
}
