//! The reference gate: sampler runs scored against the golden reference
//! posteriors under `tests/golden/references/`.
//!
//! Each cell pairs one run with the long blessed NUTS run of the same
//! workload and data (posteriordb's pairing of a run with a reference
//! posterior) through [`bayes_suite::score_run`], whose MCSE-calibrated
//! tolerance holds on any host, inner-thread count and RNG stream. No
//! wall-clock time is asserted here: speed is measured by the harness
//! under `benchmarks/`.
//!
//! * The tier-1 cells: `12cities`, `memory` and `votes` × {NUTS, static
//!   HMC} × the sufficient-statistics fast path on and off, 400 × 4.
//! * The fast-path structure check: with the fast path on, `memory`'s
//!   gradients run through `stats_reduce` and never sweep the data;
//!   with it off, the reverse.
//! * The full battery (`--ignored`): every registry workload × {NUTS,
//!   static HMC} at 600 × 4. It is also how the references are blessed:
//!
//! ```text
//! BAYES_BLESS=1 cargo test --release --test reference_gate -- --ignored
//! ```
//!
//! Metropolis–Hastings is deliberately not gated: its untuned proposal
//! fails the references even at 20 000 iterations per chain
//! (EXPERIMENTS.md, "Known calibration deviations").

use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::obs::{Event, MemoryRecorder, Phase, ProfilerHandle, RecorderHandle};
use bayes_mcmc::{chain, MultiChainRun, RunConfig, Sampler};
use bayes_suite::registry::{self, REFERENCE_SEED, SMOKE_SCALE};
use bayes_suite::{score_run, ReferencePosterior, RunScore};
use std::sync::Arc;

/// Chains per cell.
const CHAINS: usize = 4;
/// Chain seed of every cell; the data seed is always `REFERENCE_SEED`,
/// so a run and its reference see the same dataset.
const CHAIN_SEED: u64 = 7;
/// Iterations per chain of the tier-1 cells.
const TIER1_ITERS: usize = 400;
/// Iterations per chain of the full battery.
const BATTERY_ITERS: usize = 600;

/// Minimum ESS of the tier-1 NUTS cells with the fast path on, as
/// measured at chain seed 7. ESS depends on the draws, not the host, so
/// a cell may not fall below half of it.
const NUTS_MIN_ESS: [(&str, f64); 3] = [("12cities", 84.7), ("memory", 79.7), ("votes", 82.1)];

/// The gated samplers.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Nuts,
    Hmc,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::Nuts, Kind::Hmc];
}

fn reference(workload: &str) -> ReferencePosterior {
    bayes_testkit::load_or_bless(&bayes_testkit::reference_dir(), workload, SMOKE_SCALE)
}

/// Runs one cell on the workload's dynamics model at the reference data.
fn run(
    workload: &str,
    kind: Kind,
    iters: usize,
    fast_path: bool,
    profiler: ProfilerHandle,
) -> MultiChainRun {
    fn go<S: Sampler>(sampler: &S, workload: &str, cfg: &RunConfig) -> MultiChainRun {
        let w = registry::workload(workload, SMOKE_SCALE, REFERENCE_SEED).expect("registry name");
        chain::run(sampler, w.dynamics_model(), cfg)
    }
    let cfg = RunConfig::new(iters)
        .with_chains(CHAINS)
        .with_seed(CHAIN_SEED)
        .with_fast_path(fast_path)
        .with_profiler(profiler)
        .threaded();
    match kind {
        Kind::Nuts => go(&Nuts::default(), workload, &cfg),
        Kind::Hmc => go(&StaticHmc::new(32), workload, &cfg),
    }
}

fn score(
    workload: &str,
    kind: Kind,
    iters: usize,
    fast_path: bool,
    reference: &ReferencePosterior,
) -> RunScore {
    let run = run(workload, kind, iters, fast_path, ProfilerHandle::null());
    // Wall time is not gated here, so the score's ESS/sec stays NaN.
    score_run(&run, reference, f64::NAN)
}

fn describe(cell: &str, s: &RunScore) -> String {
    format!(
        "{cell}: norm_err {:.3}, max_rhat {:.3}, min_ess {:.1}, {} divergences",
        s.norm_err, s.max_rhat, s.min_ess, s.divergences
    )
}

/// Scores the four tier-1 cells of `workload` and fails with every cell
/// that missed its reference or its ESS floor.
fn tier1(workload: &str) {
    let reference = reference(workload);
    let mut failed = Vec::new();
    for kind in Kind::ALL {
        for fast_path in [true, false] {
            let cell = format!("{workload}/{kind:?}/fast_path={fast_path}");
            let s = score(workload, kind, TIER1_ITERS, fast_path, &reference);
            eprintln!("{}", describe(&cell, &s));
            if !s.pass {
                failed.push(describe(&cell, &s));
            }
            if let (Kind::Nuts, true) = (kind, fast_path) {
                let (_, ess) = NUTS_MIN_ESS
                    .iter()
                    .find(|(w, _)| *w == workload)
                    .expect("listed");
                if s.min_ess.is_nan() || s.min_ess < 0.5 * ess {
                    failed.push(format!("{} below half of {ess}", describe(&cell, &s)));
                }
            }
        }
    }
    assert!(
        failed.is_empty(),
        "reference gate failed:\n  {}",
        failed.join("\n  ")
    );
}

#[test]
fn tier1_12cities() {
    tier1("12cities");
}

#[test]
fn tier1_memory() {
    tier1("memory");
}

#[test]
fn tier1_votes() {
    tier1("votes");
}

/// Gradient-phase spans of a profiled `memory` NUTS run: how many
/// `stats_reduce` and how many `shard_sweep` spans it closed, read from
/// the metrics event the profiler emits at the end of the run.
fn memory_gradient_spans(fast_path: bool) -> (u64, u64) {
    let mem = Arc::new(MemoryRecorder::new());
    let profiler = ProfilerHandle::new(RecorderHandle::new(mem.clone()));
    run("memory", Kind::Nuts, TIER1_ITERS, fast_path, profiler);
    let events = mem.take();
    let snapshot = events
        .iter()
        .find_map(|e| match e {
            Event::Metrics { snapshot, .. } => Some(snapshot),
            _ => None,
        })
        .expect("a profiled run emits its metrics");
    let count = |phase: Phase| {
        snapshot
            .histograms
            .get(phase.metric_name())
            .map_or(0, |h| h.count())
    };
    (count(Phase::StatsReduce), count(Phase::ShardSweep))
}

#[test]
fn fast_path_retires_the_data_sweep() {
    let (stats, sweeps) = memory_gradient_spans(true);
    assert!(stats > 0, "fast path on: no stats_reduce span");
    assert_eq!(
        sweeps, 0,
        "fast path on: the gradient still sweeps the data"
    );
    let (stats, sweeps) = memory_gradient_spans(false);
    assert_eq!(stats, 0, "fast path off: a stats_reduce span ran");
    assert!(sweeps > 0, "fast path off: no shard_sweep span");
}

#[test]
#[ignore = "every registry workload × {NUTS, HMC} at 600 × 4; BAYES_BLESS=1 re-blesses"]
fn every_workload_passes_its_reference() {
    let mut failed = Vec::new();
    for workload in registry::workload_names() {
        let reference = reference(workload);
        for kind in Kind::ALL {
            let cell = format!("{workload}/{kind:?}");
            let s = score(workload, kind, BATTERY_ITERS, true, &reference);
            eprintln!("{}", describe(&cell, &s));
            if !s.pass {
                failed.push(describe(&cell, &s));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "reference gate failed:\n  {}",
        failed.join("\n  ")
    );
}
