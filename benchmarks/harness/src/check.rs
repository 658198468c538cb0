//! `--check`: the correctness oracles alone, in under ten seconds.
//!
//! The same oracles run inside every benchmark run before a number is
//! printed; this mode runs each once at small size so a change can be
//! checked without a 20-second measurement:
//!
//! * every NUTS cell passes its golden-reference gate at every chain
//!   seed of its workload's pool (all units of both NUTS workloads);
//! * a repeated unit reproduces its digest (determinism), and a unit
//!   run with the program's recorder and profiler attached reproduces
//!   the untraced digest (watching has no side effects);
//! * every served job ends `Completed`; a served job, the recovered
//!   job and the preempted job equal isolated runs bit for bit;
//! * the LLC-bound trio has the three highest simulated LLC MPKI.

use crate::engine::{Env, Workload};
use crate::spans::Tracer;
use crate::workloads::charact::CharactSweep;
use crate::workloads::nuts::{NutsStats, NutsTape};
use crate::workloads::serve::ServeMix;
use std::time::Instant;

/// Order seed of the check (the driver's runs use their own).
const SEED: u64 = 1;

/// Which repeats of `units[0]` a check adds to the single pass.
#[derive(Clone, Copy, PartialEq)]
enum Repeat {
    /// None: the workload's `verify` already pins its outputs.
    No,
    /// A second visit on the same build.
    Again,
    /// A second visit, and a third on a traced build.
    AgainAndTraced,
}

/// Runs `units` of a workload once, repeats `units[0]` as asked, then
/// runs the workload's own `verify`. Returns what failed and the
/// seconds it took.
fn check<W: Workload>(env: &Env, units: &[usize], repeat: Repeat) -> (Vec<String>, f64) {
    let started = Instant::now();
    let tracer = Tracer::new(false);
    let run = |w: &mut W, unit: usize, failures: &mut Vec<String>| {
        let span = tracer.open("bench.round", None, 0, 1.0);
        let out = w.run_unit(unit, SEED, &tracer, &span, 0);
        failures.extend(out.failures.iter().map(|f| format!("unit {unit}: {f}")));
        out.digest
    };
    let mut failures = Vec::new();
    let mut w = W::build(env, false);
    let digests: Vec<u64> = units
        .iter()
        .map(|&u| run(&mut w, u, &mut failures))
        .collect();
    if repeat != Repeat::No {
        let again = run(&mut w, units[0], &mut failures);
        if again != digests[0] {
            failures.push(format!(
                "unit {}: second visit hashed to {again:016x}, first to {:016x}",
                units[0], digests[0]
            ));
        }
    }
    if repeat == Repeat::AgainAndTraced {
        let mut t = W::build(env, true);
        let traced = run(&mut t, units[0], &mut failures);
        t.finish();
        if traced != digests[0] {
            failures.push(format!(
                "unit {}: traced visit hashed to {traced:016x}, untraced to {:016x}",
                units[0], digests[0]
            ));
        }
    }
    failures.extend(w.verify(env));
    w.finish();
    (failures, started.elapsed().as_secs_f64())
}

/// Every unit of a workload, in order.
fn all_units<W: Workload>(env: &Env) -> Vec<usize> {
    let w = W::build(env, false);
    let units = (0..w.units()).collect();
    w.finish();
    units
}

/// Runs every oracle; returns whether all passed.
pub fn run(env: &Env) -> bool {
    let started = Instant::now();
    let results = [
        (
            "nuts_tape: six cells pass the gate at every pool seed; repeated unit reproduces its digest",
            check::<NutsTape>(env, &all_units::<NutsTape>(env), Repeat::Again),
        ),
        (
            "nuts_stats: three cells pass the gate at every pool seed; repeated and traced units reproduce the digest",
            check::<NutsStats>(env, &all_units::<NutsStats>(env), Repeat::AgainAndTraced),
        ),
        (
            "serve_mix: all jobs complete; served, recovered and preempted jobs equal isolated runs",
            check::<ServeMix>(env, &[0], Repeat::No),
        ),
        (
            "charact_sweep: reports finite; LLC-bound trio ranks highest",
            check::<CharactSweep>(env, &[1, 2, 3], Repeat::No),
        ),
    ];
    let mut ok = true;
    for (what, (failures, seconds)) in &results {
        println!(
            "check: {} — {} ({seconds:.1} s)",
            what,
            if failures.is_empty() { "ok" } else { "FAILED" }
        );
        for f in failures {
            println!("  {f}");
            ok = false;
        }
    }
    println!("check: {:.1} s", started.elapsed().as_secs_f64());
    ok
}

/// `--vet N`: the golden gate of every NUTS cell at chain seeds `1..=N`,
/// at the workloads' own size. This is how the seed pools in
/// `workloads/nuts.rs` were chosen, and how they are chosen again after
/// a change that moves the sampler's random streams: a pool seed must
/// pass on every cell of its workload. Returns whether the pools in
/// use pass.
pub fn vet(env: &Env, seeds: u64) -> bool {
    use crate::workloads::nuts::{run_cell, Cell, NutsSpec, CHAINS, STATS, TAPE};
    let tracer = Tracer::new(false);
    let mut ok = true;
    for (workload, spec) in [("nuts_tape", &TAPE), ("nuts_stats", &STATS)] {
        let spec: &NutsSpec = spec;
        let mut clean: Vec<u64> = (1..=seeds).collect();
        for name in spec.kinds.iter().flat_map(|k| k.iter()) {
            let cell = Cell::load(env, name);
            let mut failed = Vec::new();
            let (mut worst_err, mut worst_rhat) = (0.0f64, 0.0f64);
            for seed in 1..=seeds {
                let span = tracer.open("bench.round", None, 0, 1.0);
                let r = run_cell(&cell, spec.iters, CHAINS, seed, false, &tracer, &span, 0);
                worst_err = worst_err.max(r.norm_err);
                worst_rhat = worst_rhat.max(r.max_rhat);
                if !r.pass {
                    failed.push(seed);
                    clean.retain(|s| *s != seed);
                    ok &= !spec.pool.contains(&seed);
                }
            }
            println!(
                "vet: {workload} {name:<10} {CHAINS} x {}: {} of {seeds} seeds fail {failed:?}; worst norm_err {worst_err:.3} (gate 1), worst rank-Rhat {worst_rhat:.3} (gate 1.2)",
                spec.iters,
                failed.len()
            );
        }
        println!(
            "vet: {workload}: seeds passing on every cell {clean:?}; pool in use {:?}",
            spec.pool
        );
    }
    ok
}
