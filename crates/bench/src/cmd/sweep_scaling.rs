//! Inner-thread scaling study for the sharded-likelihood layer, and
//! the table behind its dispatch rule.
//!
//! For every workload × scale {0.25, 1.0} × {dynamics model, full
//! model} it counts the tape nodes of one gradient, times the gradient
//! on the calling thread and with the shard sweep forced onto a pool
//! of 2 and of 4 inner threads, and reports what the model itself does
//! when it is granted more than one thread: `pooled` from
//! [`POOL_CROSSOVER_NODES`] nodes up, `serial` below — a dispatch is
//! two condvar round trips, which only a long enough sweep repays.
//! Every path must reproduce the serial gradient bit for bit (the
//! layer's determinism contract). `votes` (one indivisible Cholesky)
//! and `ode` (sequential RK4 chains) have no shardable sweep, and
//! `memory`/`survival`/`votes` take the sufficient-statistics fast
//! path (no data sweep left to shard), so their rows are flat by
//! design.

use super::{Args, ExitCode};
use bayes_mcmc::{Model, POOL_CROSSOVER_NODES};
use bayes_obs::{Event, MemoryRecorder, RecorderHandle};
use bayes_suite::registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inner-thread counts the sweep is forced onto.
const THREADS: [usize; 2] = [2, 4];
/// Scales swept: the study scale every sampling run uses, and full.
const SCALES: [f64; 2] = [0.25, 1.0];
/// Timing budget per cell, and the fewest evaluations it may hold.
const CELL: Duration = Duration::from_millis(60);
const MIN_REPS: usize = 20;

/// Mean seconds per call of `eval`, after one untimed call that
/// populates thread-local tapes and pools.
fn time_grad(mut eval: impl FnMut()) -> f64 {
    eval();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < CELL {
        eval();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// What `model` does with a grant of two inner threads: the widest
/// dispatch its shard telemetry reports over a few gradients (`-` for
/// a model that sweeps no shards at all).
fn dispatch(
    model: &dyn Model,
    theta: &[f64],
    grad: &mut [f64],
    trace: &RecorderHandle,
) -> &'static str {
    let memory = Arc::new(MemoryRecorder::new());
    model.set_recorder(&RecorderHandle::new(memory.clone()));
    model.set_inner_threads(2);
    for _ in 0..3 {
        model.ln_posterior_grad(theta, grad);
    }
    model.flush_telemetry();
    model.set_inner_threads(1);
    model.set_recorder(trace);
    let widest = memory.events().iter().find_map(|e| match e {
        Event::ShardAggregate { threads, .. } => Some(*threads),
        _ => None,
    });
    match widest {
        None => "-",
        Some(1) => "serial",
        Some(_) => "pooled",
    }
}

/// Fixed-order reduction: every path must reproduce the serial
/// gradient exactly, not approximately.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Args) -> ExitCode {
    let trace = &args.trace;
    crate::banner(
        "Inner-thread scaling of the sharded likelihood",
        "Wall-clock per gradient on the calling thread and with the shard sweep forced onto 2 \
         and 4 inner threads; identical gradients required on every path. Times are \
         machine-dependent — nodes and dispatch are not.",
    );
    // The allotment, not bare available_parallelism: under a scheduler
    // this process owns only its `--cores` grant, and timing thread
    // counts beyond it reports contention, not scaling.
    match args.number("--cores") {
        Some(cores) => println!("core allotment: {cores} (from --cores)"),
        None => println!(
            "host parallelism: {} (sole-tenancy fallback; pass --cores under a scheduler)",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    }
    println!(
        "dispatch: what a model granted 2 inner threads does — pooled from \
         {POOL_CROSSOVER_NODES} tape nodes per gradient, serial below\n"
    );
    let mut header = format!(
        "{:<10} {:>5} {:<8} | {:>8} | {:>9}",
        "name", "scale", "model", "nodes", "serial s"
    );
    for t in THREADS {
        header.push_str(&format!(" {:>9}", format!("pool t={t}")));
    }
    header.push_str(" |");
    for t in THREADS {
        header.push_str(&format!(" {:>5}", format!("x{t}")));
    }
    header.push_str(&format!(" | {:<8} | {:>7}", "dispatch", "bitwise"));
    println!("{header}");
    for name in registry::workload_names() {
        for scale in SCALES {
            let w = registry::workload(name, scale, 42).expect("registry name");
            w.attach_recorder(trace);
            for (which, model) in [("dynamics", w.dynamics_model()), ("full", w.model())] {
                let dim = model.dim();
                let theta: Vec<f64> = (0..dim).map(|i| 0.05 * ((i % 7) as f64 - 3.0)).collect();
                let nodes = model.grad_profile(&theta).tape_nodes;

                model.set_inner_threads(1);
                let mut reference = vec![0.0; dim];
                let serial_s = time_grad(|| {
                    model.ln_posterior_grad(&theta, &mut reference);
                });

                let mut times = Vec::with_capacity(THREADS.len());
                let mut bitwise = true;
                for t in THREADS {
                    let mut grad = vec![0.0; dim];
                    times.push(time_grad(|| {
                        model.ln_posterior_grad_on(&theta, &mut grad, t);
                    }));
                    bitwise &= same_bits(&grad, &reference);
                }
                let mut grad = vec![0.0; dim];
                let rule = dispatch(model, &theta, &mut grad, trace);
                bitwise &= same_bits(&grad, &reference);

                let mut row =
                    format!("{name:<10} {scale:>5} {which:<8} | {nodes:>8} | {serial_s:>9.2e}");
                for t in &times {
                    row.push_str(&format!(" {t:>9.2e}"));
                }
                row.push_str(" |");
                for t in &times {
                    row.push_str(&format!(" {:>5.2}", serial_s / t));
                }
                row.push_str(&format!(
                    " | {rule:<8} | {:>7}",
                    if bitwise { "ok" } else { "FAIL" }
                ));
                println!("{row}");
            }
            // One shard-sweep aggregate event per workload in the trace.
            w.flush_telemetry();
        }
    }
    trace.flush();
    println!(
        "\nx2/x4 are serial time over forced-pool time. Below the crossover a pool costs more"
    );
    println!("than it saves (the sweep is shorter than the dispatch), which is why the rule");
    println!("keeps those models on the calling thread whatever they are granted; votes and");
    println!("ode have no shardable sweep, and memory/survival/votes take the");
    println!("sufficient-statistics fast path (nothing left to shard).");
    ExitCode::SUCCESS
}
