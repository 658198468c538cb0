//! Cross-sampler benchmark matrix: run any `{mh, hmc, nuts} ×
//! workload × scale` cell against its golden reference posterior and
//! emit a schema-versioned `BENCH_matrix.json` plus a human-readable
//! table.
//!
//! ```text
//! bench_matrix [--tier1]
//!              [--workloads a,b,c] [--samplers nuts,hmc,mh]
//!              [--scales 0.25,0.5] [--iters N] [--chains N] [--seed N]
//!              [--out BENCH_matrix.json] [--refs DIR] [--bless]
//!              [--baseline OLD.json] [--time-factor F]
//!              [--compare NEW.json OLD.json]
//!              [--trace out.jsonl] [--inner-threads N]
//!              [--fastpath on|off]
//! ```
//!
//! `--tier1` selects the CI smoke subset (3 workloads × small scale ×
//! NUTS). `--baseline old.json` compares the fresh matrix against a
//! previous artifact and exits 1 on any ESS/sec or posterior-error
//! regression. `--compare a b` compares two existing artifacts without
//! running anything. The workload *data* seed is always the registry's
//! `REFERENCE_SEED`, so every run is scored against a reference over
//! the same dataset; `--seed` only moves the chains.

use bayes_bench::matrix::{compare, BenchCell, BenchMatrix, DEFAULT_TIME_FACTOR};
use bayes_bench::CommonArgs;
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::{chain, RunConfig};
use bayes_obs::RecorderHandle;
use bayes_suite::registry::{self, REFERENCE_SEED, SMOKE_SCALE};
use bayes_suite::{score_run, ReferencePosterior};
use std::path::PathBuf;
use std::time::Instant;

/// Workloads of the `--tier1` smoke subset: small, fast, and covering
/// three model families (hierarchical Poisson, hierarchical Bayesian,
/// Gaussian process).
const TIER1_WORKLOADS: [&str; 3] = ["12cities", "memory", "votes"];
/// Iterations per chain in the smoke subset.
const TIER1_ITERS: usize = 400;

const SAMPLERS: [&str; 3] = ["mh", "hmc", "nuts"];

struct Args {
    workloads: Vec<String>,
    samplers: Vec<String>,
    scales: Vec<f64>,
    iters: usize,
    chains: usize,
    seed: u64,
    out: PathBuf,
    refs: PathBuf,
    bless: bool,
    baseline: Option<PathBuf>,
    time_factor: f64,
    compare_files: Option<(PathBuf, PathBuf)>,
    fastpath: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("bench_matrix: {err}");
    eprintln!("see the module docs (cargo doc) or the README quickstart for flags");
    std::process::exit(2);
}

fn parse_args(rest: &[String]) -> Args {
    let mut args = Args {
        workloads: registry::workload_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        samplers: vec!["nuts".into()],
        scales: vec![SMOKE_SCALE],
        iters: 600,
        chains: 4,
        seed: 7,
        out: PathBuf::from("BENCH_matrix.json"),
        refs: PathBuf::from("tests/golden/references"),
        bless: false,
        baseline: None,
        time_factor: DEFAULT_TIME_FACTOR,
        compare_files: None,
        fastpath: true,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg} requires a value")))
        };
        match arg.as_str() {
            "--tier1" => {
                args.workloads = TIER1_WORKLOADS.iter().map(|s| s.to_string()).collect();
                args.samplers = vec!["nuts".into()];
                args.scales = vec![SMOKE_SCALE];
                args.iters = TIER1_ITERS;
            }
            "--workloads" => {
                args.workloads = value().split(',').map(str::to_string).collect();
            }
            "--samplers" => {
                args.samplers = value().split(',').map(str::to_string).collect();
            }
            "--scales" => {
                args.scales = value()
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .unwrap_or_else(|_| usage(&format!("bad scale {s:?}")))
                    })
                    .collect();
            }
            "--iters" => {
                args.iters = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --iters count"));
            }
            "--chains" => {
                args.chains = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --chains count"));
            }
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed"));
            }
            "--out" => args.out = PathBuf::from(value()),
            "--refs" => args.refs = PathBuf::from(value()),
            "--bless" => args.bless = true,
            "--baseline" => args.baseline = Some(PathBuf::from(value())),
            "--time-factor" => {
                args.time_factor = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --time-factor"));
            }
            "--compare" => {
                let a = PathBuf::from(value());
                let b = PathBuf::from(value());
                args.compare_files = Some((a, b));
            }
            "--fastpath" => {
                args.fastpath = match value().as_str() {
                    "on" => true,
                    "off" => false,
                    other => usage(&format!("bad --fastpath {other:?} (use on|off)")),
                };
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    for s in &args.samplers {
        if !SAMPLERS.contains(&s.as_str()) {
            usage(&format!("unknown sampler {s:?} (use mh|hmc|nuts)"));
        }
    }
    for w in &args.workloads {
        if !registry::workload_names().contains(&w.as_str()) {
            usage(&format!("unknown workload {w:?}"));
        }
    }
    args
}

fn load_matrix(path: &PathBuf) -> BenchMatrix {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())));
    match BenchMatrix::from_json(&text) {
        Ok(m) => {
            if m.malformed > 0 {
                eprintln!(
                    "warning: {} skipped {} malformed cell row(s)",
                    path.display(),
                    m.malformed
                );
            }
            m
        }
        Err(e) => usage(&format!("cannot decode {}: {e}", path.display())),
    }
}

/// Runs one cell and scores it against its reference.
fn run_cell(
    workload: &str,
    sampler: &str,
    scale: f64,
    args: &Args,
    common: &CommonArgs,
    reference: &ReferencePosterior,
    recorder: &RecorderHandle,
) -> BenchCell {
    let w = registry::workload(workload, scale, REFERENCE_SEED).expect("validated name");
    w.attach_recorder(recorder);
    let model = w.dynamics_model();
    let cfg = common.configure(
        RunConfig::new(args.iters)
            .with_chains(args.chains)
            .with_seed(args.seed)
            .with_recorder(recorder.clone())
            .with_profiler(bayes_bench::trace_profiler(recorder))
            .with_fast_path(args.fastpath)
            .threaded(),
    );
    let t0 = Instant::now();
    let run = match sampler {
        "nuts" => chain::run(&Nuts::default(), model, &cfg),
        "hmc" => chain::run(&StaticHmc::new(32), model, &cfg),
        "mh" => chain::run(&MetropolisHastings::new(), model, &cfg),
        other => unreachable!("validated sampler {other}"),
    };
    let wall = t0.elapsed().as_secs_f64();
    w.flush_telemetry();
    let score = score_run(&run, reference, wall);
    let inner_threads = common
        .configure(RunConfig::new(1))
        .effective_inner_threads();
    BenchCell::from_score(
        workload,
        sampler,
        scale,
        args.iters,
        args.chains,
        args.seed,
        inner_threads,
        args.fastpath,
        &score,
    )
}

fn main() {
    let common = CommonArgs::parse();
    let args = parse_args(common.rest());

    // Offline mode: compare two existing artifacts and exit.
    if let Some((new_path, base_path)) = &args.compare_files {
        let new = load_matrix(new_path);
        let base = load_matrix(base_path);
        let regs = compare(&new, &base, args.time_factor);
        report_regressions(&regs);
        return;
    }

    if args.bless {
        // Propagate to the reference store: forces re-blessing below.
        std::env::set_var("BAYES_BLESS", "1");
    }

    let recorder = common.recorder();
    bayes_bench::banner(
        "Benchmark matrix",
        "sampler × workload × scale cells scored against golden reference posteriors.",
    );

    let mut matrix = BenchMatrix::default();
    for workload in &args.workloads {
        for &scale in &args.scales {
            let reference = bayes_testkit::load_or_bless(&args.refs, workload, scale);
            for sampler in &args.samplers {
                let cell = run_cell(
                    workload, sampler, scale, &args, &common, &reference, &recorder,
                );
                println!(
                    "  {:<26} {}  ess/sec {:>8.1}  norm_err {:>6.3}  {}",
                    cell.key(),
                    bayes_bench::fmt_time(cell.wall_time_s),
                    cell.ess_per_sec,
                    cell.norm_err,
                    if cell.pass { "ok" } else { "FAIL" }
                );
                matrix.cells.push(cell);
            }
        }
    }

    std::fs::write(&args.out, matrix.to_json())
        .unwrap_or_else(|e| usage(&format!("cannot write {}: {e}", args.out.display())));
    println!("\n{}", matrix.render_table());
    println!("wrote {}", args.out.display());

    if let Some(base_path) = &args.baseline {
        let base = load_matrix(base_path);
        let regs = compare(&matrix, &base, args.time_factor);
        report_regressions(&regs);
    }
}

fn report_regressions(regs: &[bayes_bench::matrix::Regression]) {
    if regs.is_empty() {
        println!("baseline comparison: zero regressions");
        return;
    }
    eprintln!("baseline comparison: {} regression(s)", regs.len());
    for r in regs {
        eprintln!("  {r}");
    }
    std::process::exit(1);
}
