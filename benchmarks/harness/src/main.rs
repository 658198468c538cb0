//! Host-normalised benchmark of the BayesSuite reproduction; see
//! `benchmarks/README.md`.

mod aa;
mod check;
mod engine;
mod host;
mod metrics;
mod rungs;
mod spans;
mod stats;
mod workloads;

use engine::Env;
use std::path::PathBuf;

struct Args {
    env: Env,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    vet: Option<u64>,
    aa_sets: Option<usize>,
    aa_runs: usize,
    baseline_out: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --check\n       \
         perfbench --vet <chain seeds>\n       \
         perfbench --aa <sets> [--runs <n>] [--seed <base>] [--seconds <s>] [--baseline-out <file>]\n       \
         perfbench --print-benchmark-json",
        metrics::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        env: Env {
            repo_root: PathBuf::from("."),
            scratch: PathBuf::from("benchmarks/.build"),
        },
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        check: false,
        vet: None,
        aa_sets: None,
        aa_runs: 10,
        baseline_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--repo-root" => args.env.repo_root = PathBuf::from(value()),
            "--scratch" => args.env.scratch = PathBuf::from(value()),
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--check" => args.check = true,
            "--vet" => args.vet = Some(value().parse().unwrap_or_else(|_| usage("bad --vet"))),
            "--aa" => {
                args.aa_sets = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --aa set count")),
                )
            }
            "--runs" => args.aa_runs = value().parse().unwrap_or_else(|_| usage("bad --runs")),
            "--baseline-out" => args.baseline_out = Some(PathBuf::from(value())),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if let Err(e) = metrics::validate_tables(
        &metrics::WORKLOADS,
        &metrics::END_TO_END,
        metrics::PER_LAYER,
    ) {
        eprintln!("perfbench: metric table breaks the driver's limits: {e}");
        std::process::exit(1);
    }
    std::fs::create_dir_all(&args.env.scratch).unwrap_or_else(|e| {
        usage(&format!(
            "cannot create {}: {e}",
            args.env.scratch.display()
        ))
    });
    if args.check {
        std::process::exit(if check::run(&args.env) { 0 } else { 1 });
    }
    if let Some(seeds) = args.vet {
        std::process::exit(if check::vet(&args.env, seeds) { 0 } else { 1 });
    }
    if let Some(sets) = args.aa_sets {
        let ok = aa::run(
            &args.env,
            &aa::Args {
                sets: sets.max(1),
                runs: args.aa_runs.max(1),
                seconds: args.seconds,
                base_seed: args.seed,
                only: args.workload.clone(),
                baseline_out: args.baseline_out.clone(),
            },
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    let Some(workload) = args.workload.as_deref() else {
        usage("--workload is required");
    };
    macro_rules! run {
        ($w:ty) => {
            if args.trace {
                engine::run_traced::<$w>(&args.env, args.seed, args.seconds)
            } else {
                engine::run_untraced::<$w>(&args.env, args.seed, args.seconds)
            }
        };
    }
    let result = match workload {
        "nuts_tape" => run!(workloads::nuts::NutsTape),
        "nuts_stats" => run!(workloads::nuts::NutsStats),
        "serve_mix" => run!(workloads::serve::ServeMix),
        "charact_sweep" => run!(workloads::charact::CharactSweep),
        other => usage(&format!("unknown workload {other:?}")),
    };
    match result.to_json_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
