//! The commands of `bayes`, one module each, and the dispatch table
//! that declares their flags. Every command is a
//! `pub fn run(&Args) -> ExitCode`.

use crate::cli::{Args, Command, Flag};
use bayes_mcmc::{FaultInjector, InjectedFault};
use std::process::ExitCode;

pub mod ablation_partition;
pub mod ablation_subsample;
pub mod accel_study;
pub mod fault_smoke;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod hmc_vs_nuts;
pub mod serve_sim;
pub mod serve_top;
pub mod sweep_scaling;
pub mod table1;
pub mod table2;
pub mod trace_report;

/// Panics chain 0 the first time it completes iteration 60: one
/// deterministic same-stream retry absorbs it, and the fault event
/// reaches the trace (and a served job's flight recorder) on the way.
struct PanicOnce;

impl FaultInjector for PanicOnce {
    fn inject(&self, chain: usize, attempt: u32, iter: usize) -> Option<InjectedFault> {
        (chain == 0 && attempt == 0 && iter == 60).then_some(InjectedFault::Panic)
    }
}

/// Whether two chains' draws, `[iter][dim]`, are equal bit for bit.
/// Unlike `==`, this tells −0.0 from 0.0 and finds a NaN equal to a NaN
/// of the same bits.
fn draws_bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

const TRACE: Flag = Flag("--trace", "<path>", "stream every event to <path> as JSONL");
const INTERVAL: Flag = Flag("--interval-ms", "<ms>", "refresh period (default 500)");

/// Every command, in the order `bayes --help` lists them.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = &[
    Command::new("table1", table1::run, "Table I: the BayesSuite workloads", &[]),
    Command::new("table2", table2::run, "Table II: the platforms", &[TRACE]),
    Command::new("fig1", fig1::run, "Figure 1: single-core runtime statistics", &[TRACE]),
    Command::new("fig2", fig2::run, "Figure 2: scaling from 1 to 4 cores", &[]),
    Command::new("fig3", fig3::run, "Figure 3: LLC MPKI against modeled data size", &[]),
    Command::new("fig4", fig4::run, "Figure 4: Skylake against Broadwell", &[]),
    Command::new("fig5", fig5::run, "Figure 5: the convergence of 12cities", &[TRACE]),
    Command::new("fig6", fig6::run, "Figure 6: design-space exploration", &[]),
    Command::new("fig7", fig7::run, "Figure 7: energy savings", &[]),
    Command::new("fig8", fig8::run, "Figure 8: overall speedup", &[]),
    Command::new("hmc_vs_nuts", hmc_vs_nuts::run, "Section IV-A: HMC against NUTS", &[]),
    Command::new("accel_study", accel_study::run, "Section VII: the accelerator study", &[]),
    Command::new("ablation_subsample", ablation_subsample::run,
        "Section VII-B: LLC-fitting data subsampling", &[TRACE]),
    Command::new("ablation_partition", ablation_partition::run, "LLC way-partitioning", &[]),
    Command::new("sweep_scaling", sweep_scaling::run, "Sharded-likelihood thread scaling", &[
        TRACE,
        Flag("--cores",         "<n>",    "the core grant (default: host parallelism)"),
    ]),
    Command::new("serve_sim", serve_sim::run, "The job server on a synthetic multi-tenant mix", &[
        Flag("--cores",         "<n>",    "server cores (default 4)"),
        TRACE,
        Flag("--state-dir",     "<dir>",  "keep the journal and checkpoints in <dir>"),
        Flag("--kill-after-ms", "<ms>",   "kill the durable server this long in"),
        Flag("--recover",       "",       "recover a killed server from --state-dir"),
        Flag("--policy-demo",   "",       "overload shedding and deadline expiry"),
        Flag("--telemetry",     "",       "attach a server-side telemetry sampler"),
        Flag("--inject-fault",  "",       "panic one chain of the votes job"),
    ]).with_check(serve_sim::check),
    Command::new("serve_top", serve_top::run, "Live dashboard over a job server trace", &[
        INTERVAL,
        Flag("--once",          "",       "render one frame and exit"),
    ]).with_operand("<trace.jsonl>"),
    Command::new("trace_report", trace_report::run, "Characterize a JSONL trace", &[
        Flag("--csv",           "",       "the same aggregates as flat CSV"),
        Flag("--follow",        "",       "re-render whenever the trace grows"),
        INTERVAL,
    ]).with_operand("<trace.jsonl>"),
    Command::new("fault_smoke", fault_smoke::run, "Checkpoint round trip under injected faults", &[
        Flag("--checkpoint",    "<path>", "checkpoint log to write"),
        Flag("--resume-from",   "<path>", "resume a previous run's checkpoint"),
        Flag("--inject-faults", "",       "panic chain 0 at iteration 60"),
        TRACE,
    ]),
];

#[cfg(test)]
mod tests {
    use super::draws_bits_equal;

    #[test]
    fn draws_compare_by_bits() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(!draws_bits_equal(&[vec![-0.0]], &[vec![0.0]]));
        assert!(draws_bits_equal(&[vec![1.5, nan]], &[vec![1.5, nan]]));
        assert!(!draws_bits_equal(&[vec![nan]], &[vec![f64::NAN]]));
        assert!(!draws_bits_equal(&[vec![1.0]], &[vec![1.0], vec![1.0]]));
    }
}
