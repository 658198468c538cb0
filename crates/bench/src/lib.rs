//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary prints the rows/series of one table or figure from the
//! paper; `EXPERIMENTS.md` records how the output maps onto the
//! original. The harness keeps the expensive steps (signature
//! measurement) in one place so figures stay consistent.

use bayes_archsim::WorkloadSignature;
use bayes_obs::{JsonlRecorder, ProfilerHandle, RecorderHandle};
use bayes_suite::{registry, Workload};
use std::sync::Arc;

pub mod report;

/// Flags every bench binary understands, parsed in one place so
/// `--trace` and `--cores` behave identically across binaries.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// `--trace <path>`: stream every event as one JSON line to path.
    pub trace: Option<String>,
    /// `--cores <n>`: the core allotment granted to this process by an
    /// outer scheduler. Binaries that size work from host parallelism
    /// must prefer this over `available_parallelism`, which assumes
    /// sole tenancy of the machine.
    pub cores: Option<usize>,
}

impl CommonArgs {
    /// Parses the common flags out of an argument list, skipping
    /// everything else (a binary parses its own flags itself).
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace" => {
                    let path = it.next().ok_or("--trace requires a file path")?;
                    out.trace = Some(path.clone());
                }
                "--cores" => {
                    let n = it.next().ok_or("--cores requires a count")?;
                    let n: usize = n.parse().map_err(|_| format!("--cores: bad count {n:?}"))?;
                    if n == 0 {
                        return Err("--cores: allotment must be at least 1".into());
                    }
                    out.cores = Some(n);
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with status 2 on a
    /// malformed common flag — the behaviour every bench binary shares.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    /// Builds the recorder the flags ask for: a [`JsonlRecorder`] on
    /// `--trace <path>`, the null recorder otherwise. Exits with
    /// status 2 if the trace file cannot be created.
    pub fn recorder(&self) -> RecorderHandle {
        let Some(path) = &self.trace else {
            return RecorderHandle::null();
        };
        match JsonlRecorder::create(path) {
            Ok(rec) => RecorderHandle::new(Arc::new(rec)),
            Err(err) => {
                eprintln!("cannot create trace file {path}: {err}");
                std::process::exit(2);
            }
        }
    }

    /// The core allotment for this process: the explicit `--cores`
    /// grant when present, else the host's full parallelism — the
    /// sole-tenancy fallback for binaries run outside a scheduler.
    pub fn core_allotment(&self) -> usize {
        self.cores
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// Builds a recorder from the process arguments: `--trace <path>`
/// streams every event as one JSON line to `path`; without the flag
/// the returned handle is the null recorder and recording costs
/// nothing. Exits with status 2 if the trace file cannot be created.
pub fn trace_recorder_from_args() -> RecorderHandle {
    CommonArgs::parse().recorder()
}

/// Builds a span profiler feeding the same trace: span events and the
/// run's merged metrics snapshot land next to the sampler events, so
/// `trace_report` can print the phase breakdown. Null (and free) when
/// the recorder is the null recorder, i.e. without `--trace`.
pub fn trace_profiler(trace: &RecorderHandle) -> ProfilerHandle {
    if trace.enabled() {
        ProfilerHandle::new(trace.clone())
    } else {
        ProfilerHandle::null()
    }
}

/// A workload together with its measured signature.
pub struct Measured {
    /// The workload (full + dynamics models).
    pub workload: Workload,
    /// The measured signature feeding the performance model.
    pub sig: WorkloadSignature,
}

/// Measures all ten workloads at the given scale.
///
/// `probe_iters` controls the short real NUTS run used to extract
/// leapfrogs-per-iteration and chain imbalance; 30 is plenty for the
/// figures.
pub fn measure_all(scale: f64, probe_iters: usize, seed: u64) -> Vec<Measured> {
    registry::workload_names()
        .iter()
        .map(|name| {
            let workload = registry::workload(name, scale, seed).expect("registry name");
            let sig = WorkloadSignature::measure(&workload, probe_iters, seed);
            Measured { workload, sig }
        })
        .collect()
}

/// Prints a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}");
    println!();
}

/// Formats seconds compactly.
pub fn fmt_time(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_ranges() {
        assert_eq!(fmt_time(250.0), "250s");
        assert_eq!(fmt_time(2.34), "2.3s");
        assert_eq!(fmt_time(0.005), "5ms");
    }

    #[test]
    fn measure_all_covers_registry() {
        // Tiny scale keeps this test fast.
        let all = measure_all(0.02, 6, 1);
        assert_eq!(all.len(), 10);
        assert!(all.iter().all(|m| m.sig.tape_nodes > 0));
    }
}
