//! The benchmark's contract with its driver: workloads, metric names,
//! units, directions and bounds, and the one-line JSON result.
//!
//! This table is the single source: `BENCHMARK.json` at the repository
//! root is its rendering (`perfbench --print-benchmark-json`), and a
//! unit test holds the two together.

use std::collections::BTreeMap;

/// Program and arguments the driver runs (it appends `--workload` …).
pub const COMMAND: [&str; 2] = ["bash", "benchmarks/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmarks"];
/// Seconds one run measures after set-up.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "nuts_tape",
        why: "threaded NUTS on six tape-swept cells, chain seeds from a fixed vetted pool (--seed orders the work): autodiff and density kernels are >85% of the time; latency and cpu metrics restate work_per_s",
    },
    WorkloadDef {
        name: "nuts_stats",
        why: "NUTS on the three sufficient-statistics cells, chain seeds from a fixed vetted pool: sub-microsecond gradients, so sampler and diagnostics dominate; latency and cpu metrics restate work_per_s",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "job server with WAL and checkpoints, 2 closed-loop clients, one kill/recover and one preemption per round; latency_ms_p50 is job turnaround, cpu_ms_per_work the CPU a served job costs",
    },
    WorkloadDef {
        name: "charact_sweep",
        why: "paper path: cache-simulator characterisation of all ten workloads; no sampler, tape or server hot path (the control); latency and cpu metrics restate work_per_s",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// End-to-end metrics. The driver requires every one of them from
/// every workload, so each is defined per workload in the same unit:
///
/// | | `nuts_*` | `serve_mix` | `charact_sweep` |
/// |---|---|---|---|
/// | work | gate-passing ESS | completed jobs | characterisations |
/// | operation | one cell's posterior | one served job | one characterisation |
/// | step | gradient evaluation | gradient evaluation | simulated kilo-instruction |
///
/// `steps_per_work` is an exact count ratio: it repeats bit for bit
/// between runs of the same code, whatever `--seed`, and separates
/// "cheaper step" (it stays, `work_per_s` moves) from "fewer steps".
/// On the batch workloads (`nuts_*`, `charact_sweep`) `latency_ms_p50`
/// and `cpu_ms_per_work` are built from the same round times as
/// `work_per_s`; they carry their own signal on `serve_mix` only
/// (turnaround of individually timed jobs, CPU burnt per job beyond
/// the job's own sampling).
///
/// No bound exceeds [`MAX_BOUND`]. They are confirmed by the A/A sets in
/// `results/aa.txt`: every in-set spread and every set-to-set drift
/// there is inside its bound.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEndDef {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "cpu_ms_per_work",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "steps_per_work",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The largest bound this benchmark allows itself (the driver would
/// take 0.25): a regression of more than a tenth must not pass a later
/// change's "no regression" gate. A metric that cannot hold it in the
/// A/A sets belongs in the per-layer table, which has no bounds.
pub const MAX_BOUND: f64 = 0.10;

pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayerDef {
    PerLayerDef { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

/// Per-layer metrics, all printed by every `--trace 1` run. Those from
/// the rungs (`crate::rungs`) are fixed micro-workloads and do not
/// depend on `--workload`; `bench.*` and `obs.trace_overhead_share`
/// describe the workload that was run.
pub const PER_LAYER: &[PerLayerDef] = &[
    // bayes-prob
    pl("prob.normal_lpdf_sum_ns_per_elem", "ns", Lo),
    pl("prob.poisson_lpmf_sum_ns_per_elem", "ns", Lo),
    pl("prob.gamma_lpdf_ns_per_elem", "ns", Lo),
    pl("prob.bernoulli_lpmf_ns_per_elem", "ns", Lo),
    pl("prob.ln_gamma_ns", "ns", Lo),
    pl("prob.erf_ns", "ns", Lo),
    // bayes-autodiff, bayes-odeint
    pl("autodiff.grad_ns_per_node", "ns", Lo),
    pl("autodiff.tape_nodes_per_grad", "count", Lo),
    pl("autodiff.grad_over_value_ratio", "ratio", Lo),
    pl("autodiff.forward_dual_grad_ns", "ns", Lo),
    pl("odeint.ode_grad_us", "us", Lo),
    // bayes-mcmc
    pl("mcmc.grad_share.nuts_tape", "ratio", Lo),
    pl("mcmc.grad_share.nuts_stats", "ratio", Lo),
    pl("mcmc.transition_us.nuts_tape", "us", Lo),
    pl("mcmc.transition_us.nuts_stats", "us", Lo),
    pl("mcmc.sampler_self_us.nuts_stats", "us", Lo),
    pl("mcmc.grad_evals_per_s.nuts_tape", "1/s", Hi),
    pl("mcmc.grad_evals_per_s.nuts_stats", "1/s", Hi),
    pl("mcmc.ess_per_s.ad", "1/s", Hi),
    pl("mcmc.ess_per_s.tickets", "1/s", Hi),
    pl("mcmc.ess_per_s.disease", "1/s", Hi),
    pl("mcmc.ess_per_s.racial", "1/s", Hi),
    pl("mcmc.ess_per_s.butterfly", "1/s", Hi),
    pl("mcmc.ess_per_s.12cities", "1/s", Hi),
    pl("mcmc.ess_per_s.memory", "1/s", Hi),
    pl("mcmc.ess_per_s.votes", "1/s", Hi),
    pl("mcmc.ess_per_s.survival", "1/s", Hi),
    pl("mcmc.summarize_ms", "ms", Lo),
    pl("mcmc.rhat_rank_us_per_param", "us", Lo),
    pl("mcmc.converge_detect_ms", "ms", Lo),
    pl("mcmc.hmc_ess_per_s", "1/s", Hi),
    pl("mcmc.mh_ess_per_s", "1/s", Hi),
    pl("mcmc.shard_speedup_2t", "ratio", Hi),
    pl("mcmc.checkpoint_encode_us", "us", Lo),
    pl("mcmc.checkpoint_decode_us", "us", Lo),
    pl("mcmc.checkpoint_bytes", "count", Lo),
    // bayes-suite
    pl("suite.build_ms.nuts_tape", "ms", Lo),
    pl("suite.build_ms.nuts_stats", "ms", Lo),
    pl("suite.build_ms.charact_sweep", "ms", Lo),
    pl("suite.score_ms", "ms", Lo),
    pl("suite.reference_parse_us", "us", Lo),
    // bayes-obs
    pl("obs.event_encode_ns", "ns", Lo),
    pl("obs.event_decode_ns", "ns", Lo),
    pl("obs.jsonl_record_ns", "ns", Lo),
    pl("obs.histogram_record_ns", "ns", Lo),
    pl("obs.span_ns", "ns", Lo),
    pl("obs.trace_bytes_per_iter", "count", Lo),
    pl("obs.trace_overhead_share", "ratio", Lo),
    // bayes-serve
    pl("serve.journal_append_us", "us", Lo),
    pl("serve.journal_bytes_per_job", "count", Lo),
    pl("serve.journal_replay_mb_per_s", "MB/s", Hi),
    pl("serve.wal_share", "ratio", Lo),
    pl("serve.first_draw_ms_p50", "ms", Lo),
    pl("serve.solo_turnaround_ms_p50", "ms", Lo),
    pl("serve.turnaround_ms_p90", "ms", Lo),
    pl("serve.overhead_ratio", "ratio", Lo),
    pl("serve.preempt_pause_ms_p50", "ms", Lo),
    pl("serve.recover_ms_p50", "ms", Lo),
    pl("serve.status_us", "us", Lo),
    // bayes-archsim, bayes-sched
    pl("archsim.signature_ms", "ms", Lo),
    pl("archsim.characterize_ms.ad", "ms", Lo),
    pl("archsim.characterize_ms.votes", "ms", Lo),
    pl("archsim.leapfrog_stream_ms", "ms", Lo),
    pl("sched.predictor_fit_us", "us", Lo),
    pl("sched.elision_study_ms", "ms", Lo),
    pl("sched.schedule_ms", "ms", Lo),
    // the harness itself: host-speed gauge and the run's own noise
    pl("bench.ref_kernel_ms", "ms", Lo),
    pl("bench.ref_kernel_iqr", "ratio", Lo),
    pl("bench.round_iqr", "ratio", Lo),
];

/// Whether `name` satisfies the driver's rule for names: starts with a
/// letter or digit; at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Whether `unit` satisfies the driver's rule for units.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Checks a metric table against the driver's limits; returns the
/// first violation.
pub fn validate_tables(
    workloads: &[WorkloadDef],
    end_to_end: &[EndToEndDef],
    per_layer: &[PerLayerDef],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads (2..=8 allowed)", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics (1..=16 allowed)",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics (1..=128 allowed)",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().map(|m| m.name))
        .chain(per_layer.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "why of {:?} is not one line of <= 200 chars",
                w.name
            ));
        }
    }
    let units = end_to_end
        .iter()
        .map(|m| m.unit)
        .chain(per_layer.iter().map(|m| m.unit));
    for unit in units {
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?}"));
        }
    }
    for m in end_to_end {
        if !(m.bound > 0.0 && m.bound <= MAX_BOUND) {
            return Err(format!("bound of {:?} outside (0, {MAX_BOUND}]", m.name));
        }
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("no setup_s metric in seconds, lower is better".into());
    }
    Ok(())
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("  \"command\": [{}],\n", list(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", list(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The values one run reports, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one run, printed as the last line of standard output.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    /// Renders the result line. `traced` selects which table the
    /// values must cover; a missing or non-finite value is a bug in
    /// the harness and is reported as an error rather than printed.
    pub fn to_json_line(&self, traced: bool) -> Result<String, String> {
        let expected: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for name in self.values.keys() {
            if !expected.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name:?} is not in the table"));
            }
        }
        let mut fields = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name:?} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name:?} is not finite ({v})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_driver_limits() {
        validate_tables(&WORKLOADS, &END_TO_END, PER_LAYER).unwrap();
        assert_eq!(WORKLOADS.len(), 4);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "no metric has a larger bound than setup_s"
        );
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["setup_s", "mcmc.ess_per_s.12cities", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/no",
            "ünï",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MB/s", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "0123456789abcdefg", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn count_limits_are_enforced() {
        let e2e = |n: usize| -> Vec<EndToEndDef> {
            let names: Vec<&'static str> = (0..n)
                .map(|i| &*Box::leak(format!("m{i}").into_boxed_str()))
                .collect();
            let mut v: Vec<EndToEndDef> = names
                .into_iter()
                .map(|name| EndToEndDef {
                    name,
                    unit: "s",
                    better: Better::Lower,
                    bound: 0.1,
                })
                .collect();
            v[0].name = "setup_s";
            v
        };
        let layers = |n: usize| -> Vec<PerLayerDef> {
            (0..n)
                .map(|i| pl(Box::leak(format!("l{i}").into_boxed_str()), "ns", Lo))
                .collect()
        };
        assert!(validate_tables(&WORKLOADS, &e2e(16), &layers(128)).is_ok());
        assert!(validate_tables(&WORKLOADS, &e2e(17), &layers(128)).is_err());
        assert!(validate_tables(&WORKLOADS, &e2e(16), &layers(129)).is_err());
        assert!(validate_tables(&WORKLOADS[..1], &e2e(1), &layers(1)).is_err());
        // Duplicate names across tables are refused.
        let mut dup = layers(2);
        dup[1].name = "setup_s";
        assert!(validate_tables(&WORKLOADS, &e2e(1), &dup).is_err());
        // A bound above a tenth is refused, though the driver allows it.
        let mut wide = e2e(2);
        wide[1].bound = 0.12;
        assert!(validate_tables(&WORKLOADS, &wide, &layers(1)).is_err());
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate with `bash benchmarks/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() < 64 * 1024);
        let doc = bayes_obs::json::parse(&on_disk).expect("BENCHMARK.json parses");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
    }

    #[test]
    fn result_line_lists_exactly_the_selected_table() {
        let mut values = Values::new();
        for m in &END_TO_END {
            values.insert(m.name, 1.25);
        }
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        };
        let line = r.to_json_line(false).unwrap();
        let doc = bayes_obs::json::parse(&line).unwrap();
        for m in &END_TO_END {
            let v = doc
                .get("metrics")
                .and_then(|o| o.get(m.name))
                .expect(m.name);
            assert_eq!(v.get("unit").and_then(|u| u.as_str()), Some(m.unit));
            assert_eq!(v.get("value").and_then(|u| u.as_f64()), Some(1.25));
        }
        // The end-to-end values do not satisfy the per-layer table...
        assert!(r.to_json_line(true).is_err());
        // ...a missing or non-finite value is an error, not a zero.
        let mut partial = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::new(),
        };
        assert!(partial.to_json_line(false).is_err());
        for m in &END_TO_END {
            partial.values.insert(m.name, f64::NAN);
        }
        assert!(partial.to_json_line(false).is_err());
    }
}
