//! `--aa N`: N back-to-back sets of runs of this same binary.
//!
//! One set is what the acceptance driver does once: `--runs` runs of
//! every workload, each with another seed. For every (workload,
//! end-to-end metric) pair the report gives, normalised and raw side
//! by side, the largest spread within a set (interquartile range over
//! median, the driver's figure) and the largest relative gap between
//! set medians, next to the metric's bound. Counts must do better than
//! stay inside a bound: every metric whose unit is `count` — the
//! end-to-end `steps_per_work` in every run, and the per-layer counts
//! in one traced run per set and workload — has to read exactly the
//! same every time, and the report says whether it did.

use crate::engine::Env;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

pub struct Args {
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    pub base_seed: u64,
    /// Restrict the sets to one workload.
    pub only: Option<String>,
    /// Where to write the medians over all runs as JSON.
    pub baseline_out: Option<PathBuf>,
}

/// One child run's figures: the result line's metrics, their raw
/// counterparts from the report, and the operation counts.
struct RunFigures {
    norm: BTreeMap<String, f64>,
    raw: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
}

fn child(
    env: &Env,
    set: usize,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunFigures, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--repo-root")
        .arg(&env.repo_root)
        .arg("--scratch")
        .arg(&env.scratch)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "exit {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Every run's full report is kept for post-hoc analysis.
    let logs = env.scratch.join("aa");
    let _ = std::fs::create_dir_all(&logs);
    let _ = std::fs::write(
        logs.join(format!(
            "set{}-{workload}-seed{seed}{}.txt",
            set + 1,
            if traced { "-traced" } else { "" }
        )),
        stdout.as_bytes(),
    );
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = bayes_obs::json::parse(last).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(|c| c.as_bool()) != Some(true) {
        return Err(format!("run reported incorrect outputs: {last}"));
    }
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut norm = BTreeMap::new();
    for name in names {
        let v = doc
            .get("metrics")
            .and_then(|o| o.get(name))
            .and_then(|o| o.get("value"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("result line lacks {name}"))?;
        norm.insert(name.to_string(), v);
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let mut raw = BTreeMap::new();
    for line in stdout.lines() {
        let mut it = line.split_ascii_whitespace();
        if let (Some("raw"), Some(name), Some(v)) = (it.next(), it.next(), it.next()) {
            if let Ok(v) = v.parse() {
                raw.insert(name.to_string(), v);
            }
        }
    }
    Ok(RunFigures {
        norm,
        raw,
        attempted,
        failed,
    })
}

/// Largest relative gap between set medians: `(max − min) / min`.
pub fn median_gap(set_medians: &[f64]) -> f64 {
    let max = set_medians
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = set_medians.iter().copied().fold(f64::INFINITY, f64::min);
    if set_medians.is_empty() || min <= 0.0 {
        return 0.0;
    }
    (max - min) / min
}

/// How much worse `later` is than `first` for a metric of the given
/// direction, as a share of `first` (negative when it is better) —
/// the driver's second-set-against-first rule.
pub fn worsening(first: f64, later: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

/// Whether every value is bit-for-bit the first one.
pub fn repeats_exactly<'a>(values: impl Iterator<Item = &'a f64>) -> bool {
    let mut values = values.map(|v| v.to_bits());
    let first = values.next();
    values.all(|v| Some(v) == first)
}

/// Runs the sets and prints the report; returns whether every pair
/// stayed within its bound.
pub fn run(env: &Env, args: &Args) -> bool {
    // values[kind][workload][metric][set] -> per-run values
    type Table = BTreeMap<(&'static str, &'static str), Vec<Vec<f64>>>;
    let mut norm: Table = BTreeMap::new();
    let mut raw: Table = BTreeMap::new();
    let mut layer_counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    let selected: Vec<&crate::metrics::WorkloadDef> = WORKLOADS
        .iter()
        .filter(|w| args.only.as_deref().is_none_or(|o| o == w.name))
        .collect();
    println!(
        "# A/A: {} sets x {} runs x {} workloads, {} s each, seeds {}..{}",
        args.sets,
        args.runs,
        selected.len(),
        args.seconds,
        args.base_seed,
        args.base_seed + args.runs as u64 - 1
    );
    for set in 0..args.sets {
        for w in &selected {
            for k in 0..args.runs {
                let seed = args.base_seed + k as u64;
                match child(env, set, w.name, seed, args.seconds, false) {
                    Ok(f) => {
                        for m in &END_TO_END {
                            for (table, src) in [(&mut norm, &f.norm), (&mut raw, &f.raw)] {
                                let sets = table
                                    .entry((w.name, m.name))
                                    .or_insert_with(|| vec![Vec::new(); args.sets]);
                                if let Some(v) = src.get(m.name) {
                                    sets[set].push(*v);
                                }
                            }
                        }
                        println!(
                            "run set {} {} seed {seed}: attempted={} failed={} {}",
                            set + 1,
                            w.name,
                            f.attempted,
                            f.failed,
                            END_TO_END
                                .iter()
                                .map(|m| format!(
                                    "{}={:.5} (raw {:.5})",
                                    m.name, f.norm[m.name], f.raw[m.name]
                                ))
                                .collect::<Vec<_>>()
                                .join(" ")
                        );
                    }
                    Err(e) => {
                        println!("run set {} {} seed {seed}: FAILED: {e}", set + 1, w.name);
                        ok = false;
                    }
                }
                let _ = std::io::stdout().flush();
            }
            // One traced run per set and workload, for the per-layer
            // counts (the rungs behind them are the same in every
            // traced run, so all of them must agree).
            match child(env, set, w.name, args.base_seed, args.seconds, true) {
                Ok(f) => {
                    let mut line = Vec::new();
                    for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
                        layer_counts.entry(m.name).or_default().push(f.norm[m.name]);
                        line.push(format!("{}={}", m.name, f.norm[m.name]));
                    }
                    println!(
                        "traced set {} {}: attempted={} failed={} {}",
                        set + 1,
                        w.name,
                        f.attempted,
                        f.failed,
                        line.join(" ")
                    );
                }
                Err(e) => {
                    println!("traced set {} {}: FAILED: {e}", set + 1, w.name);
                    ok = false;
                }
            }
            let _ = std::io::stdout().flush();
        }
    }

    println!();
    println!(
        "{:<14} {:<16} {:>6} | {:>10} {:>10} {:>10} | {:>10} {:>10} | verdict",
        "workload", "metric", "bound", "norm gap", "norm worse", "norm IQR", "raw gap", "raw IQR"
    );
    for w in &selected {
        for m in &END_TO_END {
            let figures = |table: &Table| {
                let sets = &table[&(w.name, m.name)];
                let medians: Vec<f64> = sets
                    .iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| stats::median(s))
                    .collect();
                let spread = sets
                    .iter()
                    .filter(|s| s.len() >= 2)
                    .map(|s| stats::iqr_share(s))
                    .fold(0.0, f64::max);
                // Every later set against the first, as the driver
                // compares its second set with its first.
                let worse = medians
                    .iter()
                    .skip(1)
                    .map(|later| worsening(medians[0], *later, m.better))
                    .fold(f64::NEG_INFINITY, f64::max);
                (median_gap(&medians), worse, spread)
            };
            let (n_gap, n_worse, n_iqr) = figures(&norm);
            let (r_gap, _, r_iqr) = figures(&raw);
            // The driver exempts setup_s from the spread rule only.
            let within = n_worse <= m.bound && (m.name == "setup_s" || n_iqr <= m.bound);
            // A count has to repeat exactly, in every run of every set.
            let exact =
                m.unit != "count" || repeats_exactly(norm[&(w.name, m.name)].iter().flatten());
            ok &= within && exact;
            // With a single set there is no later set to be worse.
            let n_worse = if n_worse.is_finite() { n_worse } else { 0.0 };
            println!(
                "{:<14} {:<16} {:>6.3} | {:>10.4} {:>10.4} {:>10.4} | {:>10.4} {:>10.4} | {}",
                w.name,
                m.name,
                m.bound,
                n_gap,
                n_worse,
                n_iqr,
                r_gap,
                r_iqr,
                if !within {
                    "OUTSIDE BOUND"
                } else if !exact {
                    "COUNT DOES NOT REPEAT"
                } else if m.unit == "count" {
                    "ok (repeats exactly)"
                } else if n_iqr <= m.bound / 3.0 || m.name == "setup_s" {
                    "ok"
                } else {
                    "ok (spread above bound/3)"
                }
            );
        }
    }

    if !layer_counts.is_empty() {
        println!();
        println!("per-layer counts over the traced runs (one per set and workload):");
        for (name, values) in &layer_counts {
            let exact = repeats_exactly(values.iter());
            ok &= exact;
            println!(
                "{name:<32} {:>14} x{:<3} {}",
                values[0],
                values.len(),
                if exact {
                    "repeats exactly"
                } else {
                    "DOES NOT REPEAT"
                }
            );
        }
    }

    if let Some(path) = &args.baseline_out {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"runs_per_workload\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n",
            args.sets * args.runs,
            args.seconds
        ));
        for (wi, w) in selected.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", w.name));
            for (mi, m) in END_TO_END.iter().enumerate() {
                let all = |t: &Table| -> Vec<f64> {
                    t[&(w.name, m.name)].iter().flatten().copied().collect()
                };
                let (n, r) = (all(&norm), all(&raw));
                let (q1, q2, q3) = if n.len() >= 2 {
                    stats::quartiles(&n)
                } else {
                    (f64::NAN, f64::NAN, f64::NAN)
                };
                out.push_str(&format!(
                    "      \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"raw_median\": {}, \"runs\": {}}}{}\n",
                    m.name,
                    m.unit,
                    q2,
                    q1,
                    q3,
                    stats::median(&r),
                    n.len(),
                    if mi + 1 < END_TO_END.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    }}{}\n",
                if wi + 1 < selected.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        match std::fs::write(path, out) {
            Ok(()) => println!("# wrote {}", path.display()),
            Err(e) => {
                println!("# could not write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_gap_is_relative_to_the_smallest_median() {
        assert_eq!(median_gap(&[100.0, 110.0, 105.0]), 0.1);
        assert_eq!(median_gap(&[5.0]), 0.0);
        assert_eq!(median_gap(&[]), 0.0);
    }

    #[test]
    fn counts_repeat_only_when_every_bit_agrees() {
        assert!(repeats_exactly([3.5, 3.5, 3.5].iter()));
        assert!(repeats_exactly([].iter()));
        let next = f64::from_bits(3.5f64.to_bits() + 1);
        assert!(!repeats_exactly([3.5, next].iter()));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 108.0, Better::Lower) - 0.08).abs() < 1e-12);
        assert!((worsening(100.0, 108.0, Better::Higher) + 0.08).abs() < 1e-12);
        assert!((worsening(100.0, 92.0, Better::Higher) - 0.08).abs() < 1e-12);
    }
}
