//! The round loop shared by the four workloads.
//!
//! A workload is a fixed set of *units* — deterministic pieces of
//! work of 0.2–1.0 s, each a (kind, chain-seed) pair. A run visits
//! them cyclically, in an order `--seed` permutes, until `--seconds`
//! have passed and every unit has been visited. Each visit (a *round*)
//! is bracketed by the reference kernel and reported in normalised
//! seconds; a unit's cost is the median over its visits, and the
//! end-to-end figures are built from the per-unit medians, so neither
//! a disturbed round nor the number of rounds a fast or slow host
//! completes moves them.
//!
//! The work a unit does never depends on `--seed` (see README.md,
//! "Units, rounds, and what `--seed` does"): the seed decides the order of
//! units and of cells, jobs or simulations inside a unit. The set-up
//! passes do not depend on it at all ([`SETUP_ORDER`]).

use crate::host::{self, Factors, RefKernel, RefTiming};
use crate::metrics::{RunResult, Values};
use crate::spans::{SpanGuard, Tracer};
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Where the harness may read the repository and write scratch files.
#[derive(Clone)]
pub struct Env {
    pub repo_root: PathBuf,
    pub scratch: PathBuf,
}

/// What one visit to a unit produced.
#[derive(Default)]
pub struct UnitOutput {
    /// Hash of every deterministic output (draws, counts, reports).
    pub digest: u64,
    /// Work delivered: gate-passing ESS, completed jobs, or
    /// characterisations.
    pub work: f64,
    /// User-visible operations attempted (cells, jobs, simulations).
    pub ops: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// Raw wall seconds of individually timed operations (served-job
    /// turnarounds); empty for batch workloads.
    pub latencies_s: Vec<f64>,
    /// Named raw side timings in seconds (recovery, preemption pause).
    pub side_s: Vec<(&'static str, f64)>,
    /// Algorithmic steps behind the work, an exact count: gradient
    /// evaluations, or simulated kilo-instructions where no gradient
    /// runs (`charact_sweep`).
    pub steps: u64,
}

impl UnitOutput {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Mixes one word into a running digest (FNV-style multiply-xor over
/// 64-bit words: the draws of a round run to megabytes, and a
/// byte-wise hash would show up in the timings).
pub fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(23)
}

/// Digest of a set of draws, chain by chain.
pub fn digest_draws(mut digest: u64, chains: &[Vec<Vec<f64>>]) -> u64 {
    for chain in chains {
        digest = mix(digest, chain.len() as u64);
        for draw in chain {
            for x in draw {
                digest = mix(digest, x.to_bits());
            }
        }
    }
    digest
}

/// SplitMix64, for the seeded permutations (the harness takes no
/// `rand` dependency and must not share a stream with the program).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix(seed).shuffle(&mut order);
    order
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Threads the workload keeps busy; the reference kernel that
    /// brackets its rounds loads as many.
    const LOAD_THREADS: usize;
    /// How much of a host slow-down, as the reference kernel reads it,
    /// reaches this workload's rounds: a round's time is divided by
    /// `(reference / nominal) ^ HOST_ELASTICITY`. 1 where the rounds
    /// are the arithmetic-over-arrays the kernel imitates; below 1
    /// where part of a round waits on timers, which no neighbour slows;
    /// above 1 where cache- and allocation-bound code suffers more from
    /// a shared core than `ln`/`exp` sweeps do. Frozen like
    /// `REF_NOMINAL_S`: fitted once over the A/A runs (README.md, "How
    /// normalisation works") and part of the benchmark's definition.
    const HOST_ELASTICITY: f64;

    /// Set-up: build models, parse references, start servers, measure
    /// signatures. `traced` attaches the program's own recorder and
    /// profiler through its public configuration.
    fn build(env: &Env, traced: bool) -> Self;

    /// Number of distinct units.
    fn units(&self) -> usize;

    /// Runs one unit under `round`'s span. `order` seeds the order of
    /// the cells, jobs or simulations inside the unit and nothing else.
    fn run_unit(
        &mut self,
        unit: usize,
        order: u64,
        tracer: &Tracer,
        round: &SpanGuard<'_>,
        id: u64,
    ) -> UnitOutput;

    /// Oracles that need more than one round's output; runs after the
    /// timed phase. Returns what failed.
    fn verify(&mut self, _env: &Env) -> Vec<String> {
        Vec::new()
    }

    /// Tears the workload down (joins servers, removes scratch files).
    fn finish(self) {}
}

/// One timed round.
pub struct Round {
    pub unit: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The reference timings taken before and after the round.
    pub bracket: (RefTiming, RefTiming),
    /// The multipliers the bracket gives, at the workload's elasticity,
    /// for this round's wall and CPU seconds.
    pub factors: Factors,
    pub out: UnitOutput,
}

impl Round {
    pub fn norm_s(&self) -> f64 {
        self.wall_s * self.factors.wall
    }

    pub fn cpu_norm_s(&self) -> f64 {
        self.cpu_s * self.factors.cpu
    }
}

/// Runs one unit as a round: span, wall clock, CPU clock. The caller
/// supplies the reference timing taken before it and takes the one
/// after.
fn timed_round<W: Workload>(
    w: &mut W,
    unit: usize,
    order: u64,
    tracer: &Tracer,
    id: u64,
) -> (f64, f64, UnitOutput) {
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let out = {
        let span = tracer.open("bench.round", None, id, 1.0);
        w.run_unit(unit, order, tracer, &span, id)
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    (wall, cpu, out)
}

/// Everything an untraced run measured.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub setups_norm_s: Vec<f64>,
    pub setups_raw_s: Vec<f64>,
    pub refs: Vec<RefTiming>,
    pub failures: Vec<String>,
    pub timed_wall_s: f64,
    /// Peak RSS when the first full cycle over the units completed: a
    /// fixed amount of work (the set-up passes, every unit once), so
    /// the figure does not depend on how many more rounds the host
    /// fitted into the run.
    pub rss_mb: f64,
}

/// Set-up passes per run: at least this many; the reported `setup_s`
/// is the median over the passes. Each pass builds the workload and
/// runs one full warm-up round, so the passes also are the warm-up
/// rounds that bring caches, allocator arenas and lazy state to steady
/// size. Five, not three: a pass is a single bracketed measurement of
/// 0.3–1.3 s whose normalised value scatters by 5–15% on a disturbed
/// host, and the median of three let set medians drift by 0.135 in the
/// first A/A sets.
pub const SETUP_MIN_PASSES: usize = 5;
/// Passes continue past the minimum while they are cheap: until this
/// many raw seconds are spent on them or [`SETUP_MAX_PASSES`] are done
/// (nine of `nuts_stats`' 0.3 s passes, seven of `nuts_tape`'s 0.6 s).
pub const SETUP_BUDGET_S: f64 = 4.0;
pub const SETUP_MAX_PASSES: usize = 9;

/// The order seed of every set-up pass, whatever `--seed` is. Set-up
/// must be the same work in every run: on `serve_mix` the first round
/// on a fresh server locks to the scheduler's 20 ms poll in one of two
/// modes (0.40 s or 0.68 s raw) and the job order picks the mode, so a
/// seeded order made `setup_s` bimodal across seeds.
pub const SETUP_ORDER: u64 = 0;

/// Set-up passes, then rounds until `seconds` have passed and every
/// unit was visited. Returns the measurements and the last-built
/// workload (for `verify`).
pub fn measure<W: Workload>(
    env: &Env,
    seed: u64,
    seconds: f64,
    kernel: &mut RefKernel,
) -> (Measured, W) {
    let tracer = Tracer::new(false);
    let mut failures = Vec::new();
    let mut refs = Vec::new();
    let mut setups_norm_s = Vec::new();
    let mut setups_raw_s = Vec::new();
    let mut warm: Vec<(usize, u64)> = Vec::new();
    let mut built: Option<(W, Vec<usize>)> = None;

    let mut ref_prev = kernel.time();
    refs.push(ref_prev);
    while setups_raw_s.len() < SETUP_MIN_PASSES
        || (setups_raw_s.len() < SETUP_MAX_PASSES
            && setups_raw_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some((old, _)) = built.take() {
            old.finish();
            // Teardown is not set-up: re-take the bracket.
            ref_prev = kernel.time();
            refs.push(ref_prev);
        }
        let t0 = Instant::now();
        let mut w = W::build(env, false);
        let order = permutation(w.units(), seed);
        // Always the same unit in the same inner order, whatever the
        // seed.
        let unit = 0;
        let span = tracer.open("bench.round", None, 0, 1.0);
        let out = w.run_unit(unit, SETUP_ORDER, &tracer, &span, 0);
        drop(span);
        let wall = t0.elapsed().as_secs_f64();
        let ref_next = kernel.time();
        refs.push(ref_next);
        setups_raw_s.push(wall);
        setups_norm_s.push(wall * Factors::between(ref_prev, ref_next, W::HOST_ELASTICITY).wall);
        ref_prev = ref_next;
        for f in &out.failures {
            failures.push(format!("warm-up unit {unit}: {f}"));
        }
        warm.push((unit, out.digest));
        built = Some((w, order));
    }
    let (mut w, order) = built.expect("at least one set-up pass");

    let mut rounds: Vec<Round> = Vec::new();
    let mut rss_mb = 0.0;
    let started = Instant::now();
    let mut i = 0usize;
    loop {
        let unit = order[i % order.len()];
        let (wall_s, cpu_s, out) = timed_round(&mut w, unit, seed, &tracer, i as u64 + 1);
        let ref_next = kernel.time();
        refs.push(ref_next);
        rounds.push(Round {
            unit,
            wall_s,
            cpu_s,
            bracket: (ref_prev, ref_next),
            factors: Factors::between(ref_prev, ref_next, W::HOST_ELASTICITY),
            out,
        });
        ref_prev = ref_next;
        i += 1;
        if i == order.len() {
            rss_mb = host::peak_rss_mb();
        }
        if started.elapsed().as_secs_f64() >= seconds && i >= order.len() {
            break;
        }
    }
    let timed_wall_s = started.elapsed().as_secs_f64();

    // Determinism: every visit to a unit — in the three fresh builds of
    // the set-up passes and in the timed phase — hashes to one digest.
    let mut first: Vec<Option<u64>> = vec![None; order.len()];
    for (unit, digest) in warm
        .iter()
        .copied()
        .chain(rounds.iter().map(|r| (r.unit, r.out.digest)))
    {
        match first[unit] {
            None => first[unit] = Some(digest),
            Some(d) if d != digest => failures.push(format!(
                "unit {unit}: digest {digest:016x} differs from first visit {d:016x}"
            )),
            Some(_) => {}
        }
    }
    (
        Measured {
            rounds,
            setups_norm_s,
            setups_raw_s,
            refs,
            failures,
            timed_wall_s,
            rss_mb,
        },
        w,
    )
}

/// Per-unit summary of the timed rounds.
pub struct UnitStat {
    pub visits: usize,
    pub norm_s: f64,
    pub raw_s: f64,
    pub cpu_norm_s: f64,
    pub cpu_raw_s: f64,
    pub work: f64,
    pub ops: u64,
    pub steps: u64,
}

pub fn unit_stats(rounds: &[Round], units: usize) -> Vec<UnitStat> {
    (0..units)
        .map(|u| {
            let of: Vec<&Round> = rounds.iter().filter(|r| r.unit == u).collect();
            let norm: Vec<f64> = of.iter().map(|r| r.norm_s()).collect();
            let raw: Vec<f64> = of.iter().map(|r| r.wall_s).collect();
            let cpu_norm: Vec<f64> = of.iter().map(|r| r.cpu_norm_s()).collect();
            let cpu_raw: Vec<f64> = of.iter().map(|r| r.cpu_s).collect();
            UnitStat {
                visits: of.len(),
                norm_s: stats::median(&norm),
                raw_s: stats::median(&raw),
                cpu_norm_s: stats::median(&cpu_norm),
                cpu_raw_s: stats::median(&cpu_raw),
                work: of.first().map_or(0.0, |r| r.out.work),
                ops: of.first().map_or(0, |r| r.out.ops),
                steps: of.first().map_or(0, |r| r.out.steps),
            }
        })
        .collect()
}

/// Spread of the normalised round times around their unit's median —
/// the run's own noise figure (`bench.round_iqr`).
pub fn round_iqr(rounds: &[Round], units: &[UnitStat]) -> f64 {
    let rel: Vec<f64> = rounds
        .iter()
        .filter(|r| units[r.unit].visits >= 2)
        .map(|r| r.norm_s() / units[r.unit].norm_s)
        .collect();
    if rel.len() < 2 {
        return 0.0;
    }
    stats::iqr_share(&rel)
}

/// The end-to-end figures of one run, normalised and raw side by side.
pub struct EndToEnd {
    pub values: Values,
    pub raw: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// Builds the end-to-end metrics from the measurements.
pub fn end_to_end(m: &Measured, units: usize) -> EndToEnd {
    let us = unit_stats(&m.rounds, units);
    let work: f64 = us.iter().map(|u| u.work).sum();
    let norm_s: f64 = us.iter().map(|u| u.norm_s).sum();
    let raw_s: f64 = us.iter().map(|u| u.raw_s).sum();

    // Latency of one user-visible operation: individually timed ones
    // where the workload has them (served jobs), else the typical
    // unit's time per operation.
    let lat_norm: Vec<f64> = m
        .rounds
        .iter()
        .flat_map(|r| r.out.latencies_s.iter().map(move |l| l * r.factors.wall))
        .collect();
    let lat_raw: Vec<f64> = m
        .rounds
        .iter()
        .flat_map(|r| r.out.latencies_s.iter().copied())
        .collect();
    let (lat_norm_s, lat_raw_s) = if lat_norm.is_empty() {
        let per_op = |f: fn(&UnitStat) -> f64| {
            stats::median(
                &us.iter()
                    .map(|u| f(u) / u.ops.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        (per_op(|u| u.norm_s), per_op(|u| u.raw_s))
    } else {
        (stats::median(&lat_norm), stats::median(&lat_raw))
    };

    // CPU per unit of work from per-unit medians, like the wall
    // figures: a ratio of sums over the rounds executed would also move
    // with which units the run happened to visit once more than the
    // others. (The CPU clock ticks in 10 ms; a round burns 0.5–1.5 s.)
    let cpu_norm: f64 = us.iter().map(|u| u.cpu_norm_s).sum();
    let cpu_raw: f64 = us.iter().map(|u| u.cpu_raw_s).sum();

    let mut values = Values::new();
    let mut raw = Values::new();
    values.insert("setup_s", stats::median(&m.setups_norm_s));
    raw.insert("setup_s", stats::median(&m.setups_raw_s));
    values.insert("work_per_s", work / norm_s);
    raw.insert("work_per_s", work / raw_s);
    values.insert("latency_ms_p50", lat_norm_s * 1e3);
    raw.insert("latency_ms_p50", lat_raw_s * 1e3);
    values.insert("cpu_ms_per_work", cpu_norm / work * 1e3);
    raw.insert("cpu_ms_per_work", cpu_raw / work * 1e3);
    // An exact count ratio over one visit to every unit: the same in
    // every run of the same code, whatever the seed or the host.
    let steps: u64 = us.iter().map(|u| u.steps).sum();
    values.insert("steps_per_work", steps as f64 / work);
    raw.insert("steps_per_work", steps as f64 / work);
    values.insert("peak_rss_mb", m.rss_mb);
    raw.insert("peak_rss_mb", m.rss_mb);

    EndToEnd {
        values,
        raw,
        attempted: m.rounds.iter().map(|r| r.out.ops).sum(),
        failed: m.rounds.iter().map(|r| r.out.failed).sum(),
    }
}

/// Runs a workload untraced and prints its report; returns the result
/// line's content.
pub fn run_untraced<W: Workload>(env: &Env, seed: u64, seconds: f64) -> RunResult {
    let mut kernel = RefKernel::new(W::LOAD_THREADS);
    let (m, mut w) = measure::<W>(env, seed, seconds, &mut kernel);
    let units = w.units();
    // Oracle failures beyond the failed operations the rounds count
    // themselves: warm-up failures, digest mismatches, `verify`.
    let mut failures = m.failures.clone();
    failures.extend(w.verify(env));
    w.finish();

    let e2e = end_to_end(&m, units);
    let us = unit_stats(&m.rounds, units);
    println!(
        "# {}: {} rounds over {} units in {:.2} s timed ({} set-up passes), seed {seed}",
        W::NAME,
        m.rounds.len(),
        units,
        m.timed_wall_s,
        m.setups_raw_s.len()
    );
    let ref_wall: Vec<f64> = m.refs.iter().map(|r| r.wall_s).collect();
    let ref_cpu: Vec<f64> = m.refs.iter().map(|r| r.cpu_s).collect();
    println!(
        "# reference kernel on {} thread(s): wall median {:.2} ms (IQR {:.1}%), on-CPU median {:.2} ms (IQR {:.1}%), {} timings, nominal {:.0} ms; round IQR {:.1}%",
        W::LOAD_THREADS,
        stats::median(&ref_wall) * 1e3,
        stats::iqr_share(&ref_wall) * 100.0,
        stats::median(&ref_cpu) * 1e3,
        stats::iqr_share(&ref_cpu) * 100.0,
        m.refs.len(),
        host::REF_NOMINAL_S * 1e3,
        round_iqr(&m.rounds, &us) * 100.0
    );
    for (i, (n, r)) in m.setups_norm_s.iter().zip(&m.setups_raw_s).enumerate() {
        println!("# set-up pass {i} raw_s {r:.6} norm_s {n:.6}");
    }
    for (i, r) in m.rounds.iter().enumerate() {
        println!(
            "# round {i} unit {} raw_s {:.6} norm_s {:.6} cpu_s {:.2} ref_wall_ms {:.2} {:.2} ref_cpu_ms {:.2} {:.2}",
            r.unit,
            r.wall_s,
            r.norm_s(),
            r.cpu_s,
            r.bracket.0.wall_s * 1e3,
            r.bracket.1.wall_s * 1e3,
            r.bracket.0.cpu_s * 1e3,
            r.bracket.1.cpu_s * 1e3
        );
    }
    println!(
        "# peak RSS {:.1} MB after the first full cycle (the metric), {:.1} MB at the end of the run",
        m.rss_mb,
        host::peak_rss_mb()
    );
    let lat: Vec<f64> = m
        .rounds
        .iter()
        .flat_map(|r| {
            r.out
                .latencies_s
                .iter()
                .map(move |l| l * r.factors.wall * 1e3)
        })
        .collect();
    if !lat.is_empty() {
        let p50 = stats::percentile(&lat, 50.0);
        let p99 = stats::percentile(&lat, 99.0);
        println!(
            "# latency (normalised ms): p50 {:.2}, p99 {:.2} ({} samples, {} beyond p99)",
            p50.value, p99.value, p99.samples, p99.beyond
        );
    }
    for name in side_names(&m.rounds) {
        let xs: Vec<f64> = side_values(&m.rounds, name)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        println!(
            "# {name}: p50 {:.2} ms raw ({} samples)",
            stats::median(&xs),
            xs.len()
        );
    }
    for (name, v) in &e2e.values {
        println!("raw {name} {}", e2e.raw[name]);
        println!("# {name} = {v:.6} (raw {:.6})", e2e.raw[name]);
    }
    let op_failures = m.rounds.iter().flat_map(|r| r.out.failures.iter());
    for f in failures.iter().chain(op_failures) {
        println!("# FAILED: {f}");
    }
    RunResult {
        correct: failures.is_empty() && e2e.failed == 0,
        attempted: e2e.attempted,
        failed: e2e.failed + failures.len() as u64,
        values: e2e.values,
    }
}

/// Units a traced run cycles through: the first few, so each is
/// visited more than once in the shorter traced phase.
const TRACE_UNITS: usize = 4;
/// Share of `--seconds` a traced run spends on paired rounds; the
/// rungs (fixed work, about 15 s) take the rest and more.
const TRACE_ROUNDS_SHARE: f64 = 0.5;

/// Runs a workload traced: paired rounds — the same unit untraced and
/// then traced (or the other way round, alternating) inside shared
/// brackets — give the tracing overhead and the per-layer self times;
/// then every rung runs. End-to-end metrics never come from here.
pub fn run_traced<W: Workload>(env: &Env, seed: u64, seconds: f64) -> RunResult {
    let mut kernel = RefKernel::new(W::LOAD_THREADS);
    let spans_off = Tracer::new(false);
    let spans_on = Tracer::new(true);
    let mut plain = W::build(env, false);
    let mut traced = W::build(env, true);
    let units = plain.units().min(TRACE_UNITS);
    for w in [&mut plain, &mut traced] {
        let span = spans_off.open("bench.round", None, 0, 1.0);
        w.run_unit(0, seed, &spans_off, &span, 0);
    }

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut ratios = Vec::new();
    // Normalised round times by (traced?, unit), for the noise figure.
    let mut times: Vec<(bool, usize, f64)> = Vec::new();
    let started = Instant::now();
    let mut ref_prev = kernel.time();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < seconds * TRACE_ROUNDS_SHARE || i < units {
        let unit = i % units;
        let id = i as u64 + 1;
        let mut norm = [0.0f64; 2];
        let mut digest = [0u64; 2];
        // Alternate which side runs first, so a drift across the pair
        // does not read as overhead.
        for side in if i.is_multiple_of(2) { [0, 1] } else { [1, 0] } {
            let (wall, out) = if side == 0 {
                let t0 = Instant::now();
                let span = spans_off.open("bench.round", None, id, 1.0);
                let out = plain.run_unit(unit, seed, &spans_off, &span, id);
                (t0.elapsed().as_secs_f64(), out)
            } else {
                let t0 = Instant::now();
                let span = spans_on.open("bench.round", None, id, 1.0);
                let out = traced.run_unit(unit, seed, &spans_on, &span, id);
                drop(span);
                (t0.elapsed().as_secs_f64(), out)
            };
            let ref_next = kernel.time();
            norm[side] = wall * Factors::between(ref_prev, ref_next, W::HOST_ELASTICITY).wall;
            ref_prev = ref_next;
            digest[side] = out.digest;
            attempted += out.ops;
            failed += out.failed;
            failures.extend(out.failures);
            times.push((side == 1, unit, norm[side]));
        }
        // Watching must be free of side effects.
        if digest[0] != digest[1] {
            failures.push(format!(
                "unit {unit}: traced digest {:016x} differs from untraced {:016x}",
                digest[1], digest[0]
            ));
        }
        ratios.push(norm[1] / norm[0]);
        i += 1;
    }
    plain.finish();
    traced.finish();

    // Round noise: each round relative to the median of its own
    // (side, unit) group.
    let rel: Vec<f64> = times
        .iter()
        .map(|&(side, unit, t)| {
            let group: Vec<f64> = times
                .iter()
                .filter(|g| g.0 == side && g.1 == unit)
                .map(|g| g.2)
                .collect();
            t / stats::median(&group)
        })
        .collect();

    let spans = spans_on.spans();
    let layers = crate::spans::breakdown(&spans, "bench.round");
    let path = env.scratch.join(format!("spans-{}.jsonl", W::NAME));
    if let Err(e) = spans_on.write_jsonl(&path) {
        failures.push(format!("write {}: {e}", path.display()));
    }

    let rungs = crate::rungs::run_all(env);
    let mut values = rungs.values.clone();
    let ref_ms: Vec<f64> = rungs.refs.iter().map(|r| r.wall_s * 1e3).collect();
    values.insert("bench.ref_kernel_ms", stats::median(&ref_ms));
    values.insert("bench.ref_kernel_iqr", stats::iqr_share(&ref_ms));
    values.insert("bench.round_iqr", stats::iqr_share(&rel));
    values.insert("obs.trace_overhead_share", stats::median(&ratios) - 1.0);

    println!(
        "# {}: traced run, {} paired rounds over units 0..{units}, seed {seed}; spans in {}",
        W::NAME,
        ratios.len(),
        path.display()
    );
    println!(
        "# traced / untraced - 1 = {:+.2}% (median of {} pairs, normalised)",
        (stats::median(&ratios) - 1.0) * 100.0,
        ratios.len()
    );
    println!(
        "# per-layer self time over {:.3} s of traced round wall:",
        layers.root_wall_s
    );
    for (layer, self_s) in &layers.self_s {
        println!(
            "#   {layer:<14} {self_s:>8.3} s  {:>5.1}%",
            self_s / layers.root_wall_s * 100.0
        );
    }
    let gap = 1.0 - layers.coverage;
    println!(
        "#   {:<14} {:>8.3} s  {:>5.1}%  (round wall no layer span covers)",
        "(harness)",
        gap * layers.root_wall_s,
        gap * 100.0
    );
    if layers.coverage < 0.95 {
        println!(
            "# WARNING: layer spans cover {:.1}% of round wall, below 95%",
            layers.coverage * 100.0
        );
    }
    for (name, v) in &values {
        let n = rungs
            .samples
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, n)| *n);
        match n {
            Some(n) => println!("# {name} = {v:.6} (n={n})"),
            None => println!("# {name} = {v:.6}"),
        }
    }
    for f in &failures {
        println!("# FAILED: {f}");
    }
    RunResult {
        correct: failures.is_empty(),
        attempted,
        failed: failed.max(failures.len() as u64),
        values,
    }
}

/// Names of the side timings the rounds carry, in first-seen order.
pub fn side_names(rounds: &[Round]) -> Vec<&'static str> {
    let mut names = Vec::new();
    for r in rounds {
        for (n, _) in &r.out.side_s {
            if !names.contains(n) {
                names.push(*n);
            }
        }
    }
    names
}

/// All samples of one side timing.
pub fn side_values(rounds: &[Round], name: &str) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| {
            r.out
                .side_s
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round whose bracket read `slowdown` times the nominal kernel
    /// time on both sides.
    fn round(unit: usize, wall_s: f64, slowdown: f64, work: f64) -> Round {
        let timing = RefTiming {
            wall_s: host::REF_NOMINAL_S * slowdown,
            cpu_s: host::REF_NOMINAL_S * slowdown,
        };
        Round {
            unit,
            wall_s,
            cpu_s: 2.0 * wall_s,
            bracket: (timing, timing),
            factors: Factors::between(timing, timing, 1.0),
            out: UnitOutput {
                work,
                ops: 2,
                steps: 30,
                ..UnitOutput::default()
            },
        }
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(12, 7);
        assert_eq!(a, permutation(12, 7));
        assert_ne!(a, permutation(12, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_shape() {
        let a = vec![vec![vec![1.0, 2.0], vec![3.0, 4.0]]];
        let mut b = a.clone();
        b[0][1][1] = f64::from_bits(4.0f64.to_bits() + 1);
        assert_ne!(digest_draws(0, &a), digest_draws(0, &b));
        let split = vec![vec![vec![1.0, 2.0]], vec![vec![3.0, 4.0]]];
        assert_ne!(digest_draws(0, &a), digest_draws(0, &split));
        assert_eq!(digest_draws(5, &a), digest_draws(5, &a.clone()));
    }

    #[test]
    fn throughput_uses_unit_medians_so_one_bad_round_does_not_move_it() {
        // Two units of 10 work each; unit 0 has one round hit by a 3×
        // stall the bracket did not see.
        let clean = vec![
            round(0, 0.5, 1.0, 10.0),
            round(1, 0.25, 1.0, 10.0),
            round(0, 0.5, 1.0, 10.0),
            round(1, 0.25, 1.0, 10.0),
            round(0, 0.5, 1.0, 10.0),
        ];
        let mut hit = clean
            .iter()
            .map(|r| round(r.unit, r.wall_s, 1.0, r.out.work))
            .collect::<Vec<_>>();
        hit[2].wall_s = 1.5;
        let m = |rounds| Measured {
            rounds,
            setups_norm_s: vec![1.0, 1.2, 0.9],
            setups_raw_s: vec![1.1, 1.3, 1.0],
            refs: vec![],
            failures: vec![],
            timed_wall_s: 2.0,
            rss_mb: 5.0,
        };
        let a = end_to_end(&m(clean), 2);
        let b = end_to_end(&m(hit), 2);
        assert_eq!(a.values["work_per_s"], 20.0 / 0.75);
        assert_eq!(a.values["work_per_s"], b.values["work_per_s"]);
        assert_eq!(a.values["setup_s"], 1.0);
        assert_eq!(a.raw["setup_s"], 1.1);
        // Batch latency: median over units of time per operation.
        assert_eq!(a.values["latency_ms_p50"], 0.5 * (250.0 + 125.0));
        assert_eq!(a.attempted, 10);
        // Steps per work count each unit once, however often visited.
        assert_eq!(a.values["steps_per_work"], 60.0 / 20.0);
        assert_eq!(b.values["steps_per_work"], 3.0);
    }

    #[test]
    fn a_slow_host_cancels_in_the_normalised_figures_only() {
        let fast = vec![round(0, 0.5, 1.0, 10.0), round(0, 0.5, 1.0, 10.0)];
        // The same work on a host 1.4× slower: the bracket saw it.
        let slow = vec![round(0, 0.7, 1.4, 10.0), round(0, 0.7, 1.4, 10.0)];
        let m = |rounds| Measured {
            rounds,
            setups_norm_s: vec![1.0],
            setups_raw_s: vec![1.0],
            refs: vec![],
            failures: vec![],
            timed_wall_s: 1.0,
            rss_mb: 5.0,
        };
        let (a, b) = (end_to_end(&m(fast), 1), end_to_end(&m(slow), 1));
        assert!((a.values["work_per_s"] - b.values["work_per_s"]).abs() < 1e-9);
        assert!((a.values["cpu_ms_per_work"] - b.values["cpu_ms_per_work"]).abs() < 1e-9);
        assert!(b.raw["work_per_s"] < 0.75 * a.raw["work_per_s"]);
    }

    #[test]
    fn round_iqr_is_relative_to_each_units_median() {
        // Units of very different cost but no noise: zero spread.
        let rounds = vec![
            round(0, 1.0, 1.0, 1.0),
            round(1, 0.1, 1.0, 1.0),
            round(0, 1.0, 1.0, 1.0),
            round(1, 0.1, 1.0, 1.0),
        ];
        let us = unit_stats(&rounds, 2);
        assert_eq!(round_iqr(&rounds, &us), 0.0);
    }
}
