//! `charact_sweep`: the paper-reproduction path. Set-up builds the ten
//! workloads at full scale and measures their signatures; rounds run
//! `characterize` over `Platform::table2()` × cores {1, 2, 4} for all
//! ten, and `PlatformScheduler::schedule` on top.
//!
//! `bayes-archsim`'s cache simulator does the work and `bayes-sched`
//! rides on it; no sampler, tape or server hot path runs inside a
//! round, so this is the control workload for every change to those:
//! the prediction for it is *no change*.
//!
//! (`Pipeline::optimize` is not in the rounds: sizing found it takes
//! 1.5 s on `votes` and 150 s on `ode`, nearly all of it NUTS sampling
//! at the workloads' default 2000+ iterations, which the two NUTS
//! workloads already measure.)

use crate::engine::{mix, Env, SplitMix, UnitOutput, Workload};
use crate::spans::{SpanGuard, Tracer};
use bayes_archsim::{characterize, PerfReport, Platform, SimConfig, WorkloadSignature};
use bayes_sched::PlatformScheduler;
use bayes_suite::registry::{self, REFERENCE_SEED};

/// Iterations every simulated configuration is scaled to.
const SIM_ITERS: usize = 100;
/// Chains of every simulated configuration (the paper's four).
const SIM_CHAINS: usize = 4;
/// NUTS iterations of the signature probe.
pub const PROBE_ITERS: usize = 20;
/// Chain seed of the signature probe (fixed: see the NUTS workloads).
pub const PROBE_SEED: u64 = 7;

/// The sweep cut into groups of comparable cost. `tickets` (a 16 MB
/// tape) costs as much as the other nine together, so it is split by
/// core count; each group runs once per platform.
const GROUPS: [(&[&str], &[usize]); 4] = [
    (&["tickets"], &[1, 2]),
    (&["tickets"], &[4]),
    (
        &["ad", "12cities", "racial", "butterfly", "disease"],
        &[1, 2, 4],
    ),
    (&["survival", "ode", "memory", "votes"], &[1, 2, 4]),
];

/// The workloads the paper finds LLC-bound (Section IV-B).
pub const LLC_BOUND: [&str; 3] = ["ad", "survival", "tickets"];

/// Builds the ten workloads at full scale and measures a signature of
/// each — the set-up of this workload and of the archsim/sched rungs.
pub fn signatures() -> Vec<WorkloadSignature> {
    registry::all_workloads(1.0, REFERENCE_SEED)
        .iter()
        .map(|w| WorkloadSignature::measure(w, PROBE_ITERS, PROBE_SEED))
        .collect()
}

pub struct CharactSweep {
    sigs: Vec<WorkloadSignature>,
    platforms: Vec<Platform>,
    scheduler: PlatformScheduler,
    /// Simulated LLC MPKI on Skylake at four cores, by workload, from
    /// the rounds run so far (for `verify`).
    mpki: Vec<(String, f64)>,
}

/// Simulated kilo-instructions of one report: this workload's "step"
/// (it evaluates no gradient). Rounded per report, so a unit's total
/// is an integer and does not depend on the order `--seed` gives the
/// simulations.
fn kilo_instructions(r: &PerfReport) -> u64 {
    (r.instructions / 1e3).round() as u64
}

fn digest_report(d: u64, r: &PerfReport) -> u64 {
    [
        r.ipc,
        r.llc_mpki,
        r.l2_mpki,
        r.bandwidth_gbs,
        r.time_s,
        r.energy_j,
    ]
    .iter()
    .fold(d, |d, x| mix(d, x.to_bits()))
}

impl Workload for CharactSweep {
    const NAME: &'static str = "charact_sweep";
    const LOAD_THREADS: usize = 1;
    // The cache simulator chases set and LRU state through memory and
    // suffers a little more from a shared cache than the kernel does.
    const HOST_ELASTICITY: f64 = 1.15;

    fn build(_env: &Env, _traced: bool) -> Self {
        Self {
            sigs: signatures(),
            platforms: Platform::table2(),
            scheduler: PlatformScheduler::new(crate::workloads::serve::predictor()),
            mpki: Vec::new(),
        }
    }

    fn units(&self) -> usize {
        GROUPS.len() * self.platforms.len()
    }

    fn run_unit(
        &mut self,
        unit: usize,
        order: u64,
        tracer: &Tracer,
        round: &SpanGuard<'_>,
        id: u64,
    ) -> UnitOutput {
        let (names, cores) = GROUPS[unit % GROUPS.len()];
        let plat = &self.platforms[unit / GROUPS.len()];
        let mut out = UnitOutput::default();
        // The simulations of a unit are a fixed set; `order` decides
        // the order they run in. Digests combine in canonical order.
        let mut sims: Vec<(usize, &str, usize)> = Vec::new();
        for name in names {
            for &c in cores {
                sims.push((sims.len(), name, c));
            }
        }
        let canonical = sims.len();
        SplitMix(order ^ (unit as u64) << 8).shuffle(&mut sims);
        let mut digests = vec![0u64; canonical];
        for (slot, name, cores) in sims {
            let sig = self
                .sigs
                .iter()
                .find(|s| s.name == name)
                .expect("signature for every workload");
            let cfg = SimConfig {
                cores,
                chains: SIM_CHAINS,
                iters: SIM_ITERS,
            };
            let report = {
                let _span = tracer.open("archsim.characterize", round.id(), id, 1.0);
                characterize(sig, plat, &cfg)
            };
            out.ops += 1;
            if [report.ipc, report.llc_mpki, report.time_s, report.energy_j]
                .iter()
                .all(|x| x.is_finite())
            {
                out.work += 1.0;
            } else {
                out.fail(format!(
                    "{name} on {} with {cores} cores: non-finite report",
                    plat.name
                ));
            }
            digests[slot] = digest_report(0, &report);
            out.steps += kilo_instructions(&report);
            if plat.name == "Skylake" && cores == 4 && !self.mpki.iter().any(|(n, _)| n == name) {
                self.mpki.push((name.to_string(), report.llc_mpki));
            }
        }
        // Section V-B on top: schedule the group's workloads (two more
        // characterisations each, at the user's four cores) — all but
        // `tickets`, whose two extra simulations alone would take
        // longer than any other whole unit.
        if names != ["tickets"] {
            let cfg = SimConfig {
                cores: 4,
                chains: SIM_CHAINS,
                iters: SIM_ITERS,
            };
            for name in names {
                let sig = self
                    .sigs
                    .iter()
                    .find(|s| s.name == *name)
                    .expect("signature for every workload");
                let choice = {
                    let _span = tracer.open("sched.schedule", round.id(), id, 1.0);
                    self.scheduler.schedule(sig, &cfg)
                };
                out.ops += 2;
                if choice.speedup().is_finite() {
                    out.work += 2.0;
                } else {
                    out.fail(format!("{name}: scheduler speed-up is not finite"));
                }
                digests.push(digest_report(
                    digest_report(0, &choice.chosen),
                    &choice.baseline,
                ));
                out.steps +=
                    kilo_instructions(&choice.chosen) + kilo_instructions(&choice.baseline);
            }
        }
        out.digest = digests.iter().fold(unit as u64, |d, x| mix(d, *x));
        out
    }

    /// The three workloads the paper finds LLC-bound have the three
    /// highest simulated LLC MPKI at four cores on Skylake.
    fn verify(&mut self, _env: &Env) -> Vec<String> {
        if self.mpki.len() != registry::NAMES.len() {
            return vec![format!(
                "only {} of {} workloads were characterised on Skylake at four cores",
                self.mpki.len(),
                registry::NAMES.len()
            )];
        }
        let mut ranked = self.mpki.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut top: Vec<&str> = ranked[..3].iter().map(|(n, _)| n.as_str()).collect();
        top.sort_unstable();
        if top != LLC_BOUND {
            return vec![format!(
                "highest simulated LLC MPKI are {top:?}, expected the LLC-bound trio {LLC_BOUND:?}"
            )];
        }
        Vec::new()
    }
}
