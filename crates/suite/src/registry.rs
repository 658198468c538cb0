//! Lookup and enumeration of the ten BayesSuite workloads.

use crate::meta::Workload;
use crate::workloads;
use bayes_mcmc::stream::{Purpose, StreamKey};

/// Canonical workload names in the paper's Table I order.
pub const NAMES: [&str; 10] = [
    "12cities",
    "ad",
    "ode",
    "memory",
    "votes",
    "tickets",
    "disease",
    "racial",
    "butterfly",
    "survival",
];

/// The canonical workload names.
pub fn workload_names() -> &'static [&'static str] {
    &NAMES
}

/// Data scales every workload declares: the paper's full (`1.0`),
/// half (`-h`, `0.5`) and quarter (`-q`, `0.25`) points of Figure 3.
pub const SCALES: [f64; 3] = [0.25, 0.5, 1.0];

/// The scale of the golden reference posteriors and of the reference
/// gate's cells (small enough to run in CI).
pub const SMOKE_SCALE: f64 = 0.25;

/// Base seed blessed reference posteriors are generated from. The
/// workload data seed in every benchmark cell is pinned to this value
/// so a run is always compared against a reference over the *same*
/// dataset; only chain seeds vary.
pub const REFERENCE_SEED: u64 = 42;

/// One registry row: a workload name plus the scales it declares.
/// Together with [`REFERENCE_SEED`] each `(name, scale)` pair denotes
/// a (model, data generator, reference posterior) triple — the data
/// generator is deterministic in `(scale, seed)` and the reference is
/// the golden file named by [`reference_file_name`].
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// Canonical workload name.
    pub name: &'static str,
    /// Scales this workload declares references for.
    pub scales: &'static [f64],
}

impl RegistryEntry {
    /// Builds this entry's workload at `scale`. Panics if `scale` is
    /// not one of the declared [`RegistryEntry::scales`].
    pub fn build(&self, scale: f64, seed: u64) -> Workload {
        assert!(
            self.scales.contains(&scale),
            "workload {} does not declare scale {scale}",
            self.name
        );
        workload(self.name, scale, seed).expect("registry names are valid")
    }
}

/// Every registry entry, in Table I order.
pub fn entries() -> [RegistryEntry; 10] {
    NAMES.map(|name| RegistryEntry {
        name,
        scales: &SCALES,
    })
}

/// File-name-safe tag for a scale: `0.25` → `"0p25"`, `1` → `"1"`.
pub fn scale_tag(scale: f64) -> String {
    format!("{scale}").replace('.', "p").replace('-', "m")
}

/// Name of the golden reference file for a `(workload, scale)` cell,
/// e.g. `"votes_s0p25.ref"`. Files live under
/// `tests/golden/references/` at the repo root.
pub fn reference_file_name(name: &str, scale: f64) -> String {
    format!("{name}_s{}.ref", scale_tag(scale))
}

/// Builds one workload by name at the given data `scale` (1.0 = the
/// full synthetic dataset; 0.5 / 0.25 are the `-h` / `-q` points of
/// Figure 3).
///
/// Returns `None` for an unknown name.
///
/// The dataset RNG stream is derived from `seed` via
/// [`StreamKey`] with [`Purpose::DataGen`], so workload data never
/// shares a stream with the chains a caller seeds from the same base
/// seed.
pub fn workload(name: &str, scale: f64, seed: u64) -> Option<Workload> {
    let seed = StreamKey::new(seed).purpose(Purpose::DataGen).derive();
    let w = match name {
        "12cities" => workloads::twelve_cities::workload(scale, seed),
        "ad" => workloads::ad::workload(scale, seed),
        "ode" => workloads::ode::workload(scale, seed),
        "memory" => workloads::memory::workload(scale, seed),
        "votes" => workloads::votes::workload(scale, seed),
        "tickets" => workloads::tickets::workload(scale, seed),
        "disease" => workloads::disease::workload(scale, seed),
        "racial" => workloads::racial::workload(scale, seed),
        "butterfly" => workloads::butterfly::workload(scale, seed),
        "survival" => workloads::survival::workload(scale, seed),
        _ => return None,
    };
    Some(w)
}

/// Builds all ten workloads at the given scale.
pub fn all_workloads(scale: f64, seed: u64) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|n| workload(n, scale, seed).expect("registry names are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve() {
        for name in workload_names() {
            let w = workload(name, 0.05, 1).expect("known name");
            assert_eq!(&w.name(), name);
            assert!(w.model().dim() > 0);
            assert!(w.dynamics_model().dim() > 0);
        }
        assert!(workload("nonesuch", 1.0, 1).is_none());
    }

    #[test]
    fn all_workloads_returns_ten_in_order() {
        let all = all_workloads(0.05, 2);
        assert_eq!(all.len(), 10);
        let names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names, NAMES.to_vec());
    }

    #[test]
    fn metadata_is_populated() {
        for w in all_workloads(0.05, 3) {
            let m = w.meta();
            assert!(!m.family.is_empty());
            assert!(!m.application.is_empty());
            assert!(m.modeled_data_bytes > 0);
            assert!(m.default_iters >= 1000);
            assert_eq!(m.default_chains, 4);
            assert!(m.code_footprint_bytes > 0);
        }
    }

    #[test]
    fn llc_bound_trio_has_the_largest_full_scale_tapes() {
        // The paper's key split (Section IV-B): ad, survival, tickets
        // are LLC-bound; everyone else fits. Verify via tape bytes at
        // full scale: the trio's per-chain working sets exceed 2 MB
        // (Skylake 8 MB LLC / 4 chains), the rest stay under.
        let bound = ["ad", "survival", "tickets"];
        for w in all_workloads(1.0, 4) {
            let tape = w.profile().tape_bytes;
            if bound.contains(&w.name()) {
                assert!(
                    tape > 2_000_000,
                    "{} tape {tape} should exceed 2 MB",
                    w.name()
                );
            } else {
                assert!(
                    tape < 2_000_000,
                    "{} tape {tape} should stay under 2 MB",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn modeled_data_size_orders_the_llc_bound_trio() {
        // Figure 3's static predictor: ad < survival < tickets.
        let ad = workload("ad", 1.0, 5).unwrap().meta().modeled_data_bytes;
        let sv = workload("survival", 1.0, 5)
            .unwrap()
            .meta()
            .modeled_data_bytes;
        let tk = workload("tickets", 1.0, 5)
            .unwrap()
            .meta()
            .modeled_data_bytes;
        assert!(ad < sv && sv < tk, "{ad} < {sv} < {tk}");
    }
}
