//! Registry-wide invariants spanning suite, mcmc, and archsim.

use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};

use bayes_suite::registry;
use bayes_suite::registry::{REFERENCE_SEED, SMOKE_SCALE};
use bayes_suite::ReferencePosterior;

#[test]
fn registry_entries_cover_every_name_with_declared_scales() {
    let entries = registry::entries();
    let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
    assert_eq!(names, registry::workload_names().to_vec());
    for e in &entries {
        assert!(!e.scales.is_empty(), "{}: no declared scales", e.name);
        assert!(
            e.scales.contains(&SMOKE_SCALE),
            "{}: smoke scale not declared",
            e.name
        );
    }
}

#[test]
fn data_generators_are_deterministic_at_every_declared_scale() {
    // The registry's (name, scale, seed) triple must regenerate
    // bit-identical data: two independently built workloads must agree
    // on the density value and gradient exactly, not approximately.
    for e in registry::entries() {
        for &scale in e.scales {
            let a = e.build(scale, REFERENCE_SEED);
            let b = e.build(scale, REFERENCE_SEED);
            assert_eq!(a.meta().scale, scale, "{}: meta.scale not set", e.name);
            assert_eq!(
                a.meta().modeled_data_bytes,
                b.meta().modeled_data_bytes,
                "{}@{scale}: data size differs between rebuilds",
                e.name
            );
            let dim = a.dynamics_model().dim();
            assert_eq!(dim, b.dynamics_model().dim());
            let theta: Vec<f64> = (0..dim).map(|i| 0.1 * ((i % 5) as f64 - 2.0)).collect();
            let (mut ga, mut gb) = (vec![0.0; dim], vec![0.0; dim]);
            let lpa = a.dynamics_model().ln_posterior_grad(&theta, &mut ga);
            let lpb = b.dynamics_model().ln_posterior_grad(&theta, &mut gb);
            assert_eq!(lpa, lpb, "{}@{scale}: density differs bit-for-bit", e.name);
            assert_eq!(ga, gb, "{}@{scale}: gradient differs bit-for-bit", e.name);
        }
    }
}

#[test]
fn committed_references_exist_and_round_trip_bit_exactly() {
    // Every registry entry has a blessed reference at the smoke scale,
    // and each committed file is in canonical form: decode → re-encode
    // reproduces the bytes exactly (same contract as the golden
    // fixture codec).
    let dir = bayes_testkit::reference_dir();
    for e in registry::entries() {
        let path = dir.join(registry::reference_file_name(e.name, SMOKE_SCALE));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "{}: missing committed reference {} ({err}); \
                 bless it with `cargo run --release --bin bench_matrix`",
                e.name,
                path.display()
            )
        });
        let parsed = ReferencePosterior::parse(&text)
            .unwrap_or_else(|err| panic!("{}: corrupt reference: {err}", e.name));
        assert_eq!(parsed.workload, e.name);
        assert_eq!(parsed.scale, SMOKE_SCALE);
        assert_eq!(parsed.seed, REFERENCE_SEED);
        assert_eq!(
            parsed.render(),
            text,
            "{}: reference not in canonical form",
            e.name
        );
        let dim = e.build(SMOKE_SCALE, REFERENCE_SEED).dynamics_model().dim();
        assert_eq!(parsed.params.len(), dim, "{}: reference dim", e.name);
    }
}

#[test]
fn every_workload_has_finite_density_and_gradient_at_typical_points() {
    for name in registry::workload_names() {
        let w = registry::workload(name, 0.1, 5).expect("known");
        for model in [w.model(), w.dynamics_model()] {
            let dim = model.dim();
            for scale in [0.0, 0.3, -0.3] {
                let theta: Vec<f64> = (0..dim)
                    .map(|i| scale * (1.0 + (i % 3) as f64) / 3.0)
                    .collect();
                let lp = model.ln_posterior(&theta);
                assert!(lp.is_finite(), "{name}: lp not finite at scale {scale}");
                let mut g = vec![0.0; dim];
                let lp2 = model.ln_posterior_grad(&theta, &mut g);
                assert!((lp - lp2).abs() < 1e-9, "{name}: value/grad paths disagree");
                assert!(
                    g.iter().all(|x| x.is_finite()),
                    "{name}: gradient not finite at scale {scale}"
                );
            }
        }
    }
}

#[test]
fn half_and_quarter_scales_shrink_monotonically() {
    for name in registry::workload_names() {
        let full = registry::workload(name, 1.0, 5).expect("known");
        let half = registry::workload(name, 0.5, 5).expect("known");
        let quarter = registry::workload(name, 0.25, 5).expect("known");
        assert!(
            half.meta().modeled_data_bytes <= full.meta().modeled_data_bytes,
            "{name}: -h not smaller"
        );
        assert!(
            quarter.meta().modeled_data_bytes <= half.meta().modeled_data_bytes,
            "{name}: -q not smaller"
        );
    }
}

#[test]
fn more_cores_never_increase_simulated_energy_efficiency_paradoxically() {
    // Sanity: time(1 core) ≥ time(4 cores) never inverts by more than
    // the LLC penalty allows, and all reports carry positive metrics.
    let sky = Platform::skylake();
    for name in ["12cities", "votes", "ad"] {
        let w = registry::workload(name, 0.5, 5).expect("known");
        let sig = WorkloadSignature::measure(&w, 8, 2);
        let r1 = characterize(
            &sig,
            &sky,
            &SimConfig {
                cores: 1,
                chains: 4,
                iters: 50,
            },
        );
        let r4 = characterize(
            &sig,
            &sky,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 50,
            },
        );
        assert!(r1.time_s > 0.0 && r4.time_s > 0.0);
        assert!(
            r4.time_s <= r1.time_s * 1.05,
            "{name}: 4 cores slower than 1"
        );
        assert!(
            r4.power_w > r1.power_w,
            "{name}: more cores draw more power"
        );
        assert!(r1.ipc > 0.1 && r1.ipc < 4.0, "{name}: ipc {}", r1.ipc);
    }
}

#[test]
fn broadwell_never_has_more_llc_misses_than_skylake() {
    // 40 MB ⊇ 8 MB for these sweep patterns.
    let sky = Platform::skylake();
    let bdw = Platform::broadwell();
    for name in registry::workload_names() {
        let w = registry::workload(name, 1.0, 5).expect("known");
        let sig = WorkloadSignature::measure(&w, 6, 2);
        let cfg = SimConfig {
            cores: 4,
            chains: 4,
            iters: 20,
        };
        let rs = characterize(&sig, &sky, &cfg);
        let rb = characterize(&sig, &bdw, &cfg);
        assert!(
            rb.llc_mpki <= rs.llc_mpki + 0.25,
            "{name}: Broadwell {} vs Skylake {}",
            rb.llc_mpki,
            rs.llc_mpki
        );
    }
}

#[test]
fn full_scale_profiles_are_pinned() {
    // `(tape_nodes, tape_bytes, transcendental_nodes)` of one gradient
    // of every full-scale model, as the private-tape-per-term gradient
    // counted them: each term's leaves plus its nodes, 32 bytes a
    // node. archsim signatures and the `results/` captures are
    // functions of these; however the gradient is evaluated, the
    // accounting stays.
    const PINNED: [(&str, usize, usize, usize); 10] = [
        ("12cities", 1408, 45056, 157),
        ("ad", 77325, 2474400, 5000),
        ("ode", 33143, 1060576, 2477),
        ("memory", 25316, 810112, 3078),
        ("votes", 21828, 698496, 741),
        ("tickets", 511352, 16363264, 97217),
        ("disease", 25362, 811584, 673),
        ("racial", 5176, 165632, 541),
        ("butterfly", 8819, 282208, 1067),
        ("survival", 95041, 3041312, 400),
    ];
    let profiles: Vec<_> = registry::all_workloads(1.0, REFERENCE_SEED)
        .iter()
        .map(|w| {
            let p = w.profile();
            (w.name(), p.tape_nodes, p.tape_bytes, p.transcendental_nodes)
        })
        .collect();
    assert_eq!(profiles, PINNED);
}
