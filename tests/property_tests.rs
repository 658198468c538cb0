//! Property-based tests (proptest) on cross-crate invariants.

use bayes_archsim::cache::{CacheSim, Hierarchy, Replacement};
use bayes_autodiff::{grad_of, Real};
use bayes_mcmc::diag::{gaussian_kl, rhat, split_rhat};
use bayes_prob::dist::{ContinuousDist, Gamma, Normal};
use bayes_prob::special;
use proptest::prelude::*;

/// `CacheSim` as first written: set and tag by `%` and `/` on every
/// access, same victim choice, same xorshift stream.
struct DividingCache {
    sets: u64,
    ways: usize,
    policy: Replacement,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    rng_state: u64,
    misses: u64,
}

impl DividingCache {
    fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        Self {
            sets: sets as u64,
            ways,
            policy,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / 64;
        let base = (line % self.sets) as usize * self.ways;
        let tag = line / self.sets;
        let set = base..base + self.ways;
        if let Some(w) = set.clone().find(|&w| self.tags[w] == tag) {
            self.stamps[w] = self.clock;
            return true;
        }
        self.misses += 1;
        let victim = match self.policy {
            // First way with the oldest stamp.
            Replacement::Lru => set.clone().min_by_key(|&w| self.stamps[w]).unwrap(),
            Replacement::Random => set
                .clone()
                .find(|&w| self.tags[w] == u64::MAX)
                .unwrap_or_else(|| {
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    base + (self.rng_state % self.ways as u64) as usize
                }),
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }
}

proptest! {
    #[test]
    fn normal_lnpdf_is_finite_and_maximal_at_mean(
        mu in -50.0..50.0f64,
        sigma in 0.01..20.0f64,
        x in -100.0..100.0f64,
    ) {
        let d = Normal::new(mu, sigma).unwrap();
        let at_x = d.ln_pdf(x);
        prop_assert!(at_x.is_finite());
        prop_assert!(at_x <= d.ln_pdf(mu) + 1e-12);
    }

    #[test]
    fn cdfs_are_monotone(
        a in -5.0..5.0f64,
        b in -5.0..5.0f64,
        sigma in 0.1..5.0f64,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d = Normal::new(0.0, sigma).unwrap();
        prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
        let g = Gamma::new(2.0, 1.0).unwrap();
        prop_assert!(g.cdf(lo.abs()) <= g.cdf(hi.abs() + lo.abs()) + 1e-9);
    }

    #[test]
    fn log_sum_exp_bounds(xs in proptest::collection::vec(-50.0..50.0f64, 1..20)) {
        let lse = special::log_sum_exp_slice(&xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn ad_gradient_matches_finite_difference(
        x in -2.0..2.0f64,
        y in 0.1..3.0f64,
    ) {
        fn f<R: Real>(v: &[R]) -> R {
            (v[0] * v[1]).sin() + v[1].ln() * v[0].square() - v[0].sigmoid()
        }
        let (_, grad, _) = grad_of(&[x, y], |v| f(v));
        let h = 1e-6;
        for i in 0..2 {
            let mut p = [x, y];
            let mut m = [x, y];
            p[i] += h;
            m[i] -= h;
            let fd = (f(&p) - f(&m)) / (2.0 * h);
            prop_assert!((grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn cache_misses_bounded_by_accesses(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..400),
        ways in 1usize..8,
    ) {
        let mut c = CacheSim::new(64 * ways * 16, ways, Replacement::Lru);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.accesses(), addrs.len() as u64);
        prop_assert!(c.misses() <= c.accesses());
        // Replaying the same trace on a warm cache can only hit more.
        let warm_misses = {
            let mut c2 = c.clone();
            c2.reset_stats();
            for &a in &addrs {
                c2.access(a);
            }
            c2.misses()
        };
        prop_assert!(warm_misses <= c.misses());
    }

    #[test]
    fn cache_indexing_matches_a_division_only_reference(
        addrs in proptest::collection::vec(0u64..20_000, 1..400),
        base in 0u64..(1 << 40),
        ways in 1usize..6,
        random in 0usize..2,
    ) {
        // 16 sets take the shift-and-mask path, 12 sets the dividing
        // one; both must place every line where plain `/` and `%` do.
        let policy = [Replacement::Lru, Replacement::Random][random];
        for sets in [16usize, 12] {
            let mut cache = CacheSim::new(64 * ways * sets, ways, policy);
            let mut reference = DividingCache::new(sets, ways, policy);
            for &a in &addrs {
                prop_assert_eq!(cache.access(base + a), reference.access(base + a));
            }
            prop_assert_eq!(cache.accesses(), addrs.len() as u64);
            prop_assert_eq!(cache.misses(), reference.misses);
        }
    }

    #[test]
    fn bigger_lru_cache_never_misses_more(
        addrs in proptest::collection::vec(0u64..100_000, 1..300),
    ) {
        // LRU inclusion property at equal associativity geometry.
        let mut small = CacheSim::new(4 * 1024, 4, Replacement::Lru);
        let mut big = CacheSim::new(16 * 1024, 16, Replacement::Lru);
        for &a in &addrs {
            small.access(a);
            big.access(a);
        }
        prop_assert!(big.misses() <= small.misses());
    }

    #[test]
    fn hierarchy_levels_are_ordered(
        addrs in proptest::collection::vec(0u64..500_000, 1..300),
    ) {
        let mut h = Hierarchy::new(1, 1024, 4096, 65536, 16);
        for &a in &addrs {
            h.access(0, a);
        }
        let s = h.stats(0);
        prop_assert!(s.l1_misses <= s.accesses);
        prop_assert!(s.l2_misses <= s.l1_misses);
        prop_assert!(s.llc_misses <= s.l2_misses);
    }

    #[test]
    fn rhat_is_at_least_one_for_long_chains(
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let r = rhat(&chains);
        let rs = split_rhat(&chains);
        // Up to estimator noise, R̂ ≈ 1 for iid chains and never far below.
        prop_assert!(r > 0.95 && r < 1.2, "rhat {}", r);
        prop_assert!(rs > 0.95 && rs < 1.2, "split {}", rs);
    }

    #[test]
    fn gaussian_kl_nonnegative_and_zero_iff_equal(
        m1 in -5.0..5.0f64,
        s1 in 0.1..5.0f64,
        m2 in -5.0..5.0f64,
        s2 in 0.1..5.0f64,
    ) {
        let kl = gaussian_kl(m1, s1, m2, s2);
        prop_assert!(kl >= -1e-12);
        prop_assert!(gaussian_kl(m1, s1, m1, s1).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(0u64..u64::MAX / 4, 0..60),
        ys in proptest::collection::vec(0u64..u64::MAX / 4, 0..60),
        zs in proptest::collection::vec(0u64..u64::MAX / 4, 0..60),
    ) {
        use bayes_obs::Histogram;
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));

        // Commutativity: a⊕b == b⊕a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a⊕b)⊕c == a⊕(b⊕c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging is sample-order independence: one histogram over the
        // concatenation equals the merge of the parts.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&mk(&all), &ab_c);
    }

    #[test]
    fn histogram_quantiles_are_bounded_and_monotone(
        xs in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        qs in proptest::collection::vec(0.0..=1.0f64, 1..8),
    ) {
        use bayes_obs::Histogram;
        let mut h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        let lo = *xs.iter().min().unwrap();
        let hi = *xs.iter().max().unwrap();
        prop_assert_eq!(h.min(), Some(lo));
        prop_assert_eq!(h.max(), Some(hi));

        let mut sorted = qs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u64;
        for &q in &sorted {
            let est = h.quantile(q).unwrap();
            // Clamped to the observed range and monotone in q.
            prop_assert!(est >= lo && est <= hi, "q={} est={} outside [{}, {}]", q, est, lo, hi);
            prop_assert!(est >= prev, "quantile not monotone at q={}", q);
            prev = est;
        }

        // The estimate is an upper bound on the true quantile within
        // one log-linear bucket (relative error <= 1/16 + one unit).
        let mut ordered = xs.clone();
        ordered.sort_unstable();
        for &q in &sorted {
            let target = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let truth = ordered[target - 1];
            let est = h.quantile(q).unwrap();
            prop_assert!(est >= truth, "q={}: estimate {} below true {}", q, est, truth);
            prop_assert!(
                est <= truth + truth / 16 + 1,
                "q={}: estimate {} beyond bucket of true {}", q, est, truth
            );
        }
    }
}

proptest! {
    #[test]
    fn time_series_is_bounded_monotone_and_merge_associative(
        cap in 1usize..32,
        pts in proptest::collection::vec((0u64..1_000_000, -1.0e6..1.0e6f64), 0..96),
        split in 0usize..96,
    ) {
        use bayes_mcmc::obs::TimeSeries;

        // Pushing any point stream keeps the ring within capacity and
        // the retained timestamps monotone (out-of-order stamps are
        // clamped, never reordered).
        let mut all = TimeSeries::new(cap);
        for &(t, v) in &pts {
            all.push(t, v);
        }
        prop_assert!(all.len() <= cap);
        let stamps: Vec<u64> = all.iter().map(|p| p.t_ns).collect();
        prop_assert!(stamps.windows(2).all(|w| w[0] <= w[1]));

        // Merge is associative and commutative over equal-capacity
        // series: any bracketing of disjoint sub-streams converges to
        // the same retained window.
        let cut = split.min(pts.len());
        let (left, right) = pts.split_at(cut);
        let mid = right.len() / 2;
        let mut a = TimeSeries::new(cap);
        let mut b = TimeSeries::new(cap);
        let mut c = TimeSeries::new(cap);
        for &(t, v) in left { a.push(t, v); }
        for &(t, v) in &right[..mid] { b.push(t, v); }
        for &(t, v) in &right[mid..] { c.push(t, v); }

        let ab_c = {
            let mut ab = a.clone();
            ab.merge(&b);
            ab.merge(&c);
            ab
        };
        let a_bc = {
            let mut bc = b.clone();
            bc.merge(&c);
            let mut out = a.clone();
            out.merge(&bc);
            out
        };
        let c_ba = {
            let mut ba = b.clone();
            ba.merge(&a);
            let mut out = c.clone();
            out.merge(&ba);
            out
        };
        let collect = |s: &TimeSeries| s.iter().cloned().collect::<Vec<_>>();
        prop_assert_eq!(collect(&ab_c), collect(&a_bc));
        prop_assert_eq!(collect(&ab_c), collect(&c_ba));
        prop_assert!(ab_c.len() <= cap);
    }

    #[test]
    fn window_rates_are_finite_and_non_negative(
        delta in 0u64..1_000_000_000,
        dt_ns in 0u64..10_000_000_000,
    ) {
        use bayes_mcmc::obs::telemetry::rate_per_sec;

        let rate = rate_per_sec(delta, dt_ns);
        prop_assert!(rate.is_finite(), "rate must never be inf/NaN");
        prop_assert!(rate >= 0.0);
        if dt_ns == 0 {
            prop_assert_eq!(rate, 0.0, "degenerate window reads as zero");
        }
    }
}
