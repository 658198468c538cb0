//! Static LLC-miss prediction from modeled data size (Section V-A).
//!
//! "We find 4-core LLC miss rates can be predicted using a static
//! feature, the modeled data size. … Particularly for workloads with
//! LLC MPKI larger than 1, modeled data size accurately predicts LLC
//! miss rate." And for scheduling: "workloads with larger than 1 LLC
//! MPKI … can be identified and predicted by setting a proper
//! threshold for modeled data size."
//!
//! The predictor therefore has two parts, both trained from
//! `(modeled data bytes, 4-core LLC MPKI)` observations:
//!
//! * a least-squares line **through the origin** over the informative
//!   (MPKI > 1) points — the Figure 3 trend used for quantitative
//!   prediction;
//! * a **data-size decision threshold** chosen to minimize
//!   classification error over all training points — the scheduling
//!   rule.
//!
//! [`suite`] is that predictor fitted on the Figure 3 points
//! ([`fig3_points`]) and pinned: the figures, the examples and the job
//! server's demo all schedule with it.

use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};
use bayes_suite::registry;

/// Bits of the slope [`fit`](LlcMissPredictor::fit) finds on
/// [`fig3_points`], 2.819e-5 MPKI/byte.
const SUITE_SLOPE_BITS: u64 = 0x3efd_8fa4_7096_82be;
/// The data-size threshold that fit finds, bytes (`fig3` prints 162 KB).
const SUITE_DATA_THRESHOLD: usize = 166_000;

/// The Section V predictor of this suite: the fit of the Figure 3
/// points, pinned as constants so scheduling never reruns the
/// simulation. `tests/scheduler_end_to_end.rs` refits it from
/// [`fig3_points`] and compares the two to the bit.
pub fn suite() -> LlcMissPredictor {
    LlcMissPredictor {
        slope: f64::from_bits(SUITE_SLOPE_BITS),
        data_threshold: SUITE_DATA_THRESHOLD,
    }
}

/// The Figure 3 points, labelled as `fig3` prints them: every workload
/// at data scales 1, ½ and ¼ (suffixes `-h` and `-q`), its signature
/// probed for 20 iterations at seed 42 and its 4-core Skylake LLC MPKI
/// simulated over 4 chains × 100 iterations.
pub fn fig3_points() -> Vec<(String, MissSample)> {
    let sky = Platform::skylake();
    let cfg = SimConfig {
        cores: 4,
        chains: 4,
        iters: 100,
    };
    let mut points = Vec::new();
    for (scale, suffix) in [(1.0, ""), (0.5, "-h"), (0.25, "-q")] {
        for name in registry::workload_names() {
            let w = registry::workload(name, scale, 42).expect("registry name");
            let sig = WorkloadSignature::measure(&w, 20, 42);
            let mpki = characterize(&sig, &sky, &cfg).llc_mpki;
            let sample = MissSample {
                data_bytes: sig.data_bytes,
                mpki,
            };
            points.push((format!("{}{suffix}", sig.name), sample));
        }
    }
    points
}

/// One training observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissSample {
    /// Modeled data size, bytes (the static feature).
    pub data_bytes: usize,
    /// Measured (simulated) 4-core LLC MPKI.
    pub mpki: f64,
}

/// Linear MPKI-vs-data-size trend plus a data-size decision threshold.
#[derive(Debug, Clone)]
pub struct LlcMissPredictor {
    slope: f64,
    data_threshold: usize,
}

impl LlcMissPredictor {
    /// Fits the origin-constrained trend over samples with `MPKI > 1`
    /// (below that the correlation is weak, as the paper notes) and
    /// picks the data-size threshold that best separates bound from
    /// unbound samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are supplied.
    pub fn fit(samples: &[MissSample]) -> Self {
        assert!(samples.len() >= 2, "need at least two samples to fit");
        let threshold_mpki = 1.0;
        let informative: Vec<&MissSample> =
            samples.iter().filter(|s| s.mpki > threshold_mpki).collect();
        let slope = if informative.is_empty() {
            0.0
        } else {
            let sxy: f64 = informative
                .iter()
                .map(|s| s.data_bytes as f64 * s.mpki)
                .sum();
            let sxx: f64 = informative
                .iter()
                .map(|s| (s.data_bytes as f64).powi(2))
                .sum();
            if sxx > 0.0 {
                sxy / sxx
            } else {
                0.0
            }
        };

        // 1-D decision stump on data size: evaluate a cut between each
        // adjacent pair of sorted sizes and keep the most accurate.
        let mut sorted: Vec<&MissSample> = samples.iter().collect();
        sorted.sort_by_key(|s| s.data_bytes);
        let errors_at = |cut: usize| -> usize {
            samples
                .iter()
                .filter(|s| (s.data_bytes > cut) != (s.mpki > threshold_mpki))
                .count()
        };
        let mut best_cut = usize::MAX; // "never bound" baseline
        let mut best_err = errors_at(best_cut);
        for w in sorted.windows(2) {
            let cut = w[0].data_bytes + (w[1].data_bytes - w[0].data_bytes) / 2;
            let err = errors_at(cut);
            if err < best_err {
                best_err = err;
                best_cut = cut;
            }
        }

        Self {
            slope,
            data_threshold: best_cut,
        }
    }

    /// Predicted 4-core LLC MPKI for a job with the given modeled data
    /// size (the Figure 3 trend line).
    pub fn predict_mpki(&self, data_bytes: usize) -> f64 {
        (self.slope * data_bytes as f64).max(0.0)
    }

    /// Whether a job with this modeled data size should be treated as
    /// LLC-bound (the scheduling decision).
    pub fn is_llc_bound(&self, data_bytes: usize) -> bool {
        data_bytes > self.data_threshold
    }

    /// The fitted trend slope (MPKI per byte).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The calibrated data-size threshold, bytes ("the threshold can be
    /// adjusted accordingly when applied to other machines").
    pub fn data_threshold(&self) -> usize {
        self.data_threshold
    }

    /// Coefficient of determination of the trend over a sample set.
    pub fn r_squared(&self, samples: &[MissSample]) -> f64 {
        let n = samples.len() as f64;
        if n < 2.0 {
            return f64::NAN;
        }
        let my = samples.iter().map(|s| s.mpki).sum::<f64>() / n;
        let ss_tot: f64 = samples.iter().map(|s| (s.mpki - my).powi(2)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|s| (s.mpki - self.predict_mpki(s.data_bytes)).powi(2))
            .sum();
        if ss_tot == 0.0 {
            return 1.0;
        }
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trend_has_positive_slope_through_origin() {
        let p = suite();
        assert!(p.slope() > 0.0);
        assert_eq!(p.predict_mpki(0), 0.0);
        // Trend roughly interpolates the big informative points
        // (tickets: 768 000 bytes at 18.71 MPKI).
        let at_768k = p.predict_mpki(768_000);
        assert!((at_768k - 18.7).abs() < 6.0, "at 768K: {at_768k}");
    }

    #[test]
    fn classification_threshold_separates_well() {
        let p = suite();
        // The full-scale trio and quarter-scale tickets are bound.
        for bound in [280_000, 480_000, 768_000, 192_000] {
            assert!(p.is_llc_bound(bound), "{bound}");
        }
        // The compute-bound cloud, half-scale ad among it, is not.
        for unbound in [3_500, 8_000, 48_000, 120_000, 140_000] {
            assert!(!p.is_llc_bound(unbound), "{unbound}");
        }
        // The one training error: half-scale survival measures no
        // misses but sits above the cut.
        assert!(p.is_llc_bound(240_000));
    }

    #[test]
    fn all_low_samples_mean_never_bound() {
        let low = vec![
            MissSample {
                data_bytes: 1_000,
                mpki: 0.1,
            },
            MissSample {
                data_bytes: 2_000,
                mpki: 0.2,
            },
        ];
        let p = LlcMissPredictor::fit(&low);
        assert!(!p.is_llc_bound(10_000_000));
        assert_eq!(p.predict_mpki(5_000), 0.0);
    }

    #[test]
    fn r_squared_high_on_full_scale_trio() {
        // The Figure 3 claim: above 1 MPKI, data size predicts miss
        // rate accurately — at matched scale. (Reduced-scale tickets
        // saturates off the line, which is why classification uses the
        // threshold, not the trend.)
        let trio = vec![
            MissSample {
                data_bytes: 280_000,
                mpki: 6.7,
            },
            MissSample {
                data_bytes: 480_000,
                mpki: 11.2,
            },
            MissSample {
                data_bytes: 768_000,
                mpki: 18.7,
            },
        ];
        let p = LlcMissPredictor::fit(&trio);
        assert!(p.r_squared(&trio) > 0.9, "{}", p.r_squared(&trio));
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn fit_rejects_tiny_input() {
        let _ = LlcMissPredictor::fit(&[MissSample {
            data_bytes: 1,
            mpki: 1.0,
        }]);
    }
}
