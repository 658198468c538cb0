//! Section VII: the sampling-accelerator study. The Gaussian and
//! Cauchy are the most popular distributions across BayesSuite; the
//! proposed units store their CDF kernels (erf / atan) in lookup
//! tables, trading precision for efficiency. This binary quantifies
//! that trade-off: table size (area/scratchpad bytes) vs worst-case
//! quantile error, and the distribution-popularity census that
//! motivates picking these two.

use bayes_archsim::accel::SimdAccelerator;
use bayes_prob::lut::{CauchyLut, NormalLut};

fn main() {
    bayes_bench::banner(
        "Accelerator study (Section VII)",
        "Lookup-table sampling units: precision vs table size, plus the distribution census.",
    );

    // Census: transcendental-kernel density per workload (the ops the
    // units would absorb).
    println!(
        "{:<10} {:>12} {:>16} {:>8}",
        "name", "tape nodes", "transcendental", "share"
    );
    for m in bayes_bench::measure_all(1.0, 10, 42) {
        println!(
            "{:<10} {:>12} {:>16} {:>7.1}%",
            m.sig.name,
            m.sig.tape_nodes,
            m.sig.transcendental_nodes,
            m.sig.transcendental_nodes as f64 / m.sig.tape_nodes as f64 * 100.0
        );
    }

    // First-order SIMD-accelerator estimate per workload (VII-A).
    let acc = SimdAccelerator::baseline();
    println!(
        "\n{:<10} {:>10} {:>12} {:>12}",
        "name", "par frac", "accel x", "fits spm"
    );
    for m in bayes_bench::measure_all(1.0, 10, 42) {
        let est = acc.estimate(&m.sig, 4.2, 2.8);
        println!(
            "{:<10} {:>9.1}% {:>11.2}x {:>12}",
            m.sig.name,
            est.parallel_fraction * 100.0,
            est.speedup,
            if est.fits_scratchpad { "yes" } else { "no" }
        );
    }

    println!("\nGaussian unit (erf kernel):");
    println!("{:>8} {:>10} {:>14}", "entries", "bytes", "max |err| (sd)");
    for size in [64usize, 256, 1024, 4096, 16384] {
        let unit = NormalLut::new(0.0, 1.0, size);
        println!(
            "{:>8} {:>10} {:>14.2e}",
            size,
            unit.lut().bytes(),
            unit.precision()
        );
    }

    println!("\nCauchy unit (atan kernel):");
    println!(
        "{:>8} {:>10} {:>14}",
        "entries", "bytes", "max |err| (scale)"
    );
    for size in [64usize, 256, 1024, 4096, 16384] {
        let unit = CauchyLut::new(0.0, 1.0, size);
        println!("{:>8} {:>10} {:>14.2e}", size, size * 8, unit.precision());
    }

    println!("\nA few KB of scratchpad buys 1e-3-grade quantiles; doubling the table");
    println!("quarters the error (linear interpolation), the paper's precision/area knob.");
}
