//! The host-speed gauge and the process's own resource counters.
//!
//! Back-to-back processes of the same binary differ by 25–45% in raw
//! wall time on the shared 2-core host this benchmark was sized on,
//! so no raw wall-clock figure is gated. Instead every timed round is
//! bracketed by a *reference kernel* — fixed, pure-`std` arithmetic
//! that calls into no crate of the repository — and reported in
//! **host-normalised seconds**:
//!
//! ```text
//! normalised = round_wall / mean(ref_before, ref_after) × REF_NOMINAL_S
//! ```
//!
//! A host that is 30% slower for the length of a round slows the
//! bracket by the same 30%, and the ratio cancels it. Where a
//! workload's rounds are known to follow the host less or more than the
//! kernel does, the ratio is raised to the workload's *elasticity*
//! (`engine::Workload::HOST_ELASTICITY`) first.

use std::hint::black_box;
use std::time::Instant;

/// What one reference-kernel call takes on the nominal host, seconds.
/// Frozen: changing it rescales every normalised metric, so it is part
/// of the benchmark's definition, not a tunable.
pub const REF_NOMINAL_S: f64 = 0.050;

/// Elements of the reference array: 64 Ki `f64` = 512 KiB, larger than
/// an L1 and most L2 slices, so the kernel sees the memory system as
/// well as the `ln`/`exp` units — like the tape sweeps it stands in
/// for.
const REF_ELEMS: usize = 64 * 1024;

/// Sweeps per call, sized so one call takes about [`REF_NOMINAL_S`].
const REF_SWEEPS: usize = 44;

/// One timing of the reference kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefTiming {
    /// Wall seconds until the slowest thread finished.
    pub wall_s: f64,
    /// On-CPU seconds per thread (mean over threads), from the
    /// scheduler's own nanosecond accounting.
    pub cpu_s: f64,
}

/// The reference kernel: one working array per load thread. Built once
/// per process.
///
/// It runs on as many threads as the workload it brackets keeps busy.
/// The dominant disturbance on a small shared host is a neighbour
/// taking one of the two cores for seconds at a time: a two-thread
/// round then takes twice as long while a one-thread kernel sees
/// nothing, so a gauge with the wrong thread count adds noise instead
/// of removing it.
pub struct RefKernel {
    lanes: Vec<Vec<f64>>,
}

fn sweep(data: &mut [f64]) -> f64 {
    let cpu0 = thread_cpu_s();
    let mut acc = 0.0f64;
    for _ in 0..REF_SWEEPS {
        for x in data.iter_mut() {
            let y = (1.0 + x.ln()).exp() * 0.5;
            acc += y;
            *x = 1.0 + (y - y.floor());
        }
    }
    black_box(acc);
    thread_cpu_s() - cpu0
}

/// On-CPU seconds of the calling thread (`/proc/thread-self/schedstat`,
/// nanosecond resolution).
fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("read schedstat");
    let ns: f64 = stat
        .split_ascii_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .expect("schedstat run time");
    ns / 1e9
}

impl RefKernel {
    /// A kernel that loads `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        // Values in (1, 2): ln and exp stay in their fast, finite range
        // and the sweep maps [1, 2) into itself, so repeated calls
        // neither overflow nor collapse to a constant the compiler
        // could fold.
        let lane: Vec<f64> = (0..REF_ELEMS)
            .map(|i| 1.0 + (i as f64 * 0.618_033_988_749_895).fract())
            .collect();
        let mut kernel = Self {
            lanes: vec![lane; threads.max(1)],
        };
        // The first call faults the lanes in and starts the threads
        // cold; it read 20% slow, and the first bracket with it.
        kernel.time();
        kernel
    }

    /// Runs the kernel once on every lane concurrently.
    pub fn time(&mut self) -> RefTiming {
        let t0 = Instant::now();
        let cpu: f64 = if let [lane] = self.lanes.as_mut_slice() {
            sweep(lane)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .map(|l| s.spawn(move || sweep(l)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel thread"))
                    .sum()
            })
        };
        RefTiming {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu / self.lanes.len() as f64,
        }
    }
}

/// The multipliers that turn wall seconds and CPU seconds measured
/// between two reference timings into normalised seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Factors {
    pub wall: f64,
    pub cpu: f64,
}

impl Factors {
    /// The multipliers for seconds measured between two reference
    /// timings by a workload of the given host elasticity.
    pub fn between(before: RefTiming, after: RefTiming, elasticity: f64) -> Self {
        Self {
            wall: factor(before.wall_s, after.wall_s).powf(elasticity),
            cpu: factor(before.cpu_s, after.cpu_s).powf(elasticity),
        }
    }
}

/// `REF_NOMINAL_S` over the mean of the two reference timings.
pub fn factor(ref_before_s: f64, ref_after_s: f64) -> f64 {
    REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
}

/// CPU seconds (user + system, all threads, live and joined) the
/// process has consumed, from `/proc/self/stat`. Resolution is one
/// clock tick (10 ms); callers difference it over whole rounds.
pub fn process_cpu_s() -> f64 {
    // USER_HZ is 100 on every Linux ABI Rust targets; std offers no
    // sysconf and the harness takes no libc dependency.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are
    // counted after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, so utime (14) and stime
    // (15) are the 12th and 13th of the remainder.
    let utime: f64 = fields.nth(11).and_then(|s| s.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(s: f64) -> RefTiming {
        RefTiming {
            wall_s: s,
            cpu_s: s,
        }
    }

    #[test]
    fn normalisation_cancels_a_drifting_reference() {
        let normalise = |wall: f64, before: f64, after: f64| {
            wall * Factors::between(timing(before), timing(after), 1.0).wall
        };
        // The same work on a host that is uniformly k× slower: wall
        // and both reference timings scale by k, the result does not.
        let base = normalise(0.8, 0.05, 0.05);
        assert!((base - 0.8).abs() < 1e-12, "nominal host is the identity");
        for k in [0.5, 1.0, 1.3, 2.0] {
            let n = normalise(0.8 * k, 0.05 * k, 0.05 * k);
            assert!((n - base).abs() < 1e-12, "k={k}: {n} vs {base}");
        }
        // A host that drifts across the round (reference 40 ms before,
        // 60 ms after) is charged at the mean of the two.
        let drift = normalise(1.0, 0.04, 0.06);
        assert!((drift - 1.0).abs() < 1e-12);
        // Slower bracket, same wall: the work was cheaper than it looked.
        assert!(normalise(1.0, 0.06, 0.06) < normalise(1.0, 0.05, 0.05));
    }

    #[test]
    fn elasticity_scales_how_much_of_the_slowdown_is_cancelled() {
        // The gauge reads 1.5× nominal. A round that follows the host
        // by elasticity e took 1.5^e times as long; normalising at that
        // e gives the nominal-host time back.
        let slow = timing(REF_NOMINAL_S * 1.5);
        for e in [0.7, 1.0, 1.25] {
            let f = Factors::between(slow, slow, e);
            assert!((2.0 * 1.5f64.powf(e) * f.wall - 2.0).abs() < 1e-12, "e={e}");
            assert_eq!(f.wall, f.cpu);
        }
        // A timer-bound round (e < 1) is corrected by less.
        let (timer, cpu) = (
            Factors::between(slow, slow, 0.7),
            Factors::between(slow, slow, 1.0),
        );
        assert!(timer.wall > cpu.wall && timer.wall < 1.0);
        // On the nominal host the elasticity does not matter.
        let nominal = timing(REF_NOMINAL_S);
        assert_eq!(Factors::between(nominal, nominal, 0.7).wall, 1.0);
    }

    #[test]
    fn reference_kernel_stays_finite_and_varied_on_every_lane() {
        let mut k = RefKernel::new(2);
        for _ in 0..3 {
            let t = k.time();
            assert!(t.wall_s > 0.0 && t.cpu_s > 0.0);
            // Two busy lanes cannot finish faster than one lane's CPU time.
            assert!(t.wall_s > 0.5 * t.cpu_s);
        }
        for lane in &k.lanes {
            assert!(lane.iter().all(|x| x.is_finite() && *x >= 1.0 && *x < 2.0));
            // Not a constant the optimiser could have folded.
            let distinct: std::collections::BTreeSet<u64> =
                lane.iter().map(|x| x.to_bits()).collect();
            assert!(distinct.len() > REF_ELEMS / 2);
        }
    }

    #[test]
    fn proc_counters_parse() {
        let c0 = process_cpu_s();
        assert!(c0 >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
