//! Reverse-mode automatic differentiation — the Stan-math substrate.
//!
//! The NUTS sampler needs the gradient of the log-posterior with respect
//! to all parameters on every leapfrog step. Stan obtains it with a
//! reverse-mode AD arena; this crate reimplements that machinery from
//! scratch: a [`Tape`] of elementary operations, a lightweight [`Var`]
//! handle with full operator overloading, and a [`Real`] trait so model
//! log-densities are written once and evaluated either as plain `f64`
//! (cheap value-only passes) or as taped [`Var`]s (gradient passes).
//!
//! A tape is long-lived. Stan clears one arena per iteration; here every
//! sampling thread keeps one [`Tape`], and [`grad_into`] clears it,
//! registers the inputs as leaves ([`Tape::leaves`]), records the
//! closure, sweeps it backwards and writes the gradient into the
//! caller's slice — allocating nothing once the tape's buffers have
//! grown to the expression. A posterior that is a sum of terms over
//! the same inputs is swept a term at a time
//! ([`Leaves::grad_term`]: record behind the leaves, sweep that
//! segment only, truncate), which gives each leaf the floating-point
//! sequence a private tape per term would and keeps the live tape one
//! term long. [`grad_of`] is the one-shot form on a tape of its own.
//!
//! The tape also doubles as the *working-set probe* of the architecture
//! simulation: its node count and byte size per gradient evaluation are
//! exactly the "intermediate variables in the inference algorithm" that
//! the paper identifies as the cause of multi-MB working sets from
//! KB-scale modeled data (Section V-A). [`TapeStats`] counts a term as
//! its leaves plus its nodes, so a gradient summed over terms reports
//! what one private tape per term would.
//!
//! # Example
//!
//! ```
//! use bayes_autodiff::{grad_of, Real};
//!
//! // f(x, y) = x·y + sin(x); ∂f/∂x = y + cos(x), ∂f/∂y = x
//! fn f<R: Real>(v: &[R]) -> R {
//!     v[0] * v[1] + v[0].sin()
//! }
//! let (val, grad, _stats) = grad_of(&[1.0, 2.0], |v| f(v));
//! assert!((val - (2.0 + 1.0f64.sin())).abs() < 1e-12);
//! assert!((grad[0] - (2.0 + 1.0f64.cos())).abs() < 1e-12);
//! assert!((grad[1] - 1.0).abs() < 1e-12);
//! ```

pub mod forward;
mod real;
mod tape;
mod var;

pub use forward::{grad_forward, grad_forward_into, Dual};
pub use real::Real;
pub use tape::{Leaves, Tape, TapeStats};
pub use var::Var;

/// Evaluates `f` at `x` with gradient on a tape of its own, returning
/// `(value, gradient, tape statistics)`.
///
/// The one-shot form of [`grad_into`], for tests, examples and
/// profiling probes; code that evaluates gradients in a loop keeps a
/// tape and calls [`grad_into`].
///
/// # Example
///
/// ```
/// let (v, g, stats) = bayes_autodiff::grad_of(&[3.0], |x| x[0] * x[0]);
/// assert_eq!(v, 9.0);
/// assert!((g[0] - 6.0).abs() < 1e-12);
/// assert!(stats.nodes >= 1);
/// ```
pub fn grad_of<F>(x: &[f64], f: F) -> (f64, Vec<f64>, TapeStats)
where
    F: for<'t> Fn(&[Var<'t>]) -> Var<'t>,
{
    grad_of_in(&Tape::new(), x, f)
}

/// Like [`grad_of`], but records onto a caller-provided tape, clearing
/// it first.
///
/// # Example
///
/// ```
/// use bayes_autodiff::{grad_of_in, Tape};
///
/// let tape = Tape::with_capacity(64);
/// for step in 0..3 {
///     let x = [step as f64 + 1.0];
///     let (v, g, _) = grad_of_in(&tape, &x, |v| v[0] * v[0]);
///     assert_eq!(v, x[0] * x[0]);
///     assert!((g[0] - 2.0 * x[0]).abs() < 1e-12);
/// }
/// ```
pub fn grad_of_in<F>(tape: &Tape, x: &[f64], f: F) -> (f64, Vec<f64>, TapeStats)
where
    F: for<'t> Fn(&[Var<'t>]) -> Var<'t>,
{
    let mut grad = vec![0.0; x.len()];
    let (value, stats) = grad_into(tape, x, &mut grad, f);
    (value, grad, stats)
}

/// Evaluates `f` at `x` on `tape`, clearing it first, and writes the
/// gradient into `grad`; returns `(value, tape statistics)`. This is
/// the entry point of the samplers: on a long-lived tape it allocates
/// nothing once the tape has grown to the size of `f`.
///
/// # Example
///
/// ```
/// use bayes_autodiff::{grad_into, Tape};
///
/// let tape = Tape::new();
/// let mut g = [0.0; 2];
/// let (v, stats) = grad_into(&tape, &[3.0, 4.0], &mut g, |x| x[0] * x[1]);
/// assert_eq!((v, g), (12.0, [4.0, 3.0]));
/// assert_eq!(stats.nodes, 3);
/// ```
#[inline]
pub fn grad_into<F>(tape: &Tape, x: &[f64], grad: &mut [f64], f: F) -> (f64, TapeStats)
where
    F: for<'t> FnOnce(&[Var<'t>]) -> Var<'t>,
{
    tape.leaves(x).grad_term(grad, f)
}

/// Evaluates `f` at `x` without building a tape (plain `f64` pass).
///
/// The closure must be written against the [`Real`] trait so that the
/// same body also works for [`grad_of`].
pub fn value_of<F>(x: &[f64], f: F) -> f64
where
    F: Fn(&[f64]) -> f64,
{
    f(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of `f` at `x` in coordinate `i`.
    fn fd<F: Fn(&[f64]) -> f64>(f: &F, x: &[f64], i: usize) -> f64 {
        let h = 1e-6 * (1.0 + x[i].abs());
        let mut xp = x.to_vec();
        let mut xm = x.to_vec();
        xp[i] += h;
        xm[i] -= h;
        (f(&xp) - f(&xm)) / (2.0 * h)
    }

    #[test]
    fn grad_matches_finite_difference_on_composite() {
        // f = exp(x) · ln(y) + x² / y + atan(x·y)
        fn generic<R: Real>(v: &[R]) -> R {
            v[0].exp() * v[1].ln() + v[0] * v[0] / v[1] + (v[0] * v[1]).atan()
        }
        let x = [0.7, 2.3];
        let (val, grad, _) = grad_of(&x, |v| generic(v));
        let fval = |y: &[f64]| generic(y);
        assert!((val - fval(&x)).abs() < 1e-12);
        for (i, gi) in grad.iter().enumerate().take(2) {
            let g = fd(&fval, &x, i);
            assert!((gi - g).abs() < 1e-5, "coord {i}: {gi} vs {g}");
        }
    }

    #[test]
    fn value_of_matches_grad_of_value() {
        fn generic<R: Real>(v: &[R]) -> R {
            (v[0].sigmoid() + v[1].ln_gamma()).sqrt()
        }
        let x = [0.3, 4.2];
        let (val, _, _) = grad_of(&x, |v| generic(v));
        assert!((value_of(&x, generic) - val).abs() < 1e-14);
    }

    #[test]
    fn grad_of_in_reuses_tape_and_matches_grad_of() {
        fn generic<R: Real>(v: &[R]) -> R {
            v[0].exp() + v[1] * v[0]
        }
        let tape = Tape::with_capacity(8);
        for seed in 0..4 {
            let x = [0.1 * seed as f64, 1.0 + seed as f64];
            let fresh = grad_of(&x, |v| generic(v));
            let reused = grad_of_in(&tape, &x, |v| generic(v));
            assert_eq!(fresh.0, reused.0, "values must be bitwise equal");
            assert_eq!(fresh.1, reused.1, "gradients must be bitwise equal");
            assert_eq!(fresh.2, reused.2, "stats must agree after reset");
        }
    }

    #[test]
    fn stats_report_nonzero_tape() {
        let (_, _, stats) = grad_of(&[1.0, 2.0, 3.0], |v| {
            let mut acc = v[0];
            for &x in &v[1..] {
                acc = acc + x * x;
            }
            acc
        });
        assert!(stats.nodes >= 5);
        assert!(stats.bytes > 0);
    }
}
