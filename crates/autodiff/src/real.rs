//! The [`Real`] abstraction: write a log-density once, run it as plain
//! `f64` or as taped [`Var`]s.

use crate::var::Var;
use bayes_prob::special;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A differentiable scalar. Implemented by `f64` (value-only passes) and
/// by [`Var`] (gradient passes on a [`crate::Tape`]).
///
/// Generic log-density code should take `&[R]` parameters and mix in
/// `f64` constants freely — every operator is defined between `R` and
/// `f64` in both positions except `f64 op R`, for which helper inherent
/// methods or reordering suffice.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Real;
///
/// fn normal_lpdf<R: Real>(x: f64, mu: R, sigma: R) -> R {
///     let z = (mu - x) / sigma;
///     -(z * z) * 0.5 - sigma.ln() - 0.918938533204672669541
/// }
///
/// let lp = normal_lpdf(1.0, 0.0_f64, 1.0_f64);
/// assert!((lp - (-1.4189385332046727)).abs() < 1e-12);
/// ```
pub trait Real:
    Copy
    + Add<Self, Output = Self>
    + Sub<Self, Output = Self>
    + Mul<Self, Output = Self>
    + Div<Self, Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    /// The current numeric value (detached from any tape).
    fn val(self) -> f64;

    /// Natural logarithm.
    fn ln(self) -> Self;
    /// `ln(1 + x)`.
    fn ln_1p(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Square.
    fn square(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Real power with constant exponent.
    fn powf(self, p: f64) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Arctangent.
    fn atan(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(self) -> Self;
    /// Softplus `ln(1 + eˣ)`.
    fn log1p_exp(self) -> Self;
    /// Log-gamma function.
    fn ln_gamma(self) -> Self;
    /// `f(self)` for a unary transcendental `f` whose value and
    /// derivative at `self` the caller has already computed — one node
    /// with weight `derivative`, counted as one transcendental, exactly
    /// what [`Real::ln`] or [`Real::ln_gamma`] records. A kernel that
    /// applies `f` to the same parameter once per observation computes
    /// `value` and `derivative` once and calls this per observation
    /// instead.
    fn precomputed(self, value: f64, derivative: f64) -> Self;
}

impl Real for f64 {
    #[inline]
    fn val(self) -> f64 {
        self
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn ln_1p(self) -> Self {
        f64::ln_1p(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn square(self) -> Self {
        self * self
    }
    #[inline]
    fn recip(self) -> Self {
        1.0 / self
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        f64::powf(self, p)
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn atan(self) -> Self {
        f64::atan(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn sigmoid(self) -> Self {
        special::sigmoid(self)
    }
    #[inline]
    fn log1p_exp(self) -> Self {
        special::log1p_exp(self)
    }
    #[inline]
    fn ln_gamma(self) -> Self {
        special::ln_gamma(self)
    }
    #[inline]
    fn precomputed(self, value: f64, _derivative: f64) -> Self {
        value
    }
}

impl Real for Var<'_> {
    #[inline]
    fn val(self) -> f64 {
        self.value()
    }
    #[inline]
    fn ln(self) -> Self {
        Var::ln(self)
    }
    #[inline]
    fn ln_1p(self) -> Self {
        Var::ln_1p(self)
    }
    #[inline]
    fn exp(self) -> Self {
        Var::exp(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Var::sqrt(self)
    }
    #[inline]
    fn square(self) -> Self {
        Var::square(self)
    }
    #[inline]
    fn recip(self) -> Self {
        Var::recip(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        Var::powi(self, n)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        Var::powf(self, p)
    }
    #[inline]
    fn sin(self) -> Self {
        Var::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        Var::cos(self)
    }
    #[inline]
    fn atan(self) -> Self {
        Var::atan(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        Var::tanh(self)
    }
    #[inline]
    fn sigmoid(self) -> Self {
        Var::sigmoid(self)
    }
    #[inline]
    fn log1p_exp(self) -> Self {
        Var::log1p_exp(self)
    }
    #[inline]
    fn ln_gamma(self) -> Self {
        Var::ln_gamma(self)
    }
    #[inline]
    fn precomputed(self, value: f64, derivative: f64) -> Self {
        Var::precomputed(self, value, derivative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_of;

    fn expr<R: Real>(v: &[R]) -> R {
        // A lump of everything: exercises each trait method once.
        let a = v[0];
        let b = v[1];
        (a.ln() + b.exp() + a.sqrt() + a.square() + a.recip() + a.powi(2) + a.powf(1.5)).sigmoid()
            + (a.sin() + b.cos() + a.atan() + b.tanh()).log1p_exp()
            + (a + 3.0).ln_gamma()
            + a.ln_1p() * 2.0
            - b / 2.0
    }

    #[test]
    fn f64_and_var_paths_agree() {
        let x = [1.3, 0.4];
        let direct = expr(&x);
        let (taped, grad, _) = grad_of(&x, |v| expr(v));
        assert!((direct - taped).abs() < 1e-13);
        // And the gradient matches finite differences of the f64 path.
        for i in 0..2 {
            let h = 1e-6;
            let mut xp = x;
            let mut xm = x;
            xp[i] += h;
            xm[i] -= h;
            let fd = (expr(&xp) - expr(&xm)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "coord {i}: {} vs {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn val_detaches() {
        let (v, _, _) = grad_of(&[2.0], |x| {
            // .val() reads the value without extending the tape.
            let c = x[0].val();
            x[0] * c
        });
        assert_eq!(v, 4.0);
    }
}
