//! The `Var` handle: a taped scalar with operator overloading.

use crate::tape::Tape;
use bayes_prob::special;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A scalar bound to a [`Tape`]. Arithmetic on `Var`s records the
/// operation so [`Tape::grad`] can later replay it in reverse.
///
/// `Var` is `Copy`; it is 24 bytes (tape pointer, index, cached value).
#[derive(Debug, Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: u32,
    val: f64,
}

impl<'t> Var<'t> {
    #[inline]
    pub(crate) fn new(tape: &'t Tape, idx: u32, val: f64) -> Self {
        Self { tape, idx, val }
    }

    /// The current numeric value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.val
    }

    /// Position of this variable on its tape; indexes the adjoint vector
    /// returned by [`Tape::grad`].
    #[inline]
    pub fn index(&self) -> usize {
        self.idx as usize
    }

    /// The tape this variable belongs to.
    #[inline]
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    #[inline]
    fn unary(self, val: f64, dval: f64) -> Self {
        let idx = self.tape.push([self.idx, self.idx], [dval, 0.0], false);
        Self::new(self.tape, idx, val)
    }

    /// Unary op backed by a long-latency library kernel (`exp`, `ln`,
    /// `lgamma`, trig) — recorded for the IPC model.
    #[inline]
    fn unary_trans(self, val: f64, dval: f64) -> Self {
        self.tape.note_transcendental();
        self.unary(val, dval)
    }

    /// # Panics
    ///
    /// Panics if `rhs` belongs to another tape, in every build: a
    /// foreign index would name the wrong slot in the reverse sweep.
    #[inline]
    fn binary(self, rhs: Self, val: f64, dl: f64, dr: f64) -> Self {
        if !std::ptr::eq(self.tape, rhs.tape) {
            foreign_operand();
        }
        let idx = self.tape.push([self.idx, rhs.idx], [dl, dr], false);
        Self::new(self.tape, idx, val)
    }

    /// Natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        self.unary_trans(self.val.ln(), 1.0 / self.val)
    }

    /// `ln(1 + x)`, numerically stable near zero.
    #[inline]
    pub fn ln_1p(self) -> Self {
        self.unary_trans(self.val.ln_1p(), 1.0 / (1.0 + self.val))
    }

    /// Exponential.
    #[inline]
    pub fn exp(self) -> Self {
        let e = self.val.exp();
        self.unary_trans(e, e)
    }

    /// Square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let s = self.val.sqrt();
        self.unary_trans(s, 0.5 / s)
    }

    /// Square (`x²`), cheaper than `powi(2)` on the tape.
    #[inline]
    pub fn square(self) -> Self {
        self.unary(self.val * self.val, 2.0 * self.val)
    }

    /// Reciprocal (`1/x`).
    #[inline]
    pub fn recip(self) -> Self {
        let r = 1.0 / self.val;
        self.unary(r, -r * r)
    }

    /// Integer power.
    #[inline]
    pub fn powi(self, n: i32) -> Self {
        self.unary(self.val.powi(n), n as f64 * self.val.powi(n - 1))
    }

    /// Real power with a constant exponent.
    #[inline]
    pub fn powf(self, p: f64) -> Self {
        self.unary_trans(self.val.powf(p), p * self.val.powf(p - 1.0))
    }

    /// Sine.
    #[inline]
    pub fn sin(self) -> Self {
        self.unary_trans(self.val.sin(), self.val.cos())
    }

    /// Cosine.
    #[inline]
    pub fn cos(self) -> Self {
        self.unary_trans(self.val.cos(), -self.val.sin())
    }

    /// Arctangent (the Cauchy-CDF kernel of Section VII).
    #[inline]
    pub fn atan(self) -> Self {
        self.unary_trans(self.val.atan(), 1.0 / (1.0 + self.val * self.val))
    }

    /// Hyperbolic tangent.
    #[inline]
    pub fn tanh(self) -> Self {
        let t = self.val.tanh();
        self.unary_trans(t, 1.0 - t * t)
    }

    /// Logistic sigmoid.
    #[inline]
    pub fn sigmoid(self) -> Self {
        let s = special::sigmoid(self.val);
        self.unary_trans(s, s * (1.0 - s))
    }

    /// `ln(1 + eˣ)` (softplus), the log-logistic-CDF kernel; its
    /// derivative is the sigmoid, from the same `exp`.
    #[inline]
    pub fn log1p_exp(self) -> Self {
        let (value, sigmoid) = special::log1p_exp_and_sigmoid(self.val);
        self.unary_trans(value, sigmoid)
    }

    /// `ln Γ(x)`; derivative is the digamma function.
    #[inline]
    pub fn ln_gamma(self) -> Self {
        self.unary_trans(special::ln_gamma(self.val), special::digamma(self.val))
    }

    /// A unary transcendental of this variable whose value and
    /// derivative the caller computed: see [`crate::Real::precomputed`].
    #[inline]
    pub fn precomputed(self, value: f64, derivative: f64) -> Self {
        self.unary_trans(value, derivative)
    }
}

/// Out of line, so the check costs the recording path one compare.
#[cold]
#[inline(never)]
fn foreign_operand() -> ! {
    panic!("mixing variables from different tapes")
}

impl Add for Var<'_> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.binary(rhs, self.val + rhs.val, 1.0, 1.0)
    }
}

impl Sub for Var<'_> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.binary(rhs, self.val - rhs.val, 1.0, -1.0)
    }
}

impl Mul for Var<'_> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.binary(rhs, self.val * rhs.val, rhs.val, self.val)
    }
}

impl Div for Var<'_> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let inv = 1.0 / rhs.val;
        self.binary(rhs, self.val * inv, inv, -self.val * inv * inv)
    }
}

impl Neg for Var<'_> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.unary(-self.val, -1.0)
    }
}

impl Add<f64> for Var<'_> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        self.unary(self.val + rhs, 1.0)
    }
}

impl Sub<f64> for Var<'_> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        self.unary(self.val - rhs, 1.0)
    }
}

impl Mul<f64> for Var<'_> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.unary(self.val * rhs, rhs)
    }
}

impl Div<f64> for Var<'_> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.unary(self.val / rhs, 1.0 / rhs)
    }
}

impl<'t> Add<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        rhs + self
    }
}

impl<'t> Sub<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        rhs.unary(self - rhs.val, -1.0)
    }
}

impl<'t> Mul<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        rhs * self
    }
}

impl<'t> Div<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        let inv = 1.0 / rhs.val;
        rhs.unary(self * inv, -self * inv * inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_unary(f: impl Fn(Var<'_>) -> Var<'_>, g: impl Fn(f64) -> f64, x0: f64) {
        let tape = Tape::new();
        let x = tape.var(x0);
        let y = f(x);
        assert!((y.value() - g(x0)).abs() < 1e-12, "value at {x0}");
        let adj = tape.grad(y);
        let h = 1e-6 * (1.0 + x0.abs());
        let fd = (g(x0 + h) - g(x0 - h)) / (2.0 * h);
        assert!(
            (adj[x.index()] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
            "grad at {x0}: {} vs {fd}",
            adj[x.index()]
        );
    }

    #[test]
    fn unary_ops_match_finite_differences() {
        check_unary(|x| x.ln(), f64::ln, 1.7);
        check_unary(|x| x.ln_1p(), f64::ln_1p, 0.4);
        check_unary(|x| x.exp(), f64::exp, -0.3);
        check_unary(|x| x.sqrt(), f64::sqrt, 2.2);
        check_unary(|x| x.square(), |v| v * v, -1.4);
        check_unary(|x| x.recip(), |v| 1.0 / v, 0.8);
        check_unary(|x| x.powi(3), |v| v.powi(3), 1.3);
        check_unary(|x| x.powf(2.5), |v| v.powf(2.5), 1.9);
        check_unary(|x| x.sin(), f64::sin, 0.6);
        check_unary(|x| x.cos(), f64::cos, 0.6);
        check_unary(|x| x.atan(), f64::atan, -0.9);
        check_unary(|x| x.tanh(), f64::tanh, 0.5);
        check_unary(|x| x.sigmoid(), special::sigmoid, 0.2);
        check_unary(|x| x.log1p_exp(), special::log1p_exp, -0.7);
        check_unary(|x| x.ln_gamma(), special::ln_gamma, 3.6);
        check_unary(|x| -x, |v| -v, 1.1);
    }

    #[test]
    fn log1p_exp_value_and_derivative_equal_the_special_functions_bit_for_bit() {
        use crate::{Dual, Real};
        let subnormal = f64::from_bits(0x000f_0000_0000_0001);
        for x in [
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            1e-300,
            -1e-300,
            36.7,
            -36.7,
            709.0,
            -709.0,
            745.0,
            -745.0,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            let (value, derivative) = (special::log1p_exp(x), special::sigmoid(x));
            let tape = Tape::new();
            let v = tape.var(x);
            let y = v.log1p_exp();
            assert_eq!(y.value().to_bits(), value.to_bits(), "Var value at {x:e}");
            let g = tape.grad(y)[v.index()];
            assert_eq!(g.to_bits(), derivative.to_bits(), "Var derivative at {x:e}");
            let d = Real::log1p_exp(Dual::<1>::seeded(x, 0));
            assert_eq!(d.val.to_bits(), value.to_bits(), "Dual value at {x:e}");
            assert_eq!(
                d.dot[0].to_bits(),
                derivative.to_bits(),
                "Dual derivative at {x:e}"
            );
        }
    }

    #[test]
    fn binary_ops_gradients() {
        let tape = Tape::new();
        let a = tape.var(2.0);
        let b = tape.var(3.0);
        // f = a/b - a·b
        let f = a / b - a * b;
        let g = tape.grad(f);
        assert!((g[a.index()] - (1.0 / 3.0 - 3.0)).abs() < 1e-12);
        assert!((g[b.index()] - (-2.0 / 9.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn scalar_mixed_ops() {
        let tape = Tape::new();
        let x = tape.var(4.0);
        // f = 3 + 2·x − 1/x + x/2 − (5 − x)
        let f = 3.0 + 2.0 * x - 1.0 / x + x / 2.0 - (5.0 - x);
        let expected = 3.0 + 8.0 - 0.25 + 2.0 - 1.0;
        assert!((f.value() - expected).abs() < 1e-12);
        let g = tape.grad(f);
        // f' = 2 + 1/x² + 1/2 + 1
        assert!((g[x.index()] - (2.0 + 1.0 / 16.0 + 0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_deep_expression() {
        // f = ln(sigmoid(x²)) at x = 0.9
        let tape = Tape::new();
        let x = tape.var(0.9);
        let f = x.square().sigmoid().ln();
        let g = tape.grad(f);
        // f' = (1 − σ(x²)) · 2x
        let expected = (1.0 - special::sigmoid(0.81)) * 1.8;
        assert!((g[x.index()] - expected).abs() < 1e-12);
    }
}
