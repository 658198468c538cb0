//! Tape-free forward-mode differentiation.
//!
//! [`Dual`] carries a value and `K` directional derivatives ("lanes")
//! through the same generic [`Real`] code the tape runs, so a gradient
//! costs one extra fused multiply-add per lane per operation and zero
//! allocations — no tape is recorded and no reverse sweep runs. For
//! low-dimensional densities evaluated millions of times (the
//! sufficient-statistics fast path), this beats reverse mode: each
//! transcendental (`exp`, `ln`, …) is computed once per operation and
//! shared by every lane, and all state lives in registers or on the
//! stack.
//!
//! The primal component applies *exactly* the same `f64` operations as
//! `impl Real for f64`, so the value computed under [`Dual`] is
//! bit-identical to a plain `f64` evaluation of the same generic code.
//! Derivatives are exact (not finite differences) but accumulate in a
//! different order than the reverse sweep, so forward and reverse
//! gradients agree only to rounding (see `tests/fastpath_equivalence`).

// Lane loops below index self.dot/rhs.dot/out in lock-step; the
// indexed form keeps every kernel visibly identical.
#![allow(clippy::needless_range_loop)]

use crate::real::Real;
use bayes_prob::special;
use std::cell::Cell;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Number of derivative lanes carried per [`Dual`] in the default
/// gradient driver: wide enough to finish dim ≤ 4 models (the GP
/// hyper-parameter posteriors) in a single pass, narrow enough that a
/// `Dual` stays in registers.
pub const LANES: usize = 4;

/// A forward-mode scalar: a primal value plus `K` directional
/// derivatives propagated in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual<const K: usize> {
    /// Primal value — follows the `f64` path bit-for-bit.
    pub val: f64,
    /// Directional derivatives, one per seeded lane.
    pub dot: [f64; K],
}

impl<const K: usize> Dual<K> {
    /// A constant: value with all derivative lanes zero.
    pub fn constant(v: f64) -> Self {
        Self {
            val: v,
            dot: [0.0; K],
        }
    }

    /// A seeded variable: lane `lane` carries derivative 1.
    pub fn seeded(v: f64, lane: usize) -> Self {
        let mut dot = [0.0; K];
        dot[lane] = 1.0;
        Self { val: v, dot }
    }

    /// Applies the chain rule: value `v`, all lanes scaled by `d`.
    #[inline]
    fn chain(self, v: f64, d: f64) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] * d;
        }
        Self { val: v, dot }
    }
}

impl<const K: usize> Add for Dual<K> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] + rhs.dot[k];
        }
        Self {
            val: self.val + rhs.val,
            dot,
        }
    }
}

impl<const K: usize> Sub for Dual<K> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] - rhs.dot[k];
        }
        Self {
            val: self.val - rhs.val,
            dot,
        }
    }
}

impl<const K: usize> Mul for Dual<K> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] * rhs.val + self.val * rhs.dot[k];
        }
        Self {
            val: self.val * rhs.val,
            dot,
        }
    }
}

impl<const K: usize> Div for Dual<K> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let v = self.val / rhs.val;
        let inv = 1.0 / rhs.val;
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = (self.dot[k] - v * rhs.dot[k]) * inv;
        }
        Self { val: v, dot }
    }
}

impl<const K: usize> Neg for Dual<K> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = -self.dot[k];
        }
        Self {
            val: -self.val,
            dot,
        }
    }
}

impl<const K: usize> Add<f64> for Dual<K> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        Self {
            val: self.val + rhs,
            dot: self.dot,
        }
    }
}

impl<const K: usize> Sub<f64> for Dual<K> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        Self {
            val: self.val - rhs,
            dot: self.dot,
        }
    }
}

impl<const K: usize> Mul<f64> for Dual<K> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] * rhs;
        }
        Self {
            val: self.val * rhs,
            dot,
        }
    }
}

impl<const K: usize> Div<f64> for Dual<K> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        let inv = 1.0 / rhs;
        let mut dot = [0.0; K];
        for k in 0..K {
            dot[k] = self.dot[k] * inv;
        }
        Self {
            val: self.val / rhs,
            dot,
        }
    }
}

impl<const K: usize> Real for Dual<K> {
    fn val(self) -> f64 {
        self.val
    }
    fn ln(self) -> Self {
        self.chain(f64::ln(self.val), 1.0 / self.val)
    }
    fn ln_1p(self) -> Self {
        self.chain(f64::ln_1p(self.val), 1.0 / (1.0 + self.val))
    }
    fn exp(self) -> Self {
        let e = f64::exp(self.val);
        self.chain(e, e)
    }
    fn sqrt(self) -> Self {
        let s = f64::sqrt(self.val);
        self.chain(s, 0.5 / s)
    }
    fn square(self) -> Self {
        self.chain(self.val * self.val, 2.0 * self.val)
    }
    fn recip(self) -> Self {
        let r = 1.0 / self.val;
        self.chain(r, -r * r)
    }
    fn powi(self, n: i32) -> Self {
        self.chain(
            f64::powi(self.val, n),
            f64::from(n) * f64::powi(self.val, n - 1),
        )
    }
    fn powf(self, p: f64) -> Self {
        self.chain(f64::powf(self.val, p), p * f64::powf(self.val, p - 1.0))
    }
    fn sin(self) -> Self {
        self.chain(f64::sin(self.val), f64::cos(self.val))
    }
    fn cos(self) -> Self {
        self.chain(f64::cos(self.val), -f64::sin(self.val))
    }
    fn atan(self) -> Self {
        self.chain(f64::atan(self.val), 1.0 / (1.0 + self.val * self.val))
    }
    fn tanh(self) -> Self {
        let t = f64::tanh(self.val);
        self.chain(t, 1.0 - t * t)
    }
    fn sigmoid(self) -> Self {
        let s = special::sigmoid(self.val);
        self.chain(s, s * (1.0 - s))
    }
    fn log1p_exp(self) -> Self {
        // d/dx ln(1+eˣ) = σ(x).
        let (value, sigmoid) = special::log1p_exp_and_sigmoid(self.val);
        self.chain(value, sigmoid)
    }
    fn ln_gamma(self) -> Self {
        self.chain(special::ln_gamma(self.val), special::digamma(self.val))
    }
    fn precomputed(self, value: f64, derivative: f64) -> Self {
        self.chain(value, derivative)
    }
}

thread_local! {
    /// The seeded evaluation point of [`grad_forward_into`], kept so a
    /// steady-state gradient allocates nothing. Taken out of the cell
    /// for the duration of a call: a closure that differentiates
    /// something else inside finds it empty and grows one of its own.
    static POINT: Cell<Vec<Dual<LANES>>> = const { Cell::new(Vec::new()) };
}

/// Evaluates `f` at `x` and writes its full gradient into `grad` by
/// forward-mode sweeps of [`LANES`] coordinates at a time —
/// `⌈dim / LANES⌉` passes, each sharing every transcendental across its
/// lanes, with no tape and, once this thread's point buffer has grown
/// to `dim`, no allocation.
///
/// Returns the value. It comes from the first pass and is bit-identical
/// to a plain `f64` evaluation of the same closure (see the module
/// docs); lanes seeded past `dim` on the final pass are discarded.
///
/// # Panics
///
/// Panics if `grad` is not one slot per coordinate of `x`.
pub fn grad_forward_into<F>(x: &[f64], grad: &mut [f64], f: F) -> f64
where
    F: Fn(&[Dual<LANES>]) -> Dual<LANES>,
{
    let dim = x.len();
    assert_eq!(grad.len(), dim, "one gradient slot per coordinate");
    if dim == 0 {
        return f(&[]).val;
    }
    let mut point = POINT.take();
    point.clear();
    point.extend(x.iter().map(|&v| Dual::constant(v)));
    let mut value = 0.0;
    let mut start = 0;
    while start < dim {
        let width = LANES.min(dim - start);
        for lane in 0..width {
            point[start + lane] = Dual::seeded(x[start + lane], lane);
        }
        let out = f(&point);
        if start == 0 {
            value = out.val;
        }
        grad[start..start + width].copy_from_slice(&out.dot[..width]);
        for slot in &mut point[start..start + width] {
            *slot = Dual::constant(slot.val);
        }
        start += width;
    }
    POINT.set(point);
    value
}

/// [`grad_forward_into`] with a gradient vector of its own: returns
/// `(value, gradient)`.
pub fn grad_forward<F>(x: &[f64], f: F) -> (f64, Vec<f64>)
where
    F: Fn(&[Dual<LANES>]) -> Dual<LANES>,
{
    let mut grad = vec![0.0; x.len()];
    let value = grad_forward_into(x, &mut grad, f);
    (value, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_of;

    fn expr<R: Real>(v: &[R]) -> R {
        // Exercises every Real method plus the full operator matrix.
        let a = v[0];
        let b = v[1];
        (a.ln() + b.exp() + a.sqrt() + a.square() + a.recip() + a.powi(3) + a.powf(1.5)).sigmoid()
            + (a.sin() + b.cos() + a.atan() + b.tanh()).log1p_exp()
            + (a + 3.0).ln_gamma()
            + a.ln_1p() * 2.0
            - b / 2.0
            + (a * b) / (b + 2.0)
            + (-a) * 0.25
            + (b - 0.5) * (a - 1.0)
    }

    #[test]
    fn primal_value_is_bitwise_equal_to_the_f64_path() {
        for x in [[1.3, 0.4], [0.7, -1.2], [2.5, 0.01]] {
            let direct = expr(&x);
            let (fwd, _) = grad_forward(&x, expr);
            assert_eq!(direct.to_bits(), fwd.to_bits(), "at {x:?}");
        }
    }

    #[test]
    fn forward_gradient_matches_the_tape() {
        for x in [[1.3, 0.4], [0.7, -1.2], [2.5, 0.01]] {
            let (_, fwd) = grad_forward(&x, expr);
            let (_, rev, _) = grad_of(&x, |v| expr(v));
            for i in 0..2 {
                assert!(
                    (fwd[i] - rev[i]).abs() < 1e-12 * (1.0 + rev[i].abs()),
                    "coord {i} at {x:?}: {} vs {}",
                    fwd[i],
                    rev[i]
                );
            }
        }
    }

    #[test]
    fn chunked_passes_cover_dims_beyond_the_lane_width() {
        // 7-dimensional quadratic-with-couplings: gradient known in
        // closed form, dim > LANES forces two passes.
        fn g<R: Real>(v: &[R]) -> R {
            let mut acc = v[0] * 0.0;
            for (i, &t) in v.iter().enumerate() {
                acc = acc + t.square() * (0.5 * (i + 1) as f64);
            }
            acc + v[0] * v[6]
        }
        let x: Vec<f64> = (0..7).map(|i| 0.3 + 0.1 * i as f64).collect();
        let (_, grad) = grad_forward(&x, g);
        for i in 0..7 {
            let mut expect = (i + 1) as f64 * x[i];
            if i == 0 {
                expect += x[6];
            }
            if i == 6 {
                expect += x[0];
            }
            assert!(
                (grad[i] - expect).abs() < 1e-14 * (1.0 + expect.abs()),
                "coord {i}: {} vs {expect}",
                grad[i]
            );
        }
    }

    #[test]
    fn into_form_overwrites_a_dirty_gradient_and_nests() {
        // The inner call finds this thread's point buffer taken and
        // must neither panic nor disturb the outer pass.
        fn outer(v: &[Dual<LANES>]) -> Dual<LANES> {
            let mut inner = [f64::NAN; 2];
            let inner_val = grad_forward_into(&[v[0].val, 2.0], &mut inner, |w| w[0] * w[1]);
            assert_eq!(inner, [2.0, v[0].val]);
            v[0] * v[5] + v[5].square() + inner_val * 0.0
        }
        let x = [2.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let mut grad = [f64::NAN; 6];
        for _ in 0..2 {
            let val = grad_forward_into(&x, &mut grad, outer);
            assert_eq!(val, 15.0);
            assert_eq!(grad, [3.0, 0.0, 0.0, 0.0, 0.0, 8.0]);
        }
        assert_eq!(grad_forward(&x, outer), (15.0, grad.to_vec()));
    }

    #[test]
    fn seeded_lanes_are_reset_between_passes() {
        // If pass 1's seeds leaked into pass 2, the cross-term x0·x5
        // would contaminate grad[5].
        fn g<R: Real>(v: &[R]) -> R {
            v[0] * v[5] + v[5].square()
        }
        let x = [2.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let (val, grad) = grad_forward(&x, g);
        assert_eq!(val, 15.0);
        assert_eq!(grad[0], 3.0);
        assert_eq!(grad[5], 2.0 + 6.0);
    }
}
