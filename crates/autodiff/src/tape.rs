//! The operation tape (Wengert list) behind reverse-mode AD.

use crate::var::Var;
use std::cell::{Cell, RefCell};
use std::ops::Deref;

/// One recorded elementary operation: up to two parents with the local
/// partial derivative of the node with respect to each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) parents: [u32; 2],
    pub(crate) weights: [f64; 2],
}

/// Size statistics of a tape, used by the architecture simulation as a
/// working-set probe (Section V-A of the paper: intermediates in the
/// inference algorithm amplify KB-scale modeled data to MB-scale
/// working sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapeStats {
    /// Number of recorded elementary operations (≈ flops per pass).
    pub nodes: usize,
    /// Bytes occupied by the tape nodes plus one adjoint slot per node.
    pub bytes: usize,
    /// Transcendental operations (`exp`, `ln`, `lgamma`, …) among
    /// [`TapeStats::nodes`] — long-latency kernels that depress IPC.
    /// The performance model uses the ratio to differentiate the
    /// dense-linear-algebra workloads (high IPC) from the
    /// special-function-heavy ones, as in Figure 1a of the paper.
    pub transcendental: usize,
}

impl TapeStats {
    fn of(nodes: usize, transcendental: usize) -> Self {
        Self {
            nodes,
            bytes: nodes * (std::mem::size_of::<Node>() + std::mem::size_of::<f64>()),
            transcendental,
        }
    }

    /// Merges the statistics of another tape (or of another term of a
    /// per-term gradient, see [`Leaves::grad_term`]) into this one.
    pub fn merge(&mut self, other: TapeStats) {
        self.nodes += other.nodes;
        self.bytes += other.bytes;
        self.transcendental += other.transcendental;
    }
}

impl std::ops::Add for TapeStats {
    type Output = TapeStats;

    fn add(mut self, rhs: TapeStats) -> TapeStats {
        self.merge(rhs);
        self
    }
}

impl std::ops::AddAssign for TapeStats {
    fn add_assign(&mut self, rhs: TapeStats) {
        self.merge(rhs);
    }
}

/// A reverse-mode AD tape. Create leaf variables with [`Tape::var`],
/// build an expression with [`Var`] arithmetic, then call [`Tape::grad`].
///
/// Interior mutability lets `Var` stay `Copy`; the tape is not `Sync`.
/// It is built to be long-lived: [`Tape::reset`] and
/// [`Tape::truncate`] keep the node allocation, and the reverse sweep
/// reuses one adjoint buffer, so a thread that evaluates gradients in
/// a loop on one tape stops allocating once the buffers have grown to
/// the largest expression it records.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Tape;
///
/// let tape = Tape::new();
/// let x = tape.var(2.0);
/// let y = x * x + x.ln();
/// let g = tape.grad(y);
/// assert!((g[x.index()] - (4.0 + 0.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// One adjoint per node, rewritten by every sweep.
    adjoints: RefCell<Vec<f64>>,
    /// The allocation behind [`Tape::leaves`] between calls; always
    /// empty, so its `'static` never names a live borrow.
    leaf_buf: RefCell<Vec<Var<'static>>>,
    transcendental: Cell<usize>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(cap)),
            ..Self::default()
        }
    }

    /// Clears the tape for reuse, keeping its allocations.
    pub fn reset(&self) {
        self.nodes.borrow_mut().clear();
        self.transcendental.set(0);
    }

    /// Drops every node from index `len` on, keeping the allocation;
    /// the next node recorded gets index `len` again. Any [`Var`] at
    /// or past `len` must not be used afterwards. The transcendental
    /// count of [`Tape::stats`] is not rewound.
    pub fn truncate(&self, len: usize) {
        self.nodes.borrow_mut().truncate(len);
    }

    /// Registers a new leaf (independent) variable with value `value`.
    #[inline]
    pub fn var(&self, value: f64) -> Var<'_> {
        let idx = self.push([0, 0], [0.0, 0.0], true);
        Var::new(self, idx, value)
    }

    /// Clears the tape and registers one leaf per element of `x`, so
    /// the leaves are nodes `0..x.len()`. The handles live in a buffer
    /// the tape takes back when the guard drops.
    pub fn leaves(&self, x: &[f64]) -> Leaves<'_> {
        self.reset();
        // Shortening `'static` to the borrow of `self` is plain
        // covariance; the buffer is empty, so it names no borrow yet.
        let mut vars: Vec<Var<'_>> = self.leaf_buf.take();
        vars.extend(x.iter().map(|&v| self.var(v)));
        Leaves { tape: self, vars }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Current size statistics: the nodes on the tape now, and the
    /// transcendental operations recorded since the last reset.
    pub fn stats(&self) -> TapeStats {
        TapeStats::of(self.len(), self.transcendental.get())
    }

    #[inline]
    pub(crate) fn note_transcendental(&self) {
        self.transcendental.set(self.transcendental.get() + 1);
    }

    #[inline]
    pub(crate) fn push(&self, parents: [u32; 2], weights: [f64; 2], leaf: bool) -> u32 {
        let mut nodes = self.nodes.borrow_mut();
        debug_assert!(
            nodes.len() < u32::MAX as usize,
            "tape node index overflows u32"
        );
        let idx = nodes.len() as u32;
        // A leaf points at itself with zero weight so the reverse sweep
        // treats it as a source.
        let parents = if leaf { [idx, idx] } else { parents };
        nodes.push(Node { parents, weights });
        idx
    }

    /// The reverse sweep. Propagates ∂`output` back through nodes
    /// `from..=output`, highest index first, and writes the adjoints of
    /// nodes `0..leaf_adjoints.len()` into `leaf_adjoints`.
    ///
    /// The nodes of the segment may refer only to each other and to
    /// those first nodes, which holds for anything recorded from the
    /// handles of [`Tape::leaves`] after a [`Tape::truncate`] back to
    /// `from`. The adjoint of a leaf is then the same sequence of `+=`
    /// it would see if the segment sat alone on a private tape behind
    /// its own copy of the leaves, so the result is the same to the
    /// bit — node indices shift, no floating-point operation does.
    ///
    /// # Panics
    ///
    /// Panics if `output` was created on a different tape, or if the
    /// leaves do not end before the segment starts.
    pub fn sweep_segment(&self, from: usize, output: Var<'_>, leaf_adjoints: &mut [f64]) {
        assert!(
            std::ptr::eq(output.tape(), self),
            "output variable belongs to a different tape"
        );
        let leaves = leaf_adjoints.len();
        assert!(leaves <= from, "leaves overlap the swept segment");
        let nodes = self.nodes.borrow();
        let mut adj = self.adjoints.borrow_mut();
        adj.clear();
        adj.resize(nodes.len(), 0.0);
        let out = output.index();
        adj[out] = 1.0;
        // An output below `from` is a leaf (or a node the caller
        // excluded): there is nothing to propagate through.
        for i in (from..=out).rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            for k in 0..2 {
                let p = node.parents[k] as usize;
                if p != i {
                    adj[p] += node.weights[k] * a;
                }
            }
        }
        leaf_adjoints.copy_from_slice(&adj[..leaves]);
    }

    /// Reverse sweep over the whole tape: returns the adjoint
    /// (∂output/∂node) for every node. Index with [`Var::index`].
    ///
    /// # Panics
    ///
    /// Panics if `output` was created on a different tape.
    pub fn grad(&self, output: Var<'_>) -> Vec<f64> {
        self.sweep_segment(0, output, &mut []);
        self.adjoints.borrow().clone()
    }
}

/// The leaf variables of a gradient evaluation, from [`Tape::leaves`]:
/// a slice of [`Var`] handles for nodes `0..len` of the tape.
#[derive(Debug)]
pub struct Leaves<'t> {
    tape: &'t Tape,
    vars: Vec<Var<'t>>,
}

impl<'t> Leaves<'t> {
    /// Evaluates one term of a sum over these leaves: records
    /// `f(leaves)` behind what is on the tape, sweeps only the nodes
    /// just recorded, writes ∂f/∂leaf into `grad`, and truncates the
    /// tape back to where it was. Returns the value of the term and
    /// its statistics, counted as a private tape would count them:
    /// the leaves plus the nodes of the term.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not one slot per leaf.
    #[inline]
    pub fn grad_term<F>(&self, grad: &mut [f64], f: F) -> (f64, TapeStats)
    where
        F: FnOnce(&[Var<'t>]) -> Var<'t>,
    {
        assert_eq!(grad.len(), self.vars.len(), "one gradient slot per leaf");
        let from = self.tape.len();
        let transcendental = self.tape.transcendental.get();
        let out = f(&self.vars);
        self.tape.sweep_segment(from, out, grad);
        let stats = TapeStats::of(
            self.vars.len() + self.tape.len() - from,
            self.tape.transcendental.get() - transcendental,
        );
        self.tape.truncate(from);
        self.tape.transcendental.set(transcendental);
        (out.value(), stats)
    }
}

impl<'t> Deref for Leaves<'t> {
    type Target = [Var<'t>];

    fn deref(&self) -> &[Var<'t>] {
        &self.vars
    }
}

impl Drop for Leaves<'_> {
    fn drop(&mut self) {
        let mut vars = std::mem::take(&mut self.vars);
        vars.clear();
        // Nothing is mapped; collecting an emptied vector into one of
        // the same element layout hands its allocation over.
        *self.tape.leaf_buf.borrow_mut() = vars
            .into_iter()
            .map(|_| -> Var<'static> { unreachable!("the vector was cleared") })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tape() {
        let t = Tape::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats().nodes, 0);
    }

    #[test]
    fn leaf_gradient_is_identity() {
        let t = Tape::new();
        let x = t.var(5.0);
        let g = t.grad(x);
        assert_eq!(g[x.index()], 1.0);
    }

    #[test]
    fn unused_leaf_gets_zero_adjoint() {
        let t = Tape::new();
        let x = t.var(1.0);
        let y = t.var(2.0);
        let out = x * x;
        let g = t.grad(out);
        assert_eq!(g[y.index()], 0.0);
        assert_eq!(g[x.index()], 2.0);
    }

    #[test]
    fn fan_out_accumulates_adjoints() {
        // f = x·x + x  →  f' = 2x + 1
        let t = Tape::new();
        let x = t.var(3.0);
        let f = x * x + x;
        let g = t.grad(f);
        assert!((g[x.index()] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn stats_grow_with_expression() {
        let t = Tape::new();
        let x = t.var(1.0);
        let before = t.stats().nodes;
        let _ = x.exp() + x.ln_1p();
        assert!(t.stats().nodes > before);
    }

    #[test]
    #[should_panic(expected = "different tape")]
    fn cross_tape_grad_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t1.var(1.0);
        let _ = t2.grad(x);
    }

    #[test]
    fn reset_clears_nodes_and_transcendental_count() {
        let t = Tape::new();
        let x = t.var(1.0);
        let _ = x.exp() + x * x;
        assert!(t.stats().nodes > 0);
        assert!(t.stats().transcendental > 0);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.stats(), TapeStats::default());
        // The tape is fully usable again after a reset.
        let y = t.var(3.0);
        let g = t.grad(y * y);
        assert!((g[y.index()] - 6.0).abs() < 1e-12);
    }

    /// `f = a·b + exp(a)` on a tape of its own: the reference every
    /// segment sweep below must reproduce to the bit.
    fn private_tape(a: f64, b: f64) -> (f64, [f64; 2], TapeStats) {
        let t = Tape::new();
        let (x, y) = (t.var(a), t.var(b));
        let f = x * y + x.exp();
        let g = t.grad(f);
        (f.value(), [g[x.index()], g[y.index()]], t.stats())
    }

    #[test]
    fn segment_after_truncate_reuses_indices_and_matches_a_private_tape() {
        let t = Tape::new();
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        // A first term leaves nothing behind it ...
        let first = leaves.grad_term(&mut g, |v| v[0] * v[0] * v[1] + v[1].ln_1p());
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats(), TapeStats::of(2, 0));
        assert_eq!(first.1, TapeStats::of(2 + 4, 1));
        // ... so the second is recorded at the same indices, by hand
        // here to see them.
        let f = leaves[0] * leaves[1] + leaves[0].exp();
        assert_eq!(f.index(), 4);
        t.sweep_segment(2, f, &mut g);
        t.truncate(2);
        let (value, grad, _) = private_tape(0.7, -1.3);
        assert_eq!(f.value().to_bits(), value.to_bits());
        assert_eq!(g.map(f64::to_bits), grad.map(f64::to_bits));
        assert_eq!(t.var(0.0).index(), 2);
    }

    #[test]
    fn grad_term_counts_the_leaves_once_per_term() {
        let t = Tape::new();
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * v[1] + v[0].exp());
        let (ref_value, ref_grad, ref_stats) = private_tape(0.7, -1.3);
        assert_eq!(value.to_bits(), ref_value.to_bits());
        assert_eq!(g.map(f64::to_bits), ref_grad.map(f64::to_bits));
        assert_eq!(stats, ref_stats);
    }

    #[test]
    fn an_output_that_is_a_leaf_has_a_unit_gradient() {
        let t = Tape::new();
        let leaves = t.leaves(&[4.0, 5.0, 6.0]);
        let mut g = [f64::NAN; 3];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[1]);
        assert_eq!(value, 5.0);
        assert_eq!(g, [0.0, 1.0, 0.0]);
        assert_eq!(stats.nodes, 3);
    }

    #[test]
    fn an_empty_shards_zero_term_has_a_zero_gradient() {
        // What a likelihood over an empty range records: `θ₀·0`.
        let t = Tape::new();
        let leaves = t.leaves(&[2.5, -1.0]);
        let mut g = [f64::NAN; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * 0.0);
        assert_eq!(value, 0.0);
        assert_eq!(g, [0.0, 0.0]);
        assert_eq!(stats, TapeStats::of(3, 0));
    }

    #[test]
    fn a_panic_while_recording_leaves_the_tape_usable() {
        let t = Tape::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let leaves = t.leaves(&[1.0, 2.0]);
            let mut g = [0.0; 2];
            leaves.grad_term(&mut g, |v| {
                let _ = v[0].exp() * v[1];
                panic!("density failed");
            })
        }));
        assert!(unwound.is_err());
        // No `RefCell` is left borrowed, the stale nodes and count are
        // cleared by the next `leaves`, and its buffer came back.
        assert!(t.leaf_buf.borrow().capacity() >= 2);
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * v[1] + v[0].exp());
        let (ref_value, ref_grad, ref_stats) = private_tape(0.7, -1.3);
        assert_eq!(value.to_bits(), ref_value.to_bits());
        assert_eq!(g.map(f64::to_bits), ref_grad.map(f64::to_bits));
        assert_eq!(stats, ref_stats);
    }

    #[test]
    #[should_panic(expected = "leaves overlap")]
    fn leaves_inside_the_segment_are_rejected() {
        let t = Tape::new();
        let leaves = t.leaves(&[1.0, 2.0]);
        t.sweep_segment(1, leaves[0] * leaves[1], &mut [0.0; 2]);
    }

    #[test]
    fn stats_merge_is_componentwise_sum() {
        let a = TapeStats {
            nodes: 3,
            bytes: 96,
            transcendental: 1,
        };
        let b = TapeStats {
            nodes: 5,
            bytes: 160,
            transcendental: 2,
        };
        let mut m = a;
        m += b;
        assert_eq!(m, a + b);
        assert_eq!(m.nodes, 8);
        assert_eq!(m.bytes, 256);
        assert_eq!(m.transcendental, 3);
    }
}
