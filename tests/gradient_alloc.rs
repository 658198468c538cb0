//! A steady-state gradient allocates nothing.
//!
//! Its own test binary, because the counter (`counting_alloc`) is the
//! process's global allocator. Only allocations of the thread under
//! test are counted: the harness's own threads allocate whenever they
//! like.

mod counting_alloc;

use bayes_suite::registry::{self, REFERENCE_SEED, SMOKE_SCALE};
use counting_alloc::allocations;

/// The cells of the benchmark's `nuts_tape` workload.
const TAPE_CELLS: [&str; 6] = [
    "disease",
    "12cities",
    "butterfly",
    "ad",
    "racial",
    "tickets",
];

#[test]
fn the_counter_counts() {
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(allocations() > before);
}

#[test]
fn steady_state_gradients_allocate_nothing() {
    let mut allocating = Vec::new();
    for name in TAPE_CELLS {
        let workload = registry::workload(name, SMOKE_SCALE, REFERENCE_SEED).expect("registry");
        let model = workload.dynamics_model();
        model.set_inner_threads(1);
        let dim = model.dim();
        let mut theta = vec![0.1; dim];
        let mut grad = vec![0.0; dim];
        // Two calls grow this thread's tape, adjoint buffer and shard
        // scratch to their steady size.
        for _ in 0..2 {
            model.ln_posterior_grad(&theta, &mut grad);
        }
        let before = allocations();
        let mut sum = 0.0;
        for step in 0..100 {
            theta[step % dim] += 1e-3;
            sum += model.ln_posterior_grad(&theta, &mut grad);
        }
        let allocated = allocations() - before;
        assert!(sum.is_finite(), "{name}: density left its support");
        if allocated != 0 {
            allocating.push((name, allocated));
        }
    }
    assert_eq!(allocating, [], "(cell, allocations in 100 gradients)");
}
