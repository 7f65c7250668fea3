//! The LSTM training path allocates O(1) in steady state.
//!
//! Installs the counting allocator from `adrias_core::alloc` (the
//! pattern of `crates/orchestrator/tests/alloc_free.rs`) and asserts
//! that, after one warm-up forward/backward has sized the layer's
//! workspace, a second pass on the same shapes allocates nothing but
//! the buffers it hands back to the caller — no per-step temporaries,
//! whatever the sequence length and batch size.

use adrias_core::alloc::{start_counting, stop_counting, CountingAllocator};
use adrias_core::rng::{SeedableRng, Xoshiro256pp};
use adrias_nn::{init, Lstm, Tensor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_forward_backward_allocates_only_what_it_returns() {
    for (steps, batch) in [(6usize, 4usize), (24, 32)] {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut lstm = Lstm::new(7, 16, &mut rng);
        let seq: Vec<Tensor> = (0..steps)
            .map(|_| init::uniform(batch, 7, 1.0, &mut rng))
            .collect();
        let grads: Vec<Tensor> = (0..steps)
            .map(|_| init::uniform(batch, 16, 1.0, &mut rng))
            .collect();
        // Warm-up: sizes every arena and step buffer.
        lstm.forward_seq(&seq);
        lstm.backward_seq(&grads);

        // The trainer's bottom-layer shape: last-state readout forward,
        // params-only backward. One allocation — the returned hidden
        // state — independent of T and B.
        start_counting();
        let last = lstm.forward_last(&seq);
        lstm.zero_grad();
        lstm.backward_seq_params(&grads);
        let (allocs, _) = stop_counting();
        assert_eq!(last.shape(), (batch, 16));
        assert_eq!(allocs, 1, "T={steps} B={batch}: only the returned state");

        // The stacked shape: every allocation is a tensor (or the `Vec`
        // holding them) of the two returned sequences.
        start_counting();
        let hidden = lstm.forward_seq(&seq);
        let d_inputs = lstm.backward_seq(&grads);
        let (allocs, _) = stop_counting();
        assert_eq!((hidden.len(), d_inputs.len()), (steps, steps));
        assert_eq!(
            allocs,
            2 * (steps as u64 + 1),
            "T={steps} B={batch}: only the two returned Vec<Tensor>"
        );

        // A shorter pass fits the same workspace.
        start_counting();
        let last = lstm.forward_last(&seq[..steps / 2]);
        lstm.backward_last(&last);
        let (allocs, _) = stop_counting();
        assert_eq!(
            allocs,
            2 + steps as u64 / 2,
            "T={steps} B={batch}: prefix pass"
        );
    }
}
