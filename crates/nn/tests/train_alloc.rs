//! The LSTM training path allocates O(1) in steady state.
//!
//! Installs the counting allocator from `adrias_core::alloc` (the
//! pattern of `crates/orchestrator/tests/alloc_free.rs`) and asserts
//! that, after one warm-up forward/backward has sized the layer's
//! workspace, a second pass on the same shapes allocates nothing but
//! the buffers it hands back to the caller — no per-step temporaries,
//! whatever the sequence length and batch size — and that `fit` keeps
//! its worker models across minibatches instead of cloning the model
//! (and growing a fresh workspace) per gradient chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use adrias_core::alloc::{start_counting, stop_counting, CountingAllocator};
use adrias_core::rng::{SeedableRng, Xoshiro256pp};
use adrias_nn::{
    fit, init, FitPlan, GradModel, Layer, Linear, Lstm, MseLoss, NonLinearBlock, Tensor,
};

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

/// Two stacked LSTMs, a non-linear block and a read-out.
#[derive(Clone)]
struct Stack {
    l1: Lstm,
    l2: Lstm,
    block: NonLinearBlock,
    out: Linear,
}

impl GradModel for Stack {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
        self.block.visit_params(f);
        self.out.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.block.visit_buffers(f);
    }
}

impl Stack {
    /// Forward, MSE and backward over one chunk; returns the loss.
    fn pass(&mut self, seed: u64, seq: &[Tensor], target: &Tensor) -> f32 {
        self.block.reseed_dropout(seed, 1);
        let h = self.l2.forward_last(&self.l1.forward_seq(seq));
        let pred = self.out.forward(&self.block.forward(&h, true), true);
        let mut mse = MseLoss::new();
        let loss = mse.forward(&pred, target);
        let g = self.out.backward(&mse.backward());
        let g = self.block.backward(&g);
        let d_seq = self.l2.backward_last(&g);
        self.l1.backward_seq_params(&d_seq);
        loss
    }

    /// Bytes of both layers' training workspaces.
    fn workspace_bytes(&self) -> u64 {
        let mut floats = 0;
        for lstm in [&self.l1, &self.l2] {
            lstm.visit_storage(&mut |name, buf| {
                if name.starts_with("lstm.ws.") {
                    floats += buf.len() as u64;
                }
            });
        }
        4 * floats
    }
}

#[test]
fn fit_allocates_the_same_per_minibatch_and_no_workspace() {
    const STEPS: usize = 24;
    const CHUNK: usize = 16;
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let mut model = Stack {
        l1: Lstm::new(7, 32, &mut rng),
        l2: Lstm::new(32, 32, &mut rng),
        block: NonLinearBlock::new(32, 16, 0.1, &mut rng),
        out: Linear::new(16, 1, &mut rng),
    };
    // One chunk's inputs, shared by every chunk: the pass's own
    // allocations are then the same in every minibatch.
    let seq: Vec<Tensor> = (0..STEPS)
        .map(|_| init::uniform(CHUNK, 7, 1.0, &mut rng))
        .collect();
    let target = init::uniform(CHUNK, 1, 1.0, &mut rng);
    let workspace = {
        let mut warm = model.clone();
        warm.pass(1, &seq, &target);
        warm.workspace_bytes()
    };

    // Two chunks per minibatch, eight minibatches over two epochs, all
    // on the calling thread (32 < SERIAL_BATCH_FLOOR). Each window runs
    // from one minibatch's first chunk to the next one's: the rest of
    // the minibatch, its reduction and Adam step, and the next
    // minibatch's reload.
    let calls = AtomicUsize::new(0);
    let windows = Mutex::new(Vec::new());
    let plan = FitPlan {
        epochs: 2,
        batch_size: 2 * CHUNK,
        grad_chunk: CHUNK,
        workers: 1,
        learning_rate: 1e-3,
        seed: 9,
        shuffle_salt: 0,
    };
    fit(&mut model, 4 * 2 * CHUNK, &plan, &|m, seed, idxs| {
        assert_eq!(idxs.len(), CHUNK);
        if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
            let window = stop_counting();
            windows.lock().unwrap().push(window);
            start_counting();
        }
        m.pass(seed, &seq, &target)
    });
    stop_counting();
    let windows = windows.into_inner().unwrap();
    // windows[0] is before training; windows[1] holds the first
    // minibatch, which sizes the worker's workspace and the slots.
    assert_eq!(windows.len(), 8);
    let (first, steady) = (windows[1], &windows[2..]);
    // Measured: the 7→32→32 stack's workspace at 16 × 24 is 867 328 B.
    // The first minibatch makes 217 allocations (1 278 632 B); every
    // later one 142 (230 664 B), the pass's own returned tensors and
    // the head's temporaries. The clone-per-chunk loop this replaced
    // made 301 (2 322 696 B) in every minibatch: two workspaces and two
    // model clones.
    assert!(
        first.1 > workspace,
        "the first minibatch grows the workspace"
    );
    for (k, &window) in steady.iter().enumerate() {
        assert_eq!(
            window,
            steady[0],
            "minibatch {} allocated differently",
            k + 2
        );
        assert!(
            window.1 < workspace,
            "minibatch {}: {} B, a workspace is {workspace} B",
            k + 2,
            window.1
        );
    }
}
