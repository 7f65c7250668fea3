//! The two-lane forecast miss: the history branch of a miss runs on a
//! parked helper thread while the calling thread forecasts `Ŝ`.
//!
//! A forecast miss runs two encoders over the same pooled Watcher
//! window — the system-state stack for `Ŝ` and the perf model's history
//! stack for `h_s` — and neither reads the other's output; only the head
//! after them reads both. So the policy hands the shorter one, `h_s`, to
//! a helper thread and computes `Ŝ` itself. The helper runs the same
//! pure function on the same input on another core, so its answer is
//! the inline answer, bit for bit.
//!
//! **Protocol.** One job slot and one atomic state per policy. The
//! caller copies the 24 pooled rows into the slot, publishes `POSTED`
//! and unparks the helper, then forecasts `Ŝ`. After that it tries to
//! take the job back (`POSTED → IDLE`): if the helper has not claimed it
//! yet — it is still waking up, or the host is busy — the caller runs
//! the history branch inline. Otherwise the helper holds the job
//! (`RUNNING`) or has finished it (`DONE`), and the caller waits for
//! `DONE` — a few spins, then a yield between checks, never a futex —
//! which takes at most one history branch. A panic in the helper's job
//! is carried back in the slot and resumed on the caller; the helper
//! has returned by then, and later jobs run inline.
//!
//! **Ownership.** The helper reads the policy's perf models through an
//! `Arc` (shared, never cloned) and owns one [`PerfScratch`] per model.
//! A job never outlives the decision that posted it, so a model hot-swap
//! ([`HistoryLane::swap_model`]) replaces the helper's model and scratch
//! while no job is in flight.
//!
//! **When.** The helper is spawned on the first miss that needs both
//! `Ŝ` and `h_s`, and only on a host with at least two cores (read
//! once); it parks between jobs, so an idle policy costs no CPU. Without
//! it every job runs inline. Dropping the lane stops and joins it.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};

use adrias_core::alloc;
use adrias_predictor::dataset::SEQ_LEN;
use adrias_predictor::{PerfModel, PerfScratch};
use adrias_telemetry::MetricVec;

/// No job in the slot, or one the caller has collected or taken back.
const IDLE: u8 = 0;
/// A job is in the slot and unclaimed.
const POSTED: u8 = 1;
/// The helper claimed the job and is running it.
const RUNNING: u8 = 2;
/// The helper finished the job; its `h_s` is in the slot.
const DONE: u8 = 3;
/// The helper's job panicked; the payload is in the slot.
const PANICKED: u8 = 4;
/// The lane is being dropped: the helper returns.
const STOP: u8 = 5;

/// Busy-wait rounds before a waiting thread starts yielding its core
/// between checks: a few microseconds at ≈ 20–70 ns per `spin_loop`.
/// Past that the thread waited for may need this core to finish.
const SPINS: u32 = 64;

/// Whether this host has a second core to run the helper on, read once
/// per process.
fn two_cores() -> bool {
    static TWO: OnceLock<bool> = OnceLock::new();
    *TWO.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// Polls `ready` — a few spins, then a yield between checks — until it
/// holds.
fn wait_for(mut ready: impl FnMut() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// Which side takes a posted job, for the protocol tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Force {
    /// Whoever wins the claim, as outside tests.
    Race,
    /// The caller waits for the helper to claim every job.
    Helper,
    /// The helper never starts a job; the caller takes each one back.
    Caller,
}

/// The per-policy history lane: the helper thread, spawned on demand,
/// and the caller's side of the protocol.
pub(crate) struct HistoryLane {
    /// The helper, once a miss has needed it; never on a one-core host.
    helper: Option<Helper>,
    /// Whether a helper may be spawned: two cores, and no spawn failed
    /// and no job panicked.
    spawnable: bool,
    /// History branches computed on the helper (`[0]`) and on the
    /// calling thread (`[1]`).
    branches: [u64; 2],
    #[cfg(test)]
    pub(crate) force: Force,
    /// Makes the helper's next job panic.
    #[cfg(test)]
    pub(crate) panic_next: bool,
}

struct Helper {
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

/// What caller and helper share: the protocol state and the job slot.
/// The state says whose turn it is, so neither side ever waits on the
/// slot's lock: each takes it only on its own turn.
struct Shared {
    /// Who owns the job. The slot's data moves under its lock; the state
    /// only says whose turn it is (each `Release` store pairs with the
    /// other side's `Acquire` load or CAS).
    state: AtomicU8,
    slot: Mutex<Slot>,
    /// Keeps the helper from claiming jobs ([`Force::Caller`]).
    #[cfg(test)]
    hold: AtomicBool,
}

/// One job: its input, the models and scratches it may run on, and its
/// output.
struct Slot {
    /// Which perf model the job runs through (`false`: BE, `true`: LC).
    lc: bool,
    /// The pooled Watcher window ([`SEQ_LEN`] rows).
    pooled: Vec<MetricVec>,
    models: [Arc<PerfModel>; 2],
    scratch: [PerfScratch; 2],
    /// The job's `h_s`.
    h_s: Vec<f32>,
    /// What the job allocated on the helper, for the caller's counting
    /// window ([`alloc::absorb`]).
    allocs: (u64, u64),
    /// A panic the job raised, to resume on the caller.
    panic: Option<Box<dyn Any + Send>>,
    #[cfg(test)]
    panic_job: bool,
}

impl Slot {
    fn run(&mut self) {
        #[cfg(test)]
        if std::mem::take(&mut self.panic_job) {
            panic!("injected history-lane panic");
        }
        let i = usize::from(self.lc);
        alloc::start_counting();
        self.h_s.clear();
        self.h_s.extend_from_slice(
            self.models[i].history_features_into(&self.pooled, &mut self.scratch[i]),
        );
        self.allocs = alloc::stop_counting();
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot
            .lock()
            .expect("never poisoned: the helper catches its job's panic inside the guard")
    }

    /// Waits out a job a decision that unwound left in the slot —
    /// withdrawn if unclaimed, else finished — and returns the state
    /// after it: `IDLE`, `DONE` or `PANICKED`. A decision that returns
    /// leaves `IDLE`, and this is one load.
    fn settle(&self) -> u8 {
        let mut settled = IDLE;
        wait_for(|| {
            settled = self.state.load(Ordering::Acquire);
            match settled {
                POSTED => {
                    let withdrawn = self
                        .state
                        .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok();
                    if withdrawn {
                        settled = IDLE;
                    }
                    withdrawn
                }
                RUNNING => false,
                _ => true,
            }
        });
        settled
    }

    /// Whether the helper may claim a posted job: always, outside the
    /// protocol tests.
    fn claimable(&self) -> bool {
        #[cfg(test)]
        let held = self.hold.load(Ordering::Relaxed);
        #[cfg(not(test))]
        let held = false;
        !held
    }
}

/// The helper's loop: claim a posted job, run it, report, park.
fn serve(shared: &Shared) {
    loop {
        match shared.state.load(Ordering::Acquire) {
            STOP => return,
            POSTED
                if shared.claimable()
                    && shared
                        .state
                        .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok() =>
            {
                let mut slot = shared.lock();
                let next = match panic::catch_unwind(AssertUnwindSafe(|| slot.run())) {
                    Ok(()) => DONE,
                    Err(payload) => {
                        slot.panic = Some(payload);
                        PANICKED
                    }
                };
                drop(slot);
                shared.state.store(next, Ordering::Release);
                if next == PANICKED {
                    return;
                }
            }
            _ => thread::park(),
        }
    }
}

impl HistoryLane {
    pub(crate) fn new() -> Self {
        Self {
            helper: None,
            spawnable: two_cores(),
            branches: [0; 2],
            #[cfg(test)]
            force: Force::Race,
            #[cfg(test)]
            panic_next: false,
        }
    }

    /// History branches computed on the helper and on the calling
    /// thread, in that order.
    pub(crate) fn branches(&self) -> (u64, u64) {
        (self.branches[0], self.branches[1])
    }

    /// Appends `h_s` of `pooled` through `model` to the empty `h_s`,
    /// computed on the calling thread.
    pub(crate) fn inline(
        &mut self,
        model: &PerfModel,
        pooled: &[MetricVec],
        scratch: &mut PerfScratch,
        h_s: &mut Vec<f32>,
    ) {
        h_s.extend_from_slice(model.history_features_into(pooled, scratch));
        self.branches[1] += 1;
    }

    /// Returns `forecast()`, run on the calling thread, and appends
    /// `h_s` of `pooled` through `models[lc]` to the empty `h_s` —
    /// computed on the helper meanwhile when it claims the job in time,
    /// else inline on `scratch` after the forecast.
    pub(crate) fn overlap(
        &mut self,
        models: [&Arc<PerfModel>; 2],
        lc: bool,
        pooled: &[MetricVec],
        scratch: &mut PerfScratch,
        h_s: &mut Vec<f32>,
        forecast: impl FnOnce() -> MetricVec,
    ) -> MetricVec {
        let model = models[usize::from(lc)];
        self.spawn(models);
        let Some(Helper { shared, thread }) = &self.helper else {
            let s_hat = forecast();
            self.inline(model, pooled, scratch, h_s);
            return s_hat;
        };
        if shared.settle() == PANICKED {
            self.resume_panic();
        }
        {
            let mut slot = shared.lock();
            slot.lc = lc;
            slot.pooled.clear();
            slot.pooled.extend_from_slice(pooled);
            #[cfg(test)]
            {
                slot.panic_job = std::mem::take(&mut self.panic_next);
                let hold = self.force == Force::Caller;
                shared.hold.store(hold, Ordering::Relaxed);
            }
        }
        shared.state.store(POSTED, Ordering::Release);
        thread.thread().unpark();
        let s_hat = forecast();
        #[cfg(test)]
        if self.force == Force::Helper {
            wait_for(|| shared.state.load(Ordering::Acquire) != POSTED);
        }
        if shared
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.inline(model, pooled, scratch, h_s);
            return s_hat;
        }
        // The helper holds the job: at most one history branch away.
        let mut done = DONE;
        wait_for(|| {
            done = shared.state.load(Ordering::Acquire);
            done == DONE || done == PANICKED
        });
        if done == PANICKED {
            self.resume_panic();
        }
        let slot = shared.lock();
        h_s.extend_from_slice(&slot.h_s);
        alloc::absorb(slot.allocs);
        drop(slot);
        shared.state.store(IDLE, Ordering::Release);
        self.branches[0] += 1;
        s_hat
    }

    /// Resumes, on the calling thread, the panic the helper's job
    /// raised. The helper has returned; it is joined, and no other is
    /// spawned, so later jobs run inline.
    fn resume_panic(&mut self) -> ! {
        let Helper { shared, thread } = self.helper.take().expect("a helper to have panicked");
        self.spawnable = false;
        let _ = thread.join();
        let payload = shared.lock().panic.take();
        panic::resume_unwind(payload.expect("a panicked job leaves its payload"))
    }

    /// Visits every `f32` buffer of the helper's scratches (its models
    /// are the policy's).
    pub(crate) fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        if let Some(helper) = &self.helper {
            helper
                .shared
                .lock()
                .scratch
                .iter()
                .for_each(|s| s.visit_storage(f));
        }
    }

    /// Points the helper's model `lc` at `model` and rebuilds its
    /// scratch for it.
    pub(crate) fn swap_model(&mut self, lc: bool, model: &Arc<PerfModel>) {
        if let Some(helper) = &self.helper {
            let mut slot = helper.shared.lock();
            let i = usize::from(lc);
            slot.models[i] = Arc::clone(model);
            slot.scratch[i] = model.make_scratch();
            slot.h_s.clear();
            slot.h_s.reserve(model.config().hidden);
        }
    }

    /// Spawns the helper if it may be and is not yet.
    fn spawn(&mut self, models: [&Arc<PerfModel>; 2]) {
        if self.helper.is_none() && self.spawnable {
            let hidden = models.map(|m| m.config().hidden);
            let shared = Arc::new(Shared {
                state: AtomicU8::new(IDLE),
                // Sized here, on the calling thread: the helper never
                // allocates.
                slot: Mutex::new(Slot {
                    lc: false,
                    pooled: Vec::with_capacity(SEQ_LEN),
                    models: models.map(Arc::clone),
                    scratch: models.map(|m| m.make_scratch()),
                    h_s: Vec::with_capacity(hidden[0].max(hidden[1])),
                    allocs: (0, 0),
                    panic: None,
                    #[cfg(test)]
                    panic_job: false,
                }),
                #[cfg(test)]
                hold: AtomicBool::new(false),
            });
            let served = Arc::clone(&shared);
            match thread::Builder::new()
                .name("adrias-history".into())
                .spawn(move || serve(&served))
            {
                Ok(thread) => self.helper = Some(Helper { shared, thread }),
                Err(_) => self.spawnable = false,
            }
        }
    }
}

impl Drop for HistoryLane {
    fn drop(&mut self) {
        let Some(Helper { shared, thread }) = self.helper.take() else {
            return;
        };
        let settled = shared.settle();
        shared.state.store(STOP, Ordering::Release);
        thread.thread().unpark();
        let _ = thread.join();
        // A job's panic no decision collected — the one that posted it
        // unwound first — surfaces here, unless this drop is part of
        // that unwinding.
        if settled == PANICKED && !thread::panicking() {
            let payload = shared.lock().panic.take();
            panic::resume_unwind(payload.expect("a panicked job leaves its payload"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adrias::AdriasPolicy;
    use crate::policy::{DecisionContext, Policy};
    use crate::test_support::{metric_row, policy_with_beta, trained_parts};
    use adrias_predictor::dataset::{pool_rows, HISTORY_S};
    use adrias_telemetry::WindowStamp;
    use adrias_workloads::{keyvalue, spark, MemoryMode};

    /// A Watcher window that differs from version to version.
    fn window(version: u64) -> Vec<MetricVec> {
        (0..HISTORY_S as u64)
            .map(|t| metric_row(((t * 7 + version * 13) % 40) as f32 * 0.01 - 0.2))
            .collect()
    }

    /// Under a fresh stamp: a BE decision (a miss needing `Ŝ` and the BE
    /// `h_s`, posted to the lane), then an LC one (`Ŝ` served, the LC
    /// `h_s` inline) — each held to the uncached oracle bit for bit.
    fn decide_pair(policy: &mut AdriasPolicy, version: u64) {
        let history = window(version);
        for profile in [spark::by_name("gmm").unwrap(), keyvalue::redis()] {
            let ctx = DecisionContext {
                profile: &profile,
                history: Some(&history),
                qos_p99_ms: None,
                stamp: Some(WindowStamp { source: 9, version }),
            };
            let got = policy.decide_explained(&ctx);
            for (mode, pred) in [
                (MemoryMode::Local, got.pred_local),
                (MemoryMode::Remote, got.pred_remote),
            ] {
                let want = policy.predict_perf(&ctx, mode);
                assert!(pred.is_some());
                assert_eq!(
                    pred.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "{} {mode} at version {version}",
                    profile.name()
                );
            }
        }
    }

    fn forced(force: Force) -> AdriasPolicy {
        let mut policy = policy_with_beta(0.8);
        policy.history_lane_mut().force = force;
        policy
    }

    #[test]
    fn every_job_taken_by_the_helper_is_the_oracles() {
        let mut policy = forced(Force::Helper);
        for version in 1..=12 {
            decide_pair(&mut policy, version);
        }
        let want = if two_cores() { (12, 12) } else { (0, 24) };
        assert_eq!(policy.history_branches(), want);
    }

    #[test]
    fn every_job_taken_back_by_the_caller_is_the_oracles() {
        let mut policy = forced(Force::Caller);
        for version in 1..=12 {
            decide_pair(&mut policy, version);
        }
        assert_eq!(policy.history_lane_mut().helper.is_some(), two_cores());
        assert_eq!(policy.history_branches(), (0, 24));
    }

    /// A swap between two misses replaces the helper's model — shared
    /// with the policy, not a copy — and its scratch: the next job the
    /// helper runs is the new model's.
    #[test]
    fn hot_swaps_between_misses_reach_the_helper() {
        let (_, be, lc, _) = trained_parts();
        let mut policy = forced(Force::Helper);
        decide_pair(&mut policy, 1);
        policy.swap_be_model(lc.clone());
        decide_pair(&mut policy, 2);
        policy.swap_lc_model(be.clone());
        decide_pair(&mut policy, 3);
        policy.swap_be_model(be.clone());
        policy.swap_lc_model(lc.clone());
        decide_pair(&mut policy, 4);
        let deployed: [*const PerfModel; 2] = [policy.be_model(), policy.lc_model()];
        if let Some(helper) = &policy.history_lane_mut().helper {
            let slot = helper.shared.lock();
            assert_eq!(slot.models.each_ref().map(Arc::as_ptr), deployed);
        }
        let on_helper = if two_cores() { 4 } else { 0 };
        assert_eq!(policy.history_branches(), (on_helper, 8 - on_helper));
    }

    /// A panic inside the helper's job surfaces on the deciding thread
    /// with its own payload; the policy goes on deciding inline, with
    /// its helper joined.
    #[test]
    fn a_panic_in_the_helpers_job_reaches_the_caller() {
        let mut policy = forced(Force::Helper);
        decide_pair(&mut policy, 1);
        policy.history_lane_mut().panic_next = true;
        let decided = panic::catch_unwind(AssertUnwindSafe(|| decide_pair(&mut policy, 2)));
        if two_cores() {
            let payload = decided.expect_err("the helper's panic reached the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected history-lane panic")
            );
        } else {
            decided.expect("no helper on one core");
        }
        assert!(policy.history_lane_mut().helper.is_none());
        let before = policy.history_branches();
        policy.history_lane_mut().force = Force::Race;
        decide_pair(&mut policy, 3);
        assert_eq!(policy.history_branches(), (before.0, before.1 + 2));
    }

    /// A lane of its own over the trained BE/LC models, a pooled window
    /// and the BE `h_s` of it computed inline.
    fn bare_lane() -> (HistoryLane, [Arc<PerfModel>; 2], Vec<MetricVec>, Vec<f32>) {
        let (_, be, lc, _) = trained_parts();
        let models = [be, lc].map(|m| Arc::new(m.clone()));
        let pooled = pool_rows(&window(1), SEQ_LEN);
        let want = models[0]
            .history_features_into(&pooled, &mut models[0].make_scratch())
            .to_vec();
        (HistoryLane::new(), models, pooled, want)
    }

    /// Runs one miss through `lane` whose forecast runs `during` and
    /// returns the BE `h_s`.
    fn miss(
        lane: &mut HistoryLane,
        models: &[Arc<PerfModel>; 2],
        pooled: &[MetricVec],
        during: impl FnOnce(),
    ) -> Vec<f32> {
        let mut h_s = Vec::new();
        let mut scratch = models[0].make_scratch();
        lane.overlap(
            models.each_ref(),
            false,
            pooled,
            &mut scratch,
            &mut h_s,
            || {
                during();
                MetricVec::zero()
            },
        );
        h_s
    }

    /// Waits until the helper has claimed the posted job.
    fn claimed(shared: &Shared) {
        wait_for(|| shared.state.load(Ordering::Acquire) != POSTED);
    }

    /// A decision that unwinds in its forecast leaves its job behind;
    /// the next miss waits it out (or withdraws it) before posting its
    /// own, so the answer read back is the new job's.
    #[test]
    fn a_job_left_by_an_unwound_decision_is_settled_before_the_next() {
        let (mut lane, models, pooled, want) = bare_lane();
        assert_eq!(miss(&mut lane, &models, &pooled, || ()), want);
        let Some(shared) = lane.helper.as_ref().map(|h| Arc::clone(&h.shared)) else {
            return; // one core: no helper, nothing left behind
        };
        let other = pool_rows(&window(2), SEQ_LEN);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            miss(&mut lane, &models, &other, || {
                claimed(&shared);
                panic!("forecast");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(miss(&mut lane, &models, &pooled, || ()), want);
        assert_eq!(shared.state.load(Ordering::Acquire), IDLE);
    }

    /// A helper panic no decision collected — the decision that posted
    /// the job unwound first — surfaces when the lane is dropped.
    #[test]
    fn a_panic_no_decision_collected_surfaces_on_drop() {
        let (mut lane, models, pooled, _) = bare_lane();
        miss(&mut lane, &models, &pooled, || ());
        let Some(shared) = lane.helper.as_ref().map(|h| Arc::clone(&h.shared)) else {
            return;
        };
        lane.panic_next = true;
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            miss(&mut lane, &models, &pooled, || {
                claimed(&shared);
                panic!("forecast");
            })
        }));
        let forecast = unwound.expect_err("the forecast unwound");
        assert_eq!(forecast.downcast_ref::<&str>(), Some(&"forecast"));
        let dropped = panic::catch_unwind(AssertUnwindSafe(|| drop(lane)));
        let payload = dropped.expect_err("the helper's panic surfaced on drop");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected history-lane panic")
        );
    }
}
