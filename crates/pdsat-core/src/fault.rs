//! Deterministic fault injection for the fault-tolerance layers.
//!
//! The paper's execution substrate — a volunteer grid — fails constantly:
//! worker processes crash mid-sub-problem, the server dies with a
//! half-written checkpoint on disk, and the network drops, delays and
//! duplicates messages. The reproduction's resilience code (pool worker
//! quarantine/respawn, the durable
//! [`CheckpointStore`](../../pdsat_distrib/struct.CheckpointStore.html),
//! transport retry) is only trustworthy if those failures can be *provoked on
//! demand*, reproducibly. A [`FaultPlan`] is exactly that: a seeded,
//! value-typed schedule of injection points ("panic on the nth cube solve",
//! "tear the kth checkpoint write at byte b", "drop/delay/duplicate message
//! m") that the chaos test suites feed into all three layers and then assert
//! exactly-once completion and bit-for-bit equality against a fault-free
//! reference run.
//!
//! Injection points are counted by *ordinal* — the nth solve call across the
//! whole pool, the nth store write, the nth transport message — through the
//! shared atomic counters of a [`FaultState`]. Within one thread the ordinal
//! sequence is deterministic; across pool threads the interleaving is
//! scheduling-dependent, which is fine for chaos testing (the asserted
//! outcomes are scheduling-independent) and irrelevant for the
//! single-threaded transport and store layers.

use crate::oracle::{BackendOutcome, CubeBackend};
use pdsat_cnf::Lit;
use pdsat_solver::{Budget, InterruptFlag, SolverStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded schedule of failures to inject across the pool, the checkpoint
/// store and the transport. The empty plan (`FaultPlan::default()`) injects
/// nothing and is free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Pool: 0-based ordinals of backend `solve` calls (counted across all
    /// workers) that panic instead of solving.
    pub solve_panics: Vec<u64>,
    /// Pool: how many backend respawn attempts (after a quarantined panic)
    /// fail, counted pool-wide from the first respawn. `u64::MAX` makes every
    /// respawn fail, which is how the all-workers-dead path is exercised.
    pub respawn_failures: u64,
    /// Checkpoint store: `(save ordinal, byte length)` pairs — that save's
    /// file is truncated to the given length before it reaches disk,
    /// modelling a torn write / power loss mid-flush.
    pub torn_writes: Vec<(u64, usize)>,
    /// Transport: 0-based ordinals of `try_send` calls that fail transiently
    /// (the retry decorator's food).
    pub send_failures: Vec<u64>,
    /// Transport: ordinals of received client messages that are dropped.
    pub drop_messages: Vec<u64>,
    /// Transport: ordinals of received client messages delivered twice.
    pub duplicate_messages: Vec<u64>,
    /// Transport: `(ordinal, seconds)` pairs — that client message is
    /// delivered late by the given simulated delay.
    pub delay_messages: Vec<(u64, f64)>,
}

/// What a fault-injecting transport does with one received message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecvAction {
    /// Pass the message through unchanged.
    Deliver,
    /// Swallow the message (the sender never learns).
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver the message late by this many simulated seconds.
    Delay(f64),
}

/// Splitmix64: the workspace-standard seed scrambler (also used by the
/// estimator's RNG seeding); good enough to decorrelate the per-category
/// draws of a seeded plan.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: no faults anywhere.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }

    /// A pseudo-random plan derived entirely from `seed`: up to `intensity`
    /// injection points per fault category, with ordinals drawn from
    /// `0..horizon`. The same `(seed, intensity, horizon)` always produces
    /// the same plan, so a failing chaos case is replayable from its seed
    /// alone.
    #[must_use]
    pub fn seeded(seed: u64, intensity: u32, horizon: u64) -> FaultPlan {
        let mut state = seed ^ 0xFA07_17ED_5EED_0001;
        let horizon = horizon.max(1);
        let draw_ordinals = |salt: u64| -> Vec<u64> {
            let mut local = state ^ salt;
            let count = splitmix64(&mut local) % (u64::from(intensity) + 1);
            let mut out: Vec<u64> = (0..count)
                .map(|_| splitmix64(&mut local) % horizon)
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let solve_panics = draw_ordinals(0x01);
        let torn_saves = draw_ordinals(0x02);
        let send_failures = draw_ordinals(0x03);
        let drop_messages = draw_ordinals(0x04);
        let duplicate_messages = draw_ordinals(0x05);
        let delay_ordinals = draw_ordinals(0x06);
        let torn_writes = torn_saves
            .into_iter()
            .map(|o| (o, (splitmix64(&mut state) % 4096) as usize))
            .collect();
        let delay_messages = delay_ordinals
            .into_iter()
            .map(|o| (o, 1.0 + (splitmix64(&mut state) % 10_000) as f64))
            .collect();
        FaultPlan {
            solve_panics,
            // Seeded plans keep respawns working: a plan that kills every
            // worker tests the (panicking) last-resort path, which chaos
            // suites provoke explicitly instead of at random.
            respawn_failures: 0,
            torn_writes,
            send_failures,
            drop_messages,
            duplicate_messages,
            delay_messages,
        }
    }

    /// Arms the plan: wraps it in the shared mutable state (atomic ordinal
    /// counters) the three layers consume it through.
    #[must_use]
    pub fn arm(self) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan: self,
            solves: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
        })
    }
}

/// An armed [`FaultPlan`]: the plan plus the shared ordinal counters that
/// decide, per event, whether a fault fires. One `FaultState` is shared by
/// every layer of one run, so the ordinals count global events.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    solves: AtomicU64,
    respawns: AtomicU64,
    saves: AtomicU64,
    sends: AtomicU64,
    recvs: AtomicU64,
}

impl FaultState {
    /// The plan this state was armed from.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts one backend solve; `true` when this ordinal is scheduled to
    /// panic.
    pub fn solve_should_panic(&self) -> bool {
        let n = self.solves.fetch_add(1, Ordering::Relaxed);
        self.plan.solve_panics.contains(&n)
    }

    /// Counts one backend respawn attempt; `true` when it is scheduled to
    /// fail.
    pub fn respawn_should_fail(&self) -> bool {
        let n = self.respawns.fetch_add(1, Ordering::Relaxed);
        n < self.plan.respawn_failures
    }

    /// Counts one checkpoint save; returns the byte length to tear the write
    /// at when this save is scheduled to be torn.
    pub fn torn_write(&self) -> Option<usize> {
        let n = self.saves.fetch_add(1, Ordering::Relaxed);
        self.plan
            .torn_writes
            .iter()
            .find(|(ordinal, _)| *ordinal == n)
            .map(|&(_, len)| len)
    }

    /// Counts one transport send attempt; `true` when it is scheduled to
    /// fail transiently.
    pub fn send_should_fail(&self) -> bool {
        let n = self.sends.fetch_add(1, Ordering::Relaxed);
        self.plan.send_failures.contains(&n)
    }

    /// Counts one received transport message and returns what to do with it.
    pub fn recv_action(&self) -> RecvAction {
        let n = self.recvs.fetch_add(1, Ordering::Relaxed);
        if self.plan.drop_messages.contains(&n) {
            return RecvAction::Drop;
        }
        if self.plan.duplicate_messages.contains(&n) {
            return RecvAction::Duplicate;
        }
        if let Some(&(_, delay)) = self
            .plan
            .delay_messages
            .iter()
            .find(|(ordinal, _)| *ordinal == n)
        {
            return RecvAction::Delay(delay);
        }
        RecvAction::Deliver
    }
}

/// The panic payload of an injected pool fault, distinguishable from real
/// backend panics (tests use [`silence_injected_panics`] to keep the default
/// panic hook from spamming stderr with expected unwinds).
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    /// Which injection point fired ("solve" or "respawn").
    pub site: &'static str,
}

/// Installs a process-wide panic hook that stays silent for
/// [`InjectedFault`] payloads and forwards everything else to the previously
/// installed hook. Idempotent enough for tests (each extra call adds one
/// cheap forwarding layer); intended for chaos test binaries only — library
/// code never touches the hook.
pub fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedFault>().is_none() {
            previous(info);
        }
    }));
}

/// A backend decorator that consults the armed plan before every
/// solve and panics at the scheduled ordinals — the pool-layer injection
/// point. Built by the oracle whenever
/// [`BatchConfig::fault_plan`](crate::BatchConfig::fault_plan) is non-empty
/// (respawned backends are re-wrapped, so a respawned worker stays
/// injectable).
pub(crate) struct FaultyBackend {
    inner: Box<dyn CubeBackend>,
    faults: Arc<FaultState>,
}

impl FaultyBackend {
    /// Wraps `inner` so it panics at the plan's scheduled solve ordinals.
    pub(crate) fn new(inner: Box<dyn CubeBackend>, faults: Arc<FaultState>) -> FaultyBackend {
        FaultyBackend { inner, faults }
    }
}

impl CubeBackend for FaultyBackend {
    fn solve(
        &mut self,
        cube: &[Lit],
        budget: &Budget,
        interrupt: &InterruptFlag,
        conflict_acc: &mut [u64],
    ) -> BackendOutcome {
        if self.faults.solve_should_panic() {
            std::panic::panic_any(InjectedFault { site: "solve" });
        }
        self.inner.solve(cube, budget, interrupt, conflict_acc)
    }

    fn begin_batch(&mut self) {
        self.inner.begin_batch();
    }

    fn end_batch(&mut self) -> SolverStats {
        self.inner.end_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 3, 100);
        let b = FaultPlan::seeded(42, 3, 100);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 3, 100);
        assert_ne!(a, c, "different seeds should give different plans");
        for plan in [&a, &c] {
            assert!(plan.solve_panics.len() <= 3);
            assert!(plan.solve_panics.iter().all(|&o| o < 100));
            assert!(plan.respawn_failures == 0);
        }
    }

    #[test]
    fn armed_state_counts_ordinals() {
        let state = FaultPlan {
            solve_panics: vec![1],
            respawn_failures: 1,
            ..FaultPlan::default()
        }
        .arm();
        assert!(!state.solve_should_panic()); // ordinal 0
        assert!(state.solve_should_panic()); // ordinal 1
        assert!(!state.solve_should_panic()); // ordinal 2
        assert!(state.respawn_should_fail()); // first respawn fails
        assert!(!state.respawn_should_fail()); // second succeeds
    }

    #[test]
    fn recv_actions_follow_the_plan() {
        let state = FaultPlan {
            drop_messages: vec![0],
            duplicate_messages: vec![1],
            delay_messages: vec![(2, 7.5)],
            ..FaultPlan::default()
        }
        .arm();
        assert_eq!(state.recv_action(), RecvAction::Drop);
        assert_eq!(state.recv_action(), RecvAction::Duplicate);
        assert_eq!(state.recv_action(), RecvAction::Delay(7.5));
        assert_eq!(state.recv_action(), RecvAction::Deliver);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        let state = FaultPlan::none().arm();
        assert!(!state.solve_should_panic());
        assert!(state.torn_write().is_none());
        assert!(!state.send_should_fail());
        assert_eq!(state.recv_action(), RecvAction::Deliver);
    }
}
