//! Deterministic fault injection for the worker pool.
//!
//! A pool worker's backend can panic mid-sub-problem, and the pool's
//! answer — quarantine, respawn, requeue once, sequential fallback — is only
//! trustworthy if those panics can be *provoked on demand*, reproducibly.
//! Nothing else reaches that code: an honest backend does not panic. A
//! [`FaultPlan`] is a seeded, value-typed schedule of injection points
//! ("panic on the nth cube solve", "fail the first k respawns") that the
//! pool's chaos suites feed in through
//! [`BatchConfig::fault_plan`](crate::BatchConfig::fault_plan), asserting
//! outcome-for-outcome equality with a fault-free reference run.
//!
//! The other layers need no injected plan. The grid's faults come from its
//! simulated client population (`pdsat_distrib::ClientBehavior`), and the
//! checkpoint store's faults are bytes on disk, which its tests damage
//! directly.
//!
//! Injection points are counted by *ordinal* — the nth solve call across the
//! whole pool, the nth respawn — through the shared atomic counters of a
//! [`FaultState`]. Across pool threads the interleaving is
//! scheduling-dependent, which is fine for chaos testing: the asserted
//! outcomes are scheduling-independent.

use crate::oracle::{BackendOutcome, CubeBackend};
use pdsat_cnf::Lit;
use pdsat_solver::{Budget, InterruptFlag, SolverStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded schedule of failures to inject into the worker pool. The empty
/// plan (`FaultPlan::default()`) injects nothing and is free.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// 0-based ordinals of backend `solve` calls (counted across all
    /// workers) that panic instead of solving.
    pub solve_panics: Vec<u64>,
    /// How many backend respawn attempts (after a quarantined panic) fail,
    /// counted pool-wide from the first respawn. `u64::MAX` makes every
    /// respawn fail, which is how the all-workers-dead path is exercised.
    pub respawn_failures: u64,
}

/// Splitmix64: the workspace-standard seed scrambler (also used by the
/// estimator's RNG seeding); good enough to scatter the ordinals of a
/// seeded plan.
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
    /// solve panics, with ordinals drawn from `0..horizon`. The same
    /// `(seed, intensity, horizon)` always produces the same plan, so a
    /// failing chaos case is replayable from its seed alone.
    #[must_use]
    pub fn seeded(seed: u64, intensity: u32, horizon: u64) -> FaultPlan {
        // `^ 0x01` salts the panics' draw, so every seed keeps naming the
        // plan `seeded_pool_plans_are_pinned` pins.
        let mut state = seed ^ 0xFA07_17ED_5EED_0001 ^ 0x01;
        let count = splitmix64(&mut state) % (u64::from(intensity) + 1);
        let mut solve_panics: Vec<u64> = (0..count)
            .map(|_| splitmix64(&mut state) % horizon.max(1))
            .collect();
        solve_panics.sort_unstable();
        solve_panics.dedup();
        FaultPlan {
            solve_panics,
            // Seeded plans keep respawns working: a plan that kills every
            // worker tests the (panicking) last-resort path, which chaos
            // suites provoke explicitly instead of at random.
            respawn_failures: 0,
        }
    }

    /// Arms the plan: wraps it in the shared mutable state (atomic ordinal
    /// counters) every pool worker consumes it through.
    #[must_use]
    pub fn arm(self) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan: self,
            solves: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        })
    }
}

/// An armed [`FaultPlan`]: the plan plus the shared ordinal counters that
/// decide, per event, whether a fault fires. One `FaultState` is shared by
/// every worker of one pool, so the ordinals count pool-wide events.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    solves: AtomicU64,
    respawns: AtomicU64,
}

impl FaultState {
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
}

/// The panic payload of an injected solve panic, distinguishable from real
/// backend panics (tests use [`silence_injected_panics`] to keep the default
/// panic hook from spamming stderr with expected unwinds). An injected
/// respawn failure does not panic: the respawn just reports no backend.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault;

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
            std::panic::panic_any(InjectedFault);
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
        }
        .arm();
        assert!(!state.solve_should_panic()); // ordinal 0
        assert!(state.solve_should_panic()); // ordinal 1
        assert!(!state.solve_should_panic()); // ordinal 2
        assert!(state.respawn_should_fail()); // first respawn fails
        assert!(!state.respawn_should_fail()); // second succeeds
    }

    /// The plans the pool suites run (`worker_pool.rs` over its 4,096-cube
    /// skewed family, `fault_injection.rs` over 16 cubes), recorded when
    /// plans still drew transport and store faults beside the panics: the
    /// suites keep provoking the panics they always did.
    #[test]
    fn seeded_pool_plans_are_pinned() {
        let pool = |seed| FaultPlan::seeded(seed, 12, 4096).solve_panics;
        let p3 = [
            420, 525, 827, 1315, 1546, 1596, 2175, 2574, 3593, 3781, 3973,
        ];
        let p4 = [317, 1318, 1821, 2360, 2461, 2586, 2924, 3328, 3554, 3655];
        let p9 = [
            32, 483, 683, 1052, 1219, 1222, 1447, 1732, 1786, 2190, 2375, 3667,
        ];
        assert_eq!(
            (pool(3), pool(4), pool(9)),
            (p3.into(), p4.into(), p9.into())
        );
        let injection = |seed| FaultPlan::seeded(seed, 4, 16).solve_panics;
        assert_eq!(
            (injection(0), injection(1), injection(2)),
            (vec![14], vec![], vec![8, 11])
        );
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        let state = FaultPlan::none().arm();
        assert!(!state.solve_should_panic());
        assert!(!state.respawn_should_fail());
    }
}
