//! Solver configuration.

/// Multiplicative decay applied to variable activities after each conflict
/// (`1/decay` is the bump growth factor).
pub(crate) const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to learnt-clause activities.
pub(crate) const CLAUSE_DECAY: f64 = 0.999;
/// Polarity used for a variable that has never been assigned.
pub(crate) const DEFAULT_POLARITY: bool = false;
/// Growth factor applied to the learnt clause limit after each database
/// reduction.
pub(crate) const LEARNTSIZE_INC: f64 = 1.1;
/// LBD (glue) value at or below which learnt clauses are never deleted.
pub(crate) const PROTECTED_LBD: u32 = 2;
/// The `i`-th restart of a solve call comes after `luby(i) · RESTART_BASE` conflicts.
pub(crate) const RESTART_BASE: u64 = 100;
/// A solve call starts with the learnt clause limit
/// `max(LEARNTSIZE_FACTOR · original clauses, MIN_LEARNT_LIMIT)`.
pub(crate) const LEARNTSIZE_FACTOR: f64 = 1.0 / 3.0;
/// Floor of the learnt clause limit (see [`LEARNTSIZE_FACTOR`]).
pub(crate) const MIN_LEARNT_LIMIT: f64 = 1000.0;
/// Wasted fraction of the clause arena that triggers a compacting collection.
pub(crate) const GARBAGE_FRAC: f64 = 0.20;

/// What a caller of the CDCL solver sets.
///
/// The search policy is MiniSat 2.2's at its defaults, fixed as constants:
/// the paper's Monte Carlo estimator needs one *deterministic* algorithm `A`,
/// with no randomized decisions and no policy switches.
///
/// # Example
///
/// ```
/// use pdsat_solver::{Solver, SolverConfig};
/// let cfg = SolverConfig {
///     proof: true,
///     ..SolverConfig::default()
/// };
/// assert!(Solver::with_config(cfg).proof_steps().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Accumulate wall-clock time into `SolverStats::solve_time` (default
    /// `true`). The oracle's backends time each cube themselves and switch it
    /// off.
    pub time_accounting: bool,
    /// Record a DRAT derivation of every clause the solver adds or removes
    /// (learnt clauses and learnt-DB reductions) into an in-memory
    /// [`ProofLogger`](crate::ProofLogger) (default `false`), each learnt
    /// clause with the ids of its antecedents as hints. With the log
    /// enabled, `Solver::unsat_certificate` emits a checkable certificate
    /// after every UNSAT answer — including assumption-scoped ones, which the
    /// checker verifies with the cube's literals seeded as root assignments.
    /// With it disabled the solver's behaviour, verdicts and statistics are
    /// bit-identical to a build without the feature (logging is pure
    /// observation; see DESIGN.md, "Proof logging & certificate checking").
    pub proof: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            time_accounting: true,
            proof: false,
        }
    }
}

/// The policy of the differential tests, set with `Solver::set_test_policy`:
/// a replay reference, clause-database pressure no workload reaches and a
/// deterministic mid-search exit. The [`Default`] is the production policy,
/// bit for bit.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct TestPolicy {
    /// Backtrack to the root after every solve call and at every restart, as
    /// MiniSat does, instead of keeping the assumption prefix of the trail.
    pub replay: bool,
    /// Base number of conflicts between restarts.
    pub restart_base: u64,
    /// Learnt clause limit at the start of every solve call, if fixed.
    pub learnt_limit: Option<usize>,
    /// Wasted-arena fraction that triggers a compacting garbage collection.
    pub garbage_frac: f64,
    /// Take the interrupt exit, at the check a raised `InterruptFlag` is
    /// seen at, once the current solve call has met this many conflicts.
    pub interrupt_at_conflict: Option<u64>,
}

impl Default for TestPolicy {
    fn default() -> Self {
        TestPolicy {
            replay: false,
            restart_base: RESTART_BASE,
            learnt_limit: None,
            garbage_frac: GARBAGE_FRAC,
            interrupt_at_conflict: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_minisat_conventions() {
        let cfg = SolverConfig::default();
        assert!(cfg.time_accounting);
        assert!(!cfg.proof, "proof logging is opt-in");
        let policy = TestPolicy::default();
        assert!(!policy.replay, "trail reuse is the production path");
        assert_eq!(policy.restart_base, 100);
        assert_eq!(policy.learnt_limit, None);
        assert!((policy.garbage_frac - 0.20).abs() < 1e-12);
        assert_eq!(policy.interrupt_at_conflict, None);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let cfg = SolverConfig::default();
        let copy = cfg.clone();
        assert_eq!(cfg, copy);
        let changed = SolverConfig { proof: true, ..cfg };
        assert_ne!(changed, copy);
    }
}
