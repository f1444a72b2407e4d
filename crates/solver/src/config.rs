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

/// Tunable parameters of the CDCL solver.
///
/// The defaults follow MiniSat 2.2. The Monte Carlo estimator of the paper
/// requires the algorithm `A` to be *deterministic*, so the solver performs no
/// randomized decisions; every knob here is a deterministic policy parameter.
///
/// # Example
///
/// ```
/// use pdsat_solver::SolverConfig;
/// let cfg = SolverConfig {
///     luby_restart_base: 50,
///     ..SolverConfig::default()
/// };
/// assert!(cfg.phase_saving);
/// assert_eq!(cfg.luby_restart_base, 50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Base number of conflicts between restarts; the actual limit of the
    /// `i`-th restart is `luby(i) · luby_restart_base`.
    pub luby_restart_base: u64,
    /// Whether to remember and reuse the last polarity of each variable.
    pub phase_saving: bool,
    /// Whether learnt clauses are minimized with the basic (local) rule.
    pub clause_minimization: bool,
    /// Fraction of the original clause count used as the initial learnt
    /// clause limit.
    pub learntsize_factor: f64,
    /// Lower bound on the learnt clause limit (useful for tiny formulas).
    pub min_learnt_limit: usize,
    /// Fraction of the clause arena that may be occupied by deleted clauses
    /// before a compacting garbage collection runs (MiniSat uses 0.20).
    pub garbage_frac: f64,
    /// Keep the assumption prefix of the trail assigned between solve calls
    /// and backtrack only to the point where the next call's assumptions
    /// diverge from it, instead of replaying every assumption (and its unit
    /// propagations) from scratch. This is what makes processing a
    /// decomposition family on one incremental solver cheap: consecutive
    /// cubes over the same set share most of their literals, so most of the
    /// assumption trail survives from one cube to the next. The saved prefix
    /// is invalidated by clause additions and by exits that leave pending
    /// propagations (see DESIGN.md, "Assumption-prefix trail reuse").
    /// Verdicts and models are unaffected; `SolverStats::propagations` drops
    /// by exactly the replay work skipped (tracked in
    /// `SolverStats::saved_propagations`).
    pub trail_reuse: bool,
    /// Accumulate wall-clock time into `SolverStats::solve_time` (default
    /// `true`). For workloads of thousands of micro-solves per second — a
    /// warm backend processing a decomposition family — the two clock reads
    /// per call are a measurable fraction of the per-cube cost; executors
    /// that measure cost by deterministic counters disable this. A budget
    /// with a wall-clock deadline still measures time regardless.
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
            luby_restart_base: 100,
            phase_saving: true,
            clause_minimization: true,
            learntsize_factor: 1.0 / 3.0,
            min_learnt_limit: 1000,
            garbage_frac: 0.20,
            trail_reuse: true,
            time_accounting: true,
            proof: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_minisat_conventions() {
        let cfg = SolverConfig::default();
        assert_eq!(cfg.luby_restart_base, 100);
        assert!(cfg.phase_saving);
        assert!(cfg.clause_minimization);
        assert!((cfg.garbage_frac - 0.20).abs() < 1e-12);
        assert!(cfg.trail_reuse);
        assert!(!cfg.proof, "proof logging is opt-in");
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let cfg = SolverConfig::default();
        let copy = cfg.clone();
        assert_eq!(cfg, copy);
        let changed = SolverConfig {
            phase_saving: false,
            ..cfg
        };
        assert_ne!(changed, copy);
    }
}
