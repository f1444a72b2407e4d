//! Solver statistics.

use std::time::Duration;

/// Counters accumulated by the solver.
///
/// These serve two purposes in the reproduction:
///
/// 1. They provide *deterministic* cost measures (`conflicts`, `decisions`,
///    `propagations`) that the Monte Carlo estimator can use instead of wall
///    clock when reproducible experiments are desired.
/// 2. `solve_time` is the wall-clock measurement `ζ_j` of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses removed by database reductions.
    pub removed_clauses: u64,
    /// Number of learnt literals after minimization.
    pub learnt_literals: u64,
    /// Number of literals removed by clause minimization.
    pub minimized_literals: u64,
    /// Number of compacting garbage collections of the clause arena.
    pub gc_runs: u64,
    /// Number of assumption literals whose decision levels survived from the
    /// previous solve call (`SolverConfig::trail_reuse`): the summed lengths
    /// of the reused assumption prefixes.
    pub reused_assumptions: u64,
    /// Number of trail literals (assumptions plus their unit propagations)
    /// that did *not* have to be re-propagated thanks to trail reuse — the
    /// propagation count a fresh-backtracking solver would have paid on top
    /// of `propagations`.
    pub saved_propagations: u64,
    /// Number of variables removed by bounded variable elimination during
    /// `simplify` passes (their models are re-extended from the elimination
    /// stack).
    pub eliminated_vars: u64,
    /// Number of clauses deleted because another clause subsumes them.
    pub subsumed_clauses: u64,
    /// Number of clauses shortened by self-subsuming resolution.
    pub strengthened_clauses: u64,
    /// Number of literals removed from clauses by vivification.
    pub vivified_lits: u64,
    /// Number of learnt clauses offered to the clause-sharing channel (zero
    /// unless a channel is installed; see `SolverConfig::share_lbd_max`).
    pub exported_clauses: u64,
    /// Number of foreign clauses fetched from the clause-sharing channel and
    /// attached (units are applied at the root level immediately).
    pub imported_clauses: u64,
    /// Number of shared clauses lost on the way in: evicted from a full
    /// export ring, or fetched but not attached (already satisfied at the
    /// root, mentioning a locally eliminated variable, or not derivable by
    /// unit propagation while proof logging demands a checkable addition).
    pub import_dropped: u64,
    /// Number of pool worker backends that panicked mid-cube and were
    /// quarantined and respawned (always zero for a lone solver; bumped by
    /// the oracle's worker pool, which owns the panic recovery).
    pub worker_panics: u64,
    /// Number of cubes re-solved after their first attempt died with a
    /// panicking backend — each panicked cube is requeued exactly once onto
    /// the respawned (or fallback) backend.
    pub requeued_cubes: u64,
    /// Total wall-clock time spent inside `solve` calls.
    pub solve_time: Duration,
}

impl SolverStats {
    /// The difference `self - before` of two snapshots of the same solver's
    /// cumulative counters.
    ///
    /// This is how a warm (reused) solver attributes work to an individual
    /// sub-problem: snapshot the stats before the call, subtract afterwards.
    /// All counters are monotone over a solver's lifetime, so the subtraction
    /// is exact; `saturating_sub` only guards against snapshots taken from
    /// different solvers.
    #[must_use]
    pub fn delta_since(&self, before: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(before.conflicts),
            decisions: self.decisions.saturating_sub(before.decisions),
            propagations: self.propagations.saturating_sub(before.propagations),
            restarts: self.restarts.saturating_sub(before.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(before.learnt_clauses),
            removed_clauses: self.removed_clauses.saturating_sub(before.removed_clauses),
            learnt_literals: self.learnt_literals.saturating_sub(before.learnt_literals),
            minimized_literals: self
                .minimized_literals
                .saturating_sub(before.minimized_literals),
            gc_runs: self.gc_runs.saturating_sub(before.gc_runs),
            reused_assumptions: self
                .reused_assumptions
                .saturating_sub(before.reused_assumptions),
            saved_propagations: self
                .saved_propagations
                .saturating_sub(before.saved_propagations),
            eliminated_vars: self.eliminated_vars.saturating_sub(before.eliminated_vars),
            subsumed_clauses: self
                .subsumed_clauses
                .saturating_sub(before.subsumed_clauses),
            strengthened_clauses: self
                .strengthened_clauses
                .saturating_sub(before.strengthened_clauses),
            vivified_lits: self.vivified_lits.saturating_sub(before.vivified_lits),
            exported_clauses: self
                .exported_clauses
                .saturating_sub(before.exported_clauses),
            imported_clauses: self
                .imported_clauses
                .saturating_sub(before.imported_clauses),
            import_dropped: self.import_dropped.saturating_sub(before.import_dropped),
            worker_panics: self.worker_panics.saturating_sub(before.worker_panics),
            requeued_cubes: self.requeued_cubes.saturating_sub(before.requeued_cubes),
            solve_time: self.solve_time.saturating_sub(before.solve_time),
        }
    }

    /// Adds the counters of `other` into `self` (used to aggregate the
    /// statistics of many sub-problem solves).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.removed_clauses += other.removed_clauses;
        self.learnt_literals += other.learnt_literals;
        self.minimized_literals += other.minimized_literals;
        self.gc_runs += other.gc_runs;
        self.reused_assumptions += other.reused_assumptions;
        self.saved_propagations += other.saved_propagations;
        self.eliminated_vars += other.eliminated_vars;
        self.subsumed_clauses += other.subsumed_clauses;
        self.strengthened_clauses += other.strengthened_clauses;
        self.vivified_lits += other.vivified_lits;
        self.exported_clauses += other.exported_clauses;
        self.imported_clauses += other.imported_clauses;
        self.import_dropped += other.import_dropped;
        self.worker_panics += other.worker_panics;
        self.requeued_cubes += other.requeued_cubes;
        self.solve_time += other.solve_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = SolverStats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            solve_time: Duration::from_millis(10),
            ..SolverStats::default()
        };
        let b = SolverStats {
            conflicts: 10,
            decisions: 20,
            propagations: 30,
            solve_time: Duration::from_millis(5),
            ..SolverStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.conflicts, 11);
        assert_eq!(a.decisions, 22);
        assert_eq!(a.propagations, 33);
        assert_eq!(a.solve_time, Duration::from_millis(15));
    }

    #[test]
    fn default_is_zero() {
        let s = SolverStats::default();
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.solve_time, Duration::ZERO);
    }
}
