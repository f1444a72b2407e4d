//! Solver statistics.

use std::time::Duration;

/// Declares [`SolverStats`] from one list of counters: the struct and the
/// two operations that must touch every counter (`delta_since`, `absorb`)
/// are generated from the same list, so a new counter is one line here.
macro_rules! solver_stats {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// Counters accumulated by the solver.
        ///
        /// They provide *deterministic* cost measures (`conflicts`,
        /// `decisions`, `propagations`) that the Monte Carlo estimator can use
        /// instead of wall clock when reproducible experiments are desired.
        /// The wall-clock measurement `ζ_j` of the paper is taken by the
        /// oracle's backends around each cube, not from `solve_time`.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct SolverStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl SolverStats {
            /// The difference `self - before` of two snapshots of the same
            /// solver's cumulative counters.
            ///
            /// This is how a warm (reused) solver attributes work to an
            /// individual sub-problem: snapshot the stats before the call,
            /// subtract afterwards. All counters are monotone over a solver's
            /// lifetime, so the subtraction is exact; `saturating_sub` only
            /// guards against snapshots taken from different solvers.
            #[must_use]
            pub fn delta_since(&self, before: &SolverStats) -> SolverStats {
                SolverStats {
                    $($field: self.$field.saturating_sub(before.$field),)*
                }
            }

            /// Adds the counters of `other` into `self` (used to aggregate
            /// the statistics of many sub-problem solves).
            pub fn absorb(&mut self, other: &SolverStats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

solver_stats! {
    /// Number of conflicts encountered.
    conflicts: u64,
    /// Number of decisions made.
    decisions: u64,
    /// Number of unit propagations performed.
    propagations: u64,
    /// Number of restarts performed.
    restarts: u64,
    /// Number of learnt clauses currently in the database.
    learnt_clauses: u64,
    /// Number of learnt clauses removed by database reductions.
    removed_clauses: u64,
    /// Number of learnt literals after minimization.
    learnt_literals: u64,
    /// Number of literals removed by clause minimization.
    minimized_literals: u64,
    /// Number of compacting garbage collections of the clause arena.
    gc_runs: u64,
    /// Number of assumption literals whose decision levels survived from the
    /// previous solve call (assumption-prefix trail reuse): the summed
    /// lengths of the reused assumption prefixes.
    reused_assumptions: u64,
    /// Number of trail literals (assumptions plus their unit propagations)
    /// that did *not* have to be re-propagated thanks to trail reuse — the
    /// propagation count a fresh-backtracking solver would have paid on top
    /// of `propagations`.
    saved_propagations: u64,
    /// Number of pool worker backends that panicked mid-cube and were
    /// replaced (always zero for a lone solver; bumped by the oracle's
    /// worker pool, which owns the panic recovery).
    worker_panics: u64,
    /// Number of cubes re-solved after their solve panicked in the pool —
    /// each exactly once, on the oracle's calling thread.
    requeued_cubes: u64,
    /// Wall-clock time inside timed solve calls (`SolverConfig::time_accounting`).
    solve_time: Duration,
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
