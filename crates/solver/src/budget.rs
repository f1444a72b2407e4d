//! Cooperative interruption.
//!
//! PDSAT's leader process interrupts workers with non-blocking MPI messages
//! when a point of the search space is abandoned; our equivalent is a shared
//! [`InterruptFlag`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The resource limits of a solve call: none. The paper's solving mode and
/// its estimator run every cube to a verdict, so a call stops early only when
/// its [`InterruptFlag`] is raised. The type remains as the argument of
/// [`Solver::solve_limited`](crate::Solver::solve_limited) until its last
/// caller passes only the flag.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Lit, Var};
/// use pdsat_solver::{Budget, Solver};
/// let mut solver = Solver::new();
/// solver.add_clause([Lit::positive(Var::new(0))]);
/// assert!(solver.solve_limited(&[], &Budget::unlimited(), None).is_sat());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget;

impl Budget {
    /// A budget with no limits.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget
    }
}

/// A shared flag used to interrupt a running solve call from another thread.
///
/// This plays the role of the non-blocking MPI stop messages that the
/// modified MiniSat of the paper listens for: the leader raises the flag and
/// the worker abandons its sub-problem at the next convenient point.
///
/// # Example
///
/// ```
/// use pdsat_solver::InterruptFlag;
/// let flag = InterruptFlag::new();
/// let clone = flag.clone();
/// assert!(!clone.is_raised());
/// flag.raise();
/// assert!(clone.is_raised());
/// clone.reset();
/// assert!(!flag.is_raised());
/// ```
#[derive(Debug, Clone, Default)]
pub struct InterruptFlag {
    flag: Arc<AtomicBool>,
}

impl InterruptFlag {
    /// Creates a new, lowered flag.
    #[must_use]
    pub fn new() -> InterruptFlag {
        InterruptFlag::default()
    }

    /// Raises the flag: running solve calls observing it will stop with
    /// [`Verdict::Unknown`](crate::Verdict::Unknown).
    pub fn raise(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Lowers the flag again so the solver can be reused.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// `true` when the flag is raised.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupt_flag_is_shared() {
        let a = InterruptFlag::new();
        let b = a.clone();
        a.raise();
        assert!(b.is_raised());
        b.reset();
        assert!(!a.is_raised());
    }
}
