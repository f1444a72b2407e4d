//! Resource budgets and cooperative interruption.
//!
//! PDSAT's leader process interrupts workers with non-blocking MPI messages
//! when a point of the search space is abandoned; our equivalent is a shared
//! [`InterruptFlag`] plus per-call resource budgets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Limits on how much work a single `solve` call may perform.
///
/// A solve call that exhausts any limit returns
/// [`Verdict::Unknown`](crate::Verdict::Unknown). The default budget is
/// unlimited.
///
/// # Example
///
/// ```
/// use pdsat_solver::Budget;
/// use std::time::Duration;
/// let b = Budget::unlimited()
///     .with_conflict_limit(10_000)
///     .with_time_limit(Duration::from_millis(200));
/// assert_eq!(b.max_conflicts, Some(10_000));
/// assert!(b.max_propagations.is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of conflicts, `None` for unlimited.
    pub max_conflicts: Option<u64>,
    /// Maximum number of propagations, `None` for unlimited.
    pub max_propagations: Option<u64>,
    /// Maximum number of decisions, `None` for unlimited.
    pub max_decisions: Option<u64>,
    /// Wall-clock limit, `None` for unlimited.
    pub max_wall_time: Option<Duration>,
}

impl Budget {
    /// A budget with no limits.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets a conflict limit.
    #[must_use]
    pub fn with_conflict_limit(mut self, conflicts: u64) -> Budget {
        self.max_conflicts = Some(conflicts);
        self
    }

    /// Sets a propagation limit.
    #[must_use]
    pub fn with_propagation_limit(mut self, propagations: u64) -> Budget {
        self.max_propagations = Some(propagations);
        self
    }

    /// Sets a decision limit.
    #[must_use]
    pub fn with_decision_limit(mut self, decisions: u64) -> Budget {
        self.max_decisions = Some(decisions);
        self
    }

    /// Sets a wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Budget {
        self.max_wall_time = Some(limit);
        self
    }

    /// `true` when no limit is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none()
            && self.max_propagations.is_none()
            && self.max_decisions.is_none()
            && self.max_wall_time.is_none()
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

/// Why a solve call stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The conflict budget was exhausted.
    ConflictLimit,
    /// The propagation budget was exhausted.
    PropagationLimit,
    /// The decision budget was exhausted.
    DecisionLimit,
    /// The wall-clock budget was exhausted.
    TimeLimit,
    /// The [`InterruptFlag`] was raised by another thread.
    Interrupted,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StopReason::ConflictLimit => "conflict limit reached",
            StopReason::PropagationLimit => "propagation limit reached",
            StopReason::DecisionLimit => "decision limit reached",
            StopReason::TimeLimit => "time limit reached",
            StopReason::Interrupted => "interrupted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_limits() {
        let b = Budget::unlimited()
            .with_conflict_limit(5)
            .with_propagation_limit(6)
            .with_decision_limit(7)
            .with_time_limit(Duration::from_secs(1));
        assert_eq!(b.max_conflicts, Some(5));
        assert_eq!(b.max_propagations, Some(6));
        assert_eq!(b.max_decisions, Some(7));
        assert_eq!(b.max_wall_time, Some(Duration::from_secs(1)));
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }

    #[test]
    fn interrupt_flag_is_shared() {
        let a = InterruptFlag::new();
        let b = a.clone();
        a.raise();
        assert!(b.is_raised());
        b.reset();
        assert!(!a.is_raised());
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::Interrupted.to_string(), "interrupted");
        assert_eq!(StopReason::TimeLimit.to_string(), "time limit reached");
    }
}
