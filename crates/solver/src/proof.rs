//! The solver-side DRAT proof logger.
//!
//! When [`SolverConfig::proof`](crate::SolverConfig::proof) is enabled the
//! solver owns one [`ProofLogger`] and appends a [`DratStep`] for every
//! clause it derives or discards: learnt clauses from conflict analysis
//! and learnt-DB reductions. The stream is *persistent across solve
//! calls*: learnt clauses are consequences of the formula alone
//! (assumptions enter the search only as decisions, so they are resolved
//! away or appear as negated literals in learnt clauses), which lets one
//! incremental solver serve per-cube certificates by cloning the shared
//! stream and appending the terminal empty clause.
//!
//! Every addition the solver emits is RUP — first-UIP learnt clauses
//! (including minimized ones) are derivable by reverse unit propagation
//! from the clauses present at emission time — so the lenient forward
//! checker in `crates/checker` accepts the stream without needing RAT
//! checks.

use pdsat_cnf::{DratProof, DratStep, Lit};

/// An in-memory DRAT sink owned by the solver.
#[derive(Debug, Clone, Default)]
pub struct ProofLogger {
    steps: Vec<DratStep>,
}

impl ProofLogger {
    /// An empty log.
    #[must_use]
    pub fn new() -> ProofLogger {
        ProofLogger::default()
    }

    /// Records the addition of a clause.
    pub fn add(&mut self, lits: &[Lit]) {
        self.steps.push(DratStep::Add(lits.to_vec()));
    }

    /// Records the addition of the empty clause (the formula, together with
    /// everything derived so far, is unsatisfiable).
    pub fn add_empty(&mut self) {
        self.steps.push(DratStep::Add(Vec::new()));
    }

    /// Records the deletion of a clause.
    pub fn delete(&mut self, lits: Vec<Lit>) {
        self.steps.push(DratStep::Delete(lits));
    }

    /// The steps logged so far, in derivation order.
    #[must_use]
    pub fn steps(&self) -> &[DratStep] {
        &self.steps
    }

    /// Number of steps logged so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// `true` when the log already ends in the empty clause (the persistent
    /// stream of a root-level UNSAT solver).
    #[must_use]
    pub fn ends_in_empty_clause(&self) -> bool {
        matches!(self.steps.last(), Some(DratStep::Add(lits)) if lits.is_empty())
    }

    /// Clones the stream into a standalone proof, appending the terminal
    /// empty clause when `close` is set and the stream does not already end
    /// in one (the assumption-UNSAT case: the refutation holds only under
    /// the cube the checker seeds, so the empty clause belongs to the
    /// certificate, not to the shared stream).
    #[must_use]
    pub fn certificate(&self, close: bool) -> DratProof {
        let mut steps = self.steps.clone();
        if close && !self.ends_in_empty_clause() {
            steps.push(DratStep::Add(Vec::new()));
        }
        DratProof { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn logger_records_and_certifies() {
        let mut log = ProofLogger::new();
        assert!(log.is_empty());
        log.add(&[lit(1), lit(-2)]);
        log.delete(vec![lit(3)]);
        assert_eq!(log.len(), 2);
        assert!(!log.ends_in_empty_clause());
        let open = log.certificate(false);
        assert_eq!(open.len(), 2);
        let closed = log.certificate(true);
        assert_eq!(closed.len(), 3);
        assert_eq!(closed.steps.last(), Some(&DratStep::Add(Vec::new())));
        log.add_empty();
        assert!(log.ends_in_empty_clause());
        // Already closed: no second empty clause is appended.
        assert_eq!(log.certificate(true).len(), 3);
    }
}
