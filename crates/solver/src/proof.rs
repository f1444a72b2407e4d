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
//!
//! # Hints
//!
//! Each learnt clause carries the ids of its antecedents (see
//! [`pdsat_cnf::drat`] for the id space), in an order in which each is unit
//! under the clause's negation and the units before it, ending with the
//! falsified conflict clause: first the reasons of the literals minimization
//! removed, each after the removed literals its reason mentions; then the
//! reasons conflict analysis resolved on, in trail order; then the conflict
//! clause. The formula's `i`-th clause has id `i` whether or not the solver
//! kept it, so the ids hold for a solver built by `Solver::from_cnf`, whose
//! formula clauses all precede its first lemma.
//!
//! A formula clause the solver keeps carries its id in its arena header, in
//! the word a learnt clause keeps its activity in, so it moves with the
//! clause and is copied with the arena. The ids of learnt clauses sit in a
//! list parallel to the solver's learnt roster, which keeps its order
//! through learnt-DB reductions and arena collections; a reduction drops the
//! ids of the learnts it deletes. A hint list is never changed once logged,
//! so a certificate cloned from the stream shares it (`Arc<[u32]>`).

use crate::clause_db::{ClauseDb, ClauseRef};
use pdsat_cnf::{DratProof, DratStep, Lit, Var};
use std::sync::Arc;

/// An in-memory DRAT sink owned by the solver.
#[derive(Debug, Clone, Default)]
pub struct ProofLogger {
    steps: Vec<DratStep>,
    /// The id of the next formula clause or addition, whichever comes next.
    next_id: u32,
    /// The id of each clause of the solver's learnt roster, in roster order.
    learnt_ids: Vec<u32>,
    /// The antecedents of the clause being learnt, in hint order; filled by
    /// conflict analysis and taken by the next [`lemma`](Self::lemma).
    pub(crate) antecedents: Vec<ClauseRef>,
    /// Scratch of the depth-first walk that orders the antecedents of
    /// minimized literals.
    pub(crate) stack: Vec<Var>,
}

impl ProofLogger {
    /// An empty log.
    #[must_use]
    pub fn new() -> ProofLogger {
        ProofLogger::default()
    }

    /// Counts the next clause of the formula and returns its id, whether or
    /// not the solver keeps the clause (units, tautologies and clauses
    /// satisfied at the root are not kept).
    pub(crate) fn original(&mut self) -> u32 {
        self.take_id()
    }

    /// Ids saturate: past four billion clauses every clause gets `u32::MAX`,
    /// an id hints then name in vain.
    fn take_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = id.saturating_add(1);
        id
    }

    /// Records the addition of a learnt clause with the pending antecedents
    /// as its hints; `cref` is where the solver keeps it (a unit is not
    /// kept), `learnts` the solver's learnt roster.
    pub(crate) fn lemma(
        &mut self,
        lits: &[Lit],
        cref: Option<ClauseRef>,
        db: &ClauseDb,
        learnts: &[ClauseRef],
    ) {
        let hints = self
            .antecedents
            .iter()
            .map(|&c| self.id_of(c, db, learnts))
            .collect();
        self.antecedents.clear();
        let id = self.push_addition(lits.to_vec(), hints);
        if cref.is_some() {
            self.learnt_ids.push(id);
        }
    }

    /// The id of a clause the solver holds.
    fn id_of(&self, cref: ClauseRef, db: &ClauseDb, learnts: &[ClauseRef]) -> u32 {
        if !db.is_learnt(cref) {
            return db.proof_id(cref);
        }
        // The roster is in arena order: the arena only ever appends, and
        // compacts in order.
        let position = learnts
            .binary_search_by_key(&cref.index(), |c| c.index())
            .expect("a learnt reason or conflict clause is in the roster");
        self.learnt_ids[position]
    }

    /// Drops the ids of the learnt clauses `db` has deleted, as the solver
    /// drops them from `learnts`.
    pub(crate) fn retain_learnts(&mut self, learnts: &[ClauseRef], db: &ClauseDb) {
        let mut live = learnts.iter().map(|&c| !db.is_deleted(c));
        self.learnt_ids.retain(|_| live.next() == Some(true));
    }

    /// Records the addition of the empty clause (the formula, together with
    /// everything derived so far, is unsatisfiable).
    pub fn add_empty(&mut self) {
        self.push_addition(Vec::new(), Arc::from([]));
    }

    /// Logs an addition and returns its id.
    fn push_addition(&mut self, lits: Vec<Lit>, hints: Arc<[u32]>) -> u32 {
        self.steps.push(DratStep::Add { lits, hints });
        self.take_id()
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
        matches!(self.steps.last(), Some(DratStep::Add { lits, .. }) if lits.is_empty())
    }

    /// Clones the stream into a standalone proof, appending the terminal
    /// empty clause when the stream does not already end in one (the
    /// assumption-UNSAT case: the refutation holds only under the cube the
    /// checker seeds, so the empty clause belongs to the certificate, not to
    /// the shared stream).
    #[must_use]
    pub fn certificate(&self) -> DratProof {
        let mut steps = self.steps.clone();
        if !self.ends_in_empty_clause() {
            steps.push(DratStep::add(Vec::new()));
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
        log.push_addition(vec![lit(1), lit(-2)], Arc::from([]));
        log.delete(vec![lit(3)]);
        assert_eq!(log.len(), 2);
        assert!(!log.ends_in_empty_clause());
        let closed = log.certificate();
        assert_eq!(closed.len(), 3);
        assert_eq!(closed.steps[..2], log.steps[..]);
        assert_eq!(closed.steps.last(), Some(&DratStep::add(Vec::new())));
        log.add_empty();
        assert!(log.ends_in_empty_clause());
        // Already closed: no second empty clause is appended.
        assert_eq!(log.certificate().len(), 3);
    }

    #[test]
    fn ids_count_dropped_originals_and_every_addition() {
        // Formula clauses 0..5, of which 0, 2 and 3 are dropped at load.
        let mut db = ClauseDb::new();
        let mut log = ProofLogger::new();
        let mut kept = Vec::new();
        for keep in [false, true, false, false, true] {
            let id = log.original();
            if keep {
                let cref = db.add(&[lit(1), lit(2)], false, 0);
                db.set_proof_id(cref, id);
                kept.push(cref);
            }
        }
        // Addition 0 (id 5) is a unit, addition 1 (id 6) a kept clause,
        // addition 2 (id 7) derived from it.
        log.antecedents.extend([kept[1], kept[0]]);
        log.lemma(&[lit(1)], None, &db, &[]);
        let learnt = db.add(&[lit(1), lit(3)], true, 2);
        log.antecedents.push(kept[0]);
        log.lemma(&[lit(1), lit(3)], Some(learnt), &db, &[]);
        let learnts = [learnt];
        log.antecedents.extend([learnt, kept[1]]);
        log.lemma(&[lit(3)], None, &db, &learnts);
        let hints: Vec<&[u32]> = log
            .steps()
            .iter()
            .map(|step| match step {
                DratStep::Add { hints, .. } => &hints[..],
                DratStep::Delete(_) => &[],
            })
            .collect();
        assert_eq!(hints, [&[4, 1][..], &[1], &[6, 4]]);
        // A deleted learnt leaves the parallel list with its roster entry.
        db.mark_deleted(learnt);
        log.retain_learnts(&learnts, &db);
        assert!(log.learnt_ids.is_empty());
    }
}
