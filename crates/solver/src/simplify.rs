//! Preprocessing engine: bounded variable elimination, subsumption and
//! self-subsuming resolution (SatELite / MiniSat-SimpSolver lineage).
//!
//! The engine works on plain literal vectors rather than on the solver's
//! clause arena: [`crate::Solver::simplify`] snapshots the attached problem
//! clauses, runs [`VectorSimplifier`] to a fixpoint, and rebuilds the arena
//! and watch lists from the surviving clauses. That keeps the arena code free
//! of occurrence-list bookkeeping and makes the simplifier independently
//! testable.
//!
//! Everything here is deterministic: worklists are FIFO, occurrence lists are
//! scanned in insertion order, and candidate clauses are visited in index
//! order — a requirement inherited from the Monte Carlo estimator (the solver
//! must be a deterministic algorithm `A`).

use pdsat_cnf::{DratStep, Lit, Value, Var};
use std::collections::VecDeque;

/// One eliminated variable together with *one side* of its occurrence list
/// at elimination time. Stored on the solver's elimination stack so a model
/// of the simplified formula can be extended back to the original variables
/// (process records in reverse order).
///
/// Only one polarity's clauses need to be kept (MiniSat's `elimclauses`
/// argument): assign `var` against the stored polarity — which trivially
/// satisfies every *unstored* clause — unless some stored clause
/// `(l ∨ A)` has `A` false under the model. In that case assign the stored
/// polarity; every unstored clause `(¬l ∨ B)` is still satisfied, because
/// the resolvent `(A ∨ B)` was added to (or is implied by) the simplified
/// formula, so `A` false forces `B` true.
#[derive(Debug, Clone)]
pub(crate) struct ElimRecord {
    /// The variable removed by distribution.
    pub var: Var,
    /// Polarity of `var` in every stored clause (the smaller occurrence
    /// side at elimination time).
    pub pol: bool,
    /// The clauses that contained `Lit::new(var, pol)` when it was
    /// eliminated, with literals exactly as they stood at that point.
    pub clauses: Vec<Vec<Lit>>,
}

/// Counters reported back to [`crate::SolverStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimplifyCounters {
    pub eliminated_vars: u64,
    pub subsumed_clauses: u64,
    pub strengthened_clauses: u64,
}

/// Result of a [`VectorSimplifier`] run.
#[derive(Debug)]
pub(crate) struct SimplifyOutcome {
    /// Surviving clauses, each of length ≥ 2, free of eliminated variables.
    pub clauses: Vec<Vec<Lit>>,
    /// Root-level facts derived during simplification (unit clauses, in
    /// derivation order).
    pub units: Vec<Lit>,
    /// Elimination records, in elimination order (extend models in reverse).
    pub elim_stack: Vec<ElimRecord>,
    /// Work counters.
    pub counters: SimplifyCounters,
    /// `true` if simplification derived the empty clause.
    pub unsat: bool,
    /// DRAT steps for every rewrite performed, in derivation order. Empty
    /// unless [`VectorSimplifier::enable_proof`] was called. Additions are
    /// logged before the deletions that depend on them, so each addition is
    /// RUP against the clauses still present at its position in the stream.
    pub proof: Vec<DratStep>,
}

/// A clause under simplification: sorted literal vector plus a 64-bit
/// variable signature (`bit v % 64` set for every variable `v` in the
/// clause). `sig(c) & !sig(d) != 0` proves `vars(c) ⊄ vars(d)`, which rules
/// out both subsumption and self-subsuming resolution without touching the
/// literals.
#[derive(Debug)]
struct SClause {
    lits: Vec<Lit>,
    sig: u64,
    alive: bool,
}

fn signature(lits: &[Lit]) -> u64 {
    let mut sig = 0u64;
    for l in lits {
        sig |= 1u64 << (l.var().index() % 64);
    }
    sig
}

/// Result of matching clause `c` against candidate `d`.
enum SubMatch {
    /// Every literal of `c` occurs in `d`: `d` is subsumed.
    Subsumes,
    /// Every literal of `c` occurs in `d` except one, which occurs negated:
    /// resolving removes that literal from `d` (self-subsuming resolution).
    Strengthens(Lit),
    /// Neither.
    None,
}

/// The occurrence-list simplifier. Build with [`VectorSimplifier::new`], feed
/// clauses with [`VectorSimplifier::add_clause`], then call
/// [`VectorSimplifier::run`].
pub(crate) struct VectorSimplifier {
    num_vars: usize,
    /// Root values derived so far, indexed by literal code.
    assigns: Vec<Value>,
    /// Variables that must not be eliminated (frozen by the caller, e.g. the
    /// decomposition set a backend will assume over).
    frozen: Vec<bool>,
    eliminated: Vec<bool>,
    clauses: Vec<SClause>,
    /// Clause indices per literal code. Entries for dead clauses are left in
    /// place and skipped (lazy deletion); entries invalidated by
    /// strengthening are removed eagerly, so a live entry always means the
    /// clause really contains the literal.
    occ: Vec<Vec<usize>>,
    /// Units waiting to be propagated through the occurrence lists.
    unit_queue: VecDeque<Lit>,
    /// Facts in derivation order, for the caller.
    units_out: Vec<Lit>,
    /// Clauses to (re-)try as subsumption/strengthening sources.
    sub_queue: VecDeque<usize>,
    /// Whether a clause is already queued in `sub_queue`.
    in_sub_queue: Vec<bool>,
    /// Variables to (re-)try for elimination.
    elim_queue: VecDeque<Var>,
    in_elim_queue: Vec<bool>,
    elim_stack: Vec<ElimRecord>,
    /// Remaining pairwise checks; once exhausted the run finishes early
    /// (simplification is optional work, so stopping anywhere is sound).
    budget: u64,
    grow_limit: usize,
    counters: SimplifyCounters,
    unsat: bool,
    /// DRAT log of every rewrite, `None` when logging is disabled (the
    /// default; see [`VectorSimplifier::enable_proof`]).
    proof: Option<Vec<DratStep>>,
}

impl VectorSimplifier {
    pub(crate) fn new(num_vars: usize, frozen: Vec<bool>, grow_limit: usize, budget: u64) -> Self {
        debug_assert_eq!(frozen.len(), num_vars);
        VectorSimplifier {
            num_vars,
            assigns: vec![Value::Unassigned; num_vars * 2],
            frozen,
            eliminated: vec![false; num_vars],
            clauses: Vec::new(),
            occ: vec![Vec::new(); num_vars * 2],
            unit_queue: VecDeque::new(),
            units_out: Vec::new(),
            sub_queue: VecDeque::new(),
            in_sub_queue: Vec::new(),
            elim_queue: VecDeque::new(),
            in_elim_queue: vec![false; num_vars],
            elim_stack: Vec::new(),
            budget,
            grow_limit,
            counters: SimplifyCounters::default(),
            unsat: false,
            proof: None,
        }
    }

    /// Turns on DRAT logging: every clause the engine derives or discards is
    /// recorded into [`SimplifyOutcome::proof`]. Logging is pure observation;
    /// the simplification performed is identical either way.
    pub(crate) fn enable_proof(&mut self) {
        self.proof = Some(Vec::new());
    }

    fn log_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.push(DratStep::Add(lits.to_vec()));
        }
    }

    fn log_delete(&mut self, lits: Vec<Lit>) {
        if let Some(p) = self.proof.as_mut() {
            p.push(DratStep::Delete(lits));
        }
    }

    /// Feeds one input clause. Literals are sorted and deduplicated;
    /// tautologies are dropped. Callers pass clauses already cleaned against
    /// the solver's root assignment, so no literal here is assigned yet.
    pub(crate) fn add_clause(&mut self, mut lits: Vec<Lit>) {
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // tautology
        }
        self.insert_clause(lits);
    }

    fn insert_clause(&mut self, lits: Vec<Lit>) {
        match lits.len() {
            0 => self.unsat = true,
            1 => self.enqueue_unit(lits[0]),
            _ => {
                let idx = self.clauses.len();
                for &l in &lits {
                    self.occ[l.code()].push(idx);
                }
                self.clauses.push(SClause {
                    sig: signature(&lits),
                    lits,
                    alive: true,
                });
                self.in_sub_queue.push(true);
                self.sub_queue.push_back(idx);
            }
        }
    }

    fn enqueue_unit(&mut self, l: Lit) {
        match self.assigns[l.code()] {
            Value::True => {}
            Value::False => {
                // Both `l` and `¬l` have been derived; the checker reaches
                // the same conflict by propagating the two logged units.
                self.unsat = true;
                self.log_add(&[]);
            }
            Value::Unassigned => {
                self.assigns[l.code()] = Value::True;
                self.assigns[(!l).code()] = Value::False;
                self.unit_queue.push_back(l);
                self.units_out.push(l);
            }
        }
    }

    fn kill_clause(&mut self, idx: usize) {
        self.clauses[idx].alive = false;
    }

    /// Removes literal `l` from clause `idx` (which must contain it), keeping
    /// occurrence lists exact and re-queueing the now-shorter clause as a
    /// subsumption source and its variables as elimination candidates.
    fn strengthen_clause(&mut self, idx: usize, l: Lit) {
        self.occ[l.code()].retain(|&c| c != idx);
        let old = self.proof.is_some().then(|| self.clauses[idx].lits.clone());
        let clause = &mut self.clauses[idx];
        clause.lits.retain(|&x| x != l);
        clause.sig = signature(&clause.lits);
        if let Some(old) = old {
            let new = self.clauses[idx].lits.clone();
            self.log_add(&new);
            self.log_delete(old);
        }
        match self.clauses[idx].lits.len() {
            0 => {
                self.unsat = true;
                self.kill_clause(idx);
            }
            1 => {
                let unit = self.clauses[idx].lits[0];
                self.kill_clause(idx);
                self.occ[unit.code()].retain(|&c| c != idx);
                self.enqueue_unit(unit);
            }
            _ => {
                if !self.in_sub_queue[idx] {
                    self.in_sub_queue[idx] = true;
                    self.sub_queue.push_back(idx);
                }
                self.touch_var(l.var());
                for i in 0..self.clauses[idx].lits.len() {
                    let v = self.clauses[idx].lits[i].var();
                    self.touch_var(v);
                }
            }
        }
    }

    fn touch_var(&mut self, v: Var) {
        if !self.in_elim_queue[v.index()] && !self.eliminated[v.index()] && !self.frozen[v.index()]
        {
            self.in_elim_queue[v.index()] = true;
            self.elim_queue.push_back(v);
        }
    }

    /// Applies every pending unit through the occurrence lists: clauses
    /// containing the literal are satisfied (deleted), clauses containing its
    /// negation are strengthened.
    fn propagate_units(&mut self) {
        while let Some(u) = self.unit_queue.pop_front() {
            if self.unsat {
                return;
            }
            let sat_list = std::mem::take(&mut self.occ[u.code()]);
            for &ci in &sat_list {
                if self.clauses[ci].alive {
                    for i in 0..self.clauses[ci].lits.len() {
                        let v = self.clauses[ci].lits[i].var();
                        self.touch_var(v);
                    }
                    if self.proof.is_some() {
                        let lits = self.clauses[ci].lits.clone();
                        self.log_delete(lits);
                    }
                    self.kill_clause(ci);
                }
            }
            self.occ[u.code()] = Vec::new();
            let neg_list = std::mem::take(&mut self.occ[(!u).code()]);
            for &ci in &neg_list {
                if self.clauses[ci].alive {
                    // `strengthen_clause` retains on the (taken, empty) list;
                    // restore it first so the retain is a no-op on purpose.
                    self.strengthen_clause_no_occ(ci, !u);
                }
                if self.unsat {
                    return;
                }
            }
            self.occ[(!u).code()] = Vec::new();
        }
    }

    /// `strengthen_clause` minus the occurrence-list removal of `l` (used
    /// when the caller already took the whole list).
    fn strengthen_clause_no_occ(&mut self, idx: usize, l: Lit) {
        let old = self.proof.is_some().then(|| self.clauses[idx].lits.clone());
        let clause = &mut self.clauses[idx];
        clause.lits.retain(|&x| x != l);
        clause.sig = signature(&clause.lits);
        if let Some(old) = old {
            let new = self.clauses[idx].lits.clone();
            self.log_add(&new);
            self.log_delete(old);
        }
        match self.clauses[idx].lits.len() {
            0 => {
                self.unsat = true;
                self.kill_clause(idx);
            }
            1 => {
                let unit = self.clauses[idx].lits[0];
                self.kill_clause(idx);
                self.occ[unit.code()].retain(|&c| c != idx);
                self.enqueue_unit(unit);
            }
            _ => {
                if !self.in_sub_queue[idx] {
                    self.in_sub_queue[idx] = true;
                    self.sub_queue.push_back(idx);
                }
                self.touch_var(l.var());
                for i in 0..self.clauses[idx].lits.len() {
                    let v = self.clauses[idx].lits[i].var();
                    self.touch_var(v);
                }
            }
        }
    }

    /// Matches subsumption source `c` against candidate `d` (`c` must be no
    /// longer than `d`): does every literal of `c` occur in `d`, allowing at
    /// most one to occur negated?
    fn submatch(c: &[Lit], d: &[Lit]) -> SubMatch {
        let mut flipped: Option<Lit> = None;
        for &l in c {
            if d.binary_search(&l).is_ok() {
                continue;
            }
            if d.binary_search(&!l).is_ok() {
                if flipped.is_some() {
                    return SubMatch::None;
                }
                flipped = Some(!l);
                continue;
            }
            return SubMatch::None;
        }
        match flipped {
            None => SubMatch::Subsumes,
            Some(l) => SubMatch::Strengthens(l),
        }
    }

    /// Backward subsumption and self-subsuming resolution, driven by
    /// `sub_queue`: each queued clause is matched against every clause
    /// sharing its least-occurring variable.
    fn process_subsumption_queue(&mut self) {
        while let Some(ci) = self.sub_queue.pop_front() {
            self.in_sub_queue[ci] = false;
            if self.unsat || self.budget == 0 {
                return;
            }
            if !self.clauses[ci].alive {
                continue;
            }
            // Pick the variable of `ci` with the fewest occurrences; every
            // clause that `ci` can subsume or strengthen must contain it (in
            // one polarity or the other).
            let best = {
                let lits = &self.clauses[ci].lits;
                let mut best = lits[0];
                let mut best_len = usize::MAX;
                for &l in lits {
                    let len = self.occ[l.code()].len() + self.occ[(!l).code()].len();
                    if len < best_len {
                        best_len = len;
                        best = l;
                    }
                }
                best
            };
            for pol in [best, !best] {
                // Index-based scan: strengthening mutates occurrence lists of
                // *other* literals, but entries of `pol`'s list are only ever
                // removed for the strengthened clause itself, which we skip
                // via the alive/contains check.
                let mut k = 0;
                while k < self.occ[pol.code()].len() {
                    let di = self.occ[pol.code()][k];
                    k += 1;
                    if di == ci || !self.clauses[di].alive {
                        continue;
                    }
                    if !self.clauses[ci].alive {
                        break;
                    }
                    if self.clauses[di].lits.len() < self.clauses[ci].lits.len() {
                        continue;
                    }
                    if self.clauses[ci].sig & !self.clauses[di].sig != 0 {
                        continue;
                    }
                    if self.budget == 0 {
                        return;
                    }
                    self.budget -= 1;
                    match Self::submatch(&self.clauses[ci].lits, &self.clauses[di].lits) {
                        SubMatch::Subsumes => {
                            self.counters.subsumed_clauses += 1;
                            for i in 0..self.clauses[di].lits.len() {
                                let v = self.clauses[di].lits[i].var();
                                self.touch_var(v);
                            }
                            if self.proof.is_some() {
                                let lits = self.clauses[di].lits.clone();
                                self.log_delete(lits);
                            }
                            self.kill_clause(di);
                        }
                        SubMatch::Strengthens(l) => {
                            self.counters.strengthened_clauses += 1;
                            self.strengthen_clause(di, l);
                            if self.unsat {
                                return;
                            }
                        }
                        SubMatch::None => {}
                    }
                }
                if !self.clauses[ci].alive {
                    break;
                }
            }
            self.propagate_units();
            if self.unsat {
                return;
            }
        }
    }

    /// Live clause indices containing literal `l`.
    fn live_occ(&self, l: Lit) -> Vec<usize> {
        self.occ[l.code()]
            .iter()
            .copied()
            .filter(|&ci| self.clauses[ci].alive)
            .collect()
    }

    /// Resolvent of `p` (contains `+v`) and `n` (contains `-v`) on `v`, or
    /// `None` if it is a tautology.
    fn resolve(&self, p: usize, n: usize, v: Var) -> Option<Vec<Lit>> {
        let mut out: Vec<Lit> =
            Vec::with_capacity(self.clauses[p].lits.len() + self.clauses[n].lits.len() - 2);
        out.extend(self.clauses[p].lits.iter().filter(|l| l.var() != v));
        out.extend(self.clauses[n].lits.iter().filter(|l| l.var() != v));
        out.sort_unstable();
        out.dedup();
        if out.windows(2).any(|w| w[0].var() == w[1].var()) {
            return None; // tautology
        }
        Some(out)
    }

    /// Attempts bounded variable elimination of `v` by clause distribution:
    /// `v` is eliminated iff the number of non-tautological resolvents does
    /// not exceed the number of clauses it occurs in plus the growth limit.
    fn try_eliminate(&mut self, v: Var) -> bool {
        debug_assert!(!self.frozen[v.index()] && !self.eliminated[v.index()]);
        if self.assigns[Lit::positive(v).code()] != Value::Unassigned {
            return false;
        }
        let pos = self.live_occ(Lit::positive(v));
        let neg = self.live_occ(Lit::negative(v));
        if pos.is_empty() && neg.is_empty() {
            return false; // no occurrences: nothing to eliminate
        }
        let limit = pos.len() + neg.len() + self.grow_limit;
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &p in &pos {
            for &n in &neg {
                if self.budget == 0 {
                    return false;
                }
                self.budget -= 1;
                if let Some(r) = self.resolve(p, n, v) {
                    resolvents.push(r);
                    if resolvents.len() > limit {
                        return false;
                    }
                }
            }
        }
        // Accepted (a pure literal is the resolvent-free special case).
        // Keep only the smaller occurrence side for model extension.
        let (stored, pol) = if pos.len() <= neg.len() {
            (&pos, true)
        } else {
            (&neg, false)
        };
        let record = ElimRecord {
            var: v,
            pol,
            clauses: stored
                .iter()
                .map(|&ci| self.clauses[ci].lits.clone())
                .collect(),
        };
        // Resolvent additions are logged before the parent deletions: the
        // RUP check of a resolvent needs both parents still present.
        if self.proof.is_some() {
            for r in &resolvents {
                if let Some(p) = self.proof.as_mut() {
                    p.push(DratStep::Add(r.clone()));
                }
            }
        }
        for &ci in pos.iter().chain(neg.iter()) {
            for i in 0..self.clauses[ci].lits.len() {
                let w = self.clauses[ci].lits[i].var();
                if w != v {
                    self.touch_var(w);
                }
            }
            if self.proof.is_some() {
                let lits = self.clauses[ci].lits.clone();
                self.log_delete(lits);
            }
            self.kill_clause(ci);
        }
        self.eliminated[v.index()] = true;
        self.elim_stack.push(record);
        self.counters.eliminated_vars += 1;
        for r in resolvents {
            self.insert_clause(r);
            if self.unsat {
                return true;
            }
        }
        true
    }

    /// Runs unit propagation, subsumption and variable elimination to a
    /// fixpoint (or until the check budget runs out) and returns the
    /// simplified formula.
    pub(crate) fn run(mut self) -> SimplifyOutcome {
        // Seed the elimination queue with every eliminable variable, in
        // index order (deterministic).
        for i in 0..self.num_vars {
            self.touch_var(Var::new(i as u32));
        }
        self.propagate_units();
        self.process_subsumption_queue();
        while !self.unsat && self.budget > 0 {
            let Some(v) = self.elim_queue.pop_front() else {
                break;
            };
            self.in_elim_queue[v.index()] = false;
            if self.eliminated[v.index()] {
                continue;
            }
            self.try_eliminate(v);
            self.propagate_units();
            self.process_subsumption_queue();
        }
        let clauses: Vec<Vec<Lit>> = self
            .clauses
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.lits.clone())
            .collect();
        debug_assert!(clauses.iter().all(|c| c.len() >= 2));
        SimplifyOutcome {
            clauses,
            units: self.units_out,
            elim_stack: self.elim_stack,
            counters: self.counters,
            unsat: self.unsat,
            proof: self.proof.take().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn simplifier(num_vars: usize, frozen: &[i64]) -> VectorSimplifier {
        let mut fz = vec![false; num_vars];
        for &f in frozen {
            fz[(f - 1) as usize] = true;
        }
        VectorSimplifier::new(num_vars, fz, 0, u64::MAX)
    }

    #[test]
    fn subsumption_removes_superset_clauses() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(1), lit(2), lit(3)]);
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.counters.subsumed_clauses, 1);
        assert_eq!(out.clauses, vec![vec![lit(1), lit(2)]]);
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        // (x1 ∨ x2) and (¬x1 ∨ x2 ∨ x3): resolving on x1 gives (x2 ∨ x3),
        // which self-subsumes the second clause to (x2 ∨ x3).
        let mut s = simplifier(3, &[1, 2, 3]);
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(-1), lit(2), lit(3)]);
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.counters.strengthened_clauses, 1);
        assert!(out.clauses.contains(&vec![lit(2), lit(3)]));
    }

    #[test]
    fn unit_propagation_deletes_and_strengthens() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.add_clause(vec![lit(1)]);
        s.add_clause(vec![lit(1), lit(2)]); // satisfied
        s.add_clause(vec![lit(-1), lit(3)]); // strengthens to unit x3
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.units, vec![lit(1), lit(3)]);
        assert!(out.clauses.is_empty());
    }

    #[test]
    fn eliminates_functionally_defined_variable() {
        // x3 ↔ (x1 ∧ x2) encoded with three clauses; x3 unfrozen. All
        // resolvents are tautological or subsumed, so x3 vanishes.
        let mut s = simplifier(3, &[1, 2]);
        s.add_clause(vec![lit(-3), lit(1)]);
        s.add_clause(vec![lit(-3), lit(2)]);
        s.add_clause(vec![lit(3), lit(-1), lit(-2)]);
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.counters.eliminated_vars, 1);
        assert_eq!(out.elim_stack.len(), 1);
        assert_eq!(out.elim_stack[0].var, Var::new(2));
        // The smaller occurrence side is stored: one positive clause vs two
        // negative ones.
        assert!(out.elim_stack[0].pol);
        assert_eq!(out.elim_stack[0].clauses.len(), 1);
        assert!(out.clauses.is_empty(), "all resolvents are tautologies");
    }

    #[test]
    fn frozen_variables_are_never_eliminated() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.add_clause(vec![lit(-3), lit(1)]);
        s.add_clause(vec![lit(-3), lit(2)]);
        s.add_clause(vec![lit(3), lit(-1), lit(-2)]);
        let out = s.run();
        assert_eq!(out.counters.eliminated_vars, 0);
        assert_eq!(out.clauses.len(), 3);
    }

    #[test]
    fn pure_literal_is_eliminated_without_resolvents() {
        let mut s = simplifier(3, &[2, 3]);
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(1), lit(3)]);
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.counters.eliminated_vars, 1);
        assert!(out.clauses.is_empty());
        // The empty (negative) occurrence side is stored, so extension
        // assigns x1 = true unconditionally and both original clauses hold.
        assert!(!out.elim_stack[0].pol);
        assert!(out.elim_stack[0].clauses.is_empty());
    }

    #[test]
    fn contradiction_is_detected() {
        let mut s = simplifier(1, &[]);
        s.add_clause(vec![lit(1)]);
        s.add_clause(vec![lit(-1)]);
        let out = s.run();
        assert!(out.unsat);
    }

    #[test]
    fn budget_zero_skips_all_optional_work() {
        let mut s = VectorSimplifier::new(3, vec![false; 3], 0, 0);
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(1), lit(2), lit(3)]);
        let out = s.run();
        assert!(!out.unsat);
        assert_eq!(out.counters.subsumed_clauses, 0);
        assert_eq!(out.counters.eliminated_vars, 0);
        assert_eq!(out.clauses.len(), 2);
    }

    #[test]
    fn proof_logs_subsumption_deletion() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.enable_proof();
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(1), lit(2), lit(3)]);
        let out = s.run();
        assert_eq!(out.counters.subsumed_clauses, 1);
        assert_eq!(
            out.proof,
            vec![DratStep::Delete(vec![lit(1), lit(2), lit(3)])]
        );
    }

    #[test]
    fn proof_logs_strengthening_add_before_delete() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.enable_proof();
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(-1), lit(2), lit(3)]);
        let out = s.run();
        assert_eq!(out.counters.strengthened_clauses, 1);
        assert_eq!(
            out.proof,
            vec![
                DratStep::Add(vec![lit(2), lit(3)]),
                DratStep::Delete(vec![lit(-1), lit(2), lit(3)]),
            ]
        );
    }

    #[test]
    fn proof_logs_resolvent_adds_before_parent_deletes() {
        // Eliminating x1 from (x1 ∨ x2) and (¬x1 ∨ x3) produces the single
        // resolvent (x2 ∨ x3); its addition must precede the parent deletes.
        let mut s = simplifier(3, &[2, 3]);
        s.enable_proof();
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(-1), lit(3)]);
        let out = s.run();
        assert_eq!(out.counters.eliminated_vars, 1);
        let add_pos = out
            .proof
            .iter()
            .position(|st| *st == DratStep::Add(vec![lit(2), lit(3)]))
            .expect("resolvent addition must be logged");
        let del_pos = out
            .proof
            .iter()
            .position(|st| st.is_delete())
            .expect("parent deletions must be logged");
        assert!(
            add_pos < del_pos,
            "resolvent add must precede parent deletes"
        );
    }

    #[test]
    fn proof_is_empty_when_logging_is_disabled() {
        let mut s = simplifier(3, &[1, 2, 3]);
        s.add_clause(vec![lit(1), lit(2)]);
        s.add_clause(vec![lit(1), lit(2), lit(3)]);
        let out = s.run();
        assert_eq!(out.counters.subsumed_clauses, 1);
        assert!(out.proof.is_empty());
    }

    #[test]
    fn run_is_deterministic() {
        let build = || {
            let mut s = simplifier(6, &[1, 2]);
            s.add_clause(vec![lit(1), lit(2), lit(3)]);
            s.add_clause(vec![lit(-3), lit(4)]);
            s.add_clause(vec![lit(-4), lit(5)]);
            s.add_clause(vec![lit(-5), lit(6)]);
            s.add_clause(vec![lit(-6), lit(1)]);
            s.add_clause(vec![lit(3), lit(-1)]);
            s.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.clauses, b.clauses);
        assert_eq!(a.units, b.units);
        assert_eq!(
            a.elim_stack.iter().map(|r| r.var).collect::<Vec<_>>(),
            b.elim_stack.iter().map(|r| r.var).collect::<Vec<_>>()
        );
    }
}
