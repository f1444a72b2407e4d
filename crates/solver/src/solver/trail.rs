//! The assignment and its trail: literal values, decision levels,
//! enqueueing, backtracking (to a level, to where assumptions diverge, and
//! at the end of a solve call), branching and the model.

use super::Solver;
use crate::clause_db::ClauseRef;
use pdsat_cnf::{Assignment, Lit, Value, Var};

#[derive(Debug, Clone, Copy)]
pub(super) struct VarData {
    pub(super) reason: Option<ClauseRef>,
    pub(super) level: u32,
}

impl Solver {
    #[inline]
    pub(super) fn lit_value(&self, lit: Lit) -> Value {
        self.assigns[lit.code()]
    }

    /// The value of `lit` as its discriminant (true 0, false 1, unassigned
    /// 2), for the product test of a ternary visit in `propagate`.
    #[inline]
    pub(super) fn value_byte(&self, lit: Lit) -> u8 {
        self.lit_value(lit) as u8
    }

    #[inline]
    pub(super) fn var_value(&self, var: Var) -> Value {
        self.assigns[Lit::positive(var).code()]
    }

    pub(super) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(super) fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    pub(super) fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), Value::Unassigned);
        self.assigns[lit.code()] = Value::True;
        self.assigns[(!lit).code()] = Value::False;
        self.vardata[lit.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(lit);
    }

    /// Backtracks to `level`. Only the unassigning loop is a call: a warm
    /// cube's entry, retract or restart often has nothing to undo.
    #[inline]
    pub(super) fn cancel_until(&mut self, level: u32) {
        if self.decision_level() > level {
            self.unassign_above(level);
        }
    }

    #[inline(never)]
    fn unassign_above(&mut self, level: u32) {
        let bound = self.trail_lim[level as usize];
        for c in (bound..self.trail.len()).rev() {
            let lit = self.trail[c];
            let v = lit.var();
            self.assigns[lit.code()] = Value::Unassigned;
            self.assigns[(!lit).code()] = Value::Unassigned;
            self.polarity[v.index()] = lit.is_positive();
            self.vardata[v.index()].reason = None;
            self.order_heap.insert(v, &self.activity);
        }
        self.qhead = bound;
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
    }

    /// Trail position of the boundary below decision level `level + 1`, i.e.
    /// the number of trail literals a `cancel_until(level)` would keep.
    pub(super) fn level_bound(&self, level: usize) -> usize {
        if level < self.trail_lim.len() {
            self.trail_lim[level]
        } else {
            self.trail.len()
        }
    }

    /// Backtracks exactly to the point where `assumptions` diverge from the
    /// assumption trail retained by the previous solve call, instead of to
    /// the root level. The matching prefix of assumption levels — and every
    /// unit propagation below it — stays assigned and is *not* replayed; the
    /// skipped work is accounted in [`SolverStats::reused_assumptions`] and
    /// [`SolverStats::saved_propagations`].
    ///
    /// The retained prefix is exactly the unit-propagation closure of the
    /// matched assumptions under the current clause database (see DESIGN.md
    /// for the invariant and why learnt clauses cannot break it), so the
    /// search continues precisely as if the prefix had been replayed.
    pub(super) fn cancel_until_assumption_divergence(&mut self, assumptions: &[Lit]) {
        debug_assert_eq!(self.saved_assumptions.len(), self.decision_level() as usize);
        let matched = self
            .saved_assumptions
            .iter()
            .zip(assumptions)
            .take_while(|(saved, new)| saved == new)
            .count();
        self.cancel_until(matched as u32);
        self.saved_assumptions.truncate(matched);
        if matched > 0 {
            self.stats.reused_assumptions += matched as u64;
            let replay = self.trail.len() - self.level_bound(0);
            self.stats.saved_propagations += replay as u64;
        }
    }

    /// Ends a solve call: the established assumption levels stay assigned for
    /// the next call to reuse (the replay reference, and a formula proven
    /// unsatisfiable at the root, do MiniSat's `cancel_until(0)`). Only a
    /// fully propagated prefix is retained — an exit right after a conflict
    /// leaves the asserting literal pending, and keeping an unpropagated
    /// literal while `qhead` skips past it could let a falsified clause go
    /// unnoticed in the next call.
    pub(super) fn retract_after_solve(&mut self, assumptions: &[Lit]) {
        if self.policy.replay || !self.ok {
            self.cancel_until(0);
            self.saved_assumptions.clear();
            return;
        }
        let mut keep = (self.decision_level() as usize).min(assumptions.len());
        while keep > 0 && self.level_bound(keep) > self.qhead {
            keep -= 1;
        }
        self.cancel_until(keep as u32);
        // `saved_assumptions` still holds the prefix matched on entry, which
        // is itself a prefix of `assumptions` — extend or trim it instead of
        // recopying (a full-match repeat touches nothing).
        if keep >= self.saved_assumptions.len() {
            self.saved_assumptions
                .extend_from_slice(&assumptions[self.saved_assumptions.len()..keep]);
        } else {
            self.saved_assumptions.truncate(keep);
        }
    }

    pub(super) fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order_heap.pop_max(&self.activity)?;
            if self.var_value(v) == Value::Unassigned {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
    }

    pub(super) fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars());
        for i in 0..self.num_vars() {
            let v = Var::new(i as u32);
            model.assign(v, self.var_value(v).to_bool().unwrap_or(false));
        }
        model
    }
}
