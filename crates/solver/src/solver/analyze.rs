//! First-UIP conflict analysis with basic minimization, the hint order of
//! a learnt clause's antecedents, and variable and clause activities.

use super::Solver;
use crate::clause_db::ClauseRef;
use crate::config::{CLAUSE_DECAY, VAR_DECAY};
use pdsat_cnf::{Lit, Var};

impl Solver {
    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt_buf` and returns the backtrack level
    /// and the clause LBD. The buffer is reused across conflicts, so
    /// conflict handling allocates nothing in steady state. With `PROOF`
    /// (proof logging on) it also queues the clause's antecedents in the
    /// proof logger; without it, it is the same code as if that were not
    /// there. Kept out of line: each instance has one call site, and
    /// inlining both would put two copies of analysis into `search`, around
    /// its conflict-free path.
    #[inline(never)]
    pub(super) fn analyze<const PROOF: bool>(&mut self, conflict: ClauseRef) -> (u32, u32) {
        self.learnt_buf.clear();
        self.learnt_buf.push(Lit::positive(Var::new(0))); // slot 0 reserved
        let mut path_c: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;

        loop {
            if self.db.is_learnt(confl) {
                self.bump_clause_activity(confl);
            }
            let clause_len = self.db.len_of(confl);
            for j in 0..clause_len {
                let q = self.db.lit(confl, j);
                // Skip the literal this reason clause implied (for long
                // clauses it sits at position 0, but binary and ternary
                // reasons are served from their watch lists without
                // reordering the arena copy, so match by value instead of
                // position).
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.vardata[v.index()].level > 0 {
                    self.bump_var_activity(v);
                    self.conflict_counts[v.index()] += 1;
                    self.seen[v.index()] = true;
                    if self.vardata[v.index()].level >= self.decision_level() {
                        path_c += 1;
                    } else {
                        self.learnt_buf.push(q);
                    }
                }
            }
            // Select the next literal (on the current decision level) to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit_p = self.trail[index];
            p = Some(lit_p);
            self.seen[lit_p.var().index()] = false;
            path_c -= 1;
            if path_c == 0 {
                break;
            }
            confl = self.vardata[lit_p.var().index()]
                .reason
                .expect("non-decision literal on the conflict side has a reason");
            if PROOF {
                if let Some(log) = self.proof.as_mut() {
                    log.antecedents.push(confl);
                }
            }
        }
        self.learnt_buf[0] = !p.expect("analysis visited at least one literal");

        // Basic (local) clause minimization: a literal is redundant if its
        // reason clause only contains literals that are already in the learnt
        // clause (or are at level 0). The variables whose `seen` flag must be
        // reset afterwards are remembered in a reusable scratch buffer
        // (compaction below overwrites dropped literals).
        self.toclear_buf.clear();
        for i in 0..self.learnt_buf.len() {
            let v = self.learnt_buf[i].var();
            self.toclear_buf.push(v);
        }
        let before = self.learnt_buf.len();
        if self.learnt_buf.len() > 1 {
            let mut j = 1;
            for i in 1..self.learnt_buf.len() {
                let lit = self.learnt_buf[i];
                let v = lit.var();
                let keep = match self.vardata[v.index()].reason {
                    None => true,
                    // Skip the implied literal by variable (it is `¬lit`'s
                    // variable) rather than by position; binary and ternary
                    // reasons do not maintain the position-0 invariant.
                    Some(reason) => (0..self.db.len_of(reason)).any(|k| {
                        let q = self.db.lit(reason, k);
                        q.var() != v
                            && !self.seen[q.var().index()]
                            && self.vardata[q.var().index()].level > 0
                    }),
                };
                if keep {
                    self.learnt_buf[j] = lit;
                    j += 1;
                }
            }
            self.learnt_buf.truncate(j);
        }
        self.stats.learnt_literals += self.learnt_buf.len() as u64;
        self.stats.minimized_literals += (before - self.learnt_buf.len()) as u64;
        if PROOF {
            self.order_antecedents(conflict);
        }
        for i in 0..self.toclear_buf.len() {
            let v = self.toclear_buf[i];
            self.seen[v.index()] = false;
        }

        // Compute the backtrack level and move the highest-level literal to slot 1.
        let backtrack_level = if self.learnt_buf.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt_buf.len() {
                if self.vardata[self.learnt_buf[i].var().index()].level
                    > self.vardata[self.learnt_buf[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            self.learnt_buf.swap(1, max_i);
            self.vardata[self.learnt_buf[1].var().index()].level
        };

        // Literal block distance: number of distinct decision levels.
        self.levels_buf.clear();
        for i in 0..self.learnt_buf.len() {
            let level = self.vardata[self.learnt_buf[i].var().index()].level;
            self.levels_buf.push(level);
        }
        self.levels_buf.sort_unstable();
        self.levels_buf.dedup();
        let lbd = self.levels_buf.len() as u32;

        (backtrack_level, lbd)
    }

    /// Proof logging only: puts the antecedents of the clause `analyze` just
    /// learnt from `conflict` in hint order (see the `proof` module). Runs
    /// before `analyze` clears `seen`, while it marks exactly the lower-level
    /// literals of the unminimized clause; it clears some of those marks and
    /// sets no other.
    pub(super) fn order_antecedents(&mut self, conflict: ClauseRef) {
        let mut log = self.proof.take().expect("proof logging is on");
        // Queued as resolved, in reverse trail order.
        let resolved = log.antecedents.len();
        log.antecedents.reverse();
        // Reasons of the literals minimization removed: unmark the kept ones,
        // then walk depth-first from each removed literal, so that a reason is
        // queued after those of the removed literals it mentions (they were
        // assigned before it).
        for l in &self.learnt_buf[1..] {
            self.seen[l.var().index()] = false;
        }
        for i in 1..self.toclear_buf.len() {
            let root = self.toclear_buf[i];
            if !self.seen[root.index()] {
                continue;
            }
            self.seen[root.index()] = false;
            log.stack.push(root);
            while let Some(&v) = log.stack.last() {
                let reason = self.vardata[v.index()]
                    .reason
                    .expect("minimization removes implied literals only");
                let removed = (0..self.db.len_of(reason))
                    .map(|k| self.db.lit(reason, k).var())
                    .find(|&u| u != v && self.seen[u.index()]);
                match removed {
                    Some(u) => {
                        self.seen[u.index()] = false;
                        log.stack.push(u);
                    }
                    None => {
                        log.stack.pop();
                        log.antecedents.push(reason);
                    }
                }
            }
        }
        // Removed literals' reasons first, then the resolved ones, then the
        // conflict clause.
        let removed = log.antecedents.len() - resolved;
        log.antecedents.rotate_right(removed);
        log.antecedents.push(conflict);
        self.proof = Some(log);
    }

    pub(super) fn bump_var_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order_heap.rebuild(&self.activity);
        }
        self.order_heap.increased(v, &self.activity);
    }

    pub(super) fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    pub(super) fn bump_clause_activity(&mut self, cref: ClauseRef) {
        let act = self.db.activity(cref) + self.cla_inc as f32;
        self.db.set_activity(cref, act);
        if act > 1e20 {
            for i in 0..self.learnts.len() {
                let learnt = self.learnts[i];
                let rescaled = self.db.activity(learnt) * 1e-20;
                self.db.set_activity(learnt, rescaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    pub(super) fn decay_clause_activity(&mut self) {
        self.cla_inc /= CLAUSE_DECAY;
    }
}
