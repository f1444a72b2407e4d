//! The learnt-clause database: which clauses are locked, reduction, and
//! compaction of the clause arena.

use super::Solver;
use crate::clause_db::ClauseRef;
use crate::config::{LEARNTSIZE_INC, PROTECTED_LBD};
use pdsat_cnf::Value;

impl Solver {
    /// Whether the clause is the reason of a current assignment. A long
    /// clause implies its position-0 literal; nothing reorders the arena copy
    /// of a ternary one, so any of its three literals can be the implied one.
    pub(super) fn is_locked(&self, cref: ClauseRef) -> bool {
        let positions = if self.db.len_of(cref) == 3 { 3 } else { 1 };
        (0..positions).any(|k| {
            let l = self.db.lit(cref, k);
            self.lit_value(l) == Value::True && self.vardata[l.var().index()].reason == Some(cref)
        })
    }

    /// Removes roughly half of the learnt clauses, preferring clauses with
    /// low activity and high LBD. Clauses that are reasons for current
    /// assignments, have LBD ≤ `PROTECTED_LBD`, or are binary are kept.
    pub(super) fn reduce_db(&mut self) {
        let mut candidates: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| {
                !self.db.is_deleted(c)
                    && !self.is_locked(c)
                    && self.db.len_of(c) > 2
                    && self.db.lbd(c) > PROTECTED_LBD
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = candidates.len() / 2;
        for &cref in candidates.iter().take(to_remove) {
            self.detach_clause(cref);
            if self.proof.is_some() {
                let lits = self.db.lits_vec(cref);
                if let Some(p) = self.proof.as_mut() {
                    p.delete(lits);
                }
            }
            self.db.mark_deleted(cref);
            self.stats.removed_clauses += 1;
        }
        if let Some(p) = self.proof.as_mut() {
            p.retain_learnts(&self.learnts, &self.db);
        }
        self.learnts.retain(|&c| !self.db.is_deleted(c));
        self.max_learnts *= LEARNTSIZE_INC;
        if self.db.should_collect(self.policy.garbage_frac) {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena and rewrites every stored [`ClauseRef`]
    /// through the relocation table: the watch lists behind every non-null
    /// handle (binary, ternary and long, each kept in order), the
    /// original/learnt rosters, and reason slots of assigned variables.
    /// The shared watch table needs none: its clauses were loaded before any
    /// learnt one and are never deleted, so nothing ahead of them moves.
    pub(super) fn collect_garbage(&mut self) {
        let reloc = self.db.collect();
        debug_assert!(self
            .table()
            .crefs()
            .all(|cref| reloc.new_ref(cref) == Some(cref)));
        let relocate = |cref: &mut ClauseRef| match reloc.new_ref(*cref) {
            Some(nc) => {
                *cref = nc;
                true
            }
            None => false,
        };
        for lists in self.watches.iter_mut().flatten() {
            lists.bins.retain_mut(|w| relocate(&mut w.cref));
            lists.terns.retain_mut(|w| relocate(&mut w.cref));
            lists.longs.retain_mut(|w| relocate(&mut w.cref));
        }
        for cref in &mut self.original {
            *cref = reloc
                .new_ref(*cref)
                .expect("original clauses are never deleted");
        }
        for cref in &mut self.learnts {
            *cref = reloc
                .new_ref(*cref)
                .expect("deleted learnts were pruned before collection");
        }
        for data in &mut self.vardata {
            if let Some(reason) = data.reason {
                data.reason = Some(
                    reloc
                        .new_ref(reason)
                        .expect("reason clauses are locked and never deleted"),
                );
            }
        }
        self.stats.gc_runs += 1;
    }
}
