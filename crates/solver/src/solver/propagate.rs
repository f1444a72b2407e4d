//! Unit propagation over the three watch families (binary, ternary and
//! long clauses), and attaching and detaching a clause to and from them.

use super::Solver;
use crate::clause_db::ClauseRef;
use pdsat_cnf::{Lit, Value};

/// Watch-list entry for clauses of length ≥ 4.
///
/// `blocker` is some literal of the clause other than the watched one; if it
/// is already true the clause cannot be unit or conflicting, so propagation
/// skips it without touching the clause arena at all.
#[derive(Debug, Clone, Copy)]
pub(super) struct Watcher {
    pub(super) cref: ClauseRef,
    pub(super) blocker: Lit,
}

/// Watch-list entry for binary clauses.
///
/// The clause is fully described by the falsified literal (the list index)
/// and `other`, so binary propagation never dereferences the arena; `cref`
/// is carried only to serve as the reason / conflict handle.
#[derive(Debug, Clone, Copy)]
pub(super) struct BinWatcher {
    pub(super) cref: ClauseRef,
    pub(super) other: Lit,
}

/// Watch-list entry for ternary clauses.
///
/// The clause is the falsified literal (the list index) plus `a` and `b`,
/// and it sits in the lists of all three of its literals, so a visit never
/// dereferences the arena, swaps a literal or moves a watch; `cref` is
/// carried only to serve as the reason / conflict handle.
#[derive(Debug, Clone, Copy)]
pub(super) struct TernWatcher {
    pub(super) cref: ClauseRef,
    pub(super) a: Lit,
    pub(super) b: Lit,
}

// A ternary visit multiplies the value bytes of the other two literals
// (`Solver::value_byte`): 1 is a conflict, 2 a unit clause, 0 and 4 nothing
// to do. Reordering `pdsat_cnf::Value` must fail here, not turn conflicts
// into no-ops.
const _: () =
    assert!(Value::True as u8 == 0 && Value::False as u8 == 1 && Value::Unassigned as u8 == 2);

impl Solver {
    /// Unit propagation. Returns the conflicting clause, if any.
    ///
    /// The inner loop performs no heap allocation: binary and ternary clauses
    /// are served, in that order, from dedicated per-literal lists without
    /// dereferencing the arena, and long-clause watch lists are updated in
    /// place with swap-remove semantics (read cursor `i`, write cursor `j`,
    /// truncate at the end). The watch list buffer is moved out with
    /// `mem::take` (a pointer swap, not a copy or allocation) purely to
    /// appease the borrow checker and is always moved back before the next
    /// literal is processed.
    pub(super) fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pcode = p.code();

            // Binary clauses first: the watcher itself carries the only other
            // literal, so this loop never dereferences the arena. The list is
            // never mutated during the scan (new watchers can only be pushed
            // by clause learning, which never runs inside propagation).
            let bins = std::mem::take(&mut self.bin_watches[pcode]);
            for bi in 0..bins.len() {
                let w = bins[bi];
                match self.lit_value(w.other) {
                    Value::True => {}
                    Value::False => {
                        self.qhead = self.trail.len();
                        self.bin_watches[pcode] = bins;
                        return Some(w.cref);
                    }
                    Value::Unassigned => self.unchecked_enqueue(w.other, Some(w.cref)),
                }
            }
            self.bin_watches[pcode] = bins;

            // Ternary clauses next, in attach order: `¬p` is false, so the
            // clause is decided by its other two literals, both inline. The
            // product of their value bytes is 1 for false·false (conflict),
            // 2 for false·unassigned (unit) and 0 or 4 when either is true or
            // both are open — one well-predicted branch for the visits, about
            // nine in ten, that have nothing to do. Like the binary list this
            // one is never mutated during the scan.
            let terns = std::mem::take(&mut self.tern_watches[pcode]);
            for ti in 0..terns.len() {
                let w = terns[ti];
                let product = self.value_byte(w.a) * self.value_byte(w.b);
                if !matches!(product, 1 | 2) {
                    continue;
                }
                if product == 1 {
                    self.qhead = self.trail.len();
                    self.tern_watches[pcode] = terns;
                    return Some(w.cref);
                }
                let implied = if self.lit_value(w.a) == Value::False {
                    w.b
                } else {
                    w.a
                };
                self.unchecked_enqueue(implied, Some(w.cref));
            }
            self.tern_watches[pcode] = terns;

            let false_lit = !p;
            let mut watchers = std::mem::take(&mut self.watches[pcode]);
            let num_watchers = watchers.len();
            let mut i = 0;
            let mut j = 0;
            let mut conflict: Option<ClauseRef> = None;
            'watchers: while i < num_watchers {
                let w = watchers[i];
                i += 1;
                // Fast path: the blocker literal is already true.
                if self.lit_value(w.blocker) == Value::True {
                    watchers[j] = w;
                    j += 1;
                    continue;
                }
                // Deleted clauses are detached eagerly (`reduce_db`) and
                // relocated refs rewritten at GC, so every watcher here
                // points at a live clause.
                debug_assert!(!self.db.is_deleted(w.cref));
                debug_assert!(self.db.len_of(w.cref) > 3, "ternaries never sit here");
                // Make sure the false literal is at position 1.
                if self.db.lit(w.cref, 0) == false_lit {
                    self.db.swap_lits(w.cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(w.cref, 1), false_lit);
                let first = self.db.lit(w.cref, 0);
                let new_watcher = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == Value::True {
                    watchers[j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len_of(w.cref);
                for k in 2..len {
                    let lk = self.db.lit(w.cref, k);
                    if self.lit_value(lk) != Value::False {
                        self.db.swap_lits(w.cref, 1, k);
                        // `lk` is not false, so it is never `¬p`: this push
                        // cannot touch the (taken) list we are compacting.
                        self.watches[(!lk).code()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                watchers[j] = new_watcher;
                j += 1;
                if self.lit_value(first) == Value::False {
                    // Conflict: keep the remaining watchers and stop.
                    watchers.copy_within(i..num_watchers, j);
                    j += num_watchers - i;
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                    break;
                }
                self.unchecked_enqueue(first, Some(w.cref));
            }
            watchers.truncate(j);
            self.watches[pcode] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    pub(super) fn attach_clause(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.len_of(cref) >= 2);
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        match self.db.len_of(cref) {
            2 => {
                self.bin_watches[(!l0).code()].push(BinWatcher { cref, other: l1 });
                self.bin_watches[(!l1).code()].push(BinWatcher { cref, other: l0 });
            }
            3 => {
                let l2 = self.db.lit(cref, 2);
                self.tern_watches[(!l0).code()].push(TernWatcher { cref, a: l1, b: l2 });
                self.tern_watches[(!l1).code()].push(TernWatcher { cref, a: l0, b: l2 });
                self.tern_watches[(!l2).code()].push(TernWatcher { cref, a: l0, b: l1 });
            }
            _ => {
                self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
                self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
            }
        }
    }

    pub(super) fn detach_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        match self.db.len_of(cref) {
            2 => {
                self.bin_watches[(!l0).code()].retain(|w| w.cref != cref);
                self.bin_watches[(!l1).code()].retain(|w| w.cref != cref);
            }
            3 => {
                for l in [l0, l1, self.db.lit(cref, 2)] {
                    self.tern_watches[(!l).code()].retain(|w| w.cref != cref);
                }
            }
            _ => {
                self.watches[(!l0).code()].retain(|w| w.cref != cref);
                self.watches[(!l1).code()].retain(|w| w.cref != cref);
            }
        }
    }
}
