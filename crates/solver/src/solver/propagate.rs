//! Unit propagation over the three watch families (binary, ternary and
//! long clauses), the shared table the loaded formula's binary and ternary
//! watchers live in, the per-literal lists behind a nullable handle that
//! hold the rest, and attaching and detaching a clause.

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

/// The watchers one literal code holds outside the shared table, each kind
/// in attach order: learnt clauses, originals added after the load, and
/// every clause of four or more literals.
#[derive(Debug, Clone, Default)]
pub(super) struct WatchLists {
    pub(super) bins: Vec<BinWatcher>,
    pub(super) terns: Vec<TernWatcher>,
    pub(super) longs: Vec<Watcher>,
}

/// A literal code's [`WatchLists`], null until the literal first watches a
/// clause the table does not hold: one pointer per literal code, so a
/// loaded formula whose watchers all sit in the table writes, copies and
/// walks 8 bytes per literal code instead of three list headers.
pub(super) type WatchHandle = Option<Box<WatchLists>>;

/// Emptied [`WatchLists`] kept for reuse. They stay boxed, so that giving
/// one to a null handle moves a pointer and allocates nothing.
#[allow(clippy::vec_box)]
pub(super) type SpareLists = Vec<Box<WatchLists>>;

impl WatchLists {
    fn clear(&mut self) {
        self.bins.clear();
        self.terns.clear();
        self.longs.clear();
    }
}

/// The binary and ternary watchers of the originals a formula was loaded
/// with (`Solver::from_cnf_with_config`), per literal code in attach order.
/// Nothing writes it once loading ends, so a clone shares it through the
/// `Arc` instead of copying it, and a literal's [`WatchLists`]
/// keep only the long clauses, learnt clauses and originals added after the
/// load. A loaded original precedes every learnt clause in the arena and is
/// never deleted, so a garbage collection never moves a [`ClauseRef`] held
/// here.
pub(super) struct WatchTable {
    bins: FlatLists<BinWatcher>,
    terns: FlatLists<TernWatcher>,
}

/// The table of a solver that loaded no formula.
static NO_TABLE: WatchTable = WatchTable {
    bins: FlatLists::EMPTY,
    terns: FlatLists::EMPTY,
};

impl WatchTable {
    /// An open table with `bins[c]` binary and `terns[c]` ternary slots for
    /// literal code `c`.
    pub(super) fn with_slots(bins: &[u32], terns: &[u32]) -> WatchTable {
        let (cref, lit) = (ClauseRef::UNUSED, Lit::from_code(0));
        WatchTable {
            bins: FlatLists::with_slots(bins, BinWatcher { cref, other: lit }),
            terns: FlatLists::with_slots(
                terns,
                TernWatcher {
                    cref,
                    a: lit,
                    b: lit,
                },
            ),
        }
    }

    /// Closes the table once the formula is loaded: the slots normalisation
    /// left empty are squeezed out, in place.
    pub(super) fn seal(&mut self) {
        self.bins.compact();
        self.terns.compact();
    }

    /// Every clause the table watches, once per watcher.
    pub(super) fn crefs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let bins = self.bins.items.iter().map(|w| w.cref);
        bins.chain(self.terns.items.iter().map(|w| w.cref))
    }
}

/// Per-literal lists laid out back to back in one array: literal code `c`'s
/// entries are `items[ranges[c].0..ranges[c].1]`. While the table is open the
/// run of `c` may end short of the next one's start, and
/// [`push`](FlatLists::push) fills that slack; once sealed the runs abut.
pub(super) struct FlatLists<T> {
    ranges: Vec<(u32, u32)>,
    items: Vec<T>,
}

impl<T: Copy> FlatLists<T> {
    const EMPTY: FlatLists<T> = FlatLists {
        ranges: Vec::new(),
        items: Vec::new(),
    };

    /// `slots[c]` empty slots for literal code `c`, filled with `fill`.
    fn with_slots(slots: &[u32], fill: T) -> FlatLists<T> {
        let mut start = 0u32;
        let ranges = slots
            .iter()
            .map(|&n| {
                let range = (start, start);
                start += n;
                range
            })
            .collect();
        FlatLists {
            ranges,
            items: vec![fill; start as usize],
        }
    }

    /// The entries of literal code `code`; none for a literal the table was
    /// not sized for (a variable created after the load).
    #[inline]
    fn get(&self, code: usize) -> &[T] {
        match self.ranges.get(code) {
            Some(&(start, end)) => &self.items[start as usize..end as usize],
            None => &[],
        }
    }

    /// Appends `item` to the run of `code`; `false` when the run has no slot
    /// left.
    fn push(&mut self, code: usize, item: T) -> bool {
        let Some(&(_, end)) = self.ranges.get(code) else {
            return false;
        };
        let limit = self
            .ranges
            .get(code + 1)
            .map_or(self.items.len(), |next| next.0 as usize);
        if end as usize == limit {
            return false;
        }
        self.items[end as usize] = item;
        self.ranges[code].1 += 1;
        true
    }

    /// Moves every run down to abut the previous one and frees the slack. A
    /// run already in place is not copied, and a table without slack (every
    /// slot filled, as when a formula's units come last) is left as it is.
    fn compact(&mut self) {
        let mut write = 0u32;
        for range in &mut self.ranges {
            let (start, end) = *range;
            if start != write {
                self.items
                    .copy_within(start as usize..end as usize, write as usize);
                *range = (write, write + (end - start));
            }
            write += end - start;
        }
        if write as usize != self.items.len() {
            self.items.truncate(write as usize);
            self.items.shrink_to_fit();
        }
    }
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
    /// Binary and ternary clauses are served, in that order, from the
    /// shared table of the loaded formula and then from the literal's own
    /// lists, by value and without dereferencing the arena (nothing pushes
    /// onto those lists during a scan); long-clause watch lists are updated
    /// in place with swap-remove semantics (read cursor `i`, write cursor
    /// `j`, truncate at the end). The literal's lists are moved out of their
    /// handle for its visit (a pointer move, not a copy or allocation) and
    /// always moved back before the next literal is processed. A literal
    /// with a null handle costs one load beyond its table runs.
    pub(super) fn propagate(&mut self) -> Option<ClauseRef> {
        // A solve entered on a settled trail (a cube the retained trail
        // decides) has nothing queued: the table is not touched.
        if self.qhead == self.trail.len() {
            return None;
        }
        // Moved out for the call and back: no reference count is touched.
        let table = self.table.take();
        let conflict = self.propagate_from(table.as_deref().unwrap_or(&NO_TABLE));
        self.table = table;
        conflict
    }

    /// The loaded formula's watch table (an empty one if there is none).
    pub(super) fn table(&self) -> &WatchTable {
        self.table.as_deref().unwrap_or(&NO_TABLE)
    }

    /// [`propagate`](Self::propagate), with the watch table moved out of
    /// `self`.
    pub(super) fn propagate_from(&mut self, table: &WatchTable) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pcode = p.code();

            // Binary clauses first: the watcher itself carries the only other
            // literal, so these loops never dereference the arena. The
            // table's come first: every loaded original was attached before
            // anything in the lists, so this is attach order.
            for &w in table.bins.get(pcode) {
                if self.visit_bin(w) {
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
            }
            // Nothing attaches to `pcode` while it is visited: a long
            // watcher moves to a literal that is not false, never to `¬p`.
            let mut own = self.watches[pcode].take();
            let conflict = 'visit: {
                if let Some(own) = own.as_deref() {
                    for &w in &own.bins {
                        if self.visit_bin(w) {
                            break 'visit Some(w.cref);
                        }
                    }
                }
                // Ternary clauses next, table then list, in attach order.
                for &w in table.terns.get(pcode) {
                    if self.visit_tern(w) {
                        break 'visit Some(w.cref);
                    }
                }
                let Some(own) = own.as_deref_mut() else {
                    break 'visit None;
                };
                for &w in &own.terns {
                    if self.visit_tern(w) {
                        break 'visit Some(w.cref);
                    }
                }
                // Long clauses last; most literals watch none of them. The
                // list is moved out of the heap for the scan, so that no
                // store the scan makes can touch its header.
                if own.longs.is_empty() {
                    break 'visit None;
                }
                let mut longs = std::mem::take(&mut own.longs);
                let conflict = self.visit_longs(p, &mut longs);
                own.longs = longs;
                conflict
            };
            self.watches[pcode] = own;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// The long clauses watched by `¬p`, just falsified: each moves its
    /// watch to a literal that is not false, or is unit (its first literal
    /// is enqueued) or conflicting (returned, the remaining watchers kept).
    #[inline(always)]
    fn visit_longs(&mut self, p: Lit, watchers: &mut Vec<Watcher>) -> Option<ClauseRef> {
        let false_lit = !p;
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
                    // cannot touch the (moved-out) lists being compacted.
                    self.lists_mut((!lk).code()).longs.push(new_watcher);
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
                conflict = Some(w.cref);
                break;
            }
            self.unchecked_enqueue(first, Some(w.cref));
        }
        watchers.truncate(j);
        conflict
    }

    /// A binary clause seen from its falsified literal: enqueues `other`
    /// when it is open; `true` when it is false (a conflict).
    #[inline(always)]
    fn visit_bin(&mut self, w: BinWatcher) -> bool {
        match self.lit_value(w.other) {
            Value::True => false,
            Value::False => true,
            Value::Unassigned => {
                self.unchecked_enqueue(w.other, Some(w.cref));
                false
            }
        }
    }

    /// A ternary clause seen from its falsified literal, decided by its
    /// other two, both inline: enqueues the open one when the other is
    /// false; `true` when both are false (a conflict). The product of their
    /// value bytes is 1 for false·false, 2 for false·unassigned and 0 or 4
    /// when either is true or both are open — one well-predicted branch for
    /// the visits, about nine in ten, that have nothing to do.
    #[inline(always)]
    fn visit_tern(&mut self, w: TernWatcher) -> bool {
        let product = self.value_byte(w.a) * self.value_byte(w.b);
        if !matches!(product, 1 | 2) {
            return false;
        }
        if product == 1 {
            return true;
        }
        let implied = if self.lit_value(w.a) == Value::False {
            w.b
        } else {
            w.a
        };
        self.unchecked_enqueue(implied, Some(w.cref));
        false
    }

    /// The lists of literal code `code`; a null handle first gets a spare
    /// one, or a new one when there is no spare, and the code joins the
    /// handles a rewind nulls again.
    fn lists_mut(&mut self, code: usize) -> &mut WatchLists {
        let handle = &mut self.watches[code];
        if handle.is_none() {
            self.created_lists.push(code);
        }
        let spares = &mut self.spare_watches;
        handle.get_or_insert_with(|| spare_or_new(spares))
    }

    /// Attaches a clause to its watch family. While the formula loads into
    /// `table`, an original's binary and ternary watchers go there; a
    /// literal whose run there is full (a longer clause that root
    /// assignments shortened) takes that watcher and every later one in its
    /// list instead, so table then list stays attach order.
    pub(super) fn attach_clause(&mut self, cref: ClauseRef, mut table: Option<&mut WatchTable>) {
        debug_assert!(self.db.len_of(cref) >= 2);
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        match self.db.len_of(cref) {
            2 => {
                for (l, other) in [(l0, l1), (l1, l0)] {
                    let code = (!l).code();
                    let w = BinWatcher { cref, other };
                    if !table.as_deref_mut().is_some_and(|t| t.bins.push(code, w)) {
                        self.lists_mut(code).bins.push(w);
                    }
                }
            }
            3 => {
                let l2 = self.db.lit(cref, 2);
                for (l, a, b) in [(l0, l1, l2), (l1, l0, l2), (l2, l0, l1)] {
                    let code = (!l).code();
                    let w = TernWatcher { cref, a, b };
                    if !table.as_deref_mut().is_some_and(|t| t.terns.push(code, w)) {
                        self.lists_mut(code).terns.push(w);
                    }
                }
            }
            _ => {
                self.lists_mut((!l0).code())
                    .longs
                    .push(Watcher { cref, blocker: l1 });
                self.lists_mut((!l1).code())
                    .longs
                    .push(Watcher { cref, blocker: l0 });
            }
        }
    }

    pub(super) fn detach_clause(&mut self, cref: ClauseRef) {
        // Only learnt clauses are detached, and the table holds none.
        debug_assert!(self.db.is_learnt(cref));
        let len = self.db.len_of(cref);
        // Every literal of a ternary clause watches it; of any other, the
        // first two.
        for k in 0..if len == 3 { 3 } else { 2 } {
            let code = (!self.db.lit(cref, k)).code();
            let Some(lists) = self.watches[code].as_deref_mut() else {
                continue;
            };
            match len {
                2 => lists.bins.retain(|w| w.cref != cref),
                3 => lists.terns.retain(|w| w.cref != cref),
                _ => lists.longs.retain(|w| w.cref != cref),
            }
        }
    }
}

/// The lists a literal code held when the formula finished loading: its
/// long watchers (a solve moves them between literals), and its binary and
/// ternary watchers (a table run that filled up at load), which stay a
/// prefix of its lists — only learnt ones are ever detached, and a
/// collection moves no loaded clause.
#[derive(Debug, Clone)]
pub(super) struct LoadedLists {
    code: usize,
    bins: usize,
    terns: usize,
    longs: Vec<Watcher>,
}

impl LoadedLists {
    /// What the non-null handles `codes` of `watches` hold now.
    pub(super) fn of(watches: &[WatchHandle], codes: &[usize]) -> Vec<LoadedLists> {
        codes
            .iter()
            .map(|&code| {
                let lists = watches[code].as_deref().expect("a listed handle is set");
                LoadedLists {
                    code,
                    bins: lists.bins.len(),
                    terns: lists.terns.len(),
                    longs: lists.longs.clone(),
                }
            })
            .collect()
    }
}

/// Returns the watch lists to what they were at the load: the handles
/// `created` since go back to null, their lists to the spares, and the
/// lists in `loaded` get their load-time contents back. Handles of literal
/// codes past `codes` (variables a solve created) are among `created`, and
/// are dropped with the codes.
pub(super) fn rewind_watches(
    watches: &mut Vec<WatchHandle>,
    spares: &mut SpareLists,
    created: &mut Vec<usize>,
    loaded: &[LoadedLists],
    codes: usize,
) {
    for code in created.drain(..) {
        if let Some(lists) = watches[code].take() {
            keep_spare(spares, lists);
        }
    }
    debug_assert!(watches[codes.min(watches.len())..]
        .iter()
        .all(Option::is_none));
    watches.truncate(codes);
    for at_load in loaded {
        let lists = watches[at_load.code]
            .as_deref_mut()
            .expect("a handle set at the load stays set");
        lists.bins.truncate(at_load.bins);
        lists.terns.truncate(at_load.terns);
        lists.longs.clone_from(&at_load.longs);
    }
}

/// An empty [`WatchLists`]: a spare if there is one, else a new one.
fn spare_or_new(spares: &mut SpareLists) -> Box<WatchLists> {
    spares.pop().unwrap_or_default()
}

/// Empties `lists` and keeps them for [`spare_or_new`].
fn keep_spare(spares: &mut SpareLists, mut lists: Box<WatchLists>) {
    lists.clear();
    spares.push(lists);
}
