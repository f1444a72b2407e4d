//! Flat clause arena for the CDCL solver.
//!
//! # Memory layout
//!
//! All clauses — original and learnt — live in one contiguous `Vec<u32>`
//! (MiniSat / splr style). A clause occupies `HEADER_WORDS + len`
//! consecutive words:
//!
//! ```text
//! word 0   header: bit 0 = learnt, bit 1 = deleted, bits 2..32 = length
//! word 1   LBD (glue) of the clause; forward pointer during GC (see below)
//! word 2   learnt: activity as IEEE-754 f32 bits (learnt-clause deletion
//!          policy); original: its id in the DRAT proof when proof logging
//!          is on (see `proof.rs`), 0 otherwise
//! word 3…  the literals, as Lit codes (2·var + sign)
//! ```
//!
//! A [`ClauseRef`] is the word offset of the clause header in the arena, so
//! dereferencing a clause is a single indexed load into memory that is
//! contiguous with its literals — the unit-propagation inner loop touches
//! exactly one cache line for short clauses instead of chasing a `Vec<Lit>`
//! heap pointer per clause.
//!
//! # Invariants relied on by the solver
//!
//! * **Watched literals:** for every live clause of length ≥ 4, literal
//!   positions 0 and 1 are the watched literals, and the clause appears in
//!   exactly the watch lists of `¬lits[0]` and `¬lits[1]`. Binary and ternary
//!   clauses are *not* watched through the arena at all; they are mirrored
//!   at attach time — a binary clause under both its literals, a ternary
//!   clause under all three, each entry carrying the other literal(s)
//!   inline — and their arena copy keeps the order it was added in and is
//!   only read by conflict analysis, clause minimization, `is_locked`,
//!   detaching and proof logging. The originals loaded by
//!   `Solver::from_cnf_with_config` are mirrored into one immutable table
//!   that every clone of the solver shares; learnt clauses, and originals
//!   added after the load, into the literal's own lists, which sit with its
//!   long-clause watchers behind one nullable handle per literal code (null
//!   until the literal first watches such a clause). A loaded original is
//!   attached before anything else, so visiting a literal's table entries
//!   and then its list entries (binaries, then ternaries) is attach order.
//!   A literal whose run in the table filled up at load (a longer clause
//!   shortened by root assignments) keeps its later loaded watchers in its
//!   list, which keeps that order.
//! * **Reason position:** whenever a clause of length ≥ 4 is the reason of
//!   an assignment, the implied literal is at position 0 (propagation swaps
//!   before enqueueing). Binary and ternary reasons are *not* reordered —
//!   their implied literal may sit at any position, so consumers of reason
//!   clauses (conflict analysis, clause minimization, the lock test of
//!   `reduce_db`) must match the implied literal by value, never by
//!   position.
//! * **Deletion is a tombstone:** [`ClauseDb::mark_deleted`] only sets the
//!   header bit; the words stay in place (watchers drop lazily), and the
//!   space is reclaimed by [`ClauseDb::collect`], which compacts the arena
//!   and hands the caller a relocation table mapping every pre-GC
//!   [`ClauseRef`] to its post-GC position. After a collection **every**
//!   stored `ClauseRef` (long, binary and ternary watch lists behind every
//!   non-null handle, reason slots,
//!   original/learnt rosters) must be rewritten through
//!   [`ClauseRelocation::new_ref`]; refs of clauses that were deleted before
//!   the collection map to `None` and must be dropped. The shared table is
//!   the exception: its clauses were loaded before any learnt clause and
//!   originals are never deleted, so a collection leaves them in place.
//! * **Binary clauses are permanent:** `reduce_db` never deletes clauses of
//!   length 2, so binary watch lists only ever need relocation, not pruning
//!   (relocation still handles `None` defensively). Learnt ternary clauses
//!   *are* deleted; `reduce_db` detaches them eagerly from all three lists.

use pdsat_cnf::Lit;

/// Words of metadata preceding the literals of every clause.
const HEADER_WORDS: u32 = 3;

/// Header bit marking a learnt clause.
const LEARNT_BIT: u32 = 0b01;
/// Header bit marking a deleted (tombstoned) clause.
const DELETED_BIT: u32 = 0b10;
/// First bit of the length field.
const LEN_SHIFT: u32 = 2;

/// Sentinel written into the forward-pointer slot of clauses that were
/// already deleted when a collection ran.
const DEAD: u32 = u32::MAX;

/// Handle to a clause stored in the [`ClauseDb`]: the word offset of the
/// clause header inside the arena.
///
/// Refs are stable across [`ClauseDb::add`] and [`ClauseDb::mark_deleted`],
/// but are invalidated by [`ClauseDb::collect`]; the returned
/// [`ClauseRelocation`] maps old refs to new ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// A ref no clause has (the arena never reaches `u32::MAX` words): what
    /// the unused slots of the loaded formula's watch table hold.
    pub(crate) const UNUSED: ClauseRef = ClauseRef(u32::MAX);

    /// Word offset of the clause header in the arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The extent of a [`ClauseDb`] at some moment, for [`ClauseDb::truncate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArenaMark {
    words: usize,
    clauses: usize,
}

/// Arena of clauses (original and learnt).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseDb {
    data: Vec<u32>,
    /// Number of live clauses.
    num_clauses: usize,
    /// Arena words occupied by deleted clauses, reclaimable by [`collect`](ClauseDb::collect).
    wasted: usize,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Appends a clause and returns its ref.
    pub fn add(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(!lits.is_empty());
        debug_assert!(lits.len() < (1 << (32 - LEN_SHIFT)));
        let cref = ClauseRef(self.data.len() as u32);
        let header = (lits.len() as u32) << LEN_SHIFT | u32::from(learnt);
        self.data.push(header);
        self.data.push(lbd);
        self.data.push(0.0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        self.num_clauses += 1;
        cref
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.data[cref.index()]
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len_of(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> LEN_SHIFT) as usize
    }

    /// `true` for learnt clauses.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    /// `true` once the clause has been tombstoned.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// Literal block distance recorded for the clause.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.data[cref.index() + 1]
    }

    /// Activity of the clause (learnt-clause deletion policy).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.data[cref.index() + 2])
    }

    /// Overwrites the activity of the clause.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.data[cref.index() + 2] = activity.to_bits();
    }

    /// The `k`-th literal of the clause.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.len_of(cref));
        Lit::from_code(self.data[cref.index() + HEADER_WORDS as usize + k] as usize)
    }

    /// The proof id [`set_proof_id`](Self::set_proof_id) gave an original
    /// clause.
    #[inline]
    pub fn proof_id(&self, cref: ClauseRef) -> u32 {
        debug_assert!(!self.is_learnt(cref));
        self.data[cref.index() + 2]
    }

    /// Records an original clause's id in the DRAT proof, in the slot a
    /// learnt clause keeps its activity in.
    pub fn set_proof_id(&mut self, cref: ClauseRef, id: u32) {
        debug_assert!(!self.is_learnt(cref));
        self.data[cref.index() + 2] = id;
    }

    /// Swaps two literals of the clause in place.
    #[inline]
    pub fn swap_lits(&mut self, cref: ClauseRef, a: usize, b: usize) {
        let base = cref.index() + HEADER_WORDS as usize;
        self.data.swap(base + a, base + b);
    }

    /// Copies the literals of the clause into a fresh `Vec` (cold paths only).
    pub fn lits_vec(&self, cref: ClauseRef) -> Vec<Lit> {
        (0..self.len_of(cref)).map(|k| self.lit(cref, k)).collect()
    }

    /// The literal words of the clause, as [`lit`](Self::lit) reads them.
    pub fn literal_words(&self, cref: ClauseRef) -> &[u32] {
        let base = cref.index() + HEADER_WORDS as usize;
        &self.data[base..base + self.len_of(cref)]
    }

    /// The literal words of the clause, to write back a copy of
    /// [`literal_words`](Self::literal_words).
    pub fn literal_words_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let base = cref.index() + HEADER_WORDS as usize;
        let len = self.len_of(cref);
        &mut self.data[base..base + len]
    }

    /// The arena's extent now. Nothing in it is deleted yet.
    pub fn mark(&self) -> ArenaMark {
        debug_assert_eq!(self.wasted, 0);
        ArenaMark {
            words: self.data.len(),
            clauses: self.num_clauses,
        }
    }

    /// Drops every clause added after `mark`. Exact as long as no clause
    /// before the mark was deleted since: then a collection moved none of
    /// them either, and every tombstone lies after the mark.
    pub fn truncate(&mut self, mark: ArenaMark) {
        self.data.truncate(mark.words);
        self.num_clauses = mark.clauses;
        self.wasted = 0;
    }

    /// Tombstones the clause; the arena words are reclaimed by the next
    /// [`collect`](ClauseDb::collect).
    pub fn mark_deleted(&mut self, cref: ClauseRef) {
        if !self.is_deleted(cref) {
            self.data[cref.index()] |= DELETED_BIT;
            self.wasted += HEADER_WORDS as usize + self.len_of(cref);
            self.num_clauses -= 1;
        }
    }

    /// `true` when tombstones occupy more than `frac` of the arena.
    pub fn should_collect(&self, frac: f64) -> bool {
        self.wasted > 0 && (self.wasted as f64) > (self.data.len() as f64) * frac
    }

    /// Compacts the arena, dropping tombstoned clauses, and returns the
    /// relocation table. Every externally held [`ClauseRef`] must be
    /// rewritten through [`ClauseRelocation::new_ref`] afterwards.
    pub fn collect(&mut self) -> ClauseRelocation {
        let mut old = std::mem::take(&mut self.data);
        let mut new_data = Vec::with_capacity(old.len().saturating_sub(self.wasted));
        let mut i = 0;
        while i < old.len() {
            let header = old[i];
            let total = HEADER_WORDS as usize + (header >> LEN_SHIFT) as usize;
            if header & DELETED_BIT == 0 {
                let new_ref = new_data.len() as u32;
                new_data.extend_from_slice(&old[i..i + total]);
                // Leave a forward pointer in the (now dead) old slot.
                old[i + 1] = new_ref;
            } else {
                old[i + 1] = DEAD;
            }
            i += total;
        }
        self.data = new_data;
        self.wasted = 0;
        ClauseRelocation { forward: old }
    }
}

/// Relocation table produced by [`ClauseDb::collect`]: the pre-GC arena with
/// each clause's forward pointer written into its LBD slot.
#[derive(Debug)]
pub(crate) struct ClauseRelocation {
    forward: Vec<u32>,
}

impl ClauseRelocation {
    /// Post-GC position of `old`, or `None` if the clause had been deleted.
    pub fn new_ref(&self, old: ClauseRef) -> Option<ClauseRef> {
        let target = self.forward[old.index() + 1];
        (target != DEAD).then_some(ClauseRef(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::Lit;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn add_get_and_delete() {
        let mut db = ClauseDb::new();
        let c0 = db.add(&[lit(1), lit(-2)], false, 0);
        let c1 = db.add(&[lit(2), lit(3), lit(4)], true, 2);
        assert_eq!(db.num_clauses, 2);
        assert_eq!(db.lits_vec(c0), vec![lit(1), lit(-2)]);
        assert_eq!(db.len_of(c0), 2);
        assert!(!db.is_learnt(c0));
        assert!(db.is_learnt(c1));
        assert_eq!(db.lbd(c1), 2);
        assert!(!db.is_deleted(c0));
        db.mark_deleted(c0);
        assert!(db.is_deleted(c0));
        assert_eq!(db.num_clauses, 1);
        assert_eq!(db.wasted, 5);
        // Double delete is a no-op.
        db.mark_deleted(c0);
        assert_eq!(db.num_clauses, 1);
        assert_eq!(db.wasted, 5);
        // The other clause is untouched.
        assert_eq!(db.lits_vec(c1), vec![lit(2), lit(3), lit(4)]);
    }

    #[test]
    fn activity_is_mutable() {
        let mut db = ClauseDb::new();
        let c = db.add(&[lit(1)], true, 1);
        db.set_activity(c, db.activity(c) + 2.5);
        assert!((db.activity(c) - 2.5).abs() < f32::EPSILON);
    }

    #[test]
    fn swap_lits_reorders_in_place() {
        let mut db = ClauseDb::new();
        let c = db.add(&[lit(1), lit(2), lit(3)], false, 0);
        db.swap_lits(c, 0, 2);
        assert_eq!(db.lits_vec(c), vec![lit(3), lit(2), lit(1)]);
        assert_eq!(db.lit(c, 0), lit(3));
    }

    #[test]
    fn collect_compacts_and_relocates() {
        let mut db = ClauseDb::new();
        let c0 = db.add(&[lit(1), lit(2)], false, 0);
        let c1 = db.add(&[lit(3), lit(4), lit(5)], true, 3);
        let c2 = db.add(&[lit(-1), lit(-2)], true, 2);
        db.set_activity(c1, 7.5);
        db.mark_deleted(c0);
        assert!(db.should_collect(0.1));

        let words_before = db.data.len();
        let reloc = db.collect();
        assert_eq!(db.wasted, 0);
        assert!(db.data.len() < words_before);

        // The deleted clause is gone; the survivors moved but kept content.
        assert_eq!(reloc.new_ref(c0), None);
        let n1 = reloc.new_ref(c1).expect("live clause survives GC");
        let n2 = reloc.new_ref(c2).expect("live clause survives GC");
        assert_eq!(db.lits_vec(n1), vec![lit(3), lit(4), lit(5)]);
        assert_eq!(db.lits_vec(n2), vec![lit(-1), lit(-2)]);
        assert_eq!(db.lbd(n1), 3);
        assert!((db.activity(n1) - 7.5).abs() < f32::EPSILON);
        assert!(db.is_learnt(n1) && db.is_learnt(n2));
        // The first survivor now sits at the start of the arena.
        assert_eq!(n1.index(), 0);
        assert_eq!(db.num_clauses, 2);
    }

    #[test]
    fn collect_with_nothing_deleted_is_identity() {
        let mut db = ClauseDb::new();
        let c0 = db.add(&[lit(1), lit(2)], false, 0);
        let c1 = db.add(&[lit(3), lit(4)], false, 0);
        assert!(!db.should_collect(0.0));
        let reloc = db.collect();
        assert_eq!(reloc.new_ref(c0), Some(c0));
        assert_eq!(reloc.new_ref(c1), Some(c1));
    }
}
