//! Standalone certificate checking for PDSAT verdicts: a forward DRAT proof
//! checker for UNSAT answers and a trivial model validator for SAT answers.
//!
//! This crate is the *trust anchor* of the distributed deployment: the
//! coordinator receives solve reports from untrusted volunteer hosts, and
//! instead of relying on redundancy alone it re-validates each answer —
//! models are evaluated against the original formula, UNSAT verdicts are
//! checked against the DRAT derivation the solver emitted behind
//! `SolverConfig::proof`. The checker shares no code with the solver's
//! propagation engine (only the literal/CNF vocabulary of `pdsat_cnf`), so a
//! bug would have to occur twice, independently, to slip through.
//!
//! # Checking algorithm
//!
//! [`check_unsat_proof`] is a forward RUP checker over an occurrence-indexed,
//! deletion-aware clause set:
//!
//! 1. **Load.** The formula's clauses are copied into one flat literal arena
//!    (no allocation per clause) and propagated to fixpoint, with no cube.
//!    An original of two or three distinct literals is watched by every one
//!    of its literals, with the others inline, and matched by value: a visit
//!    reads the other literals' value bytes and nothing else. These lists are
//!    built once per loaded formula, never change, and are shared by every
//!    working copy. Longer originals go under two-watched-literal
//!    propagation. Each thread keeps the last formula it loaded: the next
//!    certificate for a formula with exactly the same content (variable
//!    count and every clause's literals in order) skips this step and
//!    restores a working copy of the loaded one into the allocations the
//!    previous check left behind.
//! 2. **Seed.** The cube's literals (if any) are asserted as root
//!    assignments on the working copy and propagated — a certificate proves
//!    `F ∧ cube ⊨ ⊥`, not `F ⊨ ⊥`.
//! 3. Each `Add` step is checked for RUP: assert the negations of its
//!    literals, then walk its hints (the ids of the clauses that derived it,
//!    see `pdsat_cnf::drat`) once, in order. A hint with one open literal
//!    enqueues it, a falsified hint is the conflict, and any other hint — an
//!    id outside the database, a deleted clause, a satisfied one, one with two
//!    open literals — is skipped. Only when the hints reach no conflict does
//!    the check propagate over the whole database, as it does for a step
//!    without hints. Every hinted unit is a unit-resolution step, and unit
//!    propagation reaches a conflict in any order, so hints change how fast a
//!    proof is checked, never whether it is accepted. The step is then added
//!    under two-watched-literal propagation, whatever its length, and
//!    propagated.
//!    Each `Delete` step removes one instance of the clause, matched by
//!    sorted-literal multiset through an index built when the first deletion
//!    is met; unmatched deletions are lenient no-ops and
//!    root-level assignments are never retracted (the `drat-trim` dialect —
//!    deleting the reason of a root-forced literal must not un-derive it).
//! 4. The proof is accepted once root propagation derives a conflict.
//!
//! Every accepted addition is a logical consequence of the formula, the cube
//! and the previously accepted additions, so acceptance is sound under *any*
//! deletion policy; deletions can only make acceptance harder, never easier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pdsat_cnf::{Assignment, Cnf, DratProof, DratStep, Lit, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::rc::Rc;

/// Why a submitted result (model, proof, or whole report) was rejected.
///
/// The coordinator embeds this in `ResultDisposition::Rejected`, so the
/// variants cover the coordinator-side integrity/shape checks as well as the
/// checker's own verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckFailure {
    /// The transport-level integrity check (upload checksum) failed.
    Checksum,
    /// The report's shape is inconsistent with the work unit it claims to
    /// answer (cube counts, set size, per-cube cost vector, a certificate
    /// naming a variable the formula does not have).
    Shape,
    /// A SAT verdict was claimed without shipping a model.
    ModelMissing,
    /// The shipped model does not satisfy the cube's assumption literals.
    AssumptionViolated,
    /// The shipped model falsifies the formula.
    ModelUnsat,
    /// A certificate references a cube outside the work unit, or a cube
    /// at or before the one the previous certificate of the report names.
    CertificateIndex,
    /// An addition step of the DRAT proof is not RUP with respect to the
    /// clause database at that point.
    ProofNotRup,
    /// The proof ran out of steps without ever deriving a conflict.
    ProofIncomplete,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckFailure::Checksum => "upload integrity check failed",
            CheckFailure::Shape => "report shape inconsistent with the work unit",
            CheckFailure::ModelMissing => "SAT verdict without a model",
            CheckFailure::AssumptionViolated => "model violates an assumption literal",
            CheckFailure::ModelUnsat => "model falsifies the formula",
            CheckFailure::CertificateIndex => {
                "certificate cube index outside the unit or out of order"
            }
            CheckFailure::ProofNotRup => "proof addition is not RUP",
            CheckFailure::ProofIncomplete => "proof ends without a conflict",
        })
    }
}

/// Counters of one successful proof check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Proof steps processed before the conflict was established.
    pub steps_checked: usize,
    /// Unit propagations performed across all RUP checks.
    pub propagations: u64,
    /// Deletions that matched no live clause (lenient no-ops).
    pub unmatched_deletes: usize,
    /// Additions whose hints reached no conflict (all of them, for a proof
    /// without hints), so their RUP check propagated over the database.
    pub hint_misses: usize,
}

/// Validates a SAT answer: the model must satisfy every assumption literal of
/// the cube and every clause of the formula.
///
/// # Errors
///
/// [`CheckFailure::AssumptionViolated`] when an assumption literal is not
/// true under the model, [`CheckFailure::ModelUnsat`] when some clause is
/// falsified or undetermined.
pub fn check_model(cnf: &Cnf, assumptions: &[Lit], model: &Assignment) -> Result<(), CheckFailure> {
    for &lit in assumptions {
        if model.lit_value(lit) != Value::True {
            return Err(CheckFailure::AssumptionViolated);
        }
    }
    if !cnf.is_satisfied_by(model) {
        return Err(CheckFailure::ModelUnsat);
    }
    Ok(())
}

/// Checks a DRAT derivation that `cnf ∧ assumptions` is unsatisfiable.
///
/// The calling thread keeps `cnf` loaded after the call, so the next
/// certificate for the same formula (compared literal by literal, never
/// hashed) is checked on a restored copy instead of a fresh load; a
/// different formula replaces it. Results are those of a fresh load either
/// way.
///
/// Memory is bounded by the formula plus the proof: per-variable tables are
/// sized by `cnf.num_vars()`, never by an index the certificate names.
/// Between calls the thread holds the last formula three times over (its
/// content, the loaded state, the working copy).
///
/// # Errors
///
/// [`CheckFailure::Shape`] when an assumption or an addition names a
/// variable the formula does not have (RUP never needs one, and sizing
/// tables by an uploaded index would let one forged literal allocate
/// gigabytes), [`CheckFailure::ProofNotRup`] when an addition fails its RUP
/// check, [`CheckFailure::ProofIncomplete`] when the steps run out before a
/// conflict is derived.
pub fn check_unsat_proof(
    cnf: &Cnf,
    assumptions: &[Lit],
    proof: &DratProof,
) -> Result<CheckStats, CheckFailure> {
    LOADED.with_borrow_mut(|loaded| {
        if loaded.as_ref().is_some_and(|l| !l.key.matches(cnf)) {
            *loaded = None; // free the old formula before loading the new one
        }
        let Loaded { base, working, .. } = loaded.get_or_insert_with(|| Loaded {
            key: FormulaKey::of(cnf),
            base: Checker::load(cnf),
            working: Checker::default(),
        });
        working.restore_from(base);
        working.check(assumptions, proof)
    })
}

thread_local! {
    /// The last formula this thread checked a certificate against.
    static LOADED: RefCell<Option<Loaded>> = const { RefCell::new(None) };
}

/// One loaded formula and the copy of it certificates are checked on.
struct Loaded {
    key: FormulaKey,
    /// The formula under root propagation, with no cube. Never checked on.
    base: Checker,
    /// Restored from `base` before every check.
    working: Checker,
}

/// The exact content of a formula: its variable count and every clause's
/// literals in order, flattened (one allocation, not one per clause).
struct FormulaKey {
    num_vars: usize,
    lits: Vec<Lit>,
    /// Where each clause's literals end in `lits`.
    ends: Vec<usize>,
}

impl FormulaKey {
    fn of(cnf: &Cnf) -> FormulaKey {
        let mut lits = Vec::with_capacity(cnf.num_literals());
        let ends = cnf
            .clauses()
            .iter()
            .map(|clause| {
                lits.extend_from_slice(clause.lits());
                lits.len()
            })
            .collect();
        FormulaKey {
            num_vars: cnf.num_vars(),
            lits,
            ends,
        }
    }

    fn matches(&self, cnf: &Cnf) -> bool {
        if self.num_vars != cnf.num_vars() || self.ends.len() != cnf.num_clauses() {
            return false;
        }
        let mut start = 0;
        cnf.clauses().iter().zip(&self.ends).all(|(clause, &end)| {
            let same = clause.lits() == &self.lits[start..end];
            start = end;
            same
        })
    }
}

// Value bytes, one per literal code. An inline ternary visit multiplies the
// bytes of the clause's other two literals: 1 is a conflict, 2 a unit
// clause, 0 and 4 nothing to do.
const TRUE: u8 = 0;
const FALSE: u8 = 1;
const UNDEF: u8 = 2;
// Reordering the constants must fail here, not turn conflicts into no-ops.
const _: () = assert!(TRUE == 0 && FALSE == 1 && UNDEF == 2);

/// No clause: the end of a [`DeleteIndex`] chain.
const NIL: usize = usize::MAX;

/// Where one clause lives in [`Checker::lits`]. The clause owns the arena
/// from `start` to the next clause's `start`: first its `len` distinct
/// literals (positions 0 and 1 are the watched ones), then the repeats the
/// load-time dedup moved out of the way, kept because deletions match by
/// multiset.
#[derive(Clone, Copy)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Span {
    start: usize,
    len: usize,
    deleted: bool,
}

/// Every arena slot clause `id` owns: its distinct literals, then the repeats.
fn owned<'a>(spans: &[Span], lits: &'a [Lit], id: usize) -> &'a [Lit] {
    let end = spans.get(id + 1).map_or(lits.len(), |s| s.start);
    &lits[spans[id].start..end]
}

/// Live clause ids by sorted-literal multiset, as intrusive chains: `heads`
/// maps a multiset's hash to the most recently added clause carrying it and
/// `next[id]` continues to older ones, so the index costs no allocation per
/// clause. Hash hits are confirmed by comparing literals.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct DeleteIndex {
    heads: HashMap<u64, usize>,
    next: Vec<usize>,
}

/// An inline watcher of a two-literal original: the list it sits in is one
/// literal, `other` the rest of the clause, `id` its [`Span`].
#[derive(Clone, Copy)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct BinWatch {
    other: Lit,
    id: u32,
}

/// An inline watcher of a three-literal original: the list it sits in is one
/// literal, `a` and `b` the other two, `id` its [`Span`].
#[derive(Clone, Copy)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct TernWatch {
    a: Lit,
    b: Lit,
    id: u32,
}

/// The formula's originals of two and three distinct literals, each in the
/// list of every one of its literals with the others inline, indexed by
/// `Lit::code`. Built once per loaded formula and never changed: a deleted
/// clause keeps its watchers, and a visit reads [`Span::deleted`] only when
/// the clause would enqueue or conflict.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Inline {
    bins: Vec<Vec<BinWatch>>,
    terns: Vec<Vec<TernWatch>>,
}

impl Inline {
    /// Watches original `id` inline when it has two or three distinct
    /// literals; `false` leaves it to the two-watched path. So does an id
    /// past `u32::MAX`, which only a formula of over four billion clauses
    /// has.
    fn watch(&mut self, id: usize, distinct: &[Lit]) -> bool {
        let Ok(id) = u32::try_from(id) else {
            return false;
        };
        match *distinct {
            [x, y] => {
                self.bins[x.code()].push(BinWatch { other: y, id });
                self.bins[y.code()].push(BinWatch { other: x, id });
            }
            [x, y, z] => {
                self.terns[x.code()].push(TernWatch { a: y, b: z, id });
                self.terns[y.code()].push(TernWatch { a: x, b: z, id });
                self.terns[z.code()].push(TernWatch { a: x, b: y, id });
            }
            _ => return false,
        }
        true
    }
}

/// The forward checker's propagation state: a flat literal arena, short
/// originals watched inline, everything else under two-watched-literal
/// propagation, and a persistent root trail.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Checker {
    /// The literals of every clause, back to back (see [`Span`]).
    lits: Vec<Lit>,
    spans: Vec<Span>,
    /// Built when the first `Delete` step is met: most certificates of short
    /// solves have none, and hashing every clause is most of a load.
    delete_index: Option<DeleteIndex>,
    /// Shared by the loaded base and its working copy: no check changes it.
    inline: Rc<Inline>,
    /// Ids of the longer originals and of every lemma watching each literal,
    /// indexed by `Lit::code`.
    watches: Vec<Vec<usize>>,
    /// `TRUE`/`FALSE`/`UNDEF` per literal, indexed by `Lit::code`.
    values: Vec<u8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Root propagation derived a conflict: the refutation is established.
    proven: bool,
    propagations: u64,
    hint_misses: usize,
    /// Scratch for the sorted literals of a deletion and of a candidate.
    key_buf: Vec<Lit>,
    candidate_buf: Vec<Lit>,
}

impl Checker {
    /// The formula's clauses in the arena, propagated to fixpoint at the
    /// root, with no cube.
    fn load(cnf: &Cnf) -> Checker {
        let codes = 2 * cnf.num_vars();
        let mut checker = Checker {
            lits: Vec::with_capacity(cnf.num_literals()),
            spans: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); codes],
            values: vec![UNDEF; codes],
            ..Checker::default()
        };
        let mut inline = Inline {
            bins: vec![Vec::new(); codes],
            terns: vec![Vec::new(); codes],
        };
        for clause in cnf.clauses() {
            let id = checker.push_clause(clause.lits());
            let Span { start, len, .. } = checker.spans[id];
            // An inline clause needs no check here: the trail is not
            // propagated yet, so root propagation below visits it from every
            // literal that is false by now.
            if !inline.watch(id, &checker.lits[start..start + len]) {
                checker.watch(id);
            }
        }
        checker.inline = Rc::new(inline);
        if checker.propagate() {
            checker.proven = true;
        }
        checker
    }

    /// Makes `self` equal to `base`, reusing the allocations `self` already
    /// owns. Every field is named, so nothing a previous check did — lemmas,
    /// deletions, root literals, a deletion index — survives it.
    fn restore_from(&mut self, base: &Checker) {
        let Checker {
            lits,
            spans,
            // A loaded formula has met no deletion; each check builds its
            // own index when it meets its first one.
            delete_index: _,
            inline,
            watches,
            values,
            trail,
            qhead,
            proven,
            propagations,
            hint_misses,
            // Scratch of deletions, empty in a loaded formula.
            key_buf: _,
            candidate_buf: _,
        } = base;
        self.key_buf.clear();
        self.candidate_buf.clear();
        self.lits.clone_from(lits);
        self.spans.clone_from(spans);
        self.delete_index = None;
        self.inline = Rc::clone(inline);
        self.watches.clone_from(watches);
        self.values.clone_from(values);
        self.trail.clone_from(trail);
        self.qhead = *qhead;
        self.proven = *proven;
        self.propagations = *propagations;
        self.hint_misses = *hint_misses;
    }

    /// Seeds the cube at the root of a loaded formula and replays the proof.
    fn check(
        &mut self,
        assumptions: &[Lit],
        proof: &DratProof,
    ) -> Result<CheckStats, CheckFailure> {
        self.require_known_vars(assumptions)?;
        for &lit in assumptions {
            if self.proven {
                break;
            }
            match self.values[lit.code()] {
                FALSE => self.proven = true, // contradictory cube
                TRUE => {}
                _ => self.enqueue(lit),
            }
        }
        if !self.proven && self.propagate() {
            self.proven = true;
        }
        let mut stats = CheckStats::default();
        for step in &proof.steps {
            if self.proven {
                break;
            }
            match step {
                DratStep::Add { lits, hints } => {
                    self.require_known_vars(lits)?;
                    if !self.rup(lits, hints) {
                        return Err(CheckFailure::ProofNotRup);
                    }
                    let id = self.push_clause(lits);
                    self.watch(id);
                    if self.propagate() {
                        self.proven = true;
                    }
                }
                DratStep::Delete(lits) => {
                    if !self.delete(lits) {
                        stats.unmatched_deletes += 1;
                    }
                }
            }
            stats.steps_checked += 1;
        }
        stats.propagations = self.propagations;
        stats.hint_misses = self.hint_misses;
        if self.proven {
            Ok(stats)
        } else {
            Err(CheckFailure::ProofIncomplete)
        }
    }

    /// Every per-literal table is indexed by literals that passed this
    /// check. Deletions need none: they only ever hash their literals.
    fn require_known_vars(&self, lits: &[Lit]) -> Result<(), CheckFailure> {
        if lits.iter().all(|l| l.code() < self.values.len()) {
            Ok(())
        } else {
            Err(CheckFailure::Shape)
        }
    }

    fn enqueue(&mut self, lit: Lit) {
        debug_assert_eq!(self.values[lit.code()], UNDEF);
        self.values[lit.code()] = TRUE;
        self.values[(!lit).code()] = FALSE;
        self.trail.push(lit);
    }

    /// Appends a clause to the arena, and to the deletion index once that is
    /// built, unwatched; returns its id.
    fn push_clause(&mut self, clause: &[Lit]) -> usize {
        let id = self.spans.len();
        let start = self.lits.len();
        self.lits.extend_from_slice(clause);
        let lits = &mut self.lits[start..];
        lits.sort_unstable();
        // Distinct literals to the front (still sorted), repeats behind them.
        let mut len = lits.len().min(1);
        for read in 1..lits.len() {
            if lits[read] != lits[len - 1] {
                lits.swap(len, read);
                len += 1;
            }
        }
        self.spans.push(Span {
            start,
            len,
            deleted: false,
        });
        if let Some(index) = self.delete_index.as_mut() {
            index.insert(id, clause, &mut self.key_buf);
        }
        id
    }

    /// Puts clause `id` under two-watched-literal propagation at the current
    /// assignment, enqueueing its consequence when it is unit and flagging
    /// `proven` when it is already falsified. The caller runs
    /// [`propagate`](Self::propagate) afterwards.
    fn watch(&mut self, id: usize) {
        let Span { start, len, .. } = self.spans[id];
        let values = &self.values;
        let lits = &mut self.lits[start..start + len];
        if len == 0 {
            self.proven = true;
            return;
        }
        if len == 1 {
            let unit = lits[0];
            match values[unit.code()] {
                TRUE => {}
                FALSE => self.proven = true,
                _ => self.enqueue(unit),
            }
            return;
        }
        // Arrange two non-false literals (or one plus anything, enqueueing
        // it when the rest are false) into the watch positions.
        let mut unit = None;
        if let Some(i) = lits.iter().position(|l| values[l.code()] != FALSE) {
            lits.swap(0, i);
            match lits[1..].iter().position(|l| values[l.code()] != FALSE) {
                Some(j) => lits.swap(1, j + 1),
                // Every other literal is false: the clause is unit here.
                None => unit = (values[lits[0].code()] == UNDEF).then_some(lits[0]),
            }
        } else {
            self.proven = true; // all literals false at the root
        }
        self.watches[lits[0].code()].push(id);
        self.watches[lits[1].code()].push(id);
        if let Some(unit) = unit {
            self.enqueue(unit);
        }
    }

    /// Removes the most recently added live instance of the clause. Returns
    /// `false` when nothing matched (the lenient no-op case). Watches are
    /// cleaned up lazily and root assignments are never retracted.
    fn delete(&mut self, clause: &[Lit]) -> bool {
        if self.delete_index.is_none() {
            let mut index = DeleteIndex {
                heads: HashMap::with_capacity(self.spans.len()),
                next: Vec::with_capacity(self.spans.len()),
            };
            for id in 0..self.spans.len() {
                index.insert(id, owned(&self.spans, &self.lits, id), &mut self.key_buf);
            }
            self.delete_index = Some(index);
        }
        let index = self.delete_index.as_mut().expect("built above");
        let hash = index.hash(clause, &mut self.key_buf);
        let Some(&head) = index.heads.get(&hash) else {
            return false;
        };
        let (mut prev, mut id) = (NIL, head);
        while id != NIL {
            self.candidate_buf.clear();
            self.candidate_buf
                .extend_from_slice(owned(&self.spans, &self.lits, id));
            self.candidate_buf.sort_unstable();
            if self.candidate_buf == self.key_buf {
                let after = index.next[id];
                if prev != NIL {
                    index.next[prev] = after;
                } else if after != NIL {
                    index.heads.insert(hash, after);
                } else {
                    index.heads.remove(&hash);
                }
                self.spans[id].deleted = true;
                return true;
            }
            (prev, id) = (id, index.next[id]);
        }
        false
    }

    /// Propagates to fixpoint; `true` on conflict. Works identically for
    /// root assignments and for the temporary assignments of a RUP check —
    /// inline lists never change, and watch moves performed under deeper
    /// assignments stay valid after the trail is rolled back (the moved-to
    /// literal is even less constrained).
    fn propagate(&mut self) -> bool {
        let inline = Rc::clone(&self.inline);
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            // Inline originals first, binaries then ternaries: the clause is
            // decided by its other literals alone, so a visit with nothing to
            // do is one branch and touches no span, arena slot or watch. A
            // conflict returns at once; nothing is unwound here — the caller
            // owns the trail.
            for &BinWatch { other, id } in &inline.bins[false_lit.code()] {
                let value = self.values[other.code()];
                if value == TRUE || self.spans[id as usize].deleted {
                    continue;
                }
                if value == FALSE {
                    return true;
                }
                self.enqueue(other);
            }
            // The product of the other two value bytes: 1 for both false
            // (conflict), 2 for one false and one open (unit), 0 or 4 when
            // either is true or both are open.
            for &TernWatch { a, b, id } in &inline.terns[false_lit.code()] {
                let product = self.values[a.code()] * self.values[b.code()];
                if !matches!(product, 1 | 2) || self.spans[id as usize].deleted {
                    continue;
                }
                if product == 1 {
                    return true;
                }
                self.enqueue(if self.values[a.code()] == FALSE { b } else { a });
            }
            // Longer originals and lemmas. The list is compacted in place:
            // `kept` counts the watchers that stay. A moved watch is pushed
            // onto a non-false literal's list, never onto this one.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut kept = 0;
            let mut conflict = false;
            for i in 0..ws.len() {
                let cid = ws[i];
                let Span {
                    start,
                    len,
                    deleted,
                } = self.spans[cid];
                if deleted {
                    continue; // lazy watch cleanup
                }
                let lits = &mut self.lits[start..start + len];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                if self.values[first.code()] == TRUE {
                    ws[kept] = cid;
                    kept += 1;
                    continue;
                }
                match (2..len).find(|&k| self.values[lits[k].code()] != FALSE) {
                    Some(k) => {
                        lits.swap(1, k);
                        self.watches[lits[1].code()].push(cid);
                    }
                    None => {
                        ws[kept] = cid;
                        kept += 1;
                        if self.values[first.code()] == UNDEF {
                            self.enqueue(first);
                        } else {
                            // Conflict: keep the remaining watchers and
                            // report. Nothing is unwound here — the caller
                            // owns the trail.
                            ws.copy_within(i + 1.., kept);
                            kept += ws.len() - (i + 1);
                            conflict = true;
                            break;
                        }
                    }
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.code()] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// The RUP check: asserting the negation of every literal of `clause`
    /// must lead to a conflict, through the `hints` or else by propagation.
    /// The temporary assignments are rolled back before returning; the
    /// database is untouched.
    fn rup(&mut self, clause: &[Lit], hints: &[u32]) -> bool {
        if self.proven {
            return true;
        }
        debug_assert_eq!(self.qhead, self.trail.len());
        let mark = self.trail.len();
        let mut implied = false;
        for &lit in clause {
            match self.values[lit.code()] {
                TRUE => {
                    // A root-true literal satisfies the clause outright.
                    implied = true;
                    break;
                }
                FALSE => {}
                _ => self.enqueue(!lit),
            }
        }
        let ok = implied || self.resolve(hints) || {
            self.hint_misses += 1;
            self.propagate()
        };
        for &lit in &self.trail[mark..] {
            self.values[lit.code()] = UNDEF;
            self.values[(!lit).code()] = UNDEF;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        ok
    }

    /// Walks `hints` once, in order: a live clause with one open literal and
    /// the rest false enqueues that literal; `true` at the first live clause
    /// whose literals are all false. Every other hint is skipped. Nothing is
    /// propagated through the watch lists.
    fn resolve(&mut self, hints: &[u32]) -> bool {
        for &id in hints {
            let Some(&Span {
                start,
                len,
                deleted: false,
            }) = self.spans.get(id as usize)
            else {
                continue;
            };
            let mut open = None;
            // False but for at most one open literal: not satisfied, and no
            // second open literal.
            let unit_or_falsified =
                self.lits[start..start + len]
                    .iter()
                    .all(|&lit| match self.values[lit.code()] {
                        FALSE => true,
                        UNDEF => open.replace(lit).is_none(),
                        _ => false,
                    });
            match open {
                _ if !unit_or_falsified => {}
                Some(unit) => self.enqueue(unit),
                None => return true,
            }
        }
        false
    }
}

impl DeleteIndex {
    /// Sorts `clause` into `key_buf` and hashes it.
    fn hash(&self, clause: &[Lit], key_buf: &mut Vec<Lit>) -> u64 {
        key_buf.clear();
        key_buf.extend_from_slice(clause);
        key_buf.sort_unstable();
        self.heads.hasher().hash_one(&key_buf[..])
    }

    /// Registers clause `id` (the next id in order) as the newest carrier of
    /// the multiset `clause`.
    fn insert(&mut self, id: usize, clause: &[Lit], key_buf: &mut Vec<Lit>) {
        debug_assert_eq!(id, self.next.len());
        let hash = self.hash(clause, key_buf);
        let older = self.heads.insert(hash, id).unwrap_or(NIL);
        self.next.push(older);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::{Lit, Var};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn clause(dimacs: &[i64]) -> Vec<Lit> {
        dimacs.iter().map(|&d| lit(d)).collect()
    }

    /// {(a∨b), (a∨¬b), (¬a∨c), (¬a∨¬c)} — UNSAT, no unit propagation from
    /// the inputs alone, and refuted by adding the single clause (a).
    fn asymmetric_unsat() -> Cnf {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[1, -2]));
        cnf.add_clause(clause(&[-1, 3]));
        cnf.add_clause(clause(&[-1, -3]));
        cnf
    }

    #[test]
    fn accepts_a_minimal_rup_refutation() {
        let proof = DratProof {
            steps: vec![DratStep::add(clause(&[1]))],
        };
        let stats = check_unsat_proof(&asymmetric_unsat(), &[], &proof).expect("valid proof");
        assert_eq!(stats.steps_checked, 1);
        assert_eq!(stats.unmatched_deletes, 0);
    }

    #[test]
    fn hints_refute_a_lemma_without_propagating_it() {
        // Under ¬1, (1 2) is unit and then (1 ¬2) falsified: the check walks
        // two clauses and propagates nothing. Adding (1) then propagates 1 at
        // the root, which refutes the formula.
        let hinted = DratProof {
            steps: vec![DratStep::Add {
                lits: clause(&[1]),
                hints: [0, 1].into(),
            }],
        };
        let stats = check_unsat_proof(&asymmetric_unsat(), &[], &hinted).expect("valid proof");
        assert_eq!((stats.propagations, stats.hint_misses), (1, 0));
        let plain = DratProof {
            steps: vec![DratStep::add(clause(&[1]))],
        };
        let stats = check_unsat_proof(&asymmetric_unsat(), &[], &plain).expect("valid proof");
        assert_eq!((stats.propagations, stats.hint_misses), (2, 1));
    }

    #[test]
    fn hints_that_reach_no_conflict_fall_back_to_propagation() {
        // Past the database, satisfied under ¬1, unit (enqueues 2), and
        // (¬1 ¬3), satisfied too: no conflict, so the check propagates.
        let proof = DratProof {
            steps: vec![DratStep::Add {
                lits: clause(&[1]),
                hints: [99, 2, 0, 3, u32::MAX].into(),
            }],
        };
        let stats = check_unsat_proof(&asymmetric_unsat(), &[], &proof).expect("valid proof");
        assert_eq!((stats.steps_checked, stats.hint_misses), (1, 1));
    }

    #[test]
    fn accepts_the_explicit_empty_clause_form() {
        let proof = DratProof {
            steps: vec![
                DratStep::add(clause(&[1])),
                DratStep::Delete(clause(&[1, 2])),
                DratStep::add(vec![]),
            ],
        };
        check_unsat_proof(&asymmetric_unsat(), &[], &proof).expect("valid proof");
    }

    #[test]
    fn rejects_a_dropped_essential_addition() {
        // Without Add(1) the empty clause has no RUP justification.
        let proof = DratProof {
            steps: vec![DratStep::add(vec![])],
        };
        assert_eq!(
            check_unsat_proof(&asymmetric_unsat(), &[], &proof),
            Err(CheckFailure::ProofNotRup)
        );
        let empty = DratProof::new();
        assert_eq!(
            check_unsat_proof(&asymmetric_unsat(), &[], &empty),
            Err(CheckFailure::ProofIncomplete)
        );
    }

    #[test]
    fn rejects_deletions_permuted_ahead_of_the_addition_they_support() {
        // Valid: derive (1) from (1 2) and (1 -2), then delete the parents.
        let valid = DratProof {
            steps: vec![
                DratStep::add(clause(&[1])),
                DratStep::Delete(clause(&[1, 2])),
                DratStep::Delete(clause(&[1, -2])),
            ],
        };
        check_unsat_proof(&asymmetric_unsat(), &[], &valid).expect("valid proof");
        // Permuted: the deletions land first, so (1) is no longer RUP.
        let permuted = DratProof {
            steps: vec![
                DratStep::Delete(clause(&[1, 2])),
                DratStep::Delete(clause(&[1, -2])),
                DratStep::add(clause(&[1])),
            ],
        };
        assert_eq!(
            check_unsat_proof(&asymmetric_unsat(), &[], &permuted),
            Err(CheckFailure::ProofNotRup)
        );
    }

    #[test]
    fn rejects_a_flipped_literal() {
        // Over the SAT formula {(1 2), (1 -2)} the clause (1) is RUP (the
        // proof is then merely incomplete), but its flip (-1) is not RUP.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[1, -2]));
        let original = DratProof {
            steps: vec![DratStep::add(clause(&[1]))],
        };
        assert_eq!(
            check_unsat_proof(&cnf, &[], &original),
            Err(CheckFailure::ProofIncomplete)
        );
        let flipped = DratProof {
            steps: vec![DratStep::add(clause(&[-1]))],
        };
        assert_eq!(
            check_unsat_proof(&cnf, &[], &flipped),
            Err(CheckFailure::ProofNotRup)
        );
    }

    #[test]
    fn assumptions_seed_the_root_trail() {
        // (¬a∨b) ∧ a ∧ ¬b is refuted by propagation alone.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[-1, 2]));
        let proof = DratProof::new();
        check_unsat_proof(&cnf, &[lit(1), lit(-2)], &proof).expect("cube refuted by UP");
        // Without the cube the formula is satisfiable: same proof rejected.
        assert_eq!(
            check_unsat_proof(&cnf, &[], &proof),
            Err(CheckFailure::ProofIncomplete)
        );
        // A self-contradictory cube is trivially unsatisfiable.
        check_unsat_proof(&cnf, &[lit(1), lit(-1)], &proof).expect("contradictory cube");
    }

    #[test]
    fn deleting_the_reason_of_a_root_literal_keeps_it_derived() {
        // (a) forces a; deleting (a) afterwards must not retract it, or the
        // follow-up addition (b) — RUP via (¬a∨b) — would be rejected.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[1]));
        cnf.add_clause(clause(&[-1, 2]));
        cnf.add_clause(clause(&[-2, -1]));
        let proof = DratProof {
            steps: vec![
                DratStep::Delete(clause(&[1])),
                DratStep::add(clause(&[2])),
                DratStep::add(vec![]),
            ],
        };
        // Root UP already conflicts: a → b and ¬b. Proven during load.
        check_unsat_proof(&cnf, &[], &proof).expect("accepted");
        // The structured variant: reason deletion happens before the
        // dependent addition, over a formula not refuted at load time.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1]));
        cnf.add_clause(clause(&[-1, 2, 3]));
        cnf.add_clause(clause(&[-1, 2, -3]));
        cnf.add_clause(clause(&[-2, 3]));
        cnf.add_clause(clause(&[-2, -3]));
        let proof = DratProof {
            steps: vec![
                DratStep::Delete(clause(&[1])),
                DratStep::add(clause(&[2])), // RUP only because a stays derived
                DratStep::add(vec![]),
            ],
        };
        check_unsat_proof(&cnf, &[], &proof).expect("reason deletion is not retraction");
    }

    #[test]
    fn unmatched_deletes_are_lenient_and_counted() {
        let proof = DratProof {
            steps: vec![
                DratStep::Delete(clause(&[7, 8])),
                DratStep::add(clause(&[1])),
            ],
        };
        let stats = check_unsat_proof(&asymmetric_unsat(), &[], &proof).expect("accepted");
        assert_eq!(stats.unmatched_deletes, 1);
    }

    #[test]
    fn a_proof_without_deletions_never_builds_the_deletion_index() {
        let cnf = asymmetric_unsat();
        let mut additions_only = Checker::load(&cnf);
        let proof = DratProof {
            steps: vec![DratStep::add(clause(&[1]))],
        };
        additions_only.check(&[], &proof).expect("valid proof");
        assert!(additions_only.delete_index.is_none());
        // The first deletion builds it over everything loaded so far (and
        // matches nothing here); later additions are registered in it, so
        // the second deletion finds the lemma added in between.
        let mut with_deletions = Checker::load(&cnf);
        let proof = DratProof {
            steps: vec![
                DratStep::Delete(clause(&[3, 1])),
                DratStep::add(clause(&[1, 3])),
                DratStep::Delete(clause(&[3, 1])),
                DratStep::add(clause(&[1])),
            ],
        };
        let stats = with_deletions.check(&[], &proof).expect("valid proof");
        assert_eq!(stats.unmatched_deletes, 1);
        let index = with_deletions.delete_index.expect("a deletion was met");
        assert_eq!(index.next.len(), cnf.num_clauses() + 2);
    }

    #[test]
    fn a_restored_copy_equals_the_loaded_formula_whatever_the_last_check_did() {
        let mut cnf = asymmetric_unsat();
        cnf.ensure_vars(4); // a cube literal no clause mentions
        let base = Checker::load(&cnf);
        let mut working = Checker::default();
        working.restore_from(&base);
        assert_eq!(working, base);
        // The inline lists are shared with the base, never copied.
        let shares_the_inline_lists = |working: &Checker| Rc::ptr_eq(&working.inline, &base.inline);
        assert!(shares_the_inline_lists(&working));
        // A cube, lemmas, a deletion (which builds the index) and a conflict
        // all change the working copy; the next restore undoes every bit.
        let proof = DratProof {
            steps: vec![
                DratStep::add(clause(&[1, 3])),
                DratStep::Delete(clause(&[3, 1])),
                DratStep::add(clause(&[1])),
            ],
        };
        let stats = working.check(&[lit(4)], &proof).expect("valid proof");
        assert_eq!((stats.steps_checked, stats.unmatched_deletes), (3, 0));
        assert_ne!(working, base);
        assert!(working.delete_index.is_some());
        working.restore_from(&base);
        assert_eq!(working, base);
        assert!(shares_the_inline_lists(&working));
        // A rejected check, too.
        let truncated = DratProof {
            steps: proof.steps[..1].to_vec(),
        };
        assert_eq!(
            working.check(&[lit(4)], &truncated),
            Err(CheckFailure::ProofIncomplete)
        );
        assert_ne!(working, base);
        working.restore_from(&base);
        assert_eq!(working, base);
        assert!(shares_the_inline_lists(&working));
    }

    /// {(1 2 3), (1 2 ¬3), (1 ¬2), (¬1 4), (¬1 ¬4)}: UNSAT, every clause
    /// watched inline, refuted by the lemma (1), which needs both ternaries
    /// and the binary (1 ¬2): asserting ¬1 gives ¬2, then 3 and ¬3.
    fn short_originals_unsat() -> Cnf {
        let mut cnf = Cnf::new(4);
        for c in [&[1, 2, 3][..], &[1, 2, -3], &[1, -2], &[-1, 4], &[-1, -4]] {
            cnf.add_clause(clause(c));
        }
        cnf
    }

    /// `cnf`'s check of the lemma (1) after the given deletions.
    fn lemma_after_deleting(cnf: &Cnf, deletions: &[&[i64]]) -> Result<CheckStats, CheckFailure> {
        let mut steps: Vec<DratStep> = deletions
            .iter()
            .map(|d| DratStep::Delete(clause(d)))
            .collect();
        steps.push(DratStep::add(clause(&[1])));
        check_unsat_proof(cnf, &[], &DratProof { steps })
    }

    #[test]
    fn short_originals_are_watched_inline_only() {
        let checker = Checker::load(&short_originals_unsat());
        assert!(checker.watches.iter().all(Vec::is_empty));
        let lists = |code: usize| {
            let Inline { bins, terns } = &*checker.inline;
            (bins[code].len(), terns[code].len())
        };
        // 1 sits in both ternaries and (1 ¬2); ¬1 in the two binaries.
        assert_eq!(lists(lit(1).code()), (1, 2));
        assert_eq!(lists(lit(-1).code()), (2, 0));
        let stats = lemma_after_deleting(&short_originals_unsat(), &[]).expect("valid proof");
        assert_eq!((stats.steps_checked, stats.unmatched_deletes), (1, 0));
    }

    #[test]
    fn deleting_an_original_ternary_removes_its_support() {
        assert_eq!(
            lemma_after_deleting(&short_originals_unsat(), &[&[3, 2, 1]]),
            Err(CheckFailure::ProofNotRup)
        );
    }

    #[test]
    fn deleting_an_original_binary_removes_its_support() {
        assert_eq!(
            lemma_after_deleting(&short_originals_unsat(), &[&[-2, 1]]),
            Err(CheckFailure::ProofNotRup)
        );
    }

    #[test]
    fn deleting_one_of_two_copies_of_a_ternary_keeps_its_support() {
        let mut cnf = short_originals_unsat();
        cnf.add_clause(clause(&[2, 3, 1]));
        let once = lemma_after_deleting(&cnf, &[&[1, 2, 3]]).expect("one copy is left");
        assert_eq!(once.unmatched_deletes, 0);
        assert_eq!(
            lemma_after_deleting(&cnf, &[&[1, 2, 3], &[1, 2, 3]]),
            Err(CheckFailure::ProofNotRup)
        );
        // The most recent copy goes first.
        let mut checker = Checker::load(&cnf);
        assert!(checker.delete(&clause(&[1, 2, 3])));
        let deleted: Vec<bool> = checker.spans.iter().map(|s| s.deleted).collect();
        assert_eq!(deleted, [false, false, false, false, false, true]);
    }

    #[test]
    fn a_deleted_inline_clause_neither_enqueues_nor_conflicts() {
        // Live, (1 2) is unit under ¬1 and falsified under ¬1 ¬2, and
        // (1 2 3) is unit under ¬1 ¬2 and falsified under ¬1 ¬2 ¬3.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2, 3]));
        cnf.add_clause(clause(&[1, 2]));
        let falsify_and_propagate = |checker: &mut Checker, falsified: &[i64]| {
            for &d in falsified {
                checker.enqueue(lit(-d));
            }
            checker.propagate()
        };
        let mut live = Checker::load(&cnf);
        assert!(!falsify_and_propagate(&mut live, &[1]));
        assert_eq!(live.values[lit(2).code()], TRUE);
        let mut live = Checker::load(&cnf);
        assert!(falsify_and_propagate(&mut live, &[1, 2]));

        let mut deleted = Checker::load(&cnf);
        assert!(deleted.delete(&clause(&[3, 2, 1])));
        assert!(deleted.delete(&clause(&[2, 1])));
        assert!(!falsify_and_propagate(&mut deleted, &[1, 2]));
        assert_eq!(deleted.values[lit(3).code()], UNDEF);
        assert!(!falsify_and_propagate(&mut deleted, &[3]));
        assert_eq!(deleted.propagations, 3);
    }

    #[test]
    fn deletion_removes_the_most_recent_instance_first() {
        // Two copies of (1 2): one deletion leaves one, which still supports
        // the (1) lemma; a second deletion removes that support.
        let mut cnf = asymmetric_unsat();
        cnf.add_clause(clause(&[2, 1]));
        let deleting = |times: usize| {
            let mut steps = vec![DratStep::Delete(clause(&[1, 2])); times];
            steps.push(DratStep::add(clause(&[1])));
            check_unsat_proof(&cnf, &[], &DratProof { steps })
        };
        assert_eq!(deleting(1).map(|s| s.unmatched_deletes), Ok(0));
        assert_eq!(deleting(2), Err(CheckFailure::ProofNotRup));
        let mut checker = Checker::load(&cnf);
        let once = DratProof {
            steps: vec![DratStep::Delete(clause(&[1, 2]))],
        };
        assert_eq!(
            checker.check(&[], &once),
            Err(CheckFailure::ProofIncomplete)
        );
        let deleted: Vec<bool> = checker.spans.iter().map(|s| s.deleted).collect();
        assert_eq!(deleted, [false, false, false, false, true]);
    }

    #[test]
    fn model_validation_checks_assumptions_and_clauses() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[-1, 3]));
        let mut model = Assignment::new(3);
        model.assign(Var::new(0), true);
        model.assign(Var::new(1), false);
        model.assign(Var::new(2), true);
        assert_eq!(check_model(&cnf, &[], &model), Ok(()));
        assert_eq!(check_model(&cnf, &[lit(1), lit(-2)], &model), Ok(()));
        assert_eq!(
            check_model(&cnf, &[lit(2)], &model),
            Err(CheckFailure::AssumptionViolated)
        );
        let mut bad = model.clone();
        bad.assign(Var::new(2), false);
        assert_eq!(check_model(&cnf, &[], &bad), Err(CheckFailure::ModelUnsat));
        // A partial model leaving a clause undetermined is rejected too.
        let mut partial = Assignment::new(3);
        partial.assign(Var::new(0), true);
        assert_eq!(
            check_model(&cnf, &[], &partial),
            Err(CheckFailure::ModelUnsat)
        );
    }

    #[test]
    fn failure_display_is_human_readable() {
        assert_eq!(
            CheckFailure::ProofNotRup.to_string(),
            "proof addition is not RUP"
        );
        assert_eq!(
            CheckFailure::Checksum.to_string(),
            "upload integrity check failed"
        );
    }
}
