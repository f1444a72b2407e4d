//! The CDCL solver proper.

mod analyze;
mod propagate;
mod reduce;
mod rewind;
mod trail;

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::config::{TestPolicy, DEFAULT_POLARITY, LEARNTSIZE_FACTOR, MIN_LEARNT_LIMIT};
use crate::heap::VarOrderHeap;
use crate::luby::luby;
use crate::proof::ProofLogger;
use crate::{Budget, InterruptFlag, SolverConfig, SolverStats};
use pdsat_cnf::{Assignment, Cnf, DratProof, DratStep, Lit, Value, Var};
use propagate::{SpareLists, WatchHandle, WatchTable};
use rewind::LoadMark;
use std::sync::Arc;
use std::time::Instant;
use trail::VarData;

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The instance is satisfiable; a model is attached.
    Sat(Assignment),
    /// The instance is unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The call was interrupted before reaching an answer.
    Unknown,
}

impl Verdict {
    /// `true` for [`Verdict::Sat`].
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// `true` for [`Verdict::Unsat`].
    #[must_use]
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }

    /// `true` for [`Verdict::Unknown`].
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown)
    }

    /// The model, if the verdict is [`Verdict::Sat`].
    #[must_use]
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            Verdict::Sat(m) => Some(m),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchStatus {
    Sat,
    Unsat,
    Restart,
    Stopped,
}

/// A MiniSat-class CDCL SAT solver.
///
/// Features: two-watched-literal propagation for clauses of four and more
/// literals, binary and ternary clauses propagated from their watchers alone
/// (every literal of a ternary clause watches it, with the other two inline),
/// first-UIP conflict analysis with basic clause minimization, VSIDS decision
/// heuristic, phase saving, Luby restarts, activity/LBD-based learnt clause
/// deletion, incremental solving under assumptions and cooperative
/// interruption.
///
/// The solver is deterministic: given the same clauses, assumptions and
/// configuration it explores the same search tree, which is a requirement of
/// the Monte Carlo estimator of Semenov & Zaikin (the observed values must be
/// samples of a single well-defined random variable).
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cnf, Lit, Var};
/// use pdsat_solver::{Solver, Verdict};
///
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
/// cnf.add_clause([Lit::negative(Var::new(0))]);
/// let mut solver = Solver::from_cnf(&cnf);
/// match solver.solve() {
///     Verdict::Sat(model) => assert!(cnf.is_satisfied_by(&model)),
///     other => panic!("expected SAT, got {other:?}"),
/// }
/// ```
///
/// [`rewind`](Solver::rewind) returns a solver to the state its load left,
/// undoing only what the solve calls since changed, so one loaded solver
/// serves every sub-problem from identical state: loading is paid once per
/// formula, and a rewind costs what the last cube touched. A clone copies
/// every field but the loaded formula's watch table, which nothing writes
/// and every clone shares.
#[derive(Clone)]
pub struct Solver {
    config: SolverConfig,
    /// Production unless a test set another (`set_test_policy`).
    policy: TestPolicy,
    db: ClauseDb,
    original: Vec<ClauseRef>,
    learnts: Vec<ClauseRef>,
    /// The loaded formula's binary and ternary watchers, shared with every
    /// clone; `None` unless built by `from_cnf_with_config`.
    table: Option<Arc<WatchTable>>,
    /// Per literal code, the watchers of the clauses the table does not
    /// hold: learnt ones, originals added after the load and long originals.
    /// A handle is null until its literal first watches one.
    watches: Vec<WatchHandle>,
    /// Emptied lists a rewind took from literals that then have none,
    /// handed out again before a new one is allocated.
    spare_watches: SpareLists,
    /// The literal codes whose handle went from null to set since the load,
    /// each once: the handles a rewind nulls again.
    created_lists: Vec<usize>,
    /// What [`rewind`](Solver::rewind) returns the solver to.
    load: LoadMark,
    /// Current assignment, indexed by *literal code* (two entries per
    /// variable, kept in sync by `unchecked_enqueue`/`cancel_until`): the
    /// propagation inner loop evaluates a literal with one indexed load,
    /// with no sign-flip branch.
    assigns: Vec<Value>,
    vardata: Vec<VarData>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    conflict_counts: Vec<u64>,
    order_heap: VarOrderHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Assumption literals whose decision levels are still established on the
    /// trail from the previous solve call (assumption-prefix trail reuse):
    /// `saved_assumptions[i]` owns decision level `i + 1`. Empty when nothing
    /// is retained; always in sync with `decision_level()` between calls.
    saved_assumptions: Vec<Lit>,
    var_inc: f64,
    cla_inc: f64,
    ok: bool,
    seen: Vec<bool>,
    /// Reusable buffer holding the clause produced by `analyze` (asserting
    /// literal first); avoids a fresh allocation per conflict.
    learnt_buf: Vec<Lit>,
    /// Reusable scratch for decision levels during LBD computation.
    levels_buf: Vec<u32>,
    /// Reusable scratch listing the variables whose `seen` flag must be
    /// cleared at the end of `analyze`.
    toclear_buf: Vec<Var>,
    /// Reusable scratch in which `add_clause` normalises its input: loading
    /// a formula allocates no `Vec` per clause.
    clause_buf: Vec<Lit>,
    /// DRAT derivation log, `None` unless [`SolverConfig::proof`] is set. The
    /// stream is persistent across solve calls: every logged addition is a
    /// consequence of the clause database alone (assumptions enter the search
    /// only as decisions), so one incremental solver serves per-cube UNSAT
    /// certificates by cloning the stream (see [`Solver::unsat_certificate`]).
    proof: Option<ProofLogger>,
    /// Whether the most recent solve call answered [`Verdict::Unsat`]
    /// (including assumption-scoped UNSAT, which does not clear `ok`).
    last_solve_unsat: bool,
    stats: SolverStats,
    max_learnts: f64,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.original.len())
            .field("num_learnts", &self.learnts.len())
            .field("ok", &self.ok)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default configuration.
    #[must_use]
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with a custom configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Solver {
        let proof = config.proof.then(ProofLogger::new);
        let mut solver = Solver {
            config,
            policy: TestPolicy::default(),
            db: ClauseDb::new(),
            original: Vec::new(),
            learnts: Vec::new(),
            table: None,
            watches: Vec::new(),
            spare_watches: Vec::new(),
            created_lists: Vec::new(),
            load: LoadMark::default(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            conflict_counts: Vec::new(),
            order_heap: VarOrderHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            saved_assumptions: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            levels_buf: Vec::new(),
            toclear_buf: Vec::new(),
            clause_buf: Vec::new(),
            proof,
            last_solve_unsat: false,
            stats: SolverStats::default(),
            max_learnts: 0.0,
        };
        solver.load = LoadMark::take(&mut solver);
        solver
    }

    /// Creates a solver preloaded with the clauses of `cnf`.
    #[must_use]
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        Solver::from_cnf_with_config(cnf, SolverConfig::default())
    }

    /// Creates a solver preloaded with the clauses of `cnf` and a custom
    /// configuration.
    #[must_use]
    pub fn from_cnf_with_config(cnf: &Cnf, config: SolverConfig) -> Solver {
        let mut solver = Solver::with_config(config);
        solver.ensure_vars(cnf.num_vars());
        // Every literal of a binary or ternary clause watches it: the table
        // gets one slot per watcher of the formula's clauses of those
        // lengths, so loading fills it in place and no second copy is ever
        // made. Normalisation can leave slots empty (sealing squeezes them
        // out) or shorten a longer clause into one that finds its literal's
        // run full (its watchers go to the lists).
        let mut slots = [
            vec![0u32; 2 * cnf.num_vars()],
            vec![0u32; 2 * cnf.num_vars()],
        ];
        for clause in cnf.iter().filter(|c| matches!(c.len(), 2 | 3)) {
            for &l in clause {
                slots[clause.len() - 2][(!l).code()] += 1;
            }
        }
        // The table is an owned value while it fills and is shared only
        // once sealed.
        let mut table = WatchTable::with_slots(&slots[0], &slots[1]);
        drop(slots);
        for clause in cnf.iter() {
            solver.add_clause_to(clause.iter().copied(), Some(&mut table));
        }
        table.seal();
        solver.table = Some(Arc::new(table));
        solver.load = LoadMark::take(&mut solver);
        solver
    }

    /// Number of variables known to the solver.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len() / 2
    }

    /// Cumulative statistics over all solve calls.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Replaces the search policy, for differential tests only. A policy
    /// that replays forgets any retained assumption trail; the others keep
    /// it, so a test can vary the conflict stop from one call to the next.
    /// The [`Default`] policy is production.
    #[doc(hidden)]
    pub fn set_test_policy(&mut self, policy: TestPolicy) {
        if policy.replay {
            self.cancel_until(0);
            self.saved_assumptions.clear();
        }
        self.policy = policy;
    }

    /// The DRAT steps logged so far, in derivation order, or `None` when
    /// [`SolverConfig::proof`] is off. The stream is shared by every solve
    /// call on this instance; see [`Solver::unsat_certificate`] for turning
    /// it into a standalone certificate.
    #[must_use]
    pub fn proof_steps(&self) -> Option<&[DratStep]> {
        self.proof.as_ref().map(ProofLogger::steps)
    }

    /// A DRAT certificate for the most recent UNSAT answer, or `None` when
    /// proof logging is off or the last answer was not UNSAT.
    ///
    /// The certificate refutes *formula ∧ assumptions* for the assumptions of
    /// the most recent solve call: a checker must seed those assumption
    /// literals as root-level units before replaying the steps (see
    /// `pdsat_checker::check_unsat_proof`). For a root-level UNSAT
    /// (`!self.is_ok()`) the assumption list is irrelevant and may be empty.
    #[must_use]
    pub fn unsat_certificate(&self) -> Option<DratProof> {
        let log = self.proof.as_ref()?;
        if !self.ok || self.last_solve_unsat {
            Some(log.certificate())
        } else {
            None
        }
    }

    /// `false` once the clause database has been proven unsatisfiable at the
    /// root level; further solve calls return [`Verdict::Unsat`] immediately.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The assumption literals whose decision levels are still established on
    /// the trail from the previous solve call. The next solve backtracks only
    /// to where its assumptions diverge from this prefix. Empty when nothing
    /// was retained.
    #[must_use]
    pub fn retained_assumptions(&self) -> &[Lit] {
        &self.saved_assumptions
    }

    /// Per-variable conflict participation counts (indexed by variable).
    #[must_use]
    pub fn conflict_counts(&self) -> &[u64] {
        &self.conflict_counts
    }

    /// Ensures the solver knows at least `n` variables: every per-variable
    /// vector grows once, to its new length; a solve calls it as it first
    /// establishes an assumption on an unknown variable.
    pub fn ensure_vars(&mut self, n: usize) {
        let known = self.num_vars();
        if n <= known {
            return;
        }
        self.assigns.resize(2 * n, Value::Unassigned);
        self.vardata.resize(
            n,
            VarData {
                reason: None,
                level: 0,
            },
        );
        self.polarity.resize(n, DEFAULT_POLARITY);
        self.activity.resize(n, 0.0);
        self.conflict_counts.resize(n, 0);
        self.seen.resize(n, false);
        self.watches.resize_with(2 * n, || None);
        self.order_heap.append_new(known..n, &self.activity);
    }

    /// Adds a clause. Returns `false` if the clause (together with the
    /// clauses added so far) makes the formula unsatisfiable at the root
    /// level.
    ///
    /// Invalidates any assumption trail retained for reuse: the new clause
    /// could be falsified or unit under the retained assignments, so the
    /// solver backtracks to the root level before attaching it.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.add_clause_to(lits, None)
    }

    /// [`add_clause`](Self::add_clause), attaching to `table`, the watch
    /// table the formula loads into, while there is one.
    fn add_clause_to<I: IntoIterator<Item = Lit>>(
        &mut self,
        lits: I,
        table: Option<&mut WatchTable>,
    ) -> bool {
        let kept = self.original.len();
        let added = self.add_original(lits, table);
        if let Some(p) = self.proof.as_mut() {
            let id = p.original();
            if let Some(&cref) = self.original.get(kept) {
                self.db.set_proof_id(cref, id);
            }
        }
        added
    }

    /// The body of [`add_clause`](Self::add_clause), which then gives the
    /// clause its proof id. A unit propagates over `table` too, which holds
    /// the watchers of the clauses loaded before it.
    fn add_original<I: IntoIterator<Item = Lit>>(
        &mut self,
        lits: I,
        table: Option<&mut WatchTable>,
    ) -> bool {
        self.cancel_until(0);
        self.saved_assumptions.clear();
        if !self.ok {
            return false;
        }
        let input = lits;
        let mut lits = std::mem::take(&mut self.clause_buf);
        lits.clear();
        lits.extend(input);
        if let Some(max) = lits.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max + 1);
        }
        // Normalize: sort, dedup, drop tautologies and false/true literals.
        lits.sort_unstable();
        lits.dedup();
        let mut tautology = false;
        lits.retain(|&l| self.lit_value(l) != Value::False);
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                tautology = true;
            }
        }
        let satisfied = tautology || lits.iter().any(|&l| self.lit_value(l) == Value::True);
        let added = satisfied
            || match lits.len() {
                0 => {
                    // Every literal of the input clause is false under the root
                    // assignment; a checker re-derives the conflict by unit
                    // propagation over the loaded formula.
                    self.ok = false;
                    if let Some(p) = self.proof.as_mut() {
                        p.add_empty();
                    }
                    false
                }
                1 => {
                    self.unchecked_enqueue(lits[0], None);
                    let conflict = match table {
                        Some(table) => self.propagate_from(table),
                        None => self.propagate(),
                    };
                    self.ok = conflict.is_none();
                    if !self.ok {
                        if let Some(p) = self.proof.as_mut() {
                            p.add_empty();
                        }
                    }
                    self.ok
                }
                _ => {
                    let cref = self.db.add(&lits, false, 0);
                    self.original.push(cref);
                    self.attach_clause(cref, table);
                    true
                }
            };
        self.clause_buf = lits;
        added
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> Verdict {
        self.solve_limited(&[], &Budget::unlimited(), None)
    }

    /// Solves under the given assumption literals (they are treated as if
    /// they were unit clauses, but are retracted afterwards, enabling
    /// incremental use — this is exactly how PDSAT hands the cubes of a
    /// decomposition family to the same solver instance).
    ///
    /// Consecutive calls sharing an assumption prefix backtrack only to the
    /// first diverging assumption instead of replaying the whole prefix and
    /// its unit propagations — the dominant per-cube cost when the cubes of a
    /// decomposition family are processed in an order that keeps neighbours
    /// adjacent (see [`SolverStats::reused_assumptions`]). An unknown
    /// variable is created ([`ensure_vars`](Self::ensure_vars)) when the solve
    /// first establishes its assumption: a cube refuted at an earlier one
    /// leaves [`num_vars`](Self::num_vars) unchanged.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Verdict {
        self.solve_limited(assumptions, &Budget::unlimited(), None)
    }

    /// Solves under assumptions with an optional interruption flag: a raised
    /// flag stops the call with [`Verdict::Unknown`]. The [`Budget`] sets no
    /// limit. Unknown variables are created as in
    /// [`solve_with_assumptions`](Self::solve_with_assumptions).
    #[inline]
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        _budget: &Budget,
        interrupt: Option<&InterruptFlag>,
    ) -> Verdict {
        // Clock reads are skipped entirely for untimed micro-solves (see
        // `SolverConfig::time_accounting`).
        let verdict = if self.config.time_accounting {
            let start = Instant::now();
            let verdict = self.solve_inner(assumptions, interrupt);
            self.stats.solve_time += start.elapsed();
            verdict
        } else {
            self.solve_inner(assumptions, interrupt)
        };
        self.last_solve_unsat = verdict.is_unsat();
        verdict
    }

    fn solve_inner(&mut self, assumptions: &[Lit], interrupt: Option<&InterruptFlag>) -> Verdict {
        if !self.ok {
            return Verdict::Unsat;
        }
        self.cancel_until_assumption_divergence(assumptions);
        let stop_at_conflict = self
            .policy
            .interrupt_at_conflict
            .map(|n| self.stats.conflicts + n);
        self.max_learnts = match self.policy.learnt_limit {
            None => (self.original.len() as f64 * LEARNTSIZE_FACTOR).max(MIN_LEARNT_LIMIT),
            Some(limit) => limit as f64,
        };

        let mut curr_restarts: u64 = 0;
        loop {
            let restart_limit = luby(curr_restarts).saturating_mul(self.policy.restart_base);
            let status = self.search(restart_limit, assumptions, interrupt, stop_at_conflict);
            match status {
                SearchStatus::Sat => {
                    let model = self.extract_model();
                    self.retract_after_solve(assumptions);
                    return Verdict::Sat(model);
                }
                SearchStatus::Unsat => {
                    self.retract_after_solve(assumptions);
                    return Verdict::Unsat;
                }
                SearchStatus::Restart => {
                    self.stats.restarts += 1;
                    curr_restarts += 1;
                    // Restarts fire at propagation fixpoints, where the
                    // assumption prefix of the trail is its own closure, so
                    // it survives them; the replay reference restarts from
                    // the root as MiniSat does.
                    let keep = if self.policy.replay {
                        0
                    } else {
                        self.decision_level().min(assumptions.len() as u32)
                    };
                    self.cancel_until(keep);
                }
                SearchStatus::Stopped => {
                    self.retract_after_solve(assumptions);
                    return Verdict::Unknown;
                }
            }
        }
    }

    // ----------------------------------------------------------------- search

    fn search(
        &mut self,
        nof_conflicts: u64,
        assumptions: &[Lit],
        interrupt: Option<&InterruptFlag>,
        stop_at_conflict: Option<u64>,
    ) -> SearchStatus {
        let mut conflicts_this_round: u64 = 0;
        loop {
            if self.interrupted(interrupt, stop_at_conflict) {
                return SearchStatus::Stopped;
            }
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_this_round += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    if let Some(p) = self.proof.as_mut() {
                        p.add_empty();
                    }
                    return SearchStatus::Unsat;
                }
                let (backtrack_level, lbd) = if self.proof.is_some() {
                    self.analyze::<true>(confl)
                } else {
                    self.analyze::<false>(confl)
                };
                self.cancel_until(backtrack_level);
                let kept = if self.learnt_buf.len() == 1 {
                    self.unchecked_enqueue(self.learnt_buf[0], None);
                    None
                } else {
                    let asserting = self.learnt_buf[0];
                    let cref = self.db.add(&self.learnt_buf, true, lbd);
                    self.learnts.push(cref);
                    self.stats.learnt_clauses += 1;
                    self.attach_clause(cref, None);
                    self.bump_clause_activity(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                    Some(cref)
                };
                // First-UIP learnt clauses (minimization included) are RUP
                // against the clause database at learning time.
                if let Some(p) = self.proof.as_mut() {
                    p.lemma(&self.learnt_buf, kept, &self.db, &self.learnts);
                }
                self.decay_var_activity();
                self.decay_clause_activity();
            } else {
                // No conflict.
                if conflicts_this_round >= nof_conflicts {
                    return SearchStatus::Restart;
                }
                if self.learnts.len() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                }
                // Establish assumptions, then decide.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    // An unknown variable is created as it is established.
                    if p.code() >= self.assigns.len() {
                        self.ensure_vars(p.var().index() + 1);
                    }
                    match self.lit_value(p) {
                        Value::True => self.new_decision_level(),
                        Value::False => return SearchStatus::Unsat,
                        Value::Unassigned => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(l) => {
                            self.stats.decisions += 1;
                            l
                        }
                        None => return SearchStatus::Sat,
                    },
                };
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Whether the call stops here: the interrupt flag is raised, or the
    /// test policy's conflict stop is met.
    fn interrupted(
        &self,
        interrupt: Option<&InterruptFlag>,
        stop_at_conflict: Option<u64>,
    ) -> bool {
        interrupt.is_some_and(InterruptFlag::is_raised)
            || stop_at_conflict.is_some_and(|n| self.stats.conflicts >= n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PROTECTED_LBD;
    use pdsat_cnf::{dimacs, Cube};
    use rand::SeedableRng;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        assert!(s.add_clause([lit(1)]));
        assert!(s.add_clause([lit(-2)]));
        match s.solve() {
            Verdict::Sat(m) => {
                assert_eq!(m.value(Var::new(0)).to_bool(), Some(true));
                assert_eq!(m.value(Var::new(1)).to_bool(), Some(false));
            }
            other => panic!("expected SAT, got {other:?}"),
        }

        let mut u = Solver::new();
        u.add_clause([lit(1)]);
        assert!(!u.add_clause([lit(-1)]));
        assert_eq!(u.solve(), Verdict::Unsat);
        assert!(!u.is_ok());
    }

    #[test]
    fn empty_clause_makes_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), Verdict::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p_{i,j} with i∈{0,1,2}, j∈{0,1}.
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 2 + j) as u32));
        let mut s = Solver::new();
        for i in 0..3 {
            s.add_clause([var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), Verdict::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn model_satisfies_formula() {
        let text =
            "p cnf 6 8\n1 2 0\n-1 3 0\n-3 -2 0\n4 5 6 0\n-4 -5 0\n-5 -6 0\n-4 -6 0\n2 -6 0\n";
        let cnf = dimacs::parse_str(text).unwrap();
        let mut s = Solver::from_cnf(&cnf);
        match s.solve() {
            Verdict::Sat(m) => assert!(cnf.is_satisfied_by(&m)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_are_retractable() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2): assuming ¬x2 forces UNSAT, without it SAT.
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), Verdict::Unsat);
        assert!(s.is_ok(), "assumption UNSAT must not poison the solver");
        assert!(s.solve_with_assumptions(&[lit(2)]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_fix_values_in_model() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2), lit(3)]);
        match s.solve_with_assumptions(&[lit(-1), lit(-2)]) {
            Verdict::Sat(m) => {
                assert_eq!(m.value(Var::new(0)).to_bool(), Some(false));
                assert_eq!(m.value(Var::new(1)).to_bool(), Some(false));
                assert_eq!(m.value(Var::new(2)).to_bool(), Some(true));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_assumptions_are_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(1), lit(-1)]), Verdict::Unsat);
        assert!(s.is_ok());
    }

    /// Stops every later solve call once it has met `conflicts` conflicts.
    fn stop_at(s: &mut Solver, conflicts: Option<u64>) {
        s.set_test_policy(TestPolicy {
            interrupt_at_conflict: conflicts,
            ..TestPolicy::default()
        });
    }

    #[test]
    fn conflict_interrupt_stops_search() {
        // A hard-ish pigeonhole instance stopped after a few conflicts.
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 4 + j) as u32));
        let mut s = Solver::new();
        for i in 0..5 {
            s.add_clause((0..4).map(|j| var(i, j)));
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        stop_at(&mut s, Some(3));
        match s.solve() {
            Verdict::Unknown => assert_eq!(s.stats().conflicts, 3),
            other => panic!("expected a conflict stop, got {other:?}"),
        }
        // Without the stop the instance is UNSAT.
        stop_at(&mut s, None);
        assert_eq!(s.solve(), Verdict::Unsat);
    }

    #[test]
    fn interrupt_flag_stops_search() {
        let flag = InterruptFlag::new();
        flag.raise();
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        match s.solve_limited(&[], &Budget::unlimited(), Some(&flag)) {
            Verdict::Unknown => {}
            other => panic!("expected interruption, got {other:?}"),
        }
        flag.reset();
        assert!(s
            .solve_limited(&[], &Budget::unlimited(), Some(&flag))
            .is_sat());
    }

    #[test]
    fn solver_is_deterministic() {
        let text = "p cnf 8 12\n1 2 3 0\n-1 -2 0\n-2 -3 0\n-1 -3 0\n4 5 6 0\n-4 -5 0\n-5 -6 0\n-4 -6 0\n7 8 0\n-7 -8 0\n1 7 0\n4 8 0\n";
        let cnf = dimacs::parse_str(text).unwrap();
        let run = || {
            let mut s = Solver::from_cnf(&cnf);
            let v = s.solve();
            (v.is_sat(), *s.stats())
        };
        let (sat1, stats1) = run();
        let (sat2, stats2) = run();
        assert_eq!(sat1, sat2);
        assert_eq!(stats1.conflicts, stats2.conflicts);
        assert_eq!(stats1.decisions, stats2.decisions);
        assert_eq!(stats1.propagations, stats2.propagations);
    }

    #[test]
    fn conflict_counts_accumulate() {
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 2 + j) as u32));
        let mut s = Solver::new();
        for i in 0..3 {
            s.add_clause([var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        s.solve();
        let total: u64 = s.conflict_counts().iter().sum();
        assert!(total > 0, "conflict analysis must have bumped variables");
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(-1)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(), Verdict::Unsat);
    }

    #[test]
    fn incremental_ternary_clause_addition() {
        // The ternary lists take clauses after a solve like the others do.
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve_with_assumptions(&[lit(1), lit(2)]).is_sat());
        s.add_clause([lit(-1), lit(-2), lit(3)]);
        match s.solve_with_assumptions(&[lit(1), lit(2)]) {
            Verdict::Sat(m) => assert_eq!(m.value(Var::new(2)).to_bool(), Some(true)),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([lit(-1), lit(-2), lit(-3)]);
        assert_eq!(s.solve_with_assumptions(&[lit(1), lit(2)]), Verdict::Unsat);
        assert!(s.solve().is_sat());
    }

    /// A solver holding the one clause (1 ∨ 2 ∨ 3) with `trail` enqueued as
    /// decisions of one level, not yet propagated.
    fn ternary_under(trail: &[i64]) -> (Solver, ClauseRef) {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2), lit(3)]);
        let cref = s.original[0];
        s.new_decision_level();
        for &d in trail {
            s.unchecked_enqueue(lit(d), None);
        }
        (s, cref)
    }

    #[test]
    fn ternary_visit_with_both_others_false_is_a_conflict_on_that_clause() {
        let (mut s, cref) = ternary_under(&[-1, -2, -3]);
        assert_eq!(s.propagate(), Some(cref));
        assert_eq!(s.trail.len(), 3);
    }

    #[test]
    fn ternary_visit_with_one_other_false_enqueues_the_third_with_that_reason() {
        // Each literal implied in turn, from the list of either falsified
        // one: with `a` false the unit is `b`, else it is `a`.
        for (trail, implied) in [
            ([-1, -2], 3),
            ([-2, -1], 3),
            ([-1, -3], 2),
            ([-3, -1], 2),
            ([-2, -3], 1),
            ([-3, -2], 1),
        ] {
            let (mut s, cref) = ternary_under(&trail);
            assert_eq!(s.propagate(), None, "{trail:?}");
            assert_eq!(s.trail.last(), Some(&lit(implied)), "{trail:?}");
            assert_eq!(s.lit_value(lit(implied)), Value::True, "{trail:?}");
            let data = s.vardata[lit(implied).var().index()];
            assert_eq!((data.reason, data.level), (Some(cref), 1), "{trail:?}");
        }
    }

    #[test]
    fn ternary_visit_of_a_satisfied_or_open_clause_does_nothing() {
        // Two unassigned; one true (whatever the other is).
        for trail in [&[-1][..], &[2, -1], &[2, -3, -1], &[3, -2, -1], &[2, 3, -1]] {
            let (mut s, _) = ternary_under(trail);
            assert_eq!(s.propagate(), None, "{trail:?}");
            assert_eq!(s.trail.len(), trail.len(), "{trail:?}");
            assert_eq!(s.qhead, trail.len(), "{trail:?}");
        }
    }

    #[test]
    fn learnt_ternary_reason_survives_reduce_db_and_relocation_at_any_position() {
        // Nothing moves the implied literal of a ternary reason to position
        // 0, so `is_locked` must look at all three.
        for implied in [1, 2, 3] {
            let mut s = Solver::new();
            s.set_test_policy(TestPolicy {
                garbage_frac: 0.01,
                ..TestPolicy::default()
            });
            s.ensure_vars(9);
            let lbd = PROTECTED_LBD + 7;
            let learn = |s: &mut Solver, lits: &[Lit], lbd: u32| {
                let cref = s.db.add(lits, true, lbd);
                s.learnts.push(cref);
                s.attach_clause(cref, None);
                cref
            };
            // Worst LBD first: of these four `reduce_db` deletes two, the
            // junk clause ahead of the target in the arena (so the target
            // relocates) and — unless it is locked — the target.
            let junk = learn(&mut s, &[lit(4), lit(5), lit(6), lit(7)], lbd);
            let target = learn(&mut s, &[lit(1), lit(2), lit(3)], lbd);
            learn(&mut s, &[lit(4), lit(5), lit(8)], PROTECTED_LBD + 1);
            learn(&mut s, &[lit(5), lit(6), lit(9)], PROTECTED_LBD + 1);

            s.new_decision_level();
            for d in [1, 2, 3].into_iter().filter(|&d| d != implied) {
                s.unchecked_enqueue(lit(-d), None);
            }
            assert_eq!(s.propagate(), None);
            let reason_of_implied = |s: &Solver| s.vardata[lit(implied).var().index()].reason;
            assert_eq!(reason_of_implied(&s), Some(target));
            assert!(s.is_locked(target) && !s.is_locked(junk));

            s.reduce_db();
            assert_eq!((s.stats.removed_clauses, s.stats.gc_runs), (1, 1));
            let moved = reason_of_implied(&s).expect("still the reason");
            assert_ne!(moved, target, "the clause ahead of it was collected");
            assert_eq!(s.db.lits_vec(moved), [lit(1), lit(2), lit(3)]);
            assert!(s.learnts.contains(&moved));
            for (watching, a, b) in [(1, 2, 3), (2, 1, 3), (3, 1, 2)] {
                let list = &s.watches[lit(-watching).code()]
                    .as_deref()
                    .expect("the literal watches the clause")
                    .terns;
                assert_eq!(list.len(), 1);
                assert_eq!(
                    (list[0].cref, list[0].a, list[0].b),
                    (moved, lit(a), lit(b))
                );
            }
        }
    }

    // The worker pool moves solvers between threads: an `Rc` table would
    // fail to compile here.
    const _: () = {
        const fn send<T: Send>() {}
        send::<Solver>();
    };

    #[test]
    fn a_watch_handle_is_one_pointer() {
        assert!(std::mem::size_of::<WatchHandle>() <= 8);
    }

    #[test]
    fn clones_and_rewound_solvers_share_the_loaded_watch_table() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E);
        // Binary and ternary clauses, no units: nothing shortens at load.
        let mut cnf = Cnf::random_3cnf(30, 120, &mut rng);
        for v in 0..10 {
            cnf.add_clause([lit(v + 1), lit(-(v + 11))]);
        }
        let template = Solver::from_cnf(&cnf);
        assert!(template.table().crefs().count() > 0);
        let no_handle = |s: &Solver| s.watches.iter().all(Option::is_none);
        assert!(no_handle(&template), "the load lives in the table only");
        let mut solver = template.clone();
        let shares = |s: &Solver| match (&s.table, &template.table) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(shares(&solver));
        assert!(no_handle(&solver));
        // Twice over the same cubes, rewinding after each: the second pass
        // needs no list the first did not leave as a spare.
        let set = [Var::new(0), Var::new(1), Var::new(2)];
        let loaded_arena = template.db.mark();
        let mut spares = [0; 2];
        for spare in &mut spares {
            let mut learnt = 0;
            for bits in 0..8 {
                let _ = solver.solve_with_assumptions(Cube::from_bits(&set, bits).lits());
                learnt += solver.stats().learnt_clauses;
                solver.rewind();
                assert_eq!(solver.db.mark(), loaded_arena);
                assert_eq!(solver.trail, template.trail);
                assert!(solver.created_lists.is_empty());
                assert!(shares(&solver));
                assert!(no_handle(&solver));
            }
            assert!(learnt > 0, "no cube learnt a clause");
            *spare = solver.spare_watches.len();
        }
        assert!(spares[0] > 0);
        assert_eq!(spares[0], spares[1]);
    }

    /// Learnt clauses of every length, attached to null handles and then
    /// reduced and compacted, leave every literal's lists in attach order
    /// with the survivors relocated.
    #[test]
    fn lazily_created_lists_keep_attach_order_through_reduce_and_collection() {
        let mut s = Solver::new();
        s.set_test_policy(TestPolicy {
            garbage_frac: 0.0,
            ..TestPolicy::default()
        });
        s.ensure_vars(10);
        assert!(s.watches.iter().all(Option::is_none));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0DE5);
        let clauses = Cnf::random_cnf(10, 120, 5, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for (i, clause) in clauses.iter().enumerate() {
            let mut lits = clause.to_vec();
            lits.sort_unstable();
            lits.dedup();
            let tautology = lits.windows(2).any(|w| w[0].var() == w[1].var());
            if lits.len() < 2 || tautology || !seen.insert(lits.clone()) {
                continue;
            }
            let cref = s.db.add(&lits, true, PROTECTED_LBD + 1 + (i % 4) as u32);
            s.learnts.push(cref);
            s.attach_clause(cref, None);
        }
        // Each watcher as its clause's literals and its inline ones.
        type Entry = (Vec<Lit>, Vec<Lit>);
        let snapshot = |s: &Solver| -> Vec<[Vec<Entry>; 3]> {
            s.watches
                .iter()
                .map(|handle| match handle.as_deref() {
                    None => Default::default(),
                    Some(l) => [
                        l.bins
                            .iter()
                            .map(|w| (s.db.lits_vec(w.cref), vec![w.other]))
                            .collect(),
                        l.terns
                            .iter()
                            .map(|w| (s.db.lits_vec(w.cref), vec![w.a, w.b]))
                            .collect(),
                        l.longs
                            .iter()
                            .map(|w| (s.db.lits_vec(w.cref), vec![w.blocker]))
                            .collect(),
                    ],
                })
                .collect()
        };
        let before = snapshot(&s);
        let crefs_before = s.learnts.clone();
        s.reduce_db();
        assert!(s.stats.removed_clauses > 0);
        assert_eq!(s.stats.gc_runs, 1);
        assert!(s.learnts.iter().zip(&crefs_before).any(|(a, b)| a != b));
        let live: std::collections::HashSet<Vec<Lit>> =
            s.learnts.iter().map(|&c| s.db.lits_vec(c)).collect();
        let expected: Vec<[Vec<Entry>; 3]> = before
            .into_iter()
            .map(|kinds| {
                kinds.map(|list| list.into_iter().filter(|e| live.contains(&e.0)).collect())
            })
            .collect();
        assert_eq!(snapshot(&s), expected);
        for kind in 0..3 {
            let watched: usize = expected.iter().map(|kinds| kinds[kind].len()).sum();
            assert!(watched > 20, "too few watchers of kind {kind}: {watched}");
        }
    }

    /// A solver loaded through the table and one fed the same clauses by
    /// `add_clause` (lists only) attach in the same order, so they search
    /// alike: same verdicts, counters and proofs, cube after cube, as the
    /// learnt clauses pile up in the lists. Units ahead of the other clauses
    /// shorten some of them at load, so runs of the table fill up and the
    /// lists take over those literals.
    #[test]
    fn the_loaded_table_searches_exactly_like_lists() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11575);
        let (mut overflowed, mut conflicts) = (0, 0);
        for round in 0..8 {
            let mut cnf = Cnf::new(60);
            for v in 0..2 + round % 3 {
                cnf.add_clause([Lit::new(Var::new(v * 5), round % 2 == 0)]);
            }
            let ternaries = Cnf::random_3cnf(60, 250, &mut rng);
            let long = Cnf::random_cnf(60, 120, 5, &mut rng);
            for clause in ternaries.iter().chain(long.iter().filter(|c| c.len() > 3)) {
                cnf.add_clause(clause.iter().copied());
            }
            let config = SolverConfig {
                proof: true,
                time_accounting: false,
            };
            let mut loaded = Solver::from_cnf_with_config(&cnf, config.clone());
            let mut fed = Solver::with_config(config);
            fed.ensure_vars(cnf.num_vars());
            for clause in cnf.iter() {
                fed.add_clause(clause.iter().copied());
            }
            assert!(fed.table.is_none());
            overflowed += usize::from(
                loaded
                    .watches
                    .iter()
                    .flatten()
                    .any(|l| !l.bins.is_empty() || !l.terns.is_empty()),
            );
            let set = [Var::new(1), Var::new(7), Var::new(13), Var::new(19)];
            for bits in 0..16 {
                let cube = Cube::from_bits(&set, bits);
                let verdict = loaded.solve_with_assumptions(cube.lits());
                assert_eq!(
                    verdict,
                    fed.solve_with_assumptions(cube.lits()),
                    "round {round}"
                );
                assert_eq!(loaded.stats(), fed.stats(), "round {round}, cube {bits}");
                assert_eq!(loaded.proof_steps(), fed.proof_steps(), "round {round}");
            }
            conflicts += loaded.stats().conflicts;
        }
        assert!(overflowed > 0, "no load shortened a clause into a full run");
        assert!(conflicts > 100, "too little search to tell: {conflicts}");
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_harmless() {
        let mut s = Solver::new();
        assert!(s.add_clause([lit(1), lit(1), lit(-2)]));
        assert!(s.add_clause([lit(2), lit(-2)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn trail_reuse_keeps_shared_assumption_prefixes() {
        // Implication chain x1 → x2 → … → x8: assuming x1 propagates the
        // whole chain, so replaying it per cube is measurable work.
        let mut s = Solver::new();
        for i in 1..8 {
            s.add_clause([lit(-i), lit(i + 1)]);
        }
        assert!(s
            .solve_with_assumptions(&[lit(1), lit(-9), lit(-10)])
            .is_sat());
        assert_eq!(s.retained_assumptions(), &[lit(1), lit(-9), lit(-10)]);
        let before = *s.stats();
        // Same first two assumptions, different third: two levels reused,
        // and the chain propagations below them are not replayed.
        assert!(s
            .solve_with_assumptions(&[lit(1), lit(-9), lit(10)])
            .is_sat());
        let delta = s.stats().delta_since(&before);
        assert_eq!(delta.reused_assumptions, 2);
        assert!(
            delta.saved_propagations >= 8,
            "chain replay must be skipped"
        );
        // Full match: everything is reused, nothing re-propagated.
        let before = *s.stats();
        assert!(s
            .solve_with_assumptions(&[lit(1), lit(-9), lit(10)])
            .is_sat());
        let delta = s.stats().delta_since(&before);
        assert_eq!(delta.reused_assumptions, 3);
        assert_eq!(delta.propagations, 0);
    }

    #[test]
    fn trail_reuse_is_invalidated_by_clause_additions() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2), lit(3)]);
        assert!(s.solve_with_assumptions(&[lit(1), lit(2)]).is_sat());
        assert_eq!(s.retained_assumptions().len(), 2);
        // The new clause is unit under the retained trail; adding it must
        // drop the retained prefix so the next solve sees its propagation.
        s.add_clause([lit(-1), lit(-2), lit(4)]);
        assert!(s.retained_assumptions().is_empty());
        match s.solve_with_assumptions(&[lit(1), lit(2)]) {
            Verdict::Sat(m) => assert_eq!(m.value(Var::new(3)).to_bool(), Some(true)),
            other => panic!("expected SAT, got {other:?}"),
        }
        // And a contradicting clause must flip the verdict.
        s.add_clause([lit(-1), lit(-2), lit(-4)]);
        assert_eq!(s.solve_with_assumptions(&[lit(1), lit(2)]), Verdict::Unsat);
        assert!(
            s.solve().is_sat(),
            "solver stays usable without assumptions"
        );
        assert!(s.retained_assumptions().is_empty());
    }

    #[test]
    fn trail_reuse_matches_fresh_backtracking_verdicts() {
        // Every cube over 3 of the pigeonhole variables, solved twice: once
        // with reuse, once with the MiniSat-style full backtrack.
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 3 + j) as u32));
        let clauses: Vec<Vec<Lit>> = {
            let mut cs = Vec::new();
            for i in 0..4 {
                cs.push((0..3).map(|j| var(i, j)).collect());
            }
            for j in 0..3 {
                for i1 in 0..4 {
                    for i2 in (i1 + 1)..4 {
                        cs.push(vec![!var(i1, j), !var(i2, j)]);
                    }
                }
            }
            cs
        };
        let build = |reuse: bool| {
            let mut s = Solver::new();
            s.set_test_policy(TestPolicy {
                replay: !reuse,
                ..TestPolicy::default()
            });
            for c in &clauses {
                s.add_clause(c.iter().copied());
            }
            s
        };
        let mut with_reuse = build(true);
        let mut without = build(false);
        for bits in 0..8u32 {
            let cube: Vec<Lit> = (0..3)
                .map(|k| Lit::new(Var::new(k), bits >> (2 - k) & 1 == 1))
                .collect();
            let a = with_reuse.solve_with_assumptions(&cube);
            let b = without.solve_with_assumptions(&cube);
            assert_eq!(a, b, "cube {bits:03b}");
        }
        assert!(without.retained_assumptions().is_empty());
        assert!(with_reuse.stats().reused_assumptions > 0);
        assert_eq!(without.stats().reused_assumptions, 0);
        assert_eq!(without.stats().saved_propagations, 0);
    }

    #[test]
    fn interrupt_at_conflict_is_the_interrupt_exit() {
        // Twin solvers over a pigeonhole formula, one stopped by the test
        // policy and one by a pre-raised flag, must leave identical state.
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 4 + j) as u32));
        // Wall time is the one counter that cannot repeat.
        let mut hooked = Solver::with_config(SolverConfig {
            time_accounting: false,
            ..SolverConfig::default()
        });
        for i in 0..5 {
            hooked.add_clause((0..4).map(|j| var(i, j)));
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    hooked.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        let mut flagged = hooked.clone();
        let flag = InterruptFlag::new();
        // A full solve first, so both exits start from a retained prefix.
        let first = [var(0, 0), var(1, 1)];
        assert_eq!(hooked.solve_with_assumptions(&first), Verdict::Unsat);
        assert_eq!(flagged.solve_with_assumptions(&first), Verdict::Unsat);

        let cut = [var(0, 0), var(2, 2)];
        stop_at(&mut hooked, Some(0));
        flag.raise();
        let a = hooked.solve_limited(&cut, &Budget::unlimited(), None);
        let b = flagged.solve_limited(&cut, &Budget::unlimited(), Some(&flag));
        assert_eq!((&a, &b), (&Verdict::Unknown, &Verdict::Unknown));
        assert_eq!(hooked.stats(), flagged.stats());
        assert_eq!(
            hooked.retained_assumptions(),
            flagged.retained_assumptions()
        );
        assert!(!hooked.retained_assumptions().is_empty());

        stop_at(&mut hooked, None);
        flag.reset();
        let next = [var(0, 0), var(3, 1)];
        let a = hooked.solve_with_assumptions(&next);
        let b = flagged.solve_limited(&next, &Budget::unlimited(), Some(&flag));
        assert_eq!(a, b);
        assert_eq!(hooked.stats(), flagged.stats());
        assert_eq!(hooked.conflict_counts(), flagged.conflict_counts());
        assert!(hooked.stats().conflicts > 0);
    }

    #[test]
    fn trail_reuse_survives_interrupted_exits() {
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 4 + j) as u32));
        let mut s = Solver::new();
        for i in 0..5 {
            s.add_clause((0..4).map(|j| var(i, j)));
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        let assumptions = [var(0, 0), var(1, 1)];
        // The stop bites mid-search; the retained prefix must stay a fully
        // propagated, reusable state.
        stop_at(&mut s, Some(2));
        let first = s.solve_with_assumptions(&assumptions);
        assert!(first.is_unknown());
        stop_at(&mut s, None);
        let again = s.solve_with_assumptions(&assumptions);
        assert_eq!(again, Verdict::Unsat);
        assert!(s.is_ok(), "assumption UNSAT must not poison the solver");
        // The pigeonhole formula is unsatisfiable outright too; the solver
        // must reach that verdict from the retained state.
        assert_eq!(s.solve(), Verdict::Unsat);
    }

    #[test]
    fn proof_logging_is_off_by_default() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        assert!(!s.add_clause([lit(-1)]));
        assert!(s.proof_steps().is_none());
        assert!(s.unsat_certificate().is_none());
    }

    fn proof_solver() -> Solver {
        Solver::with_config(SolverConfig {
            proof: true,
            ..SolverConfig::default()
        })
    }

    #[test]
    fn root_unsat_certificate_ends_in_empty_clause() {
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * 2 + j) as u32));
        let mut s = proof_solver();
        for i in 0..3 {
            s.add_clause([var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        assert!(s.unsat_certificate().is_none(), "no UNSAT answer yet");
        assert_eq!(s.solve(), Verdict::Unsat);
        let cert = s.unsat_certificate().expect("root UNSAT must certify");
        assert!(!cert.is_empty());
        assert_eq!(cert.steps.last(), Some(&DratStep::add(Vec::new())));
        assert!(
            cert.steps
                .iter()
                .any(|st| matches!(st, DratStep::Add { lits, .. } if !lits.is_empty())),
            "conflict analysis must have logged learnt clauses"
        );
    }

    #[test]
    fn assumption_unsat_certificate_is_closed_per_call() {
        let mut s = proof_solver();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), Verdict::Unsat);
        assert!(s.is_ok());
        let cert = s
            .unsat_certificate()
            .expect("assumption UNSAT must certify");
        assert_eq!(cert.steps.last(), Some(&DratStep::add(Vec::new())));
        // A later SAT answer withdraws the certificate; the shared stream
        // stays open (no empty clause was spliced into it).
        assert!(s.solve_with_assumptions(&[lit(2)]).is_sat());
        assert!(s.unsat_certificate().is_none());
        assert!(s
            .proof_steps()
            .unwrap()
            .iter()
            .all(|st| *st != DratStep::add(Vec::new())));
    }

    #[test]
    fn proof_off_and_on_reach_identical_search_statistics() {
        let text = "p cnf 8 12\n1 2 3 0\n-1 -2 0\n-2 -3 0\n-1 -3 0\n4 5 6 0\n-4 -5 0\n-5 -6 0\n-4 -6 0\n7 8 0\n-7 -8 0\n1 7 0\n4 8 0\n";
        let cnf = dimacs::parse_str(text).unwrap();
        let run = |proof: bool| {
            let mut s = Solver::from_cnf_with_config(
                &cnf,
                SolverConfig {
                    proof,
                    time_accounting: false,
                },
            );
            let v = s.solve();
            (v.is_sat(), *s.stats())
        };
        let (sat_off, stats_off) = run(false);
        let (sat_on, stats_on) = run(true);
        assert_eq!(sat_off, sat_on);
        assert_eq!(stats_off.conflicts, stats_on.conflicts);
        assert_eq!(stats_off.decisions, stats_on.decisions);
        assert_eq!(stats_off.propagations, stats_on.propagations);
    }

    #[test]
    fn verdict_accessors() {
        let sat = Verdict::Sat(Assignment::new(0));
        assert!(sat.is_sat() && !sat.is_unsat() && !sat.is_unknown());
        assert!(sat.model().is_some());
        assert!(Verdict::Unsat.is_unsat());
        assert!(Verdict::Unknown.is_unknown());
        assert!(Verdict::Unknown.model().is_none());
    }
}
