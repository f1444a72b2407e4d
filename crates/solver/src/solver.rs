//! The CDCL solver proper.

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::config::{
    TestPolicy, CLAUSE_DECAY, DEFAULT_POLARITY, LEARNTSIZE_FACTOR, LEARNTSIZE_INC,
    MIN_LEARNT_LIMIT, PROTECTED_LBD, VAR_DECAY,
};
use crate::heap::VarOrderHeap;
use crate::luby::luby;
use crate::proof::ProofLogger;
use crate::{Budget, InterruptFlag, SolverConfig, SolverStats, StopReason};
use pdsat_cnf::{Assignment, Cnf, DratProof, DratStep, Lit, Value, Var};
use std::time::Instant;

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The instance is satisfiable; a model is attached.
    Sat(Assignment),
    /// The instance is unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The call stopped before reaching an answer.
    Unknown(StopReason),
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
        matches!(self, Verdict::Unknown(_))
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

/// Watch-list entry for clauses of length ≥ 4.
///
/// `blocker` is some literal of the clause other than the watched one; if it
/// is already true the clause cannot be unit or conflicting, so propagation
/// skips it without touching the clause arena at all.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Watch-list entry for binary clauses.
///
/// The clause is fully described by the falsified literal (the list index)
/// and `other`, so binary propagation never dereferences the arena; `cref`
/// is carried only to serve as the reason / conflict handle.
#[derive(Debug, Clone, Copy)]
struct BinWatcher {
    cref: ClauseRef,
    other: Lit,
}

/// Watch-list entry for ternary clauses.
///
/// The clause is the falsified literal (the list index) plus `a` and `b`,
/// and it sits in the lists of all three of its literals, so a visit never
/// dereferences the arena, swaps a literal or moves a watch; `cref` is
/// carried only to serve as the reason / conflict handle.
#[derive(Debug, Clone, Copy)]
struct TernWatcher {
    cref: ClauseRef,
    a: Lit,
    b: Lit,
}

// A ternary visit multiplies the value bytes of the other two literals
// (`Solver::value_byte`): 1 is a conflict, 2 a unit clause, 0 and 4 nothing
// to do. Reordering `pdsat_cnf::Value` must fail here, not turn conflicts
// into no-ops.
const _: () =
    assert!(Value::True as u8 == 0 && Value::False as u8 == 1 && Value::Unassigned as u8 == 2);

#[derive(Debug, Clone, Copy)]
struct VarData {
    reason: Option<ClauseRef>,
    level: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchStatus {
    Sat,
    Unsat,
    Restart,
    Stopped(StopReason),
}

struct Limits {
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
    decision_limit: Option<u64>,
    deadline: Option<Instant>,
}

/// A MiniSat-class CDCL SAT solver.
///
/// Features: two-watched-literal propagation for clauses of four and more
/// literals, binary and ternary clauses propagated from their watchers alone
/// (every literal of a ternary clause watches it, with the other two inline),
/// first-UIP conflict analysis with basic clause minimization, VSIDS decision
/// heuristic, phase saving, Luby restarts, activity/LBD-based learnt clause
/// deletion, incremental solving under assumptions, resource budgets and
/// cooperative interruption.
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
/// The solver is `Clone`, and `clone_from` restores in place: a loaded
/// instance serves as a template that a working solver is reset to before
/// each sub-problem, so loading is paid once per formula instead of once per
/// cube, and the reset itself reuses the working solver's allocations.
pub struct Solver {
    config: SolverConfig,
    /// Production unless a test set another (`set_test_policy`).
    policy: TestPolicy,
    db: ClauseDb,
    original: Vec<ClauseRef>,
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    bin_watches: Vec<Vec<BinWatcher>>,
    tern_watches: Vec<Vec<TernWatcher>>,
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

impl Clone for Solver {
    fn clone(&self) -> Solver {
        let mut solver = Solver::with_config(self.config.clone());
        solver.clone_from(self);
        solver
    }

    /// Makes `self` an exact copy of `source`, field by field into the
    /// allocations `self` already owns — no per-watch-list allocation once
    /// the two have had the same shape. The destructuring is exhaustive on
    /// purpose: a new field that is not copied here does not compile.
    fn clone_from(&mut self, source: &Solver) {
        let Solver {
            config,
            policy,
            db,
            original,
            learnts,
            watches,
            bin_watches,
            tern_watches,
            assigns,
            vardata,
            polarity,
            activity,
            conflict_counts,
            order_heap,
            trail,
            trail_lim,
            qhead,
            saved_assumptions,
            var_inc,
            cla_inc,
            ok,
            seen,
            learnt_buf,
            levels_buf,
            toclear_buf,
            // Dead between `add_clause` calls.
            clause_buf: _,
            proof,
            last_solve_unsat,
            stats,
            max_learnts,
        } = source;
        self.config.clone_from(config);
        self.policy.clone_from(policy);
        self.db.clone_from(db);
        self.original.clone_from(original);
        self.learnts.clone_from(learnts);
        self.watches.clone_from(watches);
        self.bin_watches.clone_from(bin_watches);
        self.tern_watches.clone_from(tern_watches);
        self.assigns.clone_from(assigns);
        self.vardata.clone_from(vardata);
        self.polarity.clone_from(polarity);
        self.activity.clone_from(activity);
        self.conflict_counts.clone_from(conflict_counts);
        self.order_heap.clone_from(order_heap);
        self.trail.clone_from(trail);
        self.trail_lim.clone_from(trail_lim);
        self.qhead = *qhead;
        self.saved_assumptions.clone_from(saved_assumptions);
        self.var_inc = *var_inc;
        self.cla_inc = *cla_inc;
        self.ok = *ok;
        self.seen.clone_from(seen);
        self.learnt_buf.clone_from(learnt_buf);
        self.levels_buf.clone_from(levels_buf);
        self.toclear_buf.clone_from(toclear_buf);
        self.proof.clone_from(proof);
        self.last_solve_unsat = *last_solve_unsat;
        self.stats = *stats;
        self.max_learnts = *max_learnts;
    }
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
        Solver {
            config,
            policy: TestPolicy::default(),
            db: ClauseDb::new(),
            original: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            tern_watches: Vec::new(),
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
        }
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
        // Every literal of a ternary clause watches it: size each list once,
        // so loading neither regrows them nor leaves slack for the template
        // clones to carry.
        let mut tern_counts = vec![0usize; solver.tern_watches.len()];
        for clause in cnf.iter().filter(|c| c.len() == 3) {
            for l in clause.iter() {
                tern_counts[(!l).code()] += 1;
            }
        }
        for (list, &n) in solver.tern_watches.iter_mut().zip(&tern_counts) {
            list.reserve_exact(n);
        }
        for clause in cnf.iter() {
            solver.add_clause(clause.iter());
        }
        solver
    }

    /// Number of variables known to the solver.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len() / 2
    }

    /// Number of problem (non-learnt) clauses currently attached.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.original.len()
    }

    /// Number of learnt clauses currently in the database.
    #[must_use]
    pub fn num_learnts(&self) -> usize {
        self.learnts.len()
    }

    /// Cumulative statistics over all solve calls.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Replaces the search policy, for differential tests only, and forgets
    /// any retained assumption trail. The [`Default`] policy is production.
    #[doc(hidden)]
    pub fn set_test_policy(&mut self, policy: TestPolicy) {
        self.cancel_until(0);
        self.saved_assumptions.clear();
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
            Some(log.certificate(true))
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

    /// VSIDS activity of a variable. Higher means the variable participated
    /// in more recent conflicts.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown to the solver.
    #[must_use]
    pub fn var_activity(&self, var: Var) -> f64 {
        self.activity[var.index()]
    }

    /// Per-variable conflict participation counts (indexed by variable).
    #[must_use]
    pub fn conflict_counts(&self) -> &[u64] {
        &self.conflict_counts
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars() as u32);
        self.assigns.push(Value::Unassigned);
        self.assigns.push(Value::Unassigned);
        self.vardata.push(VarData {
            reason: None,
            level: 0,
        });
        self.polarity.push(DEFAULT_POLARITY);
        self.activity.push(0.0);
        self.conflict_counts.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.tern_watches.push(Vec::new());
        self.tern_watches.push(Vec::new());
        self.order_heap.insert(v, &self.activity);
        v
    }

    /// Ensures the solver knows at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds a clause. Returns `false` if the clause (together with the
    /// clauses added so far) makes the formula unsatisfiable at the root
    /// level.
    ///
    /// Invalidates any assumption trail retained for reuse: the new clause
    /// could be falsified or unit under the retained assignments, so the
    /// solver backtracks to the root level before attaching it.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        let kept = self.original.len();
        let added = self.add_original(lits);
        if let Some(p) = self.proof.as_mut() {
            let id = p.original();
            if let Some(&cref) = self.original.get(kept) {
                self.db.set_proof_id(cref, id);
            }
        }
        added
    }

    /// The body of [`add_clause`](Self::add_clause), which then gives the
    /// clause its proof id.
    fn add_original<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
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
                    self.ok = self.propagate().is_none();
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
                    self.attach_clause(cref);
                    true
                }
            };
        self.clause_buf = lits;
        added
    }

    /// Solves the current formula without assumptions and without limits.
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
    /// adjacent (see [`SolverStats::reused_assumptions`]).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Verdict {
        self.solve_limited(assumptions, &Budget::unlimited(), None)
    }

    /// Solves under assumptions with resource limits and an optional
    /// interruption flag.
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        interrupt: Option<&InterruptFlag>,
    ) -> Verdict {
        // Clock reads are skipped entirely for untimed micro-solves (see
        // `SolverConfig::time_accounting`); a wall-clock deadline forces
        // them back on.
        let verdict = if self.config.time_accounting || budget.max_wall_time.is_some() {
            let start = Instant::now();
            let verdict = self.solve_inner(assumptions, budget, interrupt, Some(start));
            self.stats.solve_time += start.elapsed();
            verdict
        } else {
            self.solve_inner(assumptions, budget, interrupt, None)
        };
        self.last_solve_unsat = verdict.is_unsat();
        verdict
    }

    fn solve_inner(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        interrupt: Option<&InterruptFlag>,
        start: Option<Instant>,
    ) -> Verdict {
        if !self.ok {
            return Verdict::Unsat;
        }
        for &a in assumptions {
            if a.var().index() >= self.num_vars() {
                self.ensure_vars(a.var().index() + 1);
            }
        }
        self.cancel_until_assumption_divergence(assumptions);
        let limits = Limits {
            conflict_limit: budget.max_conflicts.map(|c| self.stats.conflicts + c),
            propagation_limit: budget.max_propagations.map(|p| self.stats.propagations + p),
            decision_limit: budget.max_decisions.map(|d| self.stats.decisions + d),
            deadline: budget
                .max_wall_time
                .map(|d| start.expect("timed solves always capture a start instant") + d),
        };
        self.max_learnts = match self.policy.learnt_limit {
            None => (self.original.len() as f64 * LEARNTSIZE_FACTOR).max(MIN_LEARNT_LIMIT),
            Some(limit) => limit as f64,
        };

        let mut curr_restarts: u64 = 0;
        loop {
            let restart_limit = luby(curr_restarts).saturating_mul(self.policy.restart_base);
            let status = self.search(restart_limit, assumptions, &limits, interrupt);
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
                SearchStatus::Stopped(reason) => {
                    self.retract_after_solve(assumptions);
                    return Verdict::Unknown(reason);
                }
            }
        }
    }

    // ----------------------------------------------------------------- search

    fn search(
        &mut self,
        nof_conflicts: u64,
        assumptions: &[Lit],
        limits: &Limits,
        interrupt: Option<&InterruptFlag>,
    ) -> SearchStatus {
        let mut conflicts_this_round: u64 = 0;
        loop {
            if let Some(reason) = self.check_limits(limits, interrupt) {
                return SearchStatus::Stopped(reason);
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
                    self.attach_clause(cref);
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

    fn check_limits(
        &self,
        limits: &Limits,
        interrupt: Option<&InterruptFlag>,
    ) -> Option<StopReason> {
        if let Some(flag) = interrupt {
            if flag.is_raised() {
                return Some(StopReason::Interrupted);
            }
        }
        if let Some(limit) = limits.conflict_limit {
            if self.stats.conflicts >= limit {
                return Some(StopReason::ConflictLimit);
            }
        }
        if let Some(limit) = limits.propagation_limit {
            if self.stats.propagations >= limit {
                return Some(StopReason::PropagationLimit);
            }
        }
        if let Some(limit) = limits.decision_limit {
            if self.stats.decisions >= limit {
                return Some(StopReason::DecisionLimit);
            }
        }
        if let Some(deadline) = limits.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::TimeLimit);
            }
        }
        None
    }

    // ------------------------------------------------------------ propagation

    #[inline]
    fn lit_value(&self, lit: Lit) -> Value {
        self.assigns[lit.code()]
    }

    /// The value of `lit` as its discriminant (true 0, false 1, unassigned
    /// 2), for the product test of a ternary visit in `propagate`.
    #[inline]
    fn value_byte(&self, lit: Lit) -> u8 {
        self.lit_value(lit) as u8
    }

    #[inline]
    fn var_value(&self, var: Var) -> Value {
        self.assigns[Lit::positive(var).code()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), Value::Unassigned);
        self.assigns[lit.code()] = Value::True;
        self.assigns[(!lit).code()] = Value::False;
        self.vardata[lit.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(lit);
    }

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
    fn propagate(&mut self) -> Option<ClauseRef> {
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

    // ------------------------------------------------------ conflict analysis

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
    fn analyze<const PROOF: bool>(&mut self, conflict: ClauseRef) -> (u32, u32) {
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
    fn order_antecedents(&mut self, conflict: ClauseRef) {
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

    // ------------------------------------------------------------ backtracking

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
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
    fn level_bound(&self, level: usize) -> usize {
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
    fn cancel_until_assumption_divergence(&mut self, assumptions: &[Lit]) {
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
    fn retract_after_solve(&mut self, assumptions: &[Lit]) {
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

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order_heap.pop_max(&self.activity)?;
            if self.var_value(v) == Value::Unassigned {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
    }

    fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars());
        for i in 0..self.num_vars() {
            let v = Var::new(i as u32);
            model.assign(v, self.var_value(v).to_bool().unwrap_or(false));
        }
        model
    }

    // ---------------------------------------------------------------- activity

    fn bump_var_activity(&mut self, v: Var) {
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

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn bump_clause_activity(&mut self, cref: ClauseRef) {
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

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= CLAUSE_DECAY;
    }

    // ----------------------------------------------------------- clause moves

    fn attach_clause(&mut self, cref: ClauseRef) {
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

    fn detach_clause(&mut self, cref: ClauseRef) {
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

    /// Whether the clause is the reason of a current assignment. A long
    /// clause implies its position-0 literal; nothing reorders the arena copy
    /// of a ternary one, so any of its three literals can be the implied one.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let positions = if self.db.len_of(cref) == 3 { 3 } else { 1 };
        (0..positions).any(|k| {
            let l = self.db.lit(cref, k);
            self.lit_value(l) == Value::True && self.vardata[l.var().index()].reason == Some(cref)
        })
    }

    /// Removes roughly half of the learnt clauses, preferring clauses with
    /// low activity and high LBD. Clauses that are reasons for current
    /// assignments, have LBD ≤ `PROTECTED_LBD`, or are binary are kept.
    fn reduce_db(&mut self) {
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
    /// through the relocation table: watch lists (long, binary and ternary),
    /// the original/learnt rosters, and reason slots of assigned variables.
    fn collect_garbage(&mut self) {
        let reloc = self.db.collect();
        let relocate = |cref: &mut ClauseRef| match reloc.new_ref(*cref) {
            Some(nc) => {
                *cref = nc;
                true
            }
            None => false,
        };
        for list in &mut self.watches {
            list.retain_mut(|w| relocate(&mut w.cref));
        }
        for list in &mut self.bin_watches {
            list.retain_mut(|w| relocate(&mut w.cref));
        }
        for list in &mut self.tern_watches {
            list.retain_mut(|w| relocate(&mut w.cref));
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::dimacs;

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

    #[test]
    fn conflict_budget_stops_search() {
        // A hard-ish pigeonhole instance with a tiny conflict budget.
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
        let budget = Budget::unlimited().with_conflict_limit(3);
        match s.solve_limited(&[], &budget, None) {
            Verdict::Unknown(StopReason::ConflictLimit) => {}
            other => panic!("expected conflict-limit stop, got {other:?}"),
        }
        // Without the budget the instance is UNSAT.
        assert_eq!(s.solve(), Verdict::Unsat);
    }

    #[test]
    fn interrupt_flag_stops_search() {
        let flag = InterruptFlag::new();
        flag.raise();
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        match s.solve_limited(&[], &Budget::unlimited(), Some(&flag)) {
            Verdict::Unknown(StopReason::Interrupted) => {}
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
        assert!(s.var_activity(Var::new(0)) >= 0.0);
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
                s.attach_clause(cref);
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
                let list = &s.tern_watches[lit(-watching).code()];
                assert_eq!(list.len(), 1);
                assert_eq!(
                    (list[0].cref, list[0].a, list[0].b),
                    (moved, lit(a), lit(b))
                );
            }
        }
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
    fn trail_reuse_survives_budget_limited_exits() {
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
        let budget = Budget::unlimited().with_conflict_limit(2);
        // The budget bites mid-search; the retained prefix must stay a fully
        // propagated, reusable state.
        let first = s.solve_limited(&assumptions, &budget, None);
        assert!(first.is_unknown());
        let again = s.solve_limited(&assumptions, &Budget::unlimited(), None);
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
        assert!(Verdict::Unknown(StopReason::TimeLimit).is_unknown());
        assert!(Verdict::Unknown(StopReason::TimeLimit).model().is_none());
    }
}
