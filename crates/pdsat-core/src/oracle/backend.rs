//! Solving backends: the strategies a [`CubeOracle`](super::CubeOracle)
//! worker can use to decide one sub-problem `C[X̃/α]`.
//!
//! A backend is the smallest exchangeable unit of the oracle: it receives a
//! cube and must return a verdict plus the exact counters ([`CubeCounters`])
//! and per-variable conflict participation attributable to that cube. The
//! executor never looks inside a backend — interrupt fan-out and cost
//! measurement are applied uniformly on the outside. The trait is
//! crate-private: the two substrates ([`FreshBackend`], [`WarmBackend`]) and
//! the fault-injecting decorator are its only implementations, selected from
//! outside through [`BackendKind`].
//!
//! Backends are *pool residents*: one instance is built per worker — every
//! one of them from the oracle's single [`BackendSpec`], by the worker that
//! first drains a stripe on the slot — and lives until the oracle is
//! dropped, surviving across batches ([`CubeBackend::begin_batch`] re-arms
//! it at each batch boundary). That lifecycle is what lets [`WarmBackend`]'s learnt clauses
//! and VSIDS state accumulate across every batch the oracle processes — the
//! analogue of the solver inside a long-lived PDSAT worker process. The full
//! behavioural contract lives in DESIGN.md ("Backend contract").

use super::BatchConfig;
use crate::CubeCounters;
use pdsat_cnf::{Cnf, DratProof, Lit};
use pdsat_solver::{Budget, InterruptFlag, Solver, SolverConfig, SolverStats, Verdict};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a backend reports about one solved cube.
///
/// `counters` must cover exactly the work performed for *this* cube: a
/// fresh solver reports its whole lifetime, a warm solver reports the
/// difference since the previous cube. The oracle turns them into a
/// [`CostMetric`](crate::CostMetric) observation; every other solver
/// statistic reaches it once per batch through [`CubeBackend::end_batch`].
/// Per-variable conflict participation is *not* part of the outcome: the
/// backend adds it directly into the accumulator passed to
/// [`CubeBackend::solve`], so no `num_vars`-sized allocation travels per
/// cube.
#[derive(Debug, Clone)]
pub(crate) struct BackendOutcome {
    /// Verdict of `C ∧ cube` (the model travels inside [`Verdict::Sat`]).
    pub verdict: Verdict,
    /// Conflicts, decisions and propagations attributable to this cube.
    pub counters: CubeCounters,
    /// Wall-clock time of the call, including the per-cube setup the backend
    /// performs (a fresh backend counts restoring its working solver from
    /// the loaded template, but not the one-off load itself).
    pub elapsed: Duration,
    /// A DRAT certificate of the UNSAT verdict, checkable against the
    /// *original* formula with the cube's literals seeded as root
    /// assumptions. Present exactly when [`SolverConfig::proof`] is enabled
    /// and the verdict is [`Verdict::Unsat`].
    pub proof: Option<DratProof>,
}

/// A strategy for solving the sub-problems of decomposition families.
///
/// One backend instance is owned by one worker (a pool slot) for the whole
/// lifetime of the oracle, and is fed cubes sequentially; implementations
/// therefore never need internal locking. The `Send` bound is what allows an
/// instance to be built once and driven by a different thread in every
/// batch: the calling thread, or a thread scoped to the batch.
pub(crate) trait CubeBackend: Send {
    /// Solves `C ∧ cube` (the cube given as its assumption literals) to a
    /// verdict, or to [`Verdict::Unknown`] if the interrupt flag is raised.
    ///
    /// The per-variable conflict participation attributable to this cube is
    /// added into `conflict_acc` (indexed by variable, `num_vars` long) —
    /// the worker owns one such accumulator per batch and the oracle merges
    /// them once per batch.
    fn solve(
        &mut self,
        cube: &[Lit],
        interrupt: &InterruptFlag,
        conflict_acc: &mut [u64],
    ) -> BackendOutcome;

    /// Re-arms the backend at a batch boundary, before it is fed the first
    /// cube of a new batch: per-batch accumulation (the statistics later
    /// returned by [`CubeBackend::end_batch`]) is reset here. Stateful
    /// substrates that cache other per-batch data (e.g. a remote worker
    /// holding an open job ticket, or a backend that latched an interrupt)
    /// reset it here too.
    fn begin_batch(&mut self);

    /// Closes the batch and returns the solver-statistics delta covering
    /// exactly the cubes fed to this backend since the matching
    /// [`CubeBackend::begin_batch`]. The executors call this **once per
    /// batch** per worker — per-cube outcomes carry only the three counters
    /// needed to measure that cube's cost, and the batch aggregate is merged
    /// here in one step instead of being re-summed cube by cube.
    fn end_batch(&mut self) -> SolverStats;
}

/// Selects the backend a [`CubeOracle`](super::CubeOracle) builds for each of
/// its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Fresh [`Solver`] state per cube: the formula is loaded once and a
    /// working solver is restored to exactly that state before every cube.
    /// Every observation is independent of cube order, which is what the
    /// Monte Carlo argument of the paper assumes (identically distributed
    /// `ζ_j`), so the estimator defaults to it. A cube equal to the one just
    /// solved (interrupt flag down) is answered from the solver that solved
    /// it: the verdict, counters and certificate solving it again would
    /// report, and that solve's wall time.
    #[default]
    Fresh,
    /// One persistent incremental [`Solver`] per worker: the CNF is loaded
    /// once and learnt clauses, VSIDS activities and saved phases carry over
    /// across all cubes the worker processes — like PDSAT's long-lived
    /// MiniSat worker processes, minus their per-sub-problem CNF reload.
    /// Because workers live as long as the oracle, that state also carries
    /// over across *batches* (e.g. across the points an
    /// [`Evaluator`](crate::Evaluator) visits). Much faster, but per-cube
    /// costs depend on processing order.
    Warm,
}

impl BackendKind {
    /// Lower-case name, used for display.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Fresh => "fresh",
            BackendKind::Warm => "warm",
        }
    }
}

/// How to build a backend: everything [`BatchConfig`] and the formula decide
/// about it, worked out once when the oracle is built and shared by every
/// site that builds one — each pool worker and its respawns, the last-resort
/// fallback.
pub(crate) struct BackendSpec {
    /// The formula every sub-problem restricts.
    pub cnf: Arc<Cnf>,
    /// Which substrate to build.
    kind: BackendKind,
    /// The solver configuration of every backend, with the solver's own clock
    /// off: a backend times each cube itself ([`BackendOutcome::elapsed`]).
    solver_config: SolverConfig,
    /// Whether a backend reads the clock around every cube to fill
    /// [`BackendOutcome::elapsed`]. `false` when the cost metric is a
    /// deterministic counter — at warm-backend throughput (hundreds of
    /// nanoseconds per cube once a family's lemmas are learnt and trails are
    /// reused), the per-cube clock reads are a double-digit percentage of
    /// the remaining cost.
    measure_wall_time: bool,
}

impl BackendSpec {
    /// The spec of the backends an oracle over `cnf` configured by `config`
    /// runs.
    pub(crate) fn new(cnf: Arc<Cnf>, config: &BatchConfig) -> BackendSpec {
        let measure_wall_time = !config.cost.is_deterministic();
        BackendSpec {
            cnf,
            kind: config.backend,
            solver_config: SolverConfig {
                time_accounting: false,
                proof: config.solver_config.proof,
            },
            measure_wall_time,
        }
    }

    /// Builds one backend instance (one per worker, built once for the
    /// worker's lifetime).
    pub(crate) fn build(self: &Arc<Self>) -> Box<dyn CubeBackend> {
        match self.kind {
            BackendKind::Fresh => Box::new(FreshBackend::new(Arc::clone(self))),
            BackendKind::Warm => Box::new(WarmBackend::new(self)),
        }
    }

    /// Loads the formula into a solver.
    fn load_solver(&self) -> Solver {
        Solver::from_cnf_with_config(&self.cnf, self.solver_config.clone())
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fresh-solver backend: every cube is solved from identical solver
/// state (the property the Monte Carlo estimator needs).
///
/// The formula is loaded **once**, on the backend's first cube, into a
/// *template* solver, and one *working* solver is restored from the template
/// before each cube with [`Clone::clone_from`], which copies into the
/// working solver's existing allocations. A cube therefore starts from a
/// memcpy of the loaded formula instead of re-parsing and re-attaching every
/// clause, and the working solver's counters after the solve are the cube's
/// own — the load's root propagations included, exactly as a solver rebuilt
/// per cube reports them.
///
/// A cube equal to the one just solved, with the interrupt flag down, is
/// not solved again: the working solver still holds exactly the state that
/// solve left, so its counters, conflict participation, statistics and
/// certificate are read again as they are, beside the verdict and wall time
/// kept from the solve. The estimator's
/// samples are drawn with replacement and grouped before they are
/// submitted, so repeats arrive back to back.
pub(crate) struct FreshBackend {
    spec: Arc<BackendSpec>,
    /// `None` until the first cube: construction does no solver work.
    resident: Option<Resident>,
    /// Sum of the per-cube stats deltas of the current batch, handed out
    /// once at [`CubeBackend::end_batch`].
    batch_stats: SolverStats,
}

/// The loaded formula and the solver the cubes actually run on.
struct Resident {
    template: Solver,
    working: Solver,
    /// The solve `working` holds the end state of, while a repeat of it may
    /// be answered from that state. Cleared before every solve, so a solve
    /// that panics leaves nothing stale; never set by an interrupted solve,
    /// whose verdict a repeat need not share. Kept across batches: the
    /// template never changes.
    last: Option<LastSolve>,
}

/// What [`Resident::last`] remembers of a solve.
struct LastSolve {
    cube: Vec<Lit>,
    verdict: Verdict,
    elapsed: Duration,
}

impl Resident {
    fn load(spec: &BackendSpec) -> Resident {
        let working = spec.load_solver();
        // The clone is the template: it is allocated at exact size, while
        // the solver that did the loading keeps the spare capacity its watch
        // lists grew, which solving would grow anyway.
        let template = working.clone();
        Resident {
            template,
            working,
            last: None,
        }
    }

    /// Restores `working` and solves `cube` on it — or, for a repeat of the
    /// last solve, returns that solve's verdict and wall time with `working`
    /// untouched.
    fn solve(
        &mut self,
        cube: &[Lit],
        interrupt: &InterruptFlag,
        measure_wall_time: bool,
    ) -> (Verdict, Duration) {
        if let Some(last) = &self.last {
            if last.cube == cube && !interrupt.is_raised() {
                return (last.verdict.clone(), last.elapsed);
            }
        }
        self.last = None;
        let start = measure_wall_time.then(Instant::now);
        self.working.clone_from(&self.template);
        let verdict = self
            .working
            .solve_limited(cube, &Budget::unlimited(), Some(interrupt));
        let elapsed = start.map_or(Duration::ZERO, |s| s.elapsed());
        // A raised interrupt is the only way to `Unknown`.
        if !verdict.is_unknown() {
            self.last = Some(LastSolve {
                cube: cube.to_vec(),
                verdict: verdict.clone(),
                elapsed,
            });
        }
        (verdict, elapsed)
    }
}

impl FreshBackend {
    /// Creates the backend; the formula is loaded on the first cube.
    fn new(spec: Arc<BackendSpec>) -> FreshBackend {
        FreshBackend {
            spec,
            resident: None,
            batch_stats: SolverStats::default(),
        }
    }
}

impl CubeBackend for FreshBackend {
    fn solve(
        &mut self,
        cube: &[Lit],
        interrupt: &InterruptFlag,
        conflict_acc: &mut [u64],
    ) -> BackendOutcome {
        // The one-off load happens before the timer starts, so the first
        // wall-time observation of a backend's life is distributed like
        // every later one: restore + solve.
        let resident = self
            .resident
            .get_or_insert_with(|| Resident::load(&self.spec));
        let (verdict, elapsed) = resident.solve(cube, interrupt, self.spec.measure_wall_time);
        let working = &resident.working;
        // The template accumulates no conflict participation (loading runs
        // no conflict analysis), so the working solver's counters are
        // entirely this cube's.
        for (acc, &c) in conflict_acc.iter_mut().zip(working.conflict_counts()) {
            *acc += c;
        }
        // The full statistics stay in here, for the batch aggregate; the
        // report carries the three counters the executor reads.
        self.batch_stats.absorb(working.stats());
        let proof = working.unsat_certificate();
        BackendOutcome {
            verdict,
            counters: CubeCounters::of(working.stats()),
            elapsed,
            proof,
        }
    }

    fn begin_batch(&mut self) {
        self.batch_stats = SolverStats::default();
    }

    fn end_batch(&mut self) -> SolverStats {
        std::mem::take(&mut self.batch_stats)
    }
}

/// The warm-solver backend: one persistent incremental [`Solver`] that keeps
/// its learnt clauses and heuristic state across cubes — and, because the
/// backend itself lives as long as the oracle's worker, across batches.
pub(crate) struct WarmBackend {
    solver: Solver,
    /// Per-variable conflict participation already attributed to earlier
    /// cubes (the solver's counters are cumulative).
    attributed: Vec<u64>,
    /// Snapshot of the solver's cumulative counters at the last
    /// [`CubeBackend::begin_batch`]; `end_batch` returns the delta since —
    /// one O(1) subtraction per batch instead of one absorb per cube.
    batch_start: SolverStats,
    measure_wall_time: bool,
}

impl WarmBackend {
    /// Creates the backend, loading the formula into the persistent solver
    /// once.
    fn new(spec: &BackendSpec) -> WarmBackend {
        WarmBackend {
            solver: spec.load_solver(),
            attributed: vec![0; spec.cnf.num_vars()],
            batch_start: SolverStats::default(),
            measure_wall_time: spec.measure_wall_time,
        }
    }
}

impl CubeBackend for WarmBackend {
    fn solve(
        &mut self,
        cube: &[Lit],
        interrupt: &InterruptFlag,
        conflict_acc: &mut [u64],
    ) -> BackendOutcome {
        let start = self.measure_wall_time.then(Instant::now);
        let before = CubeCounters::of(self.solver.stats());
        let verdict = self
            .solver
            .solve_limited(cube, &Budget::unlimited(), Some(interrupt));
        let elapsed = start.map_or(Duration::ZERO, |s| s.elapsed());
        let counters = CubeCounters::of(self.solver.stats()).since(before);
        // Attribute only the *new* conflict participation to this cube, in
        // place — no per-cube allocation. A cube decided without a single
        // conflict (the common case once the family's lemmas are learnt)
        // cannot have moved any per-variable counter, so the whole
        // `num_vars`-sized scan is skipped.
        if counters.conflicts > 0 {
            for (i, &now) in self.solver.conflict_counts().iter().enumerate() {
                let prev = self.attributed[i];
                if now != prev {
                    if let Some(acc) = conflict_acc.get_mut(i) {
                        *acc += now - prev;
                    }
                    self.attributed[i] = now;
                }
            }
        }
        BackendOutcome {
            verdict,
            counters,
            elapsed,
            proof: self.solver.unsat_certificate(),
        }
    }

    fn begin_batch(&mut self) {
        self.batch_start = *self.solver.stats();
    }

    fn end_batch(&mut self) -> SolverStats {
        self.solver.stats().delta_since(&self.batch_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostMetric;
    use pdsat_cnf::{Cube, Lit, Var};

    fn chain(n: usize) -> Cnf {
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause([
                Lit::negative(Var::new(i as u32)),
                Lit::positive(Var::new(i as u32 + 1)),
            ]);
        }
        cnf
    }

    #[test]
    fn backend_kind_names_and_default() {
        assert_eq!(BackendKind::Fresh.to_string(), "fresh");
        assert_eq!(BackendKind::Warm.to_string(), "warm");
        assert_eq!(BackendKind::default(), BackendKind::Fresh);
    }

    fn spec(cnf: Cnf) -> Arc<BackendSpec> {
        Arc::new(BackendSpec::new(Arc::new(cnf), &BatchConfig::default()))
    }

    #[test]
    fn fresh_backend_reports_lifetime_deltas() {
        let spec = spec(chain(4));
        let cnf = Arc::clone(&spec.cnf);
        let mut backend = FreshBackend::new(spec);
        // Construction loads nothing; the first cube does, outside its timer.
        assert!(backend.resident.is_none());
        let cube = Cube::from_values(&[Var::new(0)], &[true]);
        let interrupt = InterruptFlag::new();
        let mut acc = vec![0u64; cnf.num_vars()];
        let out = backend.solve(cube.lits(), &interrupt, &mut acc);
        assert!(out.verdict.is_sat());
        assert!(out.counters.propagations > 0);
        // A second identical call sees an identical fresh solver.
        let again = backend.solve(cube.lits(), &interrupt, &mut acc);
        assert_eq!(out.counters, again.counters);
    }

    /// A fresh backend over the pigeonhole formula on 5 holes, certificates
    /// on, and two of its cubes: every cube is refuted, with conflicts.
    fn pigeonhole_backend() -> (FreshBackend, Cube, Cube) {
        let config = BatchConfig {
            cost: CostMetric::Propagations,
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            ..BatchConfig::default()
        };
        let spec = Arc::new(BackendSpec::new(Arc::new(Cnf::pigeonhole(5)), &config));
        let set = [Var::new(0), Var::new(7)];
        let (c, d) = (Cube::from_bits(&set, 0b10), Cube::from_bits(&set, 0b01));
        (FreshBackend::new(spec), c, d)
    }

    /// Marks the solve the backend keeps, so that a cube answered from it
    /// is told apart from one solved again.
    const KEPT: Duration = Duration::from_secs(7);

    fn mark_kept(backend: &mut FreshBackend) {
        let last = backend.resident.as_mut().and_then(|r| r.last.as_mut());
        last.expect("the last solve is kept").elapsed = KEPT;
    }

    #[test]
    fn a_repeated_cube_is_answered_as_a_solve_would_answer_it() {
        let interrupt = InterruptFlag::new();
        // Each sequence on a backend of its own: the outcomes, the conflict
        // accumulator and the batch statistics.
        let run = |order: &[bool]| {
            let (mut backend, c, d) = pigeonhole_backend();
            let mut acc = vec![0u64; backend.spec.cnf.num_vars()];
            backend.begin_batch();
            let outcomes: Vec<BackendOutcome> = order
                .iter()
                .map(|&is_c| {
                    let cube = if is_c { &c } else { &d };
                    backend.solve(cube.lits(), &interrupt, &mut acc)
                })
                .collect();
            (outcomes, acc, backend.end_batch())
        };
        let (once, once_acc, once_stats) = run(&[true]);
        let (repeated, repeated_acc, repeated_stats) = run(&[true, true]);
        let (apart, _, _) = run(&[true, false, true]);
        assert!(once[0].verdict.is_unsat() && once[0].counters.conflicts > 0);
        assert!(once_acc.iter().any(|&c| c > 0));
        for outcome in [&repeated[0], &repeated[1], &apart[0], &apart[2]] {
            assert_eq!(outcome.verdict, once[0].verdict);
            assert_eq!(outcome.counters, once[0].counters);
            assert_eq!(outcome.elapsed, once[0].elapsed);
            assert_eq!(outcome.proof, once[0].proof);
        }
        assert!(once[0].proof.is_some());
        let doubled: Vec<u64> = once_acc.iter().map(|&c| 2 * c).collect();
        assert_eq!(repeated_acc, doubled);
        let mut twice = once_stats;
        twice.absorb(&once_stats);
        assert_eq!(repeated_stats, twice);
    }

    #[test]
    fn a_raised_interrupt_solves_the_cube_again() {
        let (mut backend, c, _) = pigeonhole_backend();
        let mut acc = vec![0u64; backend.spec.cnf.num_vars()];
        let lowered = InterruptFlag::new();
        let raised = InterruptFlag::new();
        raised.raise();
        let first = backend.solve(c.lits(), &lowered, &mut acc);
        assert!(first.verdict.is_unsat());

        mark_kept(&mut backend);
        let interrupted = backend.solve(c.lits(), &raised, &mut acc);
        assert_eq!(interrupted.verdict, Verdict::Unknown);
        // An interrupted solve is not kept: the next repeat is solved.
        assert!(backend.resident.as_ref().unwrap().last.is_none());
        let again = backend.solve(c.lits(), &lowered, &mut acc);
        assert!(again.verdict.is_unsat() && again.elapsed != KEPT);
    }

    #[test]
    fn warm_backend_deltas_are_per_cube_not_cumulative() {
        let spec = spec(chain(5));
        let cnf = Arc::clone(&spec.cnf);
        let mut backend = WarmBackend::new(&spec);
        let interrupt = InterruptFlag::new();
        let set = [Var::new(0), Var::new(4)];
        let mut total_props = 0;
        let mut acc = vec![0u64; cnf.num_vars()];
        for bits in 0..4u64 {
            let cube = Cube::from_bits(&set, bits);
            backend.begin_batch();
            let out = backend.solve(cube.lits(), &interrupt, &mut acc);
            // Deltas stay cube-sized even though the solver's own counters
            // keep growing across the calls.
            assert!(out.counters.propagations <= backend.solver.stats().propagations);
            total_props += out.counters.propagations;
        }
        // The per-cube deltas add up to the solver's cumulative counters.
        assert_eq!(total_props, backend.solver.stats().propagations);
        let attributed: u64 = backend.attributed.iter().sum();
        let cumulative: u64 = backend.solver.conflict_counts().iter().sum();
        assert_eq!(attributed, cumulative);
        // The caller-side accumulator saw exactly the cumulative counts too.
        assert_eq!(acc.iter().sum::<u64>(), cumulative);
    }
}
