//! Solving backends: the strategies a [`CubeOracle`](super::CubeOracle)
//! worker can use to decide one sub-problem `C[X̃/α]`.
//!
//! A backend is the smallest exchangeable unit of the oracle: it receives a
//! cube and must return a verdict plus the cube's cost under the oracle's
//! [`CostMetric`] and the per-variable conflict participation attributable
//! to it. The executor never looks inside a backend — it fans the interrupt
//! out and writes each cost where the cube's result goes. The trait is
//! crate-private: the two substrates ([`FreshBackend`], [`WarmBackend`]) and
//! the fault-injecting decorator are its only implementations, selected from
//! outside through [`BackendKind`].
//!
//! Backends are *pool residents*: one instance is built per worker — every
//! one of them from the oracle's single [`BackendSpec`], on the calling
//! thread before the first batch that reaches the slot, the slots of one
//! batch from one load of the formula — and lives until the oracle is
//! dropped, surviving across batches ([`CubeBackend::begin_batch`] re-arms
//! it at each batch boundary). That lifecycle is what lets [`WarmBackend`]'s learnt clauses
//! and VSIDS state accumulate across every batch the oracle processes — the
//! analogue of the solver inside a long-lived PDSAT worker process. The full
//! behavioural contract lives in DESIGN.md ("Backend contract").

use crate::{CostMetric, SolveModeConfig};
use pdsat_cnf::{Cnf, DratProof, Lit};
use pdsat_solver::{Budget, InterruptFlag, Solver, SolverConfig, SolverStats, Verdict};
use std::time::Instant;

/// Everything a backend reports about one solved cube.
///
/// `cost` must cover exactly the work performed for *this* cube: a fresh
/// solver prices its whole lifetime, a warm solver the difference since the
/// previous cube. Every other solver statistic reaches the executor once per
/// batch through [`CubeBackend::end_batch`]. Per-variable conflict
/// participation is *not* part of the outcome: the backend adds it directly
/// into the accumulator passed to [`CubeBackend::solve`], so no
/// `num_vars`-sized allocation travels per cube.
#[derive(Debug, Clone)]
pub(crate) struct BackendOutcome {
    /// Verdict of `C ∧ cube` (the model travels inside [`Verdict::Sat`]).
    pub verdict: Verdict,
    /// The cube's cost under the oracle's [`CostMetric`]: the counter it
    /// names, or the wall time of the call, including the per-cube setup the
    /// backend performs (a fresh backend counts rewinding its solver to the
    /// load, but not the one-off load itself).
    pub cost: f64,
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
    /// added into `conflict_acc` (indexed by variable, `num_vars` long):
    /// the oracle's running tally on the calling thread, a row of the
    /// worker's own on a spawned one, added into the tally after the batch.
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
    /// batch** per worker — per-cube outcomes carry only that cube's cost,
    /// and the batch aggregate is merged here in one step instead of being
    /// re-summed cube by cube.
    fn end_batch(&mut self) -> SolverStats;
}

/// Selects the backend a [`CubeOracle`](super::CubeOracle) builds for each of
/// its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Fresh [`Solver`] state per cube: the formula is loaded once and the
    /// solver is rewound to exactly that state before every cube.
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

/// How to build a backend: everything the oracle's configuration and the
/// formula decide about it, worked out once when the oracle is built and
/// shared by every site that builds one — the pool, for the slots a batch
/// reaches that have none and for every replacement after a panic, and the
/// oracle's re-solve of the cubes whose solve panicked.
pub(crate) struct BackendSpec {
    /// The formula every sub-problem restricts.
    cnf: Cnf,
    /// Which substrate to build.
    kind: BackendKind,
    /// The solver configuration of every backend, with the solver's own clock
    /// off: a backend times each cube itself when its cost is wall time.
    solver_config: SolverConfig,
    /// What every backend prices its cubes by.
    cost: CostMetric,
}

impl BackendSpec {
    /// The spec of the backends an oracle over `cnf` configured by `config`
    /// runs: its backend, solver configuration and cost metric.
    pub(crate) fn new(cnf: &Cnf, config: &SolveModeConfig) -> BackendSpec {
        BackendSpec {
            cnf: cnf.clone(),
            kind: config.backend,
            solver_config: SolverConfig {
                time_accounting: false,
                proof: config.solver_config.proof,
            },
            cost: config.cost,
        }
    }

    /// Builds one backend instance: a load of the formula of its own.
    pub(crate) fn build(&self) -> Box<dyn CubeBackend> {
        let mut built = self.build_many(1);
        built.pop().expect("one backend was built")
    }

    /// Builds `n` backends (one per worker, each built once for the worker's
    /// lifetime) from one load of the formula: each gets a copy of the
    /// loaded solver, and the last one the loaded solver itself, so one
    /// backend holds the only solver there is.
    pub(crate) fn build_many(&self, n: usize) -> Vec<Box<dyn CubeBackend>> {
        let loaded = Solver::from_cnf_with_config(&self.cnf, self.solver_config.clone());
        let build = |solver| -> Box<dyn CubeBackend> {
            match self.kind {
                BackendKind::Warm => Box::new(WarmBackend::new(self, solver)),
                BackendKind::Fresh => Box::new(FreshBackend::new(self, solver)),
            }
        };
        let mut built: Vec<Box<dyn CubeBackend>> = Vec::with_capacity(n);
        built.extend((1..n).map(|_| build(loaded.clone())));
        built.push(build(loaded));
        built
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cube's measurement under a backend's [`CostMetric`], started before
/// the cube is solved.
#[derive(Clone, Copy)]
enum Meter {
    /// Wall time, the only metric a backend reads the clock for: when the
    /// cube started. At warm-backend throughput (tens of nanoseconds per cube
    /// once a family's lemmas are learnt and trails are reused), a clock
    /// read per cube under a counter metric would be a double-digit
    /// percentage of the cost.
    Clock(Instant),
    /// A counter metric: the counter before the cube.
    Counter(u64),
}

impl Meter {
    /// Starts measuring a cube under `cost`, the solver's counters being
    /// `stats`.
    fn start(cost: CostMetric, stats: &SolverStats) -> Meter {
        cost.counter(stats)
            .map_or_else(|| Meter::Clock(Instant::now()), Meter::Counter)
    }

    /// The cube's cost under `cost`, the solver's counters now being `stats`.
    fn stop(self, cost: CostMetric, stats: &SolverStats) -> f64 {
        match self {
            Meter::Clock(start) => start.elapsed().as_secs_f64(),
            Meter::Counter(before) => cost.counter(stats).map_or(0, |now| now - before) as f64,
        }
    }
}

/// The fresh-solver backend: every cube is solved from identical solver
/// state (the property the Monte Carlo estimator needs).
///
/// The formula is loaded **once**, when the backend is built, and the
/// backend's one solver is rewound to the state that load left before each
/// cube with [`Solver::rewind`], which undoes what the last cube changed —
/// its trail, its learnt clauses and their watch lists, its proof steps and
/// the heuristics it moved — and leaves the loaded clauses where they are.
/// A cube therefore starts from the loaded formula at the cost of what the
/// previous cube touched, instead of re-parsing and re-attaching every
/// clause or copying the loaded state, and the solver's counters after the
/// solve are the cube's own — the load's root propagations included,
/// exactly as a solver rebuilt per cube reports them.
///
/// A cube equal to the one just solved, with the interrupt flag down, is
/// not solved again: the solver still holds exactly the state that solve
/// left, so its conflict participation, statistics and certificate are read
/// again as they are, beside the verdict and cost kept from the solve. The
/// estimator's
/// samples are drawn with replacement and grouped before they are
/// submitted, so repeats arrive back to back.
pub(crate) struct FreshBackend {
    /// The solver the cubes run on.
    working: Solver,
    /// The solve `working` holds the end state of. Kept across batches: the
    /// load a rewind returns to never changes.
    last: LastSolve,
    /// Sum of the per-cube stats deltas of the current batch, handed out
    /// once at [`CubeBackend::end_batch`].
    batch_stats: SolverStats,
    cost: CostMetric,
}

/// What [`FreshBackend::last`] remembers of a solve.
struct LastSolve {
    /// Its cube; one buffer, rewritten by every solve that sets `answer`.
    cube: Vec<Lit>,
    /// Its verdict and cost, while a repeat may be answered from `working`.
    /// Cleared before every solve, so a solve that panics leaves nothing
    /// stale; never set by an interrupted solve, whose verdict a repeat need
    /// not share.
    answer: Option<(Verdict, f64)>,
}

impl FreshBackend {
    /// Creates the backend around `working`, loaded with the formula and
    /// not yet used.
    fn new(spec: &BackendSpec, working: Solver) -> FreshBackend {
        FreshBackend {
            working,
            last: LastSolve {
                cube: Vec::new(),
                answer: None,
            },
            batch_stats: SolverStats::default(),
            cost: spec.cost,
        }
    }

    /// Rewinds `working`, solves `cube` on it and prices the solve — or, for
    /// a repeat of the last solve, returns that solve's verdict and cost with
    /// `working` untouched.
    fn rewind_and_solve(&mut self, cube: &[Lit], interrupt: &InterruptFlag) -> (Verdict, f64) {
        if let Some((verdict, cost)) = &self.last.answer {
            if self.last.cube == cube && !interrupt.is_raised() {
                return (verdict.clone(), *cost);
            }
        }
        self.last.answer = None;
        // A rewound solver's counters are the cube's own from zero, the
        // load's root propagations included.
        let meter = Meter::start(self.cost, &SolverStats::default());
        self.working.rewind();
        let verdict = self
            .working
            .solve_limited(cube, &Budget::unlimited(), Some(interrupt));
        let cost = meter.stop(self.cost, self.working.stats());
        // A raised interrupt is the only way to `Unknown`.
        if !verdict.is_unknown() {
            self.last.cube.clear();
            self.last.cube.extend_from_slice(cube);
            self.last.answer = Some((verdict.clone(), cost));
        }
        (verdict, cost)
    }
}

impl CubeBackend for FreshBackend {
    fn solve(
        &mut self,
        cube: &[Lit],
        interrupt: &InterruptFlag,
        conflict_acc: &mut [u64],
    ) -> BackendOutcome {
        // The load happened when the backend was built, so every wall-time
        // observation of a backend's life is distributed alike: rewind +
        // solve.
        let (verdict, cost) = self.rewind_and_solve(cube, interrupt);
        let working = &self.working;
        // The load runs no conflict analysis and a rewind zeroes what a
        // cube's conflicts counted, so the solver's counts are entirely
        // this cube's — and all zero when it met no conflict.
        if working.stats().conflicts > 0 {
            for (acc, &c) in conflict_acc.iter_mut().zip(working.conflict_counts()) {
                *acc += c;
            }
        }
        // The full statistics stay in here, for the batch aggregate; the
        // report carries the cube's cost.
        self.batch_stats.absorb(working.stats());
        let proof = working.unsat_certificate();
        BackendOutcome {
            verdict,
            cost,
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
    cost: CostMetric,
}

impl WarmBackend {
    /// Creates the backend around `solver`, the persistent solver, loaded
    /// with the formula and not yet used.
    fn new(spec: &BackendSpec, solver: Solver) -> WarmBackend {
        WarmBackend {
            solver,
            attributed: vec![0; spec.cnf.num_vars()],
            batch_start: SolverStats::default(),
            cost: spec.cost,
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
        let conflicts = self.solver.stats().conflicts;
        let meter = Meter::start(self.cost, self.solver.stats());
        let verdict = self
            .solver
            .solve_limited(cube, &Budget::unlimited(), Some(interrupt));
        let cost = meter.stop(self.cost, self.solver.stats());
        // Attribute only the *new* conflict participation to this cube, in
        // place — no per-cube allocation — and only over the formula's
        // variables: a cube may name a variable the formula lacks, which
        // the solver then creates. A cube decided without a single
        // conflict (the common case once the family's lemmas are learnt)
        // cannot have moved any per-variable counter, so the whole
        // `num_vars`-sized scan is skipped.
        if self.solver.stats().conflicts > conflicts {
            let counts = self.solver.conflict_counts().iter();
            let attributed = self.attributed.iter_mut().zip(conflict_acc);
            for ((prev, acc), &now) in attributed.zip(counts) {
                if now != *prev {
                    *acc += now - *prev;
                    *prev = now;
                }
            }
        }
        BackendOutcome {
            verdict,
            cost,
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

    /// The configuration of `backend` backends pricing cubes by `cost`.
    fn config(backend: BackendKind, cost: CostMetric) -> SolveModeConfig {
        SolveModeConfig {
            cost,
            backend,
            ..SolveModeConfig::default()
        }
    }

    fn spec(cnf: &Cnf) -> BackendSpec {
        BackendSpec::new(cnf, &config(BackendKind::Fresh, CostMetric::Propagations))
    }

    /// A fresh backend of its own load, unboxed.
    fn fresh(spec: &BackendSpec) -> FreshBackend {
        let loaded = Solver::from_cnf_with_config(&spec.cnf, spec.solver_config.clone());
        FreshBackend::new(spec, loaded)
    }

    #[test]
    fn fresh_backend_reports_lifetime_deltas() {
        let mut backend = fresh(&spec(&chain(4)));
        let cube = Cube::from_values(&[Var::new(0)], &[true]);
        let interrupt = InterruptFlag::new();
        let mut acc = vec![0u64; backend.working.num_vars()];
        let out = backend.solve(cube.lits(), &interrupt, &mut acc);
        assert!(out.verdict.is_sat());
        assert!(out.cost > 0.0);
        assert_eq!(out.cost, backend.working.stats().propagations as f64);
        // A second identical call sees an identical fresh solver.
        let again = backend.solve(cube.lits(), &interrupt, &mut acc);
        assert_eq!(out.cost, again.cost);
    }

    /// A fresh backend over the pigeonhole formula on 5 holes pricing cubes
    /// by `cost`, certificates on, and two of its cubes: every cube is
    /// refuted, with conflicts.
    fn pigeonhole_backend(cost: CostMetric) -> (FreshBackend, Cube, Cube) {
        let mut config = config(BackendKind::Fresh, cost);
        config.solver_config.proof = true;
        let spec = BackendSpec::new(&Cnf::pigeonhole(5), &config);
        let set = [Var::new(0), Var::new(7)];
        let (c, d) = (Cube::from_bits(&set, 0b10), Cube::from_bits(&set, 0b01));
        (fresh(&spec), c, d)
    }

    /// Marks the solve the backend keeps, so that a cube answered from it
    /// is told apart from one solved again: no counter is fractional.
    const KEPT: f64 = 7.5;

    fn mark_kept(backend: &mut FreshBackend) {
        let answer = backend.last.answer.as_mut();
        answer.expect("the last solve is kept").1 = KEPT;
    }

    #[test]
    fn a_repeated_cube_is_answered_as_a_solve_would_answer_it() {
        let interrupt = InterruptFlag::new();
        // Each sequence on a backend of its own: the outcomes, the conflict
        // accumulator and the batch statistics.
        let run = |cost: CostMetric, order: &[bool]| {
            let (mut backend, c, d) = pigeonhole_backend(cost);
            let mut acc = vec![0u64; backend.working.num_vars()];
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
        for cost in [CostMetric::Conflicts, CostMetric::Propagations] {
            let (once, once_acc, once_stats) = run(cost, &[true]);
            let (repeated, repeated_acc, repeated_stats) = run(cost, &[true, true]);
            let (apart, _, _) = run(cost, &[true, false, true]);
            assert!(once[0].verdict.is_unsat() && once[0].cost > 0.0, "{cost}");
            assert!(once_acc.iter().any(|&c| c > 0));
            for outcome in [&repeated[0], &repeated[1], &apart[0], &apart[2]] {
                assert_eq!(outcome.verdict, once[0].verdict);
                assert_eq!(outcome.cost, once[0].cost, "{cost}");
                assert_eq!(outcome.proof, once[0].proof);
            }
            assert!(once[0].proof.is_some());
            let doubled: Vec<u64> = once_acc.iter().map(|&c| 2 * c).collect();
            assert_eq!(repeated_acc, doubled);
            let mut twice = once_stats;
            twice.absorb(&once_stats);
            assert_eq!(repeated_stats, twice);
        }
        // Under wall time a repeat reports the wall time of the solve it is
        // answered from: one cube, one observation.
        let (repeated, _, _) = run(CostMetric::WallSeconds, &[true, true]);
        assert_eq!(repeated[1].cost, repeated[0].cost);
    }

    #[test]
    fn a_raised_interrupt_solves_the_cube_again() {
        let (mut backend, c, d) = pigeonhole_backend(CostMetric::Propagations);
        let mut acc = vec![0u64; backend.working.num_vars()];
        let lowered = InterruptFlag::new();
        let raised = InterruptFlag::new();
        raised.raise();
        let kept_cube = |backend: &FreshBackend| backend.last.cube.as_ptr();
        let _ = backend.solve(d.lits(), &lowered, &mut acc);
        let buffer = kept_cube(&backend);
        let first = backend.solve(c.lits(), &lowered, &mut acc);
        assert!(first.verdict.is_unsat());
        // Every solve rewrites the one kept buffer.
        assert_eq!(kept_cube(&backend), buffer);

        mark_kept(&mut backend);
        let interrupted = backend.solve(c.lits(), &raised, &mut acc);
        assert_eq!(interrupted.verdict, Verdict::Unknown);
        // An interrupted solve is not kept: the next repeat is solved.
        assert!(backend.last.answer.is_none());
        let again = backend.solve(c.lits(), &lowered, &mut acc);
        assert!(again.verdict.is_unsat() && again.cost != KEPT);
        assert_eq!(again.cost, first.cost);
    }

    #[test]
    fn warm_backend_deltas_are_per_cube_not_cumulative() {
        let cnf = chain(5);
        let spec = spec(&cnf);
        let loaded = Solver::from_cnf_with_config(&spec.cnf, spec.solver_config.clone());
        let mut backend = WarmBackend::new(&spec, loaded);
        let interrupt = InterruptFlag::new();
        let set = [Var::new(0), Var::new(4)];
        let mut total_props = 0.0;
        let mut acc = vec![0u64; cnf.num_vars()];
        for bits in 0..4u64 {
            let cube = Cube::from_bits(&set, bits);
            backend.begin_batch();
            let out = backend.solve(cube.lits(), &interrupt, &mut acc);
            // Deltas stay cube-sized even though the solver's own counters
            // keep growing across the calls.
            assert!(out.cost <= backend.solver.stats().propagations as f64);
            total_props += out.cost;
        }
        // The per-cube deltas add up to the solver's cumulative counters.
        assert_eq!(total_props, backend.solver.stats().propagations as f64);
        let attributed: u64 = backend.attributed.iter().sum();
        let cumulative: u64 = backend.solver.conflict_counts().iter().sum();
        assert_eq!(attributed, cumulative);
        // The caller-side accumulator saw exactly the cumulative counts too.
        assert_eq!(acc.iter().sum::<u64>(), cumulative);
    }

    /// Backends built from one load answer every cube as one built alone
    /// does: the copies and the loaded solver itself are all the same state.
    #[test]
    fn backends_built_from_one_load_answer_like_one_built_alone() {
        let set = [Var::new(0), Var::new(7), Var::new(13)];
        for backend in [BackendKind::Fresh, BackendKind::Warm] {
            let config = config(backend, CostMetric::Propagations);
            let spec = BackendSpec::new(&Cnf::pigeonhole(5), &config);
            let interrupt = InterruptFlag::new();
            let run = |b: &mut Box<dyn CubeBackend>| {
                let mut acc = vec![0u64; spec.cnf.num_vars()];
                b.begin_batch();
                let outcomes: Vec<_> = (0..8u64)
                    .map(|bits| {
                        let cube = Cube::from_bits(&set, bits);
                        let out = b.solve(cube.lits(), &interrupt, &mut acc);
                        (out.verdict, out.cost)
                    })
                    .collect();
                (outcomes, acc, b.end_batch())
            };
            let alone = run(&mut spec.build());
            let mut many = spec.build_many(3);
            assert_eq!(many.len(), 3);
            for b in &mut many {
                assert_eq!(run(b), alone, "{backend}");
            }
        }
    }
}
