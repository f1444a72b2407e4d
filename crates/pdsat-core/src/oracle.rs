//! The `CubeOracle`: the single entry point through which every sub-problem
//! of the reproduction is solved.
//!
//! Every quantity the paper measures — the predictive function `F(χ)`, the
//! annealing/tabu point traversal, solving mode — is a multiple of one unit
//! of work: *solve `C[X̃/α]` under the cube's assumptions*. PDSAT realizes
//! that unit as an MPI worker running a modified MiniSat; this module
//! realizes it as a backend selected by [`BackendKind`], driven by an
//! executor that owns a **pool of resident backends** ([`oracle/pool.rs`](pool)):
//! one slot per worker (one at least), whose backend is built on the calling
//! thread before the first batch that reaches the slot (the slots of one
//! batch from one load of the formula) and lives as long as the oracle
//! does — the analogue of a PDSAT worker's solver state — while the worker
//! *threads* are scoped to one batch each, so they read the caller's cubes and write
//! the result columns in place. The calling thread is always the first
//! worker, so a one-worker oracle spawns no thread per batch. Every cube
//! runs to a verdict; the executor fans an [`InterruptFlag`] out to every
//! worker and merges per-worker [`SolverStats`] once per batch and the
//! spawned workers' per-variable conflict counts into the oracle's one
//! running tally ([`CubeOracle::conflict_activity`]).
//!
//! The [`Evaluator`](crate::Evaluator) (one batch per point's sample) and
//! [`FamilySolver`](crate::FamilySolver) both route through here. An oracle
//! reads its [`SolveModeConfig`] once, when it is built: the backend, the
//! solver configuration and the cost metric go into how every backend is
//! built, and the number of workers into the pool's size. The backend that
//! solves a cube prices it under that metric.

mod backend;
mod pool;

pub use backend::BackendKind;
use backend::BackendSpec;
pub(crate) use backend::{BackendOutcome, CubeBackend};

use crate::fault::FaultPlan;
use crate::SolveModeConfig;
use pdsat_cnf::{Assignment, Cnf, Cube, DratProof, LitBuffer};
use pdsat_solver::{InterruptFlag, SolverStats, Verdict};
use pool::WorkerPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Summary verdict of one sub-problem (the model, if any, travels separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerdictSummary {
    /// The sub-problem is satisfiable.
    Sat,
    /// The sub-problem is unsatisfiable.
    Unsat,
    /// The sub-problem was not decided (the batch was interrupted).
    Unknown,
}

/// Result of processing a whole batch, as columns: position `i` of `costs`
/// and `verdicts` is cube `i` of the submitted batch.
///
/// Every cube is claimed and reported, so no returned verdict is `None`. A
/// raised external interrupt does not change that: the cubes it cut short
/// appear as [`VerdictSummary::Unknown`] (the equivalent of PDSAT's leader
/// abandoning a point — the workers drain the batch cheaply rather than
/// abandoning it).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Measured cost of every cube under the configured
    /// [`CostMetric`](crate::CostMetric).
    pub costs: Vec<f64>,
    /// Verdict of every cube — one byte each. `None` marks a position no
    /// worker has solved yet while the batch runs; a returned batch has
    /// none.
    pub verdicts: Vec<Option<VerdictSummary>>,
    /// A model of `C ∧ cube` for every satisfiable cube, by batch position,
    /// ascending.
    pub models: Vec<(usize, Assignment)>,
    /// DRAT certificate of every UNSAT verdict, by batch position, ascending;
    /// checkable against the original formula with the cube's literals as
    /// root assumptions. Filled exactly when
    /// [`SolverConfig::proof`](pdsat_solver::SolverConfig::proof) is
    /// enabled. Certificates are checked at ingestion and stripped, never
    /// persisted.
    pub proofs: Vec<(usize, DratProof)>,
    /// Solver-statistics deltas summed over all sub-problems of the batch.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the whole batch (with however many workers ran).
    pub wall_time: Duration,
}

impl BatchResult {
    /// The result of a batch of `cubes` cubes none of which is solved yet.
    /// The zeroed cost column is not touched here: its pages are faulted in
    /// by whichever worker writes them.
    fn unsolved(cubes: usize) -> BatchResult {
        BatchResult {
            costs: vec![0.0; cubes],
            verdicts: vec![None; cubes],
            models: Vec::new(),
            proofs: Vec::new(),
            solver_stats: SolverStats::default(),
            wall_time: Duration::ZERO,
        }
    }

    /// Counts of (sat, unsat, unknown) verdicts over the batch.
    #[must_use]
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for verdict in self.verdicts.iter().flatten() {
            match verdict {
                VerdictSummary::Sat => counts.0 += 1,
                VerdictSummary::Unsat => counts.1 += 1,
                VerdictSummary::Unknown => counts.2 += 1,
            }
        }
        counts
    }
}

/// What only tests vary about an oracle, given to
/// `CubeOracle::with_test_policy`. The [`Default`] is production: a pool no
/// wider than the machine's available parallelism, and no faults.
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleTestPolicy {
    /// Build exactly `num_workers` slots, however few CPUs the machine has
    /// (scheduling tests, oversubscription experiments).
    pub exact_workers: bool,
    /// Faults to inject, armed when the oracle is built and wrapped around
    /// every pool backend — the first of each slot and every replacement —
    /// so the plan's solve panics fire inside the workers, whatever the
    /// number of workers, and each panicked cube comes back through the
    /// re-solve on the calling thread. That re-solve is intentionally not
    /// injected (a panic there propagates to the caller).
    pub faults: FaultPlan,
}

/// The executor that owns the formula and the worker pool of resident
/// backends, and processes batches of cubes through them.
///
/// The backends live as long as the oracle: a [`BackendKind::Warm`] solver
/// keeps its learnt clauses and VSIDS state across *every* batch the oracle
/// processes, exactly like the solver inside one of PDSAT's long-lived
/// MiniSat worker processes, regardless of `num_workers`.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cnf, Cube, Lit, Var};
/// use pdsat_core::{
///     BackendKind, CostMetric, CubeOracle, DecompositionSet, SolveModeConfig, VerdictSummary,
/// };
///
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::negative(Var::new(0)), Lit::positive(Var::new(1))]);
/// let set = DecompositionSet::new([Var::new(0), Var::new(2)]);
/// let cubes: Vec<Cube> = set.cubes().collect();
///
/// let mut oracle = CubeOracle::new(
///     &cnf,
///     &SolveModeConfig {
///         cost: CostMetric::Propagations,
///         backend: BackendKind::Warm,
///         ..SolveModeConfig::default()
///     },
/// );
/// let batch = oracle.solve_batch(&cubes, None);
/// let (sat, unsat, unknown) = batch.verdict_counts();
/// assert_eq!((sat, unsat, unknown), (4, 0, 0));
/// // Position `i` of the columns is cube `i`; models are listed by position.
/// assert_eq!(batch.verdicts[3], Some(VerdictSummary::Sat));
/// assert_eq!(batch.costs.len(), 4);
/// assert!(batch.models.iter().map(|(i, _)| *i).eq(0..4));
/// assert_eq!(oracle.cubes_solved(), 4);
/// // No cube of a satisfiable chain meets a conflict.
/// assert!(oracle.conflict_activity().iter().all(|&c| c == 0));
/// ```
pub struct CubeOracle {
    /// The formula and how to build a backend over it; shared with the pool
    /// slots, which build their backends and replacements from it.
    spec: Arc<BackendSpec>,
    pool: WorkerPool,
    total_stats: SolverStats,
    /// Per-variable conflict participation over every cube solved.
    conflict_activity: Vec<u64>,
    batches: u64,
    cubes_solved: u64,
}

impl std::fmt::Debug for CubeOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeOracle")
            .field("num_vars", &self.conflict_activity.len())
            .field("num_workers", &self.num_workers())
            .field("batches", &self.batches)
            .field("cubes_solved", &self.cubes_solved)
            .finish_non_exhaustive()
    }
}

impl CubeOracle {
    /// Creates an oracle over a copy of `cnf`, with a pool of one backend
    /// per worker. Nothing is built yet: each backend is built in the first
    /// batch wide enough to reach its slot, on the calling thread before the
    /// batch's workers start. The slots one batch reaches share one load of
    /// the formula: each backend gets a copy of the loaded solver, the last
    /// one the loaded solver itself. A slot a later batch first reaches, and the replacement of
    /// a backend that panicked, load the formula again.
    ///
    /// `config` is read here and nowhere else: its `num_workers` (0 means 1)
    /// sizes the pool, capped at the machine's available parallelism —
    /// surplus threads only add context-switch and dispatch overhead — and
    /// its backend, solver configuration and cost metric decide how every
    /// backend is built.
    #[must_use]
    pub fn new(cnf: &Cnf, config: &SolveModeConfig) -> CubeOracle {
        CubeOracle::with_test_policy(cnf, config, OracleTestPolicy::default())
    }

    /// [`new`](CubeOracle::new) under a test policy: an exact pool shape,
    /// injected faults.
    #[doc(hidden)]
    #[must_use]
    pub fn with_test_policy(
        cnf: &Cnf,
        config: &SolveModeConfig,
        policy: OracleTestPolicy,
    ) -> CubeOracle {
        let mut workers = config.num_workers.max(1);
        if !policy.exact_workers {
            let hardware = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            workers = workers.min(hardware);
        }
        let spec = Arc::new(BackendSpec::new(cnf, config));
        // A non-empty fault plan is armed once per oracle; the workers share
        // its ordinal counters, so "panic on the nth solve" counts solves
        // across the whole pool.
        let faults = (!policy.faults.is_empty()).then(|| policy.faults.arm());
        let pool = WorkerPool::new(&spec, workers, faults.as_ref());
        CubeOracle {
            spec,
            pool,
            total_stats: SolverStats::default(),
            conflict_activity: vec![0; cnf.num_vars()],
            batches: 0,
            cubes_solved: 0,
        }
    }

    /// Number of resident workers executing batches: the pool size, at
    /// least 1.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.pool.size()
    }

    /// Solver-statistics deltas aggregated over every cube this oracle has
    /// solved.
    #[must_use]
    pub fn total_stats(&self) -> &SolverStats {
        &self.total_stats
    }

    /// Per-variable conflict participation summed over every cube this
    /// oracle has solved, indexed by variable: the "conflict activity" the
    /// tabu search's `getNewCenter` maximizes (§3 of the paper).
    #[must_use]
    pub fn conflict_activity(&self) -> &[u64] {
        &self.conflict_activity
    }

    /// Number of batches processed.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of sub-problems solved.
    #[must_use]
    pub fn cubes_solved(&self) -> u64 {
        self.cubes_solved
    }

    /// Processes a batch of cubes (sub-problems of one decomposition family).
    ///
    /// The batch runs on `min(num_workers, cubes.len())` of the pool's
    /// backends — the first on the calling thread, the others on threads
    /// that last for the batch — so a one-worker oracle, or a batch smaller
    /// than the pool, spawns no surplus thread. The backends are the *same
    /// instances* across calls (warm state survives from batch to batch),
    /// the cubes are processed in the order given — each worker walks its
    /// stripe of the batch front to back — and position `i` of the returned
    /// columns is cube `i`. A caller that wants a warm solver to reuse
    /// assumption prefixes submits the cubes sorted (enumerated families
    /// already are; the [`Evaluator`](crate::Evaluator) sorts its samples).
    /// An empty batch returns immediately without touching the pool.
    ///
    /// The optional `external_interrupt` lets a caller abandon the whole
    /// batch — the equivalent of PDSAT's leader abandoning a search-space
    /// point; see the [`BatchResult`] docs.
    #[must_use]
    pub fn solve_batch(
        &mut self,
        cubes: &[Cube],
        external_interrupt: Option<&InterruptFlag>,
    ) -> BatchResult {
        let start = Instant::now();
        let interrupt = external_interrupt.cloned().unwrap_or_default();
        let mut result = BatchResult::unsolved(cubes.len());
        let conflicts = &mut self.conflict_activity;

        if !cubes.is_empty() {
            self.pool
                .run_batch(cubes, &interrupt, &mut result, conflicts);
            // Every cube whose solve panicked in the pool is re-solved once
            // on the calling thread with a one-shot backend. Deliberately
            // not fault-injected: if this path panics too, the failure
            // surfaces to the caller.
            if result.solver_stats.worker_panics > 0 {
                solve_on_caller(
                    self.spec.build().as_mut(),
                    cubes,
                    &interrupt,
                    &mut result,
                    conflicts,
                );
            }
            // Each worker listed its own; the re-solve's come last.
            result.models.sort_unstable_by_key(|&(index, _)| index);
            result.proofs.sort_unstable_by_key(|&(index, _)| index);
        }

        self.batches += 1;
        self.cubes_solved += cubes.len() as u64;
        self.total_stats.absorb(&result.solver_stats);
        result.wall_time = start.elapsed();
        result
    }
}

/// The re-solve of cubes whose solve panicked in the pool: solves, in turn
/// on `backend`, every cube of the batch whose position in `result` no
/// worker filled, writes each cube's cost and verdict at its position,
/// counts it in `requeued_cubes`, adds the backend's statistics for the
/// run to `result`'s and its per-variable conflict counts to `conflicts`.
fn solve_on_caller(
    backend: &mut dyn CubeBackend,
    cubes: &[Cube],
    interrupt: &InterruptFlag,
    result: &mut BatchResult,
    conflicts: &mut [u64],
) {
    backend.begin_batch();
    let mut buffer = LitBuffer::new();
    for (index, cube) in cubes.iter().enumerate() {
        if result.verdicts[index].is_some() {
            continue;
        }
        let cube = buffer.write(cube);
        let raw = backend.solve(cube, interrupt, conflicts);
        result.costs[index] = raw.cost;
        let verdict = summarize(index, raw, &mut result.models, &mut result.proofs);
        result.verdicts[index] = Some(verdict);
        result.solver_stats.requeued_cubes += 1;
    }
    result.solver_stats.absorb(&backend.end_batch());
}

/// Summarizes the verdict of a backend's raw report on cube `index`, listing
/// the model of a satisfiable cube and the proof of a certified one under
/// that index.
fn summarize(
    index: usize,
    raw: BackendOutcome,
    models: &mut Vec<(usize, Assignment)>,
    proofs: &mut Vec<(usize, DratProof)>,
) -> VerdictSummary {
    if let Some(proof) = raw.proof {
        proofs.push((index, proof));
    }
    match raw.verdict {
        Verdict::Sat(model) => {
            models.push((index, model));
            VerdictSummary::Sat
        }
        Verdict::Unsat => VerdictSummary::Unsat,
        Verdict::Unknown => VerdictSummary::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostMetric, DecompositionSet};
    use pdsat_cnf::{Lit, Var};
    use rand::SeedableRng;

    /// The configuration of a one-worker fresh oracle.
    fn fresh() -> SolveModeConfig {
        SolveModeConfig {
            backend: BackendKind::Fresh,
            ..SolveModeConfig::default()
        }
    }

    fn sat_chain(n: usize) -> Cnf {
        // x1 → x2 → … → xn, satisfiable.
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause([
                Lit::negative(Var::new(i as u32)),
                Lit::positive(Var::new(i as u32 + 1)),
            ]);
        }
        cnf
    }

    /// An oracle with exactly `config.num_workers` slots: a real pool even
    /// on a single-core machine.
    fn exact(cnf: &Cnf, config: &SolveModeConfig) -> CubeOracle {
        let policy = OracleTestPolicy {
            exact_workers: true,
            ..OracleTestPolicy::default()
        };
        CubeOracle::with_test_policy(cnf, config, policy)
    }

    fn batch(cnf: &Cnf, cubes: &[Cube], config: &SolveModeConfig) -> BatchResult {
        exact(cnf, config).solve_batch(cubes, None)
    }

    #[test]
    fn a_verdict_costs_one_byte_of_its_column() {
        assert_eq!(std::mem::size_of::<Option<VerdictSummary>>(), 1);
    }

    #[test]
    fn sequential_batch_covers_all_cubes() {
        let cnf = sat_chain(6);
        let set = DecompositionSet::new([Var::new(0), Var::new(1)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let config = SolveModeConfig {
            cost: CostMetric::Propagations,
            ..fresh()
        };
        let result = batch(&cnf, &cubes, &config);
        assert_eq!(result.costs.len(), 4);
        // The implication chain x1→x2 makes exactly the cube (x1=1, x2=0)
        // unsatisfiable; the other three cubes extend to models. Verdicts
        // and models are in cube order.
        use VerdictSummary::{Sat, Unsat};
        assert_eq!(
            result.verdicts,
            [Some(Sat), Some(Sat), Some(Unsat), Some(Sat)]
        );
        assert_eq!(result.verdict_counts(), (3, 1, 0));
        assert!(result.models.iter().map(|(i, _)| *i).eq([0, 1, 3]));
        // Under a counter metric the cost column sums to the batch's counter,
        // whichever backend prices the cubes and however many workers solve
        // them; under wall time every cost is a duration. The refuted family
        // meets conflicts, so neither counter sums zeros only.
        let refuted = Cnf::pigeonhole(4);
        let refuted_cubes: Vec<Cube> = DecompositionSet::new((0..3).map(Var::new))
            .cubes()
            .collect();
        let mut conflicts = 0;
        for (cnf, cubes) in [(&cnf, &cubes), (&refuted, &refuted_cubes)] {
            for backend in [BackendKind::Fresh, BackendKind::Warm] {
                for num_workers in [1, 4] {
                    for cost in [
                        CostMetric::Conflicts,
                        CostMetric::Propagations,
                        CostMetric::WallSeconds,
                    ] {
                        let config = SolveModeConfig {
                            cost,
                            num_workers,
                            backend,
                            ..SolveModeConfig::default()
                        };
                        let result = batch(cnf, cubes, &config);
                        let stats = &result.solver_stats;
                        let context = format!("{cost}, {backend}, {num_workers} workers");
                        let counted = match cost {
                            CostMetric::Conflicts => stats.conflicts,
                            CostMetric::Propagations => stats.propagations,
                            CostMetric::WallSeconds => {
                                let duration = |c: &f64| c.is_finite() && *c >= 0.0;
                                assert!(result.costs.iter().all(duration), "{context}");
                                continue;
                            }
                        };
                        let cost_sum: f64 = result.costs.iter().sum();
                        assert_eq!(cost_sum, counted as f64, "{context}");
                        conflicts += stats.conflicts;
                    }
                }
            }
        }
        assert!(conflicts > 0);
    }

    /// A cube may name a variable the formula lacks (the solver creates it):
    /// both backends answer it, attributing conflicts to the formula's own
    /// variables only.
    #[test]
    fn a_cube_beyond_the_formula_is_solved_by_both_backends() {
        let cnf = Cnf::pigeonhole(4);
        let beyond = Var::new(cnf.num_vars() as u32 + 3);
        let cubes = [Cube::from_values(&[Var::new(0), beyond], &[true, true])];
        let run = |backend| {
            let config = SolveModeConfig {
                cost: CostMetric::Conflicts,
                backend,
                ..SolveModeConfig::default()
            };
            let mut oracle = exact(&cnf, &config);
            let result = oracle.solve_batch(&cubes, None);
            assert_eq!(result.solver_stats.worker_panics, 0, "{backend}");
            (
                result.verdicts,
                result.costs,
                oracle.conflict_activity().to_vec(),
            )
        };
        let fresh = run(BackendKind::Fresh);
        assert_eq!(fresh.0, [Some(VerdictSummary::Unsat)]);
        assert!(fresh.2.iter().sum::<u64>() > 0);
        assert_eq!(run(BackendKind::Warm), fresh);
    }

    #[test]
    fn parallel_batch_matches_sequential_verdicts() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let seq_config = SolveModeConfig {
            cost: CostMetric::Conflicts,
            num_workers: 1,
            ..fresh()
        };
        let par_config = SolveModeConfig {
            num_workers: 4,
            ..seq_config.clone()
        };
        let mut seq_oracle = exact(&cnf, &seq_config);
        let mut par_oracle = exact(&cnf, &par_config);
        let seq = seq_oracle.solve_batch(&cubes, None);
        let par = par_oracle.solve_batch(&cubes, None);
        assert_eq!(seq.verdicts, par.verdicts);
        // Deterministic metric: identical costs regardless of scheduling.
        assert_eq!(seq.costs, par.costs);
        assert_eq!(
            seq_oracle.conflict_activity(),
            par_oracle.conflict_activity()
        );
        assert_eq!(seq.solver_stats.conflicts, par.solver_stats.conflicts);
        assert_eq!(seq.solver_stats.propagations, par.solver_stats.propagations);
    }

    #[test]
    fn unsat_formula_has_no_sat_cube() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new([Var::new(0), Var::new(5)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let mut oracle = exact(&cnf, &fresh());
        let result = oracle.solve_batch(&cubes, None);
        assert!(result.models.is_empty());
        let (sat, unsat, _) = result.verdict_counts();
        assert_eq!(sat, 0);
        assert_eq!(unsat, 4);
        assert!(oracle.conflict_activity().iter().any(|&c| c > 0));
    }

    #[test]
    fn empty_batch_returns_immediately_for_both_executors() {
        let cnf = Cnf::pigeonhole(4);
        // A one-slot pool, and 0 workers meaning one: a zero-slot pool would
        // panic on its first batch.
        for workers in [0usize, 1, 4] {
            let config = SolveModeConfig {
                num_workers: workers,
                ..fresh()
            };
            let mut oracle = exact(&cnf, &config);
            assert_eq!(oracle.num_workers(), workers.max(1));
            let result = oracle.solve_batch(&[], None);
            assert!(result.costs.is_empty() && result.verdicts.is_empty());
            assert_eq!(oracle.conflict_activity(), vec![0; cnf.num_vars()]);
            assert_eq!(result.solver_stats.conflicts, 0);
            assert_eq!(oracle.batches(), 1);
            assert_eq!(oracle.cubes_solved(), 0);
            // The oracle is still usable afterwards.
            let set = DecompositionSet::new([Var::new(0)]);
            let cubes: Vec<Cube> = set.cubes().collect();
            let again = oracle.solve_batch(&cubes, None);
            assert_eq!(again.verdict_counts(), (0, 2, 0));
        }
    }

    #[test]
    fn more_workers_than_cubes_clamps_the_dispatch() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new([Var::new(0)]);
        let cubes: Vec<Cube> = set.cubes().collect(); // 2 cubes
        let config = SolveModeConfig {
            cost: CostMetric::Conflicts,
            num_workers: 8, // far more than cubes
            ..fresh()
        };
        let mut oracle = exact(&cnf, &config);
        assert_eq!(oracle.num_workers(), 8);
        for _ in 0..3 {
            // Repeated short batches must neither hang the drain nor lose
            // results.
            let result = oracle.solve_batch(&cubes, None);
            let (sat, unsat, unknown) = result.verdict_counts();
            assert_eq!((sat, unsat, unknown), (0, 2, 0));
        }
        assert_eq!(oracle.cubes_solved(), 6);
    }

    #[test]
    fn worker_clamp_respects_available_parallelism() {
        let cnf = Cnf::pigeonhole(4);
        let hardware = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let clamped = CubeOracle::new(
            &cnf,
            &SolveModeConfig {
                num_workers: 64,
                ..fresh()
            },
        );
        assert_eq!(clamped.num_workers(), 64.min(hardware).max(1));
        let forced = exact(
            &cnf,
            &SolveModeConfig {
                num_workers: 3,
                ..fresh()
            },
        );
        assert_eq!(forced.num_workers(), 3);
    }

    #[test]
    fn models_are_collected_and_extend_cubes() {
        let cnf = sat_chain(5);
        let set = DecompositionSet::new([Var::new(2)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let result = batch(&cnf, &cubes, &fresh());
        assert_eq!(result.models.len(), cubes.len(), "models are collected");
        for (index, model) in &result.models {
            assert!(cnf.is_satisfied_by(model));
            for &l in cubes[*index].lits() {
                assert_eq!(model.lit_value(l).to_bool(), Some(true));
            }
        }
    }

    #[test]
    fn warm_backend_agrees_on_verdicts_with_fresh_backend() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let fresh_config = SolveModeConfig {
            cost: CostMetric::Conflicts,
            ..fresh()
        };
        let warm_config = SolveModeConfig {
            backend: BackendKind::Warm,
            ..fresh_config.clone()
        };
        let fresh = batch(&cnf, &cubes, &fresh_config);
        let warm = batch(&cnf, &cubes, &warm_config);
        assert_eq!(fresh.verdicts, warm.verdicts);
        // Learnt clauses carried across cubes make the warm run cheaper in
        // total (or at worst equal).
        let fresh_total: f64 = fresh.costs.iter().sum();
        let warm_total: f64 = warm.costs.iter().sum();
        assert!(warm_total <= fresh_total + 1e-9);
    }

    #[test]
    fn random_sample_batch_is_reproducible_with_deterministic_metric() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cubes = set.random_sample(10, &mut rng);
        let config = SolveModeConfig {
            cost: CostMetric::Conflicts,
            num_workers: 3,
            ..fresh()
        };
        let a = batch(&cnf, &cubes, &config);
        let b = batch(&cnf, &cubes, &config);
        assert_eq!(a.costs, b.costs);
    }

    #[test]
    fn reuse_counters_flow_through_oracle_aggregation() {
        let cnf = sat_chain(8);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let mut oracle = CubeOracle::new(
            &cnf,
            &SolveModeConfig {
                cost: CostMetric::Conflicts,
                backend: BackendKind::Warm,
                ..SolveModeConfig::default()
            },
        );
        let first = oracle.solve_batch(&cubes, None);
        assert!(first.solver_stats.reused_assumptions > 0);
        let second = oracle.solve_batch(&cubes, None);
        // The second identical batch reuses at least as much (the last cube
        // of batch 1 is adjacent to the first cube of batch 2 in the sorted
        // order), and the oracle totals absorb both.
        assert_eq!(
            oracle.total_stats().reused_assumptions,
            first.solver_stats.reused_assumptions + second.solver_stats.reused_assumptions
        );
        assert!(oracle.total_stats().saved_propagations >= oracle.total_stats().reused_assumptions);
    }

    #[test]
    fn oracle_counters_accumulate_across_batches() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..2).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let mut oracle = CubeOracle::new(&cnf, &fresh());
        let first = oracle.solve_batch(&cubes, None);
        let second = oracle.solve_batch(&cubes, None);
        assert_eq!(oracle.batches(), 2);
        assert_eq!(oracle.cubes_solved(), 8);
        assert_eq!(
            oracle.total_stats().conflicts,
            first.solver_stats.conflicts + second.solver_stats.conflicts
        );
    }
}
