//! The `CubeOracle`: the single entry point through which every sub-problem
//! of the reproduction is solved.
//!
//! Every quantity the paper measures — the predictive function `F(χ)`, the
//! annealing/tabu point traversal, solving mode — is a multiple of one unit
//! of work: *solve `C[X̃/α]` under the cube's assumptions*. PDSAT realizes
//! that unit as an MPI worker running a modified MiniSat; this module
//! realizes it as a backend selected by [`BackendKind`], driven by an
//! executor that owns a **pool of resident backends** ([`oracle/pool.rs`](pool)):
//! one slot per worker (one at least), whose backend is built by the worker
//! that first drains the slot and lives as long as the oracle does — the
//! analogue of a PDSAT worker's solver state — while the worker *threads*
//! are scoped to one batch each, so they read the caller's cubes and write
//! the result columns in place. The calling thread is always the first
//! worker, so a one-worker oracle spawns no thread per batch. Every cube
//! runs to a verdict; the executor fans an [`InterruptFlag`] out to every
//! worker and merges per-worker [`SolverStats`] and conflict-count
//! accumulators once per batch.
//!
//! The [`Evaluator`](crate::Evaluator) (point-at-a-time *and* batched
//! neighborhood evaluation) and [`FamilySolver`](crate::FamilySolver) both
//! route through here; backend selection threads through their configs as a
//! [`BackendKind`].

mod backend;
mod pool;

pub use backend::BackendKind;
use backend::BackendSpec;
pub(crate) use backend::{BackendOutcome, CubeBackend};

use crate::fault::FaultPlan;
use crate::CostMetric;
use pdsat_cnf::{Assignment, Cnf, Cube, DratProof};
use pdsat_solver::{InterruptFlag, SolverConfig, SolverStats, Verdict};
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
    /// Measured cost of every cube under the configured [`CostMetric`].
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
    /// root assumptions. Filled exactly when [`SolverConfig::proof`] is
    /// enabled. Certificates are checked at ingestion and stripped, never
    /// persisted.
    pub proofs: Vec<(usize, DratProof)>,
    /// Per-variable conflict participation, summed over all sub-problems of
    /// the batch (used as the "conflict activity" of the tabu heuristic).
    /// Accumulated per worker and merged once per batch — nothing
    /// `num_vars`-sized is allocated or moved per cube.
    pub var_conflict_totals: Vec<u64>,
    /// Solver-statistics deltas summed over all sub-problems of the batch.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the whole batch (with however many workers ran).
    pub wall_time: Duration,
}

impl BatchResult {
    /// The result of a batch of `cubes` cubes none of which is solved yet.
    /// The zeroed cost column is not touched here: its pages are faulted in
    /// by whichever worker writes them.
    fn unsolved(cubes: usize, num_vars: usize) -> BatchResult {
        BatchResult {
            costs: vec![0.0; cubes],
            verdicts: vec![None; cubes],
            models: Vec::new(),
            proofs: Vec::new(),
            var_conflict_totals: vec![0; num_vars],
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

/// Configuration of a [`CubeOracle`], applied to every batch it processes.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Solver configuration used for every sub-problem.
    pub solver_config: SolverConfig,
    /// Cost metric recorded per sub-problem.
    pub cost: CostMetric,
    /// Number of workers: the pool has one slot per worker, whose resident
    /// backend is built by the worker that first drains it, and every batch
    /// wide enough drives each slot with a thread of its own (the calling
    /// thread drains the first stripe itself, so one worker spawns no thread
    /// per batch). 0 means 1.
    pub num_workers: usize,
    /// Cap the pool at the machine's available parallelism (default `true`).
    /// A pool wider than the hardware cannot run faster — on an
    /// oversubscribed machine the surplus threads only add context-switch
    /// and dispatch overhead, which is exactly the "more workers, slower
    /// solving" failure mode this executor exists to prevent. When the cap
    /// brings the effective count to 1, the pool has one slot and every
    /// batch runs on the calling thread. Disable only to force an exact
    /// pool shape (scheduling tests, oversubscription experiments).
    pub clamp_workers_to_cpus: bool,
    /// Which backend each worker runs (see [`BackendKind`] for the
    /// fresh-vs-warm trade-off).
    pub backend: BackendKind,
    /// Deterministic fault injection for the worker pool (default: the empty
    /// plan, which injects nothing and costs nothing). A non-empty plan is
    /// armed when the oracle is built and wraps every pool backend — initial
    /// and respawned — so the plan's scheduled solve panics and respawn
    /// failures fire inside the workers, exercising the quarantine/respawn/
    /// requeue machinery, whatever the number of workers. Chaos tests only;
    /// the last-resort fallback is intentionally not injected (a panic there
    /// propagates to the caller).
    pub fault_plan: FaultPlan,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            solver_config: SolverConfig::default(),
            cost: CostMetric::default(),
            num_workers: 1,
            clamp_workers_to_cpus: true,
            backend: BackendKind::Fresh,
            fault_plan: FaultPlan::none(),
        }
    }
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
///     BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet, VerdictSummary,
/// };
///
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::negative(Var::new(0)), Lit::positive(Var::new(1))]);
/// let set = DecompositionSet::new([Var::new(0), Var::new(2)]);
/// let cubes: Vec<Cube> = set.cubes().collect();
///
/// let mut oracle = CubeOracle::new(
///     &cnf,
///     BatchConfig {
///         cost: CostMetric::Propagations,
///         backend: BackendKind::Warm,
///         ..BatchConfig::default()
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
/// ```
pub struct CubeOracle {
    /// The formula and how to build a backend over it; shared with the pool
    /// slots, which respawn from it.
    spec: Arc<BackendSpec>,
    config: BatchConfig,
    pool: WorkerPool,
    total_stats: SolverStats,
    batches: u64,
    cubes_solved: u64,
}

impl std::fmt::Debug for CubeOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeOracle")
            .field("num_vars", &self.cnf().num_vars())
            .field("config", &self.config)
            .field("num_workers", &self.num_workers())
            .field("batches", &self.batches)
            .field("cubes_solved", &self.cubes_solved)
            .finish_non_exhaustive()
    }
}

impl CubeOracle {
    /// Creates an oracle over a copy of `cnf`, with a pool of one backend
    /// per worker. Nothing is built yet: each backend is built by the worker
    /// that first uses it, in the first batch wide enough to reach it.
    #[must_use]
    pub fn new(cnf: &Cnf, config: BatchConfig) -> CubeOracle {
        let mut workers = config.num_workers.max(1);
        if config.clamp_workers_to_cpus {
            let hardware = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            workers = workers.min(hardware);
        }
        let spec = Arc::new(BackendSpec::new(Arc::new(cnf.clone()), &config));
        // A non-empty fault plan is armed once per oracle; the workers share
        // its ordinal counters, so "panic on the nth solve" counts solves
        // across the whole pool.
        let faults = (!config.fault_plan.is_empty()).then(|| config.fault_plan.clone().arm());
        let pool = WorkerPool::new(&spec, workers, faults.as_ref());
        CubeOracle {
            spec,
            config,
            pool,
            total_stats: SolverStats::default(),
            batches: 0,
            cubes_solved: 0,
        }
    }

    /// The formula every sub-problem restricts.
    #[must_use]
    pub fn cnf(&self) -> &Cnf {
        &self.spec.cnf
    }

    /// The configuration applied to every batch.
    #[must_use]
    pub fn config(&self) -> &BatchConfig {
        &self.config
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
        let mut result = BatchResult::unsolved(cubes.len(), self.cnf().num_vars());

        let mut solved = 0;
        if !cubes.is_empty() {
            solved = self
                .pool
                .run_batch(cubes, &self.config, &interrupt, &mut result);
            // Last-resort fallback: every cube no worker solved — one that
            // killed two backends in a row, cubes stranded by a failed
            // respawn, positions nobody claimed because the last workers
            // died mid-batch — is re-solved on the calling thread with a
            // one-shot backend. Deliberately not fault-injected: if this
            // path panics too, the failure surfaces to the caller.
            if solved < cubes.len() {
                let resolved = solve_on_caller(
                    self.spec.build().as_mut(),
                    cubes,
                    &self.config,
                    &interrupt,
                    &mut result,
                );
                result.solver_stats.requeued_cubes += resolved as u64;
                solved += resolved;
            }
            // Each worker listed its own; the fallback's come last.
            result.models.sort_unstable_by_key(|&(index, _)| index);
            result.proofs.sort_unstable_by_key(|&(index, _)| index);
        }

        self.batches += 1;
        self.cubes_solved += solved as u64;
        self.total_stats.absorb(&result.solver_stats);
        result.wall_time = start.elapsed();
        result
    }
}

/// The last-resort fallback: solves, in turn on `backend`, every cube of the
/// batch whose position in `result` no worker filled, writes each cube's
/// cost and verdict at its position, adds the backend's statistics for the
/// run to `result`'s and returns how many cubes it solved.
fn solve_on_caller(
    backend: &mut dyn CubeBackend,
    cubes: &[Cube],
    config: &BatchConfig,
    interrupt: &InterruptFlag,
    result: &mut BatchResult,
) -> usize {
    backend.begin_batch();
    let mut solved = 0;
    for (index, cube) in cubes.iter().enumerate() {
        if result.verdicts[index].is_some() {
            continue;
        }
        let raw = backend.solve(cube.lits(), interrupt, &mut result.var_conflict_totals);
        result.costs[index] = config.cost.measure(raw.counters, raw.elapsed);
        let verdict = summarize(index, raw, &mut result.models, &mut result.proofs);
        result.verdicts[index] = Some(verdict);
        solved += 1;
    }
    result.solver_stats.absorb(&backend.end_batch());
    solved
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
    use crate::DecompositionSet;
    use pdsat_cnf::{Lit, Var};
    use rand::SeedableRng;

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

    fn batch(cnf: &Cnf, cubes: &[Cube], config: &BatchConfig) -> BatchResult {
        CubeOracle::new(cnf, config.clone()).solve_batch(cubes, None)
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
        let config = BatchConfig {
            cost: CostMetric::Propagations,
            ..BatchConfig::default()
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
        // The batch-level stats aggregate matches the per-cube cost sum for a
        // counter metric.
        let cost_sum: f64 = result.costs.iter().sum();
        assert_eq!(cost_sum, result.solver_stats.propagations as f64);
    }

    #[test]
    fn parallel_batch_matches_sequential_verdicts() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let seq_config = BatchConfig {
            cost: CostMetric::Conflicts,
            num_workers: 1,
            ..BatchConfig::default()
        };
        let par_config = BatchConfig {
            num_workers: 4,
            // Force a real pool even on single-core test machines.
            clamp_workers_to_cpus: false,
            ..seq_config.clone()
        };
        let seq = batch(&cnf, &cubes, &seq_config);
        let par = batch(&cnf, &cubes, &par_config);
        assert_eq!(seq.verdicts, par.verdicts);
        // Deterministic metric: identical costs regardless of scheduling.
        assert_eq!(seq.costs, par.costs);
        assert_eq!(seq.var_conflict_totals, par.var_conflict_totals);
        assert_eq!(seq.solver_stats.conflicts, par.solver_stats.conflicts);
        assert_eq!(seq.solver_stats.propagations, par.solver_stats.propagations);
    }

    #[test]
    fn unsat_formula_has_no_sat_cube() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new([Var::new(0), Var::new(5)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let result = batch(&cnf, &cubes, &BatchConfig::default());
        assert!(result.models.is_empty());
        let (sat, unsat, _) = result.verdict_counts();
        assert_eq!(sat, 0);
        assert_eq!(unsat, 4);
        assert!(result.var_conflict_totals.iter().any(|&c| c > 0));
    }

    #[test]
    fn empty_batch_returns_immediately_for_both_executors() {
        let cnf = Cnf::pigeonhole(4);
        // A one-slot pool, and 0 workers meaning one: a zero-slot pool would
        // panic on its first batch.
        for workers in [0usize, 1, 4] {
            let config = BatchConfig {
                num_workers: workers,
                clamp_workers_to_cpus: false,
                ..BatchConfig::default()
            };
            let mut oracle = CubeOracle::new(&cnf, config);
            assert_eq!(oracle.num_workers(), workers.max(1));
            let result = oracle.solve_batch(&[], None);
            assert!(result.costs.is_empty() && result.verdicts.is_empty());
            assert_eq!(result.var_conflict_totals, vec![0; cnf.num_vars()]);
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
        let config = BatchConfig {
            cost: CostMetric::Conflicts,
            num_workers: 8, // far more than cubes
            clamp_workers_to_cpus: false,
            ..BatchConfig::default()
        };
        let mut oracle = CubeOracle::new(&cnf, config);
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
            BatchConfig {
                num_workers: 64,
                ..BatchConfig::default()
            },
        );
        assert_eq!(clamped.num_workers(), 64.min(hardware).max(1));
        let forced = CubeOracle::new(
            &cnf,
            BatchConfig {
                num_workers: 3,
                clamp_workers_to_cpus: false,
                ..BatchConfig::default()
            },
        );
        assert_eq!(forced.num_workers(), 3);
    }

    #[test]
    fn models_are_collected_and_extend_cubes() {
        let cnf = sat_chain(5);
        let set = DecompositionSet::new([Var::new(2)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let result = batch(&cnf, &cubes, &BatchConfig::default());
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
        let fresh_config = BatchConfig {
            cost: CostMetric::Conflicts,
            ..BatchConfig::default()
        };
        let warm_config = BatchConfig {
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
        let config = BatchConfig {
            cost: CostMetric::Conflicts,
            num_workers: 3,
            clamp_workers_to_cpus: false,
            ..BatchConfig::default()
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
            BatchConfig {
                cost: CostMetric::Conflicts,
                backend: BackendKind::Warm,
                ..BatchConfig::default()
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
        let mut oracle = CubeOracle::new(&cnf, BatchConfig::default());
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
