//! The `CubeOracle`: the single entry point through which every sub-problem
//! of the reproduction is solved.
//!
//! Every quantity the paper measures — the predictive function `F(χ)`, the
//! annealing/tabu point traversal, solving mode — is a multiple of one unit
//! of work: *solve `C[X̃/α]` under the cube's assumptions*. PDSAT realizes
//! that unit as an MPI worker running a modified MiniSat; this module
//! realizes it as a backend selected by [`BackendKind`], driven by an
//! executor that owns a **pool of resident backends** ([`oracle/pool.rs`](pool)):
//! one backend per worker is built when the oracle is and lives as long as
//! it does — the analogue of a PDSAT worker's solver state — while the
//! worker *threads* are scoped to one batch each, so they read the caller's
//! cubes and write the result buffer in place. The executor applies per-cube
//! [`Budget`]s, fans an [`InterruptFlag`] out to every worker, merges
//! per-worker [`SolverStats`] and conflict-count accumulators once per
//! batch.
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
use pdsat_solver::{Budget, InterruptFlag, SolverConfig, SolverStats, Verdict};
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
    /// The sub-problem was not decided (budget exhausted or interrupted).
    Unknown,
}

/// Result of solving one cube of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeOutcome {
    /// Index of the cube in the submitted batch.
    pub index: usize,
    /// Measured cost under the configured [`CostMetric`].
    pub cost: f64,
    /// Verdict of the sub-problem.
    pub verdict: VerdictSummary,
    /// Number of conflicts spent on the sub-problem.
    pub conflicts: u64,
    /// A model of `C ∧ cube`, when the sub-problem was satisfiable and model
    /// collection was enabled.
    pub model: Option<Assignment>,
    /// DRAT certificate of an UNSAT verdict, checkable against the original
    /// formula with the cube's literals as root assumptions. Present exactly
    /// when [`SolverConfig::proof`] is enabled and the verdict is UNSAT.
    /// Skipped by the wire codec — certificates are checked at ingestion and
    /// stripped, never persisted.
    pub proof: Option<DratProof>,
}

impl CubeOutcome {
    /// The `index` of a placeholder; no batch has that many cubes.
    const UNSOLVED: usize = usize::MAX;

    /// What a pool batch's result buffer holds at a position until the
    /// cube's outcome is written there. Never reported.
    fn unsolved() -> CubeOutcome {
        CubeOutcome {
            index: CubeOutcome::UNSOLVED,
            cost: 0.0,
            verdict: VerdictSummary::Unknown,
            conflicts: 0,
            model: None,
            proof: None,
        }
    }
}

/// Result of processing a whole batch.
///
/// # The `stop_on_sat` contract
///
/// With [`BatchConfig::stop_on_sat`] set, `outcomes` contains **exactly the
/// cubes that were solved before the raised flag was observed**, sorted by
/// cube index — every solved cube is reported, none are silently dropped,
/// and `solver_stats` / `var_conflict_totals` cover precisely the reported
/// outcomes. Workers stop claiming new cubes as soon as they observe the
/// raised flag (the flag is re-checked before every cube), so unclaimed
/// cubes are simply never started. With one worker the reported outcomes
/// form a *prefix* of the batch; with a pool they are a subset whose exact
/// membership depends on scheduling, because each worker may complete the
/// cube it is holding when the flag goes up. Both paths honor the same
/// contract; only the prefix-ness is a single-worker refinement.
///
/// Without `stop_on_sat`, a raised external interrupt does *not* shrink
/// `outcomes`: every cube is still claimed and reported, with the ones the
/// interrupt cut short appearing as [`VerdictSummary::Unknown`] (the
/// equivalent of PDSAT's leader abandoning a point — the workers drain the
/// batch cheaply rather than abandoning it).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-cube outcomes, sorted by cube index (see the `stop_on_sat`
    /// contract above for which cubes appear).
    pub outcomes: Vec<CubeOutcome>,
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
    /// Costs in cube-index order, borrowed from the outcomes (no allocation).
    pub fn costs(&self) -> impl Iterator<Item = f64> + '_ {
        self.outcomes.iter().map(|o| o.cost)
    }

    /// First satisfiable outcome (lowest cube index), if any.
    #[must_use]
    pub fn first_sat(&self) -> Option<&CubeOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.verdict == VerdictSummary::Sat)
    }

    /// Counts of (sat, unsat, unknown) outcomes.
    #[must_use]
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for o in &self.outcomes {
            match o.verdict {
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
    /// Per-sub-problem resource budget.
    pub budget: Budget,
    /// Cost metric recorded per sub-problem.
    pub cost: CostMetric,
    /// Number of workers (values 0 and 1 both mean "run on the calling
    /// thread"; larger values build that many resident pool backends when
    /// the oracle is built, each driven by a thread of its own in every
    /// batch wide enough).
    pub num_workers: usize,
    /// Cap the pool at the machine's available parallelism (default `true`).
    /// A pool wider than the hardware cannot run faster — on an
    /// oversubscribed machine the surplus threads only add context-switch
    /// and dispatch overhead, which is exactly the "more workers, slower
    /// solving" failure mode this executor exists to prevent. When the cap
    /// brings the effective count to 1, no pool is spawned at all and
    /// batches run on the calling thread. Disable only to force an exact
    /// pool shape (scheduling tests, oversubscription experiments).
    pub clamp_workers_to_cpus: bool,
    /// Raise the shared interrupt flag as soon as one sub-problem is found
    /// satisfiable (used when only the answer, not the full family cost,
    /// matters). See the [`BatchResult`] docs for the exact contract.
    pub stop_on_sat: bool,
    /// Which backend each worker runs (see [`BackendKind`] for the
    /// fresh-vs-warm trade-off).
    pub backend: BackendKind,
    /// Deterministic fault injection for the worker pool (default: the empty
    /// plan, which injects nothing and costs nothing). A non-empty plan is
    /// armed when the oracle is built and wraps every pool backend — initial
    /// and respawned — so the plan's scheduled solve panics and respawn
    /// failures fire inside the workers, exercising the quarantine/respawn/
    /// requeue machinery. Chaos tests only; the sequential executor and the
    /// last-resort fallback are intentionally not injected (a panic there
    /// propagates to the caller).
    pub fault_plan: FaultPlan,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            solver_config: SolverConfig::default(),
            budget: Budget::unlimited(),
            cost: CostMetric::default(),
            num_workers: 1,
            clamp_workers_to_cpus: true,
            stop_on_sat: false,
            backend: BackendKind::Fresh,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// How an oracle executes batches: on the calling thread with one resident
/// backend, or on the worker pool.
enum Executor {
    /// `num_workers <= 1`: one backend owned by the oracle itself; batches
    /// run on the calling thread.
    Sequential(Box<dyn CubeBackend>),
    /// `num_workers > 1`: one resident backend per worker, threads per batch.
    Pool(WorkerPool),
}

/// The executor that owns the formula and the resident backends, and
/// processes batches of cubes through them.
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
/// use pdsat_core::{BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet};
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
/// assert_eq!(oracle.cubes_solved(), 4);
/// ```
pub struct CubeOracle {
    /// The formula and how to build a backend over it; shared with the pool
    /// slots, which respawn from it.
    spec: Arc<BackendSpec>,
    config: BatchConfig,
    exec: Executor,
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
    /// Creates an oracle over a copy of `cnf`, with one backend per worker
    /// (a pool's are built in the background and ready by their first
    /// batch).
    #[must_use]
    pub fn new(cnf: &Cnf, config: BatchConfig) -> CubeOracle {
        CubeOracle::from_arc(Arc::new(cnf.clone()), config)
    }

    /// Creates an oracle over an already-shared formula without copying it.
    #[must_use]
    pub fn from_arc(cnf: Arc<Cnf>, config: BatchConfig) -> CubeOracle {
        let effective_workers = if config.clamp_workers_to_cpus {
            let hardware = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            config.num_workers.min(hardware)
        } else {
            config.num_workers
        };
        let spec = Arc::new(BackendSpec::new(cnf, &config));
        let exec = if effective_workers <= 1 {
            Executor::Sequential(spec.build())
        } else {
            // A non-empty fault plan is armed once per oracle; the workers
            // share its ordinal counters, so "panic on the nth solve" counts
            // solves across the whole pool.
            let faults = (!config.fault_plan.is_empty()).then(|| config.fault_plan.clone().arm());
            Executor::Pool(WorkerPool::new(&spec, effective_workers, faults.as_ref()))
        };
        CubeOracle {
            spec,
            config,
            exec,
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

    /// Number of resident workers actually executing batches: the pool size,
    /// or 1 when batches run on the calling thread.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        match &self.exec {
            Executor::Sequential(_) => 1,
            Executor::Pool(pool) => pool.size(),
        }
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
    /// With `num_workers <= 1` the batch runs sequentially on the calling
    /// thread; otherwise it runs on `min(num_workers, cubes.len())` of the
    /// pool's backends — the first on the calling thread, the others on
    /// threads that last for the batch — so a batch smaller than the pool
    /// never involves the surplus workers. Either way the backends are the
    /// *same instances* across calls (warm state survives from batch to
    /// batch), the cubes are processed in the order given — each worker
    /// walks its stripe of the batch front to back — and the outcomes are
    /// returned in that order too, so `outcomes[i].index` is `i` for a
    /// batch solved in full. A caller that wants a warm solver
    /// to reuse assumption prefixes submits the cubes sorted (enumerated
    /// families already are; the [`Evaluator`](crate::Evaluator) sorts its
    /// samples). An empty batch returns immediately without touching the
    /// pool.
    ///
    /// The optional `external_interrupt` lets a caller abandon the whole
    /// batch — the equivalent of PDSAT's leader abandoning a search-space
    /// point. See the [`BatchResult`] docs for the `stop_on_sat` contract.
    #[must_use]
    pub fn solve_batch(
        &mut self,
        cubes: &[Cube],
        external_interrupt: Option<&InterruptFlag>,
    ) -> BatchResult {
        let start = Instant::now();
        let interrupt = external_interrupt.cloned().unwrap_or_default();
        let num_vars = self.cnf().num_vars();
        let mut outcomes: Vec<CubeOutcome> = Vec::new();
        let mut totals = vec![0u64; num_vars];
        let mut stats = SolverStats::default();

        if cubes.is_empty() {
            self.batches += 1;
            return BatchResult {
                outcomes,
                var_conflict_totals: totals,
                solver_stats: stats,
                wall_time: start.elapsed(),
            };
        }

        let config = &self.config;
        match &mut self.exec {
            Executor::Sequential(backend) => {
                outcomes.reserve_exact(cubes.len());
                // Solver statistics (trail-reuse counters included) are
                // merged once per batch, mirroring the pool path.
                stats = solve_on_caller(
                    backend.as_mut(),
                    cubes,
                    0..cubes.len(),
                    config,
                    &interrupt,
                    &mut totals,
                    |outcome| outcomes.push(outcome),
                );
            }
            Executor::Pool(pool) => {
                // One placeholder per cube; each worker overwrites the
                // places of the cubes it solves.
                outcomes = vec![CubeOutcome::unsolved(); cubes.len()];
                let mut solved = pool.run_batch(
                    cubes,
                    config,
                    &interrupt,
                    &mut outcomes,
                    &mut totals,
                    &mut stats,
                );
                // Last-resort fallback: every cube no worker solved — one
                // that killed two backends in a row, cubes stranded by a
                // failed respawn, positions nobody claimed because the last
                // workers died mid-batch — is re-solved sequentially on the
                // calling thread with a one-shot backend. Deliberately not
                // fault-injected: if this path panics too, the failure
                // surfaces to the caller. Under a raised `stop_on_sat` flag
                // incomplete outcomes are the contract, not a loss, and the
                // leftovers are never started.
                if solved < cubes.len() && !(config.stop_on_sat && interrupt.is_raised()) {
                    let owed: Vec<usize> = (0..cubes.len())
                        .filter(|&i| outcomes[i].index == CubeOutcome::UNSOLVED)
                        .collect();
                    let mut fallback = self.spec.build();
                    let mut resolved = 0;
                    stats.absorb(&solve_on_caller(
                        fallback.as_mut(),
                        cubes,
                        owed.into_iter(),
                        config,
                        &interrupt,
                        &mut totals,
                        |outcome| {
                            let place = outcome.index;
                            outcomes[place] = outcome;
                            resolved += 1;
                        },
                    ));
                    stats.requeued_cubes += resolved as u64;
                    solved += resolved;
                }
                // What is still a placeholder was never solved (the
                // `stop_on_sat` contract) and is not reported.
                if solved < cubes.len() {
                    outcomes.retain(|o| o.index != CubeOutcome::UNSOLVED);
                }
            }
        }

        debug_assert!(outcomes.is_sorted_by_key(|o| o.index));
        self.batches += 1;
        self.cubes_solved += outcomes.len() as u64;
        self.total_stats.absorb(&stats);
        BatchResult {
            outcomes,
            var_conflict_totals: totals,
            solver_stats: stats,
            wall_time: start.elapsed(),
        }
    }
}

/// One batch — or what is left of one — on the calling thread: solves
/// `cubes[index]` for each of `indices` in turn on `backend`, hands each
/// outcome to `place` and returns the backend's statistics for the run. With
/// `stop_on_sat` the first satisfiable cube raises `interrupt` and the rest
/// are never started. Shared by the sequential executor and the pool's
/// last-resort fallback.
fn solve_on_caller(
    backend: &mut dyn CubeBackend,
    cubes: &[Cube],
    indices: impl Iterator<Item = usize>,
    config: &BatchConfig,
    interrupt: &InterruptFlag,
    totals: &mut [u64],
    mut place: impl FnMut(CubeOutcome),
) -> SolverStats {
    backend.begin_batch();
    for index in indices {
        if config.stop_on_sat && interrupt.is_raised() {
            break;
        }
        let raw = backend.solve(cubes[index].lits(), &config.budget, interrupt, totals);
        let outcome = finish_outcome(index, raw, config.cost);
        if config.stop_on_sat && outcome.verdict == VerdictSummary::Sat {
            interrupt.raise();
        }
        place(outcome);
    }
    backend.end_batch()
}

/// Turns a backend's raw report into the executor-level outcome: measures the
/// cost and summarizes the verdict, keeping the model of a satisfiable cube.
fn finish_outcome(index: usize, raw: BackendOutcome, cost: CostMetric) -> CubeOutcome {
    let cost = cost.measure(raw.counters, raw.elapsed);
    let (summary, model) = match raw.verdict {
        Verdict::Sat(m) => (VerdictSummary::Sat, Some(m)),
        Verdict::Unsat => (VerdictSummary::Unsat, None),
        Verdict::Unknown(_) => (VerdictSummary::Unknown, None),
    };
    CubeOutcome {
        index,
        cost,
        verdict: summary,
        conflicts: raw.counters.conflicts,
        model,
        proof: raw.proof,
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
    fn sequential_batch_covers_all_cubes() {
        let cnf = sat_chain(6);
        let set = DecompositionSet::new([Var::new(0), Var::new(1)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let config = BatchConfig {
            cost: CostMetric::Propagations,
            ..BatchConfig::default()
        };
        let result = batch(&cnf, &cubes, &config);
        assert_eq!(result.outcomes.len(), 4);
        let (sat, unsat, unknown) = result.verdict_counts();
        // The implication chain x1→x2 makes exactly the cube (x1=1, x2=0)
        // unsatisfiable; the other three cubes extend to models.
        assert_eq!(sat, 3);
        assert_eq!(unsat, 1);
        assert_eq!(unknown, 0);
        assert!(result.first_sat().is_some());
        assert_eq!(result.costs().count(), 4);
        // Outcomes are in cube order.
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
        }
        // The batch-level stats aggregate matches the per-cube cost sum for a
        // counter metric.
        let cost_sum: f64 = result.costs().sum();
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
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.verdict, b.verdict);
            // Deterministic metric: identical costs regardless of scheduling.
            assert_eq!(a.cost, b.cost);
        }
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
        assert!(result.first_sat().is_none());
        let (sat, unsat, _) = result.verdict_counts();
        assert_eq!(sat, 0);
        assert_eq!(unsat, 4);
        assert!(result.var_conflict_totals.iter().any(|&c| c > 0));
    }

    #[test]
    fn stop_on_sat_raises_interrupt() {
        let cnf = sat_chain(4);
        let set = DecompositionSet::new([Var::new(0)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let config = BatchConfig {
            stop_on_sat: true,
            ..BatchConfig::default()
        };
        let flag = InterruptFlag::new();
        let result = CubeOracle::new(&cnf, config).solve_batch(&cubes, Some(&flag));
        assert!(flag.is_raised());
        assert!(!result.outcomes.is_empty());
        assert!(result.first_sat().is_some());
    }

    #[test]
    fn empty_batch_returns_immediately_for_both_executors() {
        let cnf = Cnf::pigeonhole(4);
        for workers in [1usize, 4] {
            let config = BatchConfig {
                num_workers: workers,
                clamp_workers_to_cpus: false,
                ..BatchConfig::default()
            };
            let mut oracle = CubeOracle::new(&cnf, config);
            let result = oracle.solve_batch(&[], None);
            assert!(result.outcomes.is_empty());
            assert_eq!(result.var_conflict_totals, vec![0; cnf.num_vars()]);
            assert_eq!(result.solver_stats.conflicts, 0);
            assert_eq!(oracle.batches(), 1);
            assert_eq!(oracle.cubes_solved(), 0);
            // The oracle is still usable afterwards.
            let set = DecompositionSet::new([Var::new(0)]);
            let cubes: Vec<Cube> = set.cubes().collect();
            let again = oracle.solve_batch(&cubes, None);
            assert_eq!(again.outcomes.len(), 2);
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
            // outcomes.
            let result = oracle.solve_batch(&cubes, None);
            assert_eq!(result.outcomes.len(), 2);
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
        for outcome in &result.outcomes {
            let model = outcome.model.as_ref().expect("models are collected");
            assert!(cnf.is_satisfied_by(model));
            let cube = &cubes[outcome.index];
            for &l in cube.lits() {
                assert_eq!(model.lit_value(l).to_bool(), Some(true));
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_as_unknown() {
        let cnf = Cnf::pigeonhole(7);
        let set = DecompositionSet::new([Var::new(0)]);
        let cubes: Vec<Cube> = set.cubes().collect();
        let config = BatchConfig {
            budget: Budget::unlimited().with_conflict_limit(1),
            ..BatchConfig::default()
        };
        let result = batch(&cnf, &cubes, &config);
        let (_, _, unknown) = result.verdict_counts();
        assert_eq!(unknown, 2);
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
        for (a, b) in fresh.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(
                a.verdict, b.verdict,
                "verdicts must agree for cube {}",
                a.index
            );
        }
        // Learnt clauses carried across cubes make the warm run cheaper in
        // total (or at worst equal).
        let fresh_total: f64 = fresh.costs().sum();
        let warm_total: f64 = warm.costs().sum();
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
        assert!(a.costs().eq(b.costs()));
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
