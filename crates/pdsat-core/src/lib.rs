//! Monte Carlo estimation of SAT partitioning effectiveness and metaheuristic
//! search for good decomposition sets.
//!
//! This crate implements the contribution of Semenov & Zaikin, *"Using Monte
//! Carlo Method for Searching Partitionings of Hard Variants of Boolean
//! Satisfiability Problem"* (PaCT 2015) — the algorithms behind their PDSAT
//! tool:
//!
//! 1. **Partitionings.** A [`DecompositionSet`] `X̃` of `d` variables splits a
//!    SAT instance `C` into the decomposition family `Δ_C(X̃)` of `2^d`
//!    sub-problems (one per cube over `X̃`).
//! 2. **Predictive function.** The total sequential time to process the
//!    family is `t_{C,A}(X̃) = 2^d · E[ξ]`, where `ξ` is the solver time on a
//!    uniformly random cube. The [`Evaluator`] estimates it by the Monte
//!    Carlo method — the predictive function `F(χ)` of eq. (5) — with CLT
//!    confidence intervals ([`PredictiveEstimate`], [`SampleStats`]).
//! 3. **Minimization.** A unified [`SearchDriver`] minimizes `F` over points
//!    of a [`SearchSpace`] — normally `2^{X̃_start}` where `X̃_start` is the
//!    Strong UP-backdoor set of state variables — by driving an exchangeable
//!    [`Strategy`]: [`Annealing`] (Algorithm 1) or [`Tabu`] (Algorithm 2).
//!    Each step evaluates one point; its sample is one oracle batch, so the
//!    worker pool parallelizes across the point's sub-problems.
//! 4. **Solving mode.** [`FamilySolver`] processes the whole family of the
//!    best set found into a [`SolveReport`]; its per-cube costs are what
//!    `pdsat_distrib::simulate_cluster` extrapolates to a cluster.
//!
//! All solve paths — the [`Evaluator`], [`FamilySolver`] and ad-hoc batches —
//! route through one [`CubeOracle`]:
//! an executor owning a **pool of resident backends** (the stand-in for the
//! solver state inside PDSAT's long-lived MPI computing processes): one
//! backend per worker for the oracle's lifetime, however many workers there
//! are, driven by the calling thread and threads scoped to each batch that
//! read the caller's cubes and write the results in place, with interrupt
//! fan-out and per-worker stats/conflict-count accumulation merged once per
//! batch. The unit of work
//! it schedules is one of two backends:
//! [`BackendKind::Fresh`] restores a solver per cube
//! (order-independent observations, what the Monte Carlo argument assumes),
//! while [`BackendKind::Warm`] keeps one incremental solver per worker whose
//! learnt clauses and VSIDS state carry over across every batch the oracle
//! processes.
//!
//! # Quick start
//!
//! ```
//! use pdsat_cnf::{Cnf, Cube, Var};
//! use pdsat_core::{
//!     BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet, DriverConfig,
//!     Evaluator, EvaluatorConfig, SearchDriver, SearchLimits, SearchSpace, Tabu, TabuConfig,
//! };
//!
//! // A toy unsatisfiable formula (pigeonhole 4→3).
//! let cnf = Cnf::pigeonhole(4);
//!
//! // Solve one decomposition family directly through the oracle, with a warm
//! // (persistent incremental) solver per worker.
//! let family = DecompositionSet::new((0..4).map(Var::new));
//! let cubes: Vec<Cube> = family.cubes().collect();
//! let mut oracle = CubeOracle::new(
//!     &cnf,
//!     BatchConfig {
//!         cost: CostMetric::Conflicts,
//!         backend: BackendKind::Warm,
//!         ..BatchConfig::default()
//!     },
//! );
//! let batch = oracle.solve_batch(&cubes, None);
//! assert_eq!(batch.verdict_counts(), (0, 16, 0)); // all 2^4 cubes UNSAT
//! // Results are columns by batch position: one cost and one verdict per cube.
//! assert_eq!(batch.costs.iter().sum::<f64>(), batch.solver_stats.conflicts as f64);
//!
//! // Search for a good decomposition set over the first 6 variables: one
//! // driver, an exchangeable strategy, an evaluator that solves each point's
//! // sample through the oracle and memoizes revisited points.
//! let space = SearchSpace::new((0..6).map(Var::new));
//! let mut evaluator = Evaluator::new(
//!     &cnf,
//!     EvaluatorConfig { sample_size: 8, cost: CostMetric::Conflicts, ..EvaluatorConfig::default() },
//! );
//! let driver = SearchDriver::new(DriverConfig {
//!     limits: SearchLimits::unlimited().with_max_points(15),
//!     ..DriverConfig::default()
//! });
//! let mut tabu = Tabu::new(&TabuConfig::default());
//! let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut evaluator);
//! assert!(outcome.best_value.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod cost;
mod decomposition;
mod driver;
mod estimator;
#[doc(hidden)]
pub mod fault;
mod oracle;
mod predict;
mod search;
mod solve_mode;
mod space;
mod tabu;

pub use anneal::{Annealing, AnnealingConfig};
pub use cost::{CostMetric, CubeCounters};
pub use decomposition::{CubeIter, DecompositionSet};
pub use driver::{
    DriverConfig, Evaluated, Observation, Proposal, SearchContext, SearchDriver, Strategy,
};
pub use estimator::{normal_quantile, student_t_quantile, PredictiveEstimate, SampleStats};
#[doc(hidden)]
pub use fault::FaultPlan;
pub use oracle::{
    BackendKind, BatchConfig, BatchResult, CubeOracle, OracleTestPolicy, VerdictSummary,
};
pub use predict::{Evaluator, EvaluatorConfig, PointEvaluation, SampleVerdicts};
pub use search::{SearchLimits, SearchOutcome, SearchStep, StopCondition};
pub use solve_mode::{CubeCertificate, FamilyCounters, FamilySolver, SolveModeConfig, SolveReport};
pub use space::{Point, SearchSpace};
pub use tabu::{NewCenterHeuristic, Tabu, TabuConfig};
