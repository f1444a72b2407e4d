//! The "solving mode" of PDSAT: process an entire decomposition family.
//!
//! After the predictive function minimization has produced `X̃_best`, PDSAT
//! is re-run in solving mode: all `2^{|X̃_best|}` assignments are generated
//! and the corresponding sub-problems are solved (on the cluster, or in
//! SAT@home). The paper's Table 3 reports, per weakened instance, the time to
//! process the whole family and the time at which the satisfying assignment
//! was encountered.

use crate::oracle::{BackendKind, BatchConfig, CubeOracle, VerdictSummary};
use crate::{BatchResult, CostMetric, DecompositionSet};
use pdsat_cnf::{Assignment, Cnf, Cube, DratProof};
use pdsat_solver::{Budget, InterruptFlag, SolverConfig, SolverStats};
use std::time::Duration;

/// Configuration of a solving-mode run.
#[derive(Debug, Clone)]
pub struct SolveModeConfig {
    /// Solver configuration used for every sub-problem.
    pub solver_config: SolverConfig,
    /// Per-sub-problem budget (unlimited by default).
    pub budget: Budget,
    /// Cost metric accumulated per sub-problem.
    pub cost: CostMetric,
    /// Number of worker threads.
    pub num_workers: usize,
    /// Stop as soon as a satisfying assignment is found. The paper processes
    /// whole families ("to get more statistical data we did not stop the
    /// solving process after the satisfying solution was found"), which is
    /// the default here as well.
    pub stop_on_sat: bool,
    /// Which backend each worker runs.
    /// [`BackendKind::Warm`] by default: one persistent incremental solver
    /// per worker matches PDSAT's long-lived MiniSat worker processes and is
    /// much faster than reloading the clause database for every cube.
    pub backend: BackendKind,
}

impl Default for SolveModeConfig {
    fn default() -> Self {
        SolveModeConfig {
            solver_config: SolverConfig::default(),
            budget: Budget::unlimited(),
            cost: CostMetric::default(),
            num_workers: 1,
            stop_on_sat: false,
            backend: BackendKind::Warm,
        }
    }
}

/// Declares [`FamilyCounters`] from one ordered list: the fields, the
/// conversion from [`SolverStats`], the sum and the ordered views are all
/// generated from it. The list order is the order of the counters in the v1
/// coordinator checkpoint's unit line, so it only ever grows at the end, and
/// a counter whose source is gone stays in its place as `name: reserved` — a
/// slot that still loads, sums and re-serialises but that no run fills.
macro_rules! family_counters {
    (@from $stats:ident.$field:ident) => { $stats.$field };
    (@from $stats:ident.$field:ident reserved) => { 0 };
    ($($(#[$doc:meta])* $field:ident $(: $reserved:ident)?,)*) => {
        /// The counters a family carries from the solvers that processed it
        /// to the report, the checkpoint and the result tables, each summed
        /// over the family's cubes.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FamilyCounters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl FamilyCounters {
            /// The counters' names, in [`values`](FamilyCounters::values)
            /// order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field),)*];

            /// The counters' values, in declaration order.
            #[must_use]
            pub fn values(&self) -> [u64; FamilyCounters::NAMES.len()] {
                [$(self.$field,)*]
            }

            /// Mutable access to every counter, in declaration order.
            pub fn values_mut(&mut self) -> [&mut u64; FamilyCounters::NAMES.len()] {
                [$(&mut self.$field,)*]
            }
        }

        impl From<&SolverStats> for FamilyCounters {
            fn from(stats: &SolverStats) -> FamilyCounters {
                FamilyCounters {
                    $($field: family_counters!(@from stats.$field $($reserved)?),)*
                }
            }
        }

        impl std::ops::AddAssign for FamilyCounters {
            fn add_assign(&mut self, other: FamilyCounters) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

family_counters! {
    /// Assumption literals reused from one cube to the next by the warm
    /// backend's trail reuse. Zero for the fresh backend.
    reused_assumptions,
    /// Assumption/propagation replays skipped by trail reuse.
    saved_propagations,
    /// Field 9 of the v1 checkpoint's unit line: learnt clauses the pool
    /// workers offered each other, while they still exchanged any.
    exported_clauses: reserved,
    /// Field 10: the clauses a worker took from the others.
    imported_clauses: reserved,
    /// Field 11: the offered clauses no worker took.
    import_dropped: reserved,
    /// Pool worker backends that panicked mid-cube and were quarantined and
    /// respawned. Zero on every fault-free run.
    worker_panics,
    /// Cubes re-solved after a backend panic — on the respawned worker or on
    /// the oracle's sequential fallback.
    requeued_cubes,
}

/// A DRAT certificate for one unsatisfiable cube of a family, attached to
/// the [`SolveReport`] when [`SolverConfig::proof`] is enabled.
///
/// The proof is checkable against the **original** formula with the cube's
/// literals seeded as root assumptions (the solver's proof stream starts at
/// the input clauses).
#[derive(Debug, Clone, PartialEq)]
pub struct CubeCertificate {
    /// Index of the cube in family enumeration order (re-based to the whole
    /// family by [`SolveReport::merge_ordered`]).
    pub cube_index: usize,
    /// The DRAT derivation ending in the empty clause.
    pub proof: DratProof,
}

/// Result of processing a decomposition family in solving mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Size `d` of the decomposition set.
    pub set_size: usize,
    /// Number of sub-problems actually processed (equals `2^d` unless
    /// `stop_on_sat` cut the run short).
    pub cubes_processed: usize,
    /// Total sequential cost: the sum of per-sub-problem costs, i.e. the
    /// quantity `t_{C,A}(X̃)` that the predictive function estimates.
    pub total_cost: f64,
    /// Cumulative cost up to and including the first satisfiable sub-problem
    /// (in enumeration order), when one exists — the "Finding SAT" column of
    /// Table 3, measured on one core.
    pub cost_to_first_sat: Option<f64>,
    /// Index of the first satisfiable cube, if any.
    pub first_sat_index: Option<usize>,
    /// Number of satisfiable sub-problems found.
    pub sat_count: usize,
    /// Number of undecided sub-problems (per-cube budget exhausted).
    pub unknown_count: usize,
    /// Wall-clock time of the run with the configured number of workers.
    pub wall_time: Duration,
    /// The oracle's family counters, summed over the family.
    pub counters: FamilyCounters,
    /// A model of the original formula extracted from the first satisfiable
    /// sub-problem, if any.
    pub model: Option<Assignment>,
    /// Per-cube costs in enumeration order (useful for makespan simulation).
    pub per_cube_costs: Vec<f64>,
    /// DRAT certificates of the UNSAT cubes (empty unless
    /// [`SolverConfig::proof`] was enabled). Like the model, certificates do
    /// not travel over the wire codec: the coordinator checks them at
    /// ingestion and strips them before checkpointing.
    pub certificates: Vec<CubeCertificate>,
}

impl SolveReport {
    /// A report over zero cubes (the identity element of
    /// [`merge_ordered`](SolveReport::merge_ordered)).
    #[must_use]
    pub fn empty(set_size: usize) -> SolveReport {
        SolveReport {
            set_size,
            cubes_processed: 0,
            total_cost: 0.0,
            cost_to_first_sat: None,
            first_sat_index: None,
            sat_count: 0,
            unknown_count: 0,
            wall_time: Duration::ZERO,
            counters: FamilyCounters::default(),
            model: None,
            per_cube_costs: Vec::new(),
            certificates: Vec::new(),
        }
    }

    /// Merges per-work-unit reports over **contiguous, consecutive** slices
    /// of one decomposition family (in enumeration order, no gaps, no
    /// overlaps) into the report of the whole family.
    ///
    /// This is the aggregation primitive of the distributed coordinator: a
    /// family is sharded into work units, each unit's cubes are solved
    /// remotely into a per-unit `SolveReport`, and the coordinator merges the
    /// units back in enumeration order. Indices are re-based (a unit's
    /// `first_sat_index` is local to its slice), `cost_to_first_sat` becomes
    /// the sequential cost up to the first satisfiable cube of the *family*,
    /// and the model of the earliest satisfiable unit is kept. Callers are
    /// responsible for passing each unit **exactly once** — deduplication of
    /// duplicate/late results is the coordinator's job (keyed on work-unit
    /// id), not the merge's.
    #[must_use]
    pub fn merge_ordered<'a, I>(set_size: usize, units: I) -> SolveReport
    where
        I: IntoIterator<Item = &'a SolveReport>,
    {
        let mut merged = SolveReport::empty(set_size);
        for unit in units {
            if merged.first_sat_index.is_none() {
                if let Some(local) = unit.first_sat_index {
                    merged.first_sat_index = Some(merged.cubes_processed + local);
                    merged.cost_to_first_sat =
                        unit.cost_to_first_sat.map(|cost| merged.total_cost + cost);
                    merged.model = unit.model.clone();
                }
            }
            // Certificate indices are local to the unit's slice; re-base them
            // before the unit's cube count is added.
            merged
                .certificates
                .extend(unit.certificates.iter().map(|c| CubeCertificate {
                    cube_index: merged.cubes_processed + c.cube_index,
                    proof: c.proof.clone(),
                }));
            merged.cubes_processed += unit.cubes_processed;
            merged.total_cost += unit.total_cost;
            merged.sat_count += unit.sat_count;
            merged.unknown_count += unit.unknown_count;
            merged.wall_time += unit.wall_time;
            merged.counters += unit.counters;
            merged
                .per_cube_costs
                .extend_from_slice(&unit.per_cube_costs);
        }
        merged
    }
}

/// A long-lived solving-mode runner: one [`CubeOracle`] — and therefore one
/// pool of resident backends — reused across every family (or family slice)
/// it processes.
///
/// Construction starts backend construction (clause-DB loading; a pool's
/// finishes in the background), so callers that process several families of
/// the same formula — the Table 3 instance series, the benchmark, SAT@home
/// simulations — hold one `FamilySolver` across them, exactly like PDSAT
/// keeps its MiniSat worker processes alive between search-space points.
#[derive(Debug)]
pub struct FamilySolver {
    oracle: CubeOracle,
}

impl FamilySolver {
    /// Creates the runner, spawning the worker pool and building one backend
    /// per worker up front.
    #[must_use]
    pub fn new(cnf: &Cnf, config: &SolveModeConfig) -> FamilySolver {
        let batch_config = BatchConfig {
            solver_config: config.solver_config.clone(),
            budget: config.budget.clone(),
            cost: config.cost,
            num_workers: config.num_workers,
            stop_on_sat: config.stop_on_sat,
            backend: config.backend,
            ..BatchConfig::default()
        };
        FamilySolver {
            oracle: CubeOracle::new(cnf, batch_config),
        }
    }

    /// The oracle (for aggregate statistics across the families processed).
    #[must_use]
    pub fn oracle(&self) -> &CubeOracle {
        &self.oracle
    }

    /// Processes the full decomposition family `Δ_C(X̃)` induced by `set`.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 63 variables (a family of that size
    /// cannot be enumerated; that regime is precisely what the Monte Carlo
    /// estimator is for).
    pub fn solve_family(
        &mut self,
        set: &DecompositionSet,
        interrupt: Option<&InterruptFlag>,
    ) -> SolveReport {
        let cubes: Vec<Cube> = set.cubes().collect();
        self.solve_cubes(set, &cubes, interrupt)
    }

    /// Processes an explicit list of cubes (a slice of a family, or a family
    /// filtered by external knowledge).
    pub fn solve_cubes(
        &mut self,
        set: &DecompositionSet,
        cubes: &[Cube],
        interrupt: Option<&InterruptFlag>,
    ) -> SolveReport {
        report_from_batch(set, self.oracle.solve_batch(cubes, interrupt))
    }
}

/// Folds a [`BatchResult`] into the solving-mode report in one pass over its
/// columns: the cost column *becomes* `per_cube_costs` (compacted only when a
/// raised `stop_on_sat` left unsolved positions in it), and the proofs and
/// the first model are moved out, never cloned.
fn report_from_batch(set: &DecompositionSet, batch: BatchResult) -> SolveReport {
    let mut per_cube_costs = batch.costs;
    let mut total_cost = 0.0;
    let mut cost_to_first_sat = None;
    let mut first_sat_index = None;
    let mut sat_count = 0;
    let mut unknown_count = 0;
    let mut cubes_processed = 0;
    for (index, (&cost, verdict)) in per_cube_costs.iter().zip(&batch.verdicts).enumerate() {
        let Some(verdict) = verdict else { continue };
        cubes_processed += 1;
        total_cost += cost;
        match verdict {
            VerdictSummary::Sat => {
                sat_count += 1;
                if first_sat_index.is_none() {
                    first_sat_index = Some(index);
                    cost_to_first_sat = Some(total_cost);
                }
            }
            VerdictSummary::Unknown => unknown_count += 1,
            VerdictSummary::Unsat => {}
        }
    }
    if cubes_processed < per_cube_costs.len() {
        let mut solved = batch.verdicts.iter().map(Option::is_some);
        per_cube_costs.retain(|_| solved.next() == Some(true));
    }

    SolveReport {
        set_size: set.len(),
        cubes_processed,
        total_cost,
        cost_to_first_sat,
        first_sat_index,
        sat_count,
        unknown_count,
        wall_time: batch.wall_time,
        counters: FamilyCounters::from(&batch.solver_stats),
        // Models are listed by ascending position: the first is the first
        // satisfiable cube's.
        model: batch.models.into_iter().next().map(|(_, model)| model),
        per_cube_costs,
        certificates: batch
            .proofs
            .into_iter()
            .map(|(cube_index, proof)| CubeCertificate { cube_index, proof })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::{Lit, Var};

    fn config() -> SolveModeConfig {
        SolveModeConfig {
            cost: CostMetric::Conflicts,
            ..SolveModeConfig::default()
        }
    }

    #[test]
    fn unsat_family_is_fully_processed() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..5).map(Var::new));
        let report = FamilySolver::new(&cnf, &config()).solve_family(&set, None);
        assert_eq!(report.cubes_processed, 32);
        assert_eq!(report.sat_count, 0);
        assert!(report.cost_to_first_sat.is_none());
        assert!(report.model.is_none());
        assert_eq!(report.per_cube_costs.len(), 32);
        assert!((report.total_cost - report.per_cube_costs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn sat_family_reports_first_sat_and_model() {
        // Chain formula with every cube satisfiable.
        let mut cnf = Cnf::new(6);
        for i in 0..5u32 {
            cnf.add_clause([Lit::negative(Var::new(i)), Lit::positive(Var::new(i + 1))]);
        }
        let set = DecompositionSet::new([Var::new(0), Var::new(2)]);
        let report = FamilySolver::new(&cnf, &config()).solve_family(&set, None);
        assert_eq!(report.cubes_processed, 4);
        // The chain makes the cube (x1=1, x3=0) unsatisfiable.
        assert_eq!(report.sat_count, 3);
        assert_eq!(report.first_sat_index, Some(0));
        assert!(report.cost_to_first_sat.unwrap() <= report.total_cost);
        let model = report.model.expect("model extracted");
        assert!(cnf.is_satisfied_by(&model));
    }

    #[test]
    fn solving_the_family_agrees_with_direct_solving() {
        // If the original instance is UNSAT, every cube is UNSAT; if SAT, at
        // least one cube is SAT. Check both on small formulas.
        let unsat = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let report = FamilySolver::new(&unsat, &config()).solve_family(&set, None);
        assert_eq!(report.sat_count, 0);

        let mut sat = Cnf::new(4);
        sat.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(3))]);
        let report = FamilySolver::new(&sat, &config()).solve_family(&set, None);
        assert!(report.sat_count > 0);
    }

    #[test]
    fn parallel_solving_mode_matches_sequential_totals() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let solve = |backend, num_workers| {
            let config = SolveModeConfig {
                backend,
                num_workers,
                ..config()
            };
            FamilySolver::new(&cnf, &config).solve_family(&set, None)
        };
        // The fresh backend's per-cube costs are order-independent, so the
        // totals are an invariant of the worker count.
        let seq = solve(crate::BackendKind::Fresh, 1);
        let par = solve(crate::BackendKind::Fresh, 4);
        assert_eq!(seq.cubes_processed, par.cubes_processed);
        assert_eq!(seq.total_cost, par.total_cost);
        assert_eq!(seq.per_cube_costs, par.per_cube_costs);
        // Warm per-cube conflict counts depend on which worker learnt what;
        // only the verdicts are comparable.
        let warm_seq = solve(crate::BackendKind::Warm, 1);
        let warm_par = solve(crate::BackendKind::Warm, 4);
        assert_eq!(warm_seq.cubes_processed, warm_par.cubes_processed);
        assert_eq!(warm_seq.sat_count, warm_par.sat_count);
        assert_eq!(warm_seq.unknown_count, warm_par.unknown_count);
    }

    #[test]
    fn merged_work_unit_reports_match_the_whole_family() {
        // Chain formula: one cube UNSAT, the rest SAT (first SAT at index 0).
        let mut cnf = Cnf::new(6);
        for i in 0..5u32 {
            cnf.add_clause([Lit::negative(Var::new(i)), Lit::positive(Var::new(i + 1))]);
        }
        let set = DecompositionSet::new([Var::new(0), Var::new(2), Var::new(4)]);
        let cubes: Vec<pdsat_cnf::Cube> = set.cubes().collect();
        // The fresh backend's observations are order- and grouping-
        // independent, so per-unit solves are comparable with the monolithic
        // run (the same property the coordinator's replica validation needs).
        let config = SolveModeConfig {
            backend: crate::BackendKind::Fresh,
            ..config()
        };
        let whole = FamilySolver::new(&cnf, &config).solve_family(&set, None);
        let mut solver = FamilySolver::new(&cnf, &config);
        let unit_reports: Vec<SolveReport> = cubes
            .chunks(3) // uneven final chunk on purpose (8 = 3 + 3 + 2)
            .map(|chunk| solver.solve_cubes(&set, chunk, None))
            .collect();
        let merged = SolveReport::merge_ordered(set.len(), &unit_reports);
        assert_eq!(merged.set_size, whole.set_size);
        assert_eq!(merged.cubes_processed, whole.cubes_processed);
        assert_eq!(merged.per_cube_costs, whole.per_cube_costs);
        assert!((merged.total_cost - whole.total_cost).abs() < 1e-9);
        assert_eq!(merged.first_sat_index, whole.first_sat_index);
        assert_eq!(merged.sat_count, whole.sat_count);
        assert_eq!(merged.unknown_count, whole.unknown_count);
        assert!(
            (merged.cost_to_first_sat.unwrap() - whole.cost_to_first_sat.unwrap()).abs() < 1e-9
        );
        let model = merged.model.expect("model kept from the first SAT unit");
        assert!(cnf.is_satisfied_by(&model));
        // Merging nothing gives the identity.
        let nothing = SolveReport::merge_ordered(set.len(), []);
        assert_eq!(nothing.cubes_processed, 0);
        assert_eq!(nothing.total_cost, 0.0);
    }

    #[test]
    fn merge_rebases_first_sat_onto_later_units() {
        let mut unsat_unit = SolveReport::empty(2);
        unsat_unit.cubes_processed = 2;
        unsat_unit.total_cost = 3.0;
        unsat_unit.per_cube_costs = vec![1.0, 2.0];
        let mut sat_unit = SolveReport::empty(2);
        sat_unit.cubes_processed = 2;
        sat_unit.total_cost = 5.0;
        sat_unit.per_cube_costs = vec![4.0, 1.0];
        sat_unit.first_sat_index = Some(1);
        sat_unit.cost_to_first_sat = Some(5.0);
        sat_unit.sat_count = 1;
        let merged = SolveReport::merge_ordered(2, [&unsat_unit, &sat_unit]);
        assert_eq!(merged.first_sat_index, Some(3));
        assert!((merged.cost_to_first_sat.unwrap() - 8.0).abs() < 1e-12);
        assert_eq!(merged.sat_count, 1);
        assert_eq!(merged.cubes_processed, 4);
        assert_eq!(merged.per_cube_costs, vec![1.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn the_cost_column_is_moved_into_the_report_and_compacted_only_around_holes() {
        // One satisfiable cube in the middle of a family decided by unit
        // propagation.
        let vars: Vec<Var> = (0..6).map(Var::new).collect();
        let target = 0b01_1010usize;
        let mut cnf = Cnf::new(7);
        for lit in Cube::from_bits(&vars, target as u64).lits() {
            cnf.add_clause([*lit]);
        }
        let set = DecompositionSet::new(vars);
        let cubes: Vec<Cube> = set.cubes().collect();
        for (workers, stop_on_sat) in [(1, false), (4, false), (1, true), (4, true)] {
            let context = format!("workers={workers} stop_on_sat={stop_on_sat}");
            let config = BatchConfig {
                cost: CostMetric::Propagations,
                num_workers: workers,
                clamp_workers_to_cpus: false,
                stop_on_sat,
                ..BatchConfig::default()
            };
            let batch = CubeOracle::new(&cnf, config).solve_batch(&cubes, None);
            assert_eq!(batch.verdicts.len(), cubes.len(), "{context}");
            let solved: Vec<usize> = (0..cubes.len())
                .filter(|&i| batch.verdicts[i].is_some())
                .collect();
            let solved_costs: Vec<f64> = solved.iter().map(|&i| batch.costs[i]).collect();
            let column = batch.costs.as_ptr();

            let report = report_from_batch(&set, batch);
            assert_eq!(report.cubes_processed, solved.len(), "{context}");
            assert_eq!(report.per_cube_costs, solved_costs, "{context}");
            // A position of the submitted batch, not of the compacted costs.
            assert_eq!(report.first_sat_index, Some(target), "{context}");
            assert_eq!(report.sat_count, 1, "{context}");
            assert!(cnf.is_satisfied_by(report.model.as_ref().expect("the model")));
            if !stop_on_sat {
                assert_eq!(solved.len(), cubes.len(), "{context}");
                assert_eq!(report.per_cube_costs.as_ptr(), column, "{context}: copied");
            }
            if stop_on_sat && workers == 1 {
                // The sequential executor stops right after the target.
                assert_eq!(solved, (0..=target).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn stop_on_sat_processes_fewer_cubes() {
        let mut cnf = Cnf::new(8);
        cnf.add_clause([Lit::positive(Var::new(7))]);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let full = FamilySolver::new(&cnf, &config()).solve_family(&set, None);
        let early = FamilySolver::new(
            &cnf,
            &SolveModeConfig {
                stop_on_sat: true,
                ..config()
            },
        )
        .solve_family(&set, None);
        assert_eq!(full.cubes_processed, 16);
        assert!(early.cubes_processed <= full.cubes_processed);
        assert!(early.sat_count >= 1);
    }
}
