//! Solving mode: a series of instances, each family processed whole by one
//! warm [`FamilySolver`]. Two workloads share this code and differ only in
//! their inputs: conflict-bound A5/1 families (`solve-hard-a51`) and
//! UP-trivial Grain families over the full start set (`solve-easy-grain`).

use super::{
    build_series, check_family_report, count_encoding, encode_costs, enumerate, pool_workers,
    solve_config, timed_s, Facts, PerRep, Weakening, Workload,
};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use pdsat_ciphers::{Instance, StreamCipher};
use pdsat_cnf::Cube;
use pdsat_core::{BackendKind, DecompositionSet, FamilySolver, SolveReport};
use pdsat_solver::{Budget, Solver, SolverConfig, SolverStats};

pub struct SolveFamilies<C> {
    pub cipher: C,
    pub weakening: Weakening,
    /// Size of the decomposition set (a prefix of the unknown state
    /// variables); `None` takes all of them.
    pub set_vars: Option<usize>,
    pub instances: usize,
    /// Workers of the timed section's oracles (see `pool_workers`).
    pub workers: usize,
    /// The per-layer metric the two-worker speed-up is reported under.
    pub speedup_metric: &'static str,
    pub secrets_seed: u64,
}

pub struct Family {
    instance: Instance,
    set: DecompositionSet,
    cubes: Vec<Cube>,
    solver: FamilySolver,
    /// Filled by the timed section.
    report: Option<SolveReport>,
}

impl<C: StreamCipher + Copy> Workload for SolveFamilies<C> {
    type Ready = Vec<Family>;
    type Done = Vec<Family>;

    fn setup(&self, tracer: &Tracer) -> Vec<Family> {
        let series = build_series(
            self.cipher,
            self.weakening,
            self.instances,
            self.secrets_seed,
            tracer,
        );
        series
            .into_iter()
            .map(|instance| {
                let (set, cubes) = enumerate(&instance, self.set_vars, tracer);
                let _span = tracer.enter("oracle.spawn");
                let solver = FamilySolver::new(
                    instance.cnf(),
                    &solve_config(BackendKind::Warm, self.workers, false),
                );
                Family {
                    instance,
                    set,
                    cubes,
                    solver,
                    report: None,
                }
            })
            .collect()
    }

    fn timed(&self, mut families: Vec<Family>, tracer: &Tracer) -> Vec<Family> {
        for family in &mut families {
            let _span = tracer.enter("solve_mode.solve_cubes");
            let report = family.solver.solve_cubes(&family.set, &family.cubes, None);
            tracer.reported("oracle.batch", report.wall_time);
            family.report = Some(report);
        }
        families
    }

    fn verify(&self, families: &mut Vec<Family>, checks: &mut Checks) -> Facts {
        let mut facts = Facts::default();
        for (i, family) in families.iter().enumerate() {
            let report = family.report.as_ref().expect("the timed section ran");
            check_family_report(
                &self.cipher,
                &family.instance,
                &family.set,
                report,
                &format!("family {i}"),
                checks,
            );
            facts.cubes += report.cubes_processed as u64;
        }
        facts.count_oracles(families.iter().map(|f| f.solver.oracle()));
        facts.count(
            "oracle.workers",
            families
                .first()
                .map_or(0, |f| f.solver.oracle().num_workers() as u64),
        );
        count_encoding(&mut facts, families.iter().map(|f| &f.instance));
        facts
    }

    fn layer_costs(&self, families: &mut Vec<Family>, spans: &PerRep<'_>, layers: &mut Layers) {
        let cubes: f64 = families.iter().map(|f| f.cubes.len() as f64).sum();
        encode_costs(spans, cubes as u64, layers);
        let traced_s = spans.seconds("oracle.batch");
        let family_s = spans.seconds("solve_mode.solve_cubes");
        layers.set("solve_mode.family_s", family_s);
        layers.set(
            "solve_mode.report_ns_per_cube",
            ratio((family_s - traced_s) * 1e9, cubes),
        );

        // Differential passes over the same cubes in the same order: the
        // bare solver on one thread, then the oracle with the other worker
        // count than the traced repetitions above ran with.
        let other_workers = if self.workers == 1 { pool_workers() } else { 1 };
        let mut bare_s = 0.0;
        let mut from_cnf_s = 0.0;
        let mut bare = SolverStats::default();
        let mut other_s = 0.0;
        for family in families.iter() {
            let config = SolverConfig {
                time_accounting: false,
                ..SolverConfig::default()
            };
            let (mut solver, built_s) =
                timed_s(|| Solver::from_cnf_with_config(family.instance.cnf(), config));
            from_cnf_s += built_s;
            let ((), solved_s) = timed_s(|| {
                for cube in &family.cubes {
                    let verdict = solver.solve_limited(cube.lits(), &Budget::unlimited(), None);
                    std::hint::black_box(verdict);
                }
            });
            bare_s += solved_s;
            bare.absorb(solver.stats());

            let mut other = FamilySolver::new(
                family.instance.cnf(),
                &solve_config(BackendKind::Warm, other_workers, false),
            );
            other_s += other
                .solve_cubes(&family.set, &family.cubes, None)
                .wall_time
                .as_secs_f64();
        }
        let (seq_s, pool_s) = if self.workers == 1 {
            (traced_s, other_s)
        } else {
            (other_s, traced_s)
        };
        layers.set(
            "solver.from_cnf_us",
            ratio(from_cnf_s * 1e6, families.len() as f64),
        );
        layers.set(
            "solver.ns_per_propagation",
            ratio(bare_s * 1e9, bare.propagations as f64),
        );
        layers.set(
            "solver.us_per_conflict",
            ratio(bare_s * 1e6, bare.conflicts as f64),
        );
        layers.set(
            "oracle.seq_overhead_ns_per_cube",
            ratio((seq_s - bare_s) * 1e9, cubes),
        );
        layers.set("oracle.bare_solver_share", ratio(bare_s, seq_s));
        // With the pool clamped to one worker there is no two-worker figure:
        // the speed-up stays 0 ("skipped"), never a tie.
        if pool_workers() >= 2 {
            layers.set(
                "oracle.pool_overhead_ns_per_cube",
                ratio((pool_s - seq_s) * 1e9, cubes),
            );
            layers.set(self.speedup_metric, ratio(seq_s, pool_s));
        }
    }
}
