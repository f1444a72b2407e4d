//! The whole paper pipeline on weakened A5/1: estimate and search for a
//! decomposition set on the first instance of a series, then solve every
//! instance's family over that set with a warm solver and deploy it through
//! the validating coordinator: proof-logging unit solvers, every upload
//! model- and certificate-checked, two forgeries thrown out.

use super::estimate::{SearchParams, SearchStage};
use super::grid::{
    deploy, model_check_us, proof_on_over_off, unit_solver, CertificateCosts, Deployment,
    GridParams, GridTotals,
};
use super::{
    build_series, check_family_report, count_encoding, encode_costs, solve_config, stream_seed,
    Facts, PerRep, Weakening, Workload, STREAM_CLIENTS,
};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use pdsat_ciphers::{Instance, StreamCipher};
use pdsat_cnf::Cube;
use pdsat_core::{BackendKind, FamilySolver, SearchOutcome, SolveReport};

pub struct Pipeline<C> {
    pub cipher: C,
    pub weakening: Weakening,
    pub search: SearchParams,
    /// Instances solved over the set the search finds (the search runs on
    /// the first).
    pub instances: usize,
    pub grid: GridParams,
    pub secrets_seed: u64,
    pub search_seed: u64,
    pub clients_seed: u64,
}

pub struct Member {
    instance: Instance,
    warm: FamilySolver,
    unit_solver: FamilySolver,
    /// Filled by the timed section.
    cubes: usize,
    direct: Option<SolveReport>,
    deployment: Option<Deployment>,
}

pub struct PipelineRun {
    stage: SearchStage,
    members: Vec<Member>,
    outcome: Option<SearchOutcome>,
    search_cubes: u64,
}

impl<C: StreamCipher + Copy> Workload for Pipeline<C> {
    type Ready = PipelineRun;
    type Done = PipelineRun;

    fn setup(&self, tracer: &Tracer) -> PipelineRun {
        let series = build_series(
            self.cipher,
            self.weakening,
            self.instances,
            self.secrets_seed,
            tracer,
        );
        let stage = SearchStage::new(&series[0], self.search, self.search_seed, tracer);
        let members = series
            .into_iter()
            .map(|instance| {
                let _span = tracer.enter("oracle.spawn");
                let warm =
                    FamilySolver::new(instance.cnf(), &solve_config(BackendKind::Warm, 1, false));
                let unit_solver = unit_solver(instance.cnf());
                Member {
                    instance,
                    warm,
                    unit_solver,
                    cubes: 0,
                    direct: None,
                    deployment: None,
                }
            })
            .collect();
        PipelineRun {
            stage,
            members,
            outcome: None,
            search_cubes: 0,
        }
    }

    fn timed(&self, mut run: PipelineRun, tracer: &Tracer) -> PipelineRun {
        let outcome = run.stage.run(tracer);
        run.search_cubes = run.stage.evaluator.cubes_solved();
        let set = &outcome.best_set;
        for (i, member) in run.members.iter_mut().enumerate() {
            let cubes: Vec<Cube> = {
                let _span = tracer.enter("encode.enumerate");
                set.cubes().collect()
            };
            member.cubes = cubes.len();
            {
                let _span = tracer.enter("solve_mode.solve_cubes");
                let report = member.warm.solve_cubes(set, &cubes, None);
                tracer.reported("oracle.batch", report.wall_time);
                member.direct = Some(report);
            }
            member.deployment = Some(deploy(
                member.instance.cnf(),
                set,
                &cubes,
                &mut member.unit_solver,
                self.grid,
                stream_seed(self.clients_seed, STREAM_CLIENTS + 16 * i as u64),
                tracer,
            ));
        }
        run.outcome = Some(outcome);
        run
    }

    fn verify(&self, run: &mut PipelineRun, checks: &mut Checks) -> Facts {
        let mut facts = Facts::default();
        let outcome = run.outcome.as_ref().expect("the timed section ran");
        let mut totals = GridTotals::default();
        facts.count_oracles(
            std::iter::once(run.stage.evaluator.oracle())
                .chain(run.members.iter().map(|m| m.warm.oracle()))
                .chain(run.members.iter().map(|m| m.unit_solver.oracle())),
        );
        facts.count(
            "oracle.workers",
            run.members[0].warm.oracle().num_workers() as u64,
        );
        count_encoding(&mut facts, run.members.iter().map(|m| &m.instance));
        run.stage.verify(
            &self.cipher,
            &run.members[0].instance,
            self.search,
            outcome,
            checks,
            &mut facts,
        );
        for (i, member) in run.members.iter().enumerate() {
            let what = format!("instance {i}");
            let direct = member.direct.as_ref().expect("the timed section ran");
            let deployment = member.deployment.as_ref().expect("the timed section ran");
            check_family_report(
                &self.cipher,
                &member.instance,
                &outcome.best_set,
                direct,
                &what,
                checks,
            );
            deployment.check(direct, &what, checks);
            if let Some(aggregate) = &deployment.aggregate {
                check_family_report(
                    &self.cipher,
                    &member.instance,
                    &outcome.best_set,
                    aggregate,
                    &format!("{what} aggregate"),
                    checks,
                );
            }
            facts.cubes += (member.cubes * (1 + self.grid.redundancy)) as u64;
            totals.add(deployment, self.grid);
        }
        totals.count(&mut facts);
        facts
    }

    fn layer_costs(&self, run: &mut PipelineRun, spans: &PerRep<'_>, layers: &mut Layers) {
        let outcome = run.outcome.as_ref().expect("the timed section ran");
        let cubes: usize = run.members.iter().map(|m| m.cubes).sum();
        encode_costs(spans, cubes as u64, layers);
        let mut totals = GridTotals::default();
        for deployment in run.members.iter().filter_map(|m| m.deployment.as_ref()) {
            totals.add(deployment, self.grid);
        }
        totals.costs(spans, layers);
        let family_s = spans.seconds("solve_mode.solve_cubes");
        layers.set("solve_mode.family_s", family_s);

        // Quality guards, exact: the prediction for the best set against the
        // measured cost of the first instance's family on the same (fresh)
        // backend, which is what the coordinator's aggregate sums.
        let first = &run.members[0];
        let aggregate = first.deployment.as_ref().and_then(|d| d.aggregate.as_ref());
        if let Some(aggregate) = aggregate {
            let estimate = run
                .stage
                .evaluator
                .evaluate_memoized(&outcome.best_set)
                .estimate;
            layers.set(
                "predict.f_over_actual",
                ratio(estimate.value, aggregate.total_cost),
            );
            let covers = (estimate.value - aggregate.total_cost).abs()
                <= estimate.confidence_half_width(0.95);
            layers.set("predict.ci_covers_actual", f64::from(u8::from(covers)));
            layers.set(
                "checker.model_check_us",
                model_check_us(&first.instance, &outcome.best_set, aggregate),
            );
        }
        let set = &outcome.best_set;
        let cubes: Vec<Cube> = set.cubes().collect();
        let mut certificates = CertificateCosts::default();
        for member in &mut run.members {
            certificates.add_family(member.instance.cnf(), set, &cubes, &mut member.unit_solver);
        }
        certificates.set(layers);
        layers.set(
            "solver.proof_on_over_off",
            proof_on_over_off(run.members[0].instance.cnf(), set, &cubes),
        );
        run.stage.layer_costs(
            &run.members[0].instance,
            outcome,
            run.search_cubes,
            spans,
            layers,
        );
    }
}
