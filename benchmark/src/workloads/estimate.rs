//! Estimation mode: a tabu search for a decomposition set, every point
//! evaluated by Monte Carlo over a fresh solver per cube. `estimate-bivium`
//! is this stage alone on an instance whose cubes unit propagation decides;
//! `pipeline-a51` runs the same stage first.

use super::{
    build_series, count_encoding, encode_costs, stream_seed, timed_s, Facts, PerRep, Weakening,
    Workload, STREAM_SAMPLING, STREAM_SEARCH,
};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use pdsat_checker::check_model;
use pdsat_ciphers::{Instance, StreamCipher};
use pdsat_cnf::Cube;
use pdsat_core::{
    BackendKind, CostMetric, DriverConfig, Evaluator, EvaluatorConfig, SearchDriver, SearchLimits,
    SearchOutcome, SearchSpace, Tabu, TabuConfig,
};
use pdsat_solver::{Solver, SolverConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// Monte Carlo sample size `N` per point.
    pub sample_size: usize,
    /// Points the tabu search may evaluate.
    pub points: usize,
    /// The search space is the first this-many unknown state variables
    /// (`None`: all of them), which bounds every family at `2^space_vars`.
    pub space_vars: Option<usize>,
}

/// Everything the search needs, built in set-up.
pub struct SearchStage {
    space: SearchSpace,
    pub evaluator: Evaluator,
    driver: SearchDriver,
    tabu: Tabu,
}

impl SearchStage {
    pub fn new(instance: &Instance, params: SearchParams, seed: u64, tracer: &Tracer) -> Self {
        let unknown = instance.unknown_state_vars();
        let take = params.space_vars.unwrap_or(unknown.len());
        let space = SearchSpace::new(unknown.into_iter().take(take));
        let _span = tracer.enter("oracle.spawn");
        let evaluator = Evaluator::new(
            instance.cnf(),
            EvaluatorConfig {
                sample_size: params.sample_size,
                cost: CostMetric::Propagations,
                num_workers: 1,
                seed: stream_seed(seed, STREAM_SAMPLING),
                backend: BackendKind::Fresh,
                ..EvaluatorConfig::default()
            },
        );
        let driver = SearchDriver::new(DriverConfig {
            limits: SearchLimits::unlimited().with_max_points(params.points),
            seed: stream_seed(seed, STREAM_SEARCH),
            ..DriverConfig::default()
        });
        SearchStage {
            space,
            evaluator,
            driver,
            tabu: Tabu::new(&TabuConfig::default()),
        }
    }

    /// The search itself, from the full point. The oracle time inside it is
    /// what the evaluator reports of its own batches.
    pub fn run(&mut self, tracer: &Tracer) -> SearchOutcome {
        let _span = tracer.enter("driver.run");
        let before = self.evaluator.total_solve_wall();
        let outcome = self.driver.run(
            &self.space,
            &self.space.full_point(),
            &mut self.tabu,
            &mut self.evaluator,
        );
        tracer.reported("oracle.batches", self.evaluator.total_solve_wall() - before);
        outcome
    }

    /// Checks and counters of a finished search. Call before anything else
    /// touches the evaluator: the counters are the search's alone.
    pub fn verify<C: StreamCipher>(
        &mut self,
        cipher: &C,
        instance: &Instance,
        params: SearchParams,
        outcome: &SearchOutcome,
        checks: &mut Checks,
        facts: &mut Facts,
    ) {
        let evaluations = self.evaluator.evaluations();
        let cubes = self.evaluator.cubes_solved();
        checks.check_eq(
            "search evaluates exactly its point budget",
            outcome.points_evaluated,
            params.points,
        );
        checks.check_eq(
            "every evaluated point solved a full sample",
            cubes,
            evaluations * params.sample_size as u64,
        );
        checks.check(
            "best predictive value is finite and positive",
            outcome.best_value.is_finite() && outcome.best_value > 0.0,
        );
        facts.cubes += cubes;
        facts.count("predict.evaluations", evaluations);
        facts.count("predict.cubes_per_point", params.sample_size as u64);
        facts.count("predict.cache_hits", self.evaluator.cache_hits());
        facts.count("driver.points_evaluated", outcome.points_evaluated as u64);

        // The cube of the best set that agrees with the secret must come
        // back satisfiable, with a model that regenerates the keystream.
        let set = &outcome.best_set;
        let state = instance.state_vars();
        let values: Vec<bool> = set
            .vars()
            .iter()
            .map(|v| {
                let bit = state.iter().position(|s| s == v).expect("a state variable");
                instance.secret_state()[bit]
            })
            .collect();
        let cube = Cube::from_values(set.vars(), &values);
        let evaluation =
            self.evaluator
                .evaluate_with_sample(set, std::slice::from_ref(&cube), None);
        let recovered = evaluation.model.as_ref().is_some_and(|model| {
            check_model(instance.cnf(), cube.lits(), model).is_ok()
                && instance.verifies(cipher, &instance.state_from_model(model))
        });
        checks.check(
            "the secret's cube of the best set is satisfiable and its model verifies",
            evaluation.verdicts.sat == 1 && recovered,
        );
    }

    /// `driver.*`, `predict.*` and the fresh-backend figures of the oracle.
    pub fn layer_costs(
        &mut self,
        instance: &Instance,
        outcome: &SearchOutcome,
        search_cubes: u64,
        spans: &PerRep<'_>,
        layers: &mut Layers,
    ) {
        let search_s = spans.seconds("driver.run");
        let oracle_s = spans.seconds("oracle.batches");
        layers.set("driver.search_s", search_s);
        layers.set(
            "driver.points_per_s",
            ratio(outcome.points_evaluated as f64, search_s),
        );
        layers.set("driver.self_share", ratio(search_s - oracle_s, search_s));
        let fresh_us = ratio(oracle_s * 1e6, search_cubes as f64);
        layers.set("oracle.fresh_us_per_cube", fresh_us);

        // Differential passes: what building (and dropping) one solver costs
        // without solving anything, and one point evaluated from outside.
        const BUILDS: usize = 64;
        let config = SolverConfig {
            time_accounting: false,
            ..SolverConfig::default()
        };
        let ((), builds_s) = timed_s(|| {
            for _ in 0..BUILDS {
                std::hint::black_box(Solver::from_cnf_with_config(instance.cnf(), config.clone()));
            }
        });
        let from_cnf_us = builds_s * 1e6 / BUILDS as f64;
        layers.set("solver.from_cnf_us", from_cnf_us);
        layers.set("oracle.fresh_build_share", ratio(from_cnf_us, fresh_us));
        const POINTS: usize = 8;
        let ((), points_s) = timed_s(|| {
            for _ in 0..POINTS {
                std::hint::black_box(self.evaluator.evaluate(&outcome.best_set));
            }
        });
        layers.set("predict.ms_per_point", points_s * 1e3 / POINTS as f64);
    }
}

pub struct EstimateFamily<C> {
    pub cipher: C,
    pub weakening: Weakening,
    pub search: SearchParams,
    pub secrets_seed: u64,
    pub search_seed: u64,
}

pub struct Estimation {
    instance: Instance,
    stage: SearchStage,
    outcome: Option<SearchOutcome>,
    search_cubes: u64,
}

impl<C: StreamCipher + Copy> Workload for EstimateFamily<C> {
    type Ready = Estimation;
    type Done = Estimation;

    fn setup(&self, tracer: &Tracer) -> Estimation {
        let instance = build_series(self.cipher, self.weakening, 1, self.secrets_seed, tracer)
            .pop()
            .expect("a series of one");
        let stage = SearchStage::new(&instance, self.search, self.search_seed, tracer);
        Estimation {
            instance,
            stage,
            outcome: None,
            search_cubes: 0,
        }
    }

    fn timed(&self, mut ready: Estimation, tracer: &Tracer) -> Estimation {
        ready.outcome = Some(ready.stage.run(tracer));
        ready.search_cubes = ready.stage.evaluator.cubes_solved();
        ready
    }

    fn verify(&self, done: &mut Estimation, checks: &mut Checks) -> Facts {
        let mut facts = Facts::default();
        let outcome = done.outcome.as_ref().expect("the timed section ran");
        facts.count_oracles([done.stage.evaluator.oracle()]);
        facts.count(
            "oracle.workers",
            done.stage.evaluator.oracle().num_workers() as u64,
        );
        count_encoding(&mut facts, [&done.instance]);
        done.stage.verify(
            &self.cipher,
            &done.instance,
            self.search,
            outcome,
            checks,
            &mut facts,
        );
        facts
    }

    fn layer_costs(&self, done: &mut Estimation, spans: &PerRep<'_>, layers: &mut Layers) {
        encode_costs(spans, 0, layers);
        let outcome = done.outcome.as_ref().expect("the timed section ran");
        done.stage
            .layer_costs(&done.instance, outcome, done.search_cubes, spans, layers);
    }
}
