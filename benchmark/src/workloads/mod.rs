//! The workloads and what they share: the repetition protocol, the
//! seeded input generators and the output checks common to every family.
//!
//! A workload composes the paper pipeline from outside, through public
//! functions of the crates only. One *repetition* is set-up (untimed, its
//! duration is `setup_s`), the timed section, then verification of what the
//! timed section produced (untimed). Every repetition of a run builds its
//! state from scratch from the same seed, so repetitions do identical work
//! and no warm state leaks from one into the next.

pub mod estimate;
pub mod grid;
pub mod grid_proof;
pub mod grid_synthetic;
pub mod pipeline;
pub mod solve;

use crate::checks::Checks;
use crate::metrics::Layers;
use crate::trace::{Profile, Tracer};
use pdsat_checker::check_model;
use pdsat_ciphers::{Instance, InstanceBuilder, StreamCipher};
use pdsat_cnf::Cube;
use pdsat_core::{
    BackendKind, CostMetric, CubeOracle, DecompositionSet, SolveModeConfig, SolveReport,
};
use pdsat_solver::{SolverConfig, SolverStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Name and reason of every workload of the contract (`BENCHMARK.json`), in
/// the order the suite runs them. Four, because the contract gives all of
/// the driver's runs 3,420 s and a run shorter than 30 s does not outlast
/// the reference box's slow minutes.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pipeline-a51",
        "whole paper pipeline on weakened A5/1: estimate, tabu search, solve the family, deploy it with every upload proof- or model-checked; what a user waits for",
    ),
    (
        "solve-hard-a51",
        "solving mode, conflict-bound families: time is propagate/analyze/reduce in the solver; dispatch and pool are noise",
    ),
    (
        "solve-easy-grain",
        "solving mode, dispatch-bound families: trail reuse makes solving free, so dispatch, enumeration and report building are the cost",
    ),
    (
        "grid-synthetic",
        "coordinator only: lease scan, expiry, quorum bookkeeping and whole-text checkpoint saves with zero solving",
    ),
];

/// Workloads outside the contract, run by name (`--workload`, `--only`):
/// each is one stage of `pipeline-a51` alone, for telling which stage moved.
/// `estimate-bivium` is the estimation stage where unit propagation decides
/// every cube (solver construction and nothing else); `grid-proof-a51` is
/// the validated deployment of one family (checker and nothing else).
pub const DIAGNOSTIC: &[&str] = &["estimate-bivium", "grid-proof-a51"];

/// Every workload `--workload` accepts.
pub fn known(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name) || DIAGNOSTIC.contains(&name)
}

/// What one repetition decided, for `cubes_per_s` and the determinism check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Facts {
    /// Sub-problems decided in the timed section, all stages, replicas
    /// included.
    pub cubes: u64,
    /// Counters that must repeat exactly across repetitions of one input,
    /// keyed by per-layer metric name.
    pub counters: Vec<(&'static str, u64)>,
}

impl Facts {
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// The solver counters every solving workload reports.
    pub fn count_solver(&mut self, stats: &SolverStats) {
        self.count("solver.propagations", stats.propagations);
        self.count("solver.conflicts", stats.conflicts);
        self.count("solver.decisions", stats.decisions);
        self.count("solver.restarts", stats.restarts);
        self.count("solver.learnt_clauses", stats.learnt_clauses);
        self.count("solver.removed_clauses", stats.removed_clauses);
        self.count("solver.reused_assumptions", stats.reused_assumptions);
        self.count("solver.saved_propagations", stats.saved_propagations);
        self.count("oracle.worker_panics", stats.worker_panics);
        self.count("oracle.requeued_cubes", stats.requeued_cubes);
    }

    /// Batches and cubes of the oracles a repetition drove, summed.
    pub fn count_oracles<'a>(&mut self, oracles: impl IntoIterator<Item = &'a CubeOracle>) {
        let mut stats = SolverStats::default();
        let (mut batches, mut cubes) = (0, 0);
        for oracle in oracles {
            stats.absorb(oracle.total_stats());
            batches += oracle.batches();
            cubes += oracle.cubes_solved();
        }
        self.count_solver(&stats);
        self.count("oracle.batches", batches);
        self.count("oracle.cubes_solved", cubes);
    }
}

/// One workload: inputs generated from a seed, a timed section, and the
/// checks and per-layer figures that go with it.
pub trait Workload {
    /// Everything set-up builds and the timed section consumes.
    type Ready;
    /// What the timed section leaves behind, for the untimed checks.
    type Done;

    /// Encodes instances, enumerates cubes, builds evaluators, solvers and
    /// coordinators.
    fn setup(&self, tracer: &Tracer) -> Self::Ready;

    /// The timed section.
    fn timed(&self, ready: Self::Ready, tracer: &Tracer) -> Self::Done;

    /// Checks every output of the timed section and reports what it decided.
    fn verify(&self, done: &mut Self::Done, checks: &mut Checks) -> Facts;

    /// Traced run only: fills the time-derived per-layer metrics, from the
    /// spans (`per_rep` divides a total over all traced repetitions) and
    /// from differential passes run here, outside any repetition.
    fn layer_costs(&self, done: &mut Self::Done, spans: &PerRep<'_>, layers: &mut Layers);
}

/// The spans of the traced repetitions, seen per repetition.
pub struct PerRep<'a> {
    pub profile: &'a Profile,
    pub repetitions: u32,
}

impl PerRep<'_> {
    /// Mean seconds per repetition under spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.profile.seconds(name) / f64::from(self.repetitions.max(1))
    }

    /// Mean self seconds per repetition of all spans of `layer`.
    pub fn self_seconds(&self, layer: &str) -> f64 {
        self.profile.share(layer) * self.profile.root_s / f64::from(self.repetitions.max(1))
    }
}

/// Worker threads of a pooled oracle: two, or one on a one-CPU machine
/// (where the oracle would clamp to one anyway).
///
/// Only `solve-easy-grain`, whose subject is the pool's dispatch, runs its
/// timed section on the pool. Everywhere else the end-to-end numbers come
/// from one worker and the two-worker figure is a differential pass of the
/// traced run: on the reference box the two virtual CPUs are at times
/// hyperthread siblings, and two busy workers then swing between 1.4 and
/// 1.9 times one worker's speed from one minute to the next, which no
/// bound on an end-to-end metric survives.
pub fn pool_workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// An independent random stream per purpose, all derived from the run's
/// seed: instance secrets, sampling, search and the client population never
/// share a generator, so resizing one does not shift the others.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, purpose))
}

pub fn stream_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

pub const STREAM_SECRETS: u64 = 1;
pub const STREAM_SAMPLING: u64 = 2;
pub const STREAM_SEARCH: u64 = 3;
pub const STREAM_CLIENTS: u64 = 4;
pub const STREAM_COSTS: u64 = 5;

/// A weakened cipher family: keystream length and how many trailing state
/// bits are revealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weakening {
    pub keystream_len: usize,
    pub known_bits: usize,
}

/// A series of instances with the same parameters and different secrets.
///
/// How long a conflict-bound A5/1 family takes depends on the secret by a
/// factor of three and more, and which set a search settles on depends on
/// its samples by as much; no series short enough to solve in a second
/// averages that out. The A5/1 workloads therefore take `secrets_seed` (and
/// the search seed) from a frozen constant, and the run's seed draws only
/// their client populations. Where unit propagation decides every cube
/// neither moves the work, and the run's seed draws everything.
pub fn build_series<C: StreamCipher + Copy>(
    cipher: C,
    weakening: Weakening,
    count: usize,
    secrets_seed: u64,
    tracer: &Tracer,
) -> Vec<Instance> {
    let _span = tracer.enter("encode.build");
    InstanceBuilder::new(cipher)
        .keystream_len(weakening.keystream_len)
        .known_suffix_of_second_register(weakening.known_bits)
        .build_series(count, &mut stream(secrets_seed, STREAM_SECRETS))
}

/// The decomposition set over the first `vars` unknown state variables
/// (all of them for `None`) and its cubes in enumeration order.
pub fn enumerate(
    instance: &Instance,
    vars: Option<usize>,
    tracer: &Tracer,
) -> (DecompositionSet, Vec<Cube>) {
    let unknown = instance.unknown_state_vars();
    let take = vars.unwrap_or(unknown.len());
    let set = DecompositionSet::new(unknown.into_iter().take(take));
    let _span = tracer.enter("encode.enumerate");
    let cubes = set.cubes().collect();
    (set, cubes)
}

/// Solving-mode configuration used throughout: propagation counts as the
/// cost, so every counter is reproducible.
pub fn solve_config(backend: BackendKind, num_workers: usize, proof: bool) -> SolveModeConfig {
    SolveModeConfig {
        solver_config: SolverConfig {
            proof,
            ..SolverConfig::default()
        },
        cost: CostMetric::Propagations,
        num_workers,
        backend,
        ..SolveModeConfig::default()
    }
}

/// Checks a whole-family report of a cryptanalysis instance: every cube
/// decided, the secret's cube found satisfiable, the kept model satisfies
/// formula and cube, and the state read from it regenerates the keystream.
pub fn check_family_report<C: StreamCipher>(
    cipher: &C,
    instance: &Instance,
    set: &DecompositionSet,
    report: &SolveReport,
    what: &str,
    checks: &mut Checks,
) {
    checks.check_eq(
        &format!("{what}: every cube decided"),
        (report.cubes_processed as u128, report.unknown_count),
        (set.cube_count().unwrap_or(0), 0),
    );
    checks.check(
        &format!("{what}: the secret's cube is satisfiable"),
        report.sat_count >= 1,
    );
    let model_ok = match (&report.model, report.first_sat_index) {
        (Some(model), Some(index)) => {
            let cube = set.cube_from_index(index as u64);
            check_model(instance.cnf(), cube.lits(), model).is_ok()
                && instance.verifies(cipher, &instance.state_from_model(model))
        }
        _ => false,
    };
    checks.check(
        &format!("{what}: model passes check_model and regenerates the keystream"),
        model_ok,
    );
}

/// Sum of `encode.vars` / `encode.clauses` over a series.
pub fn count_encoding<'a>(facts: &mut Facts, instances: impl IntoIterator<Item = &'a Instance>) {
    let (mut vars, mut clauses) = (0, 0);
    for instance in instances {
        vars += instance.cnf().num_vars() as u64;
        clauses += instance.cnf().num_clauses() as u64;
    }
    facts.count("encode.vars", vars);
    facts.count("encode.clauses", clauses);
}

/// Fills the `encode.*` timings from the set-up spans.
pub fn encode_costs(spans: &PerRep<'_>, cubes_enumerated: u64, layers: &mut Layers) {
    layers.set("encode.build_ms", spans.seconds("encode.build") * 1e3);
    layers.set(
        "encode.enumerate_ns_per_cube",
        crate::metrics::ratio(
            spans.seconds("encode.enumerate") * 1e9,
            cubes_enumerated as f64,
        ),
    );
}

/// Wall seconds of `f`.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}
