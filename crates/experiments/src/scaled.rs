//! Scaled-down versions of the paper's cryptanalysis workloads.
//!
//! The paper's experiments need cluster-days (A5/1: 64 cores × 1 day just for
//! the estimation; Table 3: 480 cores × hours). The reproduction keeps every
//! code path — encoding, Monte Carlo estimation, metaheuristic search,
//! solving mode, cluster/grid extrapolation — but weakens the instances (part
//! of the state is revealed, keystream fragments are shorter, samples are
//! smaller) so each experiment finishes on a laptop. DESIGN.md's "Benchmark ↔
//! paper mapping" says which of the paper's measurements each one stands for.

use pdsat_ciphers::{Bivium, Grain, Instance, InstanceBuilder, StreamCipher, A51};
use pdsat_cnf::{Cnf, Var};
use pdsat_core::{
    BackendKind, CostMetric, DecompositionSet, DriverConfig, Evaluator, EvaluatorConfig,
    FamilySolver, SearchDriver, SearchLimits, SearchOutcome, SearchSpace, SolveModeConfig,
    Strategy, Tabu, TabuConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker threads of every evaluator and family solver (the oracle caps them
/// at the machine's parallelism). No printed value depends on it: every
/// experiment runs the fresh backend and measures propagations.
const NUM_WORKERS: usize = 4;

/// Which generator a scaled experiment attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherKind {
    /// The A5/1 generator (64-bit state).
    A51,
    /// The Bivium generator (177-bit state).
    Bivium,
    /// The Grain v1 generator (160-bit state).
    Grain,
}

/// Evaluates `$body` with `$cipher` bound to the generator `$kind` names: the
/// one place a [`CipherKind`] is turned into a [`StreamCipher`].
macro_rules! with_cipher {
    ($kind:expr, |$cipher:ident| $body:expr) => {
        match $kind {
            CipherKind::A51 => {
                let $cipher = A51::new();
                $body
            }
            CipherKind::Bivium => {
                let $cipher = Bivium::new();
                $body
            }
            CipherKind::Grain => {
                let $cipher = Grain::new();
                $body
            }
        }
    };
}

impl CipherKind {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CipherKind::A51 => "A5/1",
            CipherKind::Bivium => "Bivium",
            CipherKind::Grain => "Grain",
        }
    }

    /// Register layout of the cipher (name, length), in state order.
    #[must_use]
    pub fn register_layout(self) -> Vec<(String, usize)> {
        with_cipher!(self, |cipher| cipher.register_layout())
    }

    /// Total state length of the cipher.
    #[must_use]
    pub fn state_len(self) -> usize {
        with_cipher!(self, |cipher| cipher.state_len())
    }
}

/// Parameters of one scaled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledWorkload {
    /// Which cipher is attacked.
    pub cipher: CipherKind,
    /// Observed keystream length (paper: 114 / 200 / 160).
    pub keystream_len: usize,
    /// Number of state bits revealed (the weakening); the remaining
    /// `state_len - known_suffix` bits are the unknowns of the instance.
    pub known_suffix: usize,
    /// Monte Carlo sample size `N` (paper: 10⁴–10⁵).
    pub sample_size: usize,
    /// Maximum number of points evaluated by a metaheuristic run (the paper
    /// bounds wall time instead: 1 day on 64–160 cores).
    pub search_points: usize,
    /// Base seed for instance generation, sampling and search.
    pub seed: u64,
}

impl ScaledWorkload {
    /// The scaled analogue of the paper's A5/1 workload (§4.1): 114-bit
    /// keystream in the paper, shortened here; 64-bit state with most bits
    /// revealed so that a family can be processed in seconds.
    #[must_use]
    pub fn a51() -> ScaledWorkload {
        ScaledWorkload {
            cipher: CipherKind::A51,
            keystream_len: 64,
            known_suffix: 44,
            sample_size: 60,
            search_points: 25,
            seed: 20150703,
        }
    }

    /// The scaled analogue of the Bivium workload (§4.3).
    #[must_use]
    pub fn bivium() -> ScaledWorkload {
        ScaledWorkload {
            cipher: CipherKind::Bivium,
            keystream_len: 80,
            known_suffix: 157,
            sample_size: 60,
            search_points: 25,
            seed: 20150704,
        }
    }

    /// The scaled analogue of the Grain workload (§4.3).
    #[must_use]
    pub fn grain() -> ScaledWorkload {
        ScaledWorkload {
            cipher: CipherKind::Grain,
            keystream_len: 72,
            known_suffix: 142,
            sample_size: 60,
            search_points: 25,
            seed: 20150705,
        }
    }

    /// An even smaller variant used by the integration tests (runs in well
    /// under a second).
    #[must_use]
    pub fn tiny(cipher: CipherKind) -> ScaledWorkload {
        let (keystream_len, known_suffix) = match cipher {
            CipherKind::A51 => (32, 54),
            CipherKind::Bivium => (40, 169),
            CipherKind::Grain => (32, 152),
        };
        ScaledWorkload {
            cipher,
            keystream_len,
            known_suffix,
            sample_size: 12,
            search_points: 8,
            seed: 7,
        }
    }

    /// Number of unknown state bits.
    #[must_use]
    pub fn unknown_bits(&self) -> usize {
        self.cipher.state_len() - self.known_suffix
    }

    /// The instance builder of this workload over `cipher`.
    fn builder<C: StreamCipher>(&self, cipher: C) -> InstanceBuilder<C> {
        InstanceBuilder::new(cipher)
            .keystream_len(self.keystream_len)
            .known_suffix_of_second_register(self.known_suffix)
    }

    /// Builds the SAT instance of this workload (deterministic in the seed).
    #[must_use]
    pub fn build_instance(&self) -> Instance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        with_cipher!(self.cipher, |cipher| self
            .builder(cipher)
            .build_random(&mut rng))
    }

    /// Builds a series of `count` instances differing only in the secret
    /// state (the paper solves 3 instances per weakened problem).
    #[must_use]
    pub fn build_series(&self, count: usize) -> Vec<Instance> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        with_cipher!(self.cipher, |cipher| self
            .builder(cipher)
            .build_series(count, &mut rng))
    }

    /// The search space `2^{X̃_start}` of the workload: all unknown state
    /// variables (the Strong UP-backdoor set of the instance).
    #[must_use]
    pub fn search_space(&self, instance: &Instance) -> SearchSpace {
        SearchSpace::new(instance.unknown_state_vars())
    }

    /// The evaluator configuration of the workload: its sample size and
    /// seed, the fresh backend (identically distributed observations, as the
    /// Monte Carlo argument assumes) and the workload's
    /// [`cost_metric`](ScaledWorkload::cost_metric).
    #[must_use]
    pub fn evaluator_config(&self) -> EvaluatorConfig {
        EvaluatorConfig {
            sample_size: self.sample_size,
            cost: self.cost_metric(),
            num_workers: NUM_WORKERS,
            seed: self.seed,
            ..EvaluatorConfig::default()
        }
    }

    /// An evaluator for the instance with the
    /// [`evaluator_config`](ScaledWorkload::evaluator_config).
    #[must_use]
    pub fn evaluator(&self, instance: &Instance) -> Evaluator {
        Evaluator::new(instance.cnf(), self.evaluator_config())
    }

    /// Runs `strategy` over the instance's [`search_space`] from its full
    /// point (`X̃_start`), for at most `search_points` points, seeded with the
    /// workload's seed.
    ///
    /// [`search_space`]: ScaledWorkload::search_space
    #[must_use]
    pub fn search(
        &self,
        instance: &Instance,
        strategy: &mut dyn Strategy,
        evaluator: &mut Evaluator,
    ) -> SearchOutcome {
        let space = self.search_space(instance);
        let driver = SearchDriver::new(DriverConfig {
            limits: SearchLimits::unlimited().with_max_points(self.search_points),
            seed: self.seed,
        });
        driver.run(&space, &space.full_point(), strategy, evaluator)
    }

    /// A solving-mode solver for `cnf` that measures costs as the
    /// [`evaluator`](ScaledWorkload::evaluator) does: the workload's cost
    /// metric on the fresh backend, so an estimate and a family's real cost
    /// are measured on the same substrate.
    #[must_use]
    pub fn family_solver(&self, cnf: &Cnf) -> FamilySolver {
        FamilySolver::new(
            cnf,
            &SolveModeConfig {
                cost: self.cost_metric(),
                num_workers: NUM_WORKERS,
                backend: BackendKind::Fresh,
                ..SolveModeConfig::default()
            },
        )
    }

    /// The cost metric of every scaled experiment: the deterministic
    /// propagation count, so that the generated tables are identical across
    /// machines. Propagations rather than conflicts are used because on
    /// laptop-scale weakened instances many sub-problems are decided by unit
    /// propagation alone, which would make a conflict-based cost degenerate
    /// to zero.
    #[must_use]
    pub fn cost_metric(&self) -> CostMetric {
        CostMetric::Propagations
    }
}

/// Algorithm 2, the strategy of every scaled search but annealing's.
#[must_use]
pub fn tabu() -> Tabu {
    Tabu::new(&TabuConfig::default())
}

/// The "manual" A5/1 reference decomposition set (the analogue of S1 from
/// the paper, which was built by hand from the structure of the generator):
/// the unknown bits that feed the majority clocking — everything up to and
/// including the clocking tap of each register — plus the register ends that
/// feed the first keystream bits. On the full instance this style of
/// construction yields the 31-variable set of the paper; on a weakened
/// instance it is restricted to the bits that are still unknown.
#[must_use]
pub fn a51_manual_reference_set(instance: &Instance) -> DecompositionSet {
    // Register boundaries and clocking taps of A5/1 in state order.
    let registers: [(usize, usize, usize); 3] = [
        (0, 19, 8),   // R1: state 0..19, clock tap 8
        (19, 41, 10), // R2: state 19..41, clock tap at offset 10
        (41, 64, 10), // R3: state 41..64, clock tap at offset 10
    ];
    let known: Vec<usize> = instance
        .known_state_bits()
        .iter()
        .map(|&(i, _)| i)
        .collect();
    let mut vars = Vec::new();
    for &(start, end, clock) in &registers {
        for idx in start..end {
            let offset = idx - start;
            let is_clocking_half = offset <= clock + 1;
            let feeds_first_output = idx + 2 >= end;
            if (is_clocking_half || feeds_first_output) && !known.contains(&idx) {
                vars.push(instance.state_vars()[idx]);
            }
        }
    }
    DecompositionSet::new(vars)
}

/// The Eibach-et-al.-style fixed Bivium strategy: the last `k` unknown cells
/// of the second register (the best fixed strategy of \[5\] uses the last 45
/// cells of register B).
#[must_use]
pub fn bivium_fixed_strategy_set(instance: &Instance, k: usize) -> DecompositionSet {
    let known: Vec<usize> = instance
        .known_state_bits()
        .iter()
        .map(|&(i, _)| i)
        .collect();
    let state_len = instance.state_vars().len();
    let vars: Vec<Var> = (0..state_len)
        .rev()
        .filter(|i| !known.contains(i))
        .take(k)
        .map(|i| instance.state_vars()[i])
        .collect();
    DecompositionSet::new(vars)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for workload in [
            ScaledWorkload::a51(),
            ScaledWorkload::bivium(),
            ScaledWorkload::grain(),
        ] {
            assert!(workload.unknown_bits() > 0);
            assert!(
                workload.unknown_bits() <= 24,
                "scaled workloads stay laptop-sized"
            );
            assert!(workload.keystream_len > 0);
        }
        assert_eq!(CipherKind::A51.state_len(), 64);
        assert_eq!(CipherKind::Bivium.state_len(), 177);
        assert_eq!(CipherKind::Grain.state_len(), 160);
        assert_eq!(CipherKind::Grain.name(), "Grain");
    }

    #[test]
    fn tiny_workloads_build_quickly_and_deterministically() {
        for kind in [CipherKind::A51, CipherKind::Bivium, CipherKind::Grain] {
            let workload = ScaledWorkload::tiny(kind);
            let a = workload.build_instance();
            let b = workload.build_instance();
            assert_eq!(a.secret_state(), b.secret_state());
            assert_eq!(a.cnf().num_clauses(), b.cnf().num_clauses());
            let space = workload.search_space(&a);
            assert_eq!(space.dimension(), workload.unknown_bits());
        }
    }

    #[test]
    fn series_share_parameters_but_not_secrets() {
        let workload = ScaledWorkload::tiny(CipherKind::Bivium);
        let series = workload.build_series(3);
        assert_eq!(series.len(), 3);
        assert_ne!(series[0].secret_state(), series[1].secret_state());
        assert_eq!(series[0].keystream().len(), series[1].keystream().len());
    }

    #[test]
    fn a51_manual_set_contains_only_unknown_clocking_bits() {
        let workload = ScaledWorkload::tiny(CipherKind::A51);
        let instance = workload.build_instance();
        let set = a51_manual_reference_set(&instance);
        assert!(!set.is_empty());
        let unknown = instance.unknown_state_vars();
        for v in set.vars() {
            assert!(unknown.contains(v), "manual set must avoid revealed bits");
        }
    }

    #[test]
    fn a51_manual_set_on_full_instance_has_paper_scale() {
        // On the unweakened instance the construction gives a set in the
        // low-thirties, matching the 31-variable S1 of the paper.
        let workload = ScaledWorkload {
            known_suffix: 0,
            keystream_len: 16,
            ..ScaledWorkload::tiny(CipherKind::A51)
        };
        let instance = workload.build_instance();
        let set = a51_manual_reference_set(&instance);
        assert!(
            (28..=40).contains(&set.len()),
            "expected a paper-scale manual set, got {}",
            set.len()
        );
    }

    #[test]
    fn bivium_fixed_strategy_picks_the_tail_of_register_b() {
        let workload = ScaledWorkload::tiny(CipherKind::Bivium);
        let instance = workload.build_instance();
        let set = bivium_fixed_strategy_set(&instance, 5);
        assert_eq!(set.len(), 5);
        let unknown = instance.unknown_state_vars();
        for v in set.vars() {
            assert!(unknown.contains(v));
        }
        // The chosen vars are the highest-index unknown cells.
        let max_unknown = unknown.iter().map(|v| v.index()).max().unwrap();
        assert!(set.vars().iter().any(|v| v.index() == max_unknown));
    }
}
