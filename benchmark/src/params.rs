//! The frozen parameters of the workloads. A change here changes what the
//! benchmark measures: it is a benchmark change, its own PR, and the
//! baseline is measured again after it.
//!
//! Every size is chosen so that one repetition (set-up, timed section,
//! checks) takes between a third of a second and two seconds on the two-CPU
//! reference box, which gives a run of [`RUN_SECONDS`] fifteen to eighty of
//! them to take its lower decile from. Inputs whose solving time depends on
//! what the seed would draw are frozen (see [`FROZEN`]).
//! `quick` sizes are about one sixteenth: same code paths and checks,
//! numbers not comparable.

use crate::workloads::estimate::{EstimateFamily, SearchParams};
use crate::workloads::grid::GridParams;
use crate::workloads::grid_proof::GridProof;
use crate::workloads::grid_synthetic::GridSynthetic;
use crate::workloads::pipeline::Pipeline;
use crate::workloads::solve::SolveFamilies;
use crate::workloads::{pool_workers, Weakening};
use pdsat_ciphers::{Bivium, Grain, A51};
use std::cell::OnceCell;
use std::path::PathBuf;

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 2015;
/// Measuring window of a run that names none; `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 30.0;
/// Measuring window of a `--quick` run that names none.
pub const QUICK_SECONDS: f64 = 0.5;

/// Seed of the frozen inputs of the A5/1 workloads: their secrets and the
/// pipeline's search (see `workloads::build_series` for why).
const FROZEN: u64 = 0xA51;

fn pick<T>(quick: bool, full: T, small: T) -> T {
    if quick {
        small
    } else {
        full
    }
}

/// A5/1, 40 keystream bits, 42 state bits known (22 unknown). The search
/// space is the first 6 unknown variables, so no family exceeds 2^6 cubes:
/// every UNSAT cube of every upload costs a certificate check of about 7 ms,
/// and a larger family makes the checker the whole pipeline.
pub fn pipeline_a51(seed: u64, quick: bool) -> Pipeline<A51> {
    Pipeline {
        cipher: A51::new(),
        weakening: Weakening {
            keystream_len: 40,
            known_bits: 42,
        },
        search: SearchParams {
            sample_size: pick(quick, 10, 5),
            points: pick(quick, 12, 5),
            space_vars: Some(6),
        },
        instances: 1,
        grid: GridParams {
            unit_size: 2,
            redundancy: 2,
            clients: 16,
        },
        secrets_seed: FROZEN,
        search_seed: FROZEN,
        clients_seed: seed,
    }
}

/// Bivium, 80 keystream bits, 157 state bits known (20 unknown): unit
/// propagation decides every cube, so no conflict ever happens.
pub fn estimate_bivium(seed: u64, quick: bool) -> EstimateFamily<Bivium> {
    EstimateFamily {
        cipher: Bivium::new(),
        weakening: Weakening {
            keystream_len: 80,
            known_bits: 157,
        },
        search: SearchParams {
            sample_size: pick(quick, 100, 25),
            points: pick(quick, 28, 8),
            space_vars: None,
        },
        secrets_seed: seed,
        search_seed: seed,
    }
}

/// A5/1, 64 keystream bits, 38 state bits known (26 unknown), families over
/// the first 8 unknown variables: 256 cubes of 18 unknown bits each, about
/// a millisecond and tens of conflicts per cube. Families this size let each
/// of two warm workers amortize what it learns; much smaller ones run
/// slower on the pool than on one thread.
pub fn solve_hard_a51(quick: bool) -> SolveFamilies<A51> {
    SolveFamilies {
        cipher: A51::new(),
        weakening: Weakening {
            keystream_len: 64,
            known_bits: pick(quick, 38, 40),
        },
        set_vars: Some(8),
        instances: pick(quick, 3, 1),
        workers: 1,
        speedup_metric: "oracle.speedup_2w_hard",
        secrets_seed: FROZEN,
    }
}

/// Grain, 72 keystream bits, 142 state bits known (18 unknown), the full
/// start set: 2^18 cubes per family, each decided by the retained trail.
pub fn solve_easy_grain(seed: u64, quick: bool) -> SolveFamilies<Grain> {
    SolveFamilies {
        cipher: Grain::new(),
        weakening: Weakening {
            keystream_len: 72,
            known_bits: pick(quick, 142, 146),
        },
        set_vars: None,
        instances: pick(quick, 4, 2),
        workers: pool_workers(),
        speedup_metric: "oracle.speedup_2w_easy",
        secrets_seed: seed,
    }
}

/// A5/1, 48 keystream bits, 44 state bits known (20 unknown), families over
/// the first 6 unknown variables: 64 cubes in 8 units, proofs on. The
/// shorter keystream keeps a certificate check (dominated by reloading the
/// formula) near 10 ms, so that 8 units fit a repetition of a second and a
/// half; fewer units would let one extra upload move the time by a tenth.
pub fn grid_proof_a51(seed: u64, quick: bool) -> GridProof<A51> {
    GridProof {
        cipher: A51::new(),
        weakening: Weakening {
            keystream_len: 48,
            known_bits: 44,
        },
        set_vars: pick(quick, 6, 4),
        instances: 1,
        grid: GridParams {
            unit_size: 8,
            redundancy: 2,
            clients: 16,
        },
        secrets_seed: FROZEN,
        clients_seed: seed,
    }
}

/// 6,144 synthetic units of 8 cubes, 48 chaotic clients, a save after each
/// quarter of the expected events. Not more saves: each ends in an `fsync`,
/// and what the shared disk of the reference box takes for one swings the
/// repetition by more than everything else in it.
pub fn grid_synthetic(seed: u64, quick: bool, out_dir: PathBuf) -> GridSynthetic {
    GridSynthetic {
        units: pick(quick, 6_144, 768),
        unit_size: 8,
        redundancy: 2,
        clients: 48,
        lease_timeout: 2000.0,
        poll_interval: 200.0,
        slices: 4,
        seed,
        store_path: out_dir.join(format!("grid-synthetic-{}.ckpt", std::process::id())),
        uninterrupted: OnceCell::new(),
    }
}
