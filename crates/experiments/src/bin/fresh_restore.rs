//! What a fresh cube's state costs against its solve: every cube of four
//! nested A5/1 families solved from the load, one solver rewound before
//! each, with the rewind and the solve timed apart on the solver itself.
//!
//! The instance is A5/1 with 64 keystream bits and the secret drawn from
//! `StdRng` seed 1. Its unknowns are the first 10, 9 and 9 bits of R1, R2
//! and R3 (state bits 0–9, 19–27 and 41–49); every other state bit is fixed
//! by a unit clause. The families grow from the clocking-tap set
//! `{6,7,8, 25,26,27, 47,48,49}` (d = 9) by `{5,24,46}`, `{4,23,45}` and
//! `{3,22,44}` (d = 12, 15, 18). The cost is conflicts, so the counts are
//! the same on every machine; the times are this machine's.
//!
//! Run with `cargo run --release -p pdsat_experiments --bin fresh_restore`
//! (17–24 s on two vCPUs, spread over the four families: none takes more
//! than 8 s).

#![forbid(unsafe_code)]

use pdsat_ciphers::{InstanceBuilder, A51};
use pdsat_cnf::{Cube, LitBuffer, Var};
use pdsat_experiments::TextTable;
use pdsat_solver::{Solver, SolverConfig};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The clocking-tap set: the state bits of d = 9.
const TAPS: [usize; 9] = [6, 7, 8, 25, 26, 27, 47, 48, 49];
/// The bits each larger family adds, in order.
const GROWTH: [[usize; 3]; 3] = [[5, 24, 46], [4, 23, 45], [3, 22, 44]];

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let instance = InstanceBuilder::new(A51::new())
        .keystream_len(64)
        .build_random(&mut rng);
    let unknown = |bit: &usize| matches!(bit, 0..=9 | 19..=27 | 41..=49);
    let mut cnf = instance.cnf().clone();
    let state = instance.state_vars();
    for (bit, &value) in instance.secret_state().iter().enumerate() {
        if !unknown(&bit) {
            cnf.add_clause([state[bit].lit(value)]);
        }
    }
    println!(
        "A5/1, 64 keystream bits, secret from seed 1: {} variables, {} clauses, \
         28 unknown state bits",
        cnf.num_vars(),
        cnf.num_clauses()
    );

    let mut solver = Solver::from_cnf_with_config(
        &cnf,
        SolverConfig {
            time_accounting: false,
            proof: false,
        },
    );
    let mut table = TextTable::new(
        "Fresh cubes, rewound before each (one thread)",
        &[
            "d",
            "cubes",
            "conflicts",
            "cubes at 0",
            "rewind µs/cube",
            "solve µs/cube",
            "rewind share",
        ],
    );
    for grown in 0..=GROWTH.len() {
        let mut bits: Vec<usize> = TAPS
            .iter()
            .chain(GROWTH[..grown].iter().flatten())
            .copied()
            .collect();
        bits.sort_unstable();
        assert!(bits.iter().all(unknown));
        let vars: Arc<Box<[Var]>> = Arc::new(bits.iter().map(|&b| state[b]).collect());
        let cubes = 1u64 << vars.len();
        let (mut conflicts, mut at_zero) = (0u64, 0u64);
        let (mut rewind, mut solve) = (Duration::ZERO, Duration::ZERO);
        let mut buffer = LitBuffer::new();
        for index in 0..cubes {
            let cube = Cube::from_shared_bits(Arc::clone(&vars), index);
            let lits = buffer.write(&cube);
            let start = Instant::now();
            solver.rewind();
            let rewound = Instant::now();
            let _ = solver.solve_with_assumptions(lits);
            solve += rewound.elapsed();
            rewind += rewound - start;
            let cost = solver.stats().conflicts;
            conflicts += cost;
            at_zero += u64::from(cost == 0);
        }
        let per_cube = |t: Duration| t.as_secs_f64() * 1e6 / cubes as f64;
        table.add_row([
            vars.len().to_string(),
            cubes.to_string(),
            conflicts.to_string(),
            at_zero.to_string(),
            format!("{:.1}", per_cube(rewind)),
            format!("{:.1}", per_cube(solve)),
            format!(
                "{:.1} %",
                100.0 * rewind.as_secs_f64() / (rewind + solve).as_secs_f64()
            ),
        ]);
    }
    println!("{}", table.render());
}
