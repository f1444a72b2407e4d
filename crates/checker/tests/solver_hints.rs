//! The solver's hints are complete: on every certificate it emits here, each
//! lemma the checker looks at is refuted by walking its hints alone
//! (`hint_misses` 0), so no lemma falls back to propagation over the
//! database. Hints are advisory, so a gap would only cost time; this suite is
//! what says there is none.
//!
//! The inputs cover what moves the hints: three formulas (random 3-SAT, a
//! pigeonhole, an A5/1 inversion with 12 unknowns), cubes solved each on a
//! solver rewound to its load (`Solver::rewind`, as the fresh backend does)
//! or in turn on one warm solver whose stream keeps growing,
//! trail reuse on and off (the replay of `TestPolicy::replay`), and a learnt
//! DB small enough that the streams delete clauses and the arena is
//! collected.
//!
//! Each certificate is also read back from its DRAT text, which has no hints,
//! as `pdsat check` reads it: the verdict and `steps_checked` must not move.

use pdsat_checker::check_unsat_proof;
use pdsat_ciphers::{InstanceBuilder, A51};
use pdsat_cnf::{Cnf, DratProof, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, TestPolicy, Verdict};
use rand::SeedableRng;

/// Every full assignment of `vars`, as cubes.
fn cubes(vars: &[Var]) -> Vec<Vec<Lit>> {
    (0..1u32 << vars.len())
        .map(|bits| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| Lit::new(v, bits >> i & 1 == 1))
                .collect()
        })
        .collect()
}

fn formulas() -> Vec<(&'static str, Cnf, Vec<Var>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
    let random = Cnf::random_3cnf(40, 190, &mut rng);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51A7);
    let a51 = InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(52)
        .build_random(&mut rng);
    let a51_vars = a51.unknown_state_vars();
    assert_eq!(a51_vars.len(), 12);
    vec![
        ("random_3cnf", random, (0..3).map(Var::new).collect()),
        (
            "pigeonhole",
            Cnf::pigeonhole(5),
            vec![Var::new(0), Var::new(5)],
        ),
        ("a51", a51.cnf().clone(), a51_vars[..3].to_vec()),
    ]
}

/// What the certificates of one formula under one setting came to.
#[derive(Default)]
struct Tally {
    certificates: usize,
    lemmas_checked: usize,
    deletions: usize,
    gc_runs: u64,
}

/// Solves every cube of `vars` and checks each certificate with its hints
/// and from its text.
fn certify(cnf: &Cnf, vars: &[Var], policy: TestPolicy, warm: bool, context: &str) -> Tally {
    let mut solver = Solver::from_cnf_with_config(
        cnf,
        SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
    );
    // A rewind keeps the test policy.
    solver.set_test_policy(policy);
    let mut tally = Tally::default();
    for cube in cubes(vars) {
        if !warm {
            solver.rewind();
        }
        let before = solver.stats().gc_runs;
        let verdict = solver.solve_with_assumptions(&cube);
        tally.gc_runs += solver.stats().gc_runs - before;
        if verdict != Verdict::Unsat {
            continue;
        }
        let proof = solver.unsat_certificate().expect("proof logging is on");
        let context = format!("{context}, cube {cube:?}");
        let hinted = check_unsat_proof(cnf, &cube, &proof)
            .unwrap_or_else(|failure| panic!("{context}: {failure}"));
        assert_eq!(hinted.hint_misses, 0, "{context}: {hinted:?}");
        let text = DratProof::from_text(&proof.to_text()).expect("the solver writes valid DRAT");
        let plain = check_unsat_proof(cnf, &cube, &text)
            .unwrap_or_else(|failure| panic!("{context}, from text: {failure}"));
        assert_eq!(plain.steps_checked, hinted.steps_checked, "{context}");
        assert_eq!(
            plain.unmatched_deletes, hinted.unmatched_deletes,
            "{context}"
        );
        tally.certificates += 1;
        tally.lemmas_checked += plain.hint_misses;
        tally.deletions += proof.steps.iter().filter(|s| s.is_delete()).count();
    }
    tally
}

#[test]
fn every_lemma_is_refuted_by_its_hints() {
    let mut total = Tally::default();
    for (name, cnf, vars) in formulas() {
        for warm in [false, true] {
            for replay in [false, true] {
                let policy = TestPolicy {
                    replay,
                    learnt_limit: Some(4),
                    ..TestPolicy::default()
                };
                let context = format!("{name}, warm {warm}, replay {replay}");
                let tally = certify(&cnf, &vars, policy, warm, &context);
                assert!(tally.certificates > 0, "{context}: no UNSAT cube");
                total.certificates += tally.certificates;
                total.lemmas_checked += tally.lemmas_checked;
                total.deletions += tally.deletions;
                total.gc_runs += tally.gc_runs;
            }
        }
    }
    let Tally {
        certificates,
        lemmas_checked,
        deletions,
        gc_runs,
    } = total;
    println!(
        "{certificates} certificates, {lemmas_checked} lemmas checked, {deletions} deletions \
         logged, {gc_runs} arena collections"
    );
    assert!(lemmas_checked >= 1000 && deletions > 0 && gc_runs > 0);
}
