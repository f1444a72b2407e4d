//! The checker against a reference model: a naive forward checker that
//! propagates by rescanning every live clause to fixpoint and deletes the
//! most recent live instance of a literal multiset, and ignores hints. On
//! random formulas (clause lengths 1–5, repeated literals within a clause,
//! duplicate clauses), random cubes and random proofs (additions, deletions
//! of originals and of earlier additions, deletions matching nothing), both
//! must give the same verdict, `steps_checked` and `unmatched_deletes`.
//! Propagation counts depend on the order literals are visited in and are
//! not compared.
//!
//! Hints are advisory, so each proof is checked three times against the same
//! reference result: without hints, with the solver's hints, and with hints
//! corrupted every way an upload could (shuffled, truncated, naming clauses
//! past the database, deleted ones, or ones added later).

use pdsat_checker::{check_unsat_proof, CheckFailure};
use pdsat_cnf::{Cnf, DratProof, DratStep, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, Verdict as Solved};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(steps_checked, unmatched_deletes)` of an accepted proof.
type Verdict = Result<(usize, usize), CheckFailure>;

/// Root values by variable: `Some(polarity)` once assigned.
type Values = Vec<Option<bool>>;

fn value(values: &Values, lit: Lit) -> Option<bool> {
    values[lit.var().index()].map(|v| v == lit.is_positive())
}

fn assign(values: &mut Values, lit: Lit) {
    values[lit.var().index()] = Some(lit.is_positive());
}

/// Unit propagation over every live clause, rescanned until nothing
/// changes; `true` when some clause is falsified.
fn propagate(clauses: &[(Vec<Lit>, bool)], values: &mut Values) -> bool {
    loop {
        let mut changed = false;
        for (clause, _) in clauses.iter().filter(|(_, live)| *live) {
            if clause.iter().any(|&l| value(values, l) == Some(true)) {
                continue;
            }
            let mut open: Vec<Lit> = clause
                .iter()
                .copied()
                .filter(|&l| value(values, l).is_none())
                .collect();
            open.sort_unstable();
            open.dedup();
            match open[..] {
                [] => return true,
                [unit] => {
                    assign(values, unit);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

/// The reference forward check of `cnf ∧ cube ⊨ ⊥` by `proof`.
fn reference(cnf: &Cnf, cube: &[Lit], proof: &DratProof) -> Verdict {
    let mut clauses: Vec<(Vec<Lit>, bool)> = cnf.iter().map(|c| (c.to_vec(), true)).collect();
    let mut values: Values = vec![None; cnf.num_vars()];
    let mut proven = propagate(&clauses, &mut values);
    for &lit in cube {
        match value(&values, lit) {
            Some(false) => proven = true,
            Some(true) => {}
            None => assign(&mut values, lit),
        }
    }
    proven = proven || propagate(&clauses, &mut values);
    let (mut steps, mut unmatched) = (0, 0);
    for step in &proof.steps {
        if proven {
            break;
        }
        match step {
            DratStep::Add { lits, .. } => {
                // RUP: the negated literals contradict the root or each
                // other, or propagate to a conflict.
                let mut trial = values.clone();
                let mut rup = false;
                for &lit in lits {
                    match value(&trial, lit) {
                        Some(true) => rup = true,
                        Some(false) => {}
                        None => assign(&mut trial, !lit),
                    }
                }
                if !(rup || propagate(&clauses, &mut trial)) {
                    return Err(CheckFailure::ProofNotRup);
                }
                clauses.push((lits.clone(), true));
                proven = propagate(&clauses, &mut values);
            }
            DratStep::Delete(lits) => {
                if !delete_newest(&mut clauses, lits) {
                    unmatched += 1;
                }
            }
        }
        steps += 1;
    }
    if proven {
        Ok((steps, unmatched))
    } else {
        Err(CheckFailure::ProofIncomplete)
    }
}

/// Marks the most recent live instance of the multiset `lits` deleted;
/// `false` when there is none.
fn delete_newest(clauses: &mut [(Vec<Lit>, bool)], lits: &[Lit]) -> bool {
    let key = sorted(lits);
    match clauses
        .iter()
        .rposition(|(c, live)| *live && sorted(c) == key)
    {
        Some(i) => {
            clauses[i].1 = false;
            true
        }
        None => false,
    }
}

fn sorted(lits: &[Lit]) -> Vec<Lit> {
    let mut lits = lits.to_vec();
    lits.sort_unstable();
    lits
}

fn random_lit(rng: &mut StdRng, num_vars: usize) -> Lit {
    Lit::new(
        Var::new(rng.gen_range(0..num_vars as u32)),
        rng.gen_bool(0.5),
    )
}

/// Random literals over `len` distinct variables, now and then with one of
/// them repeated or, more rarely, negated too (a tautology).
fn random_clause(rng: &mut StdRng, num_vars: usize, len: usize) -> Vec<Lit> {
    let mut clause: Vec<Lit> = Vec::with_capacity(len + 1);
    while clause.len() < len {
        let lit = random_lit(rng, num_vars);
        if !clause.iter().any(|l| l.var() == lit.var()) {
            clause.push(lit);
        }
    }
    if !clause.is_empty() {
        let some = clause[rng.gen_range(0..clause.len())];
        match rng.gen_range(0..100) {
            0..=11 => clause.push(some),
            12..=14 => clause.push(!some),
            _ => {}
        }
    }
    clause
}

/// `clause` with its literals in a random order.
fn shuffled(rng: &mut StdRng, clause: &[Lit]) -> Vec<Lit> {
    let mut clause = clause.to_vec();
    for i in (1..clause.len()).rev() {
        clause.swap(i, rng.gen_range(0..=i));
    }
    clause
}

/// The resolvent of `c` and `d` on the first variable they clash on.
fn resolvent(c: &[Lit], d: &[Lit]) -> Option<Vec<Lit>> {
    let pivot = c.iter().copied().find(|&l| d.contains(&!l))?;
    let mut out: Vec<Lit> = c.iter().copied().filter(|&l| l != pivot).collect();
    out.extend(d.iter().copied().filter(|&l| l != !pivot));
    Some(out)
}

/// A formula over 8–12 variables of 4 to 6 clauses a variable, 1–5
/// literals long (three most often, units rare, so that root propagation
/// does not refute most of them), a few repeating a literal or a whole
/// earlier clause.
fn random_formula(rng: &mut StdRng) -> Cnf {
    let num_vars = rng.gen_range(8..=12);
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..rng.gen_range(4 * num_vars..=6 * num_vars) {
        let earlier = cnf.num_clauses();
        if earlier > 0 && rng.gen_bool(0.05) {
            let copy = cnf.clause(rng.gen_range(0..earlier)).to_vec();
            cnf.add_clause(shuffled(rng, &copy));
        } else {
            let len = match rng.gen_range(0..100) {
                0 => 1,
                1..=5 => 2,
                6..=79 => 3,
                80..=92 => 4,
                _ => 5,
            };
            cnf.add_clause(random_clause(rng, num_vars, len));
        }
    }
    cnf
}

/// A cube of up to two literals and a proof for `cnf ∧ cube`: the
/// solver's refutation when it finds one, with up to eight random steps
/// mixed in (or those steps alone). Random additions are short clauses,
/// weakened originals and resolvents (the last two are RUP while their
/// parents live), without hints; random deletions name an original, an
/// earlier addition, or a random clause that mostly matches nothing. The
/// solver's additions keep their hints, renumbered past the random
/// additions mixed in before them.
fn random_check(rng: &mut StdRng, cnf: &Cnf) -> (Vec<Lit>, DratProof) {
    let num_vars = cnf.num_vars();
    let cube: Vec<Lit> = (0..rng.gen_range(0..=2))
        .map(|_| random_lit(rng, num_vars))
        .collect();
    let mut solver = Solver::from_cnf_with_config(
        cnf,
        SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
    );
    let mut refutation = match solver.solve_with_assumptions(&cube) {
        Solved::Unsat => solver.unsat_certificate().expect("proof logging is on"),
        _ => DratProof::new(),
    }
    .steps
    .into_iter()
    .peekable();
    let originals: Vec<Vec<Lit>> = cnf.iter().map(<[Lit]>::to_vec).collect();
    let mut added: Vec<Vec<Lit>> = Vec::new();
    // The id in this proof of each solver addition placed so far.
    let mut placed: Vec<u32> = Vec::new();
    let mut steps = Vec::new();
    // One of `from`, its literals shuffled.
    let pick = |rng: &mut StdRng, from: &[Vec<Lit>]| {
        let clause = &from[rng.gen_range(0..from.len())];
        shuffled(rng, clause)
    };
    let mut random_steps = rng.gen_range(0..=8);
    loop {
        let random = random_steps > 0 && (refutation.peek().is_none() || rng.gen_bool(0.4));
        let step = if random {
            random_steps -= 1;
            match rng.gen_range(0..10) {
                0..=2 => {
                    let len = rng.gen_range(0..=3);
                    DratStep::add(random_clause(rng, num_vars, len))
                }
                3 => {
                    let mut weaker = pick(rng, &originals);
                    weaker.push(random_lit(rng, num_vars));
                    DratStep::add(weaker)
                }
                4 | 5 => {
                    let pool = [&originals[..], &added[..]].concat();
                    let (c, d) = (pick(rng, &pool), pick(rng, &pool));
                    DratStep::add(resolvent(&c, &d).unwrap_or(c))
                }
                6 | 7 => DratStep::Delete(pick(rng, &originals)),
                8 if !added.is_empty() => DratStep::Delete(pick(rng, &added)),
                _ => {
                    let len = rng.gen_range(1..=4);
                    DratStep::Delete(random_clause(rng, num_vars, len))
                }
            }
        } else if let Some(mut step) = refutation.next() {
            if let DratStep::Add { hints, .. } = &mut step {
                let renumber = |hint: u32| {
                    let solver_addition = hint.checked_sub(id(originals.len()));
                    let placed_at = solver_addition.and_then(|k| placed.get(k as usize));
                    placed_at.copied().unwrap_or(hint)
                };
                *hints = hints.iter().map(|&hint| renumber(hint)).collect();
                placed.push(id(originals.len() + added.len()));
            }
            step
        } else {
            break;
        };
        if let DratStep::Add { lits, .. } = &step {
            added.push(lits.clone());
        }
        steps.push(step);
    }
    (cube, DratProof { steps })
}

/// The id of the clause at position `n` of the database.
fn id(n: usize) -> u32 {
    u32::try_from(n).expect("test formulas and proofs are small")
}

fn checked(cnf: &Cnf, cube: &[Lit], proof: &DratProof) -> Verdict {
    check_unsat_proof(cnf, cube, proof).map(|s| (s.steps_checked, s.unmatched_deletes))
}

/// `proof` with every hint removed.
fn without_hints(proof: &DratProof) -> DratProof {
    let steps = proof
        .steps
        .iter()
        .map(|step| match step {
            DratStep::Add { lits, .. } => DratStep::add(lits.clone()),
            DratStep::Delete(lits) => DratStep::Delete(lits.clone()),
        })
        .collect();
    DratProof { steps }
}

/// `proof` with the hints of every addition corrupted one way or another:
/// shuffled, truncated, or with one to three ids inserted that name a clause
/// past the end of the whole proof, a clause deleted by then, or a clause
/// added later.
fn corrupted(rng: &mut StdRng, cnf: &Cnf, proof: &DratProof) -> DratProof {
    let mut clauses: Vec<(Vec<Lit>, bool)> = cnf.iter().map(|c| (c.to_vec(), true)).collect();
    let additions = proof.steps.iter().filter(|s| !s.is_delete()).count();
    let total = clauses.len() + additions;
    let mut steps = Vec::with_capacity(proof.steps.len());
    for step in &proof.steps {
        let (lits, hints) = match step {
            DratStep::Delete(lits) => {
                delete_newest(&mut clauses, lits);
                steps.push(step.clone());
                continue;
            }
            DratStep::Add { lits, hints } => (lits, hints),
        };
        let mut hints = hints.to_vec();
        let now = clauses.len();
        let deleted: Vec<u32> = (0..now).filter(|&i| !clauses[i].1).map(id).collect();
        let foreign: Vec<u32> = match rng.gen_range(0..5) {
            0 => {
                hints = shuffled_ids(rng, &hints);
                Vec::new()
            }
            1 => {
                hints.truncate(rng.gen_range(0..=hints.len()));
                Vec::new()
            }
            2 => vec![id(total) + rng.gen_range(0..3u32), u32::MAX],
            3 if !deleted.is_empty() => deleted,
            _ => (now..total).map(id).collect(),
        };
        for _ in 0..rng.gen_range(1..=3usize).min(foreign.len()) {
            let named = foreign[rng.gen_range(0..foreign.len())];
            hints.insert(rng.gen_range(0..=hints.len()), named);
        }
        clauses.push((lits.clone(), true));
        steps.push(DratStep::Add {
            lits: lits.clone(),
            hints: hints.into(),
        });
    }
    DratProof { steps }
}

fn shuffled_ids(rng: &mut StdRng, ids: &[u32]) -> Vec<u32> {
    let mut ids = ids.to_vec();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Each case checks two proofs against one formula, each three ways, so
    /// all but the first check run on a working copy restored after another.
    #[test]
    fn the_checker_agrees_with_the_reference(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cnf = random_formula(&mut rng);
        for _ in 0..2 {
            let (cube, proof) = random_check(&mut rng, &cnf);
            let expected = reference(&cnf, &cube, &proof);
            let plain = without_hints(&proof);
            let forged = corrupted(&mut rng, &cnf, &proof);
            prop_assert_eq!(checked(&cnf, &cube, &plain), expected);
            prop_assert_eq!(checked(&cnf, &cube, &proof), expected, "solver's hints");
            prop_assert_eq!(checked(&cnf, &cube, &forged), expected, "corrupted hints");
        }
    }
}

/// The generator reaches every verdict, proofs accepted only after some
/// of their steps, and deletions (matched and unmatched) among those steps:
/// a comparison that only ever saw formulas refuted at load, or rejections
/// at the first step, would prove little. And the solver's hints do the
/// work in the hinted checks: a comparison in which they never reached a
/// conflict would be the unhinted one again.
#[test]
fn the_cases_reach_every_verdict_and_both_kinds_of_deletion() {
    let (mut at_load, mut after_steps, mut not_rup, mut incomplete) = (0, 0, 0, 0);
    let (mut matched_deletes, mut unmatched_deletes) = (0, 0);
    let (mut plain_misses, mut hinted_misses) = (0, 0);
    for seed in 0..1024 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cnf = random_formula(&mut rng);
        let (cube, proof) = random_check(&mut rng, &cnf);
        let plain = check_unsat_proof(&cnf, &cube, &without_hints(&proof));
        if let (Ok(plain), Ok(hinted)) = (plain, check_unsat_proof(&cnf, &cube, &proof)) {
            plain_misses += plain.hint_misses;
            hinted_misses += hinted.hint_misses;
        }
        match reference(&cnf, &cube, &proof) {
            Ok((0, _)) => at_load += 1,
            Ok((steps, unmatched)) => {
                after_steps += 1;
                let deletes = proof.steps[..steps].iter().filter(|s| s.is_delete());
                matched_deletes += deletes.count() - unmatched;
                unmatched_deletes += unmatched;
            }
            Err(CheckFailure::ProofNotRup) => not_rup += 1,
            Err(_) => incomplete += 1,
        }
    }
    let tally = format!(
        "accepted {at_load} with no step and {after_steps} after steps, {not_rup} not RUP, \
         {incomplete} incomplete; {matched_deletes} matched and {unmatched_deletes} unmatched \
         deletions; in accepted proofs, {plain_misses} additions propagated without hints and \
         {hinted_misses} with the solver's"
    );
    println!("{tally}");
    let verdicts = [at_load, after_steps, not_rup, incomplete];
    assert!(verdicts.iter().all(|&n| n >= 150), "{tally}");
    assert!(matched_deletes >= 30 && unmatched_deletes >= 15, "{tally}");
    assert!(hinted_misses * 4 < plain_misses, "{tally}");
}
