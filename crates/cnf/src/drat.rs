//! DRAT proof steps and the standard text codec.
//!
//! A DRAT proof (Wetzler, Heule & Hunt 2014 — the `drat-trim` lineage) is a
//! sequence of clause *additions* and *deletions* appended to a CNF formula.
//! Each added clause must be derivable from the current formula by reverse
//! unit propagation (RUP); deletions merely shrink the clause database that
//! later additions are checked against. The solver emits these steps behind
//! `SolverConfig::proof`; `crates/checker` consumes them.
//!
//! An addition may carry *hints*: the ids of the clauses that derive it, in
//! the order a unit-resolution chain uses them (the antecedents LRAT names;
//! Cruz-Filipe, Heule, Hunt, Kaufmann & Schneider-Kamp, CADE 2017). Clause
//! `i` of the formula has id `i`, and the `k`-th addition of the proof has id
//! `m + k` for a formula of `m` clauses; ids are `u32`. Hints are advisory: a
//! checker that ignores them accepts exactly the same proofs.
//!
//! The text form is the standard one accepted by external tools: one step per
//! line, literals in DIMACS encoding terminated by `0`, deletions prefixed
//! with `d`, comment lines starting with `c`. It has no hints.

use crate::dimacs::MAX_VARS;
use crate::Lit;
use std::fmt::Write;
use std::sync::Arc;

/// One step of a DRAT derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DratStep {
    /// Add a clause (must be RUP with respect to the current database).
    /// An empty clause terminates the proof: the formula is unsatisfiable.
    Add {
        /// The clause.
        lits: Vec<Lit>,
        /// Ids of the clauses that derive it (see the module doc), possibly
        /// none. Never changed once logged, so every copy of a proof shares
        /// them.
        hints: Arc<[u32]>,
    },
    /// Delete one instance of a clause from the database. Checkers treat a
    /// deletion whose clause is not present as a no-op (the lenient
    /// `drat-trim` dialect), so solver-side normalization differences never
    /// invalidate a proof.
    Delete(Vec<Lit>),
}

impl DratStep {
    /// An addition without hints.
    #[must_use]
    pub fn add(lits: Vec<Lit>) -> DratStep {
        DratStep::Add {
            lits,
            hints: Arc::from([]),
        }
    }

    /// The literals of the step's clause.
    #[must_use]
    pub fn lits(&self) -> &[Lit] {
        match self {
            DratStep::Add { lits, .. } | DratStep::Delete(lits) => lits,
        }
    }

    /// `true` for [`DratStep::Delete`].
    #[must_use]
    pub fn is_delete(&self) -> bool {
        matches!(self, DratStep::Delete(_))
    }
}

/// A complete DRAT derivation: the certificate attached to an UNSAT verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratProof {
    /// The steps, in derivation order.
    pub steps: Vec<DratStep>,
}

impl DratProof {
    /// An empty derivation.
    #[must_use]
    pub fn new() -> DratProof {
        DratProof { steps: Vec::new() }
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the derivation has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Serializes the proof into the standard DRAT text form. Hints are
    /// left out: the text form has no place for them.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            if step.is_delete() {
                out.push_str("d ");
            }
            for &lit in step.lits() {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{} ", lit.to_dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses the standard DRAT text form: one step per line, DIMACS
    /// literals terminated by `0`, `d` prefix for deletions, `c` comments
    /// and blank lines ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<DratProof, String> {
        let mut steps = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (is_delete, body) = match line.strip_prefix('d') {
                Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest),
                Some(_) => return Err(format!("line {}: bad prefix '{line}'", lineno + 1)),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for token in body.split_whitespace() {
                if terminated {
                    return Err(format!("line {}: literals after the 0", lineno + 1));
                }
                let value: i64 = token
                    .parse()
                    .map_err(|_| format!("line {}: bad literal '{token}'", lineno + 1))?;
                if value == 0 {
                    terminated = true;
                } else {
                    lits.push(Lit::try_from_dimacs(value).ok_or_else(|| {
                        format!(
                            "line {}: literal '{token}' outside the supported ±{MAX_VARS}",
                            lineno + 1
                        )
                    })?);
                }
            }
            if !terminated {
                return Err(format!("line {}: missing terminating 0", lineno + 1));
            }
            steps.push(if is_delete {
                DratStep::Delete(lits)
            } else {
                DratStep::add(lits)
            });
        }
        Ok(DratProof { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn text_codec_round_trips() {
        let proof = DratProof {
            steps: vec![
                DratStep::add(vec![lit(1), lit(-2)]),
                DratStep::Delete(vec![lit(-1), lit(2), lit(3)]),
                DratStep::add(vec![lit(2)]),
                DratStep::add(vec![]),
            ],
        };
        let text = proof.to_text();
        assert_eq!(text, "1 -2 0\nd -1 2 3 0\n2 0\n0\n");
        let parsed = DratProof::from_text(&text).expect("round-trip");
        assert_eq!(parsed, proof);
    }

    #[test]
    fn hints_are_left_out_of_the_text_form() {
        let hinted = DratProof {
            steps: vec![
                DratStep::Add {
                    lits: vec![lit(1), lit(-2)],
                    hints: [4, 0, 2].into(),
                },
                DratStep::Add {
                    lits: vec![],
                    hints: [5].into(),
                },
            ],
        };
        let text = hinted.to_text();
        assert_eq!(text, "1 -2 0\n0\n");
        let parsed = DratProof::from_text(&text).expect("plain DRAT");
        let stripped: Vec<DratStep> = hinted
            .steps
            .iter()
            .map(|step| DratStep::add(step.lits().to_vec()))
            .collect();
        assert_eq!(parsed.steps, stripped);
    }

    #[test]
    fn parser_skips_comments_and_rejects_malformed_lines() {
        let parsed = DratProof::from_text("c a comment\n\n  d 1 0 \n-3 0\n").expect("parses");
        assert_eq!(
            parsed.steps,
            vec![DratStep::Delete(vec![lit(1)]), DratStep::add(vec![lit(-3)])]
        );
        assert!(DratProof::from_text("1 2\n").is_err()); // no terminator
        assert!(DratProof::from_text("1 0 2 0\n").is_err()); // trailing lits
        assert!(DratProof::from_text("x 0\n").is_err()); // bad literal
        assert!(DratProof::from_text("d1 0\n").is_err()); // fused prefix
        assert!(DratProof::from_text("4294967297 0\n").is_err()); // would alias variable 1
        assert!(DratProof::from_text("-9223372036854775808 0\n").is_err());
    }
}
