//! Reading and writing the DIMACS CNF exchange format.
//!
//! The DIMACS format is the lingua franca of SAT solvers; PDSAT used it to
//! hand sub-problems to MiniSat. We support the standard dialect:
//!
//! ```text
//! c a comment
//! p cnf <num-vars> <num-clauses>
//! 1 -3 0
//! 2 3 -1 0
//! ```

use crate::{Cnf, Lit};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

/// Largest number of variables any ingest path accepts, as a header count
/// or as a literal's identifier. A formula's consumers size per-variable
/// tables from its variable count before reading a clause (the checker
/// about 50 bytes per variable), so this one number decides how much a
/// twenty-byte file can make them allocate: 2^24 is several hundred times
/// the largest encoding built here (the benchmark's Grain instance, 25,408
/// variables) and caps those tables below 1 GiB. It also keeps every
/// identifier inside the `u32` packing of [`Lit`].
pub const MAX_VARS: usize = 1 << 24;

/// Errors produced while parsing DIMACS input.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The `p cnf <vars> <clauses>` header is malformed.
    InvalidHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A token could not be parsed as a literal.
    InvalidLiteral {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The header count or a literal names a variable above [`MAX_VARS`].
    TooManyVariables {
        /// 1-based line number.
        line: usize,
    },
    /// A clause was not terminated by `0` before end of input.
    UnterminatedClause,
    /// The header declared fewer variables than the clauses use.
    VariableOutOfRange {
        /// Variable (1-based DIMACS id) that exceeds the declared count.
        var: i64,
        /// Declared number of variables.
        declared: usize,
    },
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error while reading DIMACS: {e}"),
            ParseDimacsError::InvalidHeader { line } => {
                write!(f, "invalid `p cnf` header at line {line}")
            }
            ParseDimacsError::InvalidLiteral { line, token } => {
                write!(f, "invalid literal `{token}` at line {line}")
            }
            ParseDimacsError::TooManyVariables { line } => write!(
                f,
                "line {line} names a variable above the supported maximum {MAX_VARS}"
            ),
            ParseDimacsError::UnterminatedClause => {
                write!(f, "last clause is not terminated by `0`")
            }
            ParseDimacsError::VariableOutOfRange { var, declared } => write!(
                f,
                "variable {var} exceeds the {declared} variables declared in the header"
            ),
        }
    }
}

impl std::error::Error for ParseDimacsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseDimacsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseDimacsError {
    fn from(e: std::io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

/// Parses a DIMACS CNF document from a reader.
///
/// Comment lines (`c …`) and empty lines are skipped. The `p cnf` header is
/// optional, but when present it comes once and before every clause, so
/// every literal is checked against the count it declares. A clause count
/// mismatch between the header and the body is tolerated (many real-world
/// files get it wrong); variable references beyond the declared count are an
/// error.
///
/// # Errors
///
/// Returns a [`ParseDimacsError`] describing the first problem encountered.
///
/// # Example
///
/// ```
/// use pdsat_cnf::dimacs;
/// let text = "c tiny\np cnf 2 2\n1 2 0\n-1 0\n";
/// let cnf = dimacs::parse(text.as_bytes())?;
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// # Ok::<(), dimacs::ParseDimacsError>(())
/// ```
pub fn parse<R: Read>(reader: R) -> Result<Cnf, ParseDimacsError> {
    let reader = BufReader::new(reader);
    let mut declared_vars: Option<usize> = None;
    let mut cnf = Cnf::new(0);
    let mut current: Vec<Lit> = Vec::new();
    let mut clause_open = false;

    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            let mut parts = trimmed.split_whitespace();
            let _p = parts.next();
            let kind = parts.next();
            let vars = parts.next().and_then(|t| t.parse::<usize>().ok());
            let clauses = parts.next().and_then(|t| t.parse::<usize>().ok());
            // A header after a literal or a second header would declare a
            // count the literals read so far were never checked against.
            if declared_vars.is_some() || !cnf.is_empty() || clause_open {
                return Err(ParseDimacsError::InvalidHeader { line: line_no });
            }
            match (kind, vars, clauses) {
                (Some("cnf"), Some(v), Some(_)) => {
                    if v > MAX_VARS {
                        return Err(ParseDimacsError::TooManyVariables { line: line_no });
                    }
                    declared_vars = Some(v);
                    cnf.ensure_vars(v);
                }
                _ => return Err(ParseDimacsError::InvalidHeader { line: line_no }),
            }
            continue;
        }
        for token in trimmed.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| ParseDimacsError::InvalidLiteral {
                    line: line_no,
                    token: token.to_string(),
                })?;
            if value == 0 {
                cnf.add_clause(current.drain(..));
                clause_open = false;
            } else {
                let lit = Lit::try_from_dimacs(value)
                    .ok_or(ParseDimacsError::TooManyVariables { line: line_no })?;
                if let Some(declared) = declared_vars {
                    if lit.var().index() >= declared {
                        return Err(ParseDimacsError::VariableOutOfRange {
                            var: lit.var().to_dimacs(),
                            declared,
                        });
                    }
                }
                current.push(lit);
                clause_open = true;
            }
        }
    }
    if clause_open {
        return Err(ParseDimacsError::UnterminatedClause);
    }
    if let Some(v) = declared_vars {
        cnf.ensure_vars(v);
    }
    Ok(cnf)
}

/// Parses a DIMACS CNF document from a string slice.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_str(text: &str) -> Result<Cnf, ParseDimacsError> {
    parse(text.as_bytes())
}

/// Serializes a formula to a DIMACS string.
#[must_use]
pub fn to_string(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.iter() {
        for lit in clause {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_document() {
        let cnf = parse_str("c hello\np cnf 3 2\n1 -2 0\n3 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0)[1], Lit::negative(Var::new(1)));
    }

    #[test]
    fn parses_clause_spanning_lines_and_multiple_clauses_per_line() {
        let cnf = parse_str("p cnf 3 2\n1 2\n3 0 -1 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0).len(), 3);
        assert_eq!(cnf.clause(1).len(), 1);
    }

    #[test]
    fn skips_blank_lines_and_interleaved_comments() {
        let text = "c leading comment\n\n   \np cnf 2 2\nc between clauses\n1 2 0\n\n% SATLIB-style trailer\n-1 0\n";
        let cnf = parse_str(text).unwrap();
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn comment_markers_must_start_the_line() {
        // `c` glued to literals is a token, not a comment.
        assert!(matches!(
            parse_str("p cnf 2 1\n1 c 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_str("p cnf x 2\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
    }

    #[test]
    fn rejects_short_header() {
        // Missing the clause count entirely.
        assert!(matches!(
            parse_str("p cnf 3\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        // Missing both counts.
        assert!(matches!(
            parse_str("p cnf\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
    }

    #[test]
    fn rejects_wrong_format_keyword() {
        assert!(matches!(
            parse_str("p sat 3 1\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
    }

    #[test]
    fn headerless_document_still_parses_clauses() {
        // The header is how most files declare sizes, but a missing header
        // only means no variable-range checking; clauses still load.
        let cnf = parse_str("1 -2 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.num_vars(), 2);
    }

    #[test]
    fn header_line_number_is_reported_after_comments() {
        assert!(matches!(
            parse_str("c one\nc two\np cnf oops 1\n"),
            Err(ParseDimacsError::InvalidHeader { line: 3 })
        ));
    }

    #[test]
    fn rejects_bad_literal() {
        assert!(matches!(
            parse_str("p cnf 2 1\n1 foo 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_unterminated_clause() {
        assert!(matches!(
            parse_str("p cnf 2 1\n1 2\n"),
            Err(ParseDimacsError::UnterminatedClause)
        ));
    }

    #[test]
    fn rejects_variable_beyond_header() {
        assert!(matches!(
            parse_str("p cnf 2 1\n5 0\n"),
            Err(ParseDimacsError::VariableOutOfRange {
                var: 5,
                declared: 2
            })
        ));
        // The polarity of the offending literal does not matter.
        assert!(matches!(
            parse_str("p cnf 2 1\n-3 0\n"),
            Err(ParseDimacsError::VariableOutOfRange {
                var: 3,
                declared: 2
            })
        ));
    }

    #[test]
    fn rejects_a_header_after_a_clause() {
        // The clause before the header was never checked against its count.
        assert!(matches!(
            parse_str("1 -100 0\np cnf 5 1\n"),
            Err(ParseDimacsError::InvalidHeader { line: 2 })
        ));
        // Nor is an open clause: its first literals came before the header.
        assert!(matches!(
            parse_str("1 -100\np cnf 5 1\n0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 2 })
        ));
    }

    #[test]
    fn rejects_a_second_header() {
        // Re-declaring the count would admit literals the first one refuses.
        assert!(matches!(
            parse_str("p cnf 5 1\n1 2 0\np cnf 200 1\n150 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 3 })
        ));
        assert!(matches!(
            parse_str("p cnf 5 1\np cnf 5 1\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 2 })
        ));
    }

    #[test]
    fn rejects_non_numeric_garbage_and_overflow() {
        assert!(matches!(
            parse_str("p cnf 2 1\n1 99999999999999999999999 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
        assert!(matches!(
            parse_str("p cnf 2 1\n1 2.5 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_variables_above_the_cap_before_sizing_anything() {
        let over = MAX_VARS + 1;
        for text in [
            format!("p cnf {over} 1\n1 0\n"),
            format!("{over} 0\n"),
            format!("{} 0\n", i64::MIN),
            format!("p cnf 2 1\n{} 0\n", i64::MIN),
        ] {
            assert!(
                matches!(
                    parse_str(&text),
                    Err(ParseDimacsError::TooManyVariables { line: 1 | 2 })
                ),
                "{text:?}"
            );
        }
        let at_cap = parse_str(&format!("p cnf {MAX_VARS} 1\n-{MAX_VARS} 0\n")).unwrap();
        assert_eq!(at_cap.num_vars(), MAX_VARS);
    }

    #[test]
    fn tolerates_clause_count_mismatch_and_extra_whitespace() {
        // Real-world headers often miscount clauses; tabs and runs of spaces
        // between tokens are all legal separators.
        let cnf = parse_str("p cnf 3 99\n  1\t-2   3 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clause(0).len(), 3);
    }

    #[test]
    fn empty_clause_roundtrip() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([]);
        let text = to_string(&cnf);
        let parsed = parse_str(&text).unwrap();
        assert_eq!(parsed.num_clauses(), 1);
        assert!(parsed.clause(0).is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let err = parse_str("p cnf 2 1\n5 0\n").unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    proptest! {
        #[test]
        fn roundtrip_random_formulas(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..20usize);
            let mut cnf = Cnf::new(n);
            for _ in 0..rng.gen_range(0..30usize) {
                let len = rng.gen_range(1..5usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..n) as u32), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(lits);
            }
            let text = to_string(&cnf);
            let parsed = parse_str(&text).unwrap();
            prop_assert_eq!(parsed, cnf);
        }
    }
}
