//! A MiniSat-class CDCL SAT solver.
//!
//! This crate implements the complete, deterministic algorithm `A` required
//! by the Monte Carlo partitioning estimator of Semenov & Zaikin (PaCT 2015).
//! The original PDSAT used a modified MiniSat; this is a from-scratch Rust
//! implementation of the same algorithm family:
//!
//! * two-watched-literal unit propagation, with binary and ternary clauses
//!   served from watch lists of their own that carry their literals inline,
//! * first-UIP clause learning with basic minimization,
//! * VSIDS variable activities with phase saving,
//! * Luby restarts,
//! * activity/LBD-driven learnt-clause deletion,
//! * incremental solving under assumptions (used to solve the sub-problems
//!   `C[X̃/α]` of a decomposition family without re-loading the formula),
//! * resource [`Budget`]s and a cooperative [`InterruptFlag`] (the equivalent
//!   of the non-blocking stop messages PDSAT's leader sends to its workers),
//! * per-variable conflict statistics, used by the tabu search heuristic of
//!   the paper to choose new neighbourhood centres.
//!
//! # Quick start
//!
//! ```
//! use pdsat_cnf::{Cnf, Lit, Var};
//! use pdsat_solver::{Budget, Solver, Verdict};
//!
//! let mut cnf = Cnf::new(3);
//! cnf.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
//! cnf.add_clause([Lit::negative(Var::new(0)), Lit::positive(Var::new(2))]);
//!
//! let mut solver = Solver::from_cnf(&cnf);
//! let verdict = solver.solve_limited(&[], &Budget::unlimited(), None);
//! assert!(verdict.is_sat());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause_db;
mod config;
mod heap;
mod luby;
mod proof;
mod solver;
mod stats;

pub use budget::{Budget, InterruptFlag, StopReason};
pub use config::SolverConfig;
pub use luby::luby;
pub use proof::ProofLogger;
pub use solver::{Solver, Verdict};
pub use stats::SolverStats;
