//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (on scaled instances) plus ablations of its design choices.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (A5/1 sets S1/S2/S3) | [`table1`] | `table1_a51` |
//! | Figures 1, 2a, 2b (A5/1 sets drawn over registers) | [`table1`], [`figures`] | `fig_a51_sets` |
//! | Table 2 (Bivium time estimations) | [`table2`] | `table2_bivium` |
//! | Figure 3 (Bivium set over registers) | [`table2`], [`figures`] | `fig_bivium_set` |
//! | Figure 4 (Grain set over registers) | [`figures`] | `fig_grain_set` |
//! | Table 3 (weakened BiviumK/GrainK) | [`table3`] | `table3_weakened` |
//! | §4.2 SAT@home narrative | [`sathome`] | `sathome_sim` |
//! | §3 design choices | [`ablations`] | `ablations` |
//!
//! Every experiment uses the deterministic conflict-count cost metric, so the
//! tables are identical across machines; DESIGN.md's "Benchmark ↔ paper
//! mapping" relates them to the paper's measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod sathome;
pub mod scaled;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod text_table;

pub use scaled::{backend_from_env, CipherKind, ScaledWorkload};
pub use text_table::{sci, TextTable};
