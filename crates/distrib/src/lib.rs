//! The distributed-computing layer of the reproduction: a closed-form model
//! of the paper's cluster plus a sharded, checkpointed coordinator that
//! actually processes decomposition families on a (simulated) volunteer
//! grid.
//!
//! Two levels of fidelity:
//!
//! * **The cluster model** ([`simulate_cluster`]) consumes per-sub-problem
//!   costs and answers *how long does the whole decomposition family take on
//!   this machine?* — cheap enough to call inside search loops.
//! * **The coordinator** ([`Coordinator`]) is the SAT@home server side in
//!   miniature: it shards a family into work units, leases them to clients
//!   over a pluggable [`Transport`], re-issues expired leases, validates a
//!   BOINC-style redundancy quorum, aggregates per-unit
//!   [`SolveReport`](pdsat_core::SolveReport)s idempotently, and checkpoints
//!   progress so a killed run resumes without losing completed units.
//!
//! One fault model per layer. The grid's faults — results lost, late,
//! duplicated or corrupted — come from the simulated client population
//! ([`ClientBehavior`]) behind the [`LoopbackTransport`], and the
//! coordinator recovers from them with lease expiry, re-issue and
//! idempotent result accounting. The [`CheckpointStore`]'s faults are
//! damaged bytes on disk, which its CRC framing detects and its double
//! buffer survives.
//!
//! # Example
//!
//! ```
//! use pdsat_distrib::{simulate_cluster, ClusterConfig};
//!
//! // 480 cubes of one second each on the paper's 480-core configuration.
//! let costs = vec![1.0; 480];
//! let report = simulate_cluster(&costs, &[], &ClusterConfig::matrosov_15_nodes());
//! assert!((report.makespan - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod codec;
mod coordinator;
mod lease;
mod store;
mod transport;

pub use client::{synthetic_host_population, ClientBehavior, ClientFate, Host, VolunteerClient};
pub use cluster::{simulate_cluster, ClusterConfig, ClusterReport};
pub use coordinator::{
    validate_unit_report, Coordinator, CoordinatorCheckpoint, CoordinatorConfig, CoordinatorStats,
    RunStatus,
};
pub use lease::{LeaseTable, ResultDisposition};
pub use pdsat_checker::CheckFailure;
pub use store::{crc32, CheckpointError, CheckpointStore};
pub use transport::{
    synthetic_family_solver, ClientId, ClientMsg, LoopbackConfig, LoopbackTransport, ServerMsg,
    Timed, Transport, TransportStats, WorkUnit, WorkUnitId,
};
