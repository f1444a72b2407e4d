//! The sharded, checkpointed distributed-solving coordinator — the
//! reproduction's stand-in for SAT@home's server side.
//!
//! A decomposition family (identified by its per-cube enumeration order) is
//! sharded into [`WorkUnit`]s of `work_unit_size` consecutive cubes. The
//! coordinator leases units to volunteer clients through a pluggable
//! [`Transport`], re-issues leases that expire, validates results against a
//! BOINC-style redundancy quorum, and aggregates the per-unit
//! [`SolveReport`]s idempotently (dedup keyed on work-unit id) into the
//! report of the whole family via [`SolveReport::merge_ordered`].
//!
//! Progress is durable: the set of completed units *is* the
//! [`CoordinatorCheckpoint`], which serializes to a line-oriented text form
//! that restores bit-for-bit. Killing the coordinator mid-run and resuming
//! from its last checkpoint re-leases only the unfinished units and yields a
//! final aggregate identical to an uninterrupted run.

use crate::codec;
use crate::lease::{LeaseTable, ResultDisposition};
use crate::store::CheckpointError;
use crate::transport::{ClientMsg, ServerMsg, Timed, Transport, WorkUnit, WorkUnitId};
use pdsat_checker::{check_model, check_unsat_proof, CheckFailure};
use pdsat_cnf::Cnf;
use pdsat_core::{DecompositionSet, SolveReport};
use std::collections::BTreeMap;

/// Configuration of a coordinator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorConfig {
    /// Number of consecutive cubes bundled into one work unit.
    pub work_unit_size: usize,
    /// Valid results required per unit from distinct clients (BOINC quorum;
    /// SAT@home used replication 2).
    pub redundancy: usize,
    /// Lease lifetime, seconds; an expired lease makes its unit assignable
    /// again.
    pub lease_timeout: f64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            work_unit_size: 8,
            redundancy: 2,
            lease_timeout: 86_400.0,
        }
    }
}

/// How a coordinator run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every work unit reached its quorum; the aggregate is available.
    Complete,
    /// The event budget ran out first (the "kill" of a kill/restart test —
    /// checkpoint and resume with a fresh coordinator).
    OutOfEvents,
    /// The transport went silent with units incomplete (every client gone
    /// and none replaced).
    Starved,
}

/// Observational counters of one coordinator run segment. Not part of the
/// checkpoint: a resumed run reports its own segment only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoordinatorStats {
    /// Leases handed out.
    pub assignments: usize,
    /// `NoWork` replies sent to polling clients.
    pub no_work_replies: usize,
    /// Leases that expired and were re-issued.
    pub expired_leases: usize,
    /// Results discarded by validation (all rejection kinds combined).
    pub invalid_results: usize,
    /// The subset of `invalid_results` rejected by *semantic* checking —
    /// a claimed model that does not satisfy the formula, or an UNSAT
    /// certificate that fails the DRAT check — as opposed to transport
    /// integrity or shape failures. A non-zero count is the volunteer-grid
    /// equivalent of a hostile (or broken) client.
    pub rejected_certificates: usize,
    /// Results discarded because the client had already contributed to the
    /// unit (duplicate uploads) or the unit was already complete.
    pub duplicate_results: usize,
    /// Valid results that arrived after their lease expired but still
    /// counted.
    pub late_results: usize,
    /// Messages processed in this segment.
    pub events_processed: u64,
    /// Simulated instant the last quorum was reached (0 if none yet).
    pub makespan: f64,
}

/// The durable state of a coordinator: everything needed to resume after a
/// crash without losing completed work units.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorCheckpoint {
    /// Decomposition-set size of the family (shared by every unit report).
    pub set_size: usize,
    /// Number of cubes in the whole family.
    pub total_cubes: usize,
    /// Shard width the family was split with (a checkpoint only resumes
    /// under the same sharding).
    pub work_unit_size: usize,
    /// Canonical report of every completed unit, keyed by unit id.
    pub completed: BTreeMap<WorkUnitId, SolveReport>,
}

/// The shape every report of a unit of `num_cubes` cubes has, whether it
/// arrives as an upload or is restored from checkpoint text: it covers
/// exactly the unit's slice, cube for cube, what it counts and points at
/// lies inside that slice, and it names a first satisfiable cube exactly
/// when it counts one.
pub(crate) fn report_fits_unit(report: &SolveReport, set_size: usize, num_cubes: usize) -> bool {
    report.set_size == set_size
        && report.cubes_processed == num_cubes
        && report.per_cube_costs.len() == num_cubes
        && report
            .sat_count
            .checked_add(report.unknown_count)
            .is_some_and(|counted| counted <= num_cubes)
        && report.first_sat_index.is_none_or(|local| local < num_cubes)
        && report.first_sat_index.is_some() == (report.sat_count > 0)
}

impl CoordinatorCheckpoint {
    /// Largest number of work units [`from_text`](Self::from_text) accepts.
    /// A resumed coordinator builds its unit and lease tables (about 90
    /// bytes per unit) from the family line before reading a single unit, so
    /// this one number decides how much an 80-byte file can make it
    /// allocate: 2^22 is 64 times the largest family sharded here (the
    /// benchmark's 65,536-unit scaling row) and caps those tables below
    /// 400 MiB.
    pub const MAX_UNITS: usize = 1 << 22;

    /// The empty checkpoint of a family: no units completed yet.
    #[must_use]
    pub fn empty(set_size: usize, total_cubes: usize, work_unit_size: usize) -> Self {
        CoordinatorCheckpoint {
            set_size,
            total_cubes,
            work_unit_size,
            completed: BTreeMap::new(),
        }
    }

    /// Number of work units the family shards into.
    #[must_use]
    pub fn num_units(&self) -> usize {
        self.total_cubes.div_ceil(self.work_unit_size.max(1))
    }

    /// Number of cubes in unit `index` (the last unit of a family may be
    /// short).
    pub(crate) fn unit_cubes(&self, index: usize) -> usize {
        self.work_unit_size
            .min(self.total_cubes - index * self.work_unit_size)
    }

    /// `true` once every unit's report is present.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.num_units()
    }

    /// Serializes the checkpoint into a line-oriented text form restored
    /// **bit-for-bit** by [`from_text`](CoordinatorCheckpoint::from_text):
    /// floats travel as hex-encoded IEEE-754 bits, models as one character
    /// per variable. This codec is what makes coordinator progress
    /// crash-safe on disk.
    #[must_use]
    pub fn to_text(&self) -> String {
        String::from_utf8(codec::write_text(self)).expect("the checkpoint writer writes ASCII")
    }

    /// Parses the text form produced by
    /// [`to_text`](CoordinatorCheckpoint::to_text).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] describing the first bad line:
    /// one that does not parse, a family of zero-cube units or of more than
    /// [`MAX_UNITS`](Self::MAX_UNITS) of them, or a unit report that does not
    /// have the shape of its slice of the family (the rule uploads pass).
    pub fn from_text(text: &str) -> Result<CoordinatorCheckpoint, CheckpointError> {
        codec::read_text(text.as_bytes())
    }
}

/// The coordinator itself: shards one family, drives a [`Transport`], and
/// accumulates the durable [`CoordinatorCheckpoint`].
#[derive(Debug, Clone)]
pub struct Coordinator {
    checkpoint: CoordinatorCheckpoint,
    units: Vec<WorkUnit>,
    leases: LeaseTable,
    stats: CoordinatorStats,
}

impl Coordinator {
    /// Creates a coordinator for a family of `total_cubes` cubes over a
    /// decomposition set of `set_size` variables, starting from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `config.work_unit_size` or `config.redundancy` is zero, or
    /// `config.lease_timeout` is not positive.
    #[must_use]
    pub fn new(set_size: usize, total_cubes: usize, config: &CoordinatorConfig) -> Coordinator {
        assert!(
            config.work_unit_size > 0,
            "work units bundle at least one cube"
        );
        Coordinator::resume(
            CoordinatorCheckpoint::empty(set_size, total_cubes, config.work_unit_size),
            config,
        )
    }

    /// Rebuilds a coordinator from a checkpoint: units already present in
    /// the checkpoint are marked complete and never re-leased; everything
    /// else is leased out as usual. This is the crash-recovery path — no
    /// completed work unit is ever recomputed.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shard width differs from the config's, if
    /// `config.redundancy` is zero, or `config.lease_timeout` is not
    /// positive.
    #[must_use]
    pub fn resume(checkpoint: CoordinatorCheckpoint, config: &CoordinatorConfig) -> Coordinator {
        assert_eq!(
            checkpoint.work_unit_size, config.work_unit_size,
            "a checkpoint only resumes under the sharding that produced it"
        );
        let num_units = checkpoint.num_units();
        let units: Vec<WorkUnit> = (0..num_units)
            .map(|i| WorkUnit {
                id: i as WorkUnitId,
                first_cube: i * checkpoint.work_unit_size,
                num_cubes: checkpoint.unit_cubes(i),
            })
            .collect();
        let mut leases = LeaseTable::new(num_units, config.redundancy, config.lease_timeout);
        for &id in checkpoint.completed.keys() {
            leases.mark_complete(id);
        }
        Coordinator {
            checkpoint,
            units,
            leases,
            stats: CoordinatorStats::default(),
        }
    }

    /// The durable state: clone it, serialize it with
    /// [`CoordinatorCheckpoint::to_text`], persist it, resume from it.
    #[must_use]
    pub fn checkpoint(&self) -> &CoordinatorCheckpoint {
        &self.checkpoint
    }

    /// This segment's observational counters.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Number of work units of the family.
    #[must_use]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// `true` once every unit reached its quorum.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.leases.all_complete()
    }

    /// Drives the transport until the family completes, the transport goes
    /// silent, or `max_events` messages have been processed (`None` = no
    /// budget — run to completion or starvation).
    ///
    /// The event budget is the test hook for crash recovery: a run cut off
    /// by `OutOfEvents` models a killed coordinator whose last persisted
    /// checkpoint is [`checkpoint`](Coordinator::checkpoint).
    ///
    /// Results pass only the transport integrity and shape checks; use
    /// [`run_validated`](Coordinator::run_validated) to also check claimed
    /// models and UNSAT certificates before a result may count towards a
    /// quorum.
    pub fn run<T: Transport>(&mut self, transport: &mut T, max_events: Option<u64>) -> RunStatus {
        self.run_validated(transport, max_events, &mut |_, _| Ok(()))
    }

    /// [`run`](Coordinator::run) with a semantic validator in the trust path:
    /// every submitted result that passes the integrity and shape checks is
    /// handed to `validate` together with its work unit, and only an `Ok`
    /// verdict lets it count towards the unit's quorum. A rejected result is
    /// recorded as [`ResultDisposition::Rejected`] — the unit stays
    /// incomplete and is re-leased, exactly as if the upload were corrupted.
    ///
    /// [`validate_unit_report`] is the intended validator: it model-checks
    /// claimed SAT answers and DRAT-checks attached UNSAT certificates.
    /// Certificates are *stripped* after validation — checkpoints store only
    /// the checked verdicts, never the proofs.
    pub fn run_validated<T: Transport>(
        &mut self,
        transport: &mut T,
        max_events: Option<u64>,
        validate: &mut dyn FnMut(&WorkUnit, &SolveReport) -> Result<(), CheckFailure>,
    ) -> RunStatus {
        while !self.is_complete() {
            if max_events.is_some_and(|budget| self.stats.events_processed >= budget) {
                return RunStatus::OutOfEvents;
            }
            let Some(Timed { at: now, payload }) = transport.recv() else {
                return RunStatus::Starved;
            };
            self.stats.events_processed += 1;
            self.stats.expired_leases += self.leases.expire(now);
            match payload {
                ClientMsg::RequestWork { client } => match self.leases.next_assignment(client) {
                    Some(id) => {
                        self.leases.issue(id, client, now);
                        self.stats.assignments += 1;
                        transport.send(client, ServerMsg::Assign(self.units[id as usize]), now);
                    }
                    None => {
                        self.stats.no_work_replies += 1;
                        transport.send(client, ServerMsg::NoWork, now);
                    }
                },
                ClientMsg::SubmitResult {
                    client,
                    unit,
                    mut report,
                    checksum_ok,
                } => {
                    // The unit id comes off the wire: one outside the family
                    // has no lease state, and the upload is rejected without
                    // the table hearing of it.
                    let disposition = match self.units.get(unit as usize).copied() {
                        Some(work_unit) => {
                            let valid = self.validate_submission(
                                &work_unit,
                                &report,
                                checksum_ok,
                                validate,
                            );
                            self.leases.record_result(unit, client, valid)
                        }
                        None => ResultDisposition::Rejected(CheckFailure::Shape),
                    };
                    match disposition {
                        ResultDisposition::Counted {
                            quorum_reached,
                            late,
                        } => {
                            if late {
                                self.stats.late_results += 1;
                            }
                            // Certificates were checked above; only the
                            // verdicts are durable (the checkpoint codec
                            // never carries proofs).
                            report.certificates.clear();
                            // Idempotent aggregation: the first counted
                            // result pins the unit's canonical report;
                            // replicas never overwrite it.
                            self.checkpoint.completed.entry(unit).or_insert(*report);
                            if quorum_reached {
                                self.stats.makespan = self.stats.makespan.max(now);
                            }
                        }
                        ResultDisposition::AlreadyComplete | ResultDisposition::DuplicateClient => {
                            self.stats.duplicate_results += 1;
                        }
                        ResultDisposition::Rejected(failure) => {
                            self.stats.invalid_results += 1;
                            if !matches!(failure, CheckFailure::Checksum | CheckFailure::Shape) {
                                self.stats.rejected_certificates += 1;
                            }
                        }
                    }
                }
            }
        }
        RunStatus::Complete
    }

    /// The coordinator-side validation pipeline of one submission: transport
    /// integrity, then report shape against the claimed unit, then the
    /// caller's semantic validator.
    fn validate_submission(
        &self,
        work_unit: &WorkUnit,
        report: &SolveReport,
        checksum_ok: bool,
        validate: &mut dyn FnMut(&WorkUnit, &SolveReport) -> Result<(), CheckFailure>,
    ) -> Result<(), CheckFailure> {
        if !checksum_ok {
            return Err(CheckFailure::Checksum);
        }
        if !report_fits_unit(report, self.checkpoint.set_size, work_unit.num_cubes) {
            return Err(CheckFailure::Shape);
        }
        validate(work_unit, report)
    }

    /// Merges the completed units, in enumeration order, into the report of
    /// the whole family. `None` until every unit is complete (the merge
    /// requires contiguous coverage).
    #[must_use]
    pub fn aggregate(&self) -> Option<SolveReport> {
        if !self.is_complete() {
            return None;
        }
        Some(SolveReport::merge_ordered(
            self.checkpoint.set_size,
            self.checkpoint.completed.values(),
        ))
    }
}

/// The coordinator-side *semantic* validator for [`Coordinator::run_validated`]:
/// checks everything a unit report claims about the actual formula.
///
/// * The report must have the unit's shape — the shape rule uploads and
///   checkpoint text share — or it is [`CheckFailure::Shape`]: a count of
///   satisfiable cubes with no first one named, or the reverse, claims a
///   model it never ships.
/// * A claimed satisfiable cube must ship a model that sets every literal of
///   the cube and satisfies every clause of `cnf`
///   ([`CheckFailure::ModelMissing`] / [`AssumptionViolated`](CheckFailure::AssumptionViolated) /
///   [`ModelUnsat`](CheckFailure::ModelUnsat) otherwise). The model check is
///   one linear scan — cheap enough to run on every ingestion.
/// * Every attached DRAT certificate must refute `cnf ∧ cube` under forward
///   RUP checking, with the cube reconstructed from the unit's enumeration
///   window ([`CheckFailure::CertificateIndex`] for an index outside it).
///   Certificates must come in strictly ascending cube order, as honest
///   reports list them: a repeated or out-of-order index is
///   [`CheckFailure::CertificateIndex`] before any proof is checked, so one
///   upload cannot make the coordinator check the same cube twice.
///
/// Reports from solvers running without `SolverConfig::proof` carry no
/// certificates and only pay the model scan.
pub fn validate_unit_report(
    cnf: &Cnf,
    set: &DecompositionSet,
    unit: &WorkUnit,
    report: &SolveReport,
) -> Result<(), CheckFailure> {
    if !report_fits_unit(report, set.len(), unit.num_cubes) {
        return Err(CheckFailure::Shape);
    }
    if let Some(local) = report.first_sat_index {
        let Some(model) = report.model.as_ref() else {
            return Err(CheckFailure::ModelMissing);
        };
        let cube = set.cube_from_index((unit.first_cube + local) as u64);
        check_model(cnf, cube.lits(), model)?;
    }
    let certs = &report.certificates;
    if certs.windows(2).any(|w| w[0].cube_index >= w[1].cube_index)
        || certs
            .last()
            .is_some_and(|c| c.cube_index >= report.cubes_processed)
    {
        return Err(CheckFailure::CertificateIndex);
    }
    for cert in certs {
        let cube = set.cube_from_index((unit.first_cube + cert.cube_index) as u64);
        check_unsat_proof(cnf, cube.lits(), &cert.proof)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CHECKPOINT_HEADER;
    use crate::transport::{synthetic_family_solver, ClientId, LoopbackConfig, LoopbackTransport};
    use crate::{ClientBehavior, ClientPopulation, GridTestPolicy};
    use pdsat_cnf::{Assignment, Var};
    use pdsat_core::FamilyCounters;
    use std::time::Duration;

    fn costs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.75).collect()
    }

    fn chaotic_loopback(seed: u64) -> LoopbackConfig {
        LoopbackConfig {
            num_clients: 12,
            seed,
            poll_interval: 300.0,
        }
    }

    #[test]
    fn completes_a_family_under_chaos_and_aggregates_every_cube_once() {
        let family = costs(100);
        let total: f64 = family.iter().sum();
        let config = CoordinatorConfig {
            work_unit_size: 8,
            redundancy: 2,
            lease_timeout: 40_000.0,
        };
        let mut coordinator = Coordinator::new(3, family.len(), &config);
        let mut transport = LoopbackTransport::new(
            chaotic_loopback(42),
            synthetic_family_solver(3, family.clone(), Some(23)),
        );
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
        let aggregate = coordinator.aggregate().expect("complete run aggregates");
        assert_eq!(aggregate.cubes_processed, family.len());
        assert_eq!(aggregate.per_cube_costs, family);
        assert!((aggregate.total_cost - total).abs() < 1e-9);
        // Cube 22 is the first synthetic SAT cube (sat_every = 23).
        assert_eq!(aggregate.first_sat_index, Some(22));
        let prefix: f64 = family[..23].iter().sum();
        assert!((aggregate.cost_to_first_sat.unwrap() - prefix).abs() < 1e-9);
        let stats = coordinator.stats();
        // Redundancy 2 means at least two assignments per unit.
        assert!(stats.assignments >= 2 * coordinator.num_units());
        assert!(stats.makespan > 0.0);
    }

    /// Runs a 400-cube family on four clients that all leave the grid
    /// within `horizon` seconds, replacing them as `replace_departed` says.
    fn run_on_churning_clients(horizon: f64, replace_departed: bool) -> (RunStatus, Coordinator) {
        let family = costs(400);
        let config = CoordinatorConfig {
            work_unit_size: 4,
            redundancy: 2,
            lease_timeout: 5_000.0,
        };
        let behavior = ClientBehavior {
            churn_prob: 1.0,
            churn_horizon: horizon,
            ..ClientBehavior::default()
        };
        let mut coordinator = Coordinator::new(2, family.len(), &config);
        let mut transport = LoopbackTransport::with_test_policy(
            LoopbackConfig {
                num_clients: 4,
                seed: 9,
                poll_interval: 100.0,
            },
            GridTestPolicy {
                population: ClientPopulation::Synthetic(behavior),
                replace_departed,
            },
            synthetic_family_solver(2, family, None),
        );
        (coordinator.run(&mut transport, None), coordinator)
    }

    #[test]
    fn starves_without_replacement_when_every_client_churns() {
        let (status, coordinator) = run_on_churning_clients(2_000.0, false);
        assert_eq!(status, RunStatus::Starved);
        assert!(coordinator.aggregate().is_none());
    }

    /// The departure instant is absolute, so a replacement that joins after
    /// the horizon leaves at its first assignment: at 2,000 s no population
    /// finishes. At 50,000 s the four first clients leave too early and
    /// their replacements finish.
    #[test]
    fn completes_under_the_default_replacement_when_every_client_churns() {
        let replace = GridTestPolicy::default().replace_departed;
        let (status, coordinator) = run_on_churning_clients(50_000.0, replace);
        assert_eq!(status, RunStatus::Complete);
        assert!(coordinator.aggregate().is_some());
        let (status, _) = run_on_churning_clients(50_000.0, false);
        assert_eq!(status, RunStatus::Starved);
    }

    #[test]
    fn checkpoint_text_codec_round_trips_bit_for_bit() {
        let family = costs(37);
        let config = CoordinatorConfig {
            work_unit_size: 5,
            redundancy: 1,
            lease_timeout: 10_000.0,
        };
        let mut coordinator = Coordinator::new(4, family.len(), &config);
        let mut transport = LoopbackTransport::new(
            chaotic_loopback(7),
            synthetic_family_solver(4, family, Some(10)),
        );
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
        let text = coordinator.checkpoint().to_text();
        let restored = CoordinatorCheckpoint::from_text(&text).expect("round-trip");
        assert_eq!(restored.to_text(), text);
        assert_eq!(&restored, coordinator.checkpoint());

        // A model with assigned and unassigned variables survives the codec,
        // and so do the reserved v1 slots, whatever number they hold.
        let mut with_model = coordinator.checkpoint().clone();
        let mut model = Assignment::new(5);
        model.assign(Var::new(0), true);
        model.assign(Var::new(3), false);
        {
            let unit = with_model.completed.get_mut(&0).expect("unit 0 completed");
            unit.model = Some(model.clone());
            unit.counters.exported_clauses = 17;
            unit.counters.imported_clauses = 5;
            unit.counters.import_dropped = 2;
        }
        let restored =
            CoordinatorCheckpoint::from_text(&with_model.to_text()).expect("model round-trip");
        assert_eq!(restored.completed[&0].model.as_ref(), Some(&model));
        assert_eq!(restored.completed[&0].counters.exported_clauses, 17);
        assert_eq!(restored.completed[&0].counters.imported_clauses, 5);
        assert_eq!(restored.completed[&0].counters.import_dropped, 2);

        // Malformed inputs are rejected, not mis-parsed.
        assert!(CoordinatorCheckpoint::from_text("").is_err());
        assert!(CoordinatorCheckpoint::from_text("pdsat-coordinator-checkpoint v2\n").is_err());
        assert!(CoordinatorCheckpoint::from_text(
            "pdsat-coordinator-checkpoint v1\nfamily set_size=1 total_cubes=4\n"
        )
        .is_err());
        assert!(CoordinatorCheckpoint::from_text(
            "pdsat-coordinator-checkpoint v1\nfamily set_size=1 total_cubes=4 work_unit_size=2\nunit 7 2 0 0 0 0 0 0 0 0 0 - - - -\n"
        )
        .is_err());
    }

    /// The unit line as written today (17 fields), spelled out by hand rather
    /// than produced by the writer: a checkpoint on somebody's disk must keep
    /// loading, field for field, whatever happens to the structs around it.
    const GOLDEN: &str = "pdsat-coordinator-checkpoint v1\n\
        family set_size=2 total_cubes=4 work_unit_size=2\n\
        unit 1 2 4014000000000000 1 0 1500 3 7 11 12 13 14 15 1 4014000000000000 10x1 \
        4008000000000000,4000000000000000\n";

    #[test]
    fn golden_17_field_checkpoint_loads_and_reserializes_byte_identically() {
        let checkpoint = CoordinatorCheckpoint::from_text(GOLDEN).expect("golden text loads");
        assert_eq!(
            (
                checkpoint.set_size,
                checkpoint.total_cubes,
                checkpoint.work_unit_size
            ),
            (2, 4, 2)
        );
        assert_eq!(checkpoint.completed.len(), 1);
        let unit = &checkpoint.completed[&1];
        assert_eq!(unit.set_size, 2);
        assert_eq!(unit.cubes_processed, 2);
        assert_eq!(unit.total_cost, 5.0);
        assert_eq!(unit.sat_count, 1);
        assert_eq!(unit.unknown_count, 0);
        assert_eq!(unit.wall_time, Duration::from_nanos(1500));
        assert_eq!(unit.counters.reused_assumptions, 3);
        assert_eq!(unit.counters.saved_propagations, 7);
        assert_eq!(unit.counters.exported_clauses, 11);
        assert_eq!(unit.counters.imported_clauses, 12);
        assert_eq!(unit.counters.import_dropped, 13);
        assert_eq!(unit.counters.worker_panics, 14);
        assert_eq!(unit.counters.requeued_cubes, 15);
        assert_eq!(unit.first_sat_index, Some(1));
        assert_eq!(unit.cost_to_first_sat, Some(5.0));
        let mut model = Assignment::new(4);
        model.assign(Var::new(0), true);
        model.assign(Var::new(1), false);
        model.assign(Var::new(3), true);
        assert_eq!(unit.model.as_ref(), Some(&model));
        assert_eq!(unit.per_cube_costs, vec![3.0, 2.0]);
        assert!(unit.certificates.is_empty());
        assert_eq!(checkpoint.to_text(), GOLDEN);
    }

    /// Hostile checkpoint text: a family line that sizes the unit table, and
    /// a unit line that claims more than its slice of the family holds.
    #[test]
    fn checkpoint_text_that_does_not_fit_its_family_is_malformed() {
        let load = |family: &str, unit: &str| {
            CoordinatorCheckpoint::from_text(&format!("{CHECKPOINT_HEADER}\n{family}\n{unit}"))
        };
        let is_malformed = |result: Result<CoordinatorCheckpoint, CheckpointError>| {
            matches!(result, Err(CheckpointError::Malformed { .. }))
        };
        // `Coordinator::resume` would build usize::MAX work units.
        assert!(is_malformed(load(
            "family set_size=3 total_cubes=18446744073709551615 work_unit_size=1",
            ""
        )));
        assert!(is_malformed(load(
            "family set_size=3 total_cubes=8 work_unit_size=0",
            ""
        )));
        // The cap is on units, not cubes.
        let units = CoordinatorCheckpoint::MAX_UNITS;
        let family = |units: usize| {
            format!(
                "family set_size=40 total_cubes={} work_unit_size=1024",
                units * 1024
            )
        };
        assert_eq!(load(&family(units), "").map(|c| c.num_units()), Ok(units));
        assert!(is_malformed(load(&family(units + 1), "")));

        // Seven cubes claimed for a two-cube unit, one cost, nine SAT cubes,
        // the first of them at 5: `aggregate()` would report nine cubes
        // processed for a family of four.
        let small = "family set_size=2 total_cubes=4 work_unit_size=2";
        assert!(is_malformed(load(
            small,
            "unit 0 7 4014000000000000 9 9 1500 3 7 11 12 13 14 15 5 4014000000000000 - \
             4008000000000000"
        )));
        // Each clause of the shape rule on its own.
        let unit = |cubes: &str, sat: &str, unknown: &str, first_sat: &str, costs: &str| {
            format!("unit 1 {cubes} 4014000000000000 {sat} {unknown} 1500 0 0 0 0 0 0 0 {first_sat} - - {costs}")
        };
        let two_costs = "4008000000000000,4000000000000000";
        assert!(load(small, &unit("2", "1", "1", "1", two_costs)).is_ok());
        assert!(is_malformed(load(
            small,
            &unit("1", "0", "0", "-", "4008000000000000")
        )));
        assert!(is_malformed(load(
            small,
            &unit("2", "0", "0", "-", "4008000000000000")
        )));
        assert!(is_malformed(load(
            small,
            &unit("2", "2", "1", "-", two_costs)
        )));
        assert!(is_malformed(load(
            small,
            &unit("2", "1", "0", "2", two_costs)
        )));
        // A SAT count without a first satisfiable cube, and the reverse.
        assert!(is_malformed(load(
            small,
            &unit("2", "1", "0", "-", two_costs)
        )));
        assert!(is_malformed(load(
            small,
            &unit("2", "0", "0", "1", two_costs)
        )));
    }

    /// Seven distinct values written through the ordered view land in fields
    /// 7–13 of the golden unit line, under the v1 names: reordering the
    /// counter list (or inserting anywhere but at its end) fails here.
    #[test]
    fn counters_written_through_the_ordered_view_keep_their_v1_field_positions() {
        assert_eq!(
            FamilyCounters::NAMES,
            [
                "reused_assumptions",
                "saved_propagations",
                "exported_clauses",
                "imported_clauses",
                "import_dropped",
                "worker_panics",
                "requeued_cubes",
            ]
        );
        let mut checkpoint = CoordinatorCheckpoint::from_text(GOLDEN).expect("golden text loads");
        let unit = checkpoint.completed.get_mut(&1).expect("unit 1 present");
        unit.counters = FamilyCounters::default();
        for (counter, value) in unit
            .counters
            .values_mut()
            .into_iter()
            .zip([3, 7, 11, 12, 13, 14, 15])
        {
            *counter = value;
        }
        let text = checkpoint.to_text();
        let fields: Vec<&str> = text.lines().nth(2).expect("unit line").split(' ').collect();
        assert_eq!(fields.len(), 18, "'unit' and 17 positional fields");
        assert_eq!(fields[7..14], ["3", "7", "11", "12", "13", "14", "15"]);
        assert_eq!(text, GOLDEN);
    }

    /// A hand-scripted transport: a fixed queue of client messages, with
    /// the coordinator's replies recorded and answered by nothing (the
    /// script already contains every follow-up). Lets tests inject hostile
    /// uploads and wire faults the loopback's clients never produce.
    struct Scripted {
        queue: std::collections::VecDeque<Timed<ClientMsg>>,
        sent: Vec<(ClientId, ServerMsg)>,
    }

    impl Transport for Scripted {
        fn send(&mut self, to: ClientId, msg: ServerMsg, _now: f64) {
            self.sent.push((to, msg));
        }
        fn recv(&mut self) -> Option<Timed<ClientMsg>> {
            self.queue.pop_front()
        }
    }

    /// The messages at the given arrival times.
    fn scripted_at(msgs: Vec<(f64, ClientMsg)>) -> Scripted {
        Scripted {
            queue: msgs
                .into_iter()
                .map(|(at, payload)| Timed { at, payload })
                .collect(),
            sent: Vec::new(),
        }
    }

    /// The messages one second apart.
    fn scripted(msgs: Vec<ClientMsg>) -> Scripted {
        scripted_at(
            msgs.into_iter()
                .enumerate()
                .map(|(i, payload)| (i as f64, payload))
                .collect(),
        )
    }

    /// Faults of the wire rather than of a client: a request delivered
    /// twice, an upload delivered twice, a client that falls silent holding
    /// a lease. Each costs time and never a result.
    #[test]
    fn duplicated_and_lost_messages_are_absorbed_by_the_lease_table() {
        let config = |redundancy, lease_timeout| CoordinatorConfig {
            work_unit_size: 2,
            redundancy,
            lease_timeout,
        };
        let mut report = SolveReport::empty(1);
        report.cubes_processed = 2;
        report.per_cube_costs = vec![1.0, 1.0];
        report.total_cost = 2.0;
        let request = |client| ClientMsg::RequestWork { client };
        let submit = |client| ClientMsg::SubmitResult {
            client,
            unit: 0,
            report: Box::new(report.clone()),
            checksum_ok: true,
        };
        // One unit of two cubes.
        let unit = WorkUnit {
            id: 0,
            first_cube: 0,
            num_cubes: 2,
        };

        // A request delivered twice at the same instant: the unit needs two
        // replicas, but never two from one client.
        let mut coordinator = Coordinator::new(1, 2, &config(2, 1e9));
        let mut transport = scripted_at(vec![(0.0, request(0)), (0.0, request(0))]);
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Starved);
        assert_eq!(
            transport.sent,
            [(0, ServerMsg::Assign(unit)), (0, ServerMsg::NoWork)]
        );

        // An upload delivered twice counts once.
        let mut coordinator = Coordinator::new(1, 2, &config(2, 1e9));
        let mut transport = scripted_at(vec![
            (0.0, request(0)),
            (0.0, request(1)),
            (1.0, submit(0)),
            (1.0, submit(0)),
            (2.0, submit(1)),
        ]);
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
        let stats = coordinator.stats();
        assert_eq!((stats.assignments, stats.duplicate_results), (2, 1));
        assert_eq!(stats.invalid_results, 0);

        // Client 0 falls silent after its assignment: the unit stays leased
        // until the lease expires, then goes to client 1.
        let mut coordinator = Coordinator::new(1, 2, &config(1, 10.0));
        let mut transport = scripted_at(vec![
            (0.0, request(0)),
            (5.0, request(1)),
            (20.0, request(1)),
            (21.0, submit(1)),
        ]);
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
        assert_eq!(
            transport.sent,
            [
                (0, ServerMsg::Assign(unit)),
                (1, ServerMsg::NoWork),
                (1, ServerMsg::Assign(unit)),
            ]
        );
        assert_eq!(coordinator.stats().expired_leases, 1);
        assert_eq!(coordinator.checkpoint().completed[&0], report);
    }

    #[test]
    fn forged_models_are_rejected_until_an_honest_replica_arrives() {
        use pdsat_cnf::Lit;
        // C = (x0 ∨ x1), set = {x0}: both cubes satisfiable.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
        let set = DecompositionSet::new([Var::new(0)]);
        let config = CoordinatorConfig {
            work_unit_size: 2,
            redundancy: 1,
            lease_timeout: 1e9,
        };
        let honest = {
            let mut r = SolveReport::empty(1);
            r.cubes_processed = 2;
            r.per_cube_costs = vec![1.0, 1.0];
            r.total_cost = 2.0;
            r.sat_count = 2;
            r.first_sat_index = Some(0);
            r.cost_to_first_sat = Some(1.0);
            // Cube 0 is ¬x0, so the model must set x1.
            let mut model = Assignment::new(2);
            model.assign(Var::new(0), false);
            model.assign(Var::new(1), true);
            r.model = Some(model);
            r
        };
        let forged = {
            let mut r = honest.clone();
            // Claims SAT with a model that falsifies the only clause.
            let mut model = Assignment::new(2);
            model.assign(Var::new(0), false);
            model.assign(Var::new(1), false);
            r.model = Some(model);
            r
        };
        let modeless = {
            let mut r = honest.clone();
            r.model = None;
            r
        };
        let mut coordinator = Coordinator::new(1, 2, &config);
        let mut transport = scripted(vec![
            ClientMsg::SubmitResult {
                client: 0,
                unit: 0,
                report: Box::new(forged),
                checksum_ok: true, // the upload itself is intact
            },
            ClientMsg::SubmitResult {
                client: 1,
                unit: 0,
                report: Box::new(modeless),
                checksum_ok: true,
            },
            ClientMsg::SubmitResult {
                client: 2,
                unit: 0,
                report: Box::new(honest),
                checksum_ok: true,
            },
        ]);
        let status = coordinator.run_validated(&mut transport, None, &mut |unit, report| {
            validate_unit_report(&cnf, &set, unit, report)
        });
        // The forged and model-less uploads are rejected despite passing the
        // checksum; only the honest replica completes the unit.
        assert_eq!(status, RunStatus::Complete);
        let stats = coordinator.stats();
        assert_eq!(stats.invalid_results, 2);
        assert_eq!(stats.rejected_certificates, 2);
        let aggregate = coordinator.aggregate().expect("honest replica counted");
        let model = aggregate.model.expect("model kept");
        assert!(cnf.is_satisfied_by(&model));
    }

    /// The unit id of an upload comes off the wire: one outside the family
    /// is a malformed upload, not an index into the lease table.
    #[test]
    fn a_result_naming_a_unit_outside_the_family_is_rejected_without_a_panic() {
        let config = CoordinatorConfig {
            work_unit_size: 2,
            redundancy: 1,
            lease_timeout: 1e9,
        };
        let mut report = SolveReport::empty(1);
        report.cubes_processed = 2;
        report.per_cube_costs = vec![1.0, 1.0];
        report.total_cost = 2.0;
        let submit = |client, unit, checksum_ok| ClientMsg::SubmitResult {
            client,
            unit,
            report: Box::new(report.clone()),
            checksum_ok,
        };
        // A family of one unit.
        let mut coordinator = Coordinator::new(1, 2, &config);
        let mut transport = scripted(vec![
            submit(0, 7, true),
            submit(0, WorkUnitId::MAX, false),
            submit(0, 0, true),
        ]);
        assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
        let stats = coordinator.stats();
        assert_eq!(stats.invalid_results, 2);
        assert_eq!(
            stats.rejected_certificates, 0,
            "a shape failure, not a proof"
        );
        assert_eq!(stats.duplicate_results, 0);
        // The client's standing is untouched: its honest upload counts.
        assert_eq!(
            coordinator
                .checkpoint()
                .completed
                .keys()
                .collect::<Vec<_>>(),
            [&0]
        );
    }

    #[test]
    fn unsat_certificates_are_checked_and_stripped_from_the_checkpoint() {
        use pdsat_cnf::{Cube, DratProof, DratStep, Lit};
        use pdsat_core::{CubeCertificate, FamilySolver, SolveModeConfig};
        use pdsat_solver::SolverConfig;
        // Pigeonhole 4→3: every cube of any family is UNSAT.
        let (pigeons, holes) = (4usize, 3usize);
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * holes + j) as u32));
        let mut cnf = Cnf::new(pigeons * holes);
        for i in 0..pigeons {
            cnf.add_clause((0..holes).map(|j| var(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    cnf.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        let set = DecompositionSet::new((0..2).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let solve_config = SolveModeConfig {
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            backend: pdsat_core::BackendKind::Fresh,
            ..SolveModeConfig::default()
        };
        let config = CoordinatorConfig {
            work_unit_size: 2,
            redundancy: 1,
            lease_timeout: 1e9,
        };
        // Each unit solved locally with proof logging on: real certificates.
        let mut solver = FamilySolver::new(&cnf, &solve_config);
        let unit0 = solver.solve_cubes(&set, &cubes[0..2], None);
        let unit1 = solver.solve_cubes(&set, &cubes[2..4], None);
        assert_eq!(unit0.certificates.len(), 2, "every UNSAT cube certified");
        // A tampered certificate: drop everything but the (non-RUP) empty
        // clause on one cube of unit 1.
        let mut tampered = unit1.clone();
        tampered.certificates[0] = CubeCertificate {
            cube_index: 0,
            proof: DratProof {
                steps: vec![DratStep::add(vec![])],
            },
        };
        let mut coordinator = Coordinator::new(2, 4, &config);
        let mut transport = scripted(vec![
            ClientMsg::SubmitResult {
                client: 0,
                unit: 0,
                report: Box::new(unit0),
                checksum_ok: true,
            },
            ClientMsg::SubmitResult {
                client: 1,
                unit: 1,
                report: Box::new(tampered),
                checksum_ok: true,
            },
            ClientMsg::SubmitResult {
                client: 2,
                unit: 1,
                report: Box::new(unit1),
                checksum_ok: true,
            },
        ]);
        let status = coordinator.run_validated(&mut transport, None, &mut |unit, report| {
            validate_unit_report(&cnf, &set, unit, report)
        });
        assert_eq!(status, RunStatus::Complete);
        let stats = coordinator.stats();
        assert_eq!(stats.invalid_results, 1, "the tampered proof is rejected");
        assert_eq!(stats.rejected_certificates, 1);
        // Checkpoints never store proofs: certificates are checked on
        // ingestion and stripped before the report becomes durable.
        for report in coordinator.checkpoint().completed.values() {
            assert!(report.certificates.is_empty());
        }
        let aggregate = coordinator.aggregate().expect("complete");
        assert_eq!(aggregate.sat_count, 0);
        assert_eq!(aggregate.cubes_processed, 4);
    }

    /// Every certificate below is valid; only their order is forged. One
    /// valid proof listed N times would otherwise cost N checks.
    #[test]
    fn certificates_repeated_or_out_of_cube_order_are_rejected() {
        use pdsat_cnf::Cube;
        use pdsat_core::{FamilySolver, SolveModeConfig};
        use pdsat_solver::SolverConfig;
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..2).map(Var::new));
        let cubes: Vec<Cube> = set.cubes().collect();
        let solve_config = SolveModeConfig {
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            backend: pdsat_core::BackendKind::Fresh,
            ..SolveModeConfig::default()
        };
        let honest = FamilySolver::new(&cnf, &solve_config).solve_cubes(&set, &cubes, None);
        let indices = |r: &SolveReport| -> Vec<usize> {
            r.certificates.iter().map(|c| c.cube_index).collect()
        };
        assert_eq!(indices(&honest), [0, 1, 2, 3]);
        let unit = WorkUnit {
            id: 0,
            first_cube: 0,
            num_cubes: cubes.len(),
        };
        assert_eq!(validate_unit_report(&cnf, &set, &unit, &honest), Ok(()));

        let mut repeated = honest.clone();
        repeated
            .certificates
            .insert(2, honest.certificates[1].clone());
        let mut repeated_last = honest.clone();
        repeated_last
            .certificates
            .push(honest.certificates[3].clone());
        let mut reordered = honest.clone();
        reordered.certificates.swap(0, 2);
        for forged in [repeated, repeated_last, reordered] {
            assert_eq!(
                validate_unit_report(&cnf, &set, &unit, &forged),
                Err(CheckFailure::CertificateIndex),
                "{:?}",
                indices(&forged)
            );
        }
    }

    /// A unit report of `pigeonhole(4)` over `{x0, x1}`, split in units of
    /// two cubes: every cube refuted, unless `sat_count` and
    /// `first_sat_index` claim otherwise. No model is shipped.
    fn pigeonhole_unit_report(sat_count: usize, first_sat_index: Option<usize>) -> SolveReport {
        let mut r = SolveReport::empty(2);
        r.cubes_processed = 2;
        r.per_cube_costs = vec![1.0, 1.0];
        r.total_cost = 2.0;
        r.sat_count = sat_count;
        r.first_sat_index = first_sat_index;
        r
    }

    /// A SAT count names its first satisfiable cube, whose model is then
    /// checked: a count without one, or one without a count, is a report
    /// of the wrong shape.
    #[test]
    fn a_sat_count_without_a_first_sat_cube_is_a_shape_failure() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..2).map(Var::new));
        let unit = WorkUnit {
            id: 1,
            first_cube: 2,
            num_cubes: 2,
        };
        let validate = |report: &SolveReport| validate_unit_report(&cnf, &set, &unit, report);
        assert_eq!(validate(&pigeonhole_unit_report(0, None)), Ok(()));
        for forged in [
            pigeonhole_unit_report(1, None),
            pigeonhole_unit_report(0, Some(1)),
        ] {
            assert_eq!(validate(&forged), Err(CheckFailure::Shape), "{forged:?}");
        }
        assert_eq!(
            validate(&pigeonhole_unit_report(1, Some(1))),
            Err(CheckFailure::ModelMissing)
        );
    }

    /// Every client first uploads a SAT count with no cube and no model; the
    /// honest replicas that follow are the only ones counted.
    #[test]
    fn a_validated_run_rejects_sat_counts_that_name_no_cube() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..2).map(Var::new));
        let config = CoordinatorConfig {
            work_unit_size: 2,
            redundancy: 1,
            lease_timeout: 1e9,
        };
        let submit = |client, unit, report| ClientMsg::SubmitResult {
            client,
            unit,
            report: Box::new(report),
            checksum_ok: true,
        };
        let mut coordinator = Coordinator::new(2, 4, &config);
        let mut transport = scripted(vec![
            submit(0, 0, pigeonhole_unit_report(1, None)),
            submit(1, 1, pigeonhole_unit_report(1, None)),
            submit(2, 0, pigeonhole_unit_report(0, None)),
            submit(3, 1, pigeonhole_unit_report(0, None)),
        ]);
        let status = coordinator.run_validated(&mut transport, None, &mut |unit, report| {
            validate_unit_report(&cnf, &set, unit, report)
        });
        assert_eq!(status, RunStatus::Complete);
        let stats = coordinator.stats();
        assert_eq!(stats.invalid_results, 2);
        assert_eq!(stats.rejected_certificates, 0, "a shape failure");
        let aggregate = coordinator.aggregate().expect("honest replicas counted");
        assert_eq!((aggregate.sat_count, aggregate.first_sat_index), (0, None));
        assert!(aggregate.model.is_none());
    }
}
