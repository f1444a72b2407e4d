//! Deploying one real family through the coordinator: fresh-backend work
//! units on a chaotic loopback population, every upload validated (models
//! checked, certificates checked, two injected forgeries thrown out). Shared
//! by `pipeline-a51` and `grid-proof-a51`.

use super::{solve_config, timed_s, Facts, PerRep};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use pdsat_checker::{check_model, check_unsat_proof};
use pdsat_ciphers::Instance;
use pdsat_cnf::{Cnf, Cube, DratProof};
use pdsat_core::{BackendKind, DecompositionSet, FamilySolver, SolveReport};
use pdsat_distrib::{
    validate_unit_report, ClientId, ClientMsg, Coordinator, CoordinatorConfig, CoordinatorStats,
    LoopbackConfig, LoopbackTransport, RunStatus, ServerMsg, Timed, Transport, WorkUnit,
    WorkUnitId,
};
use std::collections::HashSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridParams {
    /// Cubes per work unit.
    pub unit_size: usize,
    /// Valid results from distinct clients a unit needs.
    pub redundancy: usize,
    /// Simulated volunteer clients (default chaotic behaviour).
    pub clients: usize,
}

/// Event budget per work unit: a healthy run needs about five messages per
/// unit, so two hundred means the grid is livelocked, not slow.
const EVENTS_PER_UNIT: u64 = 200;

/// Uploads corrupted in flight per deployment: one model and one
/// certificate. Both must be rejected and the family must still complete.
const FORGERIES: usize = 2;

/// What one deployment produced.
pub struct Deployment {
    pub status: RunStatus,
    pub stats: CoordinatorStats,
    pub aggregate: Option<SolveReport>,
    pub units: usize,
    /// Forgeries actually put on the wire.
    pub forged: usize,
    /// Uploads whose UNSAT cubes did not all carry a certificate.
    pub uncertified_uploads: usize,
    /// Certificates that passed through the validator.
    pub certificates: u64,
}

/// Runs the family `cubes` of `set` through a coordinator to completion.
///
/// The lease lifetime is calibrated from a probed unit (20 units of work, as
/// `experiments::sathome` does) and the poll interval from the lease, and
/// the run has an event budget: a lease far longer than the poll interval
/// lets clients spin on `NoWork` for ever once an upload vanishes, and a
/// benchmark must count that as a failure, not hang in it.
pub fn deploy(
    cnf: &Cnf,
    set: &DecompositionSet,
    cubes: &[Cube],
    unit_solver: &mut FamilySolver,
    params: GridParams,
    client_seed: u64,
    tracer: &Tracer,
) -> Deployment {
    let mut solve_unit = |unit: &WorkUnit| {
        let _span = tracer.enter("solve_mode.unit");
        let window = &cubes[unit.first_cube..unit.first_cube + unit.num_cubes];
        let report = unit_solver.solve_cubes(set, window, None);
        tracer.reported("oracle.batch", report.wall_time);
        report
    };
    let probe = {
        let _span = tracer.enter("distrib.probe");
        solve_unit(&WorkUnit {
            id: 0,
            first_cube: 0,
            num_cubes: params.unit_size.min(cubes.len()),
        })
    };
    let lease_timeout = (20.0 * probe.total_cost).max(1e-6);
    let config = CoordinatorConfig {
        work_unit_size: params.unit_size,
        redundancy: params.redundancy,
        lease_timeout,
    };
    let mut coordinator = Coordinator::new(set.len(), cubes.len(), &config);
    let units = coordinator.num_units();

    let mut uncertified_uploads = 0;
    let mut certificates = 0;
    let mut validate = |unit: &WorkUnit, report: &SolveReport| {
        let _span = tracer.enter("checker.validate");
        let unsat = report.cubes_processed - report.sat_count - report.unknown_count;
        if report.certificates.len() != unsat {
            uncertified_uploads += 1;
        }
        certificates += report.certificates.len() as u64;
        validate_unit_report(cnf, set, unit, report)
    };

    let mut transport = ForgingTransport {
        inner: LoopbackTransport::new(
            LoopbackConfig {
                num_clients: params.clients,
                seed: client_seed,
                poll_interval: lease_timeout / 10.0,
                ..LoopbackConfig::default()
            },
            &mut solve_unit,
        ),
        cnf,
        set,
        unit_size: params.unit_size,
        seen: HashSet::new(),
        model_pending: true,
        proof_pending: true,
    };
    let status = {
        let _span = tracer.enter("distrib.run");
        coordinator.run_validated(
            &mut transport,
            Some(EVENTS_PER_UNIT * units as u64),
            &mut validate,
        )
    };
    let forged = usize::from(!transport.model_pending) + usize::from(!transport.proof_pending);
    Deployment {
        status,
        stats: coordinator.stats(),
        aggregate: coordinator.aggregate(),
        units,
        forged,
        uncertified_uploads,
        certificates,
    }
}

impl Deployment {
    /// The checks every deployment must pass: it completed within its event
    /// budget, it aggregates the direct report's verdict counts, and exactly
    /// the injected forgeries were rejected.
    pub fn check(&self, direct: &SolveReport, what: &str, checks: &mut Checks) {
        checks.check_eq(
            &format!("{what}: coordinator run ends complete within its event budget"),
            self.status,
            RunStatus::Complete,
        );
        let counts = |r: &SolveReport| (r.cubes_processed, r.sat_count, r.unknown_count);
        checks.check_eq(
            &format!("{what}: aggregate (cubes, sat, unknown) equals the direct report"),
            self.aggregate.as_ref().map(counts),
            Some(counts(direct)),
        );
        checks.check_eq(
            &format!("{what}: first satisfiable cube equals the direct report"),
            self.aggregate.as_ref().and_then(|r| r.first_sat_index),
            direct.first_sat_index,
        );
        checks.check_eq(
            &format!("{what}: semantic rejections equal forgeries injected"),
            (self.stats.rejected_certificates, self.forged),
            (self.forged, FORGERIES),
        );
        checks.check_eq(
            &format!("{what}: every UNSAT cube of every upload carries a certificate"),
            self.uncertified_uploads,
            0,
        );
    }
}

/// Corrupts, in flight, the first uploaded model and the first uploaded
/// certificate it can, one per message, each in the first upload seen for
/// its unit (which the coordinator cannot dismiss as a duplicate before
/// validating it). Everything else passes through untouched, so the units
/// complete from their other replicas.
struct ForgingTransport<'a, T> {
    inner: T,
    cnf: &'a Cnf,
    set: &'a DecompositionSet,
    unit_size: usize,
    seen: HashSet<WorkUnitId>,
    model_pending: bool,
    proof_pending: bool,
}

impl<T: Transport> Transport for ForgingTransport<'_, T> {
    fn send(&mut self, to: ClientId, msg: ServerMsg, now: f64) {
        self.inner.send(to, msg, now);
    }

    fn recv(&mut self) -> Option<Timed<ClientMsg>> {
        let mut msg = self.inner.recv()?;
        if let ClientMsg::SubmitResult {
            unit,
            report,
            checksum_ok: true,
            ..
        } = &mut msg.payload
        {
            if (self.model_pending || self.proof_pending) && self.seen.insert(*unit) {
                let first_cube = *unit as usize * self.unit_size;
                if self.model_pending && forge_model(self.set, first_cube, report) {
                    self.model_pending = false;
                } else if self.proof_pending && forge_proof(self.cnf, self.set, first_cube, report)
                {
                    self.proof_pending = false;
                }
            }
        }
        Some(msg)
    }
}

/// Flips, in the claimed model, the first variable of the satisfiable cube:
/// the model then violates the cube it is claimed for.
fn forge_model(set: &DecompositionSet, first_cube: usize, report: &mut SolveReport) -> bool {
    let (Some(local), Some(model)) = (report.first_sat_index, report.model.as_mut()) else {
        return false;
    };
    let cube = set.cube_from_index((first_cube + local) as u64);
    let Some(&lit) = cube.lits().first() else {
        return false;
    };
    model.assign_lit(!lit);
    true
}

/// Truncates the first certificate whose first half no longer refutes its
/// cube.
fn forge_proof(
    cnf: &Cnf,
    set: &DecompositionSet,
    first_cube: usize,
    report: &mut SolveReport,
) -> bool {
    for certificate in &mut report.certificates {
        let cube = set.cube_from_index((first_cube + certificate.cube_index) as u64);
        let truncated = DratProof {
            steps: certificate.proof.steps[..certificate.proof.steps.len() / 2].to_vec(),
        };
        if check_unsat_proof(cnf, cube.lits(), &truncated).is_err() {
            certificate.proof = truncated;
            return true;
        }
    }
    false
}

/// Coordinator counters summed over the deployments of one repetition.
#[derive(Default)]
pub struct GridTotals {
    events: u64,
    assignments: u64,
    no_work: u64,
    expired: u64,
    invalid: u64,
    duplicate: u64,
    rejected: u64,
    certificates: u64,
    /// Results a complete run needs: `redundancy` per unit.
    quorum_results: u64,
}

impl GridTotals {
    pub fn add(&mut self, deployment: &Deployment, params: GridParams) {
        let stats = &deployment.stats;
        self.quorum_results += (deployment.units * params.redundancy) as u64;
        self.events += stats.events_processed;
        self.assignments += stats.assignments as u64;
        self.no_work += stats.no_work_replies as u64;
        self.expired += stats.expired_leases as u64;
        self.invalid += stats.invalid_results as u64;
        self.duplicate += stats.duplicate_results as u64;
        self.rejected += stats.rejected_certificates as u64;
        self.certificates += deployment.certificates;
    }

    pub fn count(&self, facts: &mut Facts) {
        facts.count("distrib.events_processed", self.events);
        facts.count("distrib.assignments", self.assignments);
        facts.count("distrib.no_work_replies", self.no_work);
        facts.count("distrib.expired_leases", self.expired);
        facts.count("distrib.invalid_results", self.invalid);
        facts.count("distrib.duplicate_results", self.duplicate);
        facts.count("checker.rejected", self.rejected);
        facts.count("checker.certificates", self.certificates);
    }

    /// The time-derived `distrib.*` figures from the deployment spans: the
    /// coordinator's own time is its run minus the unit solves and
    /// validations nested in it.
    pub fn costs(&self, spans: &PerRep<'_>, layers: &mut Layers) {
        layers.set("distrib.grid_s", spans.seconds("distrib.run"));
        layers.set(
            "distrib.us_per_event",
            ratio(spans.self_seconds("distrib") * 1e6, self.events as f64),
        );
        layers.set(
            "distrib.useful_share",
            ratio(self.quorum_results as f64, self.assignments as f64),
        );
    }
}

/// The fresh one-worker solver a volunteer host runs a unit on. It logs
/// DRAT proofs, so every UNSAT cube of an upload ships a certificate the
/// coordinator checks before the upload may count.
pub fn unit_solver(cnf: &Cnf) -> FamilySolver {
    FamilySolver::new(cnf, &solve_config(BackendKind::Fresh, 1, true))
}

/// Differential pass of the traced run: every certificate of a family
/// checked once more, directly, for the checker's own counters and unit
/// costs.
#[derive(Default)]
pub struct CertificateCosts {
    check_s: f64,
    certificates: u64,
    steps: u64,
    propagations: u64,
    floor_s: f64,
    floor_checks: u32,
}

impl CertificateCosts {
    pub fn add_family(
        &mut self,
        cnf: &Cnf,
        set: &DecompositionSet,
        cubes: &[Cube],
        unit_solver: &mut FamilySolver,
    ) {
        let report = unit_solver.solve_cubes(set, cubes, None);
        for certificate in &report.certificates {
            let cube = &cubes[certificate.cube_index];
            let (result, seconds) =
                timed_s(|| check_unsat_proof(cnf, cube.lits(), &certificate.proof));
            let stats = result.expect("the coordinator accepted this certificate");
            self.check_s += seconds;
            self.certificates += 1;
            self.steps += stats.steps_checked as u64;
            self.propagations += stats.propagations;
            // The same check cut to one step: formula load and root
            // propagation only, whatever the verdict.
            if self.floor_checks < 32 && !certificate.proof.is_empty() {
                let one_step = DratProof {
                    steps: certificate.proof.steps[..1].to_vec(),
                };
                let (_, seconds) = timed_s(|| check_unsat_proof(cnf, cube.lits(), &one_step));
                self.floor_s += seconds;
                self.floor_checks += 1;
            }
        }
    }

    pub fn set(&self, layers: &mut Layers) {
        layers.set("checker.steps_checked", self.steps as f64);
        layers.set("checker.propagations", self.propagations as f64);
        layers.set(
            "checker.us_per_certificate",
            ratio(self.check_s * 1e6, self.certificates as f64),
        );
        layers.set(
            "checker.ns_per_step",
            ratio(self.check_s * 1e9, self.steps as f64),
        );
        layers.set(
            "checker.load_floor_us",
            ratio(self.floor_s * 1e6, f64::from(self.floor_checks)),
        );
    }
}

/// Wall time of one family on a fresh one-worker solver with proof logging
/// on, over the same with it off.
pub fn proof_on_over_off(cnf: &Cnf, set: &DecompositionSet, cubes: &[Cube]) -> f64 {
    let mut walls = [0.0; 2];
    for (wall, proof) in walls.iter_mut().zip([false, true]) {
        let mut solver = FamilySolver::new(cnf, &solve_config(BackendKind::Fresh, 1, proof));
        *wall = solver.solve_cubes(set, cubes, None).wall_time.as_secs_f64();
    }
    ratio(walls[1], walls[0])
}

/// Microseconds of one `check_model` of a family's kept model.
pub fn model_check_us(instance: &Instance, set: &DecompositionSet, report: &SolveReport) -> f64 {
    let (Some(model), Some(index)) = (&report.model, report.first_sat_index) else {
        return 0.0;
    };
    let cube = set.cube_from_index(index as u64);
    const CHECKS: u32 = 32;
    let ((), seconds) = timed_s(|| {
        for _ in 0..CHECKS {
            let _ = std::hint::black_box(check_model(instance.cnf(), cube.lits(), model));
        }
    });
    seconds * 1e6 / f64::from(CHECKS)
}
