//! The trust path: a series of A5/1 families deployed through the
//! coordinator with proof-logging unit solvers, so every upload is DRAT- or
//! model-checked before it may count, and two forgeries per family must be
//! thrown out. Checker, proof logging and certificate handling dominate.

use super::grid::{
    deploy, model_check_us, proof_on_over_off, unit_solver, CertificateCosts, Deployment,
    GridParams, GridTotals,
};
use super::{
    build_series, check_family_report, count_encoding, encode_costs, enumerate, solve_config,
    stream_seed, Facts, PerRep, Weakening, Workload, STREAM_CLIENTS,
};
use crate::checks::Checks;
use crate::metrics::Layers;
use crate::trace::Tracer;
use pdsat_ciphers::{Instance, StreamCipher};
use pdsat_cnf::Cube;
use pdsat_core::{BackendKind, DecompositionSet, FamilySolver};

pub struct GridProof<C> {
    pub cipher: C,
    pub weakening: Weakening,
    pub set_vars: usize,
    pub instances: usize,
    pub grid: GridParams,
    pub secrets_seed: u64,
    pub clients_seed: u64,
}

pub struct ProofFamily {
    instance: Instance,
    set: DecompositionSet,
    cubes: Vec<Cube>,
    unit_solver: FamilySolver,
    deployment: Option<Deployment>,
}

impl<C: StreamCipher + Copy> Workload for GridProof<C> {
    type Ready = Vec<ProofFamily>;
    type Done = Vec<ProofFamily>;

    fn setup(&self, tracer: &Tracer) -> Vec<ProofFamily> {
        build_series(
            self.cipher,
            self.weakening,
            self.instances,
            self.secrets_seed,
            tracer,
        )
        .into_iter()
        .map(|instance| {
            let (set, cubes) = enumerate(&instance, Some(self.set_vars), tracer);
            let _span = tracer.enter("oracle.spawn");
            let unit_solver = unit_solver(instance.cnf());
            ProofFamily {
                instance,
                set,
                cubes,
                unit_solver,
                deployment: None,
            }
        })
        .collect()
    }

    fn timed(&self, mut families: Vec<ProofFamily>, tracer: &Tracer) -> Vec<ProofFamily> {
        for (i, family) in families.iter_mut().enumerate() {
            family.deployment = Some(deploy(
                family.instance.cnf(),
                &family.set,
                &family.cubes,
                &mut family.unit_solver,
                self.grid,
                stream_seed(self.clients_seed, STREAM_CLIENTS + 16 * i as u64),
                tracer,
            ));
        }
        families
    }

    fn verify(&self, families: &mut Vec<ProofFamily>, checks: &mut Checks) -> Facts {
        let mut facts = Facts::default();
        let mut totals = GridTotals::default();
        for (i, family) in families.iter().enumerate() {
            let what = format!("family {i}");
            let deployment = family.deployment.as_ref().expect("the timed section ran");
            // The reference the coordinator's aggregate must reproduce: the
            // same family solved directly, no grid in between.
            let direct = FamilySolver::new(
                family.instance.cnf(),
                &solve_config(BackendKind::Warm, 1, false),
            )
            .solve_cubes(&family.set, &family.cubes, None);
            deployment.check(&direct, &what, checks);
            if let Some(aggregate) = &deployment.aggregate {
                check_family_report(
                    &self.cipher,
                    &family.instance,
                    &family.set,
                    aggregate,
                    &format!("{what} aggregate"),
                    checks,
                );
            }
            facts.cubes += (family.cubes.len() * self.grid.redundancy) as u64;
            totals.add(deployment, self.grid);
        }
        facts.count_oracles(families.iter().map(|f| f.unit_solver.oracle()));
        facts.count("oracle.workers", 1);
        count_encoding(&mut facts, families.iter().map(|f| &f.instance));
        totals.count(&mut facts);
        facts
    }

    fn layer_costs(
        &self,
        families: &mut Vec<ProofFamily>,
        spans: &PerRep<'_>,
        layers: &mut Layers,
    ) {
        let cubes: usize = families.iter().map(|f| f.cubes.len()).sum();
        encode_costs(spans, cubes as u64, layers);
        let mut totals = GridTotals::default();
        for deployment in families.iter().filter_map(|f| f.deployment.as_ref()) {
            totals.add(deployment, self.grid);
        }
        totals.costs(spans, layers);

        let mut certificates = CertificateCosts::default();
        for family in families.iter_mut() {
            certificates.add_family(
                family.instance.cnf(),
                &family.set,
                &family.cubes,
                &mut family.unit_solver,
            );
        }
        certificates.set(layers);

        let first = &families[0];
        if let Some(aggregate) = first.deployment.as_ref().and_then(|d| d.aggregate.as_ref()) {
            layers.set(
                "checker.model_check_us",
                model_check_us(&first.instance, &first.set, aggregate),
            );
        }

        layers.set(
            "solver.proof_on_over_off",
            proof_on_over_off(first.instance.cnf(), &first.set, &first.cubes),
        );
    }
}
