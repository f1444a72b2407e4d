//! The coordinator alone: a large synthetic family (no solving at all)
//! leased to a chaotic client population in event-budget slices, with a
//! durable checkpoint save after each slice and one kill, load and resume
//! in the middle. Lease scan, expiry, quorum bookkeeping and the whole-text
//! checkpoint rewrite are the entire cost.

use super::{stream, stream_seed, timed_s, Facts, PerRep, Workload, STREAM_CLIENTS, STREAM_COSTS};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use pdsat_distrib::{
    synthetic_family_solver, CheckpointStore, Coordinator, CoordinatorCheckpoint,
    CoordinatorConfig, CoordinatorStats, LoopbackConfig, LoopbackTransport, RunStatus,
};
use rand::Rng;
use std::cell::OnceCell;
use std::path::PathBuf;

/// Variables of the (fictitious) decomposition set the units belong to.
const SET_SIZE: usize = 3;
/// Messages a healthy run processes per unit, rounded up; sizes the slices.
const EVENTS_PER_UNIT: u64 = 5;
/// Total event budget per unit, beyond which the run counts as livelocked.
const EVENT_LIMIT_PER_UNIT: u64 = 200;

pub struct GridSynthetic {
    pub units: usize,
    pub unit_size: usize,
    pub redundancy: usize,
    pub clients: usize,
    pub lease_timeout: f64,
    pub poll_interval: f64,
    /// Event-budget slices a healthy run is cut into (one save after each).
    pub slices: u64,
    pub seed: u64,
    /// Where the checkpoint store lives (inside the benchmark's `out/`).
    pub store_path: PathBuf,
    /// Checkpoint text of an uninterrupted run over the same inputs,
    /// computed once per process: what the killed and resumed run must
    /// reproduce.
    pub uninterrupted: OnceCell<String>,
}

pub struct SyntheticGrid {
    costs: Vec<f64>,
    coordinator: Coordinator,
    store: CheckpointStore,
    /// Filled by the timed section.
    status: RunStatus,
    segments: Vec<CoordinatorStats>,
    save_bytes: Vec<u64>,
    resumed_from: Option<CoordinatorCheckpoint>,
}

impl GridSynthetic {
    fn config(&self) -> CoordinatorConfig {
        CoordinatorConfig {
            work_unit_size: self.unit_size,
            redundancy: self.redundancy,
            lease_timeout: self.lease_timeout,
        }
    }

    fn loopback(&self) -> LoopbackConfig {
        LoopbackConfig {
            num_clients: self.clients,
            seed: stream_seed(self.seed, STREAM_CLIENTS),
            poll_interval: self.poll_interval,
            ..LoopbackConfig::default()
        }
    }

    fn costs(&self, units: usize) -> Vec<f64> {
        let mut rng = stream(self.seed, STREAM_COSTS);
        (0..units * self.unit_size)
            .map(|_| rng.gen_range(0.5..10.0))
            .collect()
    }

    fn event_limit(&self, units: usize) -> u64 {
        EVENT_LIMIT_PER_UNIT * units as u64
    }

    fn remove_store_files(&self) {
        for suffix in ["", ".prev", ".tmp"] {
            let mut path = self.store_path.clone().into_os_string();
            path.push(suffix);
            // Absent files are the normal case.
            let _ = std::fs::remove_file(path);
        }
    }

    /// One uninterrupted run over `costs`, no store: the reference for the
    /// resume check and the small end of the cost-growth ratio.
    fn run_uninterrupted(&self, costs: &[f64]) -> (Coordinator, RunStatus) {
        let mut coordinator = Coordinator::new(SET_SIZE, costs.len(), &self.config());
        let mut transport = LoopbackTransport::new(
            self.loopback(),
            synthetic_family_solver(SET_SIZE, costs.to_vec(), None),
        );
        let limit = self.event_limit(coordinator.num_units());
        let status = coordinator.run(&mut transport, Some(limit));
        (coordinator, status)
    }
}

impl Workload for GridSynthetic {
    type Ready = SyntheticGrid;
    type Done = SyntheticGrid;

    fn setup(&self, _tracer: &Tracer) -> SyntheticGrid {
        self.remove_store_files();
        let costs = self.costs(self.units);
        SyntheticGrid {
            coordinator: Coordinator::new(SET_SIZE, costs.len(), &self.config()),
            costs,
            store: CheckpointStore::new(&self.store_path),
            status: RunStatus::OutOfEvents,
            segments: Vec::new(),
            save_bytes: Vec::new(),
            resumed_from: None,
        }
    }

    fn timed(&self, mut grid: SyntheticGrid, tracer: &Tracer) -> SyntheticGrid {
        let mut transport = LoopbackTransport::new(
            self.loopback(),
            synthetic_family_solver(SET_SIZE, grid.costs.clone(), None),
        );
        let slice_events = (EVENTS_PER_UNIT * self.units as u64).div_ceil(self.slices);
        let mut events_before = 0;
        let mut slices_in_segment = 0;
        for slice in 1.. {
            slices_in_segment += 1;
            grid.status = {
                let _span = tracer.enter("distrib.run");
                // The budget counts the events of this coordinator segment.
                grid.coordinator
                    .run(&mut transport, Some(slices_in_segment * slice_events))
            };
            {
                let _span = tracer.enter("store.save");
                grid.store
                    .save(grid.coordinator.checkpoint())
                    .expect("the checkpoint store can write inside the benchmark directory");
            }
            grid.save_bytes
                .push(std::fs::metadata(&self.store_path).map_or(0, |m| m.len()));
            let events = events_before + grid.coordinator.stats().events_processed;
            if grid.status != RunStatus::OutOfEvents || events >= self.event_limit(self.units) {
                break;
            }
            if slice == self.slices / 2 {
                // Kill the coordinator: all leases are lost, the last saved
                // checkpoint is all the restarted one knows. The population
                // lives on and keeps uploading results of the old leases.
                let loaded = {
                    let _span = tracer.enter("store.load");
                    grid.store
                        .load()
                        .expect("the checkpoint just saved verifies")
                        .expect("the checkpoint just saved exists")
                };
                grid.segments.push(grid.coordinator.stats());
                events_before = events;
                slices_in_segment = 0;
                let _span = tracer.enter("distrib.resume");
                grid.resumed_from = Some(loaded.clone());
                grid.coordinator = Coordinator::resume(loaded, &self.config());
            }
        }
        grid.segments.push(grid.coordinator.stats());
        grid
    }

    fn verify(&self, grid: &mut SyntheticGrid, checks: &mut Checks) -> Facts {
        checks.check_eq(
            "coordinator run ends complete within its event budget",
            grid.status,
            RunStatus::Complete,
        );
        checks.check(
            "the run was killed and resumed from a loaded checkpoint holding completed units",
            grid.resumed_from
                .as_ref()
                .is_some_and(|c| !c.completed.is_empty() && !c.is_complete()),
        );
        let total: f64 = grid.costs.iter().sum();
        let aggregated = grid.coordinator.aggregate();
        checks.check(
            "aggregate covers every cube once at its nominal cost",
            aggregated.as_ref().is_some_and(|r| {
                r.cubes_processed == grid.costs.len()
                    && r.per_cube_costs == grid.costs
                    && (r.total_cost - total).abs() <= 1e-9 * total
            }),
        );
        let reference = self.uninterrupted.get_or_init(|| {
            let (coordinator, status) = self.run_uninterrupted(&grid.costs);
            assert_eq!(status, RunStatus::Complete, "the reference run completes");
            coordinator.checkpoint().to_text()
        });
        checks.check(
            "resume after load reproduces the uninterrupted checkpoint text",
            grid.coordinator.checkpoint().to_text() == *reference,
        );
        checks.check(
            "the last saved generation loads back as the final checkpoint",
            grid.store.load().ok().flatten().as_ref() == Some(grid.coordinator.checkpoint()),
        );
        self.remove_store_files();

        let mut facts = Facts {
            cubes: (grid.costs.len() * self.redundancy) as u64,
            ..Facts::default()
        };
        let sum = |f: fn(&CoordinatorStats) -> u64| grid.segments.iter().map(f).sum::<u64>();
        facts.count("distrib.events_processed", sum(|s| s.events_processed));
        facts.count("distrib.assignments", sum(|s| s.assignments as u64));
        facts.count("distrib.no_work_replies", sum(|s| s.no_work_replies as u64));
        facts.count("distrib.expired_leases", sum(|s| s.expired_leases as u64));
        facts.count("distrib.invalid_results", sum(|s| s.invalid_results as u64));
        facts.count(
            "distrib.duplicate_results",
            sum(|s| s.duplicate_results as u64),
        );
        facts
    }

    fn layer_costs(&self, grid: &mut SyntheticGrid, spans: &PerRep<'_>, layers: &mut Layers) {
        let events: u64 = grid.segments.iter().map(|s| s.events_processed).sum();
        let assignments: usize = grid.segments.iter().map(|s| s.assignments).sum();
        let us_per_event = ratio(spans.self_seconds("distrib") * 1e6, events as f64);
        layers.set("distrib.grid_s", spans.seconds("distrib.run"));
        layers.set("distrib.us_per_event", us_per_event);
        layers.set(
            "distrib.useful_share",
            ratio((self.units * self.redundancy) as f64, assignments as f64),
        );

        let saves = grid.save_bytes.len() as f64;
        let bytes: u64 = grid.save_bytes.iter().sum();
        let save_s = spans.seconds("store.save");
        layers.set("store.save_ms", ratio(save_s * 1e3, saves));
        layers.set("store.load_ms", spans.seconds("store.load") * 1e3);
        layers.set("store.bytes_per_save", ratio(bytes as f64, saves));
        layers.set(
            "store.mib_per_s",
            ratio(bytes as f64 / (1024.0 * 1024.0), save_s),
        );
        let (parsed, roundtrip_s) =
            timed_s(|| CoordinatorCheckpoint::from_text(&grid.coordinator.checkpoint().to_text()));
        assert!(parsed.is_ok(), "the coordinator writes valid checkpoints");
        layers.set("store.text_roundtrip_ms", roundtrip_s * 1e3);

        // Differential pass: the same grid at one eighth of the units. Cost
        // per event that grows with the family is the quadratic suspect.
        let small_costs = self.costs((self.units / 8).max(1));
        let ((small, _), small_s) = timed_s(|| self.run_uninterrupted(&small_costs));
        let small_us = ratio(small_s * 1e6, small.stats().events_processed as f64);
        layers.set("distrib.event_cost_growth", ratio(us_per_event, small_us));
    }
}
