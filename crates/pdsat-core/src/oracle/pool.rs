//! The worker pool of a [`CubeOracle`](super::CubeOracle): resident backends,
//! threads per batch.
//!
//! PDSAT keeps its MiniSat worker *processes* alive for the whole run and
//! streams sub-problems to them; what that buys is each worker's **solver
//! state** — every learnt clause survives from one search-space point to the
//! next — not the process as such. This module keeps exactly that: one
//! backend per pool slot is built when the oracle is (on a short-lived
//! thread of its own, joined by whichever thread first drains a stripe on
//! the slot, so loading the formula is off the constructor's critical path)
//! and lives until the oracle is dropped. The *threads* are per batch:
//! [`WorkerPool::run_batch`] runs under [`std::thread::scope`], the calling
//! thread drains stripe 0 itself and one scoped thread is spawned per
//! further stripe, so a one-stripe batch spawns nothing.
//!
//! Scoped threads end before `run_batch` returns, so a batch *borrows*:
//! every worker reads the caller's `&[Cube]` and writes each cube's cost and
//! verdict straight into the two result columns the oracle allocated. Both
//! columns are cut into one contiguous *stripe* per participating slot and
//! each stripe into the same chunks, handed out through a mutex around the
//! stripe's two `ChunksMut`: a worker drains its own stripe first, then
//! steals chunks from the others — sticky assignment keeps each resident
//! warm solver re-seeing the cubes it already learned, stealing keeps skewed
//! families balanced — and a stolen chunk is a `&mut` into the place its
//! cubes belong, so no column entry is sorted, listed or appended afterwards.
//! Cubes are processed in the order submitted: a batch position *is* a cube
//! index. Workers accumulate per-variable conflict counts, solver-statistics
//! deltas and the rare model or proof locally and hand back one
//! [`StripeReport`] each through their join.
//!
//! # Fault tolerance
//!
//! A backend that panics mid-cube does not kill the batch. Every solve call
//! runs under `catch_unwind`; on a panic the worker *quarantines* the
//! poisoned backend (drops it — its in-batch statistics are lost, counted in
//! `SolverStats::worker_panics`), builds a fresh replacement on the spot,
//! and requeues the in-flight cube onto it **exactly once**
//! (`SolverStats::requeued_cubes`). A cube whose retry panics again — or any
//! cube stranded when the respawn itself fails — keeps the `None` verdict the
//! column was allocated with, and the oracle solves every such leftover on
//! the calling thread with a one-shot sequential backend (the last-resort
//! fallback). A slot whose respawn fails stays dead; later batches are
//! dispatched around it, and only when *every* slot is dead does dispatch
//! panic (naming the pool shape), since at that point no executor is left.
//! A panic that escapes this recovery (from `begin_batch` / `end_batch`, or
//! from building the slot's first backend) comes back through the scope's
//! join and is re-raised on the caller naming the slot and the batch
//! positions it owned. The no-fault path is bit-identical to a pool without
//! the recovery: `catch_unwind` does not perturb the computation, and the
//! counters stay zero.

use super::backend::{BackendSpec, CubeBackend};
use super::{summarize, BatchConfig, BatchResult, VerdictSummary};
use crate::fault::{FaultState, FaultyBackend};
use pdsat_cnf::{Assignment, Cube, DratProof};
use pdsat_solver::{InterruptFlag, SolverStats};
use std::iter::Zip;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::slice::ChunksMut;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// What a slot builds its backends from: the first one and every respawn.
#[derive(Clone)]
struct Blueprint {
    spec: Arc<BackendSpec>,
    /// When armed, every backend is wrapped in a [`FaultyBackend`] so the
    /// plan's solve panics and respawn failures fire inside the pool.
    faults: Option<Arc<FaultState>>,
}

impl Blueprint {
    fn build(&self) -> Box<dyn CubeBackend> {
        let inner = self.spec.build();
        match &self.faults {
            Some(f) => Box::new(FaultyBackend::new(inner, Arc::clone(f))),
            None => inner,
        }
    }

    /// A replacement for a quarantined backend, or `None` when the respawn
    /// fails (by the fault plan, or because building panicked).
    fn respawn(&self) -> Option<Box<dyn CubeBackend>> {
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.respawn_should_fail())
        {
            return None;
        }
        catch_unwind(AssertUnwindSafe(|| self.build())).ok()
    }
}

/// The backend of one slot, between batches.
enum Resident {
    /// Being built since the oracle was; joined on the slot's first batch.
    Building(JoinHandle<Box<dyn CubeBackend>>),
    Ready(Box<dyn CubeBackend>),
    /// A respawn failed, or a panic escaped recovery while the slot's
    /// backend was out on a batch.
    Dead,
}

struct Slot {
    blueprint: Blueprint,
    backend: Resident,
}

impl Slot {
    /// Moves the backend out for a batch, leaving the slot dead until
    /// [`drain`] puts it back — so a slot whose worker unwinds stays dead.
    fn take_backend(&mut self) -> Box<dyn CubeBackend> {
        match std::mem::replace(&mut self.backend, Resident::Dead) {
            Resident::Ready(backend) => backend,
            Resident::Building(handle) => handle.join().unwrap_or_else(|e| resume_unwind(e)),
            Resident::Dead => unreachable!("batches are dispatched around dead slots"),
        }
    }
}

/// The same positions of the cost and of the verdict column, chunk by chunk.
type ColumnChunks<'a> = Zip<ChunksMut<'a, f64>, ChunksMut<'a, Option<VerdictSummary>>>;

/// A claimed chunk: the batch position of its first cube and the places its
/// costs and verdicts go.
type Claim<'a> = (usize, &'a mut [f64], &'a mut [Option<VerdictSummary>]);

/// One participating slot's contiguous share of the result columns.
struct Stripe<'a> {
    /// The batch position of the next unclaimed chunk, and the unclaimed
    /// chunks themselves.
    unclaimed: Mutex<(usize, ColumnChunks<'a>)>,
}

/// The batch positions stripe `i` of `stripes` owns before any stealing.
fn stripe_span(i: usize, stripes: usize, cubes: usize) -> Range<usize> {
    (i * cubes / stripes)..((i + 1) * cubes / stripes)
}

/// Everything the workers of one batch borrow.
struct Batch<'a> {
    /// The cubes, in submission order. Stripes are contiguous runs of it, so
    /// a batch submitted prefix-sorted gives each worker a block of cubes
    /// sharing long assumption prefixes — exactly what the warm backend's
    /// trail reuse feeds on.
    cubes: &'a [Cube],
    /// One stripe per participating slot. The worker assigned stripe `i`
    /// drains it first and only then steals from the others, so in the
    /// steady state (balanced stripes, no stealing) the *same* resident
    /// backend sees the *same* cubes batch after batch — warm-solver
    /// locality that one shared queue would reshuffle on every batch.
    stripes: Vec<Stripe<'a>>,
    /// Budget, cost metric and `stop_on_sat` of every cube.
    config: &'a BatchConfig,
    /// The batch-wide interrupt flag every worker observes.
    interrupt: &'a InterruptFlag,
}

impl<'a> Batch<'a> {
    fn new(
        cubes: &'a [Cube],
        costs: &'a mut [f64],
        verdicts: &'a mut [Option<VerdictSummary>],
        stripes: usize,
        config: &'a BatchConfig,
        interrupt: &'a InterruptFlag,
    ) -> Batch<'a> {
        // Chunks amortize lock traffic while staying small enough that
        // stealing still balances skewed per-cube costs.
        let chunk = (cubes.len() / (stripes * 8)).clamp(1, 32);
        let mut rest = (costs, verdicts);
        let stripes = (0..stripes)
            .map(|i| {
                let span = stripe_span(i, stripes, cubes.len());
                let (costs, verdicts) = std::mem::take(&mut rest);
                let (own_costs, costs) = costs.split_at_mut(span.len());
                let (own_verdicts, verdicts) = verdicts.split_at_mut(span.len());
                rest = (costs, verdicts);
                let chunks = own_costs.chunks_mut(chunk);
                let chunks = chunks.zip(own_verdicts.chunks_mut(chunk));
                Stripe {
                    unclaimed: Mutex::new((span.start, chunks)),
                }
            })
            .collect();
        Batch {
            cubes,
            stripes,
            config,
            interrupt,
        }
    }

    /// Claims the next chunk for the worker assigned `stripe` — from that
    /// stripe while it lasts, then from the others — as the batch position
    /// of its first cube and the places its results go, or `None` when the
    /// whole batch is claimed.
    fn claim(&self, stripe: usize) -> Option<Claim<'a>> {
        let stripes = self.stripes.len();
        (0..stripes).find_map(|offset| {
            let mut unclaimed = self.stripes[(stripe + offset) % stripes]
                .unclaimed
                .lock()
                .expect("nothing that can panic runs under a stripe's lock");
            let (costs, verdicts) = unclaimed.1.next()?;
            let first = unclaimed.0;
            unclaimed.0 += costs.len();
            Some((first, costs, verdicts))
        })
    }
}

/// What one worker hands back for one batch, merged by `run_batch`. The
/// costs and verdicts are already in the result columns.
#[derive(Default)]
struct StripeReport {
    stats: SolverStats,
    /// Cubes this worker solved and placed.
    solved: usize,
    /// The models and proofs of those cubes, by batch position.
    models: Vec<(usize, Assignment)>,
    proofs: Vec<(usize, DratProof)>,
}

/// One worker's share of one batch, on whichever thread runs it: drains
/// `stripe` and then steals, on the slot's resident backend, adding
/// per-variable conflict counts into `totals`. A slot whose respawn fails is
/// left dead and the cubes it held keep their `None` verdict.
fn drain(slot: &mut Slot, stripe: usize, batch: &Batch<'_>, totals: &mut [u64]) -> StripeReport {
    let Batch {
        cubes,
        config,
        interrupt,
        ..
    } = *batch;
    let mut backend = slot.take_backend();
    backend.begin_batch();
    let mut report = StripeReport::default();
    let (mut panics, mut requeued) = (0u64, 0u64);
    'batch: while let Some((first, costs, verdicts)) = batch.claim(stripe) {
        for ((index, cost), verdict) in (first..).zip(costs).zip(verdicts) {
            // Re-checked before every cube, so a chunk bounds only the
            // claimed-but-unsolved tail.
            if config.stop_on_sat && interrupt.is_raised() {
                break 'batch;
            }
            // First attempt plus at most one requeue onto a respawned
            // backend — the exactly-once requeue contract.
            for attempt in 0..2 {
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    backend.solve(cubes[index].lits(), &config.budget, interrupt, totals)
                }));
                if let Ok(raw) = solved {
                    *cost = config.cost.measure(raw.counters, raw.elapsed);
                    *verdict = Some(summarize(
                        index,
                        raw,
                        &mut report.models,
                        &mut report.proofs,
                    ));
                    report.solved += 1;
                    if config.stop_on_sat && *verdict == Some(VerdictSummary::Sat) {
                        interrupt.raise();
                    }
                    break;
                }
                panics += 1;
                // Quarantine the poisoned backend and respawn in place. Its
                // in-batch statistics die with it — `end_batch` on a backend
                // that just unwound cannot be trusted.
                let Some(fresh) = slot.blueprint.respawn() else {
                    // The slot stays dead. The in-flight cube and the rest
                    // of the claimed chunk keep their `None` verdicts, for
                    // the oracle's sequential fallback.
                    report.stats.worker_panics = panics;
                    report.stats.requeued_cubes = requeued;
                    return report;
                };
                backend = fresh;
                backend.begin_batch();
                if attempt == 0 {
                    requeued += 1;
                }
                // After the second panic the cube goes to the fallback, and
                // this worker carries on with the healthy respawn.
            }
        }
    }
    // Solver statistics — the trail-reuse counters included — are merged
    // exactly once per batch; the fault counters ride along.
    report.stats = backend.end_batch();
    report.stats.worker_panics += panics;
    report.stats.requeued_cubes += requeued;
    slot.backend = Resident::Ready(backend);
    report
}

/// The resident backends of one oracle, one per slot.
pub(super) struct WorkerPool {
    slots: Vec<Slot>,
}

impl WorkerPool {
    /// A pool of `num_workers` slots, each with one backend built from
    /// `spec` that lives until the pool is dropped. Returns at once: every
    /// backend is built on a short-lived thread of its own (warm solvers
    /// load the clause database concurrently) that the slot's first batch
    /// joins.
    pub(super) fn new(
        spec: &Arc<BackendSpec>,
        num_workers: usize,
        faults: Option<&Arc<FaultState>>,
    ) -> WorkerPool {
        let slots = (0..num_workers)
            .map(|_| {
                let blueprint = Blueprint {
                    spec: Arc::clone(spec),
                    faults: faults.cloned(),
                };
                let building = {
                    let blueprint = blueprint.clone();
                    thread::spawn(move || blueprint.build())
                };
                Slot {
                    blueprint,
                    backend: Resident::Building(building),
                }
            })
            .collect();
        WorkerPool { slots }
    }

    /// Number of slots (live or dead).
    pub(super) fn size(&self) -> usize {
        self.slots.len()
    }

    /// Solves one non-empty batch on the first `min(live slots, cubes)` live
    /// slots, in slot order: the calling thread drains stripe 0, one scoped
    /// thread each the others, and all have finished when this returns.
    /// `result` is all unsolved on entry; every cube a worker solved has its
    /// cost and verdict at its own position on return and its model or proof
    /// listed (in no order yet), the others (panicked twice, stranded by a
    /// failed respawn, or not started under a raised `stop_on_sat`) still
    /// the `None` verdict. Conflict counts and statistics are added to
    /// `result`'s. Returns how many were solved.
    ///
    /// # Panics
    ///
    /// Panics when no slot is live — every backend panicked and exhausted
    /// its respawn, so no executor is left — and when a worker unwound past
    /// its per-cube recovery.
    pub(super) fn run_batch(
        &mut self,
        cubes: &[Cube],
        config: &BatchConfig,
        interrupt: &InterruptFlag,
        result: &mut BatchResult,
    ) -> usize {
        let size = self.size();
        let mut workers: Vec<(usize, &mut Slot)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter(|(_, slot)| !matches!(slot.backend, Resident::Dead))
            .take(cubes.len())
            .collect();
        assert!(
            !workers.is_empty(),
            "all {size} oracle worker threads are dead (every backend panicked and \
             exhausted its respawn); cannot dispatch a batch of {} cubes",
            cubes.len(),
        );
        let stripes = workers.len();
        let (costs, verdicts) = (&mut result.costs, &mut result.verdicts);
        let batch = Batch::new(cubes, costs, verdicts, stripes, config, interrupt);
        let totals = &mut result.var_conflict_totals;
        // The conflict counts of the spawned workers, one row each in one
        // allocation made here (the caller adds its own straight into
        // `totals`). A row is never empty, so that there is one per worker.
        let row = totals.len().max(1);
        let mut counts = vec![0u64; row * (stripes - 1)];
        // Per stripe: the slot that drained it and what its worker returned.
        let reports: Vec<(usize, thread::Result<StripeReport>)> = thread::scope(|scope| {
            let spawned: Vec<_> = workers
                .drain(1..)
                .zip(counts.chunks_mut(row))
                .zip(1..)
                .map(|(((index, slot), counts), stripe)| {
                    let batch = &batch;
                    (
                        index,
                        scope.spawn(move || drain(slot, stripe, batch, counts)),
                    )
                })
                .collect();
            let (index, slot) = workers.pop().expect("stripe 0 is the caller's");
            let own = catch_unwind(AssertUnwindSafe(|| drain(slot, 0, &batch, totals)));
            std::iter::once((index, own))
                .chain(spawned.into_iter().map(|(i, worker)| (i, worker.join())))
                .collect()
        });
        let mut solved = 0;
        for (stripe, (slot, report)) in reports.into_iter().enumerate() {
            let Ok(report) = report else {
                let span = stripe_span(stripe, stripes, cubes.len());
                panic!(
                    "oracle worker {slot} died mid-batch (panic escaped backend recovery) \
                     while owning batch positions {}..{} of {} cubes",
                    span.start,
                    span.end,
                    cubes.len(),
                );
            };
            result.solver_stats.absorb(&report.stats);
            solved += report.solved;
            result.models.extend(report.models);
            result.proofs.extend(report.proofs);
        }
        for counts in counts.chunks(row) {
            for (t, &c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        solved
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Resident::Building(handle) = std::mem::replace(&mut slot.backend, Resident::Dead)
            {
                // No batch ever used the slot, so there is nobody to tell
                // should the build have panicked.
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BackendOutcome;
    use crate::DecompositionSet;
    use pdsat_cnf::{Cnf, Lit, Var};
    use pdsat_solver::Budget;

    /// A backend whose `begin_batch` panics: past the per-cube recovery.
    struct BrokenBoundary(Box<dyn CubeBackend>);

    impl CubeBackend for BrokenBoundary {
        fn solve(
            &mut self,
            cube: &[Lit],
            budget: &Budget,
            interrupt: &InterruptFlag,
            conflict_acc: &mut [u64],
        ) -> BackendOutcome {
            self.0.solve(cube, budget, interrupt, conflict_acc)
        }

        fn begin_batch(&mut self) {
            panic!("begin_batch broke");
        }

        fn end_batch(&mut self) -> SolverStats {
            self.0.end_batch()
        }
    }

    #[test]
    fn a_panic_past_recovery_reaches_the_caller_naming_slot_and_positions() {
        let cnf = Cnf::pigeonhole(4);
        let cubes: Vec<Cube> = DecompositionSet::new((0..3).map(Var::new))
            .cubes()
            .collect();
        let config = BatchConfig::default();
        let spec = Arc::new(BackendSpec::new(Arc::new(cnf.clone()), &config));
        // Once on a spawned worker's slot, once on the caller's own.
        for (broken, expected) in [(1, "positions 4..8 of 8"), (0, "positions 0..4 of 8")] {
            let mut pool = WorkerPool::new(&spec, 2, None);
            let healthy = pool.slots[broken].take_backend();
            pool.slots[broken].backend = Resident::Ready(Box::new(BrokenBoundary(healthy)));
            let run = |pool: &mut WorkerPool| {
                let mut result = BatchResult::unsolved(cubes.len(), cnf.num_vars());
                let interrupt = InterruptFlag::new();
                catch_unwind(AssertUnwindSafe(|| {
                    pool.run_batch(&cubes, &config, &interrupt, &mut result)
                }))
            };
            let payload = run(&mut pool).expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&format!("oracle worker {broken} died mid-batch")),
                "{message}"
            );
            assert!(message.contains(expected), "{message}");
            // The slot is dead; the next batch runs on the other one alone.
            assert_eq!(run(&mut pool).expect("one slot is left"), cubes.len());
        }
    }
}
