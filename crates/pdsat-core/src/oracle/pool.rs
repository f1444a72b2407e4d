//! The worker pool of a [`CubeOracle`](super::CubeOracle): resident backends,
//! threads per batch.
//!
//! PDSAT keeps its MiniSat worker *processes* alive for the whole run and
//! streams sub-problems to them; what that buys is each worker's **solver
//! state** — every learnt clause survives from one search-space point to the
//! next — not the process as such. This module keeps exactly that: one
//! backend per pool slot lives until the oracle is dropped. The slots a batch
//! reaches that have no backend yet get theirs before the batch starts, on
//! the calling thread and from one load of the formula between them
//! ([`BackendSpec::build_many`]). The *threads* are per batch:
//! [`WorkerPool::run_batch`] runs under [`std::thread::scope`], the calling
//! thread drains stripe 0 itself and one scoped thread is spawned per
//! further stripe, so a one-stripe batch — every batch of a one-slot pool —
//! spawns nothing.
//!
//! Scoped threads end before `run_batch` returns, so a batch *borrows*:
//! every worker reads the caller's `&[Cube]` — each cube's literals into one
//! reused [`LitBuffer`], never through `Cube::lits`, whose cache would keep
//! a copy per cube — and writes each cube's cost and verdict straight into
//! the two result columns the oracle allocated. Both
//! columns are cut into one contiguous *stripe* per participating slot and
//! each stripe into the same chunks, handed out through a mutex around the
//! stripe's two `ChunksMut`: a worker drains its own stripe first, then
//! steals chunks from the others — sticky assignment keeps each resident
//! warm solver re-seeing the cubes it already learned, stealing keeps skewed
//! families balanced — and a stolen chunk is a `&mut` into the place its
//! cubes belong, so no column entry is sorted, listed or appended afterwards.
//! Cubes are processed in the order submitted: a batch position *is* a cube
//! index. Workers accumulate solver-statistics deltas and the rare model or
//! proof locally and hand back one [`StripeReport`] each through their join.
//! Per-variable conflict counts go into the oracle's running tally: the
//! calling thread's straight, each spawned worker's through a row of its own
//! that is added in once the batch is over.
//!
//! # Fault tolerance
//!
//! A backend that panics mid-cube does not kill the batch. Every solve call
//! runs under `catch_unwind` — one guard per run of a chunk's cubes, which
//! a panic ends at the cube that panicked; on a panic the worker counts it
//! in `SolverStats::worker_panics`, drops the backend (its in-batch
//! statistics die with it), builds a replacement (a load of its own) and
//! carries on with its next cube, in a new run. The cube itself keeps the
//! `None` verdict the column was allocated with: the oracle re-solves every such cube once on
//! the calling thread with a one-shot backend (`SolverStats::requeued_cubes`),
//! which is never injected, so a panic there reaches the caller. The pool
//! calls `solve` exactly once per cube, for a pool of any width.
//! A panic outside a solve (from `begin_batch` / `end_batch`, or from
//! building a replacement) comes back through the scope's join and is
//! re-raised on the caller naming the slot and the batch positions it owned;
//! the slot is left without a backend, so its next batch builds one. A panic
//! while a batch's first backends are built, on the caller before any worker
//! starts, reaches the caller as it is and leaves every slot it was building
//! for without one. The no-fault
//! path is bit-identical to a pool without the recovery: `catch_unwind`
//! does not perturb the computation, and the counters stay zero.

use super::backend::{BackendSpec, CubeBackend};
use super::{summarize, BatchResult, VerdictSummary};
use crate::fault::{FaultState, FaultyBackend};
use pdsat_cnf::{Assignment, Cube, DratProof, LitBuffer};
use pdsat_solver::{InterruptFlag, SolverStats};
use std::iter::Zip;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice::ChunksMut;
use std::sync::{Arc, Mutex};
use std::thread;

/// What the pool builds its backends from: the first ones of the slots and
/// every replacement.
struct Blueprint {
    spec: Arc<BackendSpec>,
    /// When armed, every backend is wrapped in a [`FaultyBackend`] so the
    /// plan's solve panics fire inside the pool.
    faults: Option<Arc<FaultState>>,
}

impl Blueprint {
    /// `n` backends from one load of the formula.
    fn build_many(&self, n: usize) -> Vec<Box<dyn CubeBackend>> {
        let built = self.spec.build_many(n).into_iter();
        built.map(|inner| self.wrap(inner)).collect()
    }

    /// A replacement backend, from a load of its own.
    fn build(&self) -> Box<dyn CubeBackend> {
        self.wrap(self.spec.build())
    }

    fn wrap(&self, inner: Box<dyn CubeBackend>) -> Box<dyn CubeBackend> {
        match &self.faults {
            Some(f) => Box::new(FaultyBackend::new(inner, Arc::clone(f))),
            None => inner,
        }
    }
}

/// A pool slot: its backend between batches; `None` until a batch first
/// reaches the slot, and after a worker unwound with it.
type Slot = Option<Box<dyn CubeBackend>>;

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
    /// The batch-wide interrupt flag every worker observes.
    interrupt: &'a InterruptFlag,
}

impl<'a> Batch<'a> {
    fn new(
        cubes: &'a [Cube],
        costs: &'a mut [f64],
        verdicts: &'a mut [Option<VerdictSummary>],
        stripes: usize,
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
    /// The models and proofs of those cubes, by batch position.
    models: Vec<(usize, Assignment)>,
    proofs: Vec<(usize, DratProof)>,
}

/// One worker's share of one batch, on whichever thread runs it: drains
/// `stripe` and then steals, on the slot's resident backend, adding
/// per-variable conflict counts into `totals`. A cube whose solve panics
/// keeps its `None` verdict and the worker goes on with a replacement
/// backend. The backend is moved out of the slot for the batch and put back
/// at its end, so a slot whose worker unwinds is left without one.
fn drain(
    slot: &mut Slot,
    blueprint: &Blueprint,
    stripe: usize,
    batch: &Batch<'_>,
    totals: &mut [u64],
) -> StripeReport {
    let Batch {
        cubes, interrupt, ..
    } = *batch;
    let mut backend = slot.take().expect("a batch's slots are built before it");
    backend.begin_batch();
    let mut report = StripeReport::default();
    let mut panics = 0u64;
    let mut buffer = LitBuffer::new();
    while let Some((first, costs, verdicts)) = batch.claim(stripe) {
        // One unwind guard per run of cubes, not per cube, so the loop is
        // optimised as one piece: a guard per cube cost ≈ 6–10 ns of a warm
        // cube's ≈ 50–60 on `solve-easy-grain`. A panic ends the run at the
        // cube whose solve panicked, which keeps its `None` for the oracle's
        // re-solve, and the next run starts after it.
        let mut next = 0;
        while next < costs.len() {
            let run = catch_unwind(AssertUnwindSafe(|| {
                while next < costs.len() {
                    let index = first + next;
                    let raw = backend.solve(buffer.write(&cubes[index]), interrupt, totals);
                    costs[next] = raw.cost;
                    verdicts[next] = Some(summarize(
                        index,
                        raw,
                        &mut report.models,
                        &mut report.proofs,
                    ));
                    next += 1;
                }
            }));
            if run.is_err() {
                // Drop the poisoned backend: `end_batch` on a backend that
                // just unwound cannot be trusted, so its in-batch statistics
                // die with it.
                panics += 1;
                next += 1;
                backend = blueprint.build();
                backend.begin_batch();
            }
        }
    }
    // Solver statistics — the trail-reuse counters included — are merged
    // exactly once per batch; the panic count rides along.
    report.stats = backend.end_batch();
    report.stats.worker_panics = panics;
    *slot = Some(backend);
    report
}

/// The resident backends of one oracle, one per slot.
pub(super) struct WorkerPool {
    blueprint: Blueprint,
    slots: Vec<Slot>,
}

impl WorkerPool {
    /// A pool of `num_workers` slots, each with one backend built from
    /// `spec` that lives until the pool is dropped. Builds nothing: the
    /// first batch that reaches a slot builds its backend.
    pub(super) fn new(
        spec: &Arc<BackendSpec>,
        num_workers: usize,
        faults: Option<&Arc<FaultState>>,
    ) -> WorkerPool {
        WorkerPool {
            blueprint: Blueprint {
                spec: Arc::clone(spec),
                faults: faults.cloned(),
            },
            slots: (0..num_workers).map(|_| None).collect(),
        }
    }

    /// Number of slots.
    pub(super) fn size(&self) -> usize {
        self.slots.len()
    }

    /// Solves one non-empty batch on the first `min(slots, cubes)` slots:
    /// those without a backend get one first, all from one load on the
    /// calling thread; then the calling thread drains stripe 0, one scoped
    /// thread each the others, and all have finished when this returns.
    /// `result` is all unsolved on entry; every cube a worker solved has its
    /// cost and verdict at its own position on return and its model or proof
    /// listed (in no order yet), and each cube whose solve panicked — one
    /// per `worker_panics` added to `result`'s statistics — still has the
    /// `None` verdict. Statistics are added to `result`'s and per-variable
    /// conflict counts to `totals`.
    ///
    /// # Panics
    ///
    /// Panics when a worker unwound past its per-cube recovery; the conflict
    /// counts the calling thread's stripe already added stay in `totals`.
    pub(super) fn run_batch(
        &mut self,
        cubes: &[Cube],
        interrupt: &InterruptFlag,
        result: &mut BatchResult,
        totals: &mut [u64],
    ) {
        let stripes = self.slots.len().min(cubes.len());
        let Self { blueprint, slots } = self;
        let slots = &mut slots[..stripes];
        let unbuilt = slots.iter().filter(|slot| slot.is_none()).count();
        if unbuilt > 0 {
            let mut built = blueprint.build_many(unbuilt).into_iter();
            for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
                *slot = built.next();
            }
        }
        let blueprint = &*blueprint;
        let (costs, verdicts) = (&mut result.costs, &mut result.verdicts);
        let batch = Batch::new(cubes, costs, verdicts, stripes, interrupt);
        // The conflict counts of the spawned workers, one row each in one
        // allocation made here (the caller adds its own straight into
        // `totals`). A row is never empty, so that there is one per worker.
        let row = totals.len().max(1);
        let mut counts = vec![0u64; row * (stripes - 1)];
        let (own, others) = slots.split_first_mut().expect("a batch is never empty");
        // What the worker of stripe `i`, on slot `i`, returned.
        let reports: Vec<thread::Result<StripeReport>> = thread::scope(|scope| {
            let spawned: Vec<_> = others
                .iter_mut()
                .zip(counts.chunks_mut(row))
                .zip(1..)
                .map(|((slot, counts), stripe)| {
                    let batch = &batch;
                    scope.spawn(move || drain(slot, blueprint, stripe, batch, counts))
                })
                .collect();
            let own = catch_unwind(AssertUnwindSafe(|| {
                drain(own, blueprint, 0, &batch, totals)
            }));
            std::iter::once(own)
                .chain(spawned.into_iter().map(thread::ScopedJoinHandle::join))
                .collect()
        });
        for (slot, report) in reports.into_iter().enumerate() {
            let Ok(report) = report else {
                let span = stripe_span(slot, stripes, cubes.len());
                panic!(
                    "oracle worker {slot} died mid-batch (panic escaped backend recovery) \
                     while owning batch positions {}..{} of {} cubes",
                    span.start,
                    span.end,
                    cubes.len(),
                );
            };
            result.solver_stats.absorb(&report.stats);
            result.models.extend(report.models);
            result.proofs.extend(report.proofs);
        }
        for counts in counts.chunks(row) {
            for (t, &c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BackendOutcome;
    use crate::{DecompositionSet, SolveModeConfig};
    use pdsat_cnf::{Cnf, Lit, Var};

    /// A backend whose `begin_batch` panics: past the per-cube recovery.
    struct BrokenBoundary(Box<dyn CubeBackend>);

    impl CubeBackend for BrokenBoundary {
        fn solve(
            &mut self,
            cube: &[Lit],
            interrupt: &InterruptFlag,
            conflict_acc: &mut [u64],
        ) -> BackendOutcome {
            self.0.solve(cube, interrupt, conflict_acc)
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
        let spec = Arc::new(BackendSpec::new(&cnf, &SolveModeConfig::default()));
        // Once on a spawned worker's slot, once on the caller's own.
        for (broken, expected) in [(1, "positions 4..8 of 8"), (0, "positions 0..4 of 8")] {
            let mut pool = WorkerPool::new(&spec, 2, None);
            pool.slots[broken] = Some(Box::new(BrokenBoundary(spec.build())));
            let run = |pool: &mut WorkerPool| {
                let mut result = BatchResult::unsolved(cubes.len());
                let mut totals = vec![0; cnf.num_vars()];
                let interrupt = InterruptFlag::new();
                catch_unwind(AssertUnwindSafe(|| {
                    pool.run_batch(&cubes, &interrupt, &mut result, &mut totals);
                }))
                .map(|()| result)
            };
            let payload = run(&mut pool).expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&format!("oracle worker {broken} died mid-batch")),
                "{message}"
            );
            assert!(message.contains(expected), "{message}");
            // The next batch builds the broken slot a backend and solves
            // every cube.
            let result = run(&mut pool).expect("the slot is rebuilt");
            assert!(result.verdicts.iter().all(Option::is_some));
            assert!(pool.slots[broken].is_some());
        }
    }
}
