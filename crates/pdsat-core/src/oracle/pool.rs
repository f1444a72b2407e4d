//! The persistent worker pool of a [`CubeOracle`](super::CubeOracle).
//!
//! PDSAT keeps its MiniSat worker *processes* alive for the whole run and
//! streams sub-problems to them; re-creating a worker per search-space point
//! would throw away every learnt clause and pay thread/solver start-up on
//! each of the thousands of `F(χ)` evaluations. This module is the
//! thread-level equivalent: `num_workers` OS threads are spawned once when
//! the oracle is built, each thread builds and *owns* one backend instance
//! for its entire lifetime, and batches are fed to the pool as chunked jobs
//! over per-worker channels.
//!
//! Per batch, each participating worker drains its own contiguous *stripe*
//! of the cube list chunk-by-chunk through an atomic cursor, then steals
//! chunks from other workers' stripes — sticky assignment keeps each
//! resident warm solver re-seeing the cubes it already learned, stealing
//! keeps skewed families balanced. Workers accumulate per-variable conflict
//! counts and solver-statistics deltas *locally* and send exactly one
//! [`WorkerReport`] back when the batch is drained — so the channel carries
//! `num_workers` messages per batch instead of one `num_vars`-sized vector
//! per cube. Workers park on their job channel between batches and exit when
//! the oracle (and with it the job senders) is dropped.
//!
//! What a batch shares is one [`FlatCubes`] copy of the caller's cubes (one
//! literal buffer plus end offsets). What comes back are the outcomes as
//! *runs* of consecutive cube indices — one run per worker when nothing is
//! stolen — which [`WorkerPool::run_batch`] orders by first index and moves
//! into place, so the outcomes arrive sorted without being sorted. Cubes are
//! processed in the order submitted: a batch position *is* a cube index.
//!
//! # Fault tolerance
//!
//! A backend that panics mid-cube no longer kills the batch. Every solve
//! call runs under `catch_unwind`; on a panic the worker *quarantines* the
//! poisoned backend (drops it — its in-batch statistics are lost, counted in
//! `SolverStats::worker_panics`), builds a fresh replacement on the spot,
//! and requeues the in-flight cube onto it **exactly once**
//! (`SolverStats::requeued_cubes`). A cube whose retry panics again — or any
//! cube stranded when the respawn itself fails — is handed back to the
//! oracle through [`WorkerReport::failed`], and the oracle solves those
//! leftovers on the calling thread with a one-shot sequential backend (the
//! last-resort fallback). A worker whose respawn fails reports, marks itself
//! dying and exits; later batches are dispatched around the dead slot, and
//! only when *every* slot is dead does dispatch panic (naming the pool
//! shape), since at that point no executor is left. The no-fault path is
//! bit-identical to the pre-fault-tolerance pool: `catch_unwind` does not
//! perturb the computation, and the counters stay zero.

use super::backend::BackendSpec;
use super::share::{ClauseExchange, WorkerShare};
use super::{finish_outcome, CubeOutcome, VerdictSummary};
use crate::fault::{FaultState, FaultyBackend};
use crate::CostMetric;
use pdsat_cnf::{Cube, Lit};
use pdsat_solver::{Budget, InterruptFlag, ShareChannel, SolverStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// One worker's contiguous slice of the batch, drained chunk by chunk
/// through an atomic cursor (so idle workers can steal from it).
struct Stripe {
    cursor: AtomicUsize,
    end: usize,
}

/// The cubes of one batch in two allocations: every literal back to back,
/// and per cube the offset its literals end at (cube `i` is
/// `lits[ends[i - 1]..ends[i]]`). Owned, so the pool threads can outlive the
/// caller's borrow, and freed in O(1) by whichever thread drops the batch
/// last.
pub(super) struct FlatCubes {
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl FlatCubes {
    /// Copies `cubes`.
    ///
    /// # Panics
    ///
    /// Panics when the batch holds more than `u32::MAX` literals in total —
    /// the end offsets are `u32`.
    pub(super) fn copy_of(cubes: &[Cube]) -> FlatCubes {
        FlatCubes::copy_within_limit(cubes, u32::MAX as usize)
    }

    /// [`copy_of`](FlatCubes::copy_of) with the offset limit as a parameter,
    /// so the boundary can be tested without a 16 GiB batch.
    fn copy_within_limit(cubes: &[Cube], max_lits: usize) -> FlatCubes {
        let total: usize = cubes.iter().map(Cube::len).sum();
        assert!(
            total <= max_lits,
            "a batch of {} cubes holds {total} assumption literals, more than the {max_lits} \
             its end offsets can address; split the batch",
            cubes.len(),
        );
        let mut lits: Vec<Lit> = Vec::with_capacity(total);
        let mut ends: Vec<u32> = Vec::with_capacity(cubes.len());
        for cube in cubes {
            lits.extend_from_slice(cube.lits());
            // `total <= max_lits <= u32::MAX` was asserted above.
            ends.push(lits.len() as u32);
        }
        FlatCubes { lits, ends }
    }

    /// Number of cubes.
    pub(super) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The assumption literals of cube `i`.
    pub(super) fn get(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start as usize..self.ends[i] as usize]
    }
}

/// Everything the workers share about one batch in flight.
pub(super) struct BatchShared {
    /// The cubes of the batch, in submission order. Stripes are contiguous
    /// runs of it, so a batch submitted prefix-sorted gives each worker a
    /// block of cubes sharing long assumption prefixes — exactly what the
    /// warm backend's trail reuse feeds on.
    pub cubes: FlatCubes,
    /// One stripe per participating worker. The worker assigned stripe `i`
    /// drains it first and only then steals chunks from other stripes, so in
    /// the steady state (balanced stripes, no stealing) the *same* resident
    /// backend sees the *same* cubes batch after batch — warm-solver
    /// locality that a single global cursor would reshuffle on every batch.
    stripes: Vec<Stripe>,
    /// Number of cube indices a worker claims per cursor increment.
    chunk: usize,
    /// Per-cube resource budget.
    pub budget: Budget,
    /// Cost metric recorded per cube.
    pub cost: CostMetric,
    /// Stop claiming cubes once the interrupt is raised.
    pub stop_on_sat: bool,
    /// The batch-wide interrupt flag fanned out to every worker.
    pub interrupt: InterruptFlag,
}

impl BatchShared {
    pub(super) fn new(
        cubes: FlatCubes,
        active_workers: usize,
        config: &super::BatchConfig,
        interrupt: InterruptFlag,
    ) -> BatchShared {
        let active = active_workers.max(1);
        let stripes = (0..active)
            .map(|i| Stripe {
                cursor: AtomicUsize::new(i * cubes.len() / active),
                end: (i + 1) * cubes.len() / active,
            })
            .collect();
        // Chunks amortize cursor traffic while staying small enough that
        // stealing still balances skewed per-cube costs (and that
        // `stop_on_sat` is observed promptly: the flag is re-checked before
        // every cube, so a chunk bounds only the claimed-but-unsolved tail).
        let chunk = (cubes.len() / (active * 8)).clamp(1, 32);
        BatchShared {
            cubes,
            stripes,
            chunk,
            budget: config.budget.clone(),
            cost: config.cost,
            stop_on_sat: config.stop_on_sat,
            interrupt,
        }
    }

    /// Claims the next chunk of cube indices for the worker assigned
    /// `stripe` — from that stripe while it lasts, then from the other
    /// stripes — or `None` when the whole batch is drained.
    fn claim(&self, stripe: usize) -> Option<std::ops::Range<usize>> {
        let stripes = self.stripes.len();
        for offset in 0..stripes {
            let stripe = &self.stripes[(stripe + offset) % stripes];
            let start = stripe.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start < stripe.end {
                return Some(start..(start + self.chunk).min(stripe.end));
            }
        }
        None
    }

    /// The cube indices stripe `i` initially owns (before stealing).
    fn stripe_span(&self, i: usize) -> std::ops::Range<usize> {
        let (n, a) = (self.cubes.len(), self.stripes.len());
        (i * n / a)..((i + 1) * n / a)
    }
}

/// Outcomes of consecutive cube indices, keyed by the first of them.
type OutcomeRun = (usize, Vec<CubeOutcome>);

/// One worker's aggregate result for one batch: outcomes of every cube it
/// solved, plus its locally accumulated conflict counts and stats deltas,
/// merged by the oracle once per batch.
pub(super) struct WorkerReport {
    /// Pool slot of the reporting worker.
    pub slot: usize,
    /// The outcomes, in the order solved, cut into runs wherever the next
    /// solved index was not the previous one plus one (a stolen chunk, or
    /// a cube handed to the fallback). A worker nobody stole from and that
    /// stole nothing reports exactly one run: its stripe.
    pub runs: Vec<OutcomeRun>,
    pub conflict_totals: Vec<u64>,
    pub stats: SolverStats,
    /// Cube indices this worker claimed but could not solve: the cube
    /// panicked twice (killing the original *and* the respawned backend), or
    /// the worker's respawn failed with the cube (and the rest of its
    /// claimed chunk) in flight. The oracle re-solves these on the calling
    /// thread — the sequential last-resort fallback.
    pub failed: Vec<usize>,
    /// `true` when the worker exits after this report (its backend respawn
    /// failed); the pool stops dispatching to the slot.
    pub dying: bool,
}

impl WorkerReport {
    fn new(slot: usize, num_vars: usize) -> WorkerReport {
        WorkerReport {
            slot,
            runs: Vec::new(),
            conflict_totals: vec![0; num_vars],
            stats: SolverStats::default(),
            failed: Vec::new(),
            dying: false,
        }
    }
}

/// The long-lived worker threads of one oracle.
///
/// Dropping the pool drops the job senders, which unparks every worker out
/// of its `recv` loop; the threads are then joined so backend destructors
/// run before the oracle's drop completes.
pub(super) struct WorkerPool {
    /// Per-slot job senders; a job is the shared batch plus the stripe index
    /// assigned to the receiving worker for that batch.
    job_txs: Vec<mpsc::Sender<(Arc<BatchShared>, usize)>>,
    result_rx: mpsc::Receiver<WorkerReport>,
    handles: Vec<JoinHandle<()>>,
    /// Slots whose worker exited after a failed respawn (or whose channel
    /// was found hung up at dispatch). Dead slots are skipped by later
    /// batches; an all-dead pool panics at dispatch.
    dead: Vec<bool>,
    /// The stripe each slot was assigned in the batch currently in flight
    /// (`None` for slots not participating) — consumed by the watchdog's
    /// panic message when a worker dies silently.
    assigned: Vec<Option<usize>>,
}

impl WorkerPool {
    /// Spawns `num_workers` threads, each building one backend from `spec`
    /// that lives until the pool is dropped. Backend construction happens
    /// *on* the worker threads, so e.g. warm solvers load the clause database
    /// concurrently. When `faults` is armed, every backend (initial and
    /// respawned) is wrapped in a [`FaultyBackend`] so the plan's solve
    /// panics and respawn failures fire inside the pool.
    pub(super) fn spawn(
        spec: &Arc<BackendSpec>,
        num_workers: usize,
        share: Option<Arc<ClauseExchange>>,
        faults: Option<Arc<FaultState>>,
    ) -> WorkerPool {
        let (result_tx, result_rx) = mpsc::channel::<WorkerReport>();
        let mut job_txs = Vec::with_capacity(num_workers);
        let mut handles = Vec::with_capacity(num_workers);
        for slot in 0..num_workers {
            let (job_tx, job_rx) = mpsc::channel::<(Arc<BatchShared>, usize)>();
            let result_tx = result_tx.clone();
            let spec = Arc::clone(spec);
            let faults = faults.clone();
            // Each worker gets its own endpoint of the clause exchange,
            // publishing into shard `slot` and draining every other shard.
            let endpoint: Option<Arc<dyn ShareChannel>> = share.as_ref().map(|ex| {
                Arc::new(WorkerShare::new(Arc::clone(ex), slot)) as Arc<dyn ShareChannel>
            });
            handles.push(std::thread::spawn(move || {
                worker_loop(slot, &job_rx, &result_tx, &spec, endpoint, faults.as_ref());
            }));
            job_txs.push(job_tx);
        }
        WorkerPool {
            job_txs,
            result_rx,
            handles,
            dead: vec![false; num_workers],
            assigned: vec![None; num_workers],
        }
    }

    /// Number of resident worker threads (live or dead).
    pub(super) fn size(&self) -> usize {
        self.job_txs.len()
    }

    /// Number of worker slots still accepting jobs.
    pub(super) fn live(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Dispatches one batch to the pool and blocks until every participating
    /// worker has reported back. Fills `outcomes` (empty on entry) with the
    /// solved cubes in index order and returns the cube indices no
    /// worker could solve (panicked twice, or stranded by a failed respawn) —
    /// the caller re-solves those sequentially.
    ///
    /// Jobs are handed to the first `stripes` live workers in slot order —
    /// the oracle sizes the batch's stripe set to `min(live workers, cubes)`,
    /// so a batch smaller than the pool never wakes the surplus threads, and
    /// the drain below waits for exactly the number of jobs dispatched, so a
    /// short batch can never deadlock the channel. If fewer live workers
    /// than stripes remain (a worker died since the stripes were sized), the
    /// dispatched workers drain the orphaned stripes through chunk stealing.
    /// The caller guarantees the batch is non-empty.
    ///
    /// # Panics
    ///
    /// Panics when not a single live worker accepted the batch — every
    /// backend panicked and exhausted its respawn. With no executor left
    /// this is unrecoverable, the pool-level equivalent of the old
    /// single-failure abort (see the regression test for the all-dead case).
    pub(super) fn run_batch(
        &mut self,
        shared: &Arc<BatchShared>,
        outcomes: &mut Vec<CubeOutcome>,
        totals: &mut [u64],
        stats: &mut SolverStats,
    ) -> Vec<usize> {
        let stripes = shared.stripes.len();
        self.assigned.iter_mut().for_each(|a| *a = None);
        let mut dispatched = 0usize;
        for slot in 0..self.size() {
            if dispatched == stripes {
                break;
            }
            if self.dead[slot] {
                continue;
            }
            match self.job_txs[slot].send((Arc::clone(shared), dispatched)) {
                Ok(()) => {
                    self.assigned[slot] = Some(dispatched);
                    dispatched += 1;
                }
                // The worker hung up without a dying report (it exited
                // between batches); treat the slot as dead and move on.
                Err(_) => self.dead[slot] = true,
            }
        }
        assert!(
            dispatched > 0,
            "all {} oracle worker threads are dead (every backend panicked and \
             exhausted its respawn); cannot dispatch a batch of {} cubes",
            self.size(),
            shared.cubes.len(),
        );
        let mut failed = Vec::new();
        let mut runs: Vec<OutcomeRun> = Vec::new();
        for _ in 0..dispatched {
            let report = self.recv_report(shared);
            for (t, &c) in totals.iter_mut().zip(&report.conflict_totals) {
                *t += c;
            }
            stats.absorb(&report.stats);
            runs.extend(report.runs);
            failed.extend(report.failed);
        }
        // Every index is claimed once, so the runs are disjoint and ordering
        // them by first index orders all their outcomes.
        runs.sort_unstable_by_key(|run| run.0);
        debug_assert!(outcomes.is_empty());
        if runs.len() == 1 {
            *outcomes = runs.pop().expect("one run").1;
        } else {
            // One buffer allocated here, on the calling thread: growing a
            // worker's run instead keeps the result in that worker's
            // allocator arena (peak RSS up by two fifths on 2^18-cube
            // batches).
            outcomes.reserve_exact(runs.iter().map(|run| run.1.len()).sum());
            for (_, mut run) in runs {
                outcomes.append(&mut run);
            }
        }
        failed.sort_unstable();
        failed.dedup();
        failed
    }

    /// Receives one worker report, turning a *silently* dead worker into a
    /// panic on the calling thread instead of a hang.
    ///
    /// A worker that panics mid-batch drops only *its* clone of the result
    /// sender; the remaining parked workers keep the channel open, so a
    /// plain `recv` would block forever on the report that will never come.
    /// Workers that die through the supported path (failed respawn) announce
    /// it with a final `dying` report, which marks the slot dead here — so a
    /// finished thread whose slot is *not* marked dead means a panic escaped
    /// the recovery machinery (e.g. inside `begin_batch`/`end_batch` or a
    /// backend destructor), and the batch cannot complete. The panic names
    /// the worker and the batch positions it owned so the operator knows
    /// which shard of the family was in flight.
    fn recv_report(&mut self, shared: &BatchShared) -> WorkerReport {
        loop {
            match self.result_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(report) => {
                    if report.dying {
                        self.dead[report.slot] = true;
                    }
                    return report;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for slot in 0..self.handles.len() {
                        // An empty channel plus a finished, not-marked-dead
                        // thread is conclusive: a dying worker's final report
                        // is sent *before* its thread finishes, so it would
                        // have been drained (and the slot marked) before this
                        // timeout fired.
                        if self.handles[slot].is_finished() && !self.dead[slot] {
                            match self.assigned[slot] {
                                Some(stripe) => {
                                    let span = shared.stripe_span(stripe);
                                    panic!(
                                        "oracle worker {slot} died mid-batch (panic escaped \
                                         backend recovery) while owning batch positions \
                                         {}..{} of {} cubes",
                                        span.start,
                                        span.end,
                                        shared.cubes.len(),
                                    );
                                }
                                None => panic!(
                                    "oracle worker {slot} died outside its batch \
                                     (panic escaped backend recovery)"
                                ),
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!(
                        "all {} oracle worker threads died mid-batch",
                        self.handles.len()
                    );
                }
            }
        }
    }
}

/// The body of one pool thread: builds the resident backend, then drains
/// batches until the job channel hangs up. Free function (rather than a
/// closure in `spawn`) so the respawn path can rebuild the backend from the
/// retained spec.
fn worker_loop(
    slot: usize,
    job_rx: &mpsc::Receiver<(Arc<BatchShared>, usize)>,
    result_tx: &mpsc::Sender<WorkerReport>,
    spec: &Arc<BackendSpec>,
    endpoint: Option<Arc<dyn ShareChannel>>,
    faults: Option<&Arc<FaultState>>,
) {
    let num_vars = spec.cnf.num_vars();
    let build = || {
        let inner = spec.build(endpoint.clone());
        match faults {
            Some(f) => Box::new(FaultyBackend::new(inner, Arc::clone(f))) as _,
            None => inner,
        }
    };
    let mut backend = build();
    while let Ok((shared, stripe)) = job_rx.recv() {
        backend.begin_batch();
        let mut report = WorkerReport::new(slot, num_vars);
        let (mut panics, mut requeued) = (0u64, 0u64);
        'batch: while let Some(range) = shared.claim(stripe) {
            for index in range.clone() {
                if shared.stop_on_sat && shared.interrupt.is_raised() {
                    break 'batch;
                }
                let mut raw = None;
                // First attempt plus at most one requeue onto a respawned
                // backend — the exactly-once requeue contract.
                for attempt in 0..2 {
                    let solved = catch_unwind(AssertUnwindSafe(|| {
                        backend.solve(
                            shared.cubes.get(index),
                            &shared.budget,
                            &shared.interrupt,
                            &mut report.conflict_totals,
                        )
                    }));
                    match solved {
                        Ok(outcome) => {
                            raw = Some(outcome);
                            break;
                        }
                        Err(_) => {
                            panics += 1;
                            // Quarantine the poisoned backend and respawn in
                            // place. Its in-batch statistics die with it —
                            // `end_batch` on a backend that just unwound
                            // cannot be trusted.
                            let respawned = if faults.is_some_and(|f| f.respawn_should_fail()) {
                                None
                            } else {
                                catch_unwind(AssertUnwindSafe(&build)).ok()
                            };
                            match respawned {
                                Some(mut fresh) => {
                                    fresh.begin_batch();
                                    backend = fresh;
                                    if attempt == 0 {
                                        requeued += 1;
                                    }
                                }
                                None => {
                                    // Respawn failed: release the in-flight
                                    // cube and the rest of the claimed chunk,
                                    // report, and exit the thread. The oracle
                                    // falls back to a sequential solve for
                                    // the released cubes and dispatches later
                                    // batches around this slot.
                                    report.failed.extend(index..range.end);
                                    report.dying = true;
                                    report.stats.worker_panics = panics;
                                    report.stats.requeued_cubes = requeued;
                                    let _ = result_tx.send(report);
                                    return;
                                }
                            }
                        }
                    }
                }
                match raw {
                    Some(raw) => {
                        let outcome = finish_outcome(index, raw, shared.cost);
                        if shared.stop_on_sat && outcome.verdict == VerdictSummary::Sat {
                            shared.interrupt.raise();
                        }
                        match report.runs.last_mut() {
                            Some((first, run)) if *first + run.len() == index => run.push(outcome),
                            // The first run is the worker's own stripe when
                            // nobody steals from it; later ones start at a
                            // stolen chunk.
                            last => {
                                let capacity = match last {
                                    None => shared.stripe_span(stripe).len(),
                                    Some(_) => shared.chunk,
                                };
                                let mut run = Vec::with_capacity(capacity);
                                run.push(outcome);
                                report.runs.push((index, run));
                            }
                        }
                    }
                    // The cube killed two backends in a row; hand it to the
                    // oracle's sequential fallback and carry on — the second
                    // respawn above already gave this worker a healthy
                    // backend for the rest of the batch.
                    None => report.failed.push(index),
                }
            }
        }
        // Solver statistics — the trail-reuse counters included — are merged
        // exactly once per batch; the fault counters ride along.
        report.stats = backend.end_batch();
        report.stats.worker_panics += panics;
        report.stats.requeued_cubes += requeued;
        if result_tx.send(report).is_err() {
            break; // the oracle is gone
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.job_txs.clear(); // hang up: workers fall out of `recv`
        for handle in self.handles.drain(..) {
            // A worker that panicked already surfaced its error through the
            // failed channel operations; nothing more to propagate here.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecompositionSet;
    use pdsat_cnf::Var;

    fn assert_round_trip(cubes: &[Cube]) {
        let flat = FlatCubes::copy_of(cubes);
        assert_eq!(flat.len(), cubes.len());
        for (i, cube) in cubes.iter().enumerate() {
            assert_eq!(flat.get(i), cube.lits(), "cube {i}");
        }
    }

    #[test]
    fn flat_cubes_round_trip_empty_cubes_and_mixed_lengths() {
        assert_round_trip(&[]);
        let vars: Vec<Var> = (0..5).map(Var::new).collect();
        assert_round_trip(&[
            Cube::new(),
            Cube::from_bits(&vars[..3], 0b101),
            Cube::new(),
            Cube::new(),
            Cube::from_bits(&vars[4..], 1),
            Cube::from_bits(&vars, 0b10011),
            Cube::new(),
        ]);
    }

    #[test]
    fn flat_cubes_accept_a_batch_that_exactly_fills_the_offsets() {
        let vars: Vec<Var> = (0..3).map(Var::new).collect();
        let cubes: Vec<Cube> = DecompositionSet::new(vars).cubes().collect(); // 8 × 3
        let flat = FlatCubes::copy_within_limit(&cubes, 24);
        assert_eq!(flat.get(7), cubes[7].lits());
        assert_eq!(flat.ends.last(), Some(&24));
    }

    #[test]
    #[should_panic(expected = "a batch of 8 cubes holds 24 assumption literals, more than the 23")]
    fn flat_cubes_refuse_a_batch_one_literal_over_the_offsets() {
        let vars: Vec<Var> = (0..3).map(Var::new).collect();
        let cubes: Vec<Cube> = DecompositionSet::new(vars).cubes().collect();
        let _ = FlatCubes::copy_within_limit(&cubes, 23);
    }
}
