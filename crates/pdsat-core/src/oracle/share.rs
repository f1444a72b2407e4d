//! The pool-level clause exchange behind cooperative clause sharing.
//!
//! Every worker of a [`WorkerPool`](super::pool::WorkerPool) processes
//! sub-problems of the *same* base formula, so a learnt clause is sound in
//! every other worker's solver. The exchange is a mutex-sharded ring: each
//! worker publishes its exports into its **own** bounded shard (one lock,
//! never contended on the hot export path except by readers), and drains
//! every *other* shard through per-shard sequence cursors when its solver
//! reaches an import boundary (`begin_batch` or a restart). A worker never
//! reads its own shard back, and a per-endpoint signature set suppresses
//! clauses it has already exported or imported, so re-derived clauses do
//! not ping-pong between workers.
//!
//! When a shard is full the oldest clause is evicted and counted; the
//! count is folded into `SolverStats::import_dropped` once per batch by the
//! oracle. Everything here is lock-and-counter state — no clocks, no
//! unsafe code — so the module stays inside the repository's clock and
//! unsafe lints.

use pdsat_cnf::Lit;
use pdsat_solver::{ShareChannel, SharedClause};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on a per-endpoint signature set before it is reset.
/// Forgetting old signatures is sound — the worst case is re-importing a
/// clause the importer normalizes away as satisfied.
const SEEN_CAP: usize = 1 << 16;

/// One worker's bounded export ring.
struct Shard {
    /// `(sequence number, clause)` pairs in publication order.
    clauses: VecDeque<(u64, SharedClause)>,
    /// Sequence number the next published clause receives; consumers record
    /// it as their cursor after a drain.
    next_seq: u64,
}

/// Capacity of each worker's export ring in an oracle's exchange.
pub(crate) const SHARE_RING_CAPACITY: usize = 4096;

/// The shared clause-exchange of one worker pool.
pub(crate) struct ClauseExchange {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl ClauseExchange {
    /// An exchange for `workers` endpoints with `capacity` clauses per
    /// shard (clamped to at least one).
    pub(crate) fn new(workers: usize, capacity: usize) -> ClauseExchange {
        ClauseExchange {
            shards: (0..workers)
                .map(|_| {
                    Mutex::new(Shard {
                        clauses: VecDeque::new(),
                        next_seq: 0,
                    })
                })
                .collect(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publishes a clause into `slot`'s shard, evicting the oldest entry
    /// when the ring is full.
    fn publish(&self, slot: usize, lits: &[Lit], lbd: u32) {
        let mut shard = self.shards[slot]
            .lock()
            .expect("clause-exchange shard poisoned");
        let seq = shard.next_seq;
        shard.next_seq += 1;
        if shard.clauses.len() >= self.capacity {
            shard.clauses.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.clauses.push_back((
            seq,
            SharedClause {
                lits: lits.to_vec(),
                lbd,
            },
        ));
    }

    /// Ring-full evictions since the previous call (folded into
    /// `SolverStats::import_dropped` once per batch).
    pub(crate) fn take_dropped(&self) -> u64 {
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// Per-endpoint dedup and drain state.
struct EndpointState {
    /// Next unconsumed sequence number, per shard.
    cursors: Vec<u64>,
    /// Signatures of clauses this endpoint has already exported or
    /// imported.
    seen: HashSet<u64>,
}

/// One worker's endpoint of a [`ClauseExchange`]; implements the solver's
/// [`ShareChannel`].
pub(crate) struct WorkerShare {
    exchange: Arc<ClauseExchange>,
    slot: usize,
    state: Mutex<EndpointState>,
}

impl WorkerShare {
    /// The endpoint publishing into (and never reading back from) shard
    /// `slot`.
    pub(crate) fn new(exchange: Arc<ClauseExchange>, slot: usize) -> WorkerShare {
        let shards = exchange.shards.len();
        WorkerShare {
            exchange,
            slot,
            state: Mutex::new(EndpointState {
                cursors: vec![0; shards],
                seen: HashSet::new(),
            }),
        }
    }
}

impl ShareChannel for WorkerShare {
    fn export(&self, lits: &[Lit], lbd: u32) {
        let sig = signature(lits);
        {
            let mut state = self.state.lock().expect("share endpoint poisoned");
            if state.seen.len() >= SEEN_CAP {
                state.seen.clear();
            }
            if !state.seen.insert(sig) {
                // Re-derived (or previously imported): peers have it.
                return;
            }
        }
        self.exchange.publish(self.slot, lits, lbd);
    }

    fn fetch(&self, out: &mut Vec<SharedClause>) {
        let mut state = self.state.lock().expect("share endpoint poisoned");
        let EndpointState { cursors, seen } = &mut *state;
        for (idx, shard) in self.exchange.shards.iter().enumerate() {
            if idx == self.slot {
                // Own exports never come back.
                continue;
            }
            let shard = shard.lock().expect("clause-exchange shard poisoned");
            for (seq, clause) in &shard.clauses {
                if *seq < cursors[idx] {
                    continue;
                }
                if seen.len() >= SEEN_CAP {
                    seen.clear();
                }
                if seen.insert(signature(&clause.lits)) {
                    out.push(clause.clone());
                }
            }
            cursors[idx] = shard.next_seq;
        }
    }
}

/// SplitMix64 — a cheap statistically solid 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-independent 64-bit clause signature: per-literal hashes combined
/// with commutative operators, so the exporter's learnt order (asserting
/// literal first) and the importer's normalized sorted order agree. A
/// cross-clause collision only suppresses one import — always sound.
fn signature(lits: &[Lit]) -> u64 {
    let mut xor = 0u64;
    let mut sum = 0u64;
    for &l in lits {
        let h = splitmix64(l.code() as u64 + 1);
        xor ^= h;
        sum = sum.wrapping_add(h);
    }
    splitmix64(xor ^ sum.rotate_left(32) ^ ((lits.len() as u64) << 56))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn signature_is_order_independent_and_length_sensitive() {
        let a = signature(&[lit(1), lit(-2), lit(3)]);
        let b = signature(&[lit(3), lit(1), lit(-2)]);
        assert_eq!(a, b);
        assert_ne!(a, signature(&[lit(1), lit(-2)]));
        assert_ne!(a, signature(&[lit(1), lit(2), lit(3)]));
        assert_ne!(signature(&[]), signature(&[lit(1)]));
    }

    #[test]
    fn endpoints_exchange_without_reading_own_exports() {
        let exchange = Arc::new(ClauseExchange::new(2, 8));
        let a = WorkerShare::new(Arc::clone(&exchange), 0);
        let b = WorkerShare::new(Arc::clone(&exchange), 1);
        a.export(&[lit(1), lit(2)], 2);
        a.export(&[lit(3)], 1);

        let mut got = Vec::new();
        a.fetch(&mut got);
        assert!(got.is_empty(), "a worker never re-imports its own exports");
        b.fetch(&mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].lits, vec![lit(1), lit(2)]);

        // A second fetch sees nothing new; a duplicate export is suppressed.
        got.clear();
        b.fetch(&mut got);
        assert!(got.is_empty());
        a.export(&[lit(2), lit(1)], 2);
        b.fetch(&mut got);
        assert!(got.is_empty(), "re-derived clause must not be re-published");
    }

    #[test]
    fn dedup_covers_imported_clauses_too() {
        let exchange = Arc::new(ClauseExchange::new(3, 8));
        let a = WorkerShare::new(Arc::clone(&exchange), 0);
        let b = WorkerShare::new(Arc::clone(&exchange), 1);
        let c = WorkerShare::new(Arc::clone(&exchange), 2);
        a.export(&[lit(1), lit(2)], 2);
        let mut got = Vec::new();
        b.fetch(&mut got);
        assert_eq!(got.len(), 1);
        // B re-derives the clause it just imported: suppressed, so C only
        // ever sees one copy (from A).
        b.export(&[lit(2), lit(1)], 2);
        got.clear();
        c.fetch(&mut got);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let exchange = Arc::new(ClauseExchange::new(2, 2));
        let a = WorkerShare::new(Arc::clone(&exchange), 0);
        let b = WorkerShare::new(Arc::clone(&exchange), 1);
        a.export(&[lit(1)], 1);
        a.export(&[lit(2)], 1);
        a.export(&[lit(3)], 1); // evicts [1]
        assert_eq!(exchange.take_dropped(), 1);
        assert_eq!(exchange.take_dropped(), 0);

        let mut got = Vec::new();
        b.fetch(&mut got);
        let lits: Vec<_> = got.iter().map(|c| c.lits.clone()).collect();
        assert_eq!(lits, vec![vec![lit(2)], vec![lit(3)]]);
    }
}
