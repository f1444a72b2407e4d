//! Memoization of evaluated decomposition points.
//!
//! Each evaluation of the predictive function costs `N` complete sub-problem
//! solves, so revisiting a point of the search space — a different
//! metaheuristic run over the same instance, a restart, or the comparison
//! tables that score the same reference set several times — should never pay
//! twice. The [`CubeOracle`](super::CubeOracle) owns one [`PointCache`] whose
//! lifetime spans every search that shares the oracle.
//!
//! The cache is **bounded**: long annealing/tabu runs visit an endless
//! stream of mostly-new points, so an uncapped map grows without limit.
//! Once [`PointCache::capacity`] entries are held, storing a new point
//! evicts the oldest stored one (FIFO). Metaheuristic revisits are heavily
//! biased toward recent points (a move undone, a neighborhood re-scored), so
//! insertion-order eviction keeps almost all of the hit rate at a fixed
//! memory ceiling.

use crate::predict::PointEvaluation;
use pdsat_cnf::Var;
use std::collections::{HashMap, VecDeque};

/// Cache of completed point evaluations, keyed by the (canonically sorted)
/// variables of the decomposition set, holding at most `capacity` entries.
#[derive(Debug)]
pub struct PointCache {
    map: HashMap<Vec<Var>, PointEvaluation>,
    /// Keys in insertion order; the front is the eviction victim. Re-storing
    /// an existing key does not refresh its position (the evaluation is
    /// replaced in place), so the queue never holds duplicates.
    order: VecDeque<Vec<Var>>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for PointCache {
    fn default() -> Self {
        PointCache::new()
    }
}

impl PointCache {
    /// Entry cap of every oracle's cache. Long annealing/tabu runs visit an
    /// unbounded stream of points; the cap keeps the cache's memory bounded
    /// while recent revisits (the common kind) still hit.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates an empty cache with the default entry cap.
    #[must_use]
    pub fn new() -> PointCache {
        PointCache::with_capacity(PointCache::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache evicting beyond `capacity` entries. A capacity
    /// of 0 disables memoization entirely (stores become no-ops).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> PointCache {
        PointCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The maximum number of entries kept before eviction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the evaluation memoized for `vars` (the sorted variable list
    /// of a [`DecompositionSet`](crate::DecompositionSet)), recording a hit
    /// or miss.
    pub fn lookup(&mut self, vars: &[Var]) -> Option<&PointEvaluation> {
        match self.map.get(vars) {
            Some(eval) => {
                self.hits += 1;
                Some(eval)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes an evaluation. A later evaluation of the same point replaces
    /// the stored one (callers re-evaluate only deliberately). When the cache
    /// is at capacity, the oldest *other* entry is evicted first.
    pub fn store(&mut self, vars: Vec<Var>, evaluation: PointEvaluation) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(vars.clone(), evaluation).is_some() {
            return; // replaced in place; insertion order unchanged
        }
        self.order.push_back(vars);
        while self.map.len() > self.capacity {
            let victim = self
                .order
                .pop_front()
                .expect("every mapped key is queued exactly once");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Number of memoized points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that fell through to a real evaluation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries dropped to keep the cache within its capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every memoized point (e.g. after the formula changed). Hit,
    /// miss and eviction counters are preserved (they describe lifetime
    /// behaviour, not contents).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::PredictiveEstimate;
    use crate::predict::SampleVerdicts;
    use crate::DecompositionSet;
    use std::time::Duration;

    fn key(i: u32) -> Vec<Var> {
        vec![Var::new(i)]
    }

    fn eval() -> PointEvaluation {
        PointEvaluation {
            set: DecompositionSet::new([Var::new(0)]),
            estimate: PredictiveEstimate::from_observations(1, &[1.0]),
            observations: vec![1.0],
            verdicts: SampleVerdicts::default(),
            model: None,
            wall_time: Duration::ZERO,
        }
    }

    #[test]
    fn capacity_bounds_entries_with_fifo_eviction() {
        let mut cache = PointCache::with_capacity(2);
        cache.store(key(0), eval());
        cache.store(key(1), eval());
        assert_eq!(cache.len(), 2);
        cache.store(key(2), eval());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&key(0)).is_none(), "oldest entry was evicted");
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn restoring_an_existing_key_does_not_evict() {
        let mut cache = PointCache::with_capacity(2);
        cache.store(key(0), eval());
        cache.store(key(1), eval());
        cache.store(key(0), eval()); // replace in place
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.lookup(&key(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut cache = PointCache::with_capacity(0);
        cache.store(key(0), eval());
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(0)).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let mut cache = PointCache::with_capacity(4);
        cache.store(key(0), eval());
        assert!(cache.lookup(&key(0)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
        // A re-stored point is insertable again after the clear.
        cache.store(key(0), eval());
        assert_eq!(cache.len(), 1);
    }
}
