//! Memoization of evaluated decomposition points.
//!
//! Each evaluation of the predictive function costs `N` complete sub-problem
//! solves, so revisiting a point of the search space — a different
//! metaheuristic run over the same instance, a restart, or the comparison
//! tables that score the same reference set several times — should never pay
//! twice. The [`Evaluator`](super::Evaluator) owns one [`PointCache`] whose
//! lifetime spans every search that shares the evaluator.
//!
//! The cache is **bounded**: long annealing/tabu runs visit an endless
//! stream of mostly-new points, so an uncapped map grows without limit.
//! Once [`PointCache::CAPACITY`] entries are held, storing a new point
//! evicts the oldest stored one (FIFO). Metaheuristic revisits are heavily
//! biased toward recent points (a move undone, a neighborhood re-scored), so
//! insertion-order eviction keeps almost all of the hit rate at a fixed
//! memory ceiling.

use super::PointEvaluation;
use pdsat_cnf::Var;
use std::collections::{HashMap, VecDeque};

/// Cache of completed point evaluations, keyed by the (canonically sorted)
/// variables of the decomposition set, holding at most `capacity` entries.
#[derive(Debug)]
pub(crate) struct PointCache {
    map: HashMap<Vec<Var>, PointEvaluation>,
    /// Keys in insertion order; the front is the eviction victim. Re-storing
    /// an existing key does not refresh its position (the evaluation is
    /// replaced in place), so the queue never holds duplicates.
    order: VecDeque<Vec<Var>>,
    capacity: usize,
    hits: u64,
}

impl PointCache {
    /// Entry cap of every evaluator's cache.
    const CAPACITY: usize = 65_536;

    /// Creates an empty cache with the [`CAPACITY`](PointCache::CAPACITY)
    /// entry cap.
    pub(crate) fn new() -> PointCache {
        PointCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: PointCache::CAPACITY,
            hits: 0,
        }
    }

    /// A cache small enough for a test to fill.
    #[cfg(test)]
    fn with_capacity(capacity: usize) -> PointCache {
        PointCache {
            capacity,
            ..PointCache::new()
        }
    }

    /// Looks up the evaluation memoized for `vars` (the sorted variable list
    /// of a [`DecompositionSet`](crate::DecompositionSet)), counting a hit.
    pub(crate) fn lookup(&mut self, vars: &[Var]) -> Option<&PointEvaluation> {
        let hit = self.map.get(vars);
        self.hits += u64::from(hit.is_some());
        hit
    }

    /// Memoizes an evaluation. A later evaluation of the same point replaces
    /// the stored one (callers re-evaluate only deliberately). When the cache
    /// is at capacity, the oldest *other* entry is evicted first.
    pub(crate) fn store(&mut self, vars: Vec<Var>, evaluation: PointEvaluation) {
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
        }
    }

    /// Number of lookups answered from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
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
        assert_eq!(cache.map.len(), 2);
        cache.store(key(2), eval());
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.order.len(), 2);
        assert!(cache.lookup(&key(0)).is_none(), "oldest entry was evicted");
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn restoring_an_existing_key_does_not_evict() {
        let mut cache = PointCache::with_capacity(2);
        cache.store(key(0), eval());
        cache.store(key(1), eval());
        cache.store(key(0), eval()); // replace in place
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.order.len(), 2, "the queue holds no duplicate key");
        assert!(cache.lookup(&key(0)).is_some());
        assert!(cache.lookup(&key(1)).is_some());
    }
}
