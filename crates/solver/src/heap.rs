//! Activity-ordered variable heap (the VSIDS decision order).

use pdsat_cnf::Var;

/// Indexed max-heap over variables keyed by an external activity array.
///
/// This is MiniSat's `Heap` specialised to variables: the heap stores
/// variable indices, `positions` maps a variable to its slot (or
/// `usize::MAX` when absent) so membership tests and `decrease`/`increase`
/// operations are O(1)/O(log n).
#[derive(Debug, Default)]
pub(crate) struct VarOrderHeap {
    heap: Vec<u32>,
    positions: Vec<usize>,
}

impl Clone for VarOrderHeap {
    fn clone(&self) -> VarOrderHeap {
        VarOrderHeap {
            heap: self.heap.clone(),
            positions: self.positions.clone(),
        }
    }

    /// Copies into the allocations `self` already owns (see
    /// `Solver::clone_from`).
    fn clone_from(&mut self, source: &VarOrderHeap) {
        let VarOrderHeap { heap, positions } = source;
        self.heap.clone_from(heap);
        self.positions.clone_from(positions);
    }
}

const ABSENT: usize = usize::MAX;

impl VarOrderHeap {
    pub fn new() -> VarOrderHeap {
        VarOrderHeap::default()
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn contains(&self, var: Var) -> bool {
        var.index() < self.positions.len() && self.positions[var.index()] != ABSENT
    }

    fn grow(&mut self, var: Var) {
        if var.index() >= self.positions.len() {
            self.positions.resize(var.index() + 1, ABSENT);
        }
    }

    /// Inserts `var` if absent.
    pub fn insert(&mut self, var: Var, activity: &[f64]) {
        self.grow(var);
        if self.contains(var) {
            return;
        }
        let pos = self.heap.len();
        self.heap.push(var.raw());
        self.positions[var.index()] = pos;
        self.sift_up(pos, activity);
    }

    /// Removes and returns the variable with maximal activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.positions[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var::new(top))
    }

    /// Restores the heap property for `var` after its activity increased.
    pub fn increased(&mut self, var: Var, activity: &[f64]) {
        if self.contains(var) {
            let pos = self.positions[var.index()];
            self.sift_up(pos, activity);
        }
    }

    /// Rebuilds the heap from scratch (used after a global activity rescale,
    /// which preserves the order, so this is rarely needed but kept for
    /// robustness).
    pub fn rebuild(&mut self, activity: &[f64]) {
        let vars: Vec<u32> = self.heap.clone();
        self.heap.clear();
        for p in self.positions.iter_mut() {
            *p = ABSENT;
        }
        for v in vars {
            self.insert(Var::new(v), activity);
        }
    }

    fn better(&self, a: u32, b: u32, activity: &[f64]) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.better(self.heap[pos], self.heap[parent], activity) {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut best = pos;
            if left < self.heap.len() && self.better(self.heap[left], self.heap[best], activity) {
                best = left;
            }
            if right < self.heap.len() && self.better(self.heap[right], self.heap[best], activity) {
                best = right;
            }
            if best == pos {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.positions[self.heap[a] as usize] = a;
        self.positions[self.heap[b] as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut heap = VarOrderHeap::new();
        for i in 0..4 {
            heap.insert(Var::new(i), &activity);
        }
        assert_eq!(heap.len(), 4);
        let order: Vec<u32> =
            std::iter::from_fn(|| heap.pop_max(&activity).map(Var::raw)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(heap.is_empty());
    }

    #[test]
    fn ties_break_by_index() {
        let activity = vec![1.0; 5];
        let mut heap = VarOrderHeap::new();
        for i in (0..5).rev() {
            heap.insert(Var::new(i), &activity);
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| heap.pop_max(&activity).map(Var::raw)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let activity = vec![1.0, 2.0];
        let mut heap = VarOrderHeap::new();
        heap.insert(Var::new(0), &activity);
        heap.insert(Var::new(0), &activity);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn increased_moves_var_up() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = VarOrderHeap::new();
        for i in 0..3 {
            heap.insert(Var::new(i), &activity);
        }
        activity[0] = 10.0;
        heap.increased(Var::new(0), &activity);
        assert_eq!(heap.pop_max(&activity), Some(Var::new(0)));
    }

    #[test]
    fn rebuild_preserves_members() {
        let activity = vec![1.0, 5.0, 3.0];
        let mut heap = VarOrderHeap::new();
        for i in 0..3 {
            heap.insert(Var::new(i), &activity);
        }
        heap.rebuild(&activity);
        assert_eq!(heap.len(), 3);
        assert_eq!(heap.pop_max(&activity), Some(Var::new(1)));
    }
}
