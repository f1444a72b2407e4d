//! Activity-ordered variable heap (the VSIDS decision order).

use pdsat_cnf::Var;

/// Indexed max-heap over variables keyed by an external activity array.
///
/// This is MiniSat's `Heap` specialised to variables: the heap stores
/// variable indices, `positions` maps a variable to its slot (or
/// `u32::MAX` when absent) so membership tests and `decrease`/`increase`
/// operations are O(1)/O(log n).
///
/// The order is activity descending, then index ascending: a strict total
/// order, so every correct heap over the same members pops the same
/// sequence, whatever its internal layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrderHeap {
    heap: Vec<u32>,
    positions: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarOrderHeap {
    pub fn new() -> VarOrderHeap {
        VarOrderHeap::default()
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
        self.sift_up(pos, activity);
    }

    /// Appends the new variables `vars`, in one step. A new variable has
    /// activity 0 and an index above every member, so it orders after all
    /// of them and after the new variables below it: each takes the next
    /// slot, where a sift would leave it.
    pub fn append_new(&mut self, vars: std::ops::Range<usize>, activity: &[f64]) {
        debug_assert!(self.positions.len() <= vars.start);
        debug_assert!(activity[vars.clone()].iter().all(|&a| a == 0.0));
        let first_slot = self.heap.len() as u32;
        self.positions.resize(vars.start, ABSENT);
        self.positions
            .extend(first_slot..first_slot + vars.len() as u32);
        self.heap.extend(vars.start as u32..vars.end as u32);
    }

    /// Makes the heap hold the variables `0..n`, each in the slot of its
    /// index: the layout `append_new(0..n)` gives an empty heap, and a valid
    /// one while every activity is equal.
    pub fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.heap.extend(0..n as u32);
        self.positions.clear();
        self.positions.extend(0..n as u32);
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
            self.sift_down(0, activity);
        }
        Some(Var::new(top))
    }

    /// Restores the heap property for `var` after its activity increased.
    pub fn increased(&mut self, var: Var, activity: &[f64]) {
        if self.contains(var) {
            let pos = self.positions[var.index()] as usize;
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

    /// Moves the variable at `pos` up to its place. The moving variable and
    /// its activity stay in registers while the parents it passes shift down
    /// into the hole; each slot is written once.
    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        let var = self.heap[pos];
        let key = (activity[var as usize], var);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !before(key, (activity[p as usize], p)) {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, var);
    }

    /// Moves the variable at `pos` down to its place, shifting the better
    /// child up into the hole at each level.
    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        let var = self.heap[pos];
        let key = (activity[var as usize], var);
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let mut child = left;
            let mut child_key = (activity[self.heap[left] as usize], self.heap[left]);
            if left + 1 < len {
                let r = self.heap[left + 1];
                let right_key = (activity[r as usize], r);
                if before(right_key, child_key) {
                    child = left + 1;
                    child_key = right_key;
                }
            }
            if !before(child_key, key) {
                break;
            }
            self.place(pos, child_key.1);
            pos = child;
        }
        self.place(pos, var);
    }

    fn place(&mut self, pos: usize, var: u32) {
        self.heap[pos] = var;
        self.positions[var as usize] = pos as u32;
    }
}

/// Whether key `a` pops before key `b`: higher activity first, then the
/// lower index.
#[inline]
fn before((act_a, a): (f64, u32), (act_b, b): (f64, u32)) -> bool {
    act_a > act_b || (act_a == act_b && a < b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `members` in the order the heap must pop them.
    fn key_order(members: &[bool], activity: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..members.len() as u32)
            .filter(|&v| members[v as usize])
            .collect();
        order.sort_by(|&a, &b| {
            let (act_a, act_b) = (activity[a as usize], activity[b as usize]);
            act_b.total_cmp(&act_a).then(a.cmp(&b))
        });
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each op word picks an operation (insert, increase, pop) and a
        /// variable; activities are small integers, so ties are common.
        /// Every pop must take the first member in (activity desc, index
        /// asc) order, and so must the final drain.
        #[test]
        fn pops_follow_the_key_order(ops in prop::collection::vec(0u32..u32::MAX, 0..300)) {
            const VARS: u32 = 24;
            let mut activity = vec![0.0; VARS as usize];
            let mut members = vec![false; VARS as usize];
            let mut heap = VarOrderHeap::new();
            for op in ops {
                let v = op / 4 % VARS;
                match op % 4 {
                    0 | 1 => {
                        heap.insert(Var::new(v), &activity);
                        members[v as usize] = true;
                    }
                    2 => {
                        activity[v as usize] += f64::from(op / 128 % 3);
                        heap.increased(Var::new(v), &activity);
                    }
                    _ => {
                        let expected = key_order(&members, &activity).first().copied();
                        prop_assert_eq!(heap.pop_max(&activity).map(Var::raw), expected);
                        if let Some(e) = expected {
                            members[e as usize] = false;
                        }
                    }
                }
                prop_assert_eq!(heap.heap.len(), members.iter().filter(|&&m| m).count());
            }
            let expected = key_order(&members, &activity);
            let drained: Vec<u32> =
                std::iter::from_fn(|| heap.pop_max(&activity).map(Var::raw)).collect();
            prop_assert_eq!(drained, expected);
        }
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut heap = VarOrderHeap::new();
        for i in 0..4 {
            heap.insert(Var::new(i), &activity);
        }
        assert_eq!(heap.heap.len(), 4);
        let order: Vec<u32> =
            std::iter::from_fn(|| heap.pop_max(&activity).map(Var::raw)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(heap.heap.is_empty());
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
        assert_eq!(heap.heap.len(), 1);
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

    /// Gives `heaps`, `[appended, inserted]`, the variables up to `n`.
    fn grow(heaps: &mut [VarOrderHeap; 2], activity: &mut Vec<f64>, n: usize) {
        let known = activity.len();
        activity.resize(n, 0.0);
        heaps[0].append_new(known..n, activity);
        for v in known..n {
            heaps[1].insert(Var::new(v as u32), activity);
        }
    }

    fn bump(heaps: &mut [VarOrderHeap; 2], activity: &mut [f64], v: u32, by: f64) {
        activity[v as usize] += by;
        for heap in heaps.iter_mut() {
            heap.increased(Var::new(v), activity);
        }
    }

    #[test]
    fn appending_new_variables_pops_like_inserting_them_one_by_one() {
        // Three rounds of growth, as a solver makes them, with bumps, a pop
        // and a rescale (`bump_var_activity` scales and rebuilds) between.
        let mut heaps = [VarOrderHeap::new(), VarOrderHeap::new()];
        let mut activity = Vec::new();
        grow(&mut heaps, &mut activity, 6);
        assert_eq!(heaps[0].heap, heaps[1].heap);
        assert_eq!(heaps[0].positions, heaps[1].positions);
        bump(&mut heaps, &mut activity, 3, 2.0);
        bump(&mut heaps, &mut activity, 1, 1.0);
        bump(&mut heaps, &mut activity, 4, 2.0);
        let popped = heaps.each_mut().map(|h| h.pop_max(&activity));
        assert_eq!(popped, [Some(Var::new(3)); 2]);
        grow(&mut heaps, &mut activity, 10);
        bump(&mut heaps, &mut activity, 8, 3.0);
        bump(&mut heaps, &mut activity, 0, 2.0);
        for a in activity.iter_mut() {
            *a *= 1e-100;
        }
        for heap in heaps.iter_mut() {
            heap.rebuild(&activity);
        }
        grow(&mut heaps, &mut activity, 14);
        bump(&mut heaps, &mut activity, 12, 1e-100);
        let members: Vec<bool> = (0..14).map(|v| heaps[1].contains(Var::new(v))).collect();
        let expected = key_order(&members, &activity);
        assert_eq!(expected.len(), 13);
        for heap in heaps.iter_mut() {
            let drained: Vec<u32> =
                std::iter::from_fn(|| heap.pop_max(&activity).map(Var::raw)).collect();
            assert_eq!(drained, expected);
        }
    }

    #[test]
    fn rebuild_preserves_members() {
        let activity = vec![1.0, 5.0, 3.0];
        let mut heap = VarOrderHeap::new();
        for i in 0..3 {
            heap.insert(Var::new(i), &activity);
        }
        heap.rebuild(&activity);
        assert_eq!(heap.heap.len(), 3);
        assert_eq!(heap.pop_max(&activity), Some(Var::new(1)));
    }
}
