//! Cubes: conjunctions of literals used to split a SAT instance.

use crate::{Lit, Var};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The most variables whose polarities one `α` word holds.
const WORD: usize = 64;

/// The cube is its variables, its `α` and the literal cache, a word each.
const _: () = assert!(size_of::<Cube>() <= 32);

/// The variables of a decomposition set as its cubes share them: one
/// allocation, behind a pointer of one word.
pub type SharedVars = Arc<Box<[Var]>>;

/// A conjunction of literals over pairwise-distinct variables.
///
/// In the partitioning approach of Semenov & Zaikin a decomposition set
/// `X̃ = {x_{i_1}, …, x_{i_d}}` and a truth assignment
/// `(α_1, …, α_d) ∈ {0,1}^d` determine the sub-problem
/// `C[X̃/(α_1, …, α_d)]`; the cube is exactly the conjunction
/// `x_{i_1}^{α_1} ∧ … ∧ x_{i_d}^{α_d}` (the minterm `G_j` of the paper).
/// Solving the sub-problem amounts to solving `C` under the cube's literals
/// as assumptions.
///
/// A cube is stored as that pair: the variables, shared by every cube built
/// over the same [`SharedVars`] (every cube of one decomposition set), and
/// `α` as one word, bit `d−1−k` the polarity of the `k`-th variable. Building
/// a cube over shared variables allocates nothing. The literal slice [`lits`]
/// returns is materialised on its first call and kept, so a loop over many
/// cubes reads them through a [`LitBuffer`] instead. A cube of more than 64
/// variables fills that slice when it is built.
///
/// [`lits`]: Cube::lits
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cube, Var};
/// let cube = Cube::from_bits(&[Var::new(0), Var::new(5), Var::new(7)], 0b101);
/// // bit 0 is the *last* variable, mirroring binary notation (α_1 … α_d).
/// assert_eq!(cube.lits().len(), 3);
/// assert_eq!(cube.to_string(), "x1 ∧ ¬x6 ∧ x8");
/// ```
#[derive(Clone, Default)]
pub struct Cube {
    /// The variables, in cube order.
    vars: SharedVars,
    /// `α`, bit `d−1−k` the polarity of `vars[k]`, for at most 64
    /// variables; 0 for more.
    alpha: u64,
    /// The literals, once [`Cube::lits`] asked for them (at construction
    /// for more than 64 variables). Boxed twice, so that the cell is a word
    /// and the lock's state.
    lits: OnceLock<Box<Box<[Lit]>>>,
}

impl Cube {
    /// Creates an empty cube (the trivial partitioning into one part).
    #[must_use]
    pub fn new() -> Cube {
        Cube::default()
    }

    /// Creates a cube from literals.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if two literals mention the same variable.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Cube {
        let lits: Vec<Lit> = lits.into_iter().collect();
        debug_assert!(
            {
                let mut vars: Vec<_> = lits.iter().map(|l| l.var()).collect();
                vars.sort_unstable();
                vars.windows(2).all(|w| w[0] != w[1])
            },
            "cube literals must mention distinct variables"
        );
        let vars = Arc::new(lits.iter().map(|l| l.var()).collect());
        Cube::from_shared_values(vars, lits.iter().map(|l| l.is_positive()))
    }

    /// Creates the cube assigning the `d` variables of `vars` to the values
    /// given by `values` (`values[k]` is the polarity of `vars[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn from_values(vars: &[Var], values: &[bool]) -> Cube {
        Cube::from_shared_values(Arc::new(vars.into()), values.iter().copied())
    }

    /// Creates the cube assigning the shared `vars` to `values` in order
    /// (the `k`-th value is the polarity of `vars[k]`). Allocates nothing
    /// for at most 64 variables.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not yield exactly one value per variable.
    pub fn from_shared_values<I: IntoIterator<Item = bool>>(vars: SharedVars, values: I) -> Cube {
        let d = vars.len();
        let (mut alpha, mut lits, mut count) = (0u64, Vec::new(), 0);
        for value in values {
            assert!(count < d, "one value per decomposition variable");
            if d > WORD {
                lits.push(vars[count].lit(value));
            } else {
                alpha = alpha << 1 | u64::from(value);
            }
            count += 1;
        }
        assert_eq!(count, d, "one value per decomposition variable");
        let cache = if d > WORD {
            OnceLock::from(Box::new(lits.into_boxed_slice()))
        } else {
            OnceLock::new()
        };
        Cube {
            vars,
            alpha,
            lits: cache,
        }
    }

    /// Creates the cube assigning the `d = vars.len()` variables to the bits
    /// of `index`, where bit `d-1-k` of `index` gives the value of `vars[k]`
    /// (i.e. `index` written in binary is `α_1 α_2 … α_d`).
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() > 64`.
    #[must_use]
    pub fn from_bits(vars: &[Var], index: u64) -> Cube {
        Cube::from_shared_bits(Arc::new(vars.into()), index)
    }

    /// [`Cube::from_bits`] over shared variables: allocates nothing. Bits
    /// of `index` above the `d` lowest are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() > 64`.
    #[must_use]
    pub fn from_shared_bits(vars: SharedVars, index: u64) -> Cube {
        let d = vars.len();
        assert!(d <= WORD, "at most 64 variables per enumerated cube");
        let mask = u64::MAX.checked_shr((WORD - d) as u32).unwrap_or(0);
        Cube {
            vars,
            alpha: index & mask,
            lits: OnceLock::new(),
        }
    }

    /// Literals of the cube. The first call materialises them and the cube
    /// keeps them: a loop over many cubes uses a [`LitBuffer`] instead.
    #[must_use]
    pub fn lits(&self) -> &[Lit] {
        self.lits.get_or_init(|| Box::new(self.iter().collect()))
    }

    /// The `k`-th literal, read without materialising the slice.
    fn lit(&self, k: usize) -> Lit {
        let d = self.len();
        if d > WORD {
            let lits = self.lits.get();
            lits.expect("a cube of more than 64 variables is built with its literals")[k]
        } else {
            self.vars[k].lit(self.alpha >> (d - 1 - k) & 1 == 1)
        }
    }

    /// The literals in order, read without materialising the slice.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        (0..self.len()).map(|k| self.lit(k))
    }

    /// Number of literals (the `d` of the decomposition).
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` when the cube contains no literal.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Variables assigned by this cube, in cube order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.vars.iter().copied()
    }

    /// `true` iff the two cubes assign some shared variable opposite values.
    ///
    /// Two distinct cubes over the *same* decomposition set always conflict,
    /// which is what makes a decomposition family a partitioning.
    #[must_use]
    pub fn conflicts_with(&self, other: &Cube) -> bool {
        self.iter().any(|l| other.iter().any(|m| m == !l))
    }

    /// The cube's literals as a vector of solver assumptions.
    #[must_use]
    pub fn to_assumptions(&self) -> Vec<Lit> {
        self.iter().collect()
    }
}

/// Two cubes are equal when they have the same literals in the same order,
/// however they were built.
impl PartialEq for Cube {
    fn eq(&self, other: &Cube) -> bool {
        self.vars == other.vars
            && self.alpha == other.alpha
            && (self.len() <= WORD || self.lits() == other.lits())
    }
}

impl Eq for Cube {}

impl Hash for Cube {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.vars.hash(state);
        self.alpha.hash(state);
        if self.len() > WORD {
            self.lits().hash(state);
        }
    }
}

/// Cubes order by their variables, then by `α` in the binary counting order
/// of enumeration (negative literal first): the cubes of one decomposition
/// set sort as `DecompositionSet::cubes` yields them.
impl Ord for Cube {
    fn cmp(&self, other: &Cube) -> Ordering {
        let vars = if Arc::ptr_eq(&self.vars, &other.vars) {
            Ordering::Equal
        } else {
            self.vars.cmp(&other.vars)
        };
        vars.then_with(|| {
            if self.len() <= WORD {
                self.alpha.cmp(&other.alpha)
            } else {
                let polarity = |l: &Lit| l.is_positive();
                let theirs = other.lits().iter().map(polarity);
                self.lits().iter().map(polarity).cmp(theirs)
            }
        })
    }
}

impl PartialOrd for Cube {
    fn partial_cmp(&self, other: &Cube) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromIterator<Lit> for Cube {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Self {
        Cube::from_lits(iter)
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cube")
            .field("lits", &self.to_assumptions())
            .finish()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lits = self.iter();
        let Some(first) = lits.next() else {
            return write!(f, "⊤");
        };
        write!(f, "{first}")?;
        for lit in lits {
            write!(f, " ∧ {lit}")?;
        }
        Ok(())
    }
}

/// One reused buffer holding the literals of one cube at a time, for a loop
/// that hands many cubes to a solver as assumptions.
///
/// [`LitBuffer::write`] never fills a cube's literal cache. After a cube
/// over the same shared variables it flips only the literals whose bit of
/// `α` changed — in counting order about two per cube.
#[derive(Debug, Default)]
pub struct LitBuffer {
    /// The variables and `α` of the cube `lits` holds, when it has at most
    /// 64 variables. Holding the `Arc` keeps its address from being reused.
    last: Option<(SharedVars, u64)>,
    lits: Vec<Lit>,
}

/// The trailing positions [`LitBuffer::write`] flips by mask.
const TAIL: usize = 8;

impl LitBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> LitBuffer {
        LitBuffer::default()
    }

    /// Writes the literals of `cube` into the buffer and returns them.
    pub fn write(&mut self, cube: &Cube) -> &[Lit] {
        let d = cube.len();
        match &mut self.last {
            Some((vars, alpha)) if d <= WORD && Arc::ptr_eq(vars, &cube.vars) => {
                // Bit `p` of `diff` is position `d−1−p`.
                let diff = std::mem::replace(alpha, cube.alpha) ^ cube.alpha;
                let mut rest = diff;
                if let Some(split) = d.checked_sub(TAIL) {
                    // Every cube flips the last positions by mask: a loop
                    // whose length depends on `α` mispredicts its exit once
                    // per cube in a solver's loop.
                    let tail: &mut [Lit; TAIL] = (&mut self.lits[split..])
                        .try_into()
                        .expect("the buffer holds d literals");
                    for (j, lit) in tail.iter_mut().enumerate() {
                        let flip = (diff >> (TAIL - 1 - j) & 1) as usize;
                        *lit = Lit::from_code(lit.code() ^ flip);
                    }
                    rest &= u64::MAX << TAIL;
                }
                while rest != 0 {
                    let k = d - 1 - rest.trailing_zeros() as usize;
                    self.lits[k] = !self.lits[k];
                    rest &= rest - 1;
                }
            }
            _ => {
                self.last = (d <= WORD).then(|| (Arc::clone(&cube.vars), cube.alpha));
                self.lits.clear();
                self.lits.extend(cube.iter());
            }
        }
        &self.lits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn vars(n: u32) -> Vec<Var> {
        (0..n).map(Var::new).collect()
    }

    fn shared(vars: Vec<Var>) -> SharedVars {
        Arc::new(vars.into_boxed_slice())
    }

    fn hash_of(cube: &Cube) -> u64 {
        let mut hasher = DefaultHasher::new();
        cube.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn from_bits_orders_like_binary_notation() {
        let vs = vars(3);
        let cube = Cube::from_bits(&vs, 0b011);
        assert_eq!(
            cube.lits(),
            &[
                Lit::negative(vs[0]),
                Lit::positive(vs[1]),
                Lit::positive(vs[2])
            ]
        );
    }

    #[test]
    fn distinct_cubes_over_same_set_conflict() {
        let vs = vars(4);
        for i in 0..16u64 {
            for j in 0..16u64 {
                let a = Cube::from_bits(&vs, i);
                let b = Cube::from_bits(&vs, j);
                assert_eq!(a.conflicts_with(&b), i != j, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn from_values_matches_from_bits() {
        let vs = vars(3);
        assert_eq!(
            Cube::from_values(&vs, &[true, false, true]),
            Cube::from_bits(&vs, 0b101)
        );
    }

    #[test]
    fn empty_cube_is_top() {
        let c = Cube::new();
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "⊤");
    }

    #[test]
    #[should_panic(expected = "one value per decomposition variable")]
    fn mismatched_values_panic() {
        let _ = Cube::from_values(&vars(2), &[true]);
    }

    #[test]
    fn the_buffer_writes_any_order_and_any_set_without_filling_caches() {
        let family = |d: u32| -> Vec<Cube> {
            let vars = shared(vars(d));
            (0..1 << d)
                .map(|i| Cube::from_shared_bits(Arc::clone(&vars), i))
                .collect()
        };
        // Sets past and short of the flipped tail, cubes with variables of
        // their own, and one of more than 64 variables.
        let (big, small) = (family(11), family(3));
        let lone: Vec<Cube> = (0..8).map(|i| Cube::from_bits(&vars(3), i)).collect();
        let wide = Cube::from_shared_values(shared(vars(70)), (0..70).map(|k| k % 3 == 0));
        // Counting order, the order stolen chunks arrive in, repeats, jumps
        // across the tail, and switches between all of them.
        let mut order: Vec<&Cube> = big.iter().collect();
        order.extend(big.chunks(32).rev().flatten());
        order.extend([&big[9], &big[9], &big[255], &big[256], &big[2047], &big[0]]);
        order.extend(small.iter().chain(&lone).chain([&big[700], &wide]));
        order.extend(small.iter().rev().chain([&wide, &small[5], &big[3]]));
        let mut buffer = LitBuffer::new();
        for cube in order {
            let expected = cube.to_assumptions();
            assert_eq!(buffer.write(cube), expected.as_slice());
            assert_eq!(cube.lits.get().is_some(), cube.len() > WORD);
        }
    }

    /// A cube as a list of literals: the layout this one replaced.
    fn reference(vars: &[Var], values: &[bool]) -> Vec<Lit> {
        vars.iter().zip(values).map(|(&v, &b)| v.lit(b)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every constructor and query answers as the list of literals does,
        /// on both sides of the 64-variable word.
        #[test]
        fn a_cube_agrees_with_its_literal_list(
            d in 0usize..=70,
            start in 0u32..40,
            stride in 1u32..4,
            first: u64,
            second: u64,
            high: u64,
        ) {
            let vs: Vec<Var> = (0..d as u32).map(|k| Var::new(start + k * stride)).collect();
            let bit = |word: u64, k: usize| word >> (k * 7 % 64) & 1 == 1;
            let values: Vec<bool> = (0..d).map(|k| bit(first, k)).collect();
            let others: Vec<bool> = (0..d)
                .map(|k| if k % 5 == 0 { bit(second, k) } else { values[k] })
                .collect();
            let lits = reference(&vs, &values);
            let shared = shared(vs.clone());

            let mut built = vec![
                Cube::from_lits(lits.iter().copied()),
                lits.iter().copied().collect(),
                Cube::from_values(&vs, &values),
                Cube::from_shared_values(Arc::clone(&shared), values.iter().copied()),
            ];
            if d <= WORD {
                let index = values.iter().fold(0u64, |a, &b| a << 1 | u64::from(b));
                // Bits above the `d` lowest are ignored.
                let high = high.checked_shl(d as u32).unwrap_or(0);
                built.push(Cube::from_bits(&vs, index | high));
                built.push(Cube::from_shared_bits(Arc::clone(&shared), index));
            }
            let other = Cube::from_shared_values(Arc::clone(&shared), others.iter().copied());
            let other_lits = reference(&vs, &others);
            let differs = lits != other_lits;

            let shown = if lits.is_empty() {
                "⊤".to_string()
            } else {
                lits.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ∧ ")
            };

            for cube in &built {
                prop_assert_eq!(cube.len(), d);
                prop_assert_eq!(cube.is_empty(), d == 0);
                prop_assert_eq!(cube.vars().collect::<Vec<_>>(), vs.clone());
                prop_assert_eq!(cube.to_string(), shown.clone());
                prop_assert_eq!(cube.conflicts_with(&other), differs);
                prop_assert_eq!(other.conflicts_with(cube), differs);
                prop_assert!(!cube.conflicts_with(cube));
                prop_assert_eq!(cube.to_assumptions(), lits.clone());
                prop_assert_eq!(cube.lits(), lits.as_slice());
                prop_assert_eq!(cube.clone().lits(), lits.as_slice());
                prop_assert_eq!(format!("{cube:?}"), format!("Cube {{ lits: {lits:?} }}"));
                for twin in &built {
                    prop_assert!(cube == twin);
                    prop_assert_eq!(cube.cmp(twin), Ordering::Equal);
                    prop_assert_eq!(hash_of(cube), hash_of(twin));
                }
                prop_assert_eq!(cube == &other, !differs);
                // Counting order: the first differing polarity decides,
                // negative first.
                let polarities = |l: &[Lit]| l.iter().map(|l| l.is_positive()).collect::<Vec<_>>();
                prop_assert_eq!(cube.cmp(&other), polarities(&lits).cmp(&polarities(&other_lits)));
            }
        }
    }
}
