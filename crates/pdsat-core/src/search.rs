//! Common types for the metaheuristic minimization of the predictive
//! function (§3 of the paper).

use crate::{DecompositionSet, Point};
use std::time::Duration;

/// Stopping criteria shared by both metaheuristics.
///
/// The paper runs PDSAT "for 1 day on 2–5 cluster nodes"; the reproduction's
/// experiments instead bound the number of evaluated points and/or the wall
/// time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchLimits {
    /// Maximum number of points whose predictive function value is computed.
    pub max_points: Option<usize>,
    /// Wall-clock limit for the whole search.
    pub time_limit: Option<Duration>,
}

impl SearchLimits {
    /// No limits (the search only ends when its own termination condition
    /// fires — temperature threshold or empty tabu list).
    #[must_use]
    pub fn unlimited() -> SearchLimits {
        SearchLimits::default()
    }

    /// Limits the number of evaluated points.
    #[must_use]
    pub fn with_max_points(mut self, points: usize) -> SearchLimits {
        self.max_points = Some(points);
        self
    }

    /// Limits the total wall-clock time.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> SearchLimits {
        self.time_limit = Some(limit);
        self
    }

    /// `true` when either limit is exceeded ("timeExceeded()" of the paper's
    /// pseudocode, generalized).
    #[must_use]
    pub fn exceeded(&self, points_evaluated: usize, elapsed: Duration) -> bool {
        if let Some(max) = self.max_points {
            if points_evaluated >= max {
                return true;
            }
        }
        if let Some(limit) = self.time_limit {
            if elapsed >= limit {
                return true;
            }
        }
        false
    }

    /// How many more points may be evaluated before `max_points` is hit, or
    /// `None` when the point budget is unlimited.
    ///
    /// The [`SearchDriver`](crate::SearchDriver) uses this to truncate a
    /// neighborhood-sized proposal *inside* a batch: a strategy proposing 30
    /// points with 5 left in the budget gets exactly 5 evaluated, not 30.
    #[must_use]
    pub fn point_budget(&self, points_evaluated: usize) -> Option<usize> {
        self.max_points.map(|m| m.saturating_sub(points_evaluated))
    }

    /// `true` when the wall-clock limit (if any) has been reached.
    #[must_use]
    pub fn time_exceeded(&self, elapsed: Duration) -> bool {
        self.time_limit.is_some_and(|limit| elapsed >= limit)
    }
}

/// Why a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The point budget was exhausted.
    PointLimit,
    /// The wall-clock limit was exceeded.
    TimeLimit,
    /// Simulated annealing reached the minimal temperature.
    TemperatureFloor,
    /// Tabu search ran out of unchecked points (`L2 = ∅`).
    SpaceExhausted,
    /// The [`RandomRestart`](crate::RandomRestart) strategy spent its restart
    /// budget without finding a new basin to descend into.
    RestartsExhausted,
}

/// One evaluated point in the trajectory of a search.
#[derive(Debug, Clone)]
pub struct SearchStep {
    /// 0-based index of the evaluation.
    pub index: usize,
    /// The evaluated point.
    pub point: Point,
    /// Size of the corresponding decomposition set.
    pub set_size: usize,
    /// Predictive function value at the point.
    pub value: f64,
    /// Whether the point was accepted as the new centre (simulated annealing)
    /// or improved the best known value (tabu search).
    pub accepted: bool,
    /// Whether the point became the best seen so far.
    pub is_best: bool,
    /// Time since the start of the search when the evaluation finished.
    pub elapsed: Duration,
}

/// The result of one metaheuristic run: the pair `⟨χ_best, F_best⟩` returned
/// by Algorithms 1 and 2, plus the full trajectory for analysis.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best point found.
    pub best_point: Point,
    /// Decomposition set corresponding to the best point.
    pub best_set: DecompositionSet,
    /// Best (smallest) predictive function value found, `F_best`.
    pub best_value: f64,
    /// All evaluated points in evaluation order.
    pub history: Vec<SearchStep>,
    /// Number of points evaluated.
    pub points_evaluated: usize,
    /// Total wall-clock time of the search.
    pub wall_time: Duration,
    /// Why the search ended.
    pub stop_condition: StopCondition,
}

impl SearchOutcome {
    /// The best value observed after each evaluation (a non-increasing
    /// sequence useful for convergence plots).
    #[must_use]
    pub fn best_value_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.history
            .iter()
            .map(|s| {
                best = best.min(s.value);
                best
            })
            .collect()
    }

    /// Snapshots the search into a serializable [`SearchCheckpoint`]: every
    /// distinct visited point with its value, plus the best pair found.
    ///
    /// Feeding the checkpoint to
    /// [`SearchDriver::run_resumed`](crate::SearchDriver::run_resumed)
    /// continues a search without re-paying for any visited point.
    ///
    /// The snapshot covers **this run's trajectory only**. A resumed run
    /// revisits checkpointed points for free but does not replay them into
    /// its history, so when chaining checkpoints across several runs, fold
    /// each outcome into the running checkpoint with
    /// [`SearchCheckpoint::absorb`] instead of replacing it — and persist
    /// that running checkpoint: the snapshot of a resumed run that did not
    /// improve on its inherited incumbent names a best pair outside its own
    /// `visited` list, which [`SearchCheckpoint::from_text`] refuses.
    #[must_use]
    pub fn checkpoint(&self) -> SearchCheckpoint {
        let mut seen = std::collections::HashSet::new();
        let mut visited = Vec::with_capacity(self.history.len());
        for step in &self.history {
            if seen.insert(step.point.clone()) {
                visited.push(VisitedPoint {
                    point: step.point.clone(),
                    value: step.value,
                });
            }
        }
        SearchCheckpoint {
            dimension: self.best_point.dimension(),
            visited,
            best_point: self.best_point.clone(),
            best_value: self.best_value,
        }
    }
}

/// One entry of a [`SearchCheckpoint`]: a visited point and its predictive
/// function value.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitedPoint {
    /// The visited point.
    pub point: Point,
    /// The predictive function value observed there.
    pub value: f64,
}

/// A serializable snapshot of a search's visited points — the
/// [`SearchDriver`](crate::SearchDriver)'s trace of everything it paid for.
///
/// Checkpoints let a later run (same instance, same evaluator configuration)
/// warm-start: the driver seeds its dedup/memo cache from `visited`, so every
/// checkpointed point is answered for free, and `best_point`/`best_value`
/// carry the incumbent across the restart.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// Dimension of the search space the checkpoint was taken in (resuming
    /// validates it against the new run's space).
    pub dimension: usize,
    /// Every distinct visited point with its value, in first-visit order.
    pub visited: Vec<VisitedPoint>,
    /// Best point found so far.
    pub best_point: Point,
    /// Best (smallest) predictive function value found so far.
    pub best_value: f64,
}

impl SearchCheckpoint {
    /// An empty checkpoint of the given dimension: no visited points and an
    /// incumbent of `+∞` at the empty point, so the first absorbed (or
    /// resumed) evaluation always improves on it. This is the identity
    /// element of [`absorb`](SearchCheckpoint::absorb) chaining — start a
    /// long, restartable estimation run from it and fold every segment's
    /// outcome in.
    #[must_use]
    pub fn empty(dimension: usize) -> SearchCheckpoint {
        SearchCheckpoint {
            dimension,
            visited: Vec::new(),
            best_point: Point::from_indices(dimension, []),
            best_value: f64::INFINITY,
        }
    }

    /// Serializes the checkpoint into a line-oriented text form that
    /// [`from_text`](SearchCheckpoint::from_text) restores **bit-for-bit**
    /// (values travel as hex-encoded IEEE-754 bits, points as index lists).
    ///
    /// This codec is what makes checkpoints crash-safe: a coordinator can
    /// persist the running checkpoint after every segment and a restarted
    /// process can resume from the file.
    #[must_use]
    pub fn to_text(&self) -> String {
        fn point_field(point: &Point) -> String {
            let indices = point.selected_indices();
            if indices.is_empty() {
                "-".to_string()
            } else {
                indices
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            }
        }
        let mut out = String::new();
        out.push_str("pdsat-search-checkpoint v1\n");
        out.push_str(&format!("dimension {}\n", self.dimension));
        out.push_str(&format!(
            "best {:016x} {}\n",
            self.best_value.to_bits(),
            point_field(&self.best_point)
        ));
        for v in &self.visited {
            out.push_str(&format!(
                "visited {:016x} {}\n",
                v.value.to_bits(),
                point_field(&v.point)
            ));
        }
        out
    }

    /// Largest dimension [`from_text`](SearchCheckpoint::from_text) accepts.
    /// Every restored point is a dense vector of `dimension` flags, so the
    /// dimension line alone decides how much a checkpoint file can make the
    /// loader allocate; 4096 is more than ten times the largest search space
    /// of the paper (Bivium's 177 state variables) and caps a point at 4 KiB.
    pub const MAX_DIMENSION: usize = 4096;

    /// Parses the text form produced by [`to_text`](SearchCheckpoint::to_text).
    ///
    /// A loaded checkpoint seeds a resumed search's memo and incumbent, so
    /// beyond the line syntax the text must describe a state a search can
    /// reach: no value is NaN, no point is listed twice, and the best pair
    /// is bit-for-bit one of the `visited` pairs — or, with nothing visited,
    /// the [`empty`](SearchCheckpoint::empty) sentinel. Every checkpoint
    /// grown from `empty` by [`absorb`](SearchCheckpoint::absorb)-ing the
    /// runs resumed from it satisfies this; a forged incumbent no search
    /// could ever beat does not.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, of a dimension
    /// above [`MAX_DIMENSION`](SearchCheckpoint::MAX_DIMENSION), or of the
    /// first violation of the rules above.
    pub fn from_text(text: &str) -> Result<SearchCheckpoint, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty checkpoint")?;
        if header.trim() != "pdsat-search-checkpoint v1" {
            return Err(format!("unrecognized checkpoint header '{header}'"));
        }
        let dim_line = lines.next().ok_or("missing dimension line")?;
        let dimension: usize = dim_line
            .strip_prefix("dimension ")
            .and_then(|d| d.trim().parse().ok())
            .ok_or_else(|| format!("bad dimension line '{dim_line}'"))?;
        if dimension > SearchCheckpoint::MAX_DIMENSION {
            return Err(format!(
                "dimension {dimension} above the supported maximum {}",
                SearchCheckpoint::MAX_DIMENSION
            ));
        }
        let parse_entry = |line: &str, tag: &str| -> Result<(f64, Point), String> {
            let rest = line
                .strip_prefix(tag)
                .ok_or_else(|| format!("expected '{tag}…', got '{line}'"))?;
            let mut parts = rest.split_whitespace();
            let bits = parts
                .next()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("bad value bits in '{line}'"))?;
            let indices_field = parts
                .next()
                .ok_or_else(|| format!("missing point in '{line}'"))?;
            let indices: Vec<usize> = if indices_field == "-" {
                Vec::new()
            } else {
                indices_field
                    .split(',')
                    .map(|i| {
                        i.parse::<usize>()
                            .map_err(|_| format!("bad index '{i}' in '{line}'"))
                    })
                    .collect::<Result<_, _>>()?
            };
            if let Some(&max) = indices.iter().max() {
                if max >= dimension {
                    return Err(format!("index {max} outside dimension {dimension}"));
                }
            }
            Ok((
                f64::from_bits(bits),
                Point::from_indices(dimension, indices),
            ))
        };
        let best_line = lines.next().ok_or("missing best line")?;
        let (best_value, best_point) = parse_entry(best_line, "best ")?;
        if best_value.is_nan() {
            return Err(format!("NaN value in '{best_line}'"));
        }
        let mut visited: Vec<VisitedPoint> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (value, point) = parse_entry(line, "visited ")?;
            if value.is_nan() {
                return Err(format!("NaN value in '{line}'"));
            }
            if !seen.insert(point.clone()) {
                return Err(format!("point listed twice: '{line}'"));
            }
            visited.push(VisitedPoint { point, value });
        }
        let supported = if visited.is_empty() {
            best_value == f64::INFINITY && best_point.ones() == 0
        } else {
            visited
                .iter()
                .any(|v| v.value.to_bits() == best_value.to_bits() && v.point == best_point)
        };
        if !supported {
            return Err(format!(
                "incumbent '{best_line}' is not one of the visited pairs"
            ));
        }
        Ok(SearchCheckpoint {
            dimension,
            visited,
            best_point,
            best_value,
        })
    }

    /// Folds `outcome` into this checkpoint: newly visited points are
    /// appended (already-known points keep their stored value) and the best
    /// pair is updated when the outcome improved on it.
    ///
    /// This is the chaining primitive for multi-run searches: resume run
    /// `k+1` from the running checkpoint, then `absorb` its outcome, so no
    /// run ever loses coverage paid for by an earlier one.
    ///
    /// # Panics
    ///
    /// Panics if the outcome's dimension does not match the checkpoint.
    pub fn absorb(&mut self, outcome: &SearchOutcome) {
        assert_eq!(
            self.dimension,
            outcome.best_point.dimension(),
            "checkpoint dimension must match the absorbed outcome"
        );
        let mut known: std::collections::HashSet<Point> =
            self.visited.iter().map(|v| v.point.clone()).collect();
        for step in &outcome.history {
            if known.insert(step.point.clone()) {
                self.visited.push(VisitedPoint {
                    point: step.point.clone(),
                    value: step.value,
                });
            }
        }
        if outcome.best_value < self.best_value {
            self.best_point = outcome.best_point.clone();
            self.best_value = outcome.best_value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_trigger_on_points_and_time() {
        let limits = SearchLimits::unlimited()
            .with_max_points(10)
            .with_time_limit(Duration::from_secs(5));
        assert!(!limits.exceeded(9, Duration::from_secs(1)));
        assert!(limits.exceeded(10, Duration::from_secs(1)));
        assert!(limits.exceeded(0, Duration::from_secs(5)));
        assert!(!SearchLimits::unlimited().exceeded(1_000_000, Duration::from_secs(1_000_000)));
    }

    #[test]
    fn absorb_is_idempotent() {
        use crate::{Point, SearchSpace};
        use pdsat_cnf::Var;
        let space = SearchSpace::new((0..4).map(Var::new));
        let mk = |i: usize, point: Point, v: f64| SearchStep {
            index: i,
            point,
            set_size: 0,
            value: v,
            accepted: true,
            is_best: false,
            elapsed: Duration::ZERO,
        };
        let p0 = Point::from_indices(4, [0]);
        let p1 = Point::from_indices(4, [1, 2]);
        let outcome = SearchOutcome {
            best_point: p1.clone(),
            best_set: space.decomposition_set(&p1),
            best_value: 2.0,
            history: vec![mk(0, p0.clone(), 5.0), mk(1, p1.clone(), 2.0)],
            points_evaluated: 2,
            wall_time: Duration::ZERO,
            stop_condition: StopCondition::PointLimit,
        };
        let mut checkpoint = SearchCheckpoint::empty(4);
        checkpoint.absorb(&outcome);
        let once = checkpoint.clone();
        // Absorbing the same outcome again (a duplicate/late delivery in a
        // distributed run) must not duplicate points or perturb the best
        // pair: the merged state is bit-for-bit the single-absorb state.
        checkpoint.absorb(&outcome);
        assert_eq!(checkpoint, once);
        assert_eq!(checkpoint.visited.len(), 2);
        assert_eq!(checkpoint.best_value, 2.0);
        assert_eq!(checkpoint.best_point, p1);
    }

    #[test]
    fn text_codec_round_trips_bit_for_bit() {
        use crate::Point;
        let mut checkpoint = SearchCheckpoint::empty(7);
        checkpoint.best_point = Point::from_indices(7, [0, 3, 6]);
        checkpoint.best_value = 0.1 + 0.2; // deliberately not exactly 0.3
        checkpoint.visited = vec![
            VisitedPoint {
                point: Point::from_indices(7, [0, 3, 6]),
                value: 0.1 + 0.2,
            },
            VisitedPoint {
                point: Point::from_indices(7, []),
                value: f64::INFINITY,
            },
            VisitedPoint {
                point: Point::from_indices(7, [5]),
                value: 1e-300,
            },
        ];
        let text = checkpoint.to_text();
        let restored = SearchCheckpoint::from_text(&text).expect("codec round-trip");
        assert_eq!(restored, checkpoint);
        // An empty checkpoint (∞ incumbent) survives too.
        let empty = SearchCheckpoint::empty(3);
        assert_eq!(
            SearchCheckpoint::from_text(&empty.to_text()).unwrap(),
            empty
        );
        // Malformed inputs are rejected, not mis-parsed.
        assert!(SearchCheckpoint::from_text("").is_err());
        assert!(SearchCheckpoint::from_text("pdsat-search-checkpoint v2\ndimension 3").is_err());
        assert!(SearchCheckpoint::from_text(
            "pdsat-search-checkpoint v1\ndimension 3\nbest zzzz -\n"
        )
        .is_err());
        assert!(SearchCheckpoint::from_text(
            "pdsat-search-checkpoint v1\ndimension 3\nbest 0000000000000000 5\n"
        )
        .is_err());
        // A hostile dimension is refused before any point is allocated: these
        // 78 bytes would otherwise ask for a petabyte `Vec` and abort.
        let hostile =
            "pdsat-search-checkpoint v1\ndimension 1000000000000000\nbest 0000000000000000 -\n";
        assert_eq!(hostile.len(), 78);
        assert!(SearchCheckpoint::from_text(hostile)
            .unwrap_err()
            .contains("above the supported maximum"));
        let at_limit = SearchCheckpoint::empty(SearchCheckpoint::MAX_DIMENSION);
        assert_eq!(
            SearchCheckpoint::from_text(&at_limit.to_text()).unwrap(),
            at_limit
        );
    }

    /// Texts that parse line by line but describe no reachable search state:
    /// a resumed search would report the forged incumbent as its result.
    #[test]
    fn incumbent_nothing_supports_is_rejected() {
        let head = "pdsat-search-checkpoint v1\ndimension 4\n";
        let forged = format!("{head}best fff0000000000000 -\n");
        assert_eq!(forged.len(), 63);
        let nan_twice = format!(
            "{head}best 7ff8000000000000 0\n\
             visited 7ff8000000000000 0\nvisited 4000000000000000 0\n"
        );
        for (text, why) in [
            (forged.as_str(), "not one of the visited pairs"),
            (nan_twice.as_str(), "NaN value"),
            (
                &format!("{head}best 4000000000000000 0\nvisited 4000000000000000 0\nvisited 4008000000000000 0\n"),
                "listed twice",
            ),
            (
                &format!("{head}best 4000000000000000 0\nvisited 7ff8000000000000 0\n"),
                "NaN value",
            ),
            // The right point with another value, and the right value at
            // another point, support nothing either.
            (
                &format!("{head}best 3ff0000000000000 0\nvisited 4000000000000000 0\n"),
                "not one of the visited pairs",
            ),
            (
                &format!("{head}best 4000000000000000 1\nvisited 4000000000000000 0\n"),
                "not one of the visited pairs",
            ),
            // The sentinel is only the sentinel while nothing is visited.
            (
                &format!("{head}best 7ff0000000000000 -\nvisited 4000000000000000 0\n"),
                "not one of the visited pairs",
            ),
            (
                &format!("{head}best 7ff0000000000000 1\n"),
                "not one of the visited pairs",
            ),
        ] {
            let err = SearchCheckpoint::from_text(text).expect_err(text);
            assert!(err.contains(why), "{text:?} gave {err:?}");
        }
    }

    /// A v1 checkpoint spelled out by hand rather than produced by the
    /// writer: a file on somebody's disk must keep loading.
    #[test]
    fn golden_v1_text_loads_and_reserializes_byte_identically() {
        use crate::Point;
        let golden = "pdsat-search-checkpoint v1\n\
            dimension 7\n\
            best 4029000000000000 0,3,6\n\
            visited 4029000000000000 0,3,6\n\
            visited 7ff0000000000000 -\n\
            visited 3fe8000000000000 5\n";
        let checkpoint = SearchCheckpoint::from_text(golden).expect("golden text loads");
        assert_eq!(checkpoint.dimension, 7);
        assert_eq!(checkpoint.best_value, 12.5);
        assert_eq!(checkpoint.best_point, Point::from_indices(7, [0, 3, 6]));
        let visited: Vec<(Vec<usize>, f64)> = checkpoint
            .visited
            .iter()
            .map(|v| (v.point.selected_indices(), v.value))
            .collect();
        assert_eq!(
            visited,
            vec![
                (vec![0, 3, 6], 12.5),
                (vec![], f64::INFINITY),
                (vec![5], 0.75)
            ]
        );
        assert_eq!(checkpoint.to_text(), golden);
    }

    #[test]
    fn best_value_trace_is_monotone() {
        use crate::SearchSpace;
        use pdsat_cnf::Var;
        let space = SearchSpace::new((0..3).map(Var::new));
        let mk = |i: usize, v: f64| SearchStep {
            index: i,
            point: space.full_point(),
            set_size: 3,
            value: v,
            accepted: false,
            is_best: false,
            elapsed: Duration::ZERO,
        };
        let outcome = SearchOutcome {
            best_point: space.full_point(),
            best_set: space.decomposition_set(&space.full_point()),
            best_value: 1.0,
            history: vec![mk(0, 5.0), mk(1, 7.0), mk(2, 2.0), mk(3, 3.0)],
            points_evaluated: 4,
            wall_time: Duration::ZERO,
            stop_condition: StopCondition::PointLimit,
        };
        assert_eq!(outcome.best_value_trace(), vec![5.0, 5.0, 2.0, 2.0]);
    }
}
