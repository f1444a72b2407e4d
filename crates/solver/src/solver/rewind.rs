//! Rewinding a solver to the state its load left: undoing what the solve
//! calls since changed, instead of copying the loaded state back.

use super::propagate::{rewind_watches, LoadedLists};
use super::trail::VarData;
use super::Solver;
use crate::clause_db::{ArenaMark, ClauseRef};
use crate::config::DEFAULT_POLARITY;
use crate::proof::ProofMark;
use crate::SolverStats;
use pdsat_cnf::Value;

/// What [`Solver::rewind`] returns a solver to: the extents and counters of
/// its state when the formula finished loading. Everything else the load
/// leaves is a constant — no learnt clause, no decision level, activities
/// at 0, polarities at `DEFAULT_POLARITY`, conflict counts at 0, every
/// variable in the heap in index order, `var_inc = cla_inc = 1` — or is the
/// shared watch table, which nothing writes.
#[derive(Debug, Clone, Default)]
pub(super) struct LoadMark {
    num_vars: usize,
    arena: ArenaMark,
    originals: usize,
    /// The root trail: the load's units and their propagations.
    root_trail: usize,
    ok: bool,
    stats: SolverStats,
    proof: Option<ProofMark>,
    /// The literal codes holding watch lists at the load, and what they held.
    lists: Vec<LoadedLists>,
    /// The originals of more than three literals, whose watched literals a
    /// solve swaps in the arena, and their literal words as loaded, back to
    /// back.
    long_originals: Vec<ClauseRef>,
    long_words: Vec<u32>,
}

impl LoadMark {
    /// The mark of `solver` as it is now, with no solve call made; the
    /// handles it created become the load's lists.
    pub(super) fn take(solver: &mut Solver) -> LoadMark {
        debug_assert!(solver.learnts.is_empty() && solver.trail_lim.is_empty());
        debug_assert_eq!(solver.qhead, solver.trail.len());
        debug_assert!(solver.var_inc == 1.0 && solver.cla_inc == 1.0);
        let long_originals: Vec<ClauseRef> = solver
            .original
            .iter()
            .copied()
            .filter(|&cref| solver.db.len_of(cref) > 3)
            .collect();
        let long_words = long_originals
            .iter()
            .flat_map(|&cref| solver.db.literal_words(cref).iter().copied())
            .collect();
        let lists = LoadedLists::of(&solver.watches, &solver.created_lists);
        solver.created_lists.clear();
        LoadMark {
            num_vars: solver.num_vars(),
            arena: solver.db.mark(),
            originals: solver.original.len(),
            root_trail: solver.trail.len(),
            ok: solver.ok,
            stats: solver.stats,
            proof: solver.proof.as_ref().map(|p| p.mark()),
            lists,
            long_originals,
            long_words,
        }
    }
}

impl Solver {
    /// Returns the solver to the state its load left (the end of
    /// [`from_cnf_with_config`](Self::from_cnf_with_config); for a solver
    /// made by [`with_config`](Self::with_config), the empty one), so that
    /// the next solve call answers, counts and logs exactly as on a fresh
    /// clone of the loaded solver. Clauses added since the load go with the
    /// learnt ones; the configuration and the test policy stay.
    ///
    /// The cost is what the solve calls since the load changed, not the
    /// formula's size: the trail above the load's root trail (the units a
    /// solve learnt at level 0 included) is unassigned, the arena, the
    /// rosters and the proof log are cut back to their lengths at the load,
    /// and the watch handles created since are nulled, their lists kept as
    /// spares. Long originals (more than three literals, whose watched
    /// literals a solve swaps) get their arena words and watchers copied
    /// back, when the formula has any. The per-variable heuristics are reset
    /// to the constants the load leaves; activities and conflict counts
    /// only when a conflict has moved them. The decision level of a
    /// variable unassigned during search stays as it was, as in any
    /// backtrack: nothing reads the level of an unassigned variable.
    ///
    /// The destructuring below is exhaustive on purpose: a new field that
    /// is neither rewound nor named as kept does not compile.
    pub fn rewind(&mut self) {
        let Solver {
            // Settings, not search state.
            config: _,
            policy: _,
            db,
            original,
            learnts,
            // Shared and never written.
            table: _,
            watches,
            spare_watches,
            created_lists,
            load,
            assigns,
            vardata,
            polarity,
            activity,
            conflict_counts,
            order_heap,
            trail,
            trail_lim,
            qhead,
            saved_assumptions,
            var_inc,
            cla_inc,
            ok,
            seen,
            // Scratch of `analyze` and of `add_clause`, dead between calls.
            learnt_buf: _,
            levels_buf: _,
            toclear_buf: _,
            clause_buf: _,
            proof,
            last_solve_unsat,
            stats,
            max_learnts,
        } = self;
        let n = load.num_vars;

        debug_assert!(trail.len() >= load.root_trail);
        for &lit in &trail[load.root_trail..] {
            assigns[lit.code()] = Value::Unassigned;
            assigns[(!lit).code()] = Value::Unassigned;
            vardata[lit.var().index()] = VarData {
                reason: None,
                level: 0,
            };
        }
        trail.truncate(load.root_trail);
        trail_lim.clear();
        *qhead = load.root_trail;
        saved_assumptions.clear();

        db.truncate(load.arena);
        original.truncate(load.originals);
        learnts.clear();
        let mut words = &load.long_words[..];
        for &cref in &load.long_originals {
            let lits = db.literal_words_mut(cref);
            let (loaded, rest) = words.split_at(lits.len());
            lits.copy_from_slice(loaded);
            words = rest;
        }
        rewind_watches(watches, spare_watches, created_lists, &load.lists, 2 * n);
        if let (Some(log), Some(mark)) = (proof.as_mut(), load.proof) {
            log.truncate(mark);
        }

        assigns.truncate(2 * n);
        vardata.truncate(n);
        seen.truncate(n);
        polarity.truncate(n);
        polarity.fill(DEFAULT_POLARITY);
        activity.truncate(n);
        conflict_counts.truncate(n);
        if stats.conflicts != load.stats.conflicts {
            activity.fill(0.0);
            conflict_counts.fill(0);
        }
        order_heap.reset(n);
        *var_inc = 1.0;
        *cla_inc = 1.0;
        *max_learnts = 0.0;

        *ok = load.ok;
        *last_solve_unsat = false;
        *stats = load.stats;
    }
}
