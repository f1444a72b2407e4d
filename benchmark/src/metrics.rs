//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the pipeline sees; reported by the untraced run. The
/// sixth end-to-end figure, the failed share, travels in the result line's
/// `attempted` and `failed` fields: it must be 0, and the benchmark contract
/// admits no metric whose healthy value is 0.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    higher("cubes_per_s", "1/s"),
    lower("peak_rss_mib", "MiB"),
];

/// What single layers did; reported by the traced run. A value of 0 means
/// the workload does not exercise the layer (or, for the two-worker
/// speed-ups, that the machine has one CPU and the figure was skipped).
pub const PER_LAYER: &[MetricDef] = &[
    higher("harness.nproc", "count"),
    higher("harness.repetitions", "count"),
    higher("harness.counters_identical", "ratio"),
    lower("harness.slowdown", "ratio"),
    lower("encode.build_ms", "ms"),
    lower("encode.vars", "count"),
    lower("encode.clauses", "count"),
    lower("encode.enumerate_ns_per_cube", "ns"),
    lower("solver.from_cnf_us", "us"),
    lower("solver.ns_per_propagation", "ns"),
    lower("solver.us_per_conflict", "us"),
    lower("solver.proof_on_over_off", "ratio"),
    lower("solver.propagations", "count"),
    lower("solver.conflicts", "count"),
    lower("solver.decisions", "count"),
    lower("solver.restarts", "count"),
    lower("solver.learnt_clauses", "count"),
    lower("solver.removed_clauses", "count"),
    higher("solver.reused_assumptions", "count"),
    higher("solver.saved_propagations", "count"),
    higher("oracle.workers", "count"),
    lower("oracle.seq_overhead_ns_per_cube", "ns"),
    lower("oracle.pool_overhead_ns_per_cube", "ns"),
    higher("oracle.speedup_2w_hard", "ratio"),
    higher("oracle.speedup_2w_easy", "ratio"),
    higher("oracle.bare_solver_share", "ratio"),
    lower("oracle.fresh_us_per_cube", "us"),
    lower("oracle.fresh_build_share", "ratio"),
    lower("oracle.batches", "count"),
    lower("oracle.cubes_solved", "count"),
    lower("oracle.worker_panics", "count"),
    lower("oracle.requeued_cubes", "count"),
    lower("predict.ms_per_point", "ms"),
    lower("predict.cubes_per_point", "count"),
    lower("predict.evaluations", "count"),
    higher("predict.cache_hits", "count"),
    higher("predict.f_over_actual", "ratio"),
    higher("predict.ci_covers_actual", "ratio"),
    lower("driver.search_s", "s"),
    lower("driver.points_evaluated", "count"),
    higher("driver.points_per_s", "1/s"),
    lower("driver.self_share", "ratio"),
    lower("solve_mode.family_s", "s"),
    lower("solve_mode.report_ns_per_cube", "ns"),
    lower("distrib.us_per_event", "us"),
    lower("distrib.event_cost_growth", "ratio"),
    lower("distrib.events_processed", "count"),
    lower("distrib.assignments", "count"),
    lower("distrib.no_work_replies", "count"),
    lower("distrib.expired_leases", "count"),
    lower("distrib.invalid_results", "count"),
    lower("distrib.duplicate_results", "count"),
    higher("distrib.useful_share", "ratio"),
    lower("distrib.grid_s", "s"),
    lower("store.save_ms", "ms"),
    lower("store.load_ms", "ms"),
    lower("store.bytes_per_save", "B"),
    higher("store.mib_per_s", "MiB/s"),
    lower("store.text_roundtrip_ms", "ms"),
    lower("checker.us_per_certificate", "us"),
    lower("checker.ns_per_step", "ns"),
    lower("checker.load_floor_us", "us"),
    lower("checker.model_check_us", "us"),
    lower("checker.certificates", "count"),
    lower("checker.steps_checked", "count"),
    lower("checker.propagations", "count"),
    lower("checker.rejected", "count"),
    lower("share.driver", "ratio"),
    lower("share.oracle", "ratio"),
    lower("share.solve_mode", "ratio"),
    lower("share.distrib", "ratio"),
    lower("share.store", "ratio"),
    lower("share.checker", "ratio"),
    lower("share.harness", "ratio"),
    higher("trace.attributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Whether a per-layer metric is an exact counter: a count made by the
/// program, which repeats bit for bit on the same input and which
/// `--compare` therefore requires to match. Every `count` is one, except
/// the harness's own (how many repetitions fit the window is a timing).
pub fn is_exact_counter(name: &str) -> bool {
    !name.starts_with("harness.")
        && PER_LAYER
            .iter()
            .any(|def| def.name == name && def.unit == "count")
}

/// Values of the per-layer metrics of one traced run: every defined metric
/// is present from the start (at 0) and only defined names can be set.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|def| (def.name, 0.0)).collect(),
        }
    }

    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a metric the contract
    /// file does not declare would be silently dropped by whoever reads it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        let names: BTreeSet<&str> = all.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for def in all {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().any(|d| *d == lower("setup_s", "s")));
    }

    #[test]
    fn exact_counters_are_the_programs_counts() {
        assert!(is_exact_counter("solver.propagations"));
        assert!(is_exact_counter("distrib.events_processed"));
        assert!(!is_exact_counter("harness.repetitions"));
        assert!(!is_exact_counter("solver.ns_per_propagation"));
        assert!(!is_exact_counter("solver.no_such_metric"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_cannot_be_reported() {
        Layers::new().set("solver.made_up", 1.0);
    }
}
