//! Regenerates Table 3 of the paper: weakened BiviumK/GrainK problems,
//! predicted vs. real family processing cost and time-to-SAT.

#![forbid(unsafe_code)]

use pdsat_core::FamilyCounters;
use pdsat_distrib::ClusterConfig;
use pdsat_experiments::table3::{default_table3_problems, run_table3};

fn main() {
    let problems = default_table3_problems();
    let cluster = ClusterConfig { cores: 16 };
    println!(
        "Running {} weakened problems, 3 instances each, on a simulated {}-core cluster",
        problems.len(),
        cluster.cores
    );
    let result = run_table3(&problems, 3, &cluster);
    println!("{}", result.table());
    println!(
        "Paper protocol: 480 cores of \"Academician V.M. Matrosov\"; the real solving time \
         deviates from the estimate by about 8% on average."
    );
    let mean_dev: f64 = result
        .rows
        .iter()
        .map(|r| r.mean_deviation_percent)
        .sum::<f64>()
        / result.rows.len().max(1) as f64;
    println!("Mean deviation across the scaled problems: {mean_dev:.1}%");
    let mut counters = FamilyCounters::default();
    for measurement in result.rows.iter().flat_map(|r| &r.instances) {
        counters += measurement.counters;
    }
    println!(
        "Family counters summed over every family solved \
         (trail reuse, panic recovery):"
    );
    for (name, value) in FamilyCounters::NAMES.iter().zip(counters.values()) {
        if !FamilyCounters::RESERVED.contains(name) {
            println!("  {name} = {value}");
        }
    }
}
