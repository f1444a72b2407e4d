//! Ablation studies of the paper's design choices (§3).

use pdsat_experiments::ablations::run_ablations;
use pdsat_experiments::ScaledWorkload;

fn main() {
    let workload = ScaledWorkload::bivium();
    let result = run_ablations(&workload);
    for table in result.tables() {
        println!("{table}");
    }
}
