//! Regenerates Table 1 of the paper on a scaled A5/1 instance, then
//! Figures 1, 2a, 2b: the three A5/1 decomposition sets drawn over the
//! generator's registers.

#![forbid(unsafe_code)]

use pdsat_experiments::table1::run_table1;
use pdsat_experiments::ScaledWorkload;

fn main() {
    let workload = ScaledWorkload::a51();
    println!(
        "Scaled A5/1 workload: {} unknown state bits, {}-bit keystream, N = {}, fresh backend",
        workload.unknown_bits(),
        workload.keystream_len,
        workload.sample_size
    );
    let result = run_table1(&workload);
    println!("{}", result.table());
    println!(
        "(points evaluated during the searches: {})",
        result.points_evaluated
    );
    println!(
        "Paper values for the full-strength instance: S1 = 4.45140e+08 s, \
         S2 = 4.78318e+08 s, S3 = 4.64428e+08 s (all within ~7% of each other)."
    );
    for figure in &result.figures {
        println!("{figure}");
    }
}
