//! Regenerates Table 2 of the paper on a scaled Bivium instance.

use pdsat_experiments::table2::run_table2;
use pdsat_experiments::ScaledWorkload;

fn main() {
    let workload = ScaledWorkload::bivium();
    println!(
        "Scaled Bivium workload: {} unknown state bits, {}-bit keystream, N = {}, fresh backend",
        workload.unknown_bits(),
        workload.keystream_len,
        workload.sample_size
    );
    let result = run_table2(&workload);
    println!("{}", result.table());
    println!(
        "Paper values for the full-strength instance: 1.637e+13 s (fixed strategy, N=10^2), \
         9.718e+10 s (CryptoMiniSat extrapolation, N=10^3), 3.769e+10 s (PDSAT, N=10^5)."
    );
}
