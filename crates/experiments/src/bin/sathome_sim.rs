//! Simulates the §4.2 SAT@home deployment: the distributed coordinator
//! processing A5/1 decomposition families on a volunteer computing grid,
//! including a mid-run kill and checkpoint resume.

#![forbid(unsafe_code)]

use pdsat_experiments::sathome::run_sathome;
use pdsat_experiments::ScaledWorkload;

fn main() {
    let workload = ScaledWorkload::a51();
    let hosts = 64;
    let result = run_sathome(&workload, hosts);
    println!("{}", result.table());
    for run in &result.runs {
        println!(
            "{}: {} work units, {} leases issued ({} re-issued after expiry); the coordinator \
             was killed mid-run and resumed {} already-completed units from its checkpoint \
             without recomputing them.",
            run.set_name, run.work_units, run.assignments, run.reissued_leases, run.resumed_units
        );
    }
    println!(
        "Paper narrative: 10 full-strength instances over the S1 family were solved in \
         SAT@home in ~5 months at ~2 TFLOPS (2011-2012); a second series over S3 completed \
         in 2014. The simulation reproduces the operational picture: work units are leased \
         with BOINC-style replication 2, expired leases are re-issued, duplicate and corrupt \
         uploads are discarded, and checkpointing makes the months-long run restartable."
    );
}
