//! Regenerates Figure 4 of the paper: the Grain decomposition set found by
//! PDSAT drawn over the NFSR and LFSR.

#![forbid(unsafe_code)]

use pdsat_experiments::figures::render_decomposition;
use pdsat_experiments::scaled::tabu;
use pdsat_experiments::{CipherKind, ScaledWorkload};

fn main() {
    let workload = ScaledWorkload::grain();
    let instance = workload.build_instance();
    let mut evaluator = workload.evaluator(&instance);
    let outcome = workload.search(&instance, &mut tabu(), &mut evaluator);

    let figure = render_decomposition(
        &format!(
            "Figure 4: decomposition set of {} variables found by tabu search for Grain (F = {:.3e})",
            outcome.best_set.len(),
            outcome.best_value
        ),
        &CipherKind::Grain.register_layout(),
        &instance,
        &outcome.best_set,
    );
    println!("{figure}");
    let lfsr_vars = outcome
        .best_set
        .vars()
        .iter()
        .filter(|v| v.index() >= 80)
        .count();
    println!(
        "{} of {} chosen variables lie in the LFSR (the paper's full-strength set of 69 \
         variables lies entirely in the LFSR).",
        lfsr_vars,
        outcome.best_set.len()
    );
}
