//! Shared fixtures for the Criterion benchmarks.
//!
//! Every benchmark works on *bench-scale* instances: small enough that one
//! Criterion iteration takes milliseconds, large enough that the measured
//! quantity still reflects the paper's workload structure (Tseitin-encoded
//! keystream generators, weakened so that the unknown part is a handful of
//! state bits). The mapping from paper table/figure to bench target lives in
//! DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pdsat_ciphers::{Bivium, Grain, Instance, InstanceBuilder, A51};
use pdsat_core::DecompositionSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A weakened A5/1 instance used by the benchmarks (12 unknown state bits,
/// 48-bit keystream).
#[must_use]
pub fn bench_a51_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(0xA51);
    InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(52)
        .build_random(&mut rng)
}

/// A weakened Bivium instance (10 unknown state bits, 32-bit keystream).
///
/// The keystream is kept short on purpose: with a long keystream the known
/// suffix and keystream constraints unit-propagate *every* unknown state bit
/// at the root level, the whole decomposition family is decided without a
/// single propagation above the root, and the "solving" benches measure
/// nothing but harness overhead. At 32 keystream bits each sub-problem does
/// real propagation work under its assumptions — the regime of the paper,
/// and the one where assumption-trail reuse and learnt-clause carryover are
/// measurable.
#[must_use]
pub fn bench_bivium_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(0xB1B1);
    InstanceBuilder::new(Bivium::new())
        .keystream_len(32)
        .known_suffix_of_second_register(167)
        .build_random(&mut rng)
}

/// A weakened Grain instance (10 unknown state bits, 24-bit keystream).
///
/// Short keystream for the same reason as [`bench_bivium_instance`]: long
/// keystreams make the family root-propagation-trivial.
#[must_use]
pub fn bench_grain_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(0x6AA1);
    InstanceBuilder::new(Grain::new())
        .keystream_len(24)
        .known_suffix_of_second_register(150)
        .build_random(&mut rng)
}

/// A Grain instance weakened the other way (18 unknown state bits, 72-bit
/// keystream): the long keystream makes every cube of the 2^18-cube start
/// family propagation-trivial on purpose, so a family solve measures the
/// executor — batch copy, dispatch, outcome placement, report building — at
/// a size where a per-cube cost is visible.
#[must_use]
pub fn bench_grain_dispatch_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(0x6AA2);
    InstanceBuilder::new(Grain::new())
        .keystream_len(72)
        .known_suffix_of_second_register(142)
        .build_random(&mut rng)
}

/// The unknown-state decomposition set of an instance (its `X̃_start`).
#[must_use]
pub fn start_set(instance: &Instance) -> DecompositionSet {
    DecompositionSet::new(instance.unknown_state_vars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_bench_scale() {
        let a51 = bench_a51_instance();
        assert_eq!(start_set(&a51).len(), 12);
        let bivium = bench_bivium_instance();
        assert_eq!(start_set(&bivium).len(), 10);
        let grain = bench_grain_instance();
        assert_eq!(start_set(&grain).len(), 10);
    }
}
