//! The speed of the box, read beside every repetition.
//!
//! The machines the benchmark runs on are shared, and their speed wanders:
//! for minutes at a time everything on the reference box, a register-only
//! loop included, runs 10 to 20 % slower, then recovers. A run of half a
//! minute sits inside one such spell, so no statistic over its repetitions
//! can see it, and ten runs of bit-identical work have spread 17 % between
//! their quartiles. So a run times a fixed kernel between its repetitions
//! and reports its timings at reference speed: divided by how much slower
//! than [`REFERENCE_PASS_S`] the kernel ran. Measured over 12 runs of each
//! workload in a wandering half hour, that brought the spread between the
//! runs' quartiles from 8 to 14 % down to 2 to 5 %.
//!
//! The kernel is no part of the program under test and shares no code with
//! it, so a change to the program cannot move it.

use crate::stats::lower_decile;
use std::hint::black_box;
use std::time::Instant;

/// What one [`Kernel::pass`] takes on the reference box at its usual speed.
/// Only a scale: it makes timings at reference speed read like the seconds
/// the box usually shows.
pub const REFERENCE_PASS_S: f64 = 0.0058;

/// Passes timed before the first repetition and after each.
pub const PASSES_PER_REPETITION: usize = 3;

/// A third each of what the program's time goes to: dependent loads from a
/// table the size of a second-level cache with an unpredictable branch on
/// each (the solver's watch lists), streaming arithmetic over a resident
/// block (clause and cube copies), and a register-only dependency chain.
pub struct Kernel {
    /// One cycle through all of `0..LEN` (1 MiB), in scattered order.
    next: Vec<u32>,
}

const LEN: usize = 1 << 18;

impl Kernel {
    pub fn new() -> Self {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut next: Vec<u32> = (0..LEN as u32).collect();
        let mut x = 88_172_645_463_325_252_u64;
        for i in (1..LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Kernel { next }
    }

    /// Seconds one pass of the kernel took.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        let mut acc = 0u64;
        for _ in 0..300_000 {
            at = self.next[at as usize];
            if at & 1 == 1 {
                acc += u64::from(at);
            } else {
                acc ^= u64::from(at);
            }
        }
        for round in 0..100u64 {
            for &v in &self.next[..LEN / 4] {
                acc = acc.wrapping_add(u64::from(v).wrapping_mul(round | 1));
            }
        }
        let mut x = black_box(acc | 1);
        for _ in 0..1_100_000 {
            x = (x ^ (x >> 7))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(13);
        }
        black_box(x);
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than the reference the box ran while `passes` were
/// timed. The lower decile, like the timings it scales: both then read the
/// same quiet moments of the run.
pub fn slowdown(passes: &[f64]) -> f64 {
    lower_decile(passes) / REFERENCE_PASS_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_the_whole_table() {
        let kernel = Kernel::new();
        let mut at = 0u32;
        let mut steps = 0;
        loop {
            at = kernel.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, LEN);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference_pass() {
        let passes = [2.0 * REFERENCE_PASS_S, 3.0 * REFERENCE_PASS_S];
        assert!((slowdown(&passes) - 2.0).abs() < 1e-12);
        assert!(Kernel::new().pass() > 0.0);
    }
}
