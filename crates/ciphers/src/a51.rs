//! The A5/1 keystream generator.
//!
//! A5/1 is the GSM encryption generator attacked in the paper (and earlier in
//! Semenov et al., PaCT 2011). It consists of three LFSRs of lengths 19, 22
//! and 23 (64 state bits in total) with majority-controlled irregular
//! clocking:
//!
//! * R1: feedback taps 13, 16, 17, 18; clocking tap 8; output tap 18;
//! * R2: feedback taps 20, 21; clocking tap 10; output tap 21;
//! * R3: feedback taps 7, 20, 21, 22; clocking tap 10; output tap 22.
//!
//! At every step the majority `m` of the three clocking taps is computed and
//! exactly the registers whose clocking tap equals `m` are shifted (so two or
//! three registers move each step). The keystream bit is the XOR of the three
//! output taps. As in the paper, the unknown of the cryptanalysis problem is
//! the 64-bit register fill that produces an observed 114-bit keystream
//! fragment (one GSM burst).

use crate::StreamCipher;
use pdsat_circuit::{Circuit, Signal};

/// Total state size (64).
pub const STATE_LEN: usize = 64;
/// Keystream length used in the paper (one burst).
pub const DEFAULT_KEYSTREAM_LEN: usize = 114;

const FEEDBACK_TAPS: [&[usize]; 3] = [&[13, 16, 17, 18], &[20, 21], &[7, 20, 21, 22]];
const CLOCK_TAPS: [usize; 3] = [8, 10, 10];
const OUTPUT_TAPS: [usize; 3] = [18, 21, 22];

/// The A5/1 generator in the state-recovery formulation.
///
/// # Example
///
/// ```
/// use pdsat_ciphers::{A51, StreamCipher};
/// let cipher = A51::new();
/// let state = vec![true; 64];
/// let ks = cipher.keystream(&state, 16);
/// assert_eq!(ks.len(), 16);
/// // The circuit encoding computes the same bits.
/// assert_eq!(cipher.circuit(16).evaluate(&state), ks);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct A51;

impl A51 {
    /// Creates the cipher description.
    #[must_use]
    pub fn new() -> A51 {
        A51
    }

    fn split(state: &[bool]) -> [Vec<bool>; 3] {
        let r1 = state[0..19].to_vec();
        let r2 = state[19..41].to_vec();
        let r3 = state[41..64].to_vec();
        [r1, r2, r3]
    }
}

impl StreamCipher for A51 {
    fn name(&self) -> &str {
        "A5/1"
    }

    fn state_len(&self) -> usize {
        STATE_LEN
    }

    fn default_keystream_len(&self) -> usize {
        DEFAULT_KEYSTREAM_LEN
    }

    fn register_layout(&self) -> Vec<(String, usize)> {
        vec![
            ("R1".to_string(), 19),
            ("R2".to_string(), 22),
            ("R3".to_string(), 23),
        ]
    }

    fn keystream(&self, state: &[bool], len: usize) -> Vec<bool> {
        assert_eq!(state.len(), STATE_LEN, "A5/1 state is 64 bits");
        let mut regs = Self::split(state);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            // Output before clocking (classic formulation: the first output
            // bit depends on the loaded state).
            let z = regs[0][OUTPUT_TAPS[0]] ^ regs[1][OUTPUT_TAPS[1]] ^ regs[2][OUTPUT_TAPS[2]];
            out.push(z);
            let clock_bits = [
                regs[0][CLOCK_TAPS[0]],
                regs[1][CLOCK_TAPS[1]],
                regs[2][CLOCK_TAPS[2]],
            ];
            let majority = (clock_bits[0] & clock_bits[1])
                | (clock_bits[0] & clock_bits[2])
                | (clock_bits[1] & clock_bits[2]);
            for (r, reg) in regs.iter_mut().enumerate() {
                if clock_bits[r] == majority {
                    let feedback = FEEDBACK_TAPS[r].iter().fold(false, |acc, &t| acc ^ reg[t]);
                    for j in (1..reg.len()).rev() {
                        reg[j] = reg[j - 1];
                    }
                    reg[0] = feedback;
                }
            }
        }
        out
    }

    fn circuit(&self, len: usize) -> Circuit {
        let mut c = Circuit::new();
        let inputs = c.inputs(STATE_LEN);
        let mut regs: [Vec<Signal>; 3] = [
            inputs[0..19].to_vec(),
            inputs[19..41].to_vec(),
            inputs[41..64].to_vec(),
        ];
        for _ in 0..len {
            let z1 = c.xor(regs[0][OUTPUT_TAPS[0]], regs[1][OUTPUT_TAPS[1]]);
            let z = c.xor(z1, regs[2][OUTPUT_TAPS[2]]);
            c.add_output(z);

            let clock_bits = [
                regs[0][CLOCK_TAPS[0]],
                regs[1][CLOCK_TAPS[1]],
                regs[2][CLOCK_TAPS[2]],
            ];
            let majority = c.maj(clock_bits[0], clock_bits[1], clock_bits[2]);
            for (r, reg) in regs.iter_mut().enumerate() {
                // The register moves iff its clocking tap equals the majority.
                let agree_xor = c.xor(clock_bits[r], majority);
                let moves = c.not(agree_xor);
                let feedback_taps: Vec<Signal> = FEEDBACK_TAPS[r].iter().map(|&t| reg[t]).collect();
                let feedback = c.xor_many(&feedback_taps);
                let mut next = Vec::with_capacity(reg.len());
                next.push(c.mux(moves, feedback, reg[0]));
                for j in 1..reg.len() {
                    next.push(c.mux(moves, reg[j - 1], reg[j]));
                }
                *reg = next;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::assert_circuit_matches;
    use rand::{Rng, SeedableRng};

    fn random_state(seed: u64) -> Vec<bool> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..STATE_LEN).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn keystream_has_requested_length_and_is_deterministic() {
        let cipher = A51::new();
        let state = random_state(1);
        let a = cipher.keystream(&state, 114);
        let b = cipher.keystream(&state, 114);
        assert_eq!(a.len(), 114);
        assert_eq!(a, b);
    }

    #[test]
    fn different_states_give_different_keystreams() {
        let cipher = A51::new();
        let a = cipher.keystream(&random_state(2), 64);
        let b = cipher.keystream(&random_state(3), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn all_zero_state_produces_zero_keystream() {
        // With an all-zero fill every tap is zero forever.
        let cipher = A51::new();
        let ks = cipher.keystream(&[false; STATE_LEN], 32);
        assert!(ks.iter().all(|&b| !b));
    }

    #[test]
    fn majority_clocking_moves_two_or_three_registers() {
        // Indirect check: a state whose clocking taps are 0,1,1 must keep R1
        // frozen for the first step, so R1's output tap influence persists.
        let cipher = A51::new();
        let mut state = vec![false; STATE_LEN];
        // clock taps: R1 bit 8 -> 0, R2 bit 19+10 -> 1, R3 bit 41+10 -> 1.
        state[19 + 10] = true;
        state[41 + 10] = true;
        // Set R1 output tap so it shows up in the keystream while frozen.
        state[18] = true;
        let ks = cipher.keystream(&state, 2);
        // Step 1 output: R1[18]=1 ^ R2[21]=0 ^ R3[22]=0 = 1.
        assert!(ks[0]);
        // R1 did not clock (0 is the minority), so R1[18] is still 1 at step 2.
        // R2 and R3 clocked; their output taps were 0 before and receive the
        // previous bit 20/21 which are 0, so the second bit is still 1.
        assert!(ks[1]);
    }

    #[test]
    fn circuit_matches_reference_on_random_states() {
        let cipher = A51::new();
        for seed in 0..8 {
            assert_circuit_matches(&cipher, &random_state(seed), 24);
        }
    }

    #[test]
    fn register_layout_sums_to_state_len() {
        let cipher = A51::new();
        let total: usize = cipher.register_layout().iter().map(|(_, l)| l).sum();
        assert_eq!(total, cipher.state_len());
        assert_eq!(cipher.default_keystream_len(), 114);
        assert_eq!(cipher.name(), "A5/1");
    }

    #[test]
    #[should_panic(expected = "A5/1 state is 64 bits")]
    fn wrong_state_length_panics() {
        A51::new().keystream(&[true; 10], 4);
    }
}
