//! The circuit builder and simulator.

use crate::node::{Gate, NodeId, Signal};

/// A combinational Boolean circuit.
///
/// The circuit doubles as its own builder: gate constructor methods append
/// nodes and return [`Signal`]s, which keeps the translation of iterated
/// stream ciphers (hundreds of rounds of the same update function) simple and
/// allocation-light. Constant operands are folded eagerly, so encoding a
/// weakened cipher (some inputs replaced by constants) automatically shrinks
/// the circuit.
///
/// This is our substitute for the Transalg translator used in the paper: like
/// Transalg it produces a Tseitin-style CNF whose *input variables* are the
/// unknowns of the cryptanalysis problem (key/state bits), which is exactly
/// the property that makes the input set a Strong Unit-Propagation Backdoor
/// Set usable as the starting decomposition set.
///
/// # Example
///
/// ```
/// use pdsat_circuit::Circuit;
///
/// let mut c = Circuit::new();
/// let a = c.input();
/// let b = c.input();
/// let sum = c.xor(a, b);
/// let carry = c.and(a, b);
/// c.add_output(sum);
/// c.add_output(carry);
/// assert_eq!(c.evaluate(&[true, true]), vec![false, true]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    nodes: Vec<Gate>,
    num_inputs: u32,
    outputs: Vec<Signal>,
}

impl Circuit {
    /// Creates an empty circuit.
    #[must_use]
    pub fn new() -> Circuit {
        Circuit::default()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Number of nodes (inputs and gates).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Declared outputs, in order.
    #[must_use]
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// The gates of the circuit in topological (creation) order.
    #[must_use]
    pub fn nodes(&self) -> &[Gate] {
        &self.nodes
    }

    fn push(&mut self, gate: Gate) -> Signal {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(gate);
        Signal::Node(id)
    }

    /// Adds a primary input and returns its signal.
    pub fn input(&mut self) -> Signal {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        self.push(Gate::Input(idx))
    }

    /// Adds `n` primary inputs and returns their signals.
    pub fn inputs(&mut self, n: usize) -> Vec<Signal> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A constant signal.
    #[must_use]
    pub fn constant(&self, value: bool) -> Signal {
        Signal::Const(value)
    }

    /// Negation.
    pub fn not(&mut self, a: Signal) -> Signal {
        match a {
            Signal::Const(v) => Signal::Const(!v),
            Signal::Node(_) => self.push(Gate::Not(a)),
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        match (a, b) {
            (Signal::Const(false), _) | (_, Signal::Const(false)) => Signal::FALSE,
            (Signal::Const(true), x) | (x, Signal::Const(true)) => x,
            _ if a == b => a,
            _ => self.push(Gate::And(a, b)),
        }
    }

    /// Disjunction.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        match (a, b) {
            (Signal::Const(true), _) | (_, Signal::Const(true)) => Signal::TRUE,
            (Signal::Const(false), x) | (x, Signal::Const(false)) => x,
            _ if a == b => a,
            _ => self.push(Gate::Or(a, b)),
        }
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        match (a, b) {
            (Signal::Const(false), x) | (x, Signal::Const(false)) => x,
            (Signal::Const(true), x) | (x, Signal::Const(true)) => self.not(x),
            _ if a == b => Signal::FALSE,
            _ => self.push(Gate::Xor(a, b)),
        }
    }

    /// Exclusive or of an arbitrary number of signals (false for none).
    pub fn xor_many(&mut self, signals: &[Signal]) -> Signal {
        signals
            .iter()
            .fold(Signal::FALSE, |acc, &s| self.xor(acc, s))
    }

    /// Conjunction of an arbitrary number of signals (true for none).
    pub fn and_many(&mut self, signals: &[Signal]) -> Signal {
        signals
            .iter()
            .fold(Signal::TRUE, |acc, &s| self.and(acc, s))
    }

    /// Majority of three signals.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        // Fold constants: maj(1, b, c) = b ∨ c, maj(0, b, c) = b ∧ c.
        match (a, b, c) {
            (Signal::Const(va), _, _) => {
                if va {
                    self.or(b, c)
                } else {
                    self.and(b, c)
                }
            }
            (_, Signal::Const(vb), _) => {
                if vb {
                    self.or(a, c)
                } else {
                    self.and(a, c)
                }
            }
            (_, _, Signal::Const(vc)) => {
                if vc {
                    self.or(a, b)
                } else {
                    self.and(a, b)
                }
            }
            _ if a == b || a == c => a,
            _ if b == c => b,
            _ => self.push(Gate::Maj(a, b, c)),
        }
    }

    /// Multiplexer: `if sel { then_branch } else { else_branch }`.
    pub fn mux(&mut self, sel: Signal, then_branch: Signal, else_branch: Signal) -> Signal {
        match sel {
            Signal::Const(true) => then_branch,
            Signal::Const(false) => else_branch,
            Signal::Node(_) => {
                if then_branch == else_branch {
                    then_branch
                } else {
                    self.push(Gate::Mux {
                        sel,
                        then_branch,
                        else_branch,
                    })
                }
            }
        }
    }

    /// Declares `signal` as the next circuit output.
    pub fn add_output(&mut self, signal: Signal) {
        self.outputs.push(signal);
    }

    /// Declares several outputs at once.
    pub fn add_outputs<I: IntoIterator<Item = Signal>>(&mut self, signals: I) {
        self.outputs.extend(signals);
    }

    /// Evaluates every declared output for the given input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_inputs`](Circuit::num_inputs).
    #[must_use]
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.evaluate_nodes(inputs);
        self.outputs
            .iter()
            .map(|&s| Self::signal_value(s, &values))
            .collect()
    }

    /// Evaluates every node for the given input values and returns the value
    /// of each node in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_inputs`](Circuit::num_inputs).
    #[must_use]
    pub fn evaluate_nodes(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.num_inputs as usize,
            "one value per primary input"
        );
        let mut values = Vec::with_capacity(self.nodes.len());
        for gate in &self.nodes {
            let v = match *gate {
                Gate::Input(i) => inputs[i as usize],
                Gate::Not(a) => !Self::signal_value(a, &values),
                Gate::And(a, b) => Self::signal_value(a, &values) & Self::signal_value(b, &values),
                Gate::Or(a, b) => Self::signal_value(a, &values) | Self::signal_value(b, &values),
                Gate::Xor(a, b) => Self::signal_value(a, &values) ^ Self::signal_value(b, &values),
                Gate::Maj(a, b, c) => {
                    let (a, b, c) = (
                        Self::signal_value(a, &values),
                        Self::signal_value(b, &values),
                        Self::signal_value(c, &values),
                    );
                    (a & b) | (a & c) | (b & c)
                }
                Gate::Mux {
                    sel,
                    then_branch,
                    else_branch,
                } => {
                    if Self::signal_value(sel, &values) {
                        Self::signal_value(then_branch, &values)
                    } else {
                        Self::signal_value(else_branch, &values)
                    }
                }
            };
            values.push(v);
        }
        values
    }

    pub(crate) fn signal_value(signal: Signal, values: &[bool]) -> bool {
        match signal {
            Signal::Const(b) => b,
            Signal::Node(id) => values[id.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_truth_table() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let cin = c.input();
        let ab = c.xor(a, b);
        let sum = c.xor(ab, cin);
        let carry = c.maj(a, b, cin);
        c.add_outputs([sum, carry]);
        for bits in 0..8u32 {
            let (a, b, cin) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let out = c.evaluate(&[a, b, cin]);
            let expected_sum = a ^ b ^ cin;
            let expected_carry = (a & b) | (a & cin) | (b & cin);
            assert_eq!(out, vec![expected_sum, expected_carry], "inputs {bits:03b}");
        }
    }

    #[test]
    fn constant_folding_reduces_gates() {
        let mut c = Circuit::new();
        let a = c.input();
        let t = c.constant(true);
        let f = c.constant(false);
        assert_eq!(c.and(a, f), Signal::FALSE);
        assert_eq!(c.and(a, t), a);
        assert_eq!(c.or(a, t), Signal::TRUE);
        assert_eq!(c.or(a, f), a);
        assert_eq!(c.xor(a, f), a);
        assert_eq!(c.xor(a, a), Signal::FALSE);
        assert_eq!(c.mux(t, a, f), a);
        assert_eq!(c.mux(f, a, t), Signal::TRUE);
        // Only the input node exists; nothing else was materialized except the
        // `not` from xor(a, true).
        let before = c.num_nodes();
        let na = c.xor(a, t);
        assert!(matches!(na, Signal::Node(_)));
        assert_eq!(c.num_nodes(), before + 1);
    }

    #[test]
    fn maj_constant_folding() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let t = c.constant(true);
        let f = c.constant(false);
        // maj(1,a,b) = a ∨ b ; maj(0,a,b) = a ∧ b.
        let or_ab = c.maj(t, a, b);
        let and_ab = c.maj(f, a, b);
        assert!(c.evaluate_nodes(&[true, false])[or_ab_index(or_ab)]);
        assert!(!c.evaluate_nodes(&[true, false])[or_ab_index(and_ab)]);
        // maj with two equal operands folds to that operand.
        assert_eq!(c.maj(a, a, b), a);
        assert_eq!(c.maj(a, b, b), b);
    }

    fn or_ab_index(s: Signal) -> usize {
        match s {
            Signal::Node(id) => id.index(),
            Signal::Const(_) => panic!("expected node"),
        }
    }

    #[test]
    fn xor_many_matches_parity() {
        let mut c = Circuit::new();
        let ins = c.inputs(5);
        let parity = c.xor_many(&ins);
        c.add_output(parity);
        for bits in 0..32u32 {
            let values: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let expected = values.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(c.evaluate(&values), vec![expected]);
        }
    }

    #[test]
    #[should_panic(expected = "one value per primary input")]
    fn wrong_input_arity_panics() {
        let mut c = Circuit::new();
        let _ = c.input();
        let _ = c.evaluate(&[]);
    }

    #[test]
    fn gate_counts() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let x = c.xor(a, b);
        c.add_output(x);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.outputs().len(), 1);
    }
}
