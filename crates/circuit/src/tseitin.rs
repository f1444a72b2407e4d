//! Tseitin transformation of circuits into CNF.

use crate::node::{Gate, Signal};
use crate::Circuit;
use pdsat_cnf::{Cnf, Lit, Var};

/// A circuit output after encoding: either a literal of the CNF or a
/// constant (when constant folding reduced the whole output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedOutput {
    /// The output equals this literal in every model.
    Lit(Lit),
    /// The output is the given constant.
    Const(bool),
}

/// The result of Tseitin-encoding a [`Circuit`].
///
/// Variable layout: the first `inputs.len()` variables of the CNF are the
/// primary inputs of the circuit, in input order; gate variables follow. This
/// matches Transalg's convention and is what lets the partitioning machinery
/// use "the input variables" as the starting decomposition set
/// (`X̃_start` of the paper).
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The Tseitin CNF of the circuit.
    pub cnf: Cnf,
    /// CNF variables of the primary inputs (index `i` ↔ circuit input `i`).
    pub inputs: Vec<Var>,
    /// Encoded outputs, in declaration order.
    pub outputs: Vec<EncodedOutput>,
}

impl Encoding {
    /// Adds unit clauses forcing output `index` to equal `value`.
    ///
    /// For cryptanalysis encodings this is how the observed keystream is
    /// injected: the resulting CNF is satisfiable exactly by the states that
    /// produce the observed bits.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fix_output(&mut self, index: usize, value: bool) {
        match self.outputs[index] {
            EncodedOutput::Lit(lit) => {
                let unit = if value { lit } else { !lit };
                self.cnf.add_unit(unit);
            }
            EncodedOutput::Const(c) => {
                if c != value {
                    // The constraint is unsatisfiable; encode that explicitly.
                    self.cnf.add_clause([]);
                }
            }
        }
    }

    /// Fixes every output to the corresponding value of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of outputs.
    pub fn fix_outputs(&mut self, values: &[bool]) {
        assert_eq!(
            values.len(),
            self.outputs.len(),
            "one value per circuit output"
        );
        for (i, &v) in values.iter().enumerate() {
            self.fix_output(i, v);
        }
    }

    /// Adds unit clauses fixing input `index` to `value` (used to produce
    /// weakened cryptanalysis instances where part of the key is known).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fix_input(&mut self, index: usize, value: bool) {
        let var = self.inputs[index];
        self.cnf.add_unit(var.lit(value));
    }
}

/// Encodes the circuit into CNF with the Tseitin transformation.
///
/// Every input and every materialized gate receives a CNF variable; each gate
/// contributes the standard clauses stating that its variable equals the gate
/// function of its operand variables. The encoding is equisatisfiable with
/// (and model-preserving over the inputs of) the circuit.
#[must_use]
pub fn encode(circuit: &Circuit) -> Encoding {
    let mut cnf = Cnf::new(0);
    // Inputs occupy variables 0..num_inputs in input order.
    let inputs: Vec<Var> = (0..circuit.num_inputs()).map(|_| cnf.new_var()).collect();

    // Assign a literal to every node.
    let mut node_lits: Vec<Lit> = Vec::with_capacity(circuit.num_nodes());
    for gate in circuit.nodes() {
        let lit = match *gate {
            Gate::Input(i) => inputs[i as usize].positive(),
            Gate::Not(a) => {
                // A NOT gate does not need a fresh variable: reuse the operand
                // literal negated.
                !signal_lit(a, &node_lits, &mut cnf)
            }
            Gate::And(a, b) => {
                let (la, lb) = (
                    signal_lit(a, &node_lits, &mut cnf),
                    signal_lit(b, &node_lits, &mut cnf),
                );
                let y = cnf.new_var().positive();
                cnf.add_clause([!y, la]);
                cnf.add_clause([!y, lb]);
                cnf.add_clause([y, !la, !lb]);
                y
            }
            Gate::Or(a, b) => {
                let (la, lb) = (
                    signal_lit(a, &node_lits, &mut cnf),
                    signal_lit(b, &node_lits, &mut cnf),
                );
                let y = cnf.new_var().positive();
                cnf.add_clause([y, !la]);
                cnf.add_clause([y, !lb]);
                cnf.add_clause([!y, la, lb]);
                y
            }
            Gate::Xor(a, b) => {
                let (la, lb) = (
                    signal_lit(a, &node_lits, &mut cnf),
                    signal_lit(b, &node_lits, &mut cnf),
                );
                let y = cnf.new_var().positive();
                cnf.add_clause([!y, la, lb]);
                cnf.add_clause([!y, !la, !lb]);
                cnf.add_clause([y, !la, lb]);
                cnf.add_clause([y, la, !lb]);
                y
            }
            Gate::Maj(a, b, c) => {
                let (la, lb, lc) = (
                    signal_lit(a, &node_lits, &mut cnf),
                    signal_lit(b, &node_lits, &mut cnf),
                    signal_lit(c, &node_lits, &mut cnf),
                );
                let y = cnf.new_var().positive();
                cnf.add_clause([!y, la, lb]);
                cnf.add_clause([!y, la, lc]);
                cnf.add_clause([!y, lb, lc]);
                cnf.add_clause([y, !la, !lb]);
                cnf.add_clause([y, !la, !lc]);
                cnf.add_clause([y, !lb, !lc]);
                y
            }
            Gate::Mux {
                sel,
                then_branch,
                else_branch,
            } => {
                let (ls, lt, le) = (
                    signal_lit(sel, &node_lits, &mut cnf),
                    signal_lit(then_branch, &node_lits, &mut cnf),
                    signal_lit(else_branch, &node_lits, &mut cnf),
                );
                let y = cnf.new_var().positive();
                cnf.add_clause([!y, !ls, lt]);
                cnf.add_clause([y, !ls, !lt]);
                cnf.add_clause([!y, ls, le]);
                cnf.add_clause([y, ls, !le]);
                // Redundant clauses that strengthen unit propagation.
                cnf.add_clause([!y, lt, le]);
                cnf.add_clause([y, !lt, !le]);
                y
            }
        };
        node_lits.push(lit);
    }

    let outputs = circuit
        .outputs()
        .iter()
        .map(|&s| match s {
            Signal::Const(b) => EncodedOutput::Const(b),
            Signal::Node(id) => EncodedOutput::Lit(node_lits[id.index()]),
        })
        .collect();

    Encoding {
        cnf,
        inputs,
        outputs,
    }
}

fn signal_lit(signal: Signal, node_lits: &[Lit], cnf: &mut Cnf) -> Lit {
    match signal {
        Signal::Node(id) => node_lits[id.index()],
        Signal::Const(b) => {
            // Constants inside gates are rare (the builder folds them) but can
            // appear via outputs of sub-circuits; encode with a frozen variable.
            let v = cnf.new_var();
            cnf.add_unit(v.lit(b));
            v.positive()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::Value;

    /// Builds a small mixed-gate circuit used by several tests.
    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new();
        let ins = c.inputs(4);
        let x = c.xor(ins[0], ins[1]);
        let m = c.maj(ins[1], ins[2], ins[3]);
        let s = c.mux(ins[0], x, m);
        let n = c.not(s);
        let o = c.or(n, ins[3]);
        let a = c.and(o, x);
        c.add_outputs([s, a]);
        c
    }

    #[test]
    fn inputs_come_first_in_variable_order() {
        let c = sample_circuit();
        let enc = encode(&c);
        assert_eq!(enc.inputs.len(), 4);
        for (i, v) in enc.inputs.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        assert!(enc.cnf.num_vars() > 4);
    }

    #[test]
    fn encoding_agrees_with_simulation_on_all_inputs() {
        let c = sample_circuit();
        let enc = encode(&c);
        for bits in 0..16u32 {
            let values: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let expected = c.evaluate(&values);
            // Fix the inputs with unit clauses and check the outputs by
            // evaluating the CNF with a full model found by propagation-free
            // brute force (the encoding is small).
            let mut fixed = enc.clone();
            for (i, &b) in values.iter().enumerate() {
                fixed.fix_input(i, b);
            }
            let model = fixed
                .cnf
                .brute_force_model()
                .expect("inputs fixed: must be SAT");
            for (o, &exp) in expected.iter().enumerate() {
                match fixed.outputs[o] {
                    EncodedOutput::Lit(lit) => {
                        assert_eq!(
                            model.lit_value(lit),
                            Value::from(exp),
                            "output {o} for inputs {values:?}"
                        );
                    }
                    EncodedOutput::Const(b) => assert_eq!(b, exp),
                }
            }
        }
    }

    #[test]
    fn fixing_outputs_selects_preimages() {
        // Circuit: out = a ∧ b. Fixing out=1 forces a=b=1.
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let o = c.and(a, b);
        c.add_output(o);
        let mut enc = encode(&c);
        enc.fix_output(0, true);
        let model = enc.cnf.brute_force_model().expect("satisfiable");
        assert_eq!(model.value(enc.inputs[0]), Value::True);
        assert_eq!(model.value(enc.inputs[1]), Value::True);
    }

    #[test]
    fn fixing_constant_output_to_wrong_value_is_unsat() {
        let mut c = Circuit::new();
        let a = c.input();
        let na = c.not(a);
        let always_true = c.or(a, na);
        c.add_output(always_true);
        let mut enc = encode(&c);
        assert!(matches!(
            enc.outputs[0],
            EncodedOutput::Const(true) | EncodedOutput::Lit(_)
        ));
        enc.fix_output(0, false);
        assert!(enc.cnf.brute_force_model().is_none());
    }

    #[test]
    fn not_gates_do_not_allocate_variables() {
        let mut c = Circuit::new();
        let a = c.input();
        let n = c.not(a);
        c.add_output(n);
        let enc = encode(&c);
        assert_eq!(enc.cnf.num_vars(), 1);
        assert_eq!(
            enc.outputs[0],
            EncodedOutput::Lit(!enc.inputs[0].positive())
        );
    }

    #[test]
    fn fix_outputs_checks_arity() {
        let mut c = Circuit::new();
        let a = c.input();
        c.add_output(a);
        let mut enc = encode(&c);
        enc.fix_outputs(&[true]);
        assert!(enc.cnf.brute_force_model().is_some());
    }
}
