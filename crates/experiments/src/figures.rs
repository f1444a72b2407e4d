//! ASCII rendering of decomposition sets over cipher registers.
//!
//! Figures 1–4 of the paper draw the chosen decomposition sets as marked
//! cells of the generator's shift registers. We reproduce them as text
//! diagrams: each register is a row of cells numbered in state order
//! (1-based, as in the paper), and cells belonging to the decomposition set
//! are bracketed with `#`.

use pdsat_ciphers::Instance;
use pdsat_core::DecompositionSet;

/// Renders a decomposition set over the register layout of an instance's
/// cipher.
///
/// `layout` lists `(register name, register length)` in state order; the
/// instance maps state positions to CNF variables, and the positions its
/// weakening revealed are drawn as `.` cells.
#[must_use]
pub fn render_decomposition(
    title: &str,
    layout: &[(String, usize)],
    instance: &Instance,
    set: &DecompositionSet,
) -> String {
    let state_vars = instance.state_vars();
    let known: Vec<usize> = instance
        .known_state_bits()
        .iter()
        .map(|&(i, _)| i)
        .collect();
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut position = 0usize;
    for (name, len) in layout {
        out.push_str(&format!("{name:>14} "));
        for offset in 0..*len {
            let idx = position + offset;
            let cell_number = idx + 1; // the paper numbers cells from 1
            let var = state_vars.get(idx).copied();
            let in_set = var.is_some_and(|v| set.contains(v));
            let is_known = known.contains(&idx);
            let cell = if in_set {
                format!("#{cell_number:3}#")
            } else if is_known {
                format!(".{cell_number:3}.")
            } else {
                format!("[{cell_number:3}]")
            };
            out.push_str(&cell);
            if (offset + 1) % 16 == 0 && offset + 1 != *len {
                out.push('\n');
                out.push_str(&" ".repeat(15));
            }
        }
        out.push('\n');
        position += len;
    }
    out.push_str(&format!(
        "marked # = decomposition set ({} variables); . = revealed by weakening; [ ] = free\n",
        set.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaled::{CipherKind, ScaledWorkload};

    #[test]
    fn rendering_marks_set_known_and_free_cells() {
        let workload = ScaledWorkload::tiny(CipherKind::A51);
        let instance = workload.build_instance();
        let unknown = instance.unknown_state_vars();
        let set = DecompositionSet::new(unknown.iter().copied().take(3));
        let text = render_decomposition(
            "Figure: test set",
            &CipherKind::A51.register_layout(),
            &instance,
            &set,
        );
        assert!(text.contains("Figure: test set"));
        assert!(text.contains("R1"));
        assert!(text.contains("R3"));
        assert!(text.contains('#'), "set cells are marked");
        assert!(text.contains('.'), "revealed cells are marked");
        assert!(text.contains("3 variables"));
    }

    #[test]
    fn every_state_cell_appears_exactly_once() {
        let workload = ScaledWorkload::tiny(CipherKind::Bivium);
        let instance = workload.build_instance();
        let set = DecompositionSet::empty();
        let text = render_decomposition(
            "Bivium cells",
            &CipherKind::Bivium.register_layout(),
            &instance,
            &set,
        );
        // Cell numbers 1 and 177 are both present.
        assert!(text.contains("  1"));
        assert!(text.contains("177"));
    }
}
