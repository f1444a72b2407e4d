//! Circuit nodes and signals.

/// Identifier of a gate node inside a [`Circuit`](crate::Circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index of the node in the circuit's node list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A value flowing through the circuit: either a compile-time constant or the
/// output of a node.
///
/// Builder methods fold constants eagerly, so gate operands are almost always
/// [`Signal::Node`]s; constants only survive when the whole expression is
/// constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// A constant truth value.
    Const(bool),
    /// The output of a gate or input node.
    Node(NodeId),
}

impl Signal {
    /// The constant false signal.
    pub const FALSE: Signal = Signal::Const(false);
    /// The constant true signal.
    pub const TRUE: Signal = Signal::Const(true);

    /// `true` when the signal is a constant.
    #[must_use]
    pub fn is_const(self) -> bool {
        matches!(self, Signal::Const(_))
    }

    /// The constant value, if this signal is one.
    #[must_use]
    pub fn as_const(self) -> Option<bool> {
        match self {
            Signal::Const(b) => Some(b),
            Signal::Node(_) => None,
        }
    }
}

impl From<bool> for Signal {
    fn from(b: bool) -> Signal {
        Signal::Const(b)
    }
}

/// The operation computed by a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// A primary input (the `i`-th input of the circuit).
    Input(u32),
    /// Negation of a signal.
    Not(Signal),
    /// Conjunction.
    And(Signal, Signal),
    /// Disjunction.
    Or(Signal, Signal),
    /// Exclusive or.
    Xor(Signal, Signal),
    /// Majority of three signals (used by the A5/1 clocking rule).
    Maj(Signal, Signal, Signal),
    /// Multiplexer: `if sel { then_branch } else { else_branch }`.
    Mux {
        /// Select signal.
        sel: Signal,
        /// Value when `sel` is true.
        then_branch: Signal,
        /// Value when `sel` is false.
        else_branch: Signal,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_constants() {
        assert!(Signal::TRUE.is_const());
        assert_eq!(Signal::TRUE.as_const(), Some(true));
        assert_eq!(Signal::FALSE.as_const(), Some(false));
        assert_eq!(Signal::from(true), Signal::TRUE);
        assert_eq!(Signal::Node(NodeId(3)).as_const(), None);
        assert_eq!(NodeId(3).index(), 3);
    }
}
