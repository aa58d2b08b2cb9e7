//! Errors for fold scheduling and folded execution.

use std::fmt;

use freac_netlist::{NetlistError, NodeId};

/// Errors produced by the folding scheduler or folded executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FoldError {
    /// The netlist contains a LUT wider than the physical LUT inputs;
    /// run technology mapping first.
    LutTooWide {
        /// The offending node.
        node: NodeId,
        /// Its input count.
        width: usize,
        /// Physical LUT input count.
        max: usize,
    },
    /// The schedule would need more steps than the configuration memory
    /// (compute sub-array rows) can hold.
    ExceedsConfigRows {
        /// Steps required.
        steps: usize,
        /// Rows available.
        max: usize,
    },
    /// During execution, a node was evaluated before one of its operands —
    /// the schedule violates dependencies.
    DependencyViolation {
        /// The node whose operand was missing.
        node: NodeId,
        /// The operand that had not been computed yet.
        operand: NodeId,
    },
    /// A schedule step lists a node where it cannot run: a bus read of a
    /// node that is not a primary input, a `luts`/`macs`/`bus_writes`
    /// entry naming a node of another kind, or a node id past the netlist.
    MisplacedNode {
        /// Index of the step.
        step: usize,
        /// The step's list that names the node: `"bus_reads"`, `"luts"`,
        /// `"macs"` or `"bus_writes"`.
        list: &'static str,
        /// The misplaced node.
        node: NodeId,
    },
    /// A structural netlist error surfaced while folding.
    Netlist(NetlistError),
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::LutTooWide { node, width, max } => write!(
                f,
                "node {node} is a {width}-input LUT but the tile provides {max}-input LUTs; run tech_map first"
            ),
            FoldError::ExceedsConfigRows { steps, max } => write!(
                f,
                "schedule needs {steps} fold steps but the configuration memory holds only {max} rows"
            ),
            FoldError::DependencyViolation { node, operand } => write!(
                f,
                "schedule evaluates node {node} before its operand {operand}"
            ),
            FoldError::MisplacedNode { step, list, node } => {
                let want = match *list {
                    "bus_reads" => "a primary input",
                    "luts" => "a LUT",
                    "macs" => "a MAC",
                    _ => "a primary word output",
                };
                write!(
                    f,
                    "fold step {step} lists node {node} in `{list}`, but it is not {want} of the netlist"
                )
            }
            FoldError::Netlist(e) => write!(f, "netlist error while folding: {e}"),
        }
    }
}

impl std::error::Error for FoldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FoldError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for FoldError {
    fn from(e: NetlistError) -> Self {
        FoldError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = FoldError::ExceedsConfigRows {
            steps: 5000,
            max: 2048,
        };
        assert!(e.to_string().contains("5000"));
        let e = FoldError::LutTooWide {
            node: NodeId(4),
            width: 8,
            max: 4,
        };
        assert!(e.to_string().contains("8-input"));
        let e = FoldError::MisplacedNode {
            step: 3,
            list: "macs",
            node: NodeId(9),
        };
        assert!(e.to_string().contains("not a MAC"));
        let e: FoldError = NetlistError::BadLutSize(9).into();
        assert!(matches!(e, FoldError::Netlist(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
