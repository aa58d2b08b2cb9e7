//! Error type for the FReaC core architecture.

use std::fmt;

use freac_fold::FoldError;
use freac_netlist::NetlistError;

/// Errors raised while partitioning, mapping, configuring, or running
/// accelerators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The requested way split does not fit the slice.
    BadPartition {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Tile size outside 1..=32 MCCs.
    BadTileSize(usize),
    /// The circuit could not be folded onto the tile.
    Fold(FoldError),
    /// A structural netlist problem.
    Netlist(NetlistError),
    /// A host-interface operation was issued in the wrong state (e.g. `run`
    /// before `configure`).
    ProtocolViolation {
        /// The operation attempted.
        operation: &'static str,
        /// The state the controller was in.
        state: &'static str,
    },
    /// A host access targeted an address outside the reserved range.
    UnmappedAddress(u64),
    /// A dirty-line fraction outside `[0, 1]` (or NaN) was passed to a
    /// cost quote.
    BadDirtyFraction(f64),
    /// The accelerator's working set does not fit the scratchpad partition.
    WorkingSetTooLarge {
        /// Bytes needed by one concurrent tile.
        needed: u64,
        /// Scratchpad bytes available.
        available: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadPartition { reason } => write!(f, "invalid slice partition: {reason}"),
            CoreError::BadTileSize(n) => {
                write!(f, "tile size {n} is outside the supported 1..=32 clusters")
            }
            CoreError::Fold(e) => write!(f, "folding failed: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::ProtocolViolation { operation, state } => {
                write!(f, "operation '{operation}' is illegal in state '{state}'")
            }
            CoreError::UnmappedAddress(a) => write!(f, "address {a:#x} is not a FReaC register"),
            CoreError::BadDirtyFraction(d) => {
                write!(f, "dirty fraction {d} is outside [0, 1]")
            }
            CoreError::WorkingSetTooLarge { needed, available } => write!(
                f,
                "working set of {needed} bytes exceeds the {available}-byte scratchpad"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Fold(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FoldError> for CoreError {
    fn from(e: FoldError) -> Self {
        CoreError::Fold(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<CoreError> = vec![
            CoreError::BadPartition {
                reason: "too many ways".into(),
            },
            CoreError::BadTileSize(40),
            CoreError::ProtocolViolation {
                operation: "run",
                state: "idle",
            },
            CoreError::UnmappedAddress(0xdead),
            CoreError::BadDirtyFraction(f64::NAN),
            CoreError::WorkingSetTooLarge {
                needed: 1 << 20,
                available: 1 << 18,
            },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
