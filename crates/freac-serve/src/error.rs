//! Serving-layer errors.

use std::fmt;

use freac_core::CoreError;
use freac_netlist::NetlistError;

/// Anything the serving subsystem can refuse to do.
#[derive(Debug)]
pub enum ServeError {
    /// The server configuration is invalid (slice count, queue depth, …).
    BadConfig(String),
    /// A request named a tenant that was never added.
    UnknownTenant(String),
    /// A request named a kernel that was never registered.
    UnknownKernel(String),
    /// The tenant was already added.
    DuplicateTenant(String),
    /// The kernel name was already registered.
    DuplicateKernel(String),
    /// A `(tenant, seq, retries)` triple was submitted twice — the
    /// identity the deterministic schedule keys on.
    DuplicateRequest {
        /// Submitting tenant.
        tenant: String,
        /// Tenant-local sequence number.
        seq: u64,
        /// Retry counter of the duplicate.
        retries: u32,
    },
    /// Accelerator mapping or reconfiguration-cost modeling failed.
    Core(CoreError),
    /// Compiling the kernel's netlist plan, or batch-executing it or the
    /// fold plan, failed.
    Netlist(NetlistError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadConfig(reason) => write!(f, "bad serve config: {reason}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ServeError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            ServeError::DuplicateTenant(t) => write!(f, "tenant '{t}' already added"),
            ServeError::DuplicateKernel(k) => write!(f, "kernel '{k}' already registered"),
            ServeError::DuplicateRequest {
                tenant,
                seq,
                retries,
            } => write!(
                f,
                "request ({tenant}, seq {seq}, retry {retries}) submitted twice"
            ),
            ServeError::Core(e) => write!(f, "core: {e}"),
            ServeError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<NetlistError> for ServeError {
    fn from(e: NetlistError) -> Self {
        ServeError::Netlist(e)
    }
}
