//! ORB errors.

use pardis_cdr::CdrError;
use pardis_rts::RtsError;
use std::fmt;

/// Everything that can go wrong in the ORB.
#[derive(Debug, Clone, PartialEq)]
pub enum OrbError {
    /// No object of this name is registered (and activation, if enabled,
    /// did not produce one in time).
    ObjectNotFound(String),
    /// An operation was invoked that the servant does not implement.
    BadOperation {
        /// Interface repository id.
        interface: String,
        /// The unknown operation.
        op: String,
    },
    /// The servant raised an exception; the message crossed the wire.
    ServerException(String),
    /// The servant raised a typed IDL user exception (`raises`); decode it
    /// with the generated exception type's `from_error`.
    UserException {
        /// Exception repository id.
        id: String,
        /// CDR-encoded exception members.
        data: Vec<u8>,
    },
    /// The reply (or part of it) did not arrive within the deadline.
    Timeout {
        /// What we were waiting for.
        waiting_for: String,
    },
    /// Marshaling failed.
    Marshal(CdrError),
    /// A structural misuse of the API (wrong slot index, wrong arg
    /// direction, distributed args on a single object, ...).
    Protocol(String),
    /// The binding's server went away.
    Disconnected,
    /// A future was consumed twice.
    FutureAlreadyTaken,
    /// Every replica of a replicated object group is dead or suspect: the
    /// failover layer re-resolved the group and found no candidate left to
    /// replay the invocation against.
    NoReplicaAvailable {
        /// The logical group name that could not be served.
        group: String,
    },
}

impl fmt::Display for OrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbError::ObjectNotFound(name) => write!(f, "object {name:?} not found"),
            OrbError::BadOperation { interface, op } => {
                write!(f, "interface {interface:?} has no operation {op:?}")
            }
            OrbError::ServerException(msg) => write!(f, "server exception: {msg}"),
            OrbError::UserException { id, .. } => write!(f, "user exception {id:?}"),
            OrbError::Timeout { waiting_for } => write!(f, "timed out waiting for {waiting_for}"),
            OrbError::Marshal(e) => write!(f, "marshaling error: {e}"),
            OrbError::Protocol(msg) => write!(f, "protocol misuse: {msg}"),
            OrbError::Disconnected => write!(f, "server disconnected"),
            OrbError::FutureAlreadyTaken => write!(f, "future already consumed"),
            OrbError::NoReplicaAvailable { group } => {
                write!(f, "no live replica available in group {group:?}")
            }
        }
    }
}

impl std::error::Error for OrbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrbError::Marshal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for OrbError {
    fn from(e: CdrError) -> Self {
        OrbError::Marshal(e)
    }
}

/// A one-sided RTS operation the ORB issued was refused: the ORB misused
/// its windows.
impl From<RtsError> for OrbError {
    fn from(e: RtsError) -> Self {
        OrbError::Protocol(format!("one-sided RTS: {e}"))
    }
}

impl OrbError {
    /// Whether re-issuing the invocation could plausibly succeed. True only
    /// for transport-level failures — a timeout or a vanished peer (the
    /// request or reply may simply have been lost); semantic errors —
    /// unknown operation, user exception, marshaling, protocol misuse —
    /// would fail identically on retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, OrbError::Timeout { .. } | OrbError::Disconnected)
    }
}

/// Shorthand result type used throughout the ORB.
pub type OrbResult<T> = Result<T, OrbError>;
