//! Unified error type for the DRA4WfMS core.

use crate::model::ActivityId;

/// Anything that can go wrong while building, routing, executing or
/// verifying a DRA4WfMS document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WfError {
    /// XML / document structure could not be parsed.
    Parse(String),
    /// A digital signature failed to verify, or a required signature is
    /// missing — integrity or nonrepudiation violation.
    Verify(String),
    /// The security policy is inconsistent or cannot be applied.
    Policy(String),
    /// Control-flow evaluation failed (bad transition, unsatisfied join…).
    Flow(String),
    /// A cryptographic operation failed (decryption, key wrap…).
    Crypto(String),
    /// The acting participant is not the assigned executor of the activity.
    NotParticipant {
        /// Who the workflow definition assigns.
        expected: String,
        /// Who attempted the execution.
        actual: String,
    },
    /// The referenced activity does not exist in the workflow definition.
    UnknownActivity(ActivityId),
    /// The referenced identity is not present in the directory.
    UnknownIdentity(String),
    /// A field needed (for display or condition evaluation) is encrypted to
    /// other recipients. This is exactly the Fig. 4 flow-concealment problem
    /// of the paper; the advanced operational model resolves it via the TFC.
    FieldNotReadable {
        /// Producing activity.
        activity: ActivityId,
        /// Field name.
        field: String,
        /// Who tried to read it.
        reader: String,
    },
    /// Documents being merged at an AND-join disagree (different process id
    /// or different application definition).
    MergeMismatch(String),
    /// Structurally invalid DRA4WfMS document.
    Malformed(String),
    /// Invalid runtime configuration (zero-bandwidth network, fault rates
    /// outside `[0, 1)`, an `InstanceRun` builder missing a required
    /// component…). Always a caller bug, never a document fault.
    Config(String),
    /// A document hand-off could not be completed within the delivery
    /// policy's retry budget (the simulated channel dropped or corrupted
    /// every attempt).
    Delivery(String),
    /// A hand-off travelled as a delta against a version, named by its
    /// chain digest, that the receiving cloud holds no copy of (a cold
    /// restart, a failover): the sender resends the whole wire.
    UnknownBase(String),
    /// A simulated crash fault killed the component mid-operation: every
    /// in-flight state it held is gone, and only what had already reached
    /// stable storage (the document pool, a write-ahead journal, the TFC
    /// redo log) survives. Recovery machinery catches this variant; it must
    /// never be conflated with a document or policy fault.
    Crash(String),
    /// The workflow definition failed design-time soundness analysis
    /// (deadlock, dead activity, unbounded join, orphaning cancellation…).
    /// Raised at admission, before any activity executes; the message is
    /// the precise diagnostic from `core::soundness`.
    Unsound(String),
}

impl std::fmt::Display for WfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfError::Parse(m) => write!(f, "parse error: {m}"),
            WfError::Verify(m) => write!(f, "signature verification failed: {m}"),
            WfError::Policy(m) => write!(f, "security policy error: {m}"),
            WfError::Flow(m) => write!(f, "control flow error: {m}"),
            WfError::Crypto(m) => write!(f, "cryptographic failure: {m}"),
            WfError::NotParticipant { expected, actual } => {
                write!(f, "participant mismatch: activity assigned to '{expected}', attempted by '{actual}'")
            }
            WfError::UnknownActivity(a) => write!(f, "unknown activity '{a}'"),
            WfError::UnknownIdentity(p) => write!(f, "unknown identity '{p}'"),
            WfError::FieldNotReadable { activity, field, reader } => {
                write!(f, "'{reader}' cannot read field '{field}' of activity '{activity}' (element-wise encrypted to other recipients)")
            }
            WfError::MergeMismatch(m) => write!(f, "document merge mismatch: {m}"),
            WfError::Malformed(m) => write!(f, "malformed document: {m}"),
            WfError::Config(m) => write!(f, "configuration error: {m}"),
            WfError::Delivery(m) => write!(f, "delivery failed: {m}"),
            WfError::Crash(m) => write!(f, "simulated crash: {m}"),
            WfError::Unsound(m) => write!(f, "unsound workflow definition: {m}"),
            WfError::UnknownBase(m) => write!(f, "no base version {m} to rebuild a delta on"),
        }
    }
}

impl std::error::Error for WfError {}

/// Convenient alias.
pub type WfResult<T> = Result<T, WfError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = WfError::FieldNotReadable {
            activity: "A3".into(),
            field: "X".into(),
            reader: "tony".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("tony") && msg.contains("A3") && msg.contains('X'));

        let e = WfError::NotParticipant { expected: "amy".into(), actual: "mallory".into() };
        assert!(e.to_string().contains("amy"));
    }
}
