//! The named sites where an injected fault can strike: one list for the
//! whole deployment.
//!
//! Faults are scripted by the cloud layer (its `FaultPlan` owns virtual time
//! and the script), but crashes must *fire* deep inside core components —
//! between a verification and a signature, between a timestamp draw and the
//! re-encrypt. Core cannot depend on the cloud crate, so the seam is a plain
//! callback: components built with a [`CrashHook`] consult it at each named
//! site and propagate the [`crate::error::WfError::Crash`] it returns. A
//! component without a hook pays nothing.
//!
//! Site names are stable strings (not an enum): the plan is asked by name,
//! and the cloud-side sites — a portal's store, a replica's commit, a
//! portal's serve, a cloud's reachability — are named here too, so no site is
//! named twice. Core itself visits only the AEA and TFC sites.

use crate::error::WfResult;
use std::sync::Arc;

/// A crash-injection callback: given the site name, return
/// `Err(WfError::Crash(..))` to kill the component there, `Ok(())` to let
/// execution proceed.
pub type CrashHook = Arc<dyn Fn(&str) -> WfResult<()> + Send + Sync>;

/// The named injection sites core components consult.
pub mod site {
    /// After the AEA verified the incoming document, before any work on the
    /// response: the agent dies holding nothing the pool does not already
    /// have.
    pub const AEA_AFTER_VERIFY: &str = "aea:after-verify";
    /// After the response fields were produced, immediately before the
    /// cascade signature: the half-built document dies with the agent.
    pub const AEA_BEFORE_SIGN: &str = "aea:before-sign";
    /// After the cascade signature, before the send: the completed document
    /// existed only in the dead agent's memory — unless its send raced out.
    pub const AEA_AFTER_SIGN: &str = "aea:after-sign-before-send";
    /// After the TFC drew (and redo-logged) the timestamp, before the
    /// re-encrypt/attest/forward: the classic double-timestamp hazard.
    pub const TFC_AFTER_TIMESTAMP: &str = "tfc:after-timestamp";
    /// Portal-side: between writing the seen-row and the document row — the
    /// atomicity hazard the write-ahead journal closes.
    pub const PORTAL_BETWEEN_SEEN_AND_STORE: &str = "portal:between-seen-and-store";
    /// Federation-side: after a replica cloud journalled an admission's ops
    /// but before it committed/applied them — the torn-replication hazard
    /// each replica's own write-ahead journal closes.
    pub const PORTAL_REPLICA_BEFORE_COMMIT: &str = "portal:replica-before-commit";

    /// Federation-side, one site per portal: the global portal `portal`
    /// serving a stored document. A fault here corrupts the served copy —
    /// the compromised-portal case the serve probe must catch.
    pub fn serve(portal: usize) -> String {
        format!("portal:{portal}:serve")
    }

    /// Federation-side, one site per member cloud: an admission or a
    /// replication reaching the cloud named `name`. A fault here makes it
    /// unreachable — the outage the controller confirms and fails over.
    pub fn cloud(name: &str) -> String {
        format!("cloud:{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WfError;

    #[test]
    fn hook_decides_per_site() {
        let hook: CrashHook = Arc::new(|s| {
            if s == site::AEA_BEFORE_SIGN {
                Err(WfError::Crash(s.to_string()))
            } else {
                Ok(())
            }
        });
        assert!(hook(site::AEA_AFTER_VERIFY).is_ok());
        assert!(matches!(hook(site::AEA_BEFORE_SIGN), Err(WfError::Crash(_))));
    }
}
