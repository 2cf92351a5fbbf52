//! Multi-cloud federation: replicated pools, portal quarantine and
//! health-driven failover.
//!
//! The paper's deployment story places *one* cloud system behind the
//! portals; everything in it survives portal crashes (journal replay, PR 3)
//! but nothing survives the cloud itself going down — or worse, a portal
//! that *answers* but serves tampered bytes. SecFlow's position (PAPERS.md)
//! is that a workflow system must **react** to detected violations, not
//! merely flag them. This module is that reaction edge:
//!
//! * a [`Topology`] groups the deployment's portals into named clouds,
//!   each with its own document pool and write-ahead journal;
//! * every admission is journalled and committed on the active cloud,
//!   then **replicated** to every reachable peer cloud — virtual-time
//!   charged, journal-committed before ack, so PR 3's torn-admission
//!   recovery holds per replica;
//! * a [`FederationController`] consumes [`HealthMonitor`] alerts plus the
//!   federation's own integrity probe (a served document whose wire digest
//!   fails full verification raises [`AlertKind::PortalTampered`]) to
//!   **quarantine** portals, **fail over** admissions to a healthy cloud
//!   and re-route in-flight activations — without touching the
//!   deterministic activation-bus ordering, because re-routing only remaps
//!   *which portal index* executes an admission, never what is admitted.
//!
//! The safety contract is the one the `claim federation` sweep proves: a
//! bad cloud costs time (retries, failover confirmation, reroutes), never
//! safety — every instance completes and the surviving pool's document
//! rows are byte-identical to a healthy single-cloud run.
//!
//! Faults come from the deployment's one [`FaultPlan`], like every other
//! injected fault in this repo: a [`Trigger::From`] entry at
//! [`site::cloud`] makes a named cloud unreachable from a virtual instant
//! on, a [`Trigger::Visit`] entry at [`site::serve`] corrupts the nth serve
//! of a portal.
//!
//! [`Trigger::From`]: crate::faults::Trigger::From
//! [`Trigger::Visit`]: crate::faults::Trigger::Visit
//! [`HealthMonitor`]: crate::monitor::HealthMonitor
//! [`AlertKind::PortalTampered`]: crate::monitor::AlertKind::PortalTampered

use crate::faults::FaultPlan;
use crate::monitor::{Alert, AlertKind, HealthMonitor};
use crate::schema::{Cell, RowKey, XML};
use crate::store::{kept, version_in};
use dra4wfms_core::error::{WfError, WfResult};
use dra4wfms_core::faultpoint::site;
use dra_docpool::HTable;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

/// One named cloud in a federated deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloudSpec {
    /// Stable cloud name (used in alerts, metrics and [`site::cloud`]).
    pub name: String,
    /// How many portal servers front this cloud.
    pub portals: usize,
}

/// The shape of a federated deployment: an ordered list of named clouds.
/// Portal indices are global and contiguous — cloud 0 owns
/// `0..clouds[0].portals`, cloud 1 the next block, and so on — so the
/// deterministic `portal_for` hash spreads a fleet across every cloud.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Topology {
    /// The member clouds, in declaration order. Cloud 0 starts active.
    pub clouds: Vec<CloudSpec>,
}

impl Topology {
    /// An empty topology; add clouds with [`Topology::cloud`].
    #[must_use]
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Append a named cloud fronted by `portals` portal servers.
    #[must_use]
    pub fn cloud(mut self, name: &str, portals: usize) -> Topology {
        self.clouds.push(CloudSpec { name: name.to_string(), portals });
        self
    }

    /// Total portals across all clouds.
    #[must_use]
    pub fn total_portals(&self) -> usize {
        self.clouds.iter().map(|c| c.portals).sum()
    }

    /// Which cloud owns global portal index `portal`.
    #[must_use]
    pub fn cloud_of(&self, portal: usize) -> usize {
        let mut base = 0;
        for (i, c) in self.clouds.iter().enumerate() {
            if portal < base + c.portals {
                return i;
            }
            base += c.portals;
        }
        self.clouds.len().saturating_sub(1)
    }

    /// The global portal-index range of cloud `cloud`.
    #[must_use]
    pub fn portal_range(&self, cloud: usize) -> Range<usize> {
        let base: usize = self.clouds.iter().take(cloud).map(|c| c.portals).sum();
        base..base + self.clouds.get(cloud).map_or(0, |c| c.portals)
    }

    /// Reject empty federations, portal-less clouds and duplicate names.
    pub fn validate(&self) -> WfResult<()> {
        if self.clouds.is_empty() {
            return Err(WfError::Config("a federation needs at least one cloud".into()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.clouds {
            if c.portals == 0 {
                return Err(WfError::Config(format!("cloud '{}' has no portals", c.name)));
            }
            if !seen.insert(c.name.as_str()) {
                return Err(WfError::Config(format!("duplicate cloud name '{}'", c.name)));
            }
        }
        Ok(())
    }
}

/// How many unreachable touches confirm a cloud outage. Below the
/// threshold an admission into the dead cloud surfaces as a retriable
/// crash (the delivery layer and hop supervisor both absorb those); at the
/// threshold the cloud is marked down and admissions fail over.
pub const OUTAGE_CONFIRMATIONS: u64 = 2;

/// Quarantine a portal after this many `retry_storm` alerts name it — a
/// portal that keeps costing whole retry budgets is sick even when it never
/// serves a provably bad byte.
pub const STORM_QUARANTINE_ALERTS: u64 = 2;

/// Snapshot of the controller's counters (exported as `federation.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Admissions replicated and journal-committed on a peer cloud.
    pub replicas_acked: u64,
    /// Portals quarantined (tamper or retry-storm evidence).
    pub quarantines: u64,
    /// Times the active cloud moved to a healthy peer.
    pub failovers: u64,
    /// Clouds confirmed down.
    pub outages: u64,
    /// Admissions re-routed away from their hashed portal.
    pub reroutes: u64,
    /// Serves whose bytes the fault plan corrupted.
    pub tampered_serves: u64,
    /// The currently active cloud index.
    pub active_cloud: usize,
}

struct FedState {
    active_cloud: usize,
    down: Vec<bool>,
    quarantined: Vec<bool>,
    unreachable_touches: Vec<u64>,
    storm_alerts: BTreeMap<usize, u64>,
    alert_cursor: usize,
    admissions: Vec<u64>,
    admissions_at_quarantine: Vec<Option<u64>>,
    stats: FederationStats,
}

/// The federation's control plane: owns quarantine/failover state, consumes
/// the health monitor's alert stream, and resolves every admission and
/// serve to an eligible portal.
///
/// All decisions are pure functions of (virtual time, the deployment's
/// [`FaultPlan`], the deterministic alert stream), so a federated run is as
/// replayable as a single-cloud one.
pub struct FederationController {
    topology: Topology,
    monitor: Mutex<Option<Arc<HealthMonitor>>>,
    state: Mutex<FedState>,
}

impl FederationController {
    /// A controller for `topology`. Cloud 0 starts active; nothing is down
    /// or quarantined.
    pub fn new(topology: Topology) -> FederationController {
        let clouds = topology.clouds.len();
        let portals = topology.total_portals();
        FederationController {
            topology,
            monitor: Mutex::new(None),
            state: Mutex::new(FedState {
                active_cloud: 0,
                down: vec![false; clouds],
                quarantined: vec![false; portals],
                unreachable_touches: vec![0; clouds],
                storm_alerts: BTreeMap::new(),
                alert_cursor: 0,
                admissions: vec![0; portals],
                admissions_at_quarantine: vec![None; portals],
                stats: FederationStats::default(),
            }),
        }
    }

    /// The federation's shape.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Wire the health monitor whose alert stream drives quarantines. The
    /// scheduler does this automatically when a monitored run is admitted
    /// on a federated system.
    pub fn set_monitor(&self, monitor: &Arc<HealthMonitor>) {
        *self.monitor.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(monitor));
    }

    /// The cloud currently taking admissions and serving reads.
    #[must_use]
    pub fn active_cloud(&self) -> usize {
        self.lock().active_cloud
    }

    /// Is `cloud` confirmed down?
    #[must_use]
    pub fn cloud_down(&self, cloud: usize) -> bool {
        self.lock().down.get(cloud).copied().unwrap_or(false)
    }

    /// Is `portal` quarantined?
    #[must_use]
    pub fn is_quarantined(&self, portal: usize) -> bool {
        self.lock().quarantined.get(portal).copied().unwrap_or(false)
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FederationStats {
        let st = self.lock();
        FederationStats { active_cloud: st.active_cloud, ..st.stats }
    }

    /// True while every quarantined portal's admission count is frozen at
    /// its quarantine-time value — the "zero admissions after the tamper
    /// alert" acceptance criterion, checkable at any point of a run.
    #[must_use]
    pub fn zero_admissions_after_quarantine(&self) -> bool {
        let st = self.lock();
        st.admissions_at_quarantine
            .iter()
            .zip(&st.admissions)
            .all(|(frozen, now)| frozen.is_none_or(|at| at == *now))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drain fresh monitor alerts and act on them: `retry_storm` alerts
    /// naming `portal:N` accumulate per portal and quarantine it at
    /// [`STORM_QUARANTINE_ALERTS`]; `audit_divergence` alerts quarantine
    /// every portal of the named cloud at once — a stored-row forgery
    /// indicts the whole member, not one front door. Called by the
    /// scheduler between dispatches and by every admission resolution.
    pub fn pump(&self) {
        let monitor = self.monitor.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let Some(monitor) = monitor else { return };
        let mut st = self.lock();
        let (fresh, cursor) = monitor.alerts_since(st.alert_cursor);
        st.alert_cursor = cursor;
        for alert in fresh {
            match &alert.kind {
                AlertKind::RetryStorm { target, .. } => {
                    let Some(idx) = target.strip_prefix("portal:").and_then(|n| n.parse().ok())
                    else {
                        continue;
                    };
                    if idx >= st.quarantined.len() {
                        continue;
                    }
                    let hits = st.storm_alerts.entry(idx).or_insert(0);
                    *hits += 1;
                    if *hits >= STORM_QUARANTINE_ALERTS {
                        Self::quarantine_locked(&mut st, &self.topology, idx);
                    }
                }
                AlertKind::AuditDivergence { cloud, .. } => {
                    let cloud = *cloud as usize;
                    if cloud >= self.topology.clouds.len() {
                        continue;
                    }
                    for portal in self.topology.portal_range(cloud) {
                        Self::quarantine_locked(&mut st, &self.topology, portal);
                    }
                }
                _ => {}
            }
        }
    }

    /// Resolve an admission requested at portal `requested`: pump alerts,
    /// run the outage dance for the target cloud — whose reachability
    /// `faults` decides at [`site::cloud`] — then re-route past quarantined
    /// portals and down clouds. Returns the portal that will actually
    /// execute the admission.
    ///
    /// # Errors
    ///
    /// * [`WfError::Crash`] while a scripted outage is still unconfirmed —
    ///   retriable; the delivery layer and the hop supervisor both absorb
    ///   it, and the retry confirms the outage.
    /// * [`WfError::Policy`] when no eligible portal remains anywhere.
    pub fn resolve_admission(
        &self,
        requested: usize,
        now_us: u64,
        faults: &FaultPlan,
    ) -> WfResult<usize> {
        self.pump();
        let mut st = self.lock();
        let n = st.admissions.len();
        let requested = requested % n;
        let cloud = self.topology.cloud_of(requested);

        // Outage dance for every cloud this admission must reach
        // synchronously — the *active* cloud it primary-commits on and the
        // candidate portal's front cloud. Touches of a plan-dead,
        // not-yet-confirmed cloud surface as retriable crashes until the
        // confirmation threshold, where the cloud is marked down (and
        // failed over if active).
        let primary = st.active_cloud;
        let touched = if primary == cloud { vec![primary] } else { vec![primary, cloud] };
        for target in touched {
            if st.down[target] {
                continue;
            }
            let site = site::cloud(&self.topology.clouds[target].name);
            let Some(trigger) = faults.visit(&site, now_us) else { continue };
            st.unreachable_touches[target] += 1;
            if st.unreachable_touches[target] >= OUTAGE_CONFIRMATIONS {
                Self::mark_down_locked(&mut st, &self.topology, target);
            } else {
                return Err(WfError::Crash(format!("{site} unreachable ({trigger})")));
            }
        }

        let resolved = Self::next_eligible_locked(&st, &self.topology, requested)
            .ok_or_else(|| WfError::Policy("no eligible portal left in any cloud".into()))?;
        if resolved != requested {
            st.stats.reroutes += 1;
        }
        st.admissions[resolved] += 1;
        Ok(resolved)
    }

    /// Best-effort portal remap for the scheduler's dispatch path: skip
    /// quarantined portals and down clouds, no counters, no errors (the
    /// admission itself re-resolves authoritatively).
    #[must_use]
    pub fn route(&self, requested: usize) -> usize {
        let st = self.lock();
        let n = st.admissions.len();
        Self::next_eligible_locked(&st, &self.topology, requested % n).unwrap_or(requested % n)
    }

    /// Resolve a serve (document retrieval) requested at portal
    /// `requested`, skipping quarantined portals and down clouds. `None`
    /// when nothing eligible remains.
    #[must_use]
    pub fn resolve_serve(&self, requested: usize) -> Option<usize> {
        let st = self.lock();
        let n = st.quarantined.len();
        Self::next_eligible_locked(&st, &self.topology, requested % n)
    }

    /// React to a failed integrity probe: raise a typed
    /// [`AlertKind::PortalTampered`] through the monitor (when wired) and
    /// quarantine the serving portal, failing the active cloud over when
    /// none of its portals remain eligible.
    pub fn on_tamper(&self, portal: usize, process_id: &str, digest_hex: &str, now_us: u64) {
        let monitor = self.monitor.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(monitor) = monitor {
            monitor.raise(Alert {
                at_us: now_us,
                process_id: process_id.to_string(),
                kind: AlertKind::PortalTampered {
                    portal: portal as u64,
                    digest: digest_hex.to_string(),
                },
            });
        }
        let mut st = self.lock();
        Self::quarantine_locked(&mut st, &self.topology, portal);
    }

    /// Count one replicated-and-committed admission on a peer cloud.
    pub(crate) fn ack_replica(&self) {
        self.lock().stats.replicas_acked += 1;
    }

    /// Count one serve the fault plan corrupted.
    pub(crate) fn tampered_serve(&self) {
        self.lock().stats.tampered_serves += 1;
    }

    /// The peer clouds an admission must replicate to right now: every
    /// cloud except the active one that is not confirmed down. A peer
    /// `faults` makes unreachable but that is not yet confirmed down is
    /// *touched* (the failed replication attempt counts toward confirmation)
    /// but not returned — replication is ack-on-commit, so an unreachable
    /// replica is skipped, noted, and confirmed down once the touch threshold
    /// is reached.
    pub(crate) fn replica_targets(&self, now_us: u64, faults: &FaultPlan) -> Vec<usize> {
        let mut st = self.lock();
        let mut targets = Vec::new();
        for (cloud, spec) in self.topology.clouds.iter().enumerate() {
            if cloud == st.active_cloud || st.down[cloud] {
                continue;
            }
            if faults.visit(&site::cloud(&spec.name), now_us).is_some() {
                st.unreachable_touches[cloud] += 1;
                if st.unreachable_touches[cloud] >= OUTAGE_CONFIRMATIONS {
                    Self::mark_down_locked(&mut st, &self.topology, cloud);
                }
                continue;
            }
            targets.push(cloud);
        }
        targets
    }

    /// First eligible portal at or after `requested` (wrapping): its cloud
    /// is up and it is not quarantined.
    fn next_eligible_locked(st: &FedState, topo: &Topology, requested: usize) -> Option<usize> {
        let n = st.quarantined.len();
        (0..n)
            .map(|off| (requested + off) % n)
            .find(|&p| !st.quarantined[p] && !st.down[topo.cloud_of(p)])
    }

    fn quarantine_locked(st: &mut FedState, topo: &Topology, portal: usize) {
        if st.quarantined[portal] {
            return;
        }
        st.quarantined[portal] = true;
        st.admissions_at_quarantine[portal] = Some(st.admissions[portal]);
        st.stats.quarantines += 1;
        // a cloud whose every portal is quarantined cannot take admissions:
        // fail over if it was the active one
        let cloud = topo.cloud_of(portal);
        let all_gone = topo.portal_range(cloud).all(|p| st.quarantined[p]);
        if all_gone && st.active_cloud == cloud {
            Self::failover_locked(st, topo);
        }
    }

    fn mark_down_locked(st: &mut FedState, topo: &Topology, cloud: usize) {
        if st.down[cloud] {
            return;
        }
        st.down[cloud] = true;
        st.stats.outages += 1;
        if st.active_cloud == cloud {
            Self::failover_locked(st, topo);
        }
    }

    /// Move the active cloud to the next (wrapping) cloud that is up and
    /// has at least one unquarantined portal. Stays put when none exists —
    /// the deployment is then fully degraded and admissions error out.
    fn failover_locked(st: &mut FedState, topo: &Topology) {
        let clouds = topo.clouds.len();
        for off in 1..=clouds {
            let candidate = (st.active_cloud + off) % clouds;
            if st.down[candidate] {
                continue;
            }
            if topo.portal_range(candidate).any(|p| !st.quarantined[p]) {
                st.active_cloud = candidate;
                st.stats.failovers += 1;
                return;
            }
        }
    }
}

/// Deterministically corrupt one byte of `xml`: the first ASCII letter at
/// or after the midpoint has its case flipped, keeping the copy valid
/// UTF-8. One byte is the minimal tamper — if a check catches that, it
/// catches anything larger. The one forgery of this workspace: a tampered
/// serve flips the served copy with it, and the tests and claims that forge
/// a *stored* row flip its tail with it ([`flip_tail`]).
#[must_use]
pub(crate) fn tamper_bytes(xml: &str) -> String {
    let bytes = xml.as_bytes();
    let mid = bytes.len() / 2;
    let idx = (0..bytes.len())
        .map(|off| (mid + off) % bytes.len().max(1))
        .find(|&i| bytes[i].is_ascii_alphabetic());
    match idx {
        Some(i) => {
            // an ASCII letter is one whole character: the flip keeps UTF-8
            let flipped = char::from(bytes[i] ^ 0x20);
            format!("{}{flipped}{}", &xml[..i], &xml[i + 1..])
        }
        None => xml.to_string(),
    }
}

/// Test support: rewrite the stored row `key` of a member cloud's `pool` in
/// place, as a superuser of that cloud could — no journal record, no
/// `seen/` row, no replica. `forge` is given the version the row stores as
/// the bytes it keeps of the version below it and the tail that follows
/// them, and returns what the row is to hold instead: [`flip_tail`] flips a
/// byte the hop appended, `|_, _| (0, doc)` plants a whole document,
/// `|_, _| (below.len(), String::new())` rolls the row back to the version
/// below. The row is written as that `keep` and tail, in `schema`'s cell
/// format; the rows above it still copy from it.
///
/// # Panics
///
/// When `key` names no version that reads back.
#[allow(clippy::expect_used)] // test support: forging a row that is not there is a broken test
pub fn forge_stored_row(
    pool: &HTable,
    key: &str,
    forge: impl FnOnce(usize, &str) -> (usize, String),
) {
    let Some(row @ RowKey::Doc { pid, seq }) = RowKey::parse(key) else {
        panic!("{key} is no doc/ row key")
    };
    let version = version_in(pool, pid, seq).expect("the row holds a version");
    let below = seq.checked_sub(1).and_then(|below| version_in(pool, pid, below));
    let keep = below.map_or(0, |below| kept(&below, &version));
    let (keep, tail) = forge(keep, &version[keep..]);
    XML.write(pool, row, &Cell::write(keep, &[], &[&tail]));
}

/// The forgery tests and claims apply most, for [`forge_stored_row`]: one
/// byte of the tail flipped — the serve tamper's flip, the first ASCII letter
/// at or after the midpoint changing case — and `keep` as it was.
#[must_use]
pub fn flip_tail(keep: usize, tail: &str) -> (usize, String) {
    (keep, tamper_bytes(tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Trigger;

    fn two_clouds() -> Topology {
        Topology::new().cloud("east", 2).cloud("west", 2)
    }

    /// `cloud` unreachable from `from_us` on.
    fn outage(cloud: &str, from_us: u64) -> Arc<FaultPlan> {
        FaultPlan::of([(site::cloud(cloud), Trigger::From(from_us))])
    }

    fn storm(at_us: u64, portal: &str) -> Alert {
        Alert {
            at_us,
            process_id: "p".into(),
            kind: AlertKind::RetryStorm { target: portal.into(), attempts: 8, threshold: 4 },
        }
    }

    #[test]
    fn topology_maps_portals_to_clouds() {
        let t = Topology::new().cloud("a", 2).cloud("b", 3).cloud("c", 1);
        assert_eq!(t.total_portals(), 6);
        assert_eq!(t.cloud_of(0), 0);
        assert_eq!(t.cloud_of(1), 0);
        assert_eq!(t.cloud_of(2), 1);
        assert_eq!(t.cloud_of(4), 1);
        assert_eq!(t.cloud_of(5), 2);
        assert_eq!(t.portal_range(1), 2..5);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn topology_rejects_degenerate_shapes() {
        assert!(Topology::new().validate().is_err());
        assert!(Topology::new().cloud("a", 0).validate().is_err());
        assert!(Topology::new().cloud("a", 1).cloud("a", 1).validate().is_err());
    }

    #[test]
    fn outage_confirms_after_threshold_and_fails_over() {
        let c = FederationController::new(two_clouds());
        let plan = outage("east", 1_000);
        // before the outage instant: portal 0 resolves to itself
        assert_eq!(c.resolve_admission(0, 500, &plan).unwrap(), 0);
        // first touch after the instant: retriable crash, not yet confirmed
        let err = c.resolve_admission(0, 2_000, &plan).unwrap_err();
        let text = "cloud:east unreachable (outage since 1000us)";
        assert!(matches!(&err, WfError::Crash(m) if m == text), "{err}");
        assert!(!c.cloud_down(0));
        // second touch: confirmed, failed over, rerouted to cloud 1
        let resolved = c.resolve_admission(0, 2_100, &plan).unwrap();
        assert_eq!(c.topology().cloud_of(resolved), 1);
        assert!(c.cloud_down(0));
        assert_eq!(c.active_cloud(), 1);
        let stats = c.stats();
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.reroutes, 1);
        // replication never targets a down cloud
        assert!(c.replica_targets(3_000, &plan).is_empty());
    }

    #[test]
    fn dead_active_cloud_blocks_admissions_through_healthy_front_portals() {
        // the front portal lives in cloud 1, but the *primary commit* goes
        // to the active cloud 0 — a dead primary must run the same dance
        let c = FederationController::new(two_clouds());
        let plan = outage("east", 1_000);
        assert_eq!(c.resolve_admission(2, 500, &plan).unwrap(), 2, "healthy before the instant");
        assert!(matches!(c.resolve_admission(2, 2_000, &plan), Err(WfError::Crash(_))));
        let resolved = c.resolve_admission(2, 2_100, &plan).unwrap();
        assert_eq!(resolved, 2, "the front portal itself was always eligible");
        assert!(c.cloud_down(0));
        assert_eq!(c.active_cloud(), 1, "primary moved to the front's cloud");
    }

    #[test]
    fn replication_touches_confirm_a_peer_outage_without_erroring() {
        let c = FederationController::new(two_clouds());
        let plan = outage("west", 1_000);
        assert_eq!(c.replica_targets(500, &plan), vec![1], "reachable before the instant");
        assert!(c.replica_targets(1_500, &plan).is_empty(), "first touch: skipped, noted");
        assert!(!c.cloud_down(1));
        assert!(c.replica_targets(1_600, &plan).is_empty(), "second touch: confirmed");
        assert!(c.cloud_down(1));
        let stats = c.stats();
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.failovers, 0, "the dead cloud was not active");
        assert_eq!(c.active_cloud(), 0);
    }

    #[test]
    fn tamper_quarantines_and_freezes_admissions() {
        let c = FederationController::new(two_clouds());
        let none = FaultPlan::none();
        c.resolve_admission(1, 0, &none).unwrap();
        c.on_tamper(1, "p", "abcd", 10);
        assert!(c.is_quarantined(1));
        assert!(c.zero_admissions_after_quarantine());
        // admissions hashed to the quarantined portal re-route
        let resolved = c.resolve_admission(1, 20, &none).unwrap();
        assert_ne!(resolved, 1);
        assert!(c.zero_admissions_after_quarantine());
        assert_eq!(c.stats().quarantines, 1);
        // serving re-routes too
        assert_ne!(c.resolve_serve(1), Some(1));
    }

    #[test]
    fn quarantining_every_active_portal_fails_over() {
        let c = FederationController::new(two_clouds());
        c.on_tamper(0, "p", "d0", 1);
        assert_eq!(c.active_cloud(), 0, "one healthy portal left in cloud 0");
        c.on_tamper(1, "p", "d1", 2);
        assert_eq!(c.active_cloud(), 1, "cloud 0 fully quarantined: failover");
        assert_eq!(c.stats().failovers, 1);
        // total degradation: every portal gone
        c.on_tamper(2, "p", "d2", 3);
        c.on_tamper(3, "p", "d3", 4);
        assert!(matches!(c.resolve_admission(0, 5, &FaultPlan::none()), Err(WfError::Policy(_))));
        assert_eq!(c.resolve_serve(0), None);
    }

    #[test]
    fn storm_alerts_quarantine_through_the_pump() {
        let c = FederationController::new(two_clouds());
        let monitor = HealthMonitor::new();
        c.set_monitor(&monitor);
        monitor.raise(storm(1, "portal:3"));
        c.pump();
        assert!(!c.is_quarantined(3), "one storm is not a pattern");
        monitor.raise(storm(2, "portal:3"));
        c.pump();
        assert!(c.is_quarantined(3), "two storms are");
        assert_eq!(c.stats().quarantines, 1);
        // non-portal targets and junk are ignored
        monitor.raise(storm(3, "transfer"));
        c.pump();
        assert_eq!(c.stats().quarantines, 1);
    }

    #[test]
    fn a_tamper_alert_leaves_the_unread_storm_before_it_to_the_pump() {
        let c = FederationController::new(two_clouds());
        let monitor = HealthMonitor::new();
        c.set_monitor(&monitor);
        monitor.raise(storm(1, "portal:3"));
        c.pump();
        // the second storm is still unread when portal 0's tamper alert
        // lands behind it
        monitor.raise(storm(2, "portal:3"));
        c.on_tamper(0, "p", "abcd", 3);
        c.pump();
        assert!(c.is_quarantined(3), "the second storm was read, not skipped");
        assert_eq!(c.stats().quarantines, 2);
    }

    #[test]
    fn audit_divergence_quarantines_the_whole_cloud_through_the_pump() {
        let c = FederationController::new(two_clouds());
        let monitor = HealthMonitor::new();
        c.set_monitor(&monitor);
        monitor.raise(Alert {
            at_us: 9,
            process_id: "p-aud".into(),
            kind: AlertKind::AuditDivergence { cloud: 0, key: "doc/p-aud/000001".into() },
        });
        c.pump();
        // the whole east cloud is gone in one pump, and the active cloud
        // failed over to west
        assert!(c.is_quarantined(0) && c.is_quarantined(1));
        assert!(!c.is_quarantined(2) && !c.is_quarantined(3));
        assert_eq!(c.stats().quarantines, 2);
        assert_eq!(c.stats().failovers, 1);
        assert_eq!(c.active_cloud(), 1);
        // out-of-range cloud indices are ignored, and the pump is
        // exactly-once: re-pumping changes nothing
        monitor.raise(Alert {
            at_us: 10,
            process_id: "p-aud".into(),
            kind: AlertKind::AuditDivergence { cloud: 9, key: "doc/p-aud/000001".into() },
        });
        c.pump();
        c.pump();
        assert_eq!(c.stats().quarantines, 2);
    }

    #[test]
    fn tamper_bytes_flips_exactly_one_byte_case() {
        let wire = "<Doc a=\"1\"><Field>value</Field></Doc>";
        let tampered = tamper_bytes(wire);
        assert_ne!(tampered, wire);
        assert_eq!(tampered.len(), wire.len());
        let diffs: Vec<(u8, u8)> =
            tampered.bytes().zip(wire.bytes()).filter(|(a, b)| a != b).collect();
        assert_eq!(diffs.len(), 1);
        let (a, b) = diffs[0];
        assert_eq!(a ^ b, 0x20, "case flip only");
        assert_eq!(tamper_bytes(wire), tampered, "deterministic");
    }
}
