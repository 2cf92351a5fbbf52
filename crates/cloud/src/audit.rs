//! Continuous nonrepudiation auditor over the pool of stored documents.
//!
//! The serve-side integrity probe only inspects documents a user actually
//! asks for — a forged row that is *never served* sits in the pool
//! unchallenged. This module closes that gap: a [`PoolAuditor`] runs a
//! background pass in virtual time that samples stored `doc/` rows through
//! the typed scan API (bounded batches, family projection — never a full
//! table read), holds every sampled version to the store's verdict
//! (`store::CloudStore::honest`, the one the serve probe uses) and
//! spot-checks the survivors with the batched [`Verifier`].
//!
//! A stored version is the version below it plus what its hop appended
//! (`store`), so one forged row fails every later row of its process that
//! keeps the forged bytes. The auditor attributes: a failing row whose row
//! below is sound — or that has none — is **indicted**, it is where the
//! chain breaks; a failing row above a failing row is **tainted**, it
//! inherits the break. Nothing stored serves this: the row below is judged
//! again when a row fails.
//!
//! An indicted row raises a typed [`AlertKind::AuditDivergence`] into the
//! [`HealthMonitor`]; on federated deployments the
//! [`FederationController`] pump consumes the alert and quarantines every
//! portal of the indicted cloud. Rows are charged once per `(cloud, key)`,
//! so repeated sweeps over the same forged row raise exactly one alert —
//! `audit.divergences` counts *broken links*, `audit.tainted` the rows that
//! fail because of them, neither counts passes.
//!
//! Everything is deterministic: cursors advance in key order, sampling is
//! a bounded prefix scan, and the virtual clock decides when a pass is
//! due, so a double run of the same schedule audits the same rows in the
//! same order.
//!
//! [`FederationController`]: crate::federation::FederationController

use crate::monitor::{Alert, AlertKind, HealthMonitor};
use crate::portal::CloudSystem;
use crate::schema::RowKey;
use crate::store::{Clause, CloudStore, Stored};
use dra4wfms_core::prelude::*;
use dra_obs::MetricsRegistry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

/// Tuning knobs for the continuous auditor.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Rows sampled per member cloud per pass.
    pub batch: usize,
    /// Virtual-time interval between passes ([`PoolAuditor::due`]).
    pub period_us: u64,
    /// Ignored (the auditor verifies its sample in order, on the calling
    /// thread); `crates/e2e` still sets it, and ROADMAP item 1 removes it.
    pub threads: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig { batch: 16, period_us: 250_000, threads: 1 }
    }
}

#[derive(Default)]
struct AuditState {
    /// Per-cloud resume cursor: the next `doc/` key to sample from.
    cursors: BTreeMap<String, String>,
    /// Distinct `(cloud, key)` pairs ever sampled — `audit.sampled` counts
    /// rows, not visits, so it stays ≤ the pool's row count across sweeps.
    sampled: BTreeSet<(String, String)>,
    /// Distinct `(cloud, key)` pairs indicted — alert once each.
    divergent: BTreeSet<(String, String)>,
    /// Distinct `(cloud, key)` pairs that fail above a failing row.
    tainted: BTreeSet<(String, String)>,
    passes: u64,
    sweeps: u64,
    verified: u64,
    seen_misses: u64,
    next_due_us: u64,
}

/// The continuous audit sampler. One instance per deployment; drive it from
/// the scheduler loop (or any monitoring path) with
/// [`run_pass`](PoolAuditor::run_pass) whenever [`due`](PoolAuditor::due)
/// says the virtual period elapsed.
pub struct PoolAuditor {
    config: AuditConfig,
    state: Mutex<AuditState>,
}

impl PoolAuditor {
    /// An auditor with the given knobs; no pass has run yet, so the first
    /// [`due`](PoolAuditor::due) fires immediately.
    #[must_use]
    pub fn new(config: AuditConfig) -> PoolAuditor {
        PoolAuditor { config, state: Mutex::new(AuditState::default()) }
    }

    /// The knobs this auditor runs with.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Has the virtual-time period elapsed since the last pass?
    #[must_use]
    pub fn due(&self, now_us: u64) -> bool {
        now_us >= self.lock().next_due_us
    }

    /// Run one audit pass at virtual instant `now_us`: per member cloud,
    /// sample the next [`AuditConfig::batch`] `doc/` rows after the cloud's
    /// cursor (projection-scanned, never a full table read), judge every
    /// sampled version and verify the honest ones with the batched
    /// [`Verifier`], and raise a typed
    /// [`AlertKind::AuditDivergence`] into `monitor` for each newly indicted
    /// row. A cloud whose cursor runs off the end of its `doc/` range
    /// completes a sweep and wraps. Returns the number of rows this pass
    /// newly indicted.
    pub fn run_pass(
        &self,
        sys: &CloudSystem,
        monitor: Option<&HealthMonitor>,
        now_us: u64,
    ) -> usize {
        let mut st = self.lock();
        st.passes += 1;
        st.next_due_us = now_us + self.config.period_us;
        let mut caught = 0usize;

        for (cloud_idx, cloud) in sys.clouds.iter().enumerate() {
            let cursor = st.cursors.get(&cloud.name).map(String::as_str);
            let sample = cloud.sample(cursor, self.config.batch);
            let Some(last) = sample.last() else {
                // the cursor ran off the end of the doc/ range: sweep done
                if st.cursors.remove(&cloud.name).is_some() {
                    st.sweeps += 1;
                }
                continue;
            };
            // resume strictly after the last sampled key next pass
            st.cursors.insert(cloud.name.clone(), format!("{}\u{0}", last.key));

            // The store's verdict binds each row to its admission and its
            // process; the signature pass below stays the authority on the
            // content, so a forged `seen/` row vouches for nothing.
            let mut survivors: Vec<(&String, DraDocument)> = Vec::new();
            let mut divergent: Vec<&String> = Vec::new();
            for stored in &sample {
                st.sampled.insert((cloud.name.clone(), stored.key.clone()));
                match cloud.honest(stored, &sys.directory) {
                    Ok(doc) => survivors.push((&stored.key, doc)),
                    Err(divergence) => {
                        if matches!(divergence.clause, Clause::Rejected(_)) {
                            st.seen_misses += 1;
                        }
                        divergent.push(&stored.key);
                    }
                }
            }

            // Batched spot-check of each survivor, in key order.
            let verifier = Verifier::new(&sys.directory).batched(true);
            for (key, doc) in survivors {
                match verifier.run(&doc) {
                    Ok(_) => st.verified += 1,
                    Err(_) => divergent.push(key),
                }
            }
            for key in divergent {
                caught += usize::from(Self::flag(&mut st, monitor, now_us, sys, cloud_idx, key));
            }
        }
        caught
    }

    /// Export `audit.*` counters: passes, completed sweeps, distinct rows
    /// sampled, versions verified, `seen/`-probe misses, distinct rows
    /// indicted and distinct rows tainted.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let st = self.lock();
        metrics.set_counter("audit.passes", st.passes);
        metrics.set_counter("audit.sweeps", st.sweeps);
        metrics.set_counter("audit.sampled", st.sampled.len() as u64);
        metrics.set_counter("audit.verified", st.verified);
        metrics.set_counter("audit.seen_misses", st.seen_misses);
        metrics.set_counter("audit.divergences", st.divergent.len() as u64);
        metrics.set_counter("audit.tainted", st.tainted.len() as u64);
    }

    /// The distinct rows indicted so far, as `(cloud, key)` pairs.
    #[must_use]
    pub fn divergent_rows(&self) -> Vec<(String, String)> {
        self.lock().divergent.iter().cloned().collect()
    }

    /// The distinct rows found failing above a failing row so far, as
    /// `(cloud, key)` pairs.
    #[must_use]
    pub fn tainted_rows(&self) -> Vec<(String, String)> {
        self.lock().tainted.iter().cloned().collect()
    }

    /// Does `stored` pass what a sweep holds a row to — the store's verdict
    /// and the signature pass?
    fn sound(cloud: &CloudStore, stored: &Stored, directory: &Directory) -> bool {
        let honest = cloud.honest(stored, directory);
        honest.is_ok_and(|doc| Verifier::new(directory).run(&doc).is_ok())
    }

    /// Does the row directly below `key` fail? An absent one does not: the
    /// row above it is then where the chain breaks.
    fn below_fails(cloud: &CloudStore, key: &str, directory: &Directory) -> bool {
        let below = match RowKey::parse(key) {
            Some(RowKey::Doc { pid, seq }) if seq > 0 => RowKey::Doc { pid, seq: seq - 1 },
            _ => return false,
        };
        let below = below.to_string();
        let found = cloud.sample(Some(&below), 1);
        found.first().is_some_and(|row| row.key == below && !Self::sound(cloud, row, directory))
    }

    /// Charge a failing row, once per `(cloud, key)`: tainted when the row
    /// below it fails too, else indicted — with the typed alert. Whether it
    /// was newly indicted.
    fn flag(
        st: &mut AuditState,
        monitor: Option<&HealthMonitor>,
        now_us: u64,
        sys: &CloudSystem,
        cloud_idx: usize,
        key: &str,
    ) -> bool {
        let cloud = &sys.clouds[cloud_idx];
        let row = (cloud.name.clone(), key.to_string());
        if st.divergent.contains(&row) || st.tainted.contains(&row) {
            return false;
        }
        if Self::below_fails(cloud, key, &sys.directory) {
            st.tainted.insert(row);
            return false;
        }
        st.divergent.insert(row);
        if let Some(monitor) = monitor {
            let pid = match RowKey::parse(key) {
                Some(RowKey::Doc { pid, .. }) => pid.as_str(),
                _ => key,
            };
            monitor.raise(Alert {
                at_us: now_us,
                process_id: pid.to_string(),
                kind: AlertKind::AuditDivergence { cloud: cloud_idx as u64, key: key.to_string() },
            });
        }
        true
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AuditState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NetworkSim;
    use std::sync::Arc;

    fn setup(instances: usize) -> CloudSystem {
        let designer = Credentials::from_seed("designer", "d");
        let alice = Credentials::from_seed("alice", "a");
        let bob = Credentials::from_seed("bob", "b");
        let def = WorkflowDefinition::builder("po", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .simple_activity("approve", "bob", &["decision"])
            .flow("submit", "approve")
            .flow_end("approve")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer, &alice, &bob]);
        let sys = CloudSystem::new(dir, 2, Arc::new(NetworkSim::lan()));
        let pol = SecurityPolicy::public();
        for i in 0..instances {
            let doc =
                DraDocument::new_initial_with_pid(&def, &pol, &designer, &format!("a-{i:02}"))
                    .unwrap();
            let route = Route { targets: vec!["submit".into()], ends: false };
            sys.ingest_wire(i % 2, &doc.to_xml_string(), &route).unwrap();
        }
        sys
    }

    #[test]
    fn honest_pool_audits_clean_across_full_sweep() {
        let sys = setup(5);
        let auditor =
            PoolAuditor::new(AuditConfig { batch: 2, period_us: 100, ..AuditConfig::default() });
        assert!(auditor.due(0));
        let mut clock = 0;
        // batch 2 over 5 rows: 3 passes drain, a 4th wraps the sweep
        for _ in 0..4 {
            assert_eq!(auditor.run_pass(&sys, None, clock), 0);
            clock += 100;
        }
        let metrics = MetricsRegistry::new();
        auditor.export_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("audit.divergences"), 0);
        assert_eq!(snap.counter("audit.sampled"), 5);
        assert_eq!(snap.counter("audit.verified"), 5);
        assert_eq!(snap.counter("audit.sweeps"), 1);
        assert_eq!(snap.counter("audit.seen_misses"), 0);
        assert_eq!(snap.counter("audit.passes"), 4);
        // periodicity: not due right after a pass, due after the period
        assert!(!auditor.due(clock - 50));
        assert!(auditor.due(clock + 100));
    }

    #[test]
    fn tampered_stored_row_is_caught_and_alerted_exactly_once() {
        let sys = setup(4);
        let monitor = HealthMonitor::new();
        // forge one stored row in place: case-flip a byte of a-01's version 0
        let key = "doc/a-01/000000";
        crate::federation::forge_stored_row(sys.active_pool(), key, crate::federation::flip_tail);

        let auditor =
            PoolAuditor::new(AuditConfig { batch: 16, period_us: 100, ..AuditConfig::default() });
        let caught = auditor.run_pass(&sys, Some(&monitor), 7);
        assert_eq!(caught, 1);
        assert_eq!(auditor.divergent_rows(), vec![("cloud0".into(), key.to_string())]);
        let (alerts, _) = monitor.alerts_since(0);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0].kind,
            AlertKind::AuditDivergence { cloud: 0, key: k } if k == key
        ));
        assert_eq!(alerts[0].process_id, "a-01");

        // a second sweep re-samples the same forged row but raises nothing new
        assert_eq!(auditor.run_pass(&sys, Some(&monitor), 207), 0);
        assert_eq!(auditor.run_pass(&sys, Some(&monitor), 307), 0);
        let (alerts, _) = monitor.alerts_since(0);
        assert_eq!(alerts.len(), 1, "alert per divergent row, not per pass");

        let metrics = MetricsRegistry::new();
        auditor.export_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("audit.divergences"), 1);
        assert!(snap.counter("audit.seen_misses") >= 1, "forged digest has no seen/ row");
        assert_eq!(snap.counter("audit.sampled"), 4);
    }
}
