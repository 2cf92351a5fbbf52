//! Continuous nonrepudiation auditor over the pool of stored documents.
//!
//! The serve-side integrity probe only inspects documents a user actually
//! asks for — a forged row that is *never served* sits in the pool
//! unchallenged. This module closes that gap: a [`PoolAuditor`] runs a
//! background pass in virtual time that samples stored `doc/` rows through
//! the typed scan API (bounded batches, shared rows — never a full table
//! read), holds every sampled version to the store's verdict
//! (`store::CloudStore::honest`, the one the serve probe uses) and
//! spot-checks the survivors with the [`Verifier`].
//!
//! A stored version copies bytes from the versions below it and from its
//! definition's `def/` row (`store`), so one forged row fails every later
//! row of its process that copies the forged bytes, and one forged `def/`
//! row fails the initial document of every instance of that definition. The
//! auditor attributes: a failing row whose sources are sound — or that has
//! none — is **indicted**, it is where the chain breaks; a `def/` row whose
//! bytes do not hash to its name is indicted once, however many rows name
//! it; a failing row that copies from a failing one is **tainted**, it
//! inherits the break — unless the bytes of its own hop diverge as well: its
//! newest CER fails the verifier's rule over bytes that no indicted row
//! holds, nor a tainted one whose own CER fails over such bytes too (its
//! own bytes are in doubt). So a forged row above another forged one is
//! indicted on its own where the rows between verify; where they do not,
//! signatures cannot tell which of the two was forged, and no honest row is
//! indicted for it. Nothing stored serves this: the sources are judged
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
use crate::schema::{Name, RowKey};
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
    /// The tainted rows whose own hop's CER fails too, over bytes an
    /// indicted or such a row holds: not told apart from their sources,
    /// their own bytes are held in doubt, like an indicted row's.
    doubtful: BTreeSet<(String, String)>,
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
    /// cursor (a bounded scan, never a full table read), judge every
    /// sampled version and verify the honest ones with the [`Verifier`],
    /// and raise a typed [`AlertKind::AuditDivergence`] into `monitor` for
    /// each newly indicted row. A cloud whose cursor runs off the end of its `doc/` range
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

            // Spot-check of each survivor, in key order.
            let verifier = Verifier::new(&sys.directory);
            for (key, doc) in survivors {
                match verifier.run(&doc) {
                    Ok(_) => st.verified += 1,
                    Err(_) => divergent.push(key),
                }
            }
            for key in divergent {
                caught += Self::flag(&mut st, monitor, now_us, sys, cloud_idx, key);
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

    /// The row `key` of `cloud` as a sample reads it, if the cloud holds it.
    fn read(cloud: &CloudStore, key: &str) -> Option<Stored> {
        cloud.sample(Some(key), 1).into_iter().next().filter(|stored| stored.key == key)
    }

    /// Charge a failing row, once per `(cloud, key)`: indicted — with the
    /// typed alert — when no row it copies from fails, or when its own hop's
    /// bytes diverge besides ([`PoolAuditor::own_divergence`]); else tainted.
    /// A failing source is charged first; a `def/` row whose bytes do not
    /// hash to its name is indicted once. How many rows were newly indicted.
    fn flag(
        st: &mut AuditState,
        monitor: Option<&HealthMonitor>,
        now_us: u64,
        sys: &CloudSystem,
        cloud_idx: usize,
        key: &str,
    ) -> usize {
        let cloud = &sys.clouds[cloud_idx];
        let row = (cloud.name.clone(), key.to_string());
        if st.divergent.contains(&row) || st.tainted.contains(&row) {
            return 0;
        }
        let pid = match RowKey::parse(key) {
            Some(RowKey::Doc { pid, .. }) => Some(pid),
            _ => None,
        };
        let alert = |indicted: &str| {
            if let Some(monitor) = monitor {
                monitor.raise(Alert {
                    at_us: now_us,
                    process_id: pid.map_or(key, |pid| pid.as_str()).to_string(),
                    kind: AlertKind::AuditDivergence {
                        cloud: cloud_idx as u64,
                        key: indicted.to_string(),
                    },
                });
            }
        };
        // whether each failing source parses
        let (mut failing, mut indicted) = (Vec::new(), 0);
        for source in cloud.sources(key) {
            if matches!(RowKey::parse(&source), Some(RowKey::Def(_))) {
                if !cloud.def_sound(&source) {
                    if st.divergent.insert((cloud.name.clone(), source.clone())) {
                        alert(&source);
                        indicted += 1;
                    }
                    failing.push(true);
                }
                continue;
            }
            // an absent version does not fail: the row naming it breaks
            let Some(stored) = Self::read(cloud, &source) else { continue };
            if Self::sound(cloud, &stored, &sys.directory) {
                continue;
            }
            indicted += Self::flag(st, monitor, now_us, sys, cloud_idx, &source);
            failing.push(parsed(&stored).is_some());
        }
        let own = match pid {
            Some(pid) if !failing.is_empty() => {
                Self::own_divergence(st, cloud, (pid, key), &failing, &sys.directory)
            }
            _ => Some(true),
        };
        if own != Some(true) {
            if own.is_none() {
                st.doubtful.insert(row.clone());
            }
            st.tainted.insert(row);
            return indicted;
        }
        st.divergent.insert(row);
        alert(key);
        indicted + 1
    }

    /// Does the failing row `key` of process `pid` diverge in bytes of its
    /// own hop, besides those it copies from its failing sources (`failing`:
    /// whether each parses)? It does when its bytes do not parse while they
    /// all do, or when the signatures of its newest CER — the hop's — fail
    /// the verifier's rule ([`Verifier::check_cer`]: expected signer,
    /// pinned `covers` label, the bytes they cover) and no row that holds
    /// some of those is indicted or doubtful: the initial document, which
    /// holds the header, or the row that appended a CER it follows. `None`
    /// when such a row is, or when the row is an initial document over a
    /// failing definition: its own bytes cannot be told apart from those.
    fn own_divergence(
        st: &AuditState,
        cloud: &CloudStore,
        (pid, key): (Name<'_>, &str),
        failing: &[bool],
        directory: &Directory,
    ) -> Option<bool> {
        // a cell that does not apply over a failing source is that source's
        let Some(Ok(xml)) = Self::read(cloud, key).map(|stored| stored.xml) else {
            return Some(false);
        };
        let parse = DraDocument::parse(&xml);
        let cers = parse.as_ref().map_err(drop).and_then(|doc| doc.cers().map_err(drop));
        let (doc, cers) = match (&parse, cers) {
            (Ok(doc), Ok(cers)) => (doc, cers),
            _ => return failing.iter().all(|&parses| parses).then_some(true),
        };
        let cer = cers.last()?;
        if Verifier::new(directory).check_cer(doc, cer).is_ok() {
            return Some(false);
        }
        let initial = RowKey::Doc { pid, seq: 0 }.to_string();
        let process = &initial[..initial.len() - "000000".len()];
        let holds_covered = |row: &str| {
            let newest = Self::read(cloud, row).as_ref().and_then(parsed).and_then(|doc| {
                let cers = doc.cers().ok()?;
                Some(cers.last().map_or(PredRef::Def, |cer| PredRef::Cer(cer.key.clone())))
            });
            row == initial || newest.is_some_and(|newest| cer.preds.contains(&newest))
        };
        let in_doubt = st.divergent.iter().chain(&st.doubtful);
        let mut in_doubt =
            in_doubt.filter(|(name, row)| *name == cloud.name && row.starts_with(process));
        (!in_doubt.any(|(_, row)| holds_covered(row))).then_some(true)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AuditState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The document `stored` reads as, if it parses.
fn parsed(stored: &Stored) -> Option<DraDocument> {
    DraDocument::parse(stored.xml.as_deref().ok()?).ok()
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
    fn a_rewritten_def_row_is_indicted_once_and_its_instances_tainted() {
        let sys = setup(4);
        let monitor = HealthMonitor::new();
        let pool = sys.active_pool();
        let defs = pool.query(&dra_docpool::Scan::prefix("def/")).rows;
        let [(key, _)] = &defs[..] else { panic!("one definition, one def/ row: {defs:?}") };
        let def = pool.get_str(key, "doc", "xml").unwrap();
        pool.put(key, "doc", "xml", crate::federation::tamper_bytes(&def));

        let auditor =
            PoolAuditor::new(AuditConfig { batch: 3, period_us: 100, ..AuditConfig::default() });
        let caught: usize =
            (0..4).map(|pass| auditor.run_pass(&sys, Some(&monitor), pass * 100)).sum();
        assert_eq!(caught, 1);
        assert_eq!(auditor.divergent_rows(), vec![("cloud0".into(), key.to_string())]);
        let instances = (0..4).map(|i| ("cloud0".to_string(), format!("doc/a-{i:02}/000000")));
        assert_eq!(auditor.tainted_rows(), instances.collect::<Vec<_>>());
        let (alerts, _) = monitor.alerts_since(0);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(
            matches!(&alerts[0].kind, AlertKind::AuditDivergence { cloud: 0, key: k } if **k == **key)
        );
    }

    /// Row 1 copies from row 2 and row 2 keeps row 1: a range naming no
    /// lower version names no source, so the chain of charges ends there.
    #[test]
    fn rows_that_copy_from_each_other_are_charged_once_each() {
        let sys = setup(1);
        let pool = sys.active_pool();
        pool.put("doc/a-00/000001", "doc", "xml", "0 2:0+1\nx");
        pool.put("doc/a-00/000002", "doc", "xml", "1\ny");
        let auditor = PoolAuditor::new(AuditConfig::default());
        assert_eq!(auditor.run_pass(&sys, None, 0), 1);
        assert_eq!(auditor.divergent_rows(), vec![("cloud0".into(), "doc/a-00/000001".into())]);
        assert_eq!(auditor.tainted_rows(), vec![("cloud0".into(), "doc/a-00/000002".into())]);
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
