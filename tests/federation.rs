//! Multi-cloud federation: graceful degradation proofs.
//!
//! The claims under test, end to end over real Fig. 9A instances:
//!
//! * a **healthy** federated deployment replicates every admission to
//!   every peer cloud and holds exactly the document rows a single-cloud
//!   run holds (byte-identical pool digest);
//! * a federated **topology of one** cloud is indistinguishable from the
//!   single-cloud deployment — pool, journals and counters alike;
//! * a **cloud outage** is confirmed after the controller's touch count,
//!   admissions fail over to the surviving cloud, every instance still
//!   completes, and the surviving pool digest equals the healthy baseline;
//! * a **tampered portal** is caught by the serve-side integrity probe,
//!   raises the typed `portal_tampered` alert, is quarantined with zero
//!   admissions afterwards, and the honest bytes are re-served from the
//!   next eligible portal;
//! * a **rollback** or a **cross-process substitution** — a cloud's
//!   superuser overwriting the latest row with another validly signed
//!   document — is caught by the same probe with the same reaction, and
//!   monitoring errors instead of reporting the substituted process;
//! * a **torn replication** (replica dies between journal append and
//!   commit) is repaired by the replica's own journal replay, and the
//!   journal's torn-tail import machinery applies per cloud;
//! * a proptest: random outage/tamper schedules under a hostile
//!   `FaultProfile` never change the final pool sha256 versus the healthy
//!   single-cloud baseline — degradation costs time, never safety.

use dra4wfms::cloud::federation::forge_stored_row;
use dra4wfms::cloud::{
    alerts_to_jsonl, check_metric_invariants, AuditConfig, CloudSystem, CrashPlan, CrashPoint,
    Delivery, DeliveryPolicy, FaultProfile, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim,
    OutagePlan, PoolAuditor, Scheduler, TamperPlan, Topology,
};
use dra4wfms::obs::MetricsRegistry;
use dra4wfms::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn fig9_def() -> WorkflowDefinition {
    WorkflowDefinition::builder("fig9", "designer")
        .simple_activity("A", "p_a", &["attachment"])
        .simple_activity("B1", "p_b1", &["review1"])
        .simple_activity("B2", "p_b2", &["review2"])
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![FieldRef::new("B1", "review1"), FieldRef::new("B2", "review2")],
            responses: vec!["decision".into()],
        })
        .simple_activity("D", "p_d", &["ack"])
        .flow("A", "B1")
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
        .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
        .flow_end("D")
        .build()
        .unwrap()
}

fn cast() -> (Vec<Credentials>, Directory) {
    let creds: Vec<Credentials> = ["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("fed-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    (creds, dir)
}

fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "A" => vec![("attachment".into(), "contract.pdf".into())],
        "B1" => vec![("review1".into(), "ok".into())],
        "B2" => vec![("review2".into(), "ok".into())],
        "C" => vec![(
            "decision".into(),
            if received.iter == 0 { "insufficient" } else { "accept" }.into(),
        )],
        "D" => vec![("ack".into(), "done".into())],
        other => panic!("unexpected {other}"),
    }
}

fn initials(creds: &[Credentials], ids: std::ops::Range<usize>) -> Vec<DraDocument> {
    let def = fig9_def();
    let pol = SecurityPolicy::public();
    ids.map(|i| {
        DraDocument::new_initial_with_pid(&def, &pol, &creds[0], &format!("fed-{i}")).unwrap()
    })
    .collect()
}

/// Drive the given instances through the event-driven scheduler, asserting
/// every one completes in exactly 9 steps (Fig. 9A takes its loop once).
fn drive(
    sys: &CloudSystem,
    creds: &[Credentials],
    dir: &Directory,
    docs: &[DraDocument],
    delivery: Option<&Delivery>,
    monitor: Option<&Arc<HealthMonitor>>,
    metrics: Option<&MetricsRegistry>,
) {
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
        .collect();
    let mut sched = Scheduler::new(sys);
    for doc in docs {
        let mut run = InstanceRun::new(sys, doc).agents(&agents).respond(&respond).max_steps(100);
        if let Some(d) = delivery {
            run = run.network(d);
        }
        if let Some(m) = monitor {
            run = run.monitor(m);
        }
        if let Some(m) = metrics {
            run = run.metrics(m);
        }
        sched.admit_instance(run).unwrap();
    }
    for (pid, result) in sched.run_to_completion() {
        let out = result.unwrap_or_else(|e| panic!("{pid} failed to complete: {e}"));
        assert_eq!(out.steps, 9, "{pid}");
    }
}

/// The healthy single-cloud baseline digest over `fed-0 .. fed-n`:
/// computed once, compared against by every degraded cell.
fn healthy_digest(n: usize) -> &'static str {
    static TWO: OnceLock<String> = OnceLock::new();
    static THREE: OnceLock<String> = OnceLock::new();
    let cell = match n {
        2 => &TWO,
        3 => &THREE,
        other => panic!("no baseline for {other} instances"),
    };
    cell.get_or_init(|| {
        let (creds, dir) = cast();
        let sys = CloudSystem::new(dir.clone(), 4, Arc::new(NetworkSim::lan()));
        drive(&sys, &creds, &dir, &initials(&creds, 0..n), None, None, None);
        sys.pool_digest()
    })
}

fn two_cloud_topology() -> Topology {
    Topology::new().cloud("east", 2).cloud("west", 2)
}

/// One auditor pass over every stored version of every cloud; returns the
/// rows it indicts.
fn audit_everything(sys: &CloudSystem) -> Vec<(String, String)> {
    let auditor = PoolAuditor::new(AuditConfig { batch: usize::MAX, ..AuditConfig::default() });
    auditor.run_pass(sys, None, 0);
    auditor.divergent_rows()
}

#[test]
fn healthy_federation_replicates_and_matches_single_cloud() {
    let (creds, dir) = cast();
    let sys =
        CloudSystem::federated(dir.clone(), two_cloud_topology(), Arc::new(NetworkSim::lan()))
            .unwrap();
    let metrics = MetricsRegistry::new();
    drive(&sys, &creds, &dir, &initials(&creds, 0..2), None, None, Some(&metrics));

    assert_eq!(sys.pool_digest(), healthy_digest(2), "replication changed document bytes");
    assert!(sys.replicas_consistent(), "east and west must hold identical doc rows");
    let digests = sys.cloud_digests();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0].1, digests[1].1);

    let ctrl = sys.federation_controller().unwrap();
    let stats = ctrl.stats();
    assert_eq!(stats.replicas_acked, sys.total_stored() as u64, "one peer ack per admission");
    assert_eq!(stats.quarantines + stats.failovers + stats.outages, 0);
    assert_eq!(stats.tampered_serves, 0);
    assert_eq!(stats.active_cloud, 0);

    sys.export_metrics(&metrics);
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.counter("federation.replicas_acked"), stats.replicas_acked);
    check_metric_invariants(&snapshot).unwrap();

    // per-cloud journals exist and persist independently
    let journals = sys.journal_snapshots();
    assert_eq!(journals.len(), 2);
    assert!(journals.iter().all(|(_, bytes)| !bytes.is_empty()));
}

/// A federated topology of one cloud *is* the single-cloud deployment: the
/// same pool digest, per-cloud digests, journal sizes and `run.*` /
/// `portal.*` counters on Fig. 9A (basic) and Fig. 9B (through the TFC).
/// Only the controller differs, and with one healthy cloud it never acts.
#[test]
fn topology_of_one_matches_single_cloud() {
    let run_on = |federated: bool, advanced: bool| {
        let (mut creds, _) = cast();
        creds.push(Credentials::from_seed("TFC", "fed-TFC"));
        let dir = Directory::from_credentials(&creds);
        let network = Arc::new(NetworkSim::lan());
        let sys = if federated {
            let one = Topology::new().cloud("cloud0", 3);
            CloudSystem::federated(dir.clone(), one, network).unwrap()
        } else {
            CloudSystem::new(dir.clone(), 3, network)
        };
        let mut def = fig9_def();
        let mut pol = SecurityPolicy::public();
        if advanced {
            def.tfc = Some("TFC".into());
            pol = pol.with_tfc_access("TFC", &def);
        }
        let initial = DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "one-0").unwrap();
        let agents: HashMap<String, Arc<Aea>> = creds
            .iter()
            .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
            .collect();
        let tfc_creds = creds.last().expect("TFC pushed above").clone();
        let tfc = TfcServer::with_clock(tfc_creds, dir.clone(), Arc::new(|| 1_000));
        let metrics = MetricsRegistry::new();
        let mut run = InstanceRun::new(&sys, &initial)
            .agents(&agents)
            .respond(&respond)
            .max_steps(100)
            .metrics(&metrics);
        if advanced {
            run = run.tfc(&tfc);
        }
        assert_eq!(run.run().unwrap().steps, 9);

        assert_eq!(sys.federation_controller().is_some(), federated);
        let mut counters = metrics.snapshot().counters;
        counters.retain(|k, _| k.starts_with("run.") || k.starts_with("portal."));
        let journal_sizes: Vec<(String, usize)> =
            sys.journal_snapshots().into_iter().map(|(name, bytes)| (name, bytes.len())).collect();
        (sys.pool_digest(), sys.cloud_digests(), journal_sizes, counters)
    };
    for advanced in [false, true] {
        let one = run_on(true, advanced);
        assert_eq!(one.1.len(), 1, "one cloud, one digest");
        assert_eq!(one, run_on(false, advanced), "advanced={advanced}");
    }
}

#[test]
fn cloud_outage_fails_over_and_preserves_the_pool() {
    let (creds, dir) = cast();
    let network = Arc::new(NetworkSim::lan());
    let sys =
        CloudSystem::federated(dir.clone(), two_cloud_topology(), Arc::clone(&network)).unwrap();
    // east (the active cloud) is dead from virtual microsecond 5 — before
    // the first admission ever lands
    sys.federation_controller().unwrap().set_outage(OutagePlan::at(0, 5));
    let delivery =
        Delivery::new(Arc::clone(&network), FaultProfile::lossless(), DeliveryPolicy::default(), 7)
            .unwrap();
    let metrics = MetricsRegistry::new();
    drive(&sys, &creds, &dir, &initials(&creds, 0..2), Some(&delivery), None, Some(&metrics));

    let ctrl = sys.federation_controller().unwrap();
    assert_eq!(ctrl.active_cloud(), 1, "admissions failed over to west");
    assert!(ctrl.cloud_down(0));
    let stats = ctrl.stats();
    assert_eq!(stats.outages, 1);
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.replicas_acked, 0, "no reachable peer to replicate to");

    // the surviving cloud holds exactly the healthy run's documents
    assert_eq!(sys.pool_digest(), healthy_digest(2), "failover changed document bytes");
    assert!(sys.replicas_consistent(), "down clouds are excluded from consistency");
    assert_eq!(audit_everything(&sys), vec![], "a failover forges nothing");

    sys.export_metrics(&metrics);
    check_metric_invariants(&metrics.snapshot()).unwrap();
}

#[test]
fn tampered_portal_is_quarantined_and_the_honest_bytes_reserved() {
    let (creds, dir) = cast();
    let sys =
        CloudSystem::federated(dir.clone(), two_cloud_topology(), Arc::new(NetworkSim::lan()))
            .unwrap();
    drive(&sys, &creds, &dir, &initials(&creds, 0..2), None, None, None);
    let before = sys.pool_digest();

    let ctrl = Arc::clone(sys.federation_controller().unwrap());
    let monitor = HealthMonitor::new(MonitorConfig::default());
    ctrl.set_monitor(&monitor);
    // portal 1 serves corrupted bytes on its very next serve
    ctrl.set_tamper(TamperPlan::once(1, 1));

    let served = sys.retrieve_latest(1, "fed-0").expect("the serve survives the bad portal");
    assert_eq!(
        served,
        sys.retrieve_version("fed-0", 9).unwrap(),
        "the re-served bytes are the honest latest version"
    );

    // the probe caught it: typed alert, quarantine, zero admissions after
    assert!(ctrl.is_quarantined(1));
    let stats = ctrl.stats();
    assert_eq!(stats.tampered_serves, 1);
    assert_eq!(stats.quarantines, 1);
    assert!(ctrl.zero_admissions_after_quarantine());
    let jsonl = alerts_to_jsonl(&monitor.alerts());
    assert!(jsonl.contains("\"portal_tampered\""), "got: {jsonl}");
    assert!(jsonl.contains("\"portal\":1"), "got: {jsonl}");

    // the pool itself was never touched — tamper lives on the serve path
    assert_eq!(sys.pool_digest(), before);
    assert!(sys.replicas_consistent());

    // the quarantined portal takes no further work: new admissions route
    // around it and its admission counter stays frozen
    assert_ne!(sys.route_portal(1), 1);
    drive(&sys, &creds, &dir, &initials(&creds, 2..3), None, None, None);
    assert!(ctrl.zero_admissions_after_quarantine());
    assert_eq!(sys.pool_digest(), healthy_digest(3));
}

/// East's superuser overwrites fed-0's latest row with another document
/// that is validly signed and was honestly admitted somewhere: fed-0's own
/// version 2 (a rollback) or fed-1's final document (a substitution).
/// Flipped bytes these are not — the serve probe has to hold the row to
/// *its* admission and *its* process.
#[test]
fn rollback_and_substitution_are_caught_like_flipped_bytes() {
    for (source, seq) in [("fed-0", 2), ("fed-1", 9)] {
        let (creds, dir) = cast();
        let sys =
            CloudSystem::federated(dir.clone(), two_cloud_topology(), Arc::new(NetworkSim::lan()))
                .unwrap();
        drive(&sys, &creds, &dir, &initials(&creds, 0..2), None, None, None);
        let ctrl = Arc::clone(sys.federation_controller().unwrap());
        let monitor = HealthMonitor::new(MonitorConfig::default());
        ctrl.set_monitor(&monitor);

        let honest = sys.retrieve_version("fed-0", 9).unwrap();
        let planted = sys.retrieve_version(source, seq).unwrap();
        let (_, _, east) = sys.audit_pools().swap_remove(0);
        forge_stored_row(&east, "doc/fed-0/000009", |_, _| (0, planted));

        // monitoring reads the active cloud: a typed error, never the
        // status of whatever document sits in the row
        let err = sys.process_status("fed-0").unwrap_err();
        assert!(matches!(&err, WfError::Verify(m) if m.contains("doc/fed-0/000009")), "{err}");
        // the auditor indicts the row whether or not anybody asks for it
        assert_eq!(audit_everything(&sys), vec![("east".into(), "doc/fed-0/000009".into())]);

        let served = sys.retrieve_latest(0, "fed-0").expect("the peer re-serves");
        assert_eq!(served, honest, "{source}/{seq}: the honest bytes, from west");
        assert!(ctrl.is_quarantined(0) && ctrl.is_quarantined(1), "both east portals served it");
        let stats = ctrl.stats();
        assert_eq!((stats.tampered_serves, stats.quarantines, stats.failovers), (0, 2, 1));
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 2, "one portal_tampered alert per indicted portal");
        let jsonl = alerts_to_jsonl(&alerts);
        assert!(jsonl.contains("\"portal_tampered\""), "got: {jsonl}");

        // west is active now and was never touched
        let status = sys.process_status("fed-0").unwrap().unwrap();
        assert_eq!((status.process_id.as_str(), status.steps()), ("fed-0", 9));
        assert_eq!(sys.retrieve_latest(2, "fed-1"), sys.retrieve_version("fed-1", 9));
    }
}

#[test]
fn torn_replication_is_repaired_by_replica_journal_replay() {
    let (creds, dir) = cast();
    let def = fig9_def();
    let sys =
        CloudSystem::federated(dir.clone(), two_cloud_topology(), Arc::new(NetworkSim::lan()))
            .unwrap()
            .with_crash_plan(CrashPlan::once(CrashPoint::ReplicaBeforeCommit, 1));
    let doc = DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "t-1")
        .unwrap();
    let wire = doc.to_xml_string();
    let route = Route { targets: vec!["A".into()], ends: false };

    // the replica (west) dies after journalling the admission, before
    // committing it: the primary is durable, the replica is torn
    let err = sys.store_document(0, &wire, &route).unwrap_err();
    assert!(matches!(err, WfError::Crash(_)), "got: {err:?}");
    assert_eq!(sys.retrieve_version("t-1", 0).unwrap(), wire, "primary committed");
    assert!(!sys.replicas_consistent(), "west is missing the admission");

    // the torn replica journal round-trips through the torn-tail import
    // machinery: the full export replays the admission, a cut export drops
    // the torn record instead of failing
    let journals = sys.journal_snapshots();
    let west = &journals.iter().find(|(name, _)| name == "west").unwrap().1;
    let full = dra4wfms::docpool::Journal::import(west).unwrap();
    assert_eq!(full.len(), 1);
    assert_eq!(full.uncommitted(), 1, "the west record never committed");
    let torn = dra4wfms::docpool::Journal::import(&west[..west.len() - 3]).unwrap();
    assert_eq!(torn.len(), 0, "a torn final record is dropped, not fatal");

    // replica restart: its own journal replay completes the admission
    assert_eq!(sys.recover_portals(), 1);
    assert!(sys.replicas_consistent(), "west caught up");
    assert_eq!(sys.journal_replays(), 1);

    // the sender's retry is a clean duplicate on the primary
    let ack = sys.ingest_wire(0, &wire, &route, None).unwrap();
    assert!(ack.duplicate);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random outage/tamper schedules under a hostile fault profile:
    /// every instance completes, quarantined portals take zero admissions
    /// afterwards, and the final pool digest is byte-identical to the
    /// healthy single-cloud baseline — a bad cloud costs time, never
    /// safety.
    #[test]
    fn degraded_runs_never_change_the_pool_digest(
        fault_seed in 0u64..1_000,
        outage_from in 1u64..2_000_000,
        tamper_portal in 0usize..4,
        tamper_nth in 1u64..3,
    ) {
        let (creds, dir) = cast();
        let network = Arc::new(NetworkSim::lan());
        let sys = CloudSystem::federated(
            dir.clone(),
            two_cloud_topology(),
            Arc::clone(&network),
        ).unwrap();
        let ctrl = Arc::clone(sys.federation_controller().unwrap());
        let monitor = HealthMonitor::new(MonitorConfig::default());
        ctrl.set_monitor(&monitor);
        ctrl.set_outage(OutagePlan::at(0, outage_from));
        ctrl.set_tamper(TamperPlan::once(tamper_portal, tamper_nth));
        let delivery = Delivery::new(
            Arc::clone(&network),
            FaultProfile::hostile(),
            DeliveryPolicy::default(),
            fault_seed,
        ).unwrap();

        drive(&sys, &creds, &dir, &initials(&creds, 0..2), Some(&delivery), Some(&monitor), None);

        // audit pass: serve every instance through every portal, so an
        // armed tamper plan gets its chance to fire mid-sweep
        for pid in ["fed-0", "fed-1"] {
            for portal in 0..4 {
                if let Some(served) = sys.retrieve_latest(portal, pid) {
                    prop_assert_eq!(&served, &sys.retrieve_version(pid, 9).unwrap());
                }
            }
        }

        // second wave after any quarantine: frozen portals stay frozen
        drive(&sys, &creds, &dir, &initials(&creds, 2..3), Some(&delivery), Some(&monitor), None);

        let final_digest = sys.pool_digest();
        prop_assert_eq!(final_digest.as_str(), healthy_digest(3));
        prop_assert_eq!(audit_everything(&sys), vec![], "degradation forges nothing");
        prop_assert!(ctrl.zero_admissions_after_quarantine());
        prop_assert!(sys.replicas_consistent());
        let stats = ctrl.stats();
        prop_assert!(stats.failovers <= stats.quarantines + stats.outages);
    }
}
