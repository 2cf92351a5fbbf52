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
//!   journal's torn-tail import machinery applies per cloud; inside a run,
//!   the torn admission is stored once and counted once, by its portal and
//!   on the dashboard alike;
//! * one `FaultPlan` holding a crash *and* a tamper fires each exactly
//!   once in the same federated run;
//! * a proptest: random outage/tamper plans under a hostile
//!   `FaultProfile` never change the final pool sha256 versus the healthy
//!   single-cloud baseline — degradation costs time, never safety.

use dra4wfms::cloud::federation::forge_stored_row;
use dra4wfms::cloud::{
    alerts_to_jsonl, check_metric_invariants, AuditConfig, Base, CloudSystem, Delivery, FaultPlan,
    FaultProfile, PoolAuditor, Topology, Trigger,
};
use dra4wfms::core::faultpoint::site;
use dra4wfms::docpool::Scan;
use dra4wfms::prelude::*;
use dra_bench::rig::{Handoff, Rig};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Drive instances `fed-<id>` through the event-driven scheduler, asserting
/// every one completes in exactly 9 steps (Fig. 9A takes its loop once).
fn drive(rig: &Rig, sys: &CloudSystem, ids: std::ops::Range<usize>, delivery: &Delivery) {
    let n = ids.len();
    assert_eq!(rig.fleet(sys, ids.map(|i| format!("fed-{i}")), delivery), n, "all complete");
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
        let rig = Rig::fig9(false);
        let sys = rig.cloud(4);
        drive(&rig, &sys, 0..n, sys.channel());
        sys.pool_digest()
    })
}

fn two_cloud_topology() -> Topology {
    Topology::new().cloud("east", 2).cloud("west", 2)
}

/// The hand-offs of a 6-step chain of process `chain-0`, walked AEA by AEA:
/// each version with its route and, from the second on, the version it was
/// served as its [`Base`].
fn chain_handoffs(rig: &Rig) -> Vec<(SealedDocument, Route, Option<Base>)> {
    let ids: Vec<String> = rig.def.activities.iter().map(|a| a.id.clone()).collect();
    let route = |k: usize| Route {
        ends: k == ids.len(),
        targets: ids.get(k).cloned().into_iter().collect(),
    };
    let mut out = vec![(SealedDocument::new(rig.initial("chain-0")), route(0), None)];
    for (k, record) in rig.walk("chain-0", Handoff::Sealed, true).enumerate() {
        let name = record.document.trust().expect("a hop carries its mark").prefix_digest;
        let base = Base { name, wire: out[k].0.wire() };
        out.push((record.document, route(k + 1), Some(base)));
    }
    out
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
    let rig = Rig::fig9(false);
    let (sys, ctrl) = rig.federated(two_cloud_topology());
    let metrics = &rig.metrics;
    drive(&rig, &sys, 0..2, sys.channel());

    assert_eq!(sys.pool_digest(), healthy_digest(2), "replication changed document bytes");
    assert!(sys.replicas_consistent(), "east and west must hold identical doc rows");
    let digests = sys.cloud_digests();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0].1, digests[1].1);

    let stats = ctrl.stats();
    assert_eq!(stats.replicas_acked, sys.total_stored() as u64, "one peer ack per admission");
    assert_eq!(stats.quarantines + stats.failovers + stats.outages, 0);
    assert_eq!(stats.tampered_serves, 0);
    assert_eq!(stats.active_cloud, 0);

    sys.export_metrics(metrics);
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
        let rig = Rig::fig9(advanced);
        let sys = match federated {
            true => rig.federated(Topology::new().cloud("cloud0", 3)).0,
            false => rig.cloud(3),
        };
        let initial = rig.initial("one-0");
        assert_eq!(rig.run(&sys, &initial).run().unwrap().steps, 9);

        assert_eq!(sys.federation_controller().is_some(), federated);
        let mut counters = rig.metrics.snapshot().counters;
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

/// `cloud` unreachable from virtual instant `from_us` on.
fn outage(cloud: &str, from_us: u64) -> (String, Trigger) {
    (site::cloud(cloud), Trigger::From(from_us))
}

#[test]
fn cloud_outage_fails_over_and_preserves_the_pool() {
    // east (the active cloud) is dead from virtual microsecond 5 — before
    // the first admission ever lands
    let rig = Rig::fig9(false).with_faults(&FaultPlan::of([outage("east", 5)]));
    let (sys, ctrl) = rig.federated(two_cloud_topology());
    drive(&rig, &sys, 0..2, sys.channel());

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

    sys.export_metrics(&rig.metrics);
    check_metric_invariants(&rig.metrics.snapshot()).unwrap();
}

/// West misses the one batch that wrote the definition's `def/` row — it is
/// skipped once, not confirmed down — and a failover makes it the cloud that
/// serves before any initial document is admitted there: every instance of
/// that definition it replicated since still reads back, because each
/// initial document's batch brought the row along while west lacked it.
#[test]
fn a_peer_that_missed_the_def_row_gets_it_with_the_next_initial_document() {
    const OUTAGE_US: u64 = 1 << 40;
    let plan = FaultPlan::of([
        (site::cloud("west"), Trigger::Visit(1)),
        (site::cloud("east"), Trigger::From(OUTAGE_US)),
    ]);
    let rig = Rig::fig9(false).with_faults(&plan);
    let (sys, ctrl) = rig.federated(two_cloud_topology());
    // an initial document that goes no further, and the first replication
    let wire = rig.initial("fed-9").to_xml_string();
    sys.ingest_wire(0, &wire, &Route::default()).unwrap();
    assert_eq!(plan.fired(), 1, "west was skipped once");
    drive(&rig, &sys, 0..2, sys.channel());
    assert_eq!(ctrl.stats().outages, 0);

    // east goes dark; a retransmitted final version confirms it and is
    // acked by west as the duplicate it is, writing nothing
    rig.network.advance(OUTAGE_US);
    let last = sys.retrieve_version("fed-1", 9).unwrap();
    assert!(sys.ingest_wire(0, &last, &Route::default()).is_err(), "east unreachable");
    assert!(sys.ingest_wire(0, &last, &Route::default()).unwrap().duplicate);
    assert_eq!((ctrl.active_cloud(), ctrl.stats().failovers), (1, 1));

    for (pid, portal) in [("fed-0", 0), ("fed-1", 3)] {
        let served = sys.retrieve_latest(portal, pid).expect("west serves it");
        assert_eq!(Some(served), sys.retrieve_version(pid, 9), "{pid}");
    }
    assert_eq!(sys.retrieve_latest(0, "fed-9"), None, "west never stored it");
    assert_eq!((ctrl.stats().quarantines, ctrl.stats().tampered_serves), (0, 0));
    assert_eq!(sys.pool_digest(), healthy_digest(2), "west reads as a healthy run");
    assert_eq!(audit_everything(&sys), vec![], "no row of either cloud diverges");
}

#[test]
fn tampered_portal_is_quarantined_and_the_honest_bytes_reserved() {
    // portal 1 serves corrupted bytes on its first serve, after the fleet
    // ran (a run serves nothing)
    let rig = Rig::fig9(false).with_faults(&FaultPlan::once(&site::serve(1), 1));
    let (sys, ctrl) = rig.federated(two_cloud_topology());
    drive(&rig, &sys, 0..2, sys.channel());
    let before = sys.pool_digest();
    assert_eq!(ctrl.stats().tampered_serves, 0);

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
    let jsonl = alerts_to_jsonl(&rig.monitor.alerts());
    assert!(jsonl.contains("\"portal_tampered\""), "got: {jsonl}");
    assert!(jsonl.contains("\"portal\":1"), "got: {jsonl}");

    // the pool itself was never touched — tamper lives on the serve path
    assert_eq!(sys.pool_digest(), before);
    assert!(sys.replicas_consistent());

    // the quarantined portal takes no further work: new admissions route
    // around it and its admission counter stays frozen
    assert_ne!(sys.route_portal(1), 1);
    drive(&rig, &sys, 2..3, sys.channel());
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
        let rig = Rig::fig9(false);
        let (sys, ctrl) = rig.federated(two_cloud_topology());
        drive(&rig, &sys, 0..2, sys.channel());

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
        let alerts = rig.monitor.alerts();
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
    let plan = FaultPlan::once(site::PORTAL_REPLICA_BEFORE_COMMIT, 1);
    let rig = Rig::fig9(false).with_faults(&plan);
    let (sys, _) = rig.federated(two_cloud_topology());
    let wire = rig.initial("t-1").to_xml_string();
    let route = Route { targets: vec!["A".into()], ends: false };

    // the replica (west) dies after journalling the admission, before
    // committing it: the primary is durable, the replica is torn
    let err = sys.ingest_wire(0, &wire, &route).unwrap_err();
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
    let ack = sys.ingest_wire(0, &wire, &route).unwrap();
    assert!(ack.duplicate);
}

/// A replica commit torn in the middle of a fleet run: the channel restarts
/// the portal, west's journal replay completes the commit, and the retry is
/// a duplicate on east. The version was stored once, and is counted once:
/// Σ `portal.stored` is east's `doc/` row count, and the dashboard shows
/// each portal's own count as its admissions.
#[test]
fn a_torn_replica_commit_is_counted_once() {
    let plan = FaultPlan::once(site::PORTAL_REPLICA_BEFORE_COMMIT, 3);
    let rig = Rig::fig9(false).with_faults(&plan);
    let (sys, _) = rig.federated(two_cloud_topology());
    drive(&rig, &sys, 0..2, sys.channel());
    assert_eq!(plan.fired(), 1, "a replica commit tore");
    assert!(sys.replicas_consistent(), "the retry repaired west");
    assert_eq!(sys.pool_digest(), healthy_digest(2));

    let doc_rows = sys.active_pool().query(&Scan::prefix("doc/")).rows.len();
    assert_eq!(sys.total_stored(), doc_rows, "one count per stored version");
    let dashboard = sys.fleet_dashboard_json();
    for (i, portal) in sys.portals.iter().enumerate() {
        let stored = portal.stored.load(Ordering::Relaxed);
        let admissions = format!("\"{i}\":{{\"admissions\":{stored},");
        assert!(stored == 0 || dashboard.contains(&admissions), "portal {i}: {dashboard}");
    }
}

/// One plan, two kinds of fault: an AEA dies on its third signing and
/// portal 2 corrupts its first serve, in the same Fig. 9A run over two
/// clouds. Each strikes exactly once, and the run still stores and serves
/// the healthy bytes.
#[test]
fn one_plan_crashes_an_aea_and_tampers_a_serve_in_one_federated_run() {
    let plan = FaultPlan::of([
        (site::AEA_BEFORE_SIGN.to_string(), Trigger::Visit(3)),
        (site::serve(2), Trigger::Visit(1)),
    ]);
    let rig = Rig::fig9(false).with_faults(&plan);
    let (sys, ctrl) = rig.federated(two_cloud_topology());
    drive(&rig, &sys, 0..2, sys.channel());
    assert_eq!(plan.fired(), 1, "the crash struck; nothing was served yet");
    assert_eq!(rig.metrics.snapshot().counter("run.takeovers"), 1, "one AEA died, once");

    for portal in 0..4 {
        let served = sys.retrieve_latest(portal, "fed-0").expect("a healthy portal serves");
        assert_eq!(served, sys.retrieve_version("fed-0", 9).unwrap());
    }
    assert_eq!(plan.fired(), 2, "the tamper struck too");
    assert_eq!(ctrl.stats().tampered_serves, 1);
    assert!(ctrl.is_quarantined(2) && ctrl.zero_admissions_after_quarantine());
    assert_eq!(sys.pool_digest(), healthy_digest(2), "neither fault changed a stored byte");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random outage/tamper plans under a hostile fault profile:
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
        let plan = FaultPlan::of([
            outage("east", outage_from),
            (site::serve(tamper_portal), Trigger::Visit(tamper_nth)),
        ]);
        let rig = Rig::fig9(false).with_faults(&plan);
        let (sys, ctrl) = rig.federated(two_cloud_topology());
        let delivery = rig.channel(FaultProfile::hostile(), fault_seed);

        drive(&rig, &sys, 0..2, &delivery);

        // audit pass: serve every instance through every portal, so a
        // scripted tamper gets its chance to fire mid-sweep
        for pid in ["fed-0", "fed-1"] {
            for portal in 0..4 {
                if let Some(served) = sys.retrieve_latest(portal, pid) {
                    prop_assert_eq!(&served, &sys.retrieve_version(pid, 9).unwrap());
                }
            }
        }

        // second wave after any quarantine: frozen portals stay frozen
        drive(&rig, &sys, 2..3, &delivery);

        let final_digest = sys.pool_digest();
        prop_assert_eq!(final_digest.as_str(), healthy_digest(3));
        prop_assert_eq!(audit_everything(&sys), vec![], "degradation forges nothing");
        prop_assert!(ctrl.zero_admissions_after_quarantine());
        prop_assert!(sys.replicas_consistent());
        let stats = ctrl.stats();
        prop_assert!(stats.failovers <= stats.quarantines + stats.outages);
    }
}

/// The surviving cloud of a failover holds no head of any version it only
/// replicated: the first delta it is sent is answered with the whole wire,
/// and its pool ends as the one a run handing every version off whole
/// leaves.
#[test]
fn after_a_failover_the_first_delta_falls_back_to_the_whole_wire() {
    let run = |delta: bool, outage_us: u64| {
        let plan = FaultPlan::of([(site::cloud("east"), Trigger::From(outage_us))]);
        let rig = Rig::chain(6, false, |i| format!("value-{i}")).with_faults(&plan);
        let (sys, controller) = rig.federated(two_cloud_topology());
        for (k, (sealed, route, base)) in chain_handoffs(&rig).iter().enumerate() {
            sys.channel().deliver(&sys, 0, sealed, base.as_ref().filter(|_| delta), route).unwrap();
            if k == 2 {
                // the instant the outage is timed at, on a run without one
                assert_eq!(controller.stats().failovers, 0);
                if outage_us == u64::MAX {
                    return (String::new(), 0, rig.network.virtual_time_us());
                }
            }
        }
        assert_eq!((controller.stats().failovers, controller.stats().active_cloud), (1, 1));
        (sys.pool_digest(), sys.channel().stats().delta_fallbacks, 0)
    };
    let (_, _, outage_us) = run(true, u64::MAX);
    let (whole, none, _) = run(false, outage_us);
    let (delta, fallbacks, _) = run(true, outage_us);
    assert_eq!((none, fallbacks), (0, 1), "the first delta west is sent");
    assert_eq!(delta, whole, "the pool a whole-wire run leaves");
}
