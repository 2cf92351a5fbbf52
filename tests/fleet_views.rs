//! Incremental fleet views and the continuous pool auditor, end to end.
//!
//! The claims under test, over real Fig. 9A instances:
//!
//! * a proptest: **random admission/crash/federation schedules** — hostile
//!   delivery faults, a seeded AEA crash takeover, single-cloud vs
//!   two-cloud federated deployments, varying fleet sizes — always leave
//!   every incremental view **byte-identical** to a fresh full MapReduce
//!   recompute over the scan API (`views ≡ scan`, cell-by-cell and as
//!   rendered JSON);
//! * a **torn portal store** (crash between the `seen/` row and the
//!   document row) never desynchronises the views, journal replay repairs
//!   the pool and the views together, and a cold restart reseeds the views
//!   from the pool snapshot mid-fleet;
//! * a **forged stored row** below the latest one — a lone cloud serves
//!   unprobed, and what it serves now carries the forgery, which the AEA's
//!   own verification rejects — is indicted by the [`PoolAuditor`] with the
//!   exact key and exactly one typed alert across repeated sweeps; the rows
//!   above it, which keep the forged bytes, are tainted, not indicted — and
//!   so it goes for a **rollback** of such a row to the version below it;
//! * every honest cell above — hostile channel, crash takeover, torn store,
//!   federation — audits clean: a full sweep indicts no row;
//! * on a federated deployment the same forgery trips the serve probe, and
//!   the auditor's alert, pumped through the [`FederationController`],
//!   quarantines every portal of the tampered cloud and fails admissions
//!   over to the honest peer;
//! * the latency statistic, a view fed at admission, answers exactly what a
//!   fresh parse of every latest stored version answers — on an advanced
//!   fleet, after a torn admission, a cold restart and a failover — and
//!   reads no pool row while no process lags.

use dra4wfms::cloud::federation::{flip_tail, forge_stored_row};
use dra4wfms::cloud::{
    check_metric_invariants, AlertKind, AuditConfig, CloudSystem, Delivery, FaultPlan,
    FaultProfile, HealthMonitor, PoolAuditor, Topology, Trigger,
};
use dra4wfms::core::faultpoint::site;
use dra4wfms::core::monitor::gaps;
use dra4wfms::docpool::{HTable, Scan};
use dra4wfms::prelude::*;
use dra_bench::rig::Rig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Drive instances `view-<id>` through the event-driven scheduler,
/// asserting each completes in exactly 9 steps.
fn drive(rig: &Rig, sys: &CloudSystem, ids: std::ops::Range<usize>, delivery: &Delivery) {
    let n = ids.len();
    assert_eq!(rig.fleet(sys, ids.map(|i| format!("view-{i}")), delivery), n, "all complete");
}

fn two_clouds() -> Topology {
    Topology::new().cloud("east", 2).cloud("west", 2)
}

/// The latency answer recomputed apart from the deployment: every process's
/// latest stored version parsed afresh, its gaps summed per activity and
/// the mean taken as the statistic takes it.
fn latency_by_hand(sys: &CloudSystem) -> BTreeMap<String, (usize, f64)> {
    let mut totals: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for (pid, versions) in sys.fleet_views().progress() {
        // a version that does not read has no gaps
        let latest = sys.retrieve_version(&pid, versions as usize - 1);
        let Some(doc) = latest.and_then(|xml| DraDocument::parse(&xml).ok()) else { continue };
        for (activity, gap) in gaps(&doc) {
            let slot = totals.entry(activity).or_default();
            *slot = (slot.0 + 1, slot.1 + gap);
        }
    }
    totals.into_iter().map(|(a, (n, sum))| (a, (n, sum as f64 / n as f64))).collect()
}

/// Every face of the `views ≡ scan` differential at once: the cell-by-cell
/// diff, the byte-identity of the rendered pool view, and the latency
/// answer, means compared exactly.
fn assert_views_identical(sys: &CloudSystem) {
    sys.views_match_scan(4).expect("views ≡ scan");
    let incremental = sys.fleet_views().pool_view_json();
    assert_eq!(incremental, sys.recompute_pool_view_json(), "byte identity");
    assert_eq!(sys.activity_latency_stats(2), latency_by_hand(sys), "latency view ≡ recompute");
}

/// Fig. 9B on a TFC clock whose steps vary, so that gaps differ per hop.
fn advanced_rig() -> Rig {
    let tick = AtomicU64::new(0);
    Rig::fig9(true).tfc_clock(Arc::new(move || {
        let t = tick.fetch_add(1, Ordering::Relaxed);
        1_000 + 10 * t + t * t % 7
    }))
}

/// Rows the active pool's scans have touched so far.
fn scanned_rows(sys: &CloudSystem) -> usize {
    sys.active_pool().scan_counters().0
}

/// The keys of `pid`'s versions `seqs`, as rows of cloud `cloud`.
fn rows_of(cloud: &str, pid: &str, seqs: std::ops::RangeInclusive<usize>) -> Vec<(String, String)> {
    seqs.map(|seq| (cloud.to_string(), format!("doc/{pid}/{seq:06}"))).collect()
}

/// A stored version of `pid` that is *not* the latest — the serve path
/// (always the max sequence) never reads it, only the auditor will.
fn mid_version_key(pool: &Arc<HTable>, pid: &str) -> String {
    let rows = pool.query(&Scan::prefix(&format!("doc/{pid}/")).family("meta")).rows;
    assert!(rows.len() > 2, "{pid} stored too few versions to pick a non-latest one");
    rows[1].0.clone()
}

/// Run enough auditor passes to complete at least one full sweep of every
/// pool, advancing the virtual `clock` by the configured period each pass.
fn full_sweep(
    auditor: &PoolAuditor,
    sys: &CloudSystem,
    monitor: Option<&HealthMonitor>,
    clock: &mut u64,
) {
    let batch = auditor.config().batch;
    let period = auditor.config().period_us;
    let rows = sys
        .audit_pools()
        .iter()
        .map(|(_, _, pool)| pool.query_count(&Scan::prefix("doc/")))
        .max()
        .unwrap_or(0);
    for _ in 0..rows.div_ceil(batch) + 1 {
        assert!(auditor.due(*clock), "the sampler keeps its period");
        auditor.run_pass(sys, monitor, *clock);
        *clock += period;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random admission/crash/federation schedules: hostile delivery
    /// faults under a fresh seed, one seeded AEA crash takeover, a fleet
    /// of 1–3 instances, on either a single-cloud or a two-cloud federated
    /// deployment — after every run the incremental views are
    /// byte-identical to a fresh full MapReduce recompute, and (single
    /// cloud) survive a cold restart from the pool snapshot.
    #[test]
    fn random_schedules_keep_views_identical_to_recompute(
        fault_seed in 0u64..1_000,
        crash_nth in 1u64..6,
        n in 1usize..4,
        federated in any::<bool>(),
    ) {
        let plan = FaultPlan::once(site::AEA_BEFORE_SIGN, crash_nth);
        let rig = Rig::fig9(false).with_faults(&plan).unmonitored();
        let sys = if federated { rig.federated(two_clouds()).0 } else { rig.cloud(4) };
        let delivery = rig.channel(FaultProfile::hostile(), fault_seed);

        drive(&rig, &sys, 0..n, &delivery);
        prop_assert_eq!(plan.fired(), 1, "the scheduled crash fired");

        assert_views_identical(&sys);
        let auditor = PoolAuditor::new(AuditConfig::default());
        full_sweep(&auditor, &sys, None, &mut 0u64);
        prop_assert_eq!(auditor.divergent_rows(), vec![], "faults and crashes forge nothing");
        let counts = sys.fleet_views().status_counts();
        prop_assert_eq!(counts.get("complete").copied().unwrap_or(0), n as u64);
        for i in 0..n {
            prop_assert_eq!(sys.fleet_views().progress()[&format!("view-{i}")], 10);
        }

        // the dashboard renders the same bytes on every read
        prop_assert_eq!(sys.fleet_dashboard_json(), sys.fleet_dashboard_json());

        if !federated {
            // cold restart: the views are memory, the pool is truth
            let restored = CloudSystem::restore(
                rig.dir.clone(),
                4,
                Arc::clone(&rig.network),
                &sys.snapshot_pool(),
            )
            .unwrap();
            assert_views_identical(&restored);
            prop_assert_eq!(
                restored.fleet_views().pool_view_json(),
                sys.fleet_views().pool_view_json(),
                "a restart changes no view bytes"
            );
        }
    }
}

/// A torn portal store (crash between the `seen/` row and the document
/// row) leaves views ≡ scan through the crash window, journal replay
/// repairs both together, and the fleet keeps running on the recovered
/// deployment; a cold restart mid-fleet reseeds identical views.
#[test]
fn torn_store_recovery_keeps_views_and_fleet_consistent() {
    let rig =
        Rig::fig9(false).with_faults(&FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 1));
    let sys = rig.cloud(2);

    // the very first admission tears mid-store
    let torn = rig.initial("view-7");
    let route = Route { targets: vec!["A".into()], ends: false };
    assert!(sys.ingest_wire(0, &torn.to_xml_string(), &route).is_err());
    assert_views_identical(&sys);

    assert_eq!(sys.recover_portals(), 1, "journal replay repairs the torn admission");
    assert_views_identical(&sys);
    assert_eq!(sys.fleet_views().status_counts()["running"], 1);

    // the fleet continues on the recovered deployment (the crash plan is
    // spent, so these run clean)
    drive(&rig, &sys, 0..2, sys.channel());
    assert_views_identical(&sys);
    let counts = sys.fleet_views().status_counts();
    assert_eq!(counts["complete"], 2);
    assert_eq!(counts["running"], 1);
    let auditor = PoolAuditor::new(AuditConfig::default());
    full_sweep(&auditor, &sys, None, &mut 0u64);
    assert_eq!(auditor.divergent_rows(), vec![], "a repaired torn store audits clean");

    // cold restart mid-fleet: reseeded views carry the same bytes
    let restored =
        CloudSystem::restore(rig.dir.clone(), 2, Arc::clone(&rig.network), &sys.snapshot_pool())
            .unwrap();
    assert_views_identical(&restored);
    assert_eq!(restored.fleet_views().pool_view_json(), sys.fleet_views().pool_view_json());
    assert_eq!(restored.fleet_views().progress()["view-7"], 1);
}

/// Forge a stored mid-sequence row, and roll another one back to the
/// version below it. A lone cloud serves unprobed: every later version keeps
/// what the forged row appended, so what is served now carries the forgery —
/// and the receiving AEA's verification rejects it. The auditor indicts the
/// exact keys with exactly one typed alert each, counts the rows above them
/// as tainted, and the metric invariants hold with the forgeries declared.
#[test]
fn auditor_catches_a_forged_stored_row_the_serve_path_never_sees() {
    let rig = Rig::fig9(false);
    let (monitor, metrics) = (&rig.monitor, &rig.metrics);
    let sys = rig.cloud(2);
    drive(&rig, &sys, 0..3, sys.channel());

    let key = mid_version_key(sys.active_pool(), "view-1");
    assert_eq!(key, "doc/view-1/000001");
    let honest_latest = sys.retrieve_latest(0, "view-1").expect("latest version serves");
    // the case of one ASCII letter of what row 1's hop appended: a minimal
    // storage-layer corruption, the row's key and shape untouched
    forge_stored_row(sys.active_pool(), &key, flip_tail);
    // view-2's version 1 becomes its version 0 again: every byte validly
    // signed, nothing for the signature pass to find
    let rolled_back = mid_version_key(sys.active_pool(), "view-2");
    assert_eq!(rolled_back, "doc/view-2/000001");
    let earlier = sys.retrieve_version("view-2", 0).unwrap();
    forge_stored_row(sys.active_pool(), &rolled_back, |_, _| (earlier.len(), String::new()));
    assert_eq!(sys.retrieve_version("view-2", 1).as_ref(), Some(&earlier));

    // nothing probes a lone cloud's serve: the latest version comes back
    // with the byte row 1 had flipped, and it is the participant's own
    // verification that refuses to work on it
    let served = sys.retrieve_latest(0, "view-1").expect("served unprobed");
    assert_ne!(served, honest_latest, "every later version keeps what row 1 appended");
    let err =
        rig.agents["p_d"].receive(SealedDocument::from_wire(&served).unwrap(), "D").unwrap_err();
    assert!(matches!(err, WfError::Verify(_) | WfError::Malformed(_) | WfError::Parse(_)), "{err}");
    assert!(monitor.alerts().is_empty(), "no alert before the auditor runs");
    // and the forgery is invisible to the views: same keys, same statuses
    assert_views_identical(&sys);

    let auditor = PoolAuditor::new(AuditConfig { batch: 4, period_us: 1_000, threads: 2 });
    let mut clock = 0u64;
    full_sweep(&auditor, &sys, Some(monitor), &mut clock);
    // a second full sweep re-samples the same rows without re-alerting
    full_sweep(&auditor, &sys, Some(monitor), &mut clock);

    assert_eq!(
        auditor.divergent_rows(),
        vec![("cloud0".to_string(), key.clone()), ("cloud0".to_string(), rolled_back)],
        "exactly the rewritten rows, nothing else"
    );
    // the rows above them fail too — view-1's keep the flipped byte, view-2's
    // were cut against a version the rollback made shorter — and are
    // charged to the broken link below them, not alerted
    let above = [rows_of("cloud0", "view-1", 2..=9), rows_of("cloud0", "view-2", 2..=9)].concat();
    assert_eq!(auditor.tainted_rows(), above);
    let alerts = monitor.alerts();
    assert_eq!(alerts.len(), 2, "one alert per broken link, ever");
    assert_eq!(
        (alerts[0].process_id.as_str(), alerts[1].process_id.as_str()),
        ("view-1", "view-2")
    );
    match &alerts[0].kind {
        AlertKind::AuditDivergence { cloud, key: alert_key } => {
            assert_eq!(*cloud, 0);
            assert_eq!(alert_key, &key);
        }
        other => panic!("expected an audit_divergence alert, got {other:?}"),
    }

    metrics.set_counter("audit.tampered_rows", 2);
    sys.export_metrics(metrics);
    auditor.export_metrics(metrics);
    monitor.export_metrics(metrics);
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.counter("audit.divergences"), 2);
    assert_eq!(snapshot.counter("audit.tainted"), 16);
    assert_eq!(snapshot.counter("alerts.audit_divergence"), 2);
    check_metric_invariants(&snapshot).expect("a declared forgery satisfies the invariants");
}

/// A two-cloud deployment that ran two instances, with one row below
/// view-0's latest forged on the active cloud only — its replica on the
/// honest peer keeps the true bytes.
fn forged_federation() -> (CloudSystem, Rig, String) {
    let rig = Rig::fig9(false);
    let (sys, _) = rig.federated(two_clouds());
    drive(&rig, &sys, 0..2, sys.channel());
    let (east_name, _, east_pool) = sys.audit_pools().into_iter().next().unwrap();
    assert_eq!(east_name, "east");
    let key = mid_version_key(&east_pool, "view-0");
    forge_stored_row(&east_pool, &key, flip_tail);
    (sys, rig, key)
}

/// The same forgery on a federated deployment. Nobody has to wait for the
/// auditor: the latest version keeps the forged bytes, so the serve probe
/// trips on the first read, quarantines the serving portals and re-serves
/// from the peer. And unread, the audit alert, pumped through the
/// federation controller, quarantines every portal of the tampered cloud
/// and fails admissions over to the honest peer — while the views, which
/// track keys and statuses rather than bytes, stay identical to the
/// recompute throughout.
#[test]
fn federated_forgery_quarantines_the_tampered_cloud_when_pumped() {
    let (sys, rig, key) = forged_federation();
    let (monitor, metrics) = (&rig.monitor, &rig.metrics);
    let ctrl = Arc::clone(sys.federation_controller().unwrap());
    let auditor = PoolAuditor::new(AuditConfig::default());
    full_sweep(&auditor, &sys, Some(monitor), &mut 0u64);
    assert_eq!(auditor.divergent_rows(), vec![("east".to_string(), key)]);
    assert_eq!(auditor.tainted_rows(), rows_of("east", "view-0", 2..=9));

    sys.federation_poll();
    let stats = ctrl.stats();
    assert_eq!(stats.quarantines, 2, "both east portals frozen");
    assert_eq!(stats.failovers, 1, "admissions fail over to west");
    assert_eq!(stats.active_cloud, 1);
    assert_views_identical(&sys);

    metrics.set_counter("audit.tampered_rows", 1);
    sys.export_metrics(metrics);
    auditor.export_metrics(metrics);
    monitor.export_metrics(metrics);
    check_metric_invariants(&metrics.snapshot()).unwrap();

    // a second deployment, same forgery, no auditor: the first read trips
    let (sys, rig, _) = forged_federation();
    let ctrl = Arc::clone(sys.federation_controller().unwrap());
    let served = sys.retrieve_latest(0, "view-0").expect("the peer re-serves");
    assert!(ctrl.is_quarantined(0) && ctrl.is_quarantined(1), "both east portals served it");
    assert_eq!(ctrl.stats().active_cloud, 1, "east has no portal left: west is active");
    assert_eq!(Some(served), sys.retrieve_version("view-0", 9), "west's bytes");
    let alerts = rig.monitor.alerts();
    assert_eq!(alerts.len(), 2, "one portal_tampered alert per indicted portal");
    assert!(alerts.iter().all(|a| matches!(a.kind, AlertKind::PortalTampered { .. })));
}

/// An advanced fleet: one gap per stamped CER after each instance's first,
/// the means equal to a fresh parse of every latest version to the last
/// bit, and a corrupted view entry caught by the differential check.
#[test]
fn advanced_fleet_latency_view_equals_recompute() {
    let rig = advanced_rig();
    let sys = rig.cloud(2);
    drive(&rig, &sys, 0..4, sys.channel());
    assert_views_identical(&sys);
    let latency = sys.activity_latency_stats(2);
    assert_eq!(latency.values().map(|(n, _)| n).sum::<usize>(), 4 * 8, "9 stamped CERs each");
    assert!(latency.values().all(|&(_, mean)| mean >= 10.0), "{latency:?}");

    // one view entry corrupted: the latency answer no longer matches
    sys.fleet_views().record_gaps("view-0", 99, vec![("B1".into(), 1)]);
    let err = sys.views_match_scan(2).unwrap_err();
    assert!(err.contains("latency"), "{err}");
}

/// The last admission of an instance tears after its `seen/` row; the
/// channel restarts the portal and replay stores the version, but nothing
/// recorded its gaps. The next read measures that process once, from the
/// pool, and keeps the result; a cold restart measures every process once.
#[test]
fn a_lagging_process_is_measured_once_after_a_torn_admission_and_a_restart() {
    let plan = FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 10);
    let rig = advanced_rig().with_faults(&plan);
    let sys = rig.cloud(2);
    drive(&rig, &sys, 0..1, sys.channel());
    assert_eq!(plan.fired(), 1, "the final admission tore");
    assert!(sys.journal_replays() > 0, "replay stored it");
    assert_eq!(sys.fleet_views().lagging_gaps(), [("view-0".to_string(), 9)]);
    assert_views_identical(&sys);
    assert!(sys.fleet_views().lagging_gaps().is_empty(), "measured once, kept");
    let before = scanned_rows(&sys);
    let live = sys.activity_latency_stats(2);
    assert_eq!(scanned_rows(&sys), before, "kept: no second read");

    let restored =
        CloudSystem::restore(rig.dir.clone(), 2, Arc::clone(&rig.network), &sys.snapshot_pool())
            .unwrap();
    assert_eq!(restored.fleet_views().lagging_gaps().len(), 1, "a restart seeds no gaps");
    assert_views_identical(&restored);
    assert_eq!(restored.activity_latency_stats(2), live, "a restart changes no answer");
}

/// East goes down mid-fleet: admissions fail over to west, whose replicas
/// the statistic now reads, and the view still answers what they hold.
#[test]
fn latency_view_survives_a_federated_failover() {
    let plan = FaultPlan::of([(site::cloud("east"), Trigger::From(10_000))]);
    let rig = advanced_rig().with_faults(&plan);
    let (sys, ctrl) = rig.federated(two_clouds());
    drive(&rig, &sys, 0..3, sys.channel());
    let stats = ctrl.stats();
    assert!(stats.replicas_acked > 0, "east admitted and replicated before it went down");
    assert_eq!((stats.failovers, stats.active_cloud), (1, 1), "then admissions failed over");
    assert_views_identical(&sys);
    assert_eq!(sys.activity_latency_stats(2).values().map(|(n, _)| n).sum::<usize>(), 3 * 8);
}

/// The operator's latency read touches no pool row: the view answers it.
#[test]
fn latency_statistic_on_a_fifty_instance_fleet_scans_no_row() {
    let rig = advanced_rig();
    let sys = rig.cloud(4);
    drive(&rig, &sys, 0..50, sys.channel());
    let before = scanned_rows(&sys);
    let latency = sys.activity_latency_stats(4);
    assert_eq!(scanned_rows(&sys) - before, 0, "no row scanned");
    assert_eq!(latency.values().map(|(n, _)| n).sum::<usize>(), 50 * 8);
}
