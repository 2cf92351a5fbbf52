//! Crash-fault recovery, end to end: the takeover copy racing the dead
//! agent's delayed send, the TFC redo log making re-executed hops
//! byte-identical, and the channel — not the scheduler — repairing a portal.

use dra4wfms_core::faultpoint::site;
use dra4wfms_core::prelude::*;
use dra_bench::rig::{cast, Rig};
use dra_cloud::FaultPlan;
use dra_docpool::Scan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Two activities in a row, through the TFC when `advanced`; the hops are
/// made by hand below, so the script is never asked.
fn two_step(advanced: bool) -> Rig {
    let b = WorkflowDefinition::builder("race", "designer")
        .simple_activity("submit", "alice", &["amount"])
        .simple_activity("approve", "bob", &["decision"])
        .flow("submit", "approve")
        .flow_end("approve");
    let def = if advanced { b.with_tfc("TFC") } else { b }.build().unwrap();
    let creds = cast("crash-it", &["designer", "alice", "bob", "TFC"]);
    Rig::new(creds, def, SecurityPolicy::public(), |_| vec![])
}

/// Satellite scenario: the executing agent signs and sends, then dies — its
/// copy is *delayed*, not lost. The supervisor's lease expires, a recovered
/// agent re-executes the hop from the pool copy and stores first. When the
/// dead agent's copy finally arrives, the portal must recognise it by wire
/// digest: exactly one stored version, `StoreAck { duplicate: true }`.
#[test]
fn takeover_copy_wins_race_with_dead_agents_delayed_send() {
    let rig = two_step(false);
    let sys = rig.cloud(2);
    sys.ingest_wire(
        0,
        &rig.initial("race-1").to_xml_string(),
        &Route { targets: vec!["submit".into()], ends: false },
    )
    .unwrap();

    // the doomed agent executes the hop and signs; its send goes into the
    // network but the agent dies before seeing an ack — we hold the copy
    let doomed = rig.agent("alice");
    let input = SealedDocument::from_wire(&sys.retrieve_latest(0, "race-1").unwrap()).unwrap();
    let received = doomed.receive(input, "submit").unwrap();
    let responses = vec![("amount".to_string(), "100".to_string())];
    let in_flight = doomed.complete(&received, &responses).unwrap();
    drop(doomed); // the crash: in-flight state gone, only the pool survives

    // lease expires; a recovered agent takes the hop over, re-anchored on
    // the pool's latest document — deterministic signing makes the result
    // byte-identical to what the dead agent produced
    let recovered = rig.agent("alice");
    let input = SealedDocument::from_wire(&sys.retrieve_latest(1, "race-1").unwrap()).unwrap();
    let received = recovered.receive(input, "submit").unwrap();
    let takeover = recovered.complete(&received, &responses).unwrap();
    assert_eq!(
        takeover.document.wire(),
        in_flight.document.wire(),
        "re-executed hop is byte-identical"
    );

    let ack = sys.ingest_wire(1, &takeover.document.wire(), &takeover.route).unwrap();
    assert!(!ack.duplicate, "takeover copy stores first");

    // now the dead agent's delayed copy limps in — suppressed, not re-stored
    let late = sys.ingest_wire(0, &in_flight.document.wire(), &in_flight.route).unwrap();
    assert!(late.duplicate, "delayed copy recognised by wire digest");
    assert_eq!(late.seq, ack.seq);
    assert_eq!(
        sys.active_pool().query(&Scan::prefix("doc/race-1/")).rows.len(),
        2,
        "initial + one CER, no phantom"
    );
    assert_eq!(sys.total_duplicates_suppressed(), 1);

    // bob was notified exactly once and the flow can continue
    assert_eq!(sys.search_todo("bob").len(), 1);
}

/// Advanced-model variant: the crash hits between the TFC's timestamp draw
/// and its re-encrypt. The redo log must re-emit the *same* timestamped
/// document on re-execution — one clock draw, one `<Timestamp`, and the
/// delayed original still dedups at the portal.
#[test]
fn tfc_redo_keeps_reexecuted_hop_byte_identical() {
    let draws = Arc::new(AtomicU64::new(0));
    let clock_draws = Arc::clone(&draws);
    let rig = two_step(true)
        .tfc_clock(Arc::new(move || 5_000 + clock_draws.fetch_add(1, Ordering::Relaxed)));
    let (sys, tfc) = (rig.cloud(2), rig.tfc.as_ref().unwrap());
    sys.ingest_wire(
        0,
        &rig.initial("race-2").to_xml_string(),
        &Route { targets: vec!["submit".into()], ends: false },
    )
    .unwrap();

    // first execution reaches the TFC, which timestamps and finalizes —
    // then the result is lost with the crashing sender
    let alice = rig.agent("alice");
    let input = SealedDocument::from_wire(&sys.retrieve_latest(0, "race-2").unwrap()).unwrap();
    let received = alice.receive(input, "submit").unwrap();
    let responses = vec![("amount".to_string(), "7".to_string())];
    let inter1 = alice.complete_via_tfc(&received, &responses).unwrap();
    let processed = tfc.receive(inter1.document.clone()).unwrap();
    let final1 = tfc.finalize(&processed).unwrap();
    assert_eq!(draws.load(Ordering::Relaxed), 1);

    // takeover: a recovered agent re-executes; deterministic sealing makes
    // the TFC-bound intermediate byte-identical, so the redo log replays
    // the recorded result instead of double-timestamping
    let recovered = rig.agent("alice");
    let input = SealedDocument::from_wire(&sys.retrieve_latest(1, "race-2").unwrap()).unwrap();
    let received = recovered.receive(input, "submit").unwrap();
    let inter2 = recovered.complete_via_tfc(&received, &responses).unwrap();
    assert_eq!(
        inter2.document.wire(),
        inter1.document.wire(),
        "deterministic sealing: TFC-bound hand-off is reproducible"
    );
    let processed2 = tfc.receive(inter2.document.clone()).unwrap();
    let final2 = tfc.finalize(&processed2).unwrap();

    assert_eq!(final2.document.wire(), final1.document.wire(), "redo re-emits the same bytes");
    assert_eq!(final2.timestamp, final1.timestamp);
    assert_eq!(draws.load(Ordering::Relaxed), 1, "exactly one clock draw across both runs");
    assert!(tfc.redo_reuses() >= 1);
    assert_eq!(
        final2.document.wire().matches("<Timestamp").count(),
        final1.document.wire().matches("<Timestamp").count(),
        "no double timestamp"
    );

    // both copies head for the portal; only one version lands
    let ack = sys.ingest_wire(0, &final2.document.wire(), &final2.route).unwrap();
    assert!(!ack.duplicate);
    let late = sys.ingest_wire(1, &final1.document.wire(), &final1.route).unwrap();
    assert!(late.duplicate);
    assert_eq!(sys.active_pool().query(&Scan::prefix("doc/race-2/")).rows.len(), 2);
}

/// A portal that dies mid-store has one recovery owner on every run, the
/// one that names no channel included: the channel restarts it (journal
/// replay) and retries; no lease is waited out.
#[test]
fn a_dead_portal_is_restarted_by_the_channel_not_waited_out_by_the_scheduler() {
    let run = |plan: Arc<FaultPlan>| {
        let rig = Rig::fig9(false).with_faults(&plan).unmonitored();
        let sys = rig.cloud(3);
        let out = rig.run(&sys, &rig.initial("portal-dies")).run().unwrap();
        assert_eq!(out.steps, 9);
        let timeouts = rig.metrics.snapshot().counter("run.timeouts");
        (out.delivery, sys.pool_digest(), sys.journal_replays(), timeouts)
    };
    let (clean, clean_digest, ..) = run(FaultPlan::none());
    let (stats, digest, replays, timeouts) =
        run(FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 2));
    assert_eq!((clean.crashes_injected, clean.retries), (0, 0));
    assert_eq!((stats.crashes_injected, replays), (1, 1));
    assert_eq!(stats.retries, 1, "the channel sent the same bytes again");
    assert_eq!(timeouts, 0, "the scheduler never saw the crash");
    assert_eq!(digest, clean_digest, "same pool as the crash-free run");
}
