//! Integration: dynamic amendments interact correctly with the full cloud
//! stack — the runner, the TFC, the portals, monitoring and MapReduce
//! statistics.

use dra4wfms::prelude::*;
use dra_bench::rig::{cast, Rig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A two-step workflow, to be amended before anything executes, and the
/// cast and script that play the amended one.
fn rig(advanced: bool) -> Rig {
    let b = WorkflowDefinition::builder("amendable", "designer")
        .simple_activity("s1", "alice", &["x"])
        .simple_activity("s2", "bob", &["y"])
        .flow("s1", "s2")
        .flow_end("s2");
    let def = if advanced { b.with_tfc("TFC") } else { b }.build().unwrap();
    let creds = cast("acr", &["designer", "alice", "bob", "carol", "TFC"]);
    Rig::new(creds, def, SecurityPolicy::public(), respond)
}

fn extension() -> DefinitionDelta {
    DefinitionDelta {
        add_activities: vec![Activity {
            id: "extra".into(),
            participant: "carol".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("s1", "x")],
            responses: vec!["z".into()],
        }],
        add_transitions: vec![
            Transition { from: "s2".into(), to: Target::Activity("extra".into()), condition: None },
            Transition { from: "extra".into(), to: Target::End, condition: None },
        ],
        retire_transitions: vec![("s2".into(), Target::End)],
        add_policy_rules: vec![],
    }
}

fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "s1" => vec![("x".into(), "1".into())],
        "s2" => vec![("y".into(), "2".into())],
        "extra" => vec![("z".into(), "3".into())],
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn pre_amended_document_runs_through_the_cloud_basic() {
    let rig = rig(false);
    let sys = rig.cloud(2);
    // amendment lands before anything executes
    let amended = amend_document(&rig.initial("acr-1"), &rig.creds[0], &extension()).unwrap();
    let out = rig.run(&sys, &amended).run().unwrap();
    assert_eq!(out.steps, 3, "s1, s2, extra");
    let keys: Vec<String> =
        out.document.cers().unwrap().iter().map(|c| c.key.to_string()).collect();
    assert_eq!(keys, vec!["__amend#0", "s1#0", "s2#0", "extra#0"]);
    Verifier::new(&rig.dir).run(&out.document).unwrap();
    // the post-amendment executions all sign over the amendment
    for cer in out.document.cers().unwrap().iter().skip(1) {
        let scope = nonrepudiation_scope(&out.document, &PredRef::Cer(cer.key.clone())).unwrap();
        assert!(
            scope.contains(&PredRef::Cer(CerKey::new("__amend", 0))),
            "{} covers the amendment",
            cer.key
        );
    }
}

#[test]
fn pre_amended_document_runs_through_the_cloud_advanced() {
    let tick = AtomicU64::new(0);
    let rig =
        rig(true).tfc_clock(Arc::new(move || 500 + 10 * tick.fetch_add(1, Ordering::Relaxed)));
    let sys = rig.cloud(2);
    let amended = amend_document(&rig.initial("acr-2"), &rig.creds[0], &extension()).unwrap();
    let out = rig.run(&sys, &amended).run().unwrap();
    assert_eq!(out.steps, 3);
    // designer + amendment + 3 participants + 3 TFC attestations
    let report = Verifier::new(&rig.dir).run(&out.document).unwrap().report;
    assert_eq!(report.signatures_verified, 8);

    // monitoring statistics over the pool see the timestamp gaps
    let stats = sys.activity_latency_stats(2);
    assert!(stats.contains_key("s2"));
    assert!(stats.contains_key("extra"));
    let (count, mean) = stats["s2"];
    assert_eq!(count, 1);
    assert!(mean >= 10.0, "fixed clock advances 10ms per TFC call: {mean}");
}

#[test]
fn tampered_amendment_rejected_by_portal() {
    let rig = rig(false);
    let sys = rig.cloud(1);
    let amended = amend_document(&rig.initial("acr-3"), &rig.creds[0], &extension()).unwrap();
    let forged = amended.to_xml_string().replace("participant=\"carol\"", "participant=\"bob\"");
    assert_ne!(forged, amended.to_xml_string());
    assert!(sys.ingest_wire(0, &forged, &Route::default()).is_err());
    assert_eq!(sys.total_stored(), 0);
}
