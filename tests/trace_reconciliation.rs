//! Integration: the document-vs-trace differential oracle (DESIGN §12).
//!
//! The signed document is the only *authoritative* record of a run; the
//! span trace is an untrusted witness. `reconcile` reconstructs the
//! timeline the document proves — executed activities in cascade order,
//! participants from the CERs, TFC timestamps — and checks the observed
//! trace against it. An honest trace of any Fig. 9 run (basic or advanced
//! model, lossy channel, injected crashes) must reconcile; a trace with a
//! reordered, dropped or forged hop must fail with a diagnostic naming the
//! exact divergence.

use dra4wfms::cloud::{FaultPlan, FaultProfile};
use dra4wfms::core::faultpoint::site;
use dra4wfms::obs::{stage, TraceEvent, Tracer, OUTCOME_OK};
use dra4wfms::prelude::*;
use dra_bench::fuzz::{self, GeneratedWorkflow};
use dra_bench::rig::Rig;

/// Drive one fully instrumented Fig. 9 instance and return the recorded
/// trace plus the final document.
fn instrumented_run(
    advanced: bool,
    hostile: bool,
    crash: bool,
    seed: u64,
) -> (Vec<TraceEvent>, DraDocument) {
    let plan = if crash {
        FaultPlan::once(site::AEA_BEFORE_SIGN, 1 + seed % 9)
    } else {
        FaultPlan::none()
    };
    let rig = Rig::fig9(advanced).with_faults(&plan);
    let sys = rig.cloud(3);
    let delivery = match hostile {
        true => rig.channel(FaultProfile::hostile(), seed),
        false => rig.channel(FaultProfile::lossless(), 0),
    };
    let initial = rig.initial("recon-run");
    let out = rig.run(&sys, &initial).network(&delivery).run().unwrap();
    assert_eq!(out.steps, 9);
    if crash {
        assert_eq!(plan.fired(), 1, "the scheduled crash fired");
    }
    (rig.tracer.events(), out.document.document().clone())
}

/// Indices of the successful hop events — the ones the oracle matches
/// against the document's cascade.
fn ok_hops(events: &[TraceEvent]) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.stage == stage::HOP && e.outcome == OUTCOME_OK)
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn honest_traces_reconcile_both_models() {
    for advanced in [false, true] {
        let (events, doc) = instrumented_run(advanced, false, false, 0);
        let report = reconcile(&events, &doc).unwrap();
        assert_eq!(report.hops_matched, 9);
        assert_eq!(report.crashed_attempts, 0);
        if advanced {
            assert_eq!(report.timestamps_witnessed, 9, "every CER timestamp witnessed");
        }
    }
}

#[test]
fn honest_traces_reconcile_under_faults_and_crashes() {
    for advanced in [false, true] {
        for (hostile, crash) in [(true, false), (false, true), (true, true)] {
            for seed in [1, 7, 42] {
                let (events, doc) = instrumented_run(advanced, hostile, crash, seed);
                let report = reconcile(&events, &doc).unwrap_or_else(|e| {
                    panic!("advanced={advanced} hostile={hostile} crash={crash} seed={seed}: {e}")
                });
                assert_eq!(report.hops_matched, 9);
                if crash {
                    assert_eq!(
                        report.crashed_attempts, 1,
                        "the crashed attempt is visible in the trace but proves nothing"
                    );
                }
            }
        }
    }
}

#[test]
fn reordered_trace_detected() {
    let (mut events, doc) = instrumented_run(false, false, false, 0);
    let hops = ok_hops(&events);
    // swap the first two executions the document proves in cascade order
    events.swap(hops[0], hops[1]);
    let err = reconcile(&events, &doc).unwrap_err();
    match &err {
        ReconcileError::OrderMismatch { position, .. } => assert_eq!(*position, 0),
        other => panic!("expected OrderMismatch, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("A#0") && msg.contains("B1#0"),
        "diagnostic names both sides of the divergence: {msg}"
    );
}

#[test]
fn dropped_hop_detected() {
    let (mut events, doc) = instrumented_run(false, false, false, 0);
    let hops = ok_hops(&events);
    let dropped = events.remove(hops[2]);
    let err = reconcile(&events, &doc).unwrap_err();
    match &err {
        ReconcileError::MissingFromTrace { position, expected } => {
            assert_eq!(*position, 2);
            assert_eq!(expected.activity, dropped.activity);
            assert_eq!(expected.iter, dropped.iter);
        }
        other => panic!("expected MissingFromTrace, got {other}"),
    }
    assert!(err.to_string().contains(&dropped.activity));
}

#[test]
fn forged_participant_detected() {
    let (mut events, doc) = instrumented_run(false, false, false, 0);
    let hops = ok_hops(&events);
    // the trace claims mallory executed the hop the document proves p_a did
    events[hops[0]].actor = "mallory".into();
    let err = reconcile(&events, &doc).unwrap_err();
    match &err {
        ReconcileError::ParticipantMismatch { document, trace, .. } => {
            assert_eq!(document.as_str(), "p_a");
            assert_eq!(trace.as_str(), "mallory");
        }
        other => panic!("expected ParticipantMismatch, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("mallory") && msg.contains("p_a"), "diagnostic names both: {msg}");
}

#[test]
fn fabricated_execution_detected() {
    let (mut events, doc) = instrumented_run(false, false, false, 0);
    // the trace claims a tenth execution the cascade never signed
    let hops = ok_hops(&events);
    let mut forged = events[hops[8]].clone();
    forged.activity = "D".into();
    forged.iter = 1;
    events.push(forged);
    let err = reconcile(&events, &doc).unwrap_err();
    assert!(
        matches!(err, ReconcileError::UnprovenExecution { position: 9, .. }),
        "expected UnprovenExecution, got {err}"
    );
}

#[test]
fn forged_timestamp_detected() {
    let (mut events, doc) = instrumented_run(true, false, false, 0);
    // rewrite one tfc:timestamp witness: the trace now claims a different
    // time than the one the TFC signed into the document
    let idx = events
        .iter()
        .position(|e| e.stage == stage::TFC_TIMESTAMP)
        .expect("advanced run records timestamp spans");
    for attr in events[idx].attrs.iter_mut() {
        if attr.0 == "ts_ms" {
            attr.1 = "999999".into();
        }
    }
    let err = reconcile(&events, &doc).unwrap_err();
    assert!(
        matches!(err, ReconcileError::TimestampMismatch { .. }),
        "expected TimestampMismatch, got {err}"
    );
}

/// Honest pattern run through the shared fuzz cast, returning the trace
/// and final document for document-side forgery.
fn pattern_run(
    def: WorkflowDefinition,
    script: &[(&str, &[(&str, &str)])],
) -> (Vec<TraceEvent>, DraDocument) {
    let gw = GeneratedWorkflow::scripted(def, script);
    let art = fuzz::run_generated(&gw, false, fuzz::Variant::Honest).unwrap();
    reconcile(&art.events, &art.document).expect("honest pattern run reconciles");
    (art.events, art.document)
}

#[test]
fn forged_cancellation_violation_detected() {
    // honest run: T completes and cancels V, so V never executes. The
    // attack appends an (unsigned) V CER to the document — reconcile's
    // cascade-semantics pass must flag the execution of a cancelled hop
    // even though the trace itself is untouched.
    let def = WorkflowDefinition::builder("recon-cancel", "designer")
        .simple_activity("F", "p0", &["f"])
        .simple_activity("T", "p1", &["f"])
        .simple_activity("V", "p2", &["f"])
        .activity(Activity {
            id: "J".into(),
            participant: "p3".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("F", "T")
        .flow("F", "V")
        .flow("T", "J")
        .flow("V", "J")
        .cancel_on("T", &["V"])
        .flow_end("J")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] =
        &[("F", &[("f", "fork")]), ("T", &[("f", "trig")]), ("J", &[("f", "after")])];
    let (events, doc) = pattern_run(def, script);
    // splice an unsigned V CER in front of the join's CER: the cascade now
    // claims the victim ran after the trigger had already cancelled it
    let wire = doc.to_xml_string();
    let at = wire.find("<CER activity=\"J\"").expect("join executed");
    let phantom = "<CER activity=\"V\" iter=\"0\" participant=\"p2\" preds=\"Def\"><Result/></CER>";
    let forged = DraDocument::parse(&format!("{}{}{}", &wire[..at], phantom, &wire[at..])).unwrap();
    let err = reconcile(&events, &forged).unwrap_err();
    match err {
        ReconcileError::CancelledExecution { key, trigger, .. } => {
            assert_eq!(format!("{key}"), "V#0");
            assert_eq!(trigger, "T");
        }
        other => panic!("expected CancelledExecution, got {other}"),
    }
}

#[test]
fn phantom_branch_or_join_detected() {
    // honest run: both branches deliver before the OR-join fires. The
    // attack moves the long branch's final CER behind the join's, making
    // the cascade claim the merge fired while that branch was still to
    // deliver — the join law must flag it.
    let def = WorkflowDefinition::builder("recon-or", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("L", "p1", &["f"])
        .simple_activity("R1", "p2", &["f"])
        .simple_activity("R2", "p3", &["f"])
        .activity(Activity {
            id: "J".into(),
            participant: "p0".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("A", "L")
        .flow("A", "R1")
        .flow("R1", "R2")
        .flow("L", "J")
        .flow("R2", "J")
        .flow_end("J")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] = &[
        ("A", &[("f", "a")]),
        ("L", &[("f", "l")]),
        ("R1", &[("f", "r1")]),
        ("R2", &[("f", "r2")]),
        ("J", &[("f", "j")]),
    ];
    let (events, doc) = pattern_run(def, script);
    let wire = doc.to_xml_string();
    let start = wire.find("<CER activity=\"R2\"").expect("R2 executed");
    let end = start + wire[start..].find("</CER>").unwrap() + "</CER>".len();
    let r2 = wire[start..end].to_string();
    let without = format!("{}{}", &wire[..start], &wire[end..]);
    let tail = without.find("</ActivityResults>").unwrap();
    let forged =
        DraDocument::parse(&format!("{}{}{}", &without[..tail], r2, &without[tail..])).unwrap();
    let err = reconcile(&events, &forged).unwrap_err();
    match err {
        ReconcileError::JoinMissingBranch { join, branch, .. } => {
            assert_eq!(format!("{join}"), "J#0");
            assert_eq!(branch, "R2");
        }
        other => panic!("expected JoinMissingBranch, got {other}"),
    }
}

#[test]
fn hops_in_causal_order_reconcile_though_the_cascade_reads_in_merge_order() {
    // A -> {L -> L2, Y} -> K (AND-join): the hops run A, L, Y, L2, K, but
    // the merged cascade lists Y's branch first. Each hop still follows
    // the executions it signed over, so the honest run reconciles.
    let def = WorkflowDefinition::builder("recon-causal", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("L", "p1", &["f"])
        .simple_activity("L2", "p2", &["f"])
        .simple_activity("Y", "p3", &["f"])
        .activity(Activity {
            id: "K".into(),
            participant: "p0".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("A", "L")
        .flow("A", "Y")
        .flow("L", "L2")
        .flow("L2", "K")
        .flow("Y", "K")
        .flow_end("K")
        .build()
        .unwrap();
    let f: &[(&str, &str)] = &[("f", "x")];
    let gw = GeneratedWorkflow::scripted(def, &[("A", f), ("L", f), ("L2", f), ("Y", f), ("K", f)]);
    for advanced in [false, true] {
        let art = fuzz::run_generated(&gw, advanced, fuzz::Variant::Honest).unwrap();
        let cascade: Vec<String> =
            art.document.cers().unwrap().iter().map(|c| c.key.activity.clone()).collect();
        let hops: Vec<&str> =
            ok_hops(&art.events).into_iter().map(|i| art.events[i].activity.as_str()).collect();
        assert_eq!(cascade, ["A", "Y", "L", "L2", "K"]);
        assert_eq!(hops, ["A", "L", "Y", "L2", "K"]);
        assert_eq!(reconcile(&art.events, &art.document).unwrap().hops_matched, 5);
    }
}

#[test]
fn disabled_tracer_records_nothing_and_cannot_reconcile() {
    let tracer = Tracer::disabled();
    let mut span = tracer.span(stage::HOP).actor("x");
    span.attr("k", "v");
    span.end();
    assert!(tracer.events().is_empty());

    // an empty trace fails against a document that proves executions
    let (_, doc) = instrumented_run(false, false, false, 0);
    let err = reconcile(&[], &doc).unwrap_err();
    assert!(matches!(err, ReconcileError::MissingFromTrace { position: 0, .. }));
}
