//! End-to-end workflow-pattern coverage through the event-driven scheduler:
//! OR-joins (synchronizing merges) that genuinely park and resume,
//! multi-instance activities with static and runtime cardinality,
//! cancellation regions that withdraw queued work, and design-time
//! soundness rejection at both admission gates (`Scheduler::admit_instance`
//! and the portal's own store path, `CloudSystem::ingest_wire`).

use dra4wfms::cloud::check_metric_invariants;
use dra4wfms::obs::MetricsSnapshot;
use dra4wfms::prelude::*;
use dra_bench::fuzz::{self, GeneratedWorkflow};
use dra_bench::rig::{cast, Rig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Drive `def` end to end through the scheduler with the fuzz cast
/// (`designer`, `p0`–`p3`, `TFC`) and a fixed script; return the final
/// document and the metrics snapshot.
fn run_def(
    def: WorkflowDefinition,
    script: &[(&str, &[(&str, &str)])],
    pid: &str,
) -> (DraDocument, MetricsSnapshot) {
    let rig = Rig::generated(&GeneratedWorkflow::scripted(def, script), false);
    let sys = rig.cloud(2);
    let initial = rig.initial(pid);
    let out = rig.run(&sys, &initial).run().unwrap();
    let snap = rig.metrics.snapshot();
    check_metric_invariants(&snap).unwrap();
    (out.document.document().clone(), snap)
}

fn cer_keys(doc: &DraDocument) -> Vec<String> {
    doc.cers().unwrap().iter().map(|c| format!("{}", c.key)).collect()
}

/// A `fork` whose short branch announces the OR-join while the long branch
/// still has a queued activation — the join must park, then resume.
fn asymmetric_or_join() -> WorkflowDefinition {
    WorkflowDefinition::builder("or-join", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("F", "p1", &["f"])
        .simple_activity("L", "p2", &["f"])
        .simple_activity("R1", "p3", &["f"])
        .simple_activity("R2", "p0", &["f"])
        .activity(Activity {
            id: "J".into(),
            participant: "p1".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("A", "F")
        .flow("F", "L")
        .flow("F", "R1")
        .flow("R1", "R2")
        .flow("L", "J")
        .flow("R2", "J")
        .flow_end("J")
        .build()
        .unwrap()
}

const OR_SCRIPT: &[(&str, &[(&str, &str)])] = &[
    ("A", &[("f", "a")]),
    ("F", &[("f", "fork")]),
    ("L", &[("f", "left")]),
    ("R1", &[("f", "r1")]),
    ("R2", &[("f", "r2")]),
    ("J", &[("f", "merged")]),
];

#[test]
fn or_join_parks_then_fires_once_with_both_branches() {
    let (doc, snap) = run_def(asymmetric_or_join(), OR_SCRIPT, "p-or");
    let keys = cer_keys(&doc);
    assert!(keys.contains(&"L#0".into()) && keys.contains(&"R2#0".into()));
    assert_eq!(keys.iter().filter(|k| k.starts_with("J#")).count(), 1, "join fired once: {keys:?}");
    assert!(snap.counter("sched.or_join_waits") >= 1, "the merge never actually deferred");
    assert_eq!(snap.gauge("sched.or_join_parked"), 0, "a parked join survived the drain");
}

#[test]
fn or_join_does_not_wait_for_a_branch_not_taken() {
    // the long branch is conditional and the guard says no: the OR-join
    // must fire on the short branch alone instead of deadlocking
    let def = WorkflowDefinition::builder("or-skip", "designer")
        .simple_activity("A", "p0", &["f", "go"])
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
        .flow_if("A", "R1", Condition::field_equals("A", "go", "yes"))
        .flow("R1", "R2")
        .flow("L", "J")
        .flow("R2", "J")
        .flow_end("J")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] =
        &[("A", &[("f", "a"), ("go", "no")]), ("L", &[("f", "left")]), ("J", &[("f", "merged")])];
    let (doc, snap) = run_def(def, script, "p-or-skip");
    let keys = cer_keys(&doc);
    assert!(keys.contains(&"J#0".into()), "{keys:?}");
    assert!(!keys.iter().any(|k| k.starts_with("R1#") || k.starts_with("R2#")), "{keys:?}");
    assert_eq!(snap.gauge("sched.or_join_parked"), 0);
}

#[test]
fn chained_or_joins_terminate() {
    // two parked merges in sequence: the drain-end resume path must make
    // progress on each without spinning
    let def = WorkflowDefinition::builder("or-chain", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("L1", "p1", &["f"])
        .simple_activity("M1", "p2", &["f"])
        .simple_activity("M2", "p3", &["f"])
        .activity(Activity {
            id: "J1".into(),
            participant: "p0".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .simple_activity("L2", "p1", &["f"])
        .simple_activity("N1", "p2", &["f"])
        .simple_activity("N2", "p3", &["f"])
        .activity(Activity {
            id: "J2".into(),
            participant: "p1".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("A", "L1")
        .flow("A", "M1")
        .flow("M1", "M2")
        .flow("L1", "J1")
        .flow("M2", "J1")
        .flow("J1", "L2")
        .flow("J1", "N1")
        .flow("N1", "N2")
        .flow("L2", "J2")
        .flow("N2", "J2")
        .flow_end("J2")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] = &[
        ("A", &[("f", "a")]),
        ("L1", &[("f", "l1")]),
        ("M1", &[("f", "m1")]),
        ("M2", &[("f", "m2")]),
        ("J1", &[("f", "j1")]),
        ("L2", &[("f", "l2")]),
        ("N1", &[("f", "n1")]),
        ("N2", &[("f", "n2")]),
        ("J2", &[("f", "j2")]),
    ];
    let (doc, snap) = run_def(def, script, "p-or-chain");
    let keys = cer_keys(&doc);
    assert!(keys.contains(&"J1#0".into()) && keys.contains(&"J2#0".into()), "{keys:?}");
    assert_eq!(snap.gauge("sched.or_join_parked"), 0);
}

#[test]
fn multi_instance_static_produces_k_cers() {
    let def = WorkflowDefinition::builder("mi-static", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("M", "p1", &["f"])
        .simple_activity("Z", "p2", &["f"])
        .flow("A", "M")
        .flow("M", "Z")
        .multi_static("M", 3)
        .flow_end("Z")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] =
        &[("A", &[("f", "a")]), ("M", &[("f", "m")]), ("Z", &[("f", "z")])];
    let (doc, _) = run_def(def, script, "p-mi-s");
    let keys = cer_keys(&doc);
    for iter in 0..3 {
        assert!(keys.contains(&format!("M#{iter}")), "{keys:?}");
    }
    assert!(!keys.contains(&"M#3".into()), "{keys:?}");
}

#[test]
fn multi_instance_runtime_cardinality_reads_producer_field() {
    let def = WorkflowDefinition::builder("mi-runtime", "designer")
        .simple_activity("A", "p0", &["f", "n"])
        .simple_activity("M", "p1", &["f"])
        .simple_activity("Z", "p2", &["f"])
        .flow("A", "M")
        .flow("M", "Z")
        .multi_runtime("M", "A", "n")
        .flow_end("Z")
        .build()
        .unwrap();
    let script: &[(&str, &[(&str, &str)])] =
        &[("A", &[("f", "a"), ("n", "2")]), ("M", &[("f", "m")]), ("Z", &[("f", "z")])];
    let (doc, _) = run_def(def, script, "p-mi-r");
    let keys = cer_keys(&doc);
    assert!(keys.contains(&"M#0".into()) && keys.contains(&"M#1".into()), "{keys:?}");
    assert!(!keys.contains(&"M#2".into()), "{keys:?}");
}

fn cancel_def(conditional: bool) -> WorkflowDefinition {
    let mut b =
        WorkflowDefinition::builder("cancel", "designer").simple_activity("F", "p0", &["f"]);
    b = if conditional {
        b.simple_activity("T", "p1", &["f", "cond"])
    } else {
        b.simple_activity("T", "p1", &["f"])
    };
    b = b
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
        .flow("V", "J");
    b = if conditional {
        b.cancel_on_if("T", Condition::field_equals("T", "cond", "yes"), &["V"])
    } else {
        b.cancel_on("T", &["V"])
    };
    b.flow_end("J").build().unwrap()
}

#[test]
fn cancellation_withdraws_the_queued_victim() {
    // T is announced before V, so V's activation is still queued when the
    // trigger completes — the region must withdraw it before it dispatches
    let script: &[(&str, &[(&str, &str)])] =
        &[("F", &[("f", "fork")]), ("T", &[("f", "trig")]), ("J", &[("f", "after")])];
    let (doc, snap) = run_def(cancel_def(false), script, "p-cancel");
    let keys = cer_keys(&doc);
    assert!(!keys.iter().any(|k| k.starts_with("V#")), "victim executed: {keys:?}");
    assert!(keys.contains(&"J#0".into()), "{keys:?}");
    assert!(snap.counter("sched.cancelled") >= 1);
    assert_eq!(snap.counter("sched.cancelled_dispatches"), 0);
}

#[test]
fn cancellation_guard_false_leaves_the_region_alone() {
    let script: &[(&str, &[(&str, &str)])] = &[
        ("F", &[("f", "fork")]),
        ("T", &[("f", "trig"), ("cond", "no")]),
        ("V", &[("f", "victim")]),
        ("J", &[("f", "after")]),
    ];
    let (doc, snap) = run_def(cancel_def(true), script, "p-cancel-no");
    let keys = cer_keys(&doc);
    assert!(keys.contains(&"V#0".into()), "guarded cancel fired anyway: {keys:?}");
    assert_eq!(snap.counter("sched.cancelled"), 0);
}

/// A loop feeding a synchronizing merge: L delivers to the OR-join J on
/// every lap and repeats through M while it answers "again"; J must wait
/// for the loop to settle, then fire once into the AND-join K.
fn loop_fed_or_join(advanced: bool) -> Rig {
    let mut def = WorkflowDefinition::builder("loop-or", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("L", "p1", &["f"])
        .simple_activity("M", "p2", &["f"])
        .simple_activity("Y", "p3", &["f"])
        .activity(Activity {
            id: "J".into(),
            participant: "p0".into(),
            join: JoinKind::Or,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .activity(Activity {
            id: "K".into(),
            participant: "p1".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec!["f".into()],
        })
        .flow("A", "L")
        .flow("A", "Y")
        .flow("L", "J")
        .flow_if("L", "M", Condition::field_equals("L", "f", "again"))
        .flow("M", "L")
        .flow("J", "K")
        .flow("Y", "K")
        .flow_end("K")
        .build()
        .unwrap();
    if advanced {
        def.tfc = Some("TFC".into());
    }
    let respond = |r: &ReceivedActivity| {
        let again = r.activity == "L" && r.iter < 2;
        vec![("f".to_string(), if again { "again" } else { "done" }.to_string())]
    };
    Rig::new(cast("fuzz", &fuzz::CAST), def, SecurityPolicy::public(), respond)
}

#[test]
fn loop_fed_or_join_waits_for_the_loop_then_fires_once() {
    for advanced in [false, true] {
        let rig = loop_fed_or_join(advanced);
        let sys = rig.cloud(2);
        let initial = rig.initial("p-loop-or");
        let out = rig.run(&sys, &initial).run().unwrap();
        let keys = cer_keys(out.document.document());
        if !advanced {
            let expected = ["A#0", "Y#0", "L#0", "M#0", "L#1", "M#1", "L#2", "J#0", "K#0"];
            assert_eq!(keys, expected);
        }
        assert_eq!(keys.iter().filter(|k| k.starts_with("J#")).count(), 1, "{keys:?}");
        let snap = rig.metrics.snapshot();
        assert!(snap.counter("sched.or_join_waits") >= 1, "the merge never deferred");
        check_metric_invariants(&snap).unwrap();
        reconcile(&rig.tracer.events(), out.document.document()).unwrap();
    }
}

/// A branch head — a stored version a delta hand-off is rebuilt from —
/// lives while a routed target of it has still to run: read between hops,
/// the heads held never exceed the process's live branches (two on Fig. 9A,
/// 9B and the OR-join; on the loop, the three laps the OR-join collects
/// and the AND-split's other branch), on the portals' side as on 9B's
/// TFC's, and none is left once a fleet of each has completed.
#[test]
fn branch_heads_are_bounded_by_live_branches_and_end_with_their_process() {
    let or_join = GeneratedWorkflow::scripted(asymmetric_or_join(), OR_SCRIPT);
    let cells = [
        ("fig. 9A", Rig::fig9(false), 2),
        ("fig. 9B", Rig::fig9(true), 2),
        ("a loop into an OR-join", loop_fed_or_join(false), 4),
        ("an OR-join", Rig::generated(&or_join, false), 2),
    ];
    for (cell, rig, live_branches) in cells {
        let rig = Arc::new(rig);
        let sys = Arc::new(rig.cloud(2));
        let most = Arc::new(AtomicUsize::new(0));
        let tfc_heads = |rig: &Rig| rig.tfc.as_ref().map_or(0, TfcServer::heads_held);
        let answer = {
            let (rig, sys, most) = (Arc::clone(&rig), Arc::clone(&sys), Arc::clone(&most));
            move |received: &ReceivedActivity| {
                most.fetch_max(sys.tips_held().max(tfc_heads(&rig)), Ordering::Relaxed);
                rig.answer(received)
            }
        };
        let initial = rig.initial("p-heads");
        rig.run(&sys, &initial).respond(&answer).run().unwrap();
        let most = most.load(Ordering::Relaxed);
        assert!(most > 0 && most <= live_branches, "{cell}: {most} heads held at once");
        assert_eq!(sys.tips_held() + tfc_heads(&rig), 0, "{cell}: the process ended");

        let pids = (0..4).map(|i| format!("p-fleet-{i}"));
        assert_eq!(rig.fleet(&sys, pids, sys.channel()), 4, "{cell}");
        assert_eq!(sys.tips_held() + tfc_heads(&rig), 0, "{cell}: the fleet completed");
        assert_eq!(sys.channel().stats().delta_fallbacks, 0, "{cell}: every base was held");
    }
}

#[test]
fn concurrent_deliveries_to_one_any_join_are_refused_at_admission() {
    // A -> B and A -> X -> B: both copies of the document would run B as B#0
    let def = WorkflowDefinition::builder("twice", "designer")
        .simple_activity("A", "p0", &["f"])
        .simple_activity("B", "p1", &["f"])
        .simple_activity("X", "p2", &["f"])
        .flow("A", "B")
        .flow("A", "X")
        .flow("X", "B")
        .flow_end("B")
        .build()
        .unwrap();
    match fuzz::admission_error(&def) {
        Some(WfError::Unsound(diag)) => assert!(diag.contains("Any-join 'B'"), "{diag}"),
        other => panic!("expected WfError::Unsound, got {other:?}"),
    }
}

#[test]
fn unsound_definition_rejected_at_scheduler_admission() {
    let err = fuzz::admission_error(&fuzz::canned_deadlock()).expect("not admitted");
    match err {
        WfError::Unsound(diag) => {
            assert!(diag.contains("J"), "diagnostic should name the stuck join: {diag}")
        }
        other => panic!("expected WfError::Unsound, got {other}"),
    }
}

#[test]
fn unsound_definition_rejected_at_portal_store() {
    // a document that reaches a portal without passing `admit_instance`
    // (an upload, a hop's result) is rejected by the portal's own
    // store-time gate, before any row is written
    let rig = Rig::generated(&GeneratedWorkflow::scripted(fuzz::canned_deadlock(), &[]), false);
    let sys = rig.cloud(1);
    let (def, initial) = (&rig.def, rig.initial("p-unsound-l"));
    let route = Route { targets: vec![def.start.clone()], ends: false };
    let err = sys.ingest_wire(0, &initial.to_xml_string(), &route).unwrap_err();
    match err {
        WfError::Unsound(_) => {}
        other => panic!("expected WfError::Unsound, got {other}"),
    }
    assert!(sys.retrieve_latest(0, "p-unsound-l").is_none(), "nothing was stored");
}
