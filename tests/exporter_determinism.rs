//! Integration: trace exporters are byte-deterministic (DESIGN §14).
//!
//! Spans are stamped in virtual time and documents sign deterministically,
//! so a fixed workload must export byte-identical JSONL and Chrome-trace
//! files on every run, on every machine. The goldens under `tests/golden/`
//! pin the exact bytes; regenerate them after an intentional format or
//! instrumentation change with:
//!
//! ```sh
//! REGEN_GOLDEN=1 cargo test --test exporter_determinism
//! ```

use dra4wfms::cloud::{tracer_for, CloudSystem, InstanceRun, NetworkSim};
use dra4wfms::obs::{events_to_chrome, events_to_jsonl, TraceEvent};
use dra4wfms::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

fn fig9a_def() -> WorkflowDefinition {
    WorkflowDefinition::builder("fig9", "designer")
        .simple_activity("A", "p_a", &["attachment"])
        .simple_activity("B1", "p_b1", &["review1"])
        .simple_activity("B2", "p_b2", &["review2"])
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![],
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

/// The canonical golden workload: one instrumented Fig. 9A instance on the
/// direct (lossless) path, everything seeded.
fn golden_trace() -> Vec<TraceEvent> {
    let creds: Vec<Credentials> = ["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("golden-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    let network = Arc::new(NetworkSim::lan());
    let tracer = tracer_for(&network);
    let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network)).with_tracer(tracer.clone());
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| {
            let aea = Aea::new(c.clone(), dir.clone()).with_tracer(tracer.clone());
            (c.name.clone(), Arc::new(aea))
        })
        .collect();
    let initial = DraDocument::new_initial_with_pid(
        &fig9a_def(),
        &SecurityPolicy::public(),
        &creds[0],
        "golden-run",
    )
    .unwrap();
    let respond = |received: &ReceivedActivity| match received.activity.as_str() {
        "A" => vec![("attachment".into(), "contract.pdf".into())],
        "B1" => vec![("review1".into(), "ok".into())],
        "B2" => vec![("review2".into(), "ok".into())],
        "C" => vec![(
            "decision".to_string(),
            if received.iter == 0 { "insufficient" } else { "accept" }.to_string(),
        )],
        "D" => vec![("ack".into(), "done".into())],
        _ => vec![],
    };
    let out = InstanceRun::new(&sys, &initial)
        .agents(&agents)
        .respond(&respond)
        .max_steps(100)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    assert_eq!(out.steps, 9);
    tracer.events()
}

fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} (REGEN_GOLDEN=1 to create): {e}"));
    assert_eq!(
        rendered, golden,
        "{name} diverged from its golden — exporter bytes must stay deterministic; \
         regenerate with REGEN_GOLDEN=1 only after an intentional format change"
    );
}

#[test]
fn repeated_runs_export_identical_bytes() {
    let first = golden_trace();
    let second = golden_trace();
    assert_eq!(events_to_jsonl(&first), events_to_jsonl(&second));
    assert_eq!(events_to_chrome(&first), events_to_chrome(&second));
}

#[test]
fn jsonl_export_matches_golden() {
    check_golden("fig9a.trace.jsonl", &events_to_jsonl(&golden_trace()));
}

#[test]
fn chrome_export_matches_golden() {
    check_golden("fig9a.chrome.json", &events_to_chrome(&golden_trace()));
}

#[test]
fn exports_parse_back_structurally() {
    let events = golden_trace();
    let jsonl = events_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len(), "one JSON object per event");
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"seq\":") && line.ends_with('}'));
    }
    let chrome = events_to_chrome(&events);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), events.len());
}
