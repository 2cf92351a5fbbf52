//! Integration: the cloud deployment — concurrent instances through portal
//! servers into the document pool, TO-DO notification, monitoring,
//! MapReduce statistics (claim C5 of EXPERIMENTS.md).

use dra4wfms::docpool::Scan;
use dra4wfms::prelude::*;
use dra_bench::rig::{cast, Rig};

/// A two-step ticket workflow whose severity only `bob` may read.
fn setup() -> Rig {
    let def = WorkflowDefinition::builder("ticket", "designer")
        .simple_activity("open", "alice", &["sev"])
        .simple_activity("close", "bob", &["fix"])
        .flow("open", "close")
        .flow_end("close")
        .build()
        .unwrap();
    let pol = SecurityPolicy::builder().restrict("open", "sev", &["bob"]).build();
    Rig::new(cast("cp", &["designer", "alice", "bob"]), def, pol, respond)
}

fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "open" => vec![("sev".into(), "high".into())],
        "close" => vec![("fix".into(), "done".into())],
        _ => vec![],
    }
}

#[test]
fn concurrent_instances_share_the_pool() {
    let rig = setup();
    let sys = rig.cloud(4);
    let n = 32;
    std::thread::scope(|s| {
        for w in 0..4 {
            let (rig, sys) = (&rig, &sys);
            s.spawn(move || {
                for i in (w..n).step_by(4) {
                    let initial = rig.initial(&format!("t-{i:03}"));
                    rig.run(sys, &initial).run().unwrap();
                }
            });
        }
    });

    // every instance completed, each with 3 stored versions
    let stats = sys.statistics_by_status(4);
    assert_eq!(stats["complete"], n);
    for i in 0..n {
        let pid = format!("t-{i:03}");
        let status = sys.process_status(&pid).unwrap().unwrap();
        assert_eq!(status.steps(), 2, "{pid}");
        assert_eq!(sys.active_pool().query(&Scan::prefix(&format!("doc/{pid}/"))).rows.len(), 3);
        // the stored final document verifies
        let xml = sys.retrieve_latest(0, &pid).unwrap();
        Verifier::new(&rig.dir).run(&DraDocument::parse(&xml).unwrap()).unwrap();
    }
    let steps = sys.steps_per_workflow(4);
    assert_eq!(steps["ticket"], 2 * n);
}

#[test]
fn todo_lifecycle_across_portal() {
    let rig = setup();
    let sys = rig.cloud(2);
    let initial = rig.initial("todo-1");

    // manual Fig. 7 loop: store initial -> alice's TO-DO -> execute -> bob
    sys.ingest_wire(
        0,
        &initial.to_xml_string(),
        &Route { targets: vec!["open".into()], ends: false },
    )
    .unwrap();
    assert_eq!(sys.search_todo("alice").len(), 1);

    let alice = &rig.agents["alice"];
    let xml = sys.retrieve_latest(0, "todo-1").unwrap();
    let recv = alice.receive(SealedDocument::from_wire(&xml).unwrap(), "open").unwrap();
    let done = alice.complete(&recv, &[("sev".into(), "low".into())]).unwrap();
    sys.ingest_wire(1, &done.document.to_xml_string(), &done.route).unwrap();
    sys.consume_todo("alice", "todo-1", "open");

    assert!(sys.search_todo("alice").is_empty());
    assert_eq!(
        sys.search_todo("bob"),
        vec![dra4wfms::cloud::TodoEntry { process_id: "todo-1".into(), activity: "close".into() }]
    );
}

#[test]
fn pool_serves_random_access_under_document_load() {
    let rig = setup();
    let sys = rig.cloud(1);
    for i in 0..700 {
        let initial = rig.initial(&format!("bulk-{i:05}"));
        sys.ingest_wire(0, &initial.to_xml_string(), &Route::default()).unwrap();
    }
    assert_eq!(
        sys.active_pool().row_count(),
        3 * 700 + 1,
        "doc row + meta row + seen (dedup) row per instance, one def row for all of them"
    );
    for i in [0, 350, 699] {
        assert!(sys.retrieve_latest(0, &format!("bulk-{i:05}")).is_some());
    }
}
