//! Integration: the cloud deployment — concurrent instances through portal
//! servers into the document pool, TO-DO notification, monitoring,
//! MapReduce statistics (claims C5 of DESIGN.md).

use dra4wfms::cloud::{CloudSystem, InstanceRun, NetworkSim};
use dra4wfms::docpool::Scan;
use dra4wfms::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn setup() -> (WorkflowDefinition, SecurityPolicy, Vec<Credentials>, Directory) {
    let creds: Vec<Credentials> = ["designer", "alice", "bob"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("cp-{n}")))
        .collect();
    let def = WorkflowDefinition::builder("ticket", "designer")
        .simple_activity("open", "alice", &["sev"])
        .simple_activity("close", "bob", &["fix"])
        .flow("open", "close")
        .flow_end("close")
        .build()
        .unwrap();
    let pol = SecurityPolicy::builder().restrict("open", "sev", &["bob"]).build();
    let dir = Directory::from_credentials(&creds);
    (def, pol, creds, dir)
}

fn agents(creds: &[Credentials], dir: &Directory) -> HashMap<String, Arc<Aea>> {
    creds.iter().map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone())))).collect()
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
    let (def, pol, creds, dir) = setup();
    let sys = Arc::new(CloudSystem::new(dir.clone(), 4, Arc::new(NetworkSim::lan())));
    let ags = Arc::new(agents(&creds, &dir));
    let designer = creds[0].clone();
    let n = 32;
    std::thread::scope(|s| {
        for w in 0..4 {
            let sys = Arc::clone(&sys);
            let ags = Arc::clone(&ags);
            let def = def.clone();
            let pol = pol.clone();
            let designer = designer.clone();
            s.spawn(move || {
                for i in (w..n).step_by(4) {
                    let initial = DraDocument::new_initial_with_pid(
                        &def,
                        &pol,
                        &designer,
                        &format!("t-{i:03}"),
                    )
                    .unwrap();
                    InstanceRun::new(&sys, &initial)
                        .agents(&ags)
                        .respond(&respond)
                        .max_steps(20)
                        .run()
                        .unwrap();
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
        assert_eq!(sys.active_pool().query_count(&Scan::prefix(&format!("doc/{pid}/"))), 3);
        // the stored final document verifies
        let xml = sys.retrieve_latest(0, &pid).unwrap();
        Verifier::new(&dir).run(&DraDocument::parse(&xml).unwrap()).unwrap();
    }
    let steps = sys.steps_per_workflow(4);
    assert_eq!(steps["ticket"], 2 * n);
}

#[test]
fn todo_lifecycle_across_portal() {
    let (def, pol, creds, dir) = setup();
    let sys = CloudSystem::new(dir.clone(), 2, Arc::new(NetworkSim::lan()));
    let initial = DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "todo-1").unwrap();

    // manual Fig. 7 loop: store initial -> alice's TO-DO -> execute -> bob
    sys.store_document(
        0,
        &initial.to_xml_string(),
        &Route { targets: vec!["open".into()], ends: false },
    )
    .unwrap();
    assert_eq!(sys.search_todo("alice").len(), 1);

    let alice = Aea::new(creds[1].clone(), dir.clone());
    let xml = sys.retrieve_latest(0, "todo-1").unwrap();
    let recv = alice.receive(&xml, "open").unwrap();
    let done = alice.complete(&recv, &[("sev".into(), "low".into())]).unwrap();
    sys.store_document(1, &done.document.to_xml_string(), &done.route).unwrap();
    sys.consume_todo("alice", "todo-1", "open");

    assert!(sys.search_todo("alice").is_empty());
    assert_eq!(
        sys.search_todo("bob"),
        vec![dra4wfms::cloud::TodoEntry { process_id: "todo-1".into(), activity: "close".into() }]
    );
}

#[test]
fn pool_survives_region_splits_under_document_load() {
    let (def, pol, creds, dir) = setup();
    let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
    // push enough instances to force region splits (max_region_rows = 1024)
    for i in 0..700 {
        let initial =
            DraDocument::new_initial_with_pid(&def, &pol, &creds[0], &format!("bulk-{i:05}"))
                .unwrap();
        sys.store_document(0, &initial.to_xml_string(), &Route::default()).unwrap();
    }
    let stats = sys.active_pool().stats();
    assert!(stats.regions > 1, "split under load: {stats:?}");
    assert_eq!(stats.rows, 3 * 700, "doc row + meta row + seen (dedup) row per instance");
    // random access still works post-split
    for i in [0, 350, 699] {
        assert!(sys.retrieve_latest(0, &format!("bulk-{i:05}")).is_some());
    }
}
