//! Cloud-scale demo: many concurrent process instances flowing through the
//! portal servers into the document pool, then MapReduce statistics over the
//! pool — the deployment shape of the paper's Fig. 7 and §4.2.
//!
//! Run with: `cargo run --release --example cloud_scale [instances] [threads]`

use dra4wfms::cloud::{CloudSystem, InstanceRun, NetworkSim};
use dra4wfms::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn definition() -> WfResult<WorkflowDefinition> {
    WorkflowDefinition::builder("ticket", "designer")
        .simple_activity("open", "alice", &["title", "severity"])
        .activity(Activity {
            id: "triage".into(),
            participant: "bob".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("open", "severity")],
            responses: vec!["assignee".into()],
        })
        .simple_activity("resolve", "carol", &["fix"])
        .flow("open", "triage")
        .flow("triage", "resolve")
        .flow_end("resolve")
        .build()
}

fn main() -> WfResult<()> {
    let args: Vec<String> = std::env::args().collect();
    let instances: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);

    let names = ["designer", "alice", "bob", "carol"];
    let creds: Vec<Credentials> =
        names.iter().map(|n| Credentials::from_seed(*n, &format!("cs-{n}"))).collect();
    let directory = Directory::from_credentials(&creds);
    let def = definition()?;
    let policy = SecurityPolicy::builder().restrict("open", "severity", &["bob", "carol"]).build();

    let system = Arc::new(CloudSystem::new(directory.clone(), 4, Arc::new(NetworkSim::lan())));
    let agents: Arc<HashMap<String, Arc<Aea>>> = Arc::new(
        creds
            .iter()
            .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), directory.clone()))))
            .collect(),
    );

    let respond = |received: &ReceivedActivity| -> Vec<(String, String)> {
        match received.activity.as_str() {
            "open" => {
                vec![("title".into(), "printer on fire".into()), ("severity".into(), "high".into())]
            }
            "triage" => vec![("assignee".into(), "carol".into())],
            "resolve" => vec![("fix".into(), "extinguished".into())],
            _ => vec![],
        }
    };

    println!("running {instances} instances across {threads} worker threads…");
    let started = Instant::now();
    let designer = creds[0].clone();
    std::thread::scope(|s| {
        for w in 0..threads {
            let system = Arc::clone(&system);
            let agents = Arc::clone(&agents);
            let def = def.clone();
            let policy = policy.clone();
            let designer = designer.clone();
            s.spawn(move || {
                for i in (w..instances).step_by(threads) {
                    let initial = DraDocument::new_initial_with_pid(
                        &def,
                        &policy,
                        &designer,
                        &format!("ticket-{i:05}"),
                    )
                    .expect("initial");
                    InstanceRun::new(&system, &initial)
                        .agents(&agents)
                        .respond(&respond)
                        .max_steps(50)
                        .run()
                        .expect("instance run");
                }
            });
        }
    });
    let wall = started.elapsed();

    println!(
        "completed {} instances ({} activity executions) in {:.2?} — {:.1} exec/s",
        instances,
        instances * 3,
        wall,
        (instances * 3) as f64 / wall.as_secs_f64()
    );
    println!("pool: {} rows", system.active_pool().row_count());
    println!(
        "network: {} messages, {:.1} MB",
        system.network.messages(),
        system.network.bytes() as f64 / 1e6
    );

    // MapReduce statistics across every stored process (paper §4.2)
    let t = Instant::now();
    let by_status = system.statistics_by_status(1);
    let steps = system.steps_per_workflow(1);
    println!(
        "mapreduce over the pool in {:.2?}: status={by_status:?}, steps-per-workflow={steps:?}",
        t.elapsed()
    );

    // spot-check one instance end to end
    let status = system.process_status("ticket-00000")?.expect("stored");
    println!("sample instance audit:\n{}", status.audit_trail());
    Ok(())
}
