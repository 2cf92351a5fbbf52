//! The paper's experimental workflow (Fig. 9) as a cross-enterprise purchase
//! order, executed under the **advanced operational model** (Fig. 9B): every
//! hop passes through the TFC server, which timestamps and re-encrypts.
//!
//! The process: a supplier submits an order package (A), two reviewers at
//! the buyer check it in parallel (AND-split B1/B2), a purchasing officer
//! consolidates (AND-join C) and either loops back ("attachment is
//! insufficient") or accepts, after which fulfilment acknowledges (D).
//!
//! Run with: `cargo run --example purchase_order`

use dra4wfms::cloud::{CloudSystem, InstanceRun, NetworkSim};
use dra4wfms::core::monitor::ProcessStatus;
use dra4wfms::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn fig9_definition() -> WfResult<WorkflowDefinition> {
    WorkflowDefinition::builder("purchase-order", "designer")
        .simple_activity("A", "supplier", &["attachment", "total"])
        .activity(Activity {
            id: "B1".into(),
            participant: "reviewer-finance".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("A", "total")],
            responses: vec!["finance-check".into()],
        })
        .activity(Activity {
            id: "B2".into(),
            participant: "reviewer-legal".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("A", "attachment")],
            responses: vec!["legal-check".into()],
        })
        .activity(Activity {
            id: "C".into(),
            participant: "purchasing".into(),
            join: JoinKind::All, // AND-join of B1 and B2
            requests: vec![
                FieldRef::new("B1", "finance-check"),
                FieldRef::new("B2", "legal-check"),
            ],
            responses: vec!["decision".into()],
        })
        .simple_activity("D", "fulfilment", &["ack"])
        .flow("A", "B1") // AND-split
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
        .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
        .flow_end("D")
        .with_tfc("TFC")
        .build()
}

fn main() -> WfResult<()> {
    let names = [
        "designer",
        "supplier",
        "reviewer-finance",
        "reviewer-legal",
        "purchasing",
        "fulfilment",
        "TFC",
    ];
    let creds: Vec<Credentials> =
        names.iter().map(|n| Credentials::from_seed(*n, &format!("po-{n}"))).collect();
    let directory = Directory::from_credentials(&creds);

    let def = fig9_definition()?;
    // the total is commercially sensitive: only finance + purchasing read it
    let policy = SecurityPolicy::builder()
        .restrict("A", "total", &["reviewer-finance", "purchasing"])
        .build()
        .with_tfc_access("TFC", &def);

    let designer = &creds[0];
    let initial = DraDocument::new_initial(&def, &policy, designer)?;
    println!("process id: {}", initial.process_id()?);

    // the cloud deployment: 3 portal servers over the document pool
    let system = CloudSystem::new(directory.clone(), 3, Arc::new(NetworkSim::wan()));
    let tfc_creds = creds.iter().find(|c| c.name == "TFC").unwrap().clone();
    let tfc = TfcServer::new(tfc_creds, directory.clone());

    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), directory.clone()))))
        .collect();

    // scripted participants: C rejects once (the Fig. 9 "attachment is
    // insufficient" loop), then accepts
    let respond = |received: &ReceivedActivity| -> Vec<(String, String)> {
        println!(
            "  [{}] {} executes {}#{} ({} visible field(s))",
            received.definition.def.name,
            received.definition.def.activity(&received.activity).unwrap().participant,
            received.activity,
            received.iter,
            received.visible.len()
        );
        match received.activity.as_str() {
            "A" => vec![
                ("attachment".into(), format!("contract-rev{}.pdf", received.iter)),
                ("total".into(), "48,000 USD".into()),
            ],
            "B1" => vec![("finance-check".into(), "within budget".into())],
            "B2" => vec![("legal-check".into(), "clauses ok".into())],
            "C" => vec![(
                "decision".into(),
                if received.iter == 0 { "insufficient" } else { "accept" }.into(),
            )],
            "D" => vec![("ack".into(), "scheduled".into())],
            _ => vec![],
        }
    };

    let out = InstanceRun::new(&system, &initial)
        .agents(&agents)
        .tfc(&tfc)
        .respond(&respond)
        .max_steps(100)
        .run()?;
    println!("\nprocess completed in {} activity executions", out.steps);

    // monitoring (works on the document alone — no engine owns the state)
    let status = ProcessStatus::from_document(&out.document)?;
    print!("{}", status.audit_trail());
    println!("elapsed between first/last TFC timestamps: {:?} ms", status.elapsed_millis());

    // the stored document verifies fully
    let report = Verifier::new(&directory).run(&out.document)?.report;
    println!(
        "final verification: {} signatures over {} CERs, document {} bytes",
        report.signatures_verified,
        report.cers.len(),
        out.document.size_bytes()
    );

    // MapReduce statistics over the pool (paper §4.2)
    println!("pool statistics by status: {:?}", system.statistics_by_status(4));
    println!(
        "network: {} messages, {} bytes, virtual time {} ms",
        system.network.messages(),
        system.network.bytes(),
        system.network.virtual_time_us() / 1000
    );
    Ok(())
}
