//! The paper's central security claim, demonstrated head to head:
//!
//! 1. In an **engine-based WfMS**, a database superuser rewrites a stored
//!    execution result and the audit log. The stored instance looks
//!    perfectly genuine — nonrepudiation is impossible (paper §1).
//! 2. In **DRA4WfMS**, the same rewrite on the routed document breaks the
//!    signature cascade and is detected by the next verifier; Algorithm 1
//!    then tells us exactly which participants are bound by which results.
//!
//! Run with: `cargo run --example tamper_detection`

use dra4wfms::engine::WorkflowEngine;
use dra4wfms::prelude::*;

fn definition() -> WfResult<WorkflowDefinition> {
    WorkflowDefinition::builder("wire-transfer", "designer")
        .simple_activity("request", "alice", &["amount"])
        .activity(Activity {
            id: "sign-off".into(),
            participant: "bob".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("request", "amount")],
            responses: vec!["approval".into()],
        })
        .flow("request", "sign-off")
        .flow_end("sign-off")
        .build()
}

fn main() -> WfResult<()> {
    let def = definition()?;

    // ------------------------------------------------------------------
    println!("=== 1. engine-based WfMS: superuser tampering is undetectable ===");
    let engine = WorkflowEngine::new("corp-engine");
    let pid = engine.start_process(&def).expect("start");
    engine
        .execute_activity(pid, "request", "alice", &[("amount".into(), "100".into())])
        .expect("alice executes");
    engine
        .execute_activity(pid, "sign-off", "bob", &[("approval".into(), "granted".into())])
        .expect("bob executes");

    println!(
        "stored amount before tamper: {:?}",
        engine.get_instance(pid).unwrap().field("request", "amount")
    );

    // the DBA rewrites the amount and forges a clean log
    let su = engine.superuser();
    su.alter_result(pid, "request", "amount", "1000000").unwrap();
    su.rewrite_log(
        pid,
        vec![
            "process started on engine corp-engine".into(),
            "request#0 executed by alice".into(),
            "sign-off#0 executed by bob".into(),
        ],
    )
    .unwrap();

    let inst = engine.get_instance(pid).unwrap();
    println!("stored amount after tamper:  {:?}", inst.field("request", "amount"));
    println!("audit log after tamper:      {:?}", inst.log);
    println!("-> nothing in the instance reveals the rewrite; alice can repudiate the");
    println!("   1,000,000 and the company cannot prove either version. QED §1.\n");

    // ------------------------------------------------------------------
    println!("=== 2. DRA4WfMS: the same rewrite breaks the cascade ===");
    let designer = Credentials::from_seed("designer", "td-designer");
    let alice = Credentials::from_seed("alice", "td-alice");
    let bob = Credentials::from_seed("bob", "td-bob");
    let directory = Directory::from_credentials([&designer, &alice, &bob]);

    let initial = DraDocument::new_initial(&def, &SecurityPolicy::public(), &designer)?;
    let aea_alice = Aea::new(alice, directory.clone());
    let received =
        aea_alice.receive(SealedDocument::from_wire(&initial.to_xml_string())?, "request")?;
    let done = aea_alice.complete(&received, &[("amount".into(), "100".into())])?;
    let aea_bob = Aea::new(bob, directory.clone());
    let received =
        aea_bob.receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "sign-off")?;
    let done = aea_bob.complete(&received, &[("approval".into(), "granted".into())])?;

    // a "superuser" holding the stored document rewrites alice's 100
    let tampered_xml = done.document.to_xml_string().replace(">100<", ">1000000<");
    assert_ne!(tampered_xml, done.document.to_xml_string(), "tamper applied");
    let tampered = DraDocument::parse(&tampered_xml)?;

    match Verifier::new(&directory).run(&tampered) {
        Err(e) => println!("verification of tampered document FAILED as required:\n  {e}"),
        Ok(_) => unreachable!("tampering must be detected"),
    }

    // the genuine document still verifies, and Algorithm 1 binds everyone
    let report = Verifier::new(&directory).run(&done.document)?.report;
    println!(
        "\ngenuine document verifies: {} signatures over {} CERs",
        report.signatures_verified,
        report.cers.len()
    );
    for key in &report.cers {
        let scope = nonrepudiation_scope(&done.document, &PredRef::Cer(key.clone()))?;
        println!("nonrepudiation scope of {key}: {} node(s)", scope.len());
    }
    println!("-> bob's signature covers alice's CER and the definition: neither party");
    println!("   can repudiate, and no storage administrator can rewrite history.");
    Ok(())
}
