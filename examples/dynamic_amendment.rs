//! Dynamic flow control (§1 feature list): amending a *running* process —
//! no engine to reconfigure, no redeployment. The designer appends a signed
//! amendment CER; every later signature covers it, so the rule change is as
//! nonrepudiable as the executions themselves.
//!
//! Scenario: a two-step contract workflow is running when a new compliance
//! rule lands — every contract now needs a compliance review, and the
//! review's notes must be readable only by the original submitter.
//!
//! Run with: `cargo run --example dynamic_amendment`

use dra4wfms::prelude::*;

fn main() -> WfResult<()> {
    let designer = Credentials::from_seed("designer", "dyn-designer");
    let alice = Credentials::from_seed("alice", "dyn-alice");
    let bob = Credentials::from_seed("bob", "dyn-bob");
    let compliance = Credentials::from_seed("compliance", "dyn-compliance");
    let directory = Directory::from_credentials([&designer, &alice, &bob, &compliance]);

    let def = WorkflowDefinition::builder("contract", "designer")
        .simple_activity("draft", "alice", &["text"])
        .simple_activity("sign", "bob", &["signature-ref"])
        .flow("draft", "sign")
        .flow_end("sign")
        .build()?;
    let initial = DraDocument::new_initial(&def, &SecurityPolicy::public(), &designer)?;

    // alice drafts the contract — the process is now in flight
    let aea_alice = Aea::new(alice, directory.clone());
    let received =
        aea_alice.receive(SealedDocument::from_wire(&initial.to_xml_string())?, "draft")?;
    let done = aea_alice.complete(&received, &[("text".into(), "the contract".into())])?;
    println!("draft executed; route = {:?}", done.route.targets);

    // the compliance rule lands: the designer amends the running process
    let delta = DefinitionDelta {
        add_activities: vec![Activity {
            id: "compliance-review".into(),
            participant: "compliance".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("draft", "text")],
            responses: vec!["notes".into()],
        }],
        add_transitions: vec![
            Transition {
                from: "sign".into(),
                to: Target::Activity("compliance-review".into()),
                condition: None,
            },
            Transition { from: "compliance-review".into(), to: Target::End, condition: None },
        ],
        retire_transitions: vec![("sign".into(), Target::End)],
        add_policy_rules: vec![FieldRule {
            activity: "compliance-review".into(),
            field: "notes".into(),
            readers: Readers::Only(vec!["alice".into()]),
        }],
    };
    let amended = amend_document(&done.document, &designer, &delta)?;
    println!(
        "amendment embedded as CER __amend#0; document verifies: {}",
        Verifier::new(&directory).run(&amended).is_ok()
    );

    // bob signs — and is routed to the NEW activity, not End
    let aea_bob = Aea::new(bob, directory.clone());
    let received = aea_bob.receive(SealedDocument::from_wire(&amended.to_xml_string())?, "sign")?;
    let done = aea_bob.complete(&received, &[("signature-ref".into(), "sig-0042".into())])?;
    println!("sign executed; route = {:?} (dynamically added)", done.route.targets);
    assert_eq!(done.route.targets, vec!["compliance-review"]);

    // compliance reviews; the dynamic policy encrypts notes for alice
    let aea_comp = Aea::new(compliance, directory.clone());
    let received = aea_comp
        .receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "compliance-review")?;
    println!(
        "compliance sees the draft text: {:?}",
        received.visible.iter().map(|(f, v)| format!("{}={v}", f.field)).collect::<Vec<_>>()
    );
    let done = aea_comp.complete(&received, &[("notes".into(), "clause 4 is risky".into())])?;
    assert!(done.route.ends);

    let report = Verifier::new(&directory).run(&done.document)?.report;
    println!(
        "final document: {} CERs (incl. the amendment), {} signatures verified",
        report.cers.len(),
        report.signatures_verified
    );

    // nonrepudiation of the rule change: bob's signature covers the
    // amendment — he cannot claim he signed under the old rules
    let scope = nonrepudiation_scope(&done.document, &PredRef::Cer(CerKey::new("sign", 0)))?;
    assert!(scope.contains(&PredRef::Cer(CerKey::new("__amend", 0))));
    println!("bob's nonrepudiation scope covers the amendment: rule change is binding");
    Ok(())
}
