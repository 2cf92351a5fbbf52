//! Quickstart: a two-activity expense workflow under the basic operational
//! model — no engine anywhere, the document protects itself.
//!
//! Run with: `cargo run --example quickstart`

use dra4wfms::prelude::*;

fn main() -> WfResult<()> {
    // 1. Actors: each owns a signing keypair (Ed25519) and an encryption
    //    keypair (X25519). The directory is the deployment's PKI.
    let designer = Credentials::from_seed("designer", "quickstart-designer");
    let alice = Credentials::from_seed("alice", "quickstart-alice");
    let bob = Credentials::from_seed("bob", "quickstart-bob");
    let directory = Directory::from_credentials([&designer, &alice, &bob]);

    // 2. The workflow definition: alice submits an expense, bob approves.
    let def = WorkflowDefinition::builder("expense-approval", "designer")
        .simple_activity("submit", "alice", &["amount", "reason"])
        .activity(Activity {
            id: "approve".into(),
            participant: "bob".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("submit", "amount"), FieldRef::new("submit", "reason")],
            responses: vec!["decision".into()],
        })
        .flow("submit", "approve")
        .flow_end("approve")
        .build()?;

    // 3. The security policy: the amount is element-wise encrypted so only
    //    bob (and alice, its author) can read it; the reason stays public.
    let policy = SecurityPolicy::builder().restrict("submit", "amount", &["bob"]).build();

    // 4. The designer signs the secured initial document.
    let initial = DraDocument::new_initial(&def, &policy, &designer)?;
    println!("initial document: {} bytes", initial.size_bytes());

    // 5. Alice's AEA: verify, execute, encrypt, sign, route.
    let aea_alice = Aea::new(alice, directory.clone());
    let received =
        aea_alice.receive(SealedDocument::from_wire(&initial.to_xml_string())?, "submit")?;
    println!(
        "alice opens 'submit' (verified {} signature(s))",
        received.report.signatures_verified
    );
    let done = aea_alice.complete(
        &received,
        &[("amount".into(), "120.50".into()), ("reason".into(), "team offsite".into())],
    )?;
    println!(
        "alice completed 'submit' -> route to {:?}, document now {} bytes",
        done.route.targets,
        done.document.size_bytes()
    );

    // 6. Bob's AEA: the cascade (designer + alice) verifies, the encrypted
    //    amount decrypts with bob's key.
    let aea_bob = Aea::new(bob, directory.clone());
    let received =
        aea_bob.receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "approve")?;
    println!(
        "bob opens 'approve' (verified {} signatures), sees:",
        received.report.signatures_verified
    );
    for (field, value) in &received.visible {
        println!("  {}.{} = {}", field.activity, field.field, value);
    }
    let done = aea_bob.complete(&received, &[("decision".into(), "approved".into())])?;
    assert!(done.route.ends);

    // 7. Anyone can audit the finished document.
    let report = Verifier::new(&directory).run(&done.document)?.report;
    println!(
        "final audit: {} CER(s), {} signatures verified, {} bytes",
        report.cers.len(),
        report.signatures_verified,
        done.document.size_bytes()
    );

    // 8. Nonrepudiation: bob's CER covers alice's — neither can deny.
    let scope = nonrepudiation_scope(&done.document, &PredRef::Cer(CerKey::new("approve", 0)))?;
    println!("nonrepudiation scope of approve#0: {scope:?}");
    assert!(scope.contains(&PredRef::Cer(CerKey::new("submit", 0))));
    assert!(scope.contains(&PredRef::Def));
    println!("ok: bob cannot deny having seen alice's submission and the definition");
    Ok(())
}
