//! The paper's Fig. 4 scenario: flow concealment / conflict of interest.
//!
//! Peter inputs `X` (confidential — only Amy may read it). Tony inputs `Y`,
//! whose audience depends on `Func(X)`: John if true, Mary otherwise. After
//! Tony there is an OR-split on `Func(X)` — which Tony must not see.
//!
//! * Under the **basic model**, Tony's AEA cannot resolve Y's audience nor
//!   evaluate the split: the run fails exactly as the paper argues.
//! * Under the **advanced model**, Tony seals his result to the TFC; the TFC
//!   (a notary that *can* read X) re-encrypts Y for the right recipient and
//!   routes the document — Tony learns nothing.
//!
//! Run with: `cargo run --example conflict_of_interest`

use dra4wfms::prelude::*;

struct Cast {
    designer: Credentials,
    peter: Credentials,
    tony: Credentials,
    tfc: Credentials,
    directory: Directory,
}

fn cast() -> Cast {
    let designer = Credentials::from_seed("designer", "coi-designer");
    let peter = Credentials::from_seed("peter", "coi-peter");
    let tony = Credentials::from_seed("tony", "coi-tony");
    let amy = Credentials::from_seed("amy", "coi-amy");
    let john = Credentials::from_seed("john", "coi-john");
    let mary = Credentials::from_seed("mary", "coi-mary");
    let tfc = Credentials::from_seed("TFC", "coi-tfc");
    let directory =
        Directory::from_credentials([&designer, &peter, &tony, &amy, &john, &mary, &tfc]);
    Cast { designer, peter, tony, tfc, directory }
}

fn definition(advanced: bool) -> WfResult<WorkflowDefinition> {
    let b = WorkflowDefinition::builder("fig4", "designer")
        .simple_activity("A1", "peter", &["X"])
        .simple_activity("A3", "tony", &["Y"])
        .simple_activity("A4", "john", &["j"])
        .simple_activity("A5", "mary", &["m"])
        .flow("A1", "A3")
        .flow_if("A3", "A4", Condition::field_equals("A1", "X", "true"))
        .flow_if("A3", "A5", Condition::field_not_equals("A1", "X", "true"))
        .flow_end("A4")
        .flow_end("A5");
    if advanced { b.with_tfc("TFC") } else { b }.build()
}

fn policy(def: &WorkflowDefinition, advanced: bool) -> SecurityPolicy {
    let p = SecurityPolicy::builder()
        .restrict("A1", "X", &["amy"]) // Tony must NOT read X
        .restrict_conditional(
            "A3",
            "Y",
            Condition::field_equals("A1", "X", "true"),
            &["john"],
            &["mary"],
        )
        .build();
    if advanced {
        p.with_tfc_access("TFC", def)
    } else {
        p
    }
}

fn main() -> WfResult<()> {
    let c = cast();

    println!("=== basic model: Tony's AEA hits the wall ===");
    let def = definition(false)?;
    let initial = DraDocument::new_initial(&def, &policy(&def, false), &c.designer)?;
    let aea_peter = Aea::new(c.peter.clone(), c.directory.clone());
    let received = aea_peter.receive(SealedDocument::from_wire(&initial.to_xml_string())?, "A1")?;
    let done = aea_peter.complete(&received, &[("X".into(), "true".into())])?;
    let aea_tony = Aea::new(c.tony.clone(), c.directory.clone());
    let received =
        aea_tony.receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "A3")?;
    match aea_tony.complete(&received, &[("Y".into(), "the payload".into())]) {
        Err(e) => println!("as the paper predicts, Tony cannot proceed:\n  {e}\n"),
        Ok(_) => unreachable!("basic model must fail on Fig. 4"),
    }

    println!("=== advanced model: the TFC resolves it ===");
    let def = definition(true)?;
    let initial = DraDocument::new_initial(&def, &policy(&def, true), &c.designer)?;
    let tfc = TfcServer::new(c.tfc.clone(), c.directory.clone());

    let received = aea_peter.receive(SealedDocument::from_wire(&initial.to_xml_string())?, "A1")?;
    let inter = aea_peter.complete_via_tfc(&received, &[("X".into(), "true".into())])?;
    let done = tfc.process(SealedDocument::from_wire(&inter.document.to_xml_string())?)?;
    println!("A1 finalized by TFC at t={} -> route {:?}", done.timestamp, done.route.targets);

    let received =
        aea_tony.receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "A3")?;
    println!(
        "Tony opens A3; hidden fields (cannot decrypt): {:?}",
        received.hidden.iter().map(|f| format!("{}.{}", f.activity, f.field)).collect::<Vec<_>>()
    );
    let inter = aea_tony.complete_via_tfc(&received, &[("Y".into(), "the payload".into())])?;
    let done = tfc.process(SealedDocument::from_wire(&inter.document.to_xml_string())?)?;
    println!(
        "A3 finalized by TFC -> route {:?} (Func(X) evaluated by the notary)",
        done.route.targets
    );
    assert_eq!(done.route.targets, vec!["A4"], "X=true routes to John");

    // Y is encrypted for John, not Mary — inspect the stored CER
    let cer = done.document.find_cer(&CerKey::new("A3", 0))?.unwrap();
    let enc = cer
        .result()
        .unwrap()
        .child_elements()
        .find(|e| e.get_attr("field") == Some("Y"))
        .expect("Y stored encrypted");
    println!(
        "recipients of Y in the stored document: {:?}",
        dra4wfms::xml::enc::recipients_of(enc)
    );

    let report = Verifier::new(&c.directory).run(&done.document)?.report;
    println!(
        "document verifies: {} signatures (participants + TFC attestations)",
        report.signatures_verified
    );
    Ok(())
}
