//! A cross-enterprise insurance claim authored in the workflow DSL, with
//! **group audiences**: the claim amount is readable by the whole
//! `adjusters` group (any member can pick up the review), while medical
//! details stay restricted to the medical examiner alone.
//!
//! Run with: `cargo run --example insurance_claim`

use dra4wfms::core::dsl::parse_workflow;
use dra4wfms::prelude::*;

const WORKFLOW: &str = r#"
# claim intake -> parallel adjustment + medical review -> settlement
workflow "insurance-claim" designer "designer"

activity intake by claimant {
    respond amount, medical-details
}
activity adjust by adjuster-1 {
    request intake.amount
    respond assessment
}
activity medical by examiner {
    request intake.medical-details
    respond med-report
}
activity settle by settlement-office join all {
    request adjust.assessment, medical.med-report
    respond payout
}

flow intake -> adjust
flow intake -> medical
flow adjust -> settle
flow medical -> settle
flow settle -> end
"#;

fn main() -> WfResult<()> {
    // the workflow definition comes from the DSL, not hand-built structs
    let def = parse_workflow(WORKFLOW)?;
    println!("parsed workflow '{}' with {} activities", def.name, def.activities.len());

    let names =
        ["designer", "claimant", "adjuster-1", "adjuster-2", "examiner", "settlement-office"];
    let creds: Vec<Credentials> =
        names.iter().map(|n| Credentials::from_seed(*n, &format!("ins-{n}"))).collect();
    let mut directory = Directory::from_credentials(&creds);
    // the adjusters group: either adjuster can read group-addressed fields
    directory.register_group("adjusters", &["adjuster-1", "adjuster-2"])?;

    let policy = SecurityPolicy::builder()
        .restrict("intake", "amount", &["adjusters", "settlement-office"])
        .restrict("intake", "medical-details", &["examiner"])
        .restrict("medical", "med-report", &["settlement-office"])
        .build();

    let designer = &creds[0];
    let initial = DraDocument::new_initial(&def, &policy, designer)?;

    let aea = |name: &str| {
        let c = creds.iter().find(|c| c.name == name).unwrap().clone();
        Aea::new(c, directory.clone())
    };

    // intake
    let received =
        aea("claimant").receive(SealedDocument::from_wire(&initial.to_xml_string())?, "intake")?;
    let done = aea("claimant").complete(
        &received,
        &[
            ("amount".into(), "18,400 EUR".into()),
            ("medical-details".into(), "fractured wrist, 6 weeks".into()),
        ],
    )?;
    println!("intake routed to {:?}", done.route.targets);

    // parallel branches
    let received = aea("adjuster-1")
        .receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "adjust")?;
    println!(
        "adjuster-1 (via the 'adjusters' group) sees: {:?}",
        received.visible.iter().map(|(f, v)| format!("{}={v}", f.field)).collect::<Vec<_>>()
    );
    assert!(received.visible.iter().any(|(f, _)| f.field == "amount"));
    let adjust_done =
        aea("adjuster-1").complete(&received, &[("assessment".into(), "plausible".into())])?;

    let received = aea("examiner")
        .receive(SealedDocument::from_wire(&done.document.to_xml_string())?, "medical")?;
    // the examiner reads the medical details but NOT the amount
    assert!(received.visible.iter().any(|(f, _)| f.field == "medical-details"));
    let medical_done =
        aea("examiner").complete(&received, &[("med-report".into(), "consistent".into())])?;

    // AND-join at settlement
    let arrivals = [
        SealedDocument::from_wire(&adjust_done.document.to_xml_string())?,
        SealedDocument::from_wire(&medical_done.document.to_xml_string())?,
    ];
    let received = aea("settlement-office").receive(merge_sealed(&arrivals)?, "settle")?;
    println!(
        "settlement sees both branches: {:?}",
        received.visible.iter().map(|(f, _)| f.field.clone()).collect::<Vec<_>>()
    );
    let done =
        aea("settlement-office").complete(&received, &[("payout".into(), "17,900 EUR".into())])?;
    assert!(done.route.ends);

    let report = Verifier::new(&directory).run(&done.document)?.report;
    println!(
        "claim settled: {} CERs, {} signatures verified, {} bytes",
        report.cers.len(),
        report.signatures_verified,
        done.document.size_bytes()
    );

    // confidentiality check: adjuster-2 (group member) could read the
    // amount; the claimant cannot read the examiner's report
    let cer = done.document.find_cer(&CerKey::new("intake", 0))?.unwrap();
    let enc = cer
        .result()
        .unwrap()
        .child_elements()
        .find(|e| e.get_attr("field") == Some("amount"))
        .unwrap();
    let readers = dra4wfms::xml::enc::recipients_of(enc);
    println!("recipients of intake.amount: {readers:?}");
    assert!(readers.contains(&"adjuster-1") && readers.contains(&"adjuster-2"));
    Ok(())
}
