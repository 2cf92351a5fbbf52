//! Integration: the nonrepudiation cascade (§2.3.2, Algorithm 1) over real
//! executed documents — not structural mocks.

use dra4wfms::prelude::*;
use dra_bench::rig::Rig;
use std::collections::BTreeSet;

/// A linear chain of n activities, executed fully; returns the document.
fn run_chain(n: usize) -> (DraDocument, Directory) {
    let rig = Rig::chain(n, false, |i| format!("value-{i}"));
    (rig.walked("nr").into_document(), rig.dir.clone())
}

#[test]
fn chain_scopes_are_nested_prefixes() {
    let (doc, dir) = run_chain(5);
    Verifier::new(&dir).run(&doc).unwrap();
    let mut previous: Option<BTreeSet<PredRef>> = None;
    for i in 0..5 {
        let scope =
            nonrepudiation_scope(&doc, &PredRef::Cer(CerKey::new(format!("S{i}"), 0))).unwrap();
        assert_eq!(scope.len(), i + 2, "Def + S0..Si");
        if let Some(prev) = &previous {
            assert!(prev.is_subset(&scope), "scopes grow monotonically along the chain");
        }
        previous = Some(scope);
    }
}

#[test]
fn last_participant_cannot_repudiate_anything() {
    let (doc, _) = run_chain(4);
    let scope = nonrepudiation_scope(&doc, &PredRef::Cer(CerKey::new("S3", 0))).unwrap();
    // "each participant cannot repudiate the execution of all his ancestors"
    for i in 0..4 {
        assert!(scope.contains(&PredRef::Cer(CerKey::new(format!("S{i}"), 0))));
    }
    assert!(scope.contains(&PredRef::Def));
}

#[test]
fn repudiation_attempt_is_defeated_by_the_cascade() {
    // p1 claims "the value I was shown from S0 was different / my result was
    // altered". The dispute is settled by re-verifying: p1's own signature
    // covers S0's signature and p1's stored result — any alteration after
    // the fact breaks verification, so the stored state is provably what p1
    // signed.
    let (doc, dir) = run_chain(3);
    let report = Verifier::new(&dir).run(&doc).unwrap().report;
    assert_eq!(report.signatures_verified, 4);

    // if p1's claim were true, the document would have had to change after
    // signing — simulate the alleged alteration and observe detection:
    let altered = doc.to_xml_string().replace("value-1", "forged-1");
    assert_ne!(altered, doc.to_xml_string());
    let parsed = DraDocument::parse(&altered).unwrap();
    assert!(
        Verifier::new(&dir).run(&parsed).is_err(),
        "the alleged alteration is distinguishable from the genuine document"
    );
}

#[test]
fn parallel_branches_do_not_bind_each_other() {
    // A -> (B1 || B2) -> C: B1 cannot be held to B2's result, but C is
    // bound to both.
    let creds: Vec<Credentials> = ["designer", "pa", "pb1", "pb2", "pc"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("nrb-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    let def = WorkflowDefinition::builder("diamond", "designer")
        .simple_activity("A", "pa", &["x"])
        .simple_activity("B1", "pb1", &["y"])
        .simple_activity("B2", "pb2", &["z"])
        .activity(Activity {
            id: "C".into(),
            participant: "pc".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec!["w".into()],
        })
        .flow("A", "B1")
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_end("C")
        .build()
        .unwrap();
    let initial =
        DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "nrb")
            .unwrap();
    let aea = |i: usize| Aea::new(creds[i].clone(), dir.clone());
    let recv = aea(1).receive(initial.to_xml_string(), "A").unwrap();
    let a = aea(1).complete(&recv, &[("x".into(), "1".into())]).unwrap();
    let recv = aea(2).receive(a.document.to_xml_string(), "B1").unwrap();
    let b1 = aea(2).complete(&recv, &[("y".into(), "2".into())]).unwrap();
    let recv = aea(3).receive(a.document.to_xml_string(), "B2").unwrap();
    let b2 = aea(3).complete(&recv, &[("z".into(), "3".into())]).unwrap();
    let recv = aea(4)
        .receive_merged(&[&b1.document.to_xml_string(), &b2.document.to_xml_string()], "C")
        .unwrap();
    let c = aea(4).complete(&recv, &[("w".into(), "4".into())]).unwrap();
    Verifier::new(&dir).run(&c.document).unwrap();

    let b1_scope = nonrepudiation_scope(&c.document, &PredRef::Cer(CerKey::new("B1", 0))).unwrap();
    assert!(!b1_scope.contains(&PredRef::Cer(CerKey::new("B2", 0))));
    let c_scope = nonrepudiation_scope(&c.document, &PredRef::Cer(CerKey::new("C", 0))).unwrap();
    assert!(c_scope.contains(&PredRef::Cer(CerKey::new("B1", 0))));
    assert!(c_scope.contains(&PredRef::Cer(CerKey::new("B2", 0))));
    assert_eq!(c_scope.len(), 5, "Def + A + B1 + B2 + C");
}

#[test]
fn scope_grows_through_loop_iterations() {
    // re-run the chain builder's loop workflow via aea manually with a loop
    let creds: Vec<Credentials> = ["designer", "pa", "pb"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("nrl-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    let def = WorkflowDefinition::builder("loop", "designer")
        .simple_activity("A", "pa", &["v"])
        .simple_activity("B", "pb", &["ok"])
        .flow("A", "B")
        .flow_if("B", "A", Condition::field_equals("B", "ok", "no"))
        .flow_end_if("B", Condition::field_not_equals("B", "ok", "no"))
        .build()
        .unwrap();
    let mut doc =
        DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "nrl")
            .unwrap();
    let pa = Aea::new(creds[1].clone(), dir.clone());
    let pb = Aea::new(creds[2].clone(), dir.clone());
    for round in 0..3 {
        let recv = pa.receive(doc.to_xml_string(), "A").unwrap();
        assert_eq!(recv.iter, round);
        doc = pa
            .complete(&recv, &[("v".into(), format!("r{round}"))])
            .unwrap()
            .document
            .into_document();
        let recv = pb.receive(doc.to_xml_string(), "B").unwrap();
        let ok = if round < 2 { "no" } else { "yes" };
        doc = pb.complete(&recv, &[("ok".into(), ok.into())]).unwrap().document.into_document();
    }
    Verifier::new(&dir).run(&doc).unwrap();
    // B#2's scope covers every iteration of both activities
    let scope = nonrepudiation_scope(&doc, &PredRef::Cer(CerKey::new("B", 2))).unwrap();
    assert_eq!(scope.len(), 7, "Def + 3×A + 3×B");
    // but A#0's scope is just itself + Def
    let scope0 = nonrepudiation_scope(&doc, &PredRef::Cer(CerKey::new("A", 0))).unwrap();
    assert_eq!(scope0.len(), 2);
}
