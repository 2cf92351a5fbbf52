//! Integration: a hop shares the document tree instead of copying it.
//!
//! Element nodes are `Arc`-shared, so what a hop hands on must be the very
//! nodes it received, plus what it added: after `Aea::complete` (basic
//! model) and `TfcServer::finalize` (advanced model) every untouched node
//! of the output is pointer-identical to the input's.

use dra4wfms::prelude::*;
use dra4wfms::xml::Element;
use std::sync::Arc;

/// The element children of `el`, as the shared pointers the tree holds.
fn nodes(el: &Element) -> Vec<&Arc<Element>> {
    el.shared_children().collect()
}

/// Which top-level sections / CERs of `after` are the same nodes as `before`'s.
fn shared(before: &[&Arc<Element>], after: &[&Arc<Element>]) -> Vec<bool> {
    before.iter().zip(after).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
}

fn cast() -> (Vec<Credentials>, Directory) {
    let creds: Vec<Credentials> = ["designer", "p0", "p1", "p2", "TFC"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("shared-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    (creds, dir)
}

fn chain(tfc: bool) -> WorkflowDefinition {
    let b = WorkflowDefinition::builder("shared", "designer")
        .simple_activity("S0", "p0", &["f"])
        .simple_activity("S1", "p1", &["f"])
        .simple_activity("S2", "p2", &["f"])
        .flow("S0", "S1")
        .flow("S1", "S2")
        .flow_end("S2");
    if tfc { b.with_tfc("TFC") } else { b }.build().unwrap()
}

#[test]
fn basic_hop_appends_one_cer_and_shares_the_rest() {
    let (creds, dir) = cast();
    let def = chain(false);
    let initial =
        DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "sh-basic")
            .unwrap();
    let mut sealed = SealedDocument::new(initial);
    for i in 0..3 {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone());
        let received = aea.receive(sealed.clone(), &format!("S{i}")).unwrap();
        let done = aea.complete(&received, &[("f".into(), format!("v{i}"))]).unwrap();

        // Header and ApplicationDefinition are the received nodes; the
        // ActivityResults node is new (its child vector grew by one)
        let (before, after) = (&sealed.document().root, &done.document.document().root);
        assert_eq!(shared(&nodes(before), &nodes(after)), [true, true, false], "hop {i}");
        // every CER that was there is the same node, and one was appended
        let (cers_before, cers_after) =
            (nodes(sealed.results().unwrap()), nodes(done.document.results().unwrap()));
        assert_eq!(cers_after.len(), i + 1);
        assert_eq!(shared(&cers_before, &cers_after), vec![true; i], "hop {i}");
        sealed = done.document;
    }
    Verifier::new(&dir).run(&sealed).unwrap();
}

#[test]
fn tfc_finalize_rewrites_one_cer_and_shares_the_rest() {
    let (creds, dir) = cast();
    let def = chain(true);
    let policy = SecurityPolicy::public().with_tfc_access("TFC", &def);
    let tfc = TfcServer::with_clock(creds[4].clone(), dir.clone(), Arc::new(|| 7));
    let initial = DraDocument::new_initial_with_pid(&def, &policy, &creds[0], "sh-tfc").unwrap();
    let mut sealed = SealedDocument::new(initial);
    for i in 0..3 {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone());
        let received = aea.receive(sealed, &format!("S{i}")).unwrap();
        let inter = aea.complete_via_tfc(&received, &[("f".into(), format!("v{i}"))]).unwrap();
        let processed = tfc.receive(inter.document.clone()).unwrap();
        let finalized = tfc.finalize(&processed).unwrap();

        let (before, after) =
            (&inter.document.document().root, &finalized.document.document().root);
        assert_eq!(shared(&nodes(before), &nodes(after)), [true, true, false], "hop {i}");
        // the finished CERs are shared; the intermediate one was copied …
        let (cers_before, cers_after) = (
            nodes(inter.document.results().unwrap()),
            nodes(finalized.document.results().unwrap()),
        );
        let mut expect = vec![true; i];
        expect.push(false);
        assert_eq!(shared(&cers_before, &cers_after), expect, "hop {i}");
        // … shallowly: the sealed blob and the participant's signature it
        // already carried are still the received nodes
        let (cer_before, cer_after) = (nodes(cers_before[i]), nodes(cers_after[i]));
        assert_eq!(cer_after.len(), cer_before.len() + 3, "Result + Timestamp + attestation");
        assert_eq!(shared(&cer_before, &cer_after), [true, true], "hop {i}");
        sealed = finalized.document;
    }
    Verifier::new(&dir).run(&sealed).unwrap();
}
