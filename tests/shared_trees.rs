//! Integration: a hop shares the document tree instead of copying it.
//!
//! Element nodes are `Arc`-shared, so what a hop hands on must be the very
//! nodes it received, plus what it added: after `Aea::complete` (basic
//! model) and `TfcServer::finalize` (advanced model) every untouched node
//! of the output is pointer-identical to the input's.

use dra4wfms::prelude::*;
use dra4wfms::xml::Element;
use dra_bench::rig::{cast, Handoff, Rig};
use std::sync::Arc;

/// The element children of `el`, as the shared pointers the tree holds.
fn nodes(el: &Element) -> Vec<&Arc<Element>> {
    el.shared_children().collect()
}

/// Which top-level sections / CERs of `after` are the same nodes as `before`'s.
fn shared(before: &[&Arc<Element>], after: &[&Arc<Element>]) -> Vec<bool> {
    before.iter().zip(after).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
}

/// Three activities in a row, through the TFC when `tfc`.
fn rig(tfc: bool) -> Rig {
    let b = WorkflowDefinition::builder("shared", "designer")
        .simple_activity("S0", "p0", &["f"])
        .simple_activity("S1", "p1", &["f"])
        .simple_activity("S2", "p2", &["f"])
        .flow("S0", "S1")
        .flow("S1", "S2")
        .flow_end("S2");
    let def = if tfc { b.with_tfc("TFC") } else { b }.build().unwrap();
    let creds = cast("shared", &["designer", "p0", "p1", "p2", "TFC"]);
    Rig::new(creds, def, SecurityPolicy::public(), |r| vec![("f".into(), format!("v{}", r.iter))])
}

#[test]
fn basic_hop_appends_one_cer_and_shares_the_rest() {
    let rig = rig(false);
    let mut steps = rig.walk("sh-basic", Handoff::Sealed);
    let mut sealed = steps.next().unwrap().document;
    for (i, step) in (1..).zip(steps) {
        // Header and ApplicationDefinition are the received nodes; the
        // ActivityResults node is new (its child vector grew by one)
        let (before, after) = (&sealed.document().root, &step.document.document().root);
        assert_eq!(shared(&nodes(before), &nodes(after)), [true, true, false], "hop {i}");
        // every CER that was there is the same node, and one was appended
        let (cers_before, cers_after) =
            (nodes(sealed.results().unwrap()), nodes(step.document.results().unwrap()));
        assert_eq!(cers_after.len(), i + 1);
        assert_eq!(shared(&cers_before, &cers_after), vec![true; i], "hop {i}");
        sealed = step.document;
    }
    Verifier::new(&rig.dir).run(&sealed).unwrap();
}

#[test]
fn tfc_finalize_rewrites_one_cer_and_shares_the_rest() {
    let rig = rig(true);
    let tfc = rig.tfc.as_ref().unwrap();
    let mut sealed = SealedDocument::new(rig.initial("sh-tfc"));
    for i in 0..3 {
        let aea = &rig.agents[&format!("p{i}")];
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
    Verifier::new(&rig.dir).run(&sealed).unwrap();
}
