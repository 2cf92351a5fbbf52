//! Integration: claim C3 — every class of after-the-fact tampering on a
//! DRA4WfMS document is detected, while the identical rewrite in the
//! engine-based baseline passes silently.

use dra4wfms::cloud::InstanceRun;
use dra4wfms::engine::WorkflowEngine;
use dra4wfms::prelude::*;
use dra_bench::rig::{cast, fig9_respond, Rig};

/// A two-step transfer, `alice` requesting and `bob` approving.
fn setup() -> Rig {
    let def = WorkflowDefinition::builder("transfer", "designer")
        .simple_activity("request", "alice", &["amount", "iban"])
        .activity(Activity {
            id: "approve".into(),
            participant: "bob".into(),
            join: JoinKind::Any,
            requests: vec![FieldRef::new("request", "amount")],
            responses: vec!["approval".into()],
        })
        .flow("request", "approve")
        .flow_end("approve")
        .build()
        .unwrap();
    let respond = |r: &ReceivedActivity| match r.activity.as_str() {
        "request" => vec![("amount".into(), "100".into()), ("iban".into(), "DE02...".into())],
        _ => vec![("approval".into(), "granted".into())],
    };
    Rig::new(cast("tamper", &["designer", "alice", "bob"]), def, SecurityPolicy::public(), respond)
}

/// Run the two-step workflow, returning the final genuine document.
fn run(rig: &Rig) -> DraDocument {
    rig.walked("tp").into_document()
}

fn assert_detected(xml: &str, dir: &Directory, what: &str) {
    match DraDocument::parse(xml) {
        Err(_) => {} // mangled beyond parsing — also "detected"
        Ok(doc) => {
            assert!(
                Verifier::new(dir).run(&doc).is_err(),
                "tamper class '{what}' must be detected"
            );
        }
    }
}

#[test]
fn field_value_rewrite_detected() {
    let rig = setup();
    let (doc, dir) = (run(&rig), &rig.dir);
    let xml = doc.to_xml_string();
    let t = xml.replace(">100<", ">1000000<");
    assert_ne!(t, xml);
    assert_detected(&t, dir, "field value rewrite");
}

#[test]
fn payee_rewrite_detected() {
    let rig = setup();
    let (xml, dir) = (run(&rig).to_xml_string(), &rig.dir);
    let t = xml.replace("DE02...", "MALLORY1");
    assert_ne!(t, xml);
    assert_detected(&t, dir, "payee rewrite");
}

#[test]
fn participant_swap_detected() {
    let rig = setup();
    let (xml, dir) = (run(&rig).to_xml_string(), &rig.dir);
    // claim bob executed alice's activity
    let t = xml.replacen("participant=\"alice\"", "participant=\"bob\"", 1);
    assert_ne!(t, xml);
    assert_detected(&t, dir, "participant swap");
}

#[test]
fn definition_rewrite_detected() {
    let rig = setup();
    let (xml, dir) = (run(&rig).to_xml_string(), &rig.dir);
    // reassign the approve activity inside the signed definition
    let t = xml.replace("participant=\"bob\"", "participant=\"alice\"");
    assert_ne!(t, xml);
    assert_detected(&t, dir, "workflow definition rewrite");
}

#[test]
fn middle_cer_removal_detected() {
    let rig = setup();
    let (doc, dir) = (run(&rig), &rig.dir);
    // strip alice's CER, keep bob's (which signs it)
    let mut stripped = doc.clone();
    let results = stripped.root.find_child_mut("ActivityResults").unwrap();
    let removed = results.children.remove(0);
    drop(removed);
    assert_detected(&stripped.to_xml_string(), dir, "CER removal");
}

#[test]
fn signature_transplant_detected() {
    let rig = setup();
    let (doc, dir) = (run(&rig), &rig.dir);
    // replace alice's signature with bob's (both valid signatures, wrong place)
    let xml = doc.to_xml_string();
    let cers = doc.cers().unwrap();
    let alice_sig = dra4wfms::xml::writer::to_string(cers[0].participant_signature().unwrap());
    let bob_sig = dra4wfms::xml::writer::to_string(cers[1].participant_signature().unwrap());
    let t = xml.replace(&alice_sig, &bob_sig);
    assert_ne!(t, xml);
    assert_detected(&t, dir, "signature transplant");
}

#[test]
fn cross_instance_replay_detected() {
    let rig = setup();
    let (doc, dir) = (run(&rig), &rig.dir);
    // graft the executed CERs onto a fresh instance with a different pid
    let mut fresh = rig.initial("other-pid");
    for cer in doc.cers().unwrap() {
        fresh.push_cer(cer.element.clone()).unwrap();
    }
    assert_detected(&fresh.to_xml_string(), dir, "cross-instance replay");
}

#[test]
fn encrypted_field_swap_detected() {
    // encrypt the amount, then swap the whole EncryptedData blob with one
    // from another instance (ciphertext splice)
    let pol = SecurityPolicy::builder().restrict("request", "amount", &["bob"]).build();
    let rig = setup().with_policy(pol);
    let (alice, dir) = (&rig.agents["alice"], &rig.dir);
    let make = |pid: &str, amount: &str| {
        let recv = alice.receive(rig.initial(pid).to_xml_string(), "request").unwrap();
        alice
            .complete(&recv, &[("amount".into(), amount.into()), ("iban".into(), "X".into())])
            .unwrap()
            .document
            .into_document()
    };
    let doc_a = make("pid-a", "100");
    let doc_b = make("pid-b", "999999");
    let enc_a = {
        let cer = &doc_a.cers().unwrap()[0];
        let r = cer.result().unwrap();
        dra4wfms::xml::writer::to_string(
            r.child_elements().find(|e| e.get_attr("field") == Some("amount")).unwrap(),
        )
    };
    let enc_b = {
        let cer = &doc_b.cers().unwrap()[0];
        let r = cer.result().unwrap();
        dra4wfms::xml::writer::to_string(
            r.child_elements().find(|e| e.get_attr("field") == Some("amount")).unwrap(),
        )
    };
    let spliced = doc_a.to_xml_string().replace(&enc_a, &enc_b);
    assert_ne!(spliced, doc_a.to_xml_string());
    assert_detected(&spliced, dir, "ciphertext splice");
}

#[test]
fn stale_trust_mark_does_not_launder_prefix_tamper() {
    // Mallory holds a mark honestly issued over the genuine document and
    // attaches it to a tampered copy, hoping the verified-prefix fast path
    // skips the signature that would expose the rewrite.
    let rig = setup();
    let (doc, dir) = (run(&rig), &rig.dir);
    let mark = Verifier::new(dir).with_mark(None).run(&doc).unwrap().mark.unwrap();

    let tampered_xml = doc.to_xml_string().replace(">100<", ">1000000<");
    assert_ne!(tampered_xml, doc.to_xml_string());
    let tampered = DraDocument::parse(&tampered_xml).unwrap();

    // the prefix digest no longer matches, so the full pass runs and fails
    let sealed = SealedDocument::with_trust(tampered, mark);
    assert!(
        Verifier::new(dir).with_mark(sealed.trust()).run(&sealed).is_err(),
        "stale mark must not make a tampered prefix verify"
    );

    // the same laundering attempt against a portal is rejected at the door
    let sys = rig.cloud(1);
    let route = Route { targets: vec![], ends: true };
    assert!(sys.ingest_wire(0, &sealed.wire(), &route, sealed.trust()).is_err());
    assert_eq!(sys.total_stored(), 0);
}

#[test]
fn stale_mark_on_a_tree_shared_with_the_genuine_document() {
    // The in-process variant of the laundering attempt: the tampered copy
    // is a clone of the genuine tree — same nodes, same memoized canonical
    // bytes and digests — edited through the tree API. Copy-on-write must
    // expose the edit to the verifier and keep it out of the genuine
    // sibling, which a portal still admits on the same mark.
    let rig = setup();
    let (genuine, dir) = (run(&rig), &rig.dir);
    let mark = Verifier::new(dir).with_mark(None).run(&genuine).unwrap().mark.unwrap();
    let wire_before = genuine.to_xml_string();

    let mut tampered = genuine.clone();
    let cer = tampered.find_cer_element_mut(&CerKey::new("request", 0)).unwrap().unwrap();
    let amount = cer.find_child_mut("Result").unwrap().find_child_mut("Field").unwrap();
    assert_eq!(amount.text_content(), "100");
    amount.children = vec![dra4wfms::xml::Node::Text("1000000".into())];
    amount.invalidate_canon();
    assert_ne!(tampered.to_xml_string(), wire_before);

    let sys = rig.cloud(1);
    let route = Route { targets: vec![], ends: true };
    let laundered = SealedDocument::with_trust(tampered, mark.clone());
    assert!(Verifier::new(dir).with_mark(laundered.trust()).run(&laundered).is_err());
    assert!(sys.ingest_wire(0, &laundered.wire(), &route, laundered.trust()).is_err());
    assert_eq!(sys.total_stored(), 0);

    // the sibling never saw the edit: same bytes, and the mark still holds
    assert_eq!(genuine.to_xml_string(), wire_before);
    let sealed = SealedDocument::with_trust(genuine, mark);
    let outcome = Verifier::new(dir).with_mark(sealed.trust()).run(&sealed).unwrap();
    assert_eq!((outcome.reused_cers, outcome.report.signatures_verified), (2, 0));
    sys.ingest_wire(0, &sealed.wire(), &route, sealed.trust()).unwrap();
    assert_eq!(sys.total_stored(), 1);
}

/// Fig. 9A up to the AND-join: the documents of branches B1 and B2, each
/// under the mark its AEA issued (pinning A's CER).
fn branches(rig: &Rig, pid: &str) -> (SealedDocument, SealedDocument) {
    let hop = |input: SealedDocument, activity: &str, who: &str| {
        let received = rig.agents[who].receive(input, activity).unwrap();
        rig.agents[who].complete(&received, &fig9_respond(&received)).unwrap().document
    };
    let after_a = hop(SealedDocument::new(rig.initial(pid)), "A", "p_a");
    (hop(after_a.clone(), "B1", "p_b1"), hop(after_a, "B2", "p_b2"))
}

/// `branch` with `from` rewritten to `to` in its bytes, still under the
/// mark issued for the genuine ones — what a cloud in the middle can do.
fn rewritten(branch: &SealedDocument, from: &str, to: &str) -> SealedDocument {
    let wire = branch.to_xml_string().replace(from, to);
    assert_ne!(wire, *branch.wire());
    let doc = DraDocument::parse(&wire).unwrap();
    SealedDocument::with_trust(doc, branch.trust().unwrap().clone())
}

#[test]
fn the_first_arrivals_mark_launders_nothing_through_a_join() {
    let rig = Rig::fig9(false);
    let (b1, b2) = branches(&rig, "join");
    let join = |inputs: &[SealedDocument]| {
        let merged = InstanceRun::merge_inputs(inputs).unwrap();
        let cold = Verifier::new(&rig.dir).run(&merged).map(|o| o.report.cers);
        let marked = rig.agents["p_c"].receive(merged, "C");
        assert_eq!(cold.is_ok(), marked.is_ok(), "the marked pass judges as the cold one");
        marked.inspect(|r| assert_eq!(r.report.cers, cold.unwrap()))
    };
    // genuine: the mark pins A's CER, the join checks B1's and B2's
    let ok = join(&[b1.clone(), b2.clone()]).unwrap();
    assert_eq!((ok.reused_cers, ok.report.signatures_verified), (1, 2));

    // a rewrite inside the prefix the first arrival's mark pins: the digest
    // moves, the full pass runs and A's signature fails
    let bad_prefix = rewritten(&b1, "contract.pdf", "nothing.pdf");
    assert!(matches!(join(&[bad_prefix, b2.clone()]), Err(WfError::Verify(_))));
    // a rewrite of the second branch's new CER, past any mark: checked
    let bad_new = rewritten(&b2, ">ok<", ">no<");
    assert!(matches!(join(&[b1.clone(), bad_new]), Err(WfError::Verify(_))));

    // a second branch whose copy of the shared CER differs: the union keeps
    // the first arrival's copy, the rewritten one never reaches the join —
    // and, arriving first, it is the pinned prefix of the case above
    let bad_shared = rewritten(&b2, "contract.pdf", "nothing.pdf");
    let got = join(&[b1.clone(), bad_shared.clone()]).unwrap();
    assert_eq!((got.reused_cers, got.report.signatures_verified), (1, 2));
    assert!(!got.doc.to_xml_string().contains("nothing.pdf"));
    assert!(matches!(join(&[bad_shared, b1.clone()]), Err(WfError::Verify(_))));

    // a mark issued for another process pins nothing here: full pass
    let (other, _) = branches(&rig, "another");
    let foreign = SealedDocument::with_trust(b1.document().clone(), other.trust().unwrap().clone());
    let full = join(&[foreign, b2]).unwrap();
    assert_eq!((full.reused_cers, full.report.signatures_verified), (0, 4));
}

#[test]
fn seen_row_dedups_identical_bytes_and_never_vouches_for_tampered_ones() {
    // The portal's `seen/` row is keyed by the digest of the exact wire
    // bytes — tampering changes the digest, so nothing vouches for the
    // rewritten document and the full pass exposes it.
    let rig = setup();
    let xml = run(&rig).to_xml_string();
    let sys = rig.cloud(1);
    let route = Route { targets: vec![], ends: true };

    // genuine store: full pass (designer + 2 CERs) writes the seen row
    sys.ingest_wire(0, &xml, &route, None).unwrap();
    let stats = &sys.portals[0];
    let after_first = stats.signature_checks.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(after_first, 3);

    // byte-identical re-store: recognized as a duplicate by wire digest —
    // zero signature checks, and no second version enters the pool
    sys.ingest_wire(0, &xml, &route, None).unwrap();
    assert_eq!(
        stats.signature_checks.load(std::sync::atomic::Ordering::Relaxed),
        after_first,
        "identical bytes must not be re-verified"
    );

    // tampered bytes: different digest, no dedup hit, no vouching — the
    // full pass fails loudly
    let t = xml.replace(">100<", ">1000000<");
    assert_ne!(t, xml);
    assert!(sys.ingest_wire(0, &t, &route, None).is_err());
    assert_eq!(sys.total_stored(), 1, "only the genuine copy was admitted, once");
}

/// Upper-case one hex letter of the newest `<Signature>` of `wire` — of its
/// `signer` attribute or of its text. The newest signature is covered by no
/// other, so nothing signed changes; a decoder that reads `A` as `a` sees
/// the same document in different bytes.
fn reencode_newest_signature(wire: &str, signer_attr: bool) -> String {
    let open = wire.rfind("<Signature ").expect("a signature");
    let text = open + wire[open..].find('>').expect("the tag closes") + 1;
    let from = if signer_attr { open + wire[open..].find("signer=\"").unwrap() + 8 } else { text };
    let letter =
        from + wire[from..].find(|c: char| ('a'..='f').contains(&c)).expect("a hex letter");
    assert!(signer_attr == (letter < text) && letter < text + 128, "inside the field meant");
    let mut twin = wire.to_string();
    twin.replace_range(letter..=letter, &wire[letter..=letter].to_ascii_uppercase());
    twin
}

/// A twin that only re-encodes the hex of the newest signature — the one
/// piece of a document no signature covers — would verify, would pass for an
/// honest stored version, and would be admitted as a *new* version, because
/// the `seen/` idempotency key is the digest of the bytes: one retransmitter
/// could make the pool store and re-notify the same step once per
/// re-encoding. Hex has one form, so the twin is a malformed signature at the
/// verifier, rejected by the stored-row verdict and refused at admission —
/// under the basic model, where the newest signature is the participant's,
/// and under the advanced one, where it is the TFC's attestation.
///
/// Nothing else *inside* the newest CER has a twin. Its `covers` label is
/// under no signature either, but the verifier compares it to the CER key
/// byte for byte, so there is no second spelling; the attestation's
/// `Timestamp` and every other attribute and text of the CER lie inside the
/// canonical bytes a signature covers, and base64 (`TfcSealed`,
/// `CipherValue`, `KeyWrap`) has been decoded strictly all along. The wire
/// form itself has no twin either: the parser accepts only what the writer
/// writes, so white space between two CERs, `<a></a>` for `<a/>`, another
/// attribute order or another escape is refused before any signature is
/// checked — `every_other_spelling_of_a_stored_wire_is_refused_at_parse`.
#[test]
fn reencoded_hex_of_the_newest_signature_is_no_second_document() {
    use dra4wfms::cloud::federation::forge_stored_row;
    let rig = setup();
    let basic = run(&rig).to_xml_string();

    let mut tfc_def = rig.def.clone();
    tfc_def.tfc = Some("TFC".into());
    let tfc_creds = cast("tamper", &["designer", "alice", "bob", "TFC"]);
    let tfc_rig = Rig::new(tfc_creds, tfc_def, SecurityPolicy::public(), |_| vec![]);
    let received = tfc_rig.agents["alice"].receive(tfc_rig.initial("tp"), "request").unwrap();
    let fields = [("amount".into(), "100".into()), ("iban".into(), "DE02...".into())];
    let sent = tfc_rig.agents["alice"].complete_via_tfc(&received, &fields).unwrap();
    let tfc = tfc_rig.tfc.as_ref().unwrap();
    let advanced = tfc.process(sent.document).unwrap().document.to_xml_string();
    assert!(advanced[advanced.rfind("<Signature ").unwrap()..].contains("covers=\"tfc:"));

    for (wire, rig) in [(basic, &rig), (advanced, &tfc_rig)] {
        let (sys, dir) = (rig.cloud(1), &rig.dir);
        let route = Route { targets: vec!["approve".into()], ends: false };
        assert_eq!(sys.ingest_wire(0, &wire, &route, None).unwrap().seq, 0);
        for signer_attr in [false, true] {
            let twin = reencode_newest_signature(&wire, signer_attr);
            assert_ne!(twin, wire);
            assert!(twin.eq_ignore_ascii_case(&wire) && twin.len() == wire.len());

            // the verifier
            let malformed = |err: &WfError| matches!(err, WfError::Verify(m) if m.contains("malformed Signature"));
            let err = Verifier::new(dir).run(&DraDocument::parse(&twin).unwrap()).unwrap_err();
            assert!(malformed(&err), "{err}");
            // admission: an error, not version 1 of the process
            let err = sys.ingest_wire(0, &twin, &route, None).unwrap_err();
            assert!(malformed(&err), "{err}");
            assert_eq!(sys.stored_seq_for(&twin), None);
            assert!(sys.retrieve_version("tp", 1).is_none(), "no new row");
            // the stored-row verdict, over the row overwritten with the twin
            forge_stored_row(sys.active_pool(), "doc/tp/000000", |_, _| (0, twin.clone()));
            assert_eq!(sys.retrieve_version("tp", 0), Some(twin));
            let err = sys.process_status("tp").unwrap_err();
            assert!(matches!(&err, WfError::Verify(m) if m.contains("Rejected")), "{err}");
            forge_stored_row(sys.active_pool(), "doc/tp/000000", |_, _| (0, wire.clone()));
            sys.process_status("tp").unwrap().expect("the genuine bytes are back");
        }
    }
}

/// One signed document, one wire. Each twin below spells a stored Fig. 9A
/// or 9B wire another way and changes no byte a signature covers, so a
/// parser that forgave it would hand the verifier the same document and
/// the pool a new SHA-256: a new version per retransmission. The parser
/// accepts only the writer's form, so each twin is a `WfError::Parse` at
/// admission, with no signature checked and nothing stored.
#[test]
fn every_other_spelling_of_a_stored_wire_is_refused_at_parse() {
    use std::sync::atomic::Ordering::Relaxed;
    // D acknowledges with an apostrophe, so a text holds one
    let quoted = |r: &ReceivedActivity| match r.activity.as_str() {
        "D" => vec![("ack".into(), "it's done".into())],
        _ => fig9_respond(r),
    };
    for advanced in [false, true] {
        let fig9 = Rig::fig9(advanced);
        let rig = Rig::new(fig9.creds, fig9.def, SecurityPolicy::public(), quoted);
        let pid = "twins";
        let ran = rig.cloud(1);
        rig.run(&ran, &rig.initial(pid)).run().unwrap();
        let wire = ran.retrieve_latest(0, pid).unwrap();

        let sys = rig.cloud(1);
        let route = Route { targets: vec![], ends: true };
        assert_eq!(sys.ingest_wire(0, &wire, &route, None).unwrap().seq, 0);
        assert!(sys.ingest_wire(0, &wire, &route, None).unwrap().duplicate, "the one spelling");

        let empty = wire.find("/>").unwrap();
        let open = wire[..empty].rfind('<').unwrap() + 1;
        let name = &wire[open..open + wire[open..].find([' ', '/']).unwrap()];
        let cer = wire.find("<CER ").unwrap() + "<CER ".len();
        let attrs: Vec<&str> = wire[cer..].split_inclusive("\" ").take(2).collect();
        let twins = [
            ("white space between two CERs", wire.replacen("</CER><CER", "</CER>\n<CER", 1)),
            ("<a></a> for <a/>", format!("{}></{name}>{}", &wire[..empty], &wire[empty + 2..])),
            (
                "two attributes swapped",
                wire.replacen(&attrs.concat(), &(attrs[1].to_owned() + attrs[0]), 1),
            ),
            ("&#65; for an A in a value", wire.replacen("activity=\"A\"", "activity=\"&#65;\"", 1)),
            ("&apos; for a ' in a text", wire.replacen("it's", "it&apos;s", 1)),
            ("a declaration", format!("<?xml version=\"1.0\"?>{wire}")),
            ("a trailing newline", format!("{wire}\n")),
        ];
        let checks = || sys.portals[0].signature_checks.load(Relaxed);
        for (what, twin) in twins {
            assert_ne!(twin, wire, "{what}");
            let before = checks();
            let err = sys.ingest_wire(0, &twin, &route, None).unwrap_err();
            assert!(matches!(err, WfError::Parse(_)), "{what}: {err}");
            assert_eq!(sys.stored_seq_for(&twin), None, "{what}");
            assert!(sys.retrieve_version(pid, 1).is_none(), "{what}: no new version");
            assert_eq!(checks(), before, "{what}: refused before any signature");
        }
    }
}

/// The contrast: the identical rewrite in the engine baseline is silent.
#[test]
fn engine_baseline_same_tamper_is_silent() {
    let engine = WorkflowEngine::new("e");
    let pid = engine.start_process(&setup().def).unwrap();
    engine
        .execute_activity(
            pid,
            "request",
            "alice",
            &[("amount".into(), "100".into()), ("iban".into(), "DE02...".into())],
        )
        .unwrap();
    engine
        .execute_activity(pid, "approve", "bob", &[("approval".into(), "granted".into())])
        .unwrap();

    engine.superuser().alter_result(pid, "request", "amount", "1000000").unwrap();
    let inst = engine.get_instance(pid).unwrap();
    // the instance offers no verification API at all — the altered value
    // reads back as authoritative state
    assert_eq!(inst.field("request", "amount"), Some("1000000"));
}
