//! Who opens a restricted field, now that a key wrap's key comes from one of
//! three places: a fresh ECIES box to the reader's public key, the builder's
//! own secret (its own copy), or the static secret the TFC shares with the
//! author (the author's copy of a field the TFC re-encrypted). Whatever the
//! source, the set of readers that open a field is the set the policy
//! declared plus its author; a keyed wrap is bound to the element it was
//! made for; and the AEA → TFC result still re-seals byte for byte.

use dra4wfms::prelude::*;
use dra4wfms::xml::enc::{decrypt_element, is_encrypted, recipients_of, EncryptError};
use dra4wfms::xml::Element;
use dra_bench::fuzz::{self, GeneratedWorkflow, CAST};
use dra_bench::rig::{fig9_confidential, Rig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One restricted field of a finished document: which it is, who wrote it,
/// and its `<EncryptedData>`.
struct Sealed {
    activity: String,
    field: String,
    author: String,
    element: Element,
}

fn restricted_fields(doc: &SealedDocument) -> Vec<Sealed> {
    let mut out = Vec::new();
    for cer in doc.cers().unwrap() {
        let Some(result) = cer.result() else { continue };
        for element in result.child_elements().filter(|e| is_encrypted(e)) {
            out.push(Sealed {
                activity: cer.key.activity.clone(),
                field: element.get_attr("field").unwrap().to_string(),
                author: cer.participant.clone(),
                element: element.clone(),
            });
        }
    }
    out
}

/// A policy over `gw`'s response fields drawn from `draw`: each field stays
/// public or is restricted to a subset of the participants and the TFC,
/// possibly empty (its author alone). A cancellation guard reads the
/// document as nobody, so its field stays public; a routing or cardinality
/// field is restricted only where the TFC routes (`advanced`).
fn drawn_policy(gw: &GeneratedWorkflow, advanced: bool, mut draw: u64) -> SecurityPolicy {
    let guards: BTreeSet<FieldRef> = gw
        .def
        .cancellations
        .iter()
        .filter_map(|c| c.condition.as_ref())
        .map(|c| FieldRef::new(c.activity.clone(), c.field.clone()))
        .collect();
    let routing = gw.def.condition_fields();
    let mut b = SecurityPolicy::builder();
    for activity in &gw.def.activities {
        for field in &activity.responses {
            let fr = FieldRef::new(activity.id.clone(), field.clone());
            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = draw >> 40;
            if guards.contains(&fr)
                || (routing.contains(&fr) && !advanced)
                || pick.is_multiple_of(4)
            {
                continue;
            }
            let named =
                |(i, name): (usize, &&'static str)| ((pick >> (2 + i)) & 1 == 1).then_some(*name);
            let readers: Vec<&str> = CAST[1..].iter().enumerate().filter_map(named).collect();
            b = b.restrict(activity.id.clone(), field.clone(), &readers);
        }
    }
    b.build()
}

/// Every cast member tries every restricted field of `doc` under every
/// name it lists and under its own: exactly the declared readers and the
/// author open it, each under its own name and to the value written, and
/// the TFC is a reader exactly where `drawn` names it or, through the TFC,
/// the field steers the route. Returns how many openings that was.
fn everyone_tries_everything(
    rig: &Rig,
    gw: &GeneratedWorkflow,
    drawn: &SecurityPolicy,
    doc: &SealedDocument,
) -> Result<usize, TestCaseError> {
    let mut opened = 0;
    for sealed in restricted_fields(doc) {
        let Readers::Only(declared) = drawn.readers_for(&sealed.activity, &sealed.field) else {
            return Err(TestCaseError::fail(format!("{} was drawn public", sealed.field)));
        };
        let routes = rig.def.tfc.is_some()
            && rig.def.condition_fields().contains(&FieldRef::new(&sealed.activity, &sealed.field));
        let granted = declared.iter().any(|n| n == "TFC") || routes;
        let Readers::Only(names) = rig.policy.readers_for(&sealed.activity, &sealed.field) else {
            return Err(TestCaseError::fail(format!("{} is not restricted", sealed.field)));
        };
        let mut allowed: BTreeSet<String> = BTreeSet::from([sealed.author.clone()]);
        for n in names {
            allowed.extend(rig.dir.expand(n).unwrap().into_iter().map(|id| id.name.clone()));
        }
        let listed: BTreeSet<String> =
            recipients_of(&sealed.element).into_iter().map(str::to_string).collect();
        prop_assert_eq!(&listed, &allowed, "{}.{}", sealed.activity, sealed.field);
        prop_assert_eq!(allowed.contains("TFC"), granted, "{}.{}", sealed.activity, sealed.field);
        let written =
            &gw.script[&sealed.activity].iter().find(|(f, _)| *f == sealed.field).unwrap().1;
        for actor in CAST {
            let keys = rig.agents[actor].keys();
            for name in listed.iter().map(String::as_str).chain([actor]) {
                let got = decrypt_element(&sealed.element, name, &keys);
                let reader = allowed.contains(actor) && name == actor;
                prop_assert_eq!(got.is_ok(), reader, "{} as {} on {}", actor, name, sealed.field);
                match got {
                    Ok(inner) => {
                        prop_assert_eq!(&inner.text_content(), written);
                        opened += 1;
                    }
                    Err(e) if listed.contains(name) => prop_assert_eq!(e, EncryptError::Crypto),
                    Err(e) => prop_assert_eq!(e, EncryptError::NotARecipient),
                }
            }
        }
    }
    Ok(opened)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Over generated workflows and drawn policies, in both models:
    /// every declared reader and the author open each restricted field, the
    /// TFC opens exactly what the policy grants it, nobody else opens
    /// anything under any name.
    #[test]
    fn exactly_the_declared_readers_and_the_author_open_each_field(
        seed in any::<u64>(),
        draw in any::<u64>(),
    ) {
        let gw = fuzz::generate(seed % 64);
        for advanced in [false, true] {
            let drawn = drawn_policy(&gw, advanced, draw);
            let rig = Rig::generated(&gw, advanced).with_policy(drawn.clone());
            let out = rig.run(&rig.cloud(1), &rig.initial("wraps")).run().unwrap();
            everyone_tries_everything(&rig, &gw, &drawn, &out.document)?;
        }
    }
}

/// The drawn policies do restrict fields, with the TFC among the readers.
#[test]
fn drawn_policies_restrict_fields_the_tfc_can_read() {
    let gw = fuzz::generate(3);
    let (mut fields, mut opened, mut tfc_fields) = (0, 0, 0);
    for draw in 0..6 {
        let drawn = drawn_policy(&gw, true, draw);
        let rig = Rig::generated(&gw, true).with_policy(drawn.clone());
        let out = rig.run(&rig.cloud(1), &rig.initial("wraps")).run().unwrap();
        let sealed = restricted_fields(&out.document);
        fields += sealed.len();
        tfc_fields += sealed.iter().filter(|s| recipients_of(&s.element).contains(&"TFC")).count();
        opened += everyone_tries_everything(&rig, &gw, &drawn, &out.document).unwrap();
    }
    assert!(fields > 6 && tfc_fields > 0 && opened > fields, "{fields} {tfc_fields} {opened}");
}

fn fig9(advanced: bool) -> Rig {
    Rig::fig9(advanced).with_policy(fig9_confidential())
}

/// `target` with `wrap` in place of its own wrap for the same reader.
fn transplant(target: &Element, wrap: &Element) -> Element {
    let reader = wrap.get_attr("recipient");
    let mut moved = target.clone();
    moved.remove_children("KeyWrap");
    for own in target.find_children("KeyWrap").filter(|w| w.get_attr("recipient") != reader) {
        moved.push_child(own.clone());
    }
    moved.push_child(wrap.clone());
    moved
}

/// `wrap` with byte `i` of its box flipped.
fn flipped(wrap: &Element, i: usize) -> Element {
    let mut boxed = dra_crypto::b64::decode(&wrap.text_content()).unwrap();
    boxed[i] ^= 1;
    let mut out = Element::new("KeyWrap");
    for attr in ["recipient", "from"] {
        out.set_attr(attr, wrap.get_attr(attr).unwrap());
    }
    out.text(dra_crypto::b64::encode(&boxed))
}

/// (b) A wrap keyed from its builder's own secret, or from the secret the
/// TFC shares with the author, opens its own element and nothing else: moved
/// to another element of the same field, to another field, to the same
/// field of another document, or with any one byte flipped, it fails as
/// `EncryptError::Crypto`.
#[test]
fn a_keyed_wrap_opens_its_own_element_only() {
    let mut checked = 0;
    for (advanced, reader, from) in
        [(false, "p_c", "p_c"), (true, "p_c", "TFC"), (true, "TFC", "TFC")]
    {
        let rig = fig9(advanced);
        let sys = rig.cloud(1);
        let docs: Vec<SealedDocument> = ["moved-1", "moved-2"]
            .map(|pid| rig.run(&sys, &rig.initial(pid)).run().unwrap().document)
            .into();
        let keys = match reader {
            "TFC" => rig.tfc.as_ref().unwrap().keys(),
            _ => rig.agents[reader].keys(),
        };
        let fields = restricted_fields(&docs[0]);
        let elsewhere = restricted_fields(&docs[1]);
        // C's decision, both turns of the loop: every participant and the
        // TFC read it, p_c wrote it
        let decisions: Vec<&Sealed> = fields.iter().filter(|s| s.field == "decision").collect();
        assert_eq!(decisions.len(), 2);
        for (turn, sealed) in decisions.iter().enumerate() {
            let wrap = sealed
                .element
                .find_children("KeyWrap")
                .find(|w| w.get_attr("recipient") == Some(reader))
                .unwrap();
            assert_eq!(wrap.get_attr("from"), Some(from), "a keyed wrap");
            assert!(decrypt_element(&sealed.element, reader, &keys).is_ok());
            let other_turn = &decisions[1 - turn].element;
            let other_field = &fields.iter().find(|s| s.field == "attachment").unwrap().element;
            let other_doc =
                &elsewhere.iter().filter(|s| s.field == "decision").nth(turn).unwrap().element;
            for target in [other_turn, other_field, other_doc] {
                let moved = transplant(target, wrap);
                assert_eq!(decrypt_element(&moved, reader, &keys), Err(EncryptError::Crypto));
                checked += 1;
            }
            let len = dra_crypto::b64::decode(&wrap.text_content()).unwrap().len();
            assert_eq!(len, 76, "nonce, the 32-byte key and a tag: no ephemeral key");
            for i in 0..len {
                let tampered = transplant(&sealed.element, &flipped(wrap, i));
                assert_eq!(decrypt_element(&tampered, reader, &keys), Err(EncryptError::Crypto));
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 3 * 2 * (3 + 76));
}

/// (c) A participant that re-executes an advanced-model hop — a takeover
/// AEA, cold, after the first one died past its send — seals its result for
/// the TFC into byte-identical bytes, so the hop's final document is the
/// same version, and the portal acks the second copy as a duplicate.
#[test]
fn a_re_executed_advanced_hop_reseals_identically_and_is_a_duplicate() {
    let rig = fig9(true);
    let sys = rig.cloud(1);
    let tfc = rig.tfc.as_ref().unwrap();
    let initial = SealedDocument::new(rig.initial("re-executed"));
    let start = Route { targets: vec!["A".into()], ends: false };
    sys.channel().deliver(&sys, 0, &initial, None, &start).unwrap();
    let hop = |aea: &Aea| {
        let received = aea.receive(initial.clone(), "A").unwrap();
        let responses = [("attachment".to_string(), "contract.pdf".to_string())];
        let inter = aea.complete_via_tfc(&received, &responses).unwrap().document;
        let sealed = inter.cers().unwrap().last().unwrap().tfc_sealed().unwrap().text_content();
        let done = tfc.process(inter).unwrap();
        let ack = sys.channel().deliver(&sys, 0, &done.document, None, &done.route).unwrap();
        (sealed, done.document.to_xml_string(), ack)
    };
    let (sealed, wire, ack) = hop(rig.agents["p_a"].as_ref());
    let (resealed, rewire, reack) = hop(&rig.agent("p_a"));
    assert_eq!(resealed, sealed, "the TfcSealed bytes");
    assert_eq!(rewire, wire, "the final document");
    assert_eq!((ack.seq, ack.duplicate), (1, false));
    assert_eq!((reack.seq, reack.duplicate), (1, true));
    assert_eq!(tfc.redo_reuses(), 1, "the TFC answered the resend from its redo log");
}
