//! Integration: the incremental verification pipeline.
//!
//! A [`TrustMark`] pins an already-verified prefix of a document by a
//! SHA-256 chain over its nodes' canonical bytes. These tests pin the core
//! contract:
//!
//! * with a mark covering j CERs and k CERs appended since, incremental
//!   verification performs **exactly k** signature checks;
//! * any tamper inside the marked prefix is still detected — the digest
//!   mismatch forces the full pass, which fails loudly;
//! * unusable marks (wrong process, too many CERs) fall back to the full
//!   pass without changing the verdict;
//! * acceptance is **equivalent** to the full verifier: a property test
//!   over random runs, stale marks and random tampering asserts both
//!   verifiers accept/reject exactly the same documents;
//! * the chained prefix digest is a function of content alone — warm
//!   memos, a cold re-parse and a clone agree for every prefix length — and
//!   every `&mut` accessor that touches a prefix node moves it;
//! * tampering with a copy that *shares its nodes* with an untampered
//!   sibling is detected on the copy and leaves the sibling's bytes, memo
//!   and verdict untouched (copy-on-write);
//! * an AND-join input rides the first arrival's mark: the marked pass
//!   agrees with a cold one and checks exactly the branches' new CERs.

use dra4wfms::cloud::InstanceRun;
use dra4wfms::core::sealed::prefix_digest;
use dra4wfms::prelude::*;
use dra4wfms::xml::canon::canonicalize_shared;
use dra4wfms::xml::{Element, Node};
use dra_bench::rig::{cast, Handoff, Rig};
use proptest::prelude::*;
use std::sync::Arc;

/// Execute an `n`-step public-policy chain, returning the document snapshot
/// after every step (`snapshots[j]` has j CERs) plus the directory.
fn run_chain(n: usize, values: &[String]) -> (Vec<DraDocument>, Directory) {
    let values = values.to_vec();
    let rig = Rig::chain(n, false, move |i| values[i].clone());
    let steps = rig.walk("iv-pid", Handoff::Sealed, true).map(|step| step.document.into_document());
    (std::iter::once(rig.initial("iv-pid")).chain(steps).collect(), rig.dir.clone())
}

/// A mark a hop would legitimately hold after fully verifying `doc`.
fn mark_for(doc: &DraDocument, dir: &Directory) -> TrustMark {
    Verifier::new(dir)
        .with_mark(None)
        .run(doc)
        .unwrap()
        .mark
        .expect("incremental mode issues a mark")
}

#[test]
fn k_new_cers_cost_exactly_k_signature_checks() {
    let n = 7;
    let values: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
    let (snapshots, dir) = run_chain(n, &values);
    let final_doc = snapshots.last().unwrap();

    // the full pass costs designer + n participant checks
    let full = Verifier::new(&dir).run(final_doc).unwrap().report;
    assert_eq!(full.signatures_verified, 1 + n);

    for (j, snapshot) in snapshots.iter().enumerate() {
        let mark = mark_for(snapshot, &dir);
        let outcome = Verifier::new(&dir).with_mark(&mark).run(final_doc).unwrap();
        assert!(!outcome.fell_back, "valid mark at j={j} must be used");
        assert_eq!(outcome.reused_cers, j);
        // the acceptance criterion: exactly k = n - j checks, no designer
        // re-check (the prefix digest pins the definition too)
        assert_eq!(
            outcome.report.signatures_verified,
            n - j,
            "mark covering {j} CERs over a {n}-CER document"
        );
        // the fresh mark pins the whole document
        let fresh = outcome.mark.expect("incremental mode issues a mark");
        assert_eq!(fresh.verified_cers, n);
        assert_eq!(fresh.prefix_digest, prefix_digest(final_doc, n).unwrap());
    }
}

#[test]
fn no_mark_is_a_plain_full_verification() {
    let values: Vec<String> = (0..3).map(|i| format!("v{i}")).collect();
    let (snapshots, dir) = run_chain(3, &values);
    let outcome = Verifier::new(&dir).with_mark(None).run(snapshots.last().unwrap()).unwrap();
    assert!(!outcome.fell_back, "no mark offered, so nothing to fall back from");
    assert_eq!(outcome.reused_cers, 0);
    assert_eq!(outcome.report.signatures_verified, 4, "designer + 3 CERs");
}

#[test]
fn tampered_prefix_detected_despite_stale_mark() {
    let n = 5;
    let values: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
    let (snapshots, dir) = run_chain(n, &values);
    // the mark was honestly issued over the clean 3-CER prefix
    let mark = mark_for(&snapshots[3], &dir);

    // Mallory alters a result *inside* the marked prefix
    let tampered_xml = snapshots[n].to_xml_string().replace("value-1", "evil-1");
    assert_ne!(tampered_xml, snapshots[n].to_xml_string());
    let tampered = DraDocument::parse(&tampered_xml).unwrap();

    // the digest no longer matches, so the full pass runs — and fails
    let err = Verifier::new(&dir).with_mark(&mark).run(&tampered).unwrap_err();
    assert!(matches!(err, WfError::Verify(_)), "tamper detected: {err}");

    // the same attack against a sealed, trust-marked hand-off: the receiving
    // AEA must reject it even though the seal claims a verified prefix
    let sealed = SealedDocument::with_trust(tampered, mark);
    let aea = Aea::new(Credentials::from_seed("p0", "chain-p0"), dir.clone());
    assert!(aea.receive(sealed, "S0").is_err());
}

/// The `<CER>` nodes of a document, as the shared pointers the tree holds.
fn cer_nodes(doc: &DraDocument) -> Vec<&Arc<Element>> {
    doc.results().unwrap().shared_children().collect()
}

/// Rewrite the recorded value of step `step` in place, through the tree.
fn tamper_in_place(doc: &mut DraDocument, step: usize) {
    let cer = doc.find_cer_element_mut(&CerKey::new(format!("S{step}"), 0)).unwrap().unwrap();
    let field = cer.find_child_mut("Result").unwrap().find_child_mut("Field").unwrap();
    field.children = vec![Node::Text("evil".into())];
    field.invalidate_canon();
}

#[test]
fn tampered_copy_sharing_nodes_leaves_the_sibling_untouched() {
    let n = 5;
    let values: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
    let (snapshots, dir) = run_chain(n, &values);
    let sibling = snapshots[n].clone();
    let stale = mark_for(&snapshots[3], &dir);
    let whole = mark_for(&sibling, &dir);
    let wire_before = sibling.to_xml_string();
    let memo_before = canonicalize_shared(cer_nodes(&sibling)[1]);
    let digests_before: Vec<_> = (0..=n).map(|k| prefix_digest(&sibling, k).unwrap()).collect();

    // Mallory's copy starts out as the very same nodes …
    let mut tampered = sibling.clone();
    assert!(cer_nodes(&tampered).iter().zip(cer_nodes(&sibling)).all(|(a, b)| Arc::ptr_eq(a, b)));
    // … and the rewrite, inside the marked prefix, copies what it touches
    tamper_in_place(&mut tampered, 1);
    let shared: Vec<bool> = cer_nodes(&tampered)
        .iter()
        .zip(cer_nodes(&sibling))
        .map(|(a, b)| Arc::ptr_eq(a, b))
        .collect();
    assert_eq!(shared, [true, false, true, true, true], "only the touched CER was copied");

    // tampered prefix, stale mark and whole-document mark alike: detected
    for mark in [&stale, &whole] {
        let err = Verifier::new(&dir).with_mark(mark).run(&tampered).unwrap_err();
        assert!(matches!(err, WfError::Verify(_)), "tamper detected: {err}");
    }
    let aea = Aea::new(Credentials::from_seed("p0", "chain-p0"), dir.clone());
    assert!(aea.receive(SealedDocument::with_trust(tampered, whole.clone()), "S0").is_err());

    // the sibling: same bytes, same memo, same digests, same verdict
    assert_eq!(sibling.to_xml_string(), wire_before);
    assert!(Arc::ptr_eq(&memo_before, &canonicalize_shared(cer_nodes(&sibling)[1])));
    for (k, before) in digests_before.iter().enumerate() {
        assert_eq!(prefix_digest(&sibling, k).unwrap(), *before);
    }
    let outcome = Verifier::new(&dir).with_mark(&stale).run(&sibling).unwrap();
    assert!(!outcome.fell_back);
    assert_eq!((outcome.reused_cers, outcome.report.signatures_verified), (3, 2));
    let outcome = Verifier::new(&dir).with_mark(&whole).run(&sibling).unwrap();
    assert_eq!((outcome.reused_cers, outcome.report.signatures_verified), (n, 0));
}

#[test]
fn every_mut_accessor_on_a_prefix_node_moves_the_digest() {
    let n = 3;
    let values: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
    let (snapshots, _) = run_chain(n, &values);
    let clean = &snapshots[n];
    let before = prefix_digest(clean, n).unwrap();
    let key = CerKey::new("S1", 0);
    type Edit = fn(&mut DraDocument, &CerKey);
    let edits: [(&str, Edit); 6] = [
        ("set_attr", |d, k| {
            d.find_cer_element_mut(k).unwrap().unwrap().set_attr("participant", "mallory")
        }),
        ("push_child", |d, k| {
            d.find_cer_element_mut(k).unwrap().unwrap().push_child(Element::new("Extra"))
        }),
        ("remove_children", |d, k| {
            assert_eq!(d.find_cer_element_mut(k).unwrap().unwrap().remove_children("Signature"), 1)
        }),
        ("find_child_mut", |d, _| {
            d.root.find_child_mut("Header").unwrap().set_attr("x", "1");
        }),
        ("find_cer_element_mut", |d, k| {
            // reached through the accessor, then edited behind it
            let cer = d.find_cer_element_mut(k).unwrap().unwrap();
            cer.find_child_mut("Result").unwrap().set_attr("x", "1");
        }),
        ("field write + invalidate_canon", |d, k| {
            let cer = d.find_cer_element_mut(k).unwrap().unwrap();
            cer.children.reverse();
            cer.invalidate_canon();
        }),
    ];
    for (what, edit) in edits {
        let mut doc = clean.clone();
        assert_eq!(prefix_digest(&doc, n).unwrap(), before, "warm memos read");
        edit(&mut doc, &key);
        assert_ne!(prefix_digest(&doc, n).unwrap(), before, "{what} must move the digest");
        // and the digest it moves to is the content's, not a stale memo's
        let reparsed = DraDocument::parse(&doc.to_xml_string()).unwrap();
        assert_eq!(prefix_digest(&doc, n).unwrap(), prefix_digest(&reparsed, n).unwrap(), "{what}");
        assert_eq!(prefix_digest(clean, n).unwrap(), before, "{what} leaked into the sibling");
    }
}

#[test]
fn unusable_marks_fall_back_to_full_verification() {
    let n = 4;
    let values: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
    let (snapshots, dir) = run_chain(n, &values);
    let final_doc = snapshots.last().unwrap();
    let good = mark_for(&snapshots[2], &dir);

    // wrong process id
    let mut wrong_pid = good.clone();
    wrong_pid.process_id = "someone-else".into();
    let outcome = Verifier::new(&dir).with_mark(&wrong_pid).run(final_doc).unwrap();
    assert!(outcome.fell_back);
    assert_eq!(outcome.report.signatures_verified, 1 + n, "full pass ran");

    // claims more CERs than the document has
    let mut too_many = good.clone();
    too_many.verified_cers = n + 3;
    let outcome = Verifier::new(&dir).with_mark(&too_many).run(final_doc).unwrap();
    assert!(outcome.fell_back);

    // digest of a different run
    let mut bad_digest = good;
    bad_digest.prefix_digest[0] ^= 0xff;
    let outcome = Verifier::new(&dir).with_mark(&bad_digest).run(final_doc).unwrap();
    assert!(outcome.fell_back);
    assert_eq!(outcome.reused_cers, 0);
}

#[test]
fn advanced_model_hop_rechecks_participant_and_attestation_only() {
    // Two activities through a TFC: at each hand-off the finalized CER is
    // the only unverified part, costing exactly 2 checks (participant
    // signature + TFC attestation).
    let def = WorkflowDefinition::builder("adv", "designer")
        .simple_activity("A", "peter", &["x"])
        .simple_activity("B", "amy", &["y"])
        .flow("A", "B")
        .flow_end("B")
        .with_tfc("TFC")
        .build()
        .unwrap();
    let rig = Rig::new(
        cast("adv", &["designer", "peter", "amy", "TFC"]),
        def,
        SecurityPolicy::public(),
        |_| vec![],
    );
    let (tfc, aea_peter, aea_amy) =
        (rig.tfc.as_ref().unwrap(), &rig.agents["peter"], &rig.agents["amy"]);
    let recv = aea_peter.receive(SealedDocument::new(rig.initial("adv-pid")), "A").unwrap();
    assert_eq!(recv.report.signatures_verified, 1, "designer only");

    let inter = aea_peter.complete_via_tfc(&recv, &[("x".into(), "1".into())]).unwrap();
    // the TFC re-checks exactly the intermediate CER's participant signature
    let processed = tfc.receive(inter.document).unwrap();
    assert_eq!(processed.report.signatures_verified, 1);
    let finalized = tfc.finalize(&processed).unwrap();

    // next hop: the finalized CER costs participant + attestation, nothing
    // else — the mark stops just short of the CER the TFC mutated
    let recv = aea_amy.receive(finalized.document, "B").unwrap();
    assert_eq!(recv.report.signatures_verified, 2, "participant + TFC attestation");
    assert_eq!(recv.reused_cers, 0, "the one existing CER was finalized in place");
}

/// `A → AND-split (B0 … B{ways-1}) → AND-join C → back to A`, every hop via
/// the TFC when `advanced`; the script never leaves the loop.
fn looping_join(ways: usize, advanced: bool) -> Rig {
    let branch = |i: usize| format!("B{i}");
    let mut names = vec!["designer".to_string(), "p_a".into(), "p_c".into(), "TFC".into()];
    let mut b = WorkflowDefinition::builder("join", "designer")
        .simple_activity("A", "p_a", &["out"])
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec!["out".into()],
        })
        .flow_if("C", "A", Condition::field_equals("C", "out", "again"))
        .flow_end("C");
    for i in 0..ways {
        names.push(format!("p_b{i}"));
        b = b.simple_activity(branch(i), format!("p_b{i}"), &["out"]);
        b = b.flow("A", branch(i)).flow(branch(i), "C");
    }
    let def = if advanced { b.with_tfc("TFC") } else { b }.build().unwrap();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Rig::new(cast("join", &names), def, SecurityPolicy::public(), |_| {
        vec![("out".into(), "again".into())]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An AND-join input under the first arrival's mark, for 2- and 3-way
    /// joins over three turns of a loop, basic and via the TFC, the
    /// branches arriving in any rotation, merged at once or one at a time
    /// (a join parked until its last branch): the marked pass accepts what
    /// a cold pass accepts, reports the same CERs, and checks exactly the
    /// CERs past the mark — the branches' new ones, and their attestations.
    #[test]
    fn prop_join_input_under_the_first_arrivals_mark(
        ways in 2usize..4,
        advanced in any::<bool>(),
        rotate in 0usize..3,
        at_once in any::<bool>(),
    ) {
        let rig = looping_join(ways, advanced);
        let hop = |input: SealedDocument, activity: &str| {
            let who = &rig.def.activity(activity).unwrap().participant;
            let received = rig.agents[who].receive(input, activity).unwrap();
            let responses = [("out".to_string(), "again".to_string())];
            let checks = (received.reused_cers, received.report.signatures_verified);
            let document = match &rig.tfc {
                Some(tfc) => {
                    let inter = rig.agents[who].complete_via_tfc(&received, &responses).unwrap();
                    tfc.finalize(&tfc.receive(inter.document).unwrap()).unwrap().document
                }
                None => rig.agents[who].complete(&received, &responses).unwrap().document,
            };
            (document, checks, received.report.cers)
        };
        let per_cer = if advanced { 2 } else { 1 };
        let mut current = SealedDocument::new(rig.initial("join-pid"));
        for turn in 0..3 {
            let after_a = hop(current, "A").0;
            let mut arrivals: Vec<SealedDocument> =
                (0..ways).map(|i| hop(after_a.clone(), &format!("B{i}")).0).collect();
            arrivals.rotate_left(rotate % ways);
            let pinned = arrivals[0].trust().unwrap().verified_cers;
            prop_assert_eq!(pinned, turn * (ways + 2) + 1, "all but the branch's own CER");
            let merged = if at_once {
                InstanceRun::merge_inputs(&arrivals).unwrap()
            } else {
                let (first, rest) = arrivals.split_first().unwrap();
                rest.iter().fold(first.clone(), |parked, next| {
                    InstanceRun::merge_inputs(&[parked, next.clone()]).unwrap()
                })
            };
            let cold = Verifier::new(&rig.dir).run(&merged).unwrap().report;
            prop_assert_eq!(cold.signatures_verified, 1 + per_cer * cold.cers.len());
            let (joined, (reused, checked), cers) = hop(merged, "C");
            prop_assert_eq!(cers, cold.cers);
            prop_assert_eq!((reused, checked), (pinned, per_cer * ways));
            current = joined;
        }
    }

    /// The chained prefix digest depends on content alone: a tree built hop
    /// by hop (warm memos on shared nodes), the same document re-parsed from
    /// its wire (cold) and a clone agree for every prefix length, distinct
    /// lengths give distinct digests, and a length past the end means "all".
    #[test]
    fn prop_prefix_digest_is_a_function_of_content(
        len in 1usize..7,
        seed in any::<u32>(),
    ) {
        let values: Vec<String> = (0..len).map(|i| format!("v{seed}-{i}")).collect();
        let (snapshots, _) = run_chain(len, &values);
        let warm = &snapshots[len];
        let cold = DraDocument::parse(&warm.to_xml_string()).unwrap();
        let clone = warm.clone();
        let mut seen = std::collections::BTreeSet::new();
        for (k, snapshot) in snapshots.iter().enumerate() {
            let d = prefix_digest(warm, k).unwrap();
            prop_assert_eq!(d, prefix_digest(&cold, k).unwrap(), "cold re-parse, k={}", k);
            prop_assert_eq!(d, prefix_digest(&clone, k).unwrap(), "clone, k={}", k);
            // the k-CER prefix of the final document is the k-CER snapshot
            prop_assert_eq!(d, prefix_digest(snapshot, k).unwrap(), "snapshot, k={}", k);
            prop_assert!(seen.insert(d), "prefix lengths must not collide");
        }
        prop_assert_eq!(
            prefix_digest(warm, len + 3).unwrap(),
            prefix_digest(warm, len).unwrap()
        );
    }

    /// Equivalence: on random linear runs — with a mark of random staleness
    /// and an optional tamper at a random step — the incremental verifier
    /// accepts/rejects exactly the documents the full verifier does, and
    /// reports the same CER list when both accept.
    #[test]
    fn prop_incremental_equivalent_to_full(
        len in 2usize..6,
        mark_at in 0usize..6,
        tamper_at in 0usize..6,
        tamper in any::<bool>(),
    ) {
        let mark_at = mark_at.min(len);
        let tamper_at = tamper_at.min(len - 1);
        let values: Vec<String> = (0..len).map(|i| format!("value-{i}")).collect();
        let (snapshots, dir) = run_chain(len, &values);
        let mark = mark_for(&snapshots[mark_at], &dir);

        let doc = if tamper {
            // alter step `tamper_at`'s recorded result — possibly inside the
            // marked prefix (stale-mark attack), possibly after it
            let xml = snapshots[len]
                .to_xml_string()
                .replace(&format!("value-{tamper_at}"), "evil");
            DraDocument::parse(&xml).unwrap()
        } else {
            snapshots[len].clone()
        };

        let full = Verifier::new(&dir).run(&doc);
        let inc = Verifier::new(&dir).with_mark(&mark).run(&doc);
        prop_assert_eq!(full.is_ok(), inc.is_ok(), "verdicts must agree");
        if let (Ok(f), Ok(i)) = (full, inc) {
            prop_assert_eq!(f.report.process_id, i.report.process_id);
            prop_assert_eq!(f.report.cers, i.report.cers);
            prop_assert_eq!(f.report.ends_with_intermediate, i.report.ends_with_intermediate);
            prop_assert!(!tamper, "tampered documents must not verify");
        }
    }
}
