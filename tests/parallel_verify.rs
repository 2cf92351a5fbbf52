//! Integration: parallel signature verification — the same verdicts as the
//! sequential verifier, at every thread count, on genuine and tampered
//! documents and on document batches (the portal bulk path).

use dra4wfms::prelude::*;
use dra_bench::rig::Rig;

fn chain(n: usize) -> (DraDocument, Directory) {
    let rig = Rig::chain(n, false, |i| format!("x{i}"));
    (rig.walked("pv").into_document(), rig.dir.clone())
}

#[test]
fn parallel_matches_serial_on_genuine_document() {
    let (doc, dir) = chain(12);
    let serial = Verifier::new(&dir).run(&doc).unwrap().report;
    for threads in [1, 2, 4, 8, 64] {
        let parallel =
            Verifier::new(&dir).batched(false).threads(threads).run(&doc).unwrap().report;
        assert_eq!(parallel, serial, "threads={threads}");
    }
    assert_eq!(serial.signatures_verified, 13);
}

#[test]
fn parallel_detects_tampering() {
    let (doc, dir) = chain(8);
    let tampered = doc.to_xml_string().replace("x3", "FORGED");
    assert_ne!(tampered, doc.to_xml_string());
    let parsed = DraDocument::parse(&tampered).unwrap();
    for threads in [1, 4] {
        assert!(
            Verifier::new(&dir).batched(false).threads(threads).run(&parsed).is_err(),
            "threads={threads}"
        );
    }
}

#[test]
fn batch_reports_per_document_verdicts() {
    let (good, dir) = chain(4);
    let bad = {
        let xml = good.to_xml_string().replace("x1", "EVIL");
        DraDocument::parse(&xml).unwrap()
    };
    let docs = vec![good.clone(), bad, good.clone()];
    for threads in [1, 3, 8] {
        let verdicts = Verifier::new(&dir).batched(false).threads(threads).run_many(&docs);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts[0].is_ok(), "threads={threads}");
        assert!(verdicts[1].is_err(), "threads={threads}");
        assert!(verdicts[2].is_ok(), "threads={threads}");
    }
}

#[test]
fn empty_batch_is_fine() {
    let (_, dir) = chain(2);
    assert!(Verifier::new(&dir).batched(false).threads(4).run_many(&[]).is_empty());
}

#[test]
fn parallel_verify_amended_document() {
    // amendments require the sequential fold; the parallel phase only runs
    // the signature checks — verdicts must still match
    let designer = Credentials::from_seed("designer", "pva-d");
    let alice = Credentials::from_seed("alice", "pva-a");
    let bob = Credentials::from_seed("bob", "pva-b");
    let dir = Directory::from_credentials([&designer, &alice, &bob]);
    let def = WorkflowDefinition::builder("w", "designer")
        .simple_activity("s1", "alice", &["x"])
        .flow_end("s1")
        .build()
        .unwrap();
    let doc = DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pva")
        .unwrap();
    let delta = DefinitionDelta {
        add_activities: vec![Activity {
            id: "s2".into(),
            participant: "bob".into(),
            join: JoinKind::Any,
            requests: vec![],
            responses: vec!["y".into()],
        }],
        add_transitions: vec![
            Transition { from: "s1".into(), to: Target::Activity("s2".into()), condition: None },
            Transition { from: "s2".into(), to: Target::End, condition: None },
        ],
        retire_transitions: vec![("s1".into(), Target::End)],
        add_policy_rules: vec![],
    };
    let amended = amend_document(&doc, &designer, &delta).unwrap();
    let aea = Aea::new(alice, dir.clone());
    let recv = aea.receive(amended.to_xml_string(), "s1").unwrap();
    let done = aea.complete(&recv, &[("x".into(), "1".into())]).unwrap();
    assert_eq!(done.route.targets, vec!["s2"], "amended route in force");
    let aea = Aea::new(bob, dir.clone());
    let recv = aea.receive(done.document.to_xml_string(), "s2").unwrap();
    let done = aea.complete(&recv, &[("y".into(), "2".into())]).unwrap();

    let serial = Verifier::new(&dir).run(&done.document).unwrap().report;
    let parallel =
        Verifier::new(&dir).batched(false).threads(4).run(&done.document).unwrap().report;
    assert_eq!(serial, parallel);
    assert_eq!(serial.signatures_verified, 4, "designer + amendment + s1 + s2");
}
