//! Integration: fault-tolerant document delivery (claim C7 of EXPERIMENTS.md).
//!
//! The contract under test — "a fault can cost time, never safety":
//!
//! * any run over a lossy channel (drop/duplicate/reorder/delay under the
//!   retry budget) completes with a final document **byte-identical** to
//!   the lossless run, and the pool holds exactly the same versions;
//! * the same seed + profile reproduces the same [`DeliveryStats`] and the
//!   same bytes (pinned determinism);
//! * corrupted in-flight copies are rejected at the portal and are never
//!   stored — at worst the run fails with a delivery error, with nothing
//!   admitted to the pool.

use dra4wfms::cloud::delivery::MAX_ATTEMPTS;
use dra4wfms::cloud::{Base, CloudSystem, DeliveryStats, FaultProfile};
use dra4wfms::prelude::*;
use dra_bench::rig::{fig9_respond, Rig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Run a Fig. 9A instance over `profile` (None = the system's own lossless
/// channel); [`run_as`] runs 9B too. Public
/// policy: signatures are deterministic, so independent runs of the same
/// instance produce byte-identical documents — the basis of every
/// byte-equality assertion below. (Encrypted fields use random nonces and
/// would differ between runs by design.) Returns the system, the final
/// document, and the delivery stats.
fn run(
    pid: &str,
    profile: Option<(FaultProfile, u64)>,
) -> (CloudSystem, SealedDocument, DeliveryStats) {
    run_as(false, pid, profile)
}

/// [`run`] for Fig. 9A, or 9B through the TFC when `advanced`.
fn run_as(
    advanced: bool,
    pid: &str,
    profile: Option<(FaultProfile, u64)>,
) -> (CloudSystem, SealedDocument, DeliveryStats) {
    let rig = Rig::fig9(advanced);
    let sys = rig.cloud(3);
    let initial = rig.initial(pid);
    let delivery = profile.map(|(p, seed)| rig.channel(p, seed));
    let channel = delivery.as_ref().unwrap_or(sys.channel());
    let out = rig.run(&sys, &initial).network(channel).run().unwrap();
    assert_eq!(out.steps, 9, "A,B1,B2,C ×2 + D");
    (sys, out.document, out.delivery)
}

/// All stored versions of `pid`, in sequence order.
fn stored_versions(sys: &CloudSystem, pid: &str) -> Vec<String> {
    (0..).map_while(|seq| sys.retrieve_version(pid, seq)).collect()
}

#[test]
fn lossy_run_matches_lossless_byte_for_byte() {
    let (clean_sys, clean_doc, _) = run("match", None);
    let (lossy_sys, lossy_doc, stats) = run("match", Some((FaultProfile::lossy(0.15), 42)));

    // identical final bytes and identical pool content, despite the faults
    assert_eq!(*clean_doc.wire(), *lossy_doc.wire(), "final document byte-identical");
    let clean_versions = stored_versions(&clean_sys, "match");
    let lossy_versions = stored_versions(&lossy_sys, "match");
    assert_eq!(clean_versions.len(), 10, "initial + 9 steps");
    assert_eq!(clean_versions, lossy_versions, "every stored version byte-identical");

    // every stored version still verifies in full
    let dir = Rig::fig9(false).dir;
    for xml in &lossy_versions {
        Verifier::new(&dir).run(&DraDocument::parse(xml).unwrap()).unwrap();
    }

    // faults showed up and cost time, not correctness
    assert!(stats.faults.dropped + stats.faults.duplicated > 0, "profile injected faults");
    assert!(stats.attempts >= stats.sends);
    assert!(stats.inflation() >= 1.0);
}

#[test]
fn same_seed_and_profile_reproduce_stats_and_bytes() {
    let cfg = (FaultProfile::hostile(), 7u64);
    let (_, doc_a, stats_a) = run("det", Some(cfg));
    let (_, doc_b, stats_b) = run("det", Some(cfg));
    assert_eq!(stats_a, stats_b, "same seed ⇒ same DeliveryStats");
    assert_eq!(*doc_a.wire(), *doc_b.wire(), "same seed ⇒ same final bytes");

    // a different seed draws a different fault schedule (same outcome)
    let (_, doc_c, stats_c) = run("det", Some((FaultProfile::hostile(), 8)));
    assert_eq!(*doc_a.wire(), *doc_c.wire(), "outcome is seed-independent");
    assert_ne!(stats_a, stats_c, "fault schedule is not");
}

#[test]
fn corrupted_copies_are_rejected_and_never_stored() {
    // every copy is corrupted in flight: the portal must reject each one,
    // the sender exhausts its budget, and nothing enters the pool
    let profile = FaultProfile { corrupt: 1.0 - 1e-12, ..FaultProfile::lossless() };
    let rig = Rig::fig9(false);
    let sys = rig.cloud(1);
    let initial = rig.initial("corrupt");
    let delivery = rig.channel(profile, 3);
    let err = rig.run(&sys, &initial).network(&delivery).run().unwrap_err();
    assert!(matches!(err, WfError::Delivery(_)), "budget exhausted: {err}");

    // never safety: no corrupted bytes were admitted
    assert_eq!(sys.total_stored(), 0);
    assert!(stored_versions(&sys, "corrupt").is_empty());
    let stats = delivery.stats();
    assert_eq!(stats.corruptions_rejected, stats.attempts, "every copy rejected");
    assert!(stats.retries > 0);
}

#[test]
fn heavy_duplication_never_grows_the_pool() {
    let profile = FaultProfile { duplicate: 1.0 - 1e-12, ..FaultProfile::lossless() };
    let (sys, doc, stats) = run("dup", Some((profile, 11)));
    assert!(stats.faults.duplicated >= 10, "every send duplicated");
    assert!(stats.duplicates_suppressed >= 10, "portal suppressed the extra copies");
    assert_eq!(stored_versions(&sys, "dup").len(), 10, "no phantom versions");
    Verifier::new(&Rig::fig9(false).dir).run(&doc).unwrap();
}

/// Every hop travels as a delta against the version it was served, and
/// every fault lands on a delta copy as on a whole one: corrupted,
/// duplicated, dropped and reordered copies leave exactly the lossless run's
/// versions in the pool, and each corrupted copy is rejected, and counted,
/// once.
#[test]
fn faulty_delta_copies_store_no_phantom_and_count_each_corruption_once() {
    let (clean_sys, clean_doc, clean) = run("delta", None);
    let whole: usize = stored_versions(&clean_sys, "delta").iter().map(String::len).sum();
    assert!(clean.bytes * 3 < whole as u64, "{} B charged for {whole} B of versions", clean.bytes);
    assert_eq!(clean.delta_fallbacks, 0);
    let only = |fault: fn(&mut FaultProfile)| {
        let mut profile = FaultProfile::lossless();
        fault(&mut profile);
        profile
    };
    for (profile, seed) in [
        (only(|p| p.corrupt = 0.3), 3),
        (only(|p| p.duplicate = 0.5), 4),
        (only(|p| p.drop = 0.3), 5),
        (only(|p| p.reorder = 0.3), 6),
        (FaultProfile::hostile(), 7),
    ] {
        let (sys, doc, stats) = run("delta", Some((profile, seed)));
        assert_eq!(*doc.wire(), *clean_doc.wire());
        assert_eq!(stored_versions(&sys, "delta"), stored_versions(&clean_sys, "delta"));
        assert_eq!(sys.total_stored(), 10, "{profile:?}: no phantom version");
        assert_eq!(stats.corruptions_rejected, stats.faults.corrupted, "{profile:?}");
    }
}

/// The AEA → TFC leg travels as a delta against the TFC's own head too, and
/// a fault lands on it as on the portal leg: a hostile channel leaves the
/// lossless run's pool, rejects each corrupted copy once, and the same seed
/// replays the same [`DeliveryStats`].
#[test]
fn tfc_deltas_replay_and_leave_the_lossless_pool() {
    let (clean_sys, clean_doc, clean) = run_as(true, "tfc-delta", None);
    assert_eq!(clean.delta_fallbacks, 0, "every head a hop names is held");
    let hostile = Some((FaultProfile::hostile(), 7));
    let (sys, doc, stats) = run_as(true, "tfc-delta", hostile);
    let (_, _, again) = run_as(true, "tfc-delta", hostile);
    assert_eq!(stats, again, "same seed ⇒ same DeliveryStats");
    assert_eq!(*doc.wire(), *clean_doc.wire());
    assert_eq!(sys.pool_digest(), clean_sys.pool_digest());
    assert_eq!(stats.corruptions_rejected, stats.faults.corrupted);
}

/// A TFC that lost its heads between the hop that made one and the one hop
/// that extends it — the loop's `A` and `D` — is sent the whole wire once
/// per head lost, and the instance ends as the lossless run does.
#[test]
fn a_tfc_rebuilt_empty_costs_one_whole_copy_per_head_it_lost() {
    let (clean_sys, _, _) = run_as(true, "tfc-empty", None);
    let rig = Arc::new(Rig::fig9(true));
    let lost = Arc::new(AtomicUsize::new(0));
    let respond = {
        let (rig, lost) = (Arc::clone(&rig), Arc::clone(&lost));
        move |r: &ReceivedActivity| {
            let tfc = rig.tfc.as_ref().expect("9B has a TFC");
            if r.activity == "A" || r.activity == "D" {
                lost.fetch_add(tfc.heads_held(), Ordering::Relaxed);
                tfc.forget_heads();
            }
            rig.answer(r)
        }
    };
    let sys = rig.cloud(3);
    let initial = rig.initial("tfc-empty");
    let out = rig.run(&sys, &initial).respond(&respond).run().unwrap();
    let lost = lost.load(Ordering::Relaxed);
    assert_eq!(lost, 2, "C's head for A's second turn, and its head for D");
    assert_eq!(out.delivery.delta_fallbacks, lost as u64);
    assert_eq!(sys.pool_digest(), clean_sys.pool_digest());
    assert_eq!(rig.tfc.as_ref().unwrap().heads_held(), 0, "none outlives the process");
}

/// A 9B rig whose `A` answers with a two-byte character, the document its
/// TFC finalized for `A` (and holds a head of), and what `B1` sends the TFC
/// against it.
fn tfc_leg() -> (Rig, Base, SealedDocument) {
    let fig9 = Rig::fig9(true);
    let respond = |r: &ReceivedActivity| {
        let answer = fig9_respond(r);
        answer.into_iter().map(|(field, value)| (field, format!("{value} é"))).collect()
    };
    let rig = Rig::new(fig9.creds, fig9.def, SecurityPolicy::public(), respond);
    let tfc = rig.tfc.as_ref().expect("9B has a TFC");
    let hop = |agent: &str, input: SealedDocument, activity: &str| {
        let received = rig.agents[agent].receive(input, activity).unwrap();
        let sent = rig.agents[agent].complete_via_tfc(&received, &rig.answer(&received)).unwrap();
        (received.trust.prefix_digest, sent.document)
    };
    let (_, sent) = hop("p_a", SealedDocument::new(rig.initial("tfc-leg")), "A");
    let finalized = tfc.process(sent).unwrap().document;
    let (name, sent) = hop("p_b1", finalized.clone(), "B1");
    (rig, Base { name, wire: finalized.wire() }, sent)
}

/// Every delta a damaged or hostile copy can name is refused by the TFC
/// with a typed error, never a panic.
#[test]
fn the_tfc_refuses_hostile_deltas_with_typed_errors() {
    let (rig, base, sent) = tfc_leg();
    let tfc = rig.tfc.as_ref().unwrap();
    let head = &base.wire;
    let inside = head.find('é').expect("A's answer is in the head") + 1;
    let half = (0..=head.len() / 2).rev().find(|&at| head.is_char_boundary(at)).unwrap();
    let kind = |e: &WfError| match e {
        WfError::UnknownBase(_) => "unknown base",
        WfError::Malformed(_) => "malformed",
        WfError::Parse(_) => "parse",
        _ => "another",
    };
    let cases: [(&str, [u8; 32], usize, &str, &str); 4] = [
        ("an unknown name", [7; 32], 0, &sent.wire(), "unknown base"),
        ("keep past the end", base.name, head.len() + 1, "", "malformed"),
        ("keep inside a character", base.name, inside, &head[inside + 1..], "malformed"),
        ("an empty tail", base.name, half, "", "parse"),
    ];
    for (case, name, keep, tail, expected) in cases {
        let refused = tfc.arrived((&name, keep), Some(tail), &sent);
        assert_eq!(refused.as_ref().err().map(kind), Some(expected), "{case}: {refused:?}");
    }
}

/// A damaged delta to the TFC is rejected, counted, and the retry's intact
/// bytes are received; every copy is charged as a delta.
#[test]
fn a_damaged_tfc_delta_is_rejected_and_retried_intact() {
    let (rig, base, sent) = tfc_leg();
    let tfc = rig.tfc.as_ref().unwrap();
    let delivery = rig.channel(FaultProfile { corrupt: 0.5, ..FaultProfile::lossless() }, 5);
    for _ in 0..16 {
        let received = delivery.transfer(
            &sent,
            Some(&base),
            |delta, damaged| tfc.arrived(delta, damaged, &sent),
            |copy| tfc.receive(copy),
        );
        assert_eq!(received.unwrap().doc.to_xml_string(), *sent.wire(), "the intact bytes");
    }
    let stats = delivery.stats();
    assert!(stats.faults.corrupted > 0, "the channel damaged some copies");
    assert_eq!(stats.corruptions_rejected, stats.faults.corrupted, "each one rejected");
    assert_eq!((stats.delivered, stats.retries), (16, stats.corruptions_rejected));
    assert_eq!(stats.delta_fallbacks, 0);
    assert!(stats.bytes * 2 < stats.attempts * sent.wire().len() as u64, "charged as deltas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any fault schedule under the retry budget yields a completed run
    /// whose final document is byte-identical to the lossless run, with no
    /// unverified bytes in the pool.
    #[test]
    fn prop_faulty_runs_converge_to_the_lossless_outcome(
        drop_pct in 0u32..25,
        dup_pct in 0u32..25,
        reorder_pct in 0u32..25,
        corrupt_pct in 0u32..10,
        delay in 0u64..5_000,
        seed in 0u64..1_000_000,
    ) {
        let profile = FaultProfile {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            reorder: reorder_pct as f64 / 100.0,
            corrupt: corrupt_pct as f64 / 100.0,
            delay_max_us: delay,
        };
        let (clean_sys, clean_doc, _) = run("prop", None);
        let (lossy_sys, lossy_doc, stats) = run("prop", Some((profile, seed)));

        prop_assert_eq!(&*clean_doc.wire(), &*lossy_doc.wire());
        prop_assert_eq!(
            stored_versions(&clean_sys, "prop"),
            stored_versions(&lossy_sys, "prop")
        );
        prop_assert!(stats.attempts <= stats.sends * MAX_ATTEMPTS as u64, "bounded retry overhead");
        // time may inflate; the document pool may not
        prop_assert!(stats.inflation() >= 1.0);
    }
}
