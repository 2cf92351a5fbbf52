//! Property-based integration tests for batch verification: the batched
//! verifier must be *observationally identical* to the sequential one on
//! every document — same accept/reject verdict, and on rejection the same
//! culprit signer and error variant (the batch equation only says "some
//! signature is bad"; the per-signature fallback pinpoints which, exactly
//! as the sequential pass would).

use dra4wfms::prelude::*;
use dra_bench::rig::Rig;
use proptest::prelude::*;

/// Execute a linear `len`-step workflow with the given response values.
fn run_linear(len: usize, values: &[String]) -> (DraDocument, Directory) {
    let values = values.to_vec();
    let rig = Rig::chain(len, false, move |i| values[i].clone());
    (rig.walked("bv-pid").into_document(), rig.dir.clone())
}

fn arb_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{1,16}").unwrap()
}

// Workflow lengths 1…6: a full pass plans `len + 1` signature checks and a
// marked pass `len − mark_at`, so the chunks `verify_batch` is handed fall on
// both sides of the size below which it checks signatures one by one.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched ≡ sequential on genuine random workflows: same verdict, same
    /// report, and the batched pass never falls back.
    #[test]
    fn batched_accepts_what_sequential_accepts(
        len in 1usize..7,
        values in proptest::collection::vec(arb_value(), 6),
    ) {
        let (doc, dir) = run_linear(len, &values[..len]);
        let sequential = Verifier::new(&dir).batched(false).run(&doc).unwrap().report;
        let batched = Verifier::new(&dir).batched(true).run(&doc).unwrap().report;
        prop_assert_eq!(sequential, batched);
    }

    /// Exactly one tampered CER: the batch equation fails, the fallback
    /// pinpoints the same signer with the same error variant and message as
    /// the sequential pass.
    #[test]
    fn batched_pinpoints_the_same_culprit(
        len in 1usize..7,
        culprit in 0usize..6,
        values in proptest::collection::vec("[a-z]{4,12}", 6),
    ) {
        let culprit = culprit.min(len - 1);
        let (doc, dir) = run_linear(len, &values[..len]);
        let xml = doc.to_xml_string().replace(&values[culprit], "EVIL");
        prop_assume!(xml != doc.to_xml_string());
        let tampered = DraDocument::parse(&xml).unwrap();

        let seq_err = Verifier::new(&dir).batched(false).run(&tampered).unwrap_err();
        let bat_err = Verifier::new(&dir).batched(true).run(&tampered).unwrap_err();
        prop_assert!(matches!(seq_err, WfError::Verify(_)), "sequential: {seq_err}");
        prop_assert!(matches!(bat_err, WfError::Verify(_)), "batched: {bat_err}");
        // identical culprit and variant ⇒ identical rendered error
        prop_assert_eq!(seq_err.to_string(), bat_err.to_string());
        // and the message names the culprit CER
        prop_assert!(
            seq_err.to_string().contains(&format!("S{culprit}")),
            "error '{seq_err}' should name S{culprit}"
        );
    }

    /// Incremental + batched: same verdict and same fresh mark as
    /// incremental + sequential, at every mark staleness.
    #[test]
    fn batched_incremental_matches_sequential_incremental(
        len in 1usize..7,
        mark_at in 0usize..6,
        values in proptest::collection::vec(arb_value(), 6),
    ) {
        let mark_at = mark_at.min(len);
        let (doc, dir) = run_linear(len, &values[..len]);
        let mut mark = Verifier::new(&dir).with_mark(None).run(&doc).unwrap().mark.unwrap();
        mark.verified_cers = mark_at;
        mark.prefix_digest = dra4wfms::core::sealed::prefix_digest(&doc, mark_at).unwrap();

        let seq = Verifier::new(&dir).batched(false).with_mark(&mark).run(&doc).unwrap();
        let bat = Verifier::new(&dir).batched(true).with_mark(&mark).run(&doc).unwrap();
        prop_assert_eq!(seq.report, bat.report);
        prop_assert_eq!(seq.reused_cers, bat.reused_cers);
        prop_assert_eq!(seq.fell_back, bat.fell_back);
        prop_assert_eq!(seq.mark.unwrap(), bat.mark.unwrap());
    }
}

/// Empty batch: a mark covering the entire document leaves zero signature
/// checks to schedule — the batched path must accept without touching the
/// batch equation.
#[test]
fn empty_task_batch_verifies() {
    let values: Vec<String> = (0..3).map(|i| format!("v{i}")).collect();
    let (doc, dir) = run_linear(3, &values);
    let mark = Verifier::new(&dir).with_mark(None).run(&doc).unwrap().mark.unwrap();
    let outcome = Verifier::new(&dir).batched(true).with_mark(&mark).run(&doc).unwrap();
    assert_eq!(outcome.report.signatures_verified, 0);
    assert_eq!(outcome.reused_cers, 3);
}

/// Singleton batch: an initial document plans exactly one signature check
/// (the designer's); batched and sequential must agree on it.
#[test]
fn singleton_task_batch_verifies() {
    let rig = Rig::chain(1, false, |_| String::new());
    let (doc, dir) = (rig.initial("bv1-pid"), &rig.dir);
    let b = Verifier::new(dir).batched(true).run(&doc).unwrap().report;
    let s = Verifier::new(dir).batched(false).run(&doc).unwrap().report;
    assert_eq!(b, s);
    assert_eq!(b.signatures_verified, 1);

    // tampered singleton: same rejection either way
    let tampered = doc.to_xml_string().replace("S0", "S0x");
    if let Ok(parsed) = DraDocument::parse(&tampered) {
        assert!(Verifier::new(dir).batched(true).run(&parsed).is_err());
        assert!(Verifier::new(dir).batched(false).run(&parsed).is_err());
    }
}
