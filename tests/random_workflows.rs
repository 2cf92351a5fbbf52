//! Property-based integration tests: randomly generated workflows are
//! executed end to end through real AEAs; the resulting documents must
//! always verify, always bind the cascade, and always detect bit-level
//! tampering.
//!
//! The pattern-rich properties at the bottom draw from the same seeded
//! generator the differential fuzzer uses (`dra_bench::fuzz`), so the
//! corpus the proptests shrink over is exactly the corpus CI fuzzes.

use dra4wfms::prelude::*;
use dra_bench::fuzz;
use dra_bench::rig::Rig;
use proptest::prelude::*;

/// Run a linear workflow of `len` steps where step i's field audience is
/// restricted iff `restrict[i]`, with `values[i]` as responses.
fn run_linear(
    len: usize,
    restrict: &[bool],
    values: &[String],
) -> (DraDocument, Directory, SecurityPolicy) {
    let mut pb = SecurityPolicy::builder();
    for (i, _) in restrict.iter().enumerate().filter(|(_, restricted)| **restricted) {
        // audience: the next participant (or the previous one for the last)
        let reader = if i + 1 < len { format!("p{}", i + 1) } else { "p0".to_string() };
        pb = pb.restrict(format!("S{i}"), "payload", &[&reader]);
    }
    let values = values.to_vec();
    let rig = Rig::chain(len, false, move |i| values[i].clone()).with_policy(pb.build());
    (rig.walked("rw-pid").into_document(), rig.dir.clone(), rig.policy.clone())
}

fn arb_value() -> impl Strategy<Value = String> {
    // include XML-hostile characters to stress escaping + canonicalization
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generated run produces a fully verifying document whose scopes
    /// are nested prefixes.
    #[test]
    fn generated_runs_always_verify(
        len in 2usize..6,
        restrict in proptest::collection::vec(any::<bool>(), 6),
        values in proptest::collection::vec(arb_value(), 6),
    ) {
        let (doc, dir, _) = run_linear(len, &restrict[..len], &values[..len]);
        let report = Verifier::new(&dir).run(&doc).unwrap().report;
        prop_assert_eq!(report.cers.len(), len);
        prop_assert_eq!(report.signatures_verified, len + 1);

        for i in 0..len {
            let scope = nonrepudiation_scope(
                &doc,
                &PredRef::Cer(CerKey::new(format!("S{i}"), 0)),
            ).unwrap();
            prop_assert_eq!(scope.len(), i + 2);
        }
    }

    /// Wire round trips never break verification (canonical stability).
    #[test]
    fn generated_runs_survive_reserialization(
        len in 2usize..5,
        values in proptest::collection::vec(arb_value(), 5),
    ) {
        let (doc, dir, _) = run_linear(len, &vec![false; len], &values[..len]);
        let once = DraDocument::parse(&doc.to_xml_string()).unwrap();
        let twice = DraDocument::parse(&once.to_xml_string()).unwrap();
        Verifier::new(&dir).run(&twice).unwrap();
    }

    /// Flipping any single byte of a signature value breaks verification.
    #[test]
    fn signature_bitflips_detected(
        len in 2usize..4,
        values in proptest::collection::vec(arb_value(), 4),
        which in any::<prop::sample::Index>(),
    ) {
        let (doc, dir, _) = run_linear(len, &vec![false; len], &values[..len]);
        let cers = doc.cers().unwrap();
        let cer = &cers[which.index(cers.len())];
        let sig_text = cer.participant_signature().unwrap().text_content();
        // flip one hex digit
        let flipped = {
            let mut s = sig_text.clone();
            let c = s.remove(0);
            s.insert(0, if c == '0' { '1' } else { '0' });
            s
        };
        let xml = doc.to_xml_string().replace(&sig_text, &flipped);
        prop_assume!(xml != doc.to_xml_string());
        let parsed = DraDocument::parse(&xml).unwrap();
        prop_assert!(Verifier::new(&dir).run(&parsed).is_err());
    }

    /// Restricted fields stay unreadable to outsiders across the whole run.
    #[test]
    fn restricted_fields_stay_confidential(
        len in 2usize..5,
        values in proptest::collection::vec(arb_value(), 5),
    ) {
        // restrict every field
        let (doc, dir, _) = run_linear(len, &vec![true; len], &values[..len]);
        Verifier::new(&dir).run(&doc).unwrap();
        // an outsider with fresh keys can read nothing restricted
        let outsider = Credentials::from_seed("outsider", "rw-outsider");
        use dra4wfms::core::fields::read_field_from_result;
        for cer in doc.cers().unwrap() {
            let result = cer.result().unwrap();
            let got = read_field_from_result(
                result,
                &cer.key.activity,
                "payload",
                "outsider",
                Some(&outsider),
            );
            let denied = matches!(got, Err(WfError::FieldNotReadable { .. }));
            prop_assert!(denied);
        }
        let _ = dir;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every pattern-rich definition the fuzz generator draws is accepted
    /// by the static soundness analysis (the generator only composes
    /// well-structured blocks — a rejection is an analysis bug).
    #[test]
    fn pattern_rich_definitions_are_sound(seed in any::<u64>()) {
        let gw = fuzz::generate(seed);
        let report = dra4wfms::core::soundness::check_soundness(&gw.def).unwrap();
        prop_assert!(report.states_explored > 0);
    }

    /// OR-joins, multi-instance annotations and cancellation regions all
    /// survive the definition's XML round trip and its DSL rendering.
    #[test]
    fn pattern_annotations_survive_roundtrips(seed in any::<u64>()) {
        let gw = fuzz::generate(seed);
        let back = WorkflowDefinition::from_xml(&gw.def.to_xml()).unwrap();
        prop_assert_eq!(&back, &gw.def);
        let reparsed = dra4wfms::core::dsl::parse_workflow(
            &dra4wfms::core::dsl::to_dsl(&gw.def),
        ).unwrap();
        prop_assert_eq!(&reparsed.multi, &gw.def.multi);
        prop_assert_eq!(&reparsed.cancellations, &gw.def.cancellations);
    }

    /// Downgrading a synchronizing join over exclusive branches always
    /// yields a definition the analysis rejects.
    #[test]
    fn poisoned_twins_are_rejected(seed in any::<u64>()) {
        let gw = fuzz::generate(seed);
        let twin = fuzz::poison(&gw.def).unwrap_or_else(fuzz::canned_deadlock);
        prop_assert!(dra4wfms::core::soundness::check_soundness(&twin).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Honest scheduler runs of pattern-rich workflows verify and
    /// reconcile cleanly against their span traces (the heavy end-to-end
    /// property; the full matrix runs in `claim fuzz`).
    #[test]
    fn pattern_rich_runs_verify_and_reconcile(seed in any::<u64>()) {
        let gw = fuzz::generate(seed);
        let art = fuzz::run_generated(&gw, false, fuzz::Variant::Honest).unwrap();
        prop_assert!(art.steps > 0);
        prop_assert!(art.invariants.is_ok());
        reconcile(&art.events, &art.document).unwrap();
    }
}
