//! Small-corpus smoke of the differential fuzzing harness. The full
//! 64-seed campaign runs in CI through `claim fuzz` (see
//! EXPERIMENTS.md C14); this keeps a handful of seeds in the ordinary
//! test suite so a regression in the harness — or in anything it
//! differential-checks — fails fast and locally.

use dra_bench::fuzz;

#[test]
fn differential_corpus_smoke() {
    for seed in 0..6 {
        let r = fuzz::fuzz_seed(seed).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.forgeries_caught, r.forgeries_tried, "seed {seed}: a forgery slipped through");
        assert!(r.unsound_rejected, "seed {seed}: the unsound twin was admitted");
        assert!(r.hops_basic > 0 && r.hops_basic == r.hops_advanced, "seed {seed}");
        assert!(r.soundness_states > 0, "seed {seed}: the soundness proof explored nothing");
    }
}

#[test]
fn seed_reports_are_reproducible() {
    let a = fuzz::fuzz_seed(7).unwrap();
    let b = fuzz::fuzz_seed(7).unwrap();
    assert_eq!(a.outcome_sha256, b.outcome_sha256);
    assert_eq!(a.hops_basic, b.hops_basic);
    assert_eq!(a.soundness_states, b.soundness_states);
    assert_eq!(a.or_join_waits, b.or_join_waits);
    assert_eq!(a.cancelled, b.cancelled);
}
