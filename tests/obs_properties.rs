//! Property-based integration tests for the observability layer: randomly
//! generated workflows driven through a hostile fault-injecting channel
//! with a seeded crash schedule must still produce traces the document
//! reconciles, and end-of-run metrics that satisfy the cross-layer
//! accounting invariants (DESIGN §12).

use dra4wfms::cloud::{check_metric_invariants, FaultPlan, FaultProfile};
use dra4wfms::core::faultpoint::site;
use dra4wfms::prelude::*;
use dra_bench::rig::Rig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any generated run that survives the hostile channel + one injected
    /// crash reconciles against its own document, and its metrics satisfy
    /// the accounting invariants.
    #[test]
    fn hostile_runs_reconcile_and_account(
        len in 3usize..7,
        seed in 0u64..1_000,
        crash_nth in 1u64..6,
        values in proptest::collection::vec("[ -~]{0,16}", 7),
    ) {
        let plan = FaultPlan::once(site::AEA_BEFORE_SIGN, 1 + crash_nth % len as u64);
        let rig = Rig::chain(len, false, move |i| values[i].clone()).with_faults(&plan).unmonitored();
        let sys = rig.cloud(2);
        let delivery = rig.channel(FaultProfile::hostile(), seed);
        let initial = rig.initial("obs-gen");
        let out = rig.run(&sys, &initial).network(&delivery).run();
        // the hostile profile stays inside the retry budget for every seed
        // exercised here; a genuine delivery exhaustion would surface as Err
        let out = out.unwrap();
        prop_assert_eq!(out.steps, len);
        prop_assert_eq!(plan.fired(), 1, "the scheduled crash fired");

        // the trace reconciles against the signed document even though the
        // run crossed drops, duplicates, corruption and one crash takeover
        let events = rig.tracer.events();
        let report = reconcile(&events, out.document.document())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.hops_matched, len);
        prop_assert!(report.crashed_attempts >= 1);

        // cross-layer accounting invariants on the unified snapshot
        let snapshot = rig.metrics.snapshot();
        check_metric_invariants(&snapshot).map_err(TestCaseError::fail)?;
        prop_assert!(
            snapshot.counter("delivery.delivered") + snapshot.counter("delivery.faults.dropped")
                >= snapshot.counter("delivery.sends"),
            "delivered >= sent - dropped"
        );
        prop_assert!(
            snapshot.counter("delivery.journal_replays")
                <= snapshot.counter("delivery.crashes_injected"),
            "journal replays only repair injected crashes"
        );
        prop_assert_eq!(snapshot.counter("run.steps"), len as u64);
        prop_assert_eq!(
            snapshot.counter("delivery.crashes_injected"),
            plan.fired()
        );
    }
}
