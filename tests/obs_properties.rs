//! Property-based integration tests for the observability layer: randomly
//! generated workflows driven through a hostile fault-injecting channel
//! with a seeded crash schedule must still produce traces the document
//! reconciles, and end-of-run metrics that satisfy the cross-layer
//! accounting invariants (DESIGN §12).

use dra4wfms::cloud::{check_metric_invariants, FaultPlan, FaultProfile, Scheduler, Trigger};
use dra4wfms::core::faultpoint::site;
use dra4wfms::obs::{stage, MetricsSnapshot, TraceEvent, OUTCOME_CRASH};
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
            snapshot.counter("journal.replayed_records")
                <= snapshot.counter("delivery.crashes_injected"),
            "journal replays only repair crashes the channel absorbed"
        );
        prop_assert_eq!(snapshot.counter("run.steps"), len as u64);
        // each crash counted once: by the channel or by the scheduler
        prop_assert_eq!(
            snapshot.counter("delivery.crashes_injected") + snapshot.counter("run.takeovers"),
            plan.fired()
        );
    }
}

/// Two Fig. 9A instances in one scheduler and one registry, `aea:after-verify`
/// crashing at each of `visits`: the registry, and the crashed hops each
/// instance's trace shows, in admission order.
fn two_instances_crashing_at(
    visits: [u64; 2],
    monitored: bool,
) -> (MetricsSnapshot, u64, Vec<usize>) {
    let plan =
        FaultPlan::of(visits.map(|nth| (site::AEA_AFTER_VERIFY.to_string(), Trigger::Visit(nth))));
    let rig = Rig::fig9(false).with_faults(&plan);
    let rig = if monitored { rig } else { rig.unmonitored() };
    let sys = rig.cloud(3);
    let pids = ["twice-0", "twice-1"];
    let initials = pids.map(|pid| rig.initial(pid));
    let mut sched = Scheduler::new(&sys);
    for initial in &initials {
        sched.admit_instance(rig.run(&sys, initial)).unwrap();
    }
    let results = sched.run_to_completion();
    assert!(results.iter().all(|(_, out)| out.as_ref().is_ok_and(|out| out.steps == 9)));
    let events = rig.tracer.events();
    let crashed = |pid: &str| {
        let hop = |e: &&TraceEvent| e.stage == stage::HOP && e.outcome == OUTCOME_CRASH;
        events.iter().filter(hop).filter(|e| e.process_id == pid).count()
    };
    (rig.metrics.snapshot(), plan.fired(), pids.iter().map(|pid| crashed(pid)).collect())
}

/// A supervised crash is the scheduler's count alone, summed over every
/// instance into the shared registry: the channel's `delivery.*` holds what
/// the channel absorbed, whichever instance is finalized last.
#[test]
fn crashes_are_counted_once_however_they_fall_across_instances() {
    for (visits, per_instance) in [([1, 6], [1, 1]), ([1, 4], [2, 0])] {
        for monitored in [false, true] {
            let (snapshot, fired, crashed) = two_instances_crashing_at(visits, monitored);
            let case = format!("visits {visits:?}, monitored {monitored}");
            assert_eq!(crashed, per_instance, "{case}: where the crashes landed");
            let counted = ["run.takeovers", "run.timeouts"].map(|name| snapshot.counter(name));
            assert_eq!((counted, fired), ([2, 2], 2), "{case}");
            assert_eq!(
                snapshot.counter("delivery.crashes_injected") + snapshot.counter("run.takeovers"),
                fired,
                "{case}: each crash counted once"
            );
            // waiting out one instance's lease, the scheduler observes that
            // instance alone: one stuck alert a crash, none for the bystander
            let stuck = if monitored { 2 } else { 0 };
            assert_eq!(
                (snapshot.counter("alerts.stuck"), check_metric_invariants(&snapshot).is_err()),
                (stuck, false),
                "{case}"
            );
        }
    }
}
