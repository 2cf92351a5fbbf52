//! Property-based integration tests for the observability layer: randomly
//! generated workflows driven through a hostile fault-injecting channel
//! with a seeded crash schedule must still produce traces the document
//! reconciles, and end-of-run metrics that satisfy the cross-layer
//! accounting invariants (DESIGN §14).

use dra4wfms::cloud::{
    check_metric_invariants, tracer_for, CloudSystem, CrashPlan, CrashPoint, Delivery,
    DeliveryPolicy, FaultProfile, InstanceRun, NetworkSim,
};
use dra4wfms::obs::MetricsRegistry;
use dra4wfms::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A linear workflow of `len` activities, one participant each.
fn linear_def(len: usize) -> WorkflowDefinition {
    let mut b = WorkflowDefinition::builder("gen-obs", "designer");
    for i in 0..len {
        b = b.simple_activity(format!("S{i}"), format!("p{i}"), &["f"]);
    }
    for i in 0..len - 1 {
        b = b.flow(format!("S{i}"), format!("S{}", i + 1));
    }
    b.flow_end(format!("S{}", len - 1)).build().unwrap()
}

fn cast(len: usize) -> (Vec<Credentials>, Directory) {
    let mut creds = vec![Credentials::from_seed("designer", "obs-designer")];
    for i in 0..len {
        creds.push(Credentials::from_seed(format!("p{i}"), &format!("obs-p{i}")));
    }
    let dir = Directory::from_credentials(&creds);
    (creds, dir)
}

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
        let (creds, dir) = cast(len);
        let def = linear_def(len);
        let network = Arc::new(NetworkSim::lan());
        let tracer = tracer_for(&network);
        let metrics = MetricsRegistry::new();
        let plan = CrashPlan::once(CrashPoint::AeaBeforeSign, 1 + crash_nth % len as u64);
        let sys = CloudSystem::new(dir.clone(), 2, Arc::clone(&network))
            .with_crash_plan(Arc::clone(&plan))
            .with_tracer(tracer.clone());
        let delivery = Delivery::new(
            Arc::clone(&network),
            FaultProfile::hostile(),
            DeliveryPolicy::default(),
            seed,
        )
        .unwrap()
        .with_tracer(tracer.clone());
        let agents: HashMap<String, Arc<Aea>> = creds
            .iter()
            .map(|c| {
                let aea = Aea::new(c.clone(), dir.clone())
                    .with_crash_hook(plan.hook())
                    .with_tracer(tracer.clone());
                (c.name.clone(), Arc::new(aea))
            })
            .collect();
        let initial = DraDocument::new_initial_with_pid(
            &def,
            &SecurityPolicy::public(),
            &creds[0],
            "obs-gen",
        )
        .unwrap();
        let respond = move |received: &ReceivedActivity| {
            let i: usize = received.activity[1..].parse().unwrap();
            vec![("f".to_string(), values[i].clone())]
        };
        let out = InstanceRun::new(&sys, &initial)
            .agents(&agents)
            .respond(&respond)
            .max_steps(100)
            .network(&delivery)
            .tracer(tracer.clone())
            .metrics(&metrics)
            .run();
        // the hostile profile stays inside the retry budget for every seed
        // exercised here; a genuine delivery exhaustion would surface as Err
        let out = out.unwrap();
        prop_assert_eq!(out.steps, len);
        prop_assert_eq!(plan.crashes_injected(), 1, "the scheduled crash fired");

        // the trace reconciles against the signed document even though the
        // run crossed drops, duplicates, corruption and one crash takeover
        let events = tracer.events();
        let report = reconcile(&events, out.document.document())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.hops_matched, len);
        prop_assert!(report.crashed_attempts >= 1);

        // cross-layer accounting invariants on the unified snapshot
        let snapshot = metrics.snapshot();
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
            plan.crashes_injected()
        );
    }
}
