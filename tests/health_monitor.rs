//! Integration: the online `HealthMonitor` detects every injected
//! pathology — stuck hop, retry storm, crash loop, SLO breach — and stays
//! silent on the lossless no-crash baseline (DESIGN §12).
//!
//! Alerts are advisory; the acceptance bar here is detection: 100% of the
//! injected scenarios raise their typed alert, and a clean run raises
//! nothing (the false-alarm half of the contract, also enforced fleet-wide
//! by `check_metric_invariants`).

use dra4wfms::cloud::monitor::{AlertKind, PROGRESS_DEADLINE_US, RETRY_STORM_ATTEMPTS};
use dra4wfms::cloud::{
    check_metric_invariants, FaultPlan, FaultProfile, Scheduler, Trigger, LEASE_US, MAX_TAKEOVERS,
};
use dra4wfms::core::faultpoint::site;
use dra4wfms::prelude::*;
use dra_bench::rig::Rig;

/// A Fig. 9A cell whose `crash_at`-th signing AEA dies, if any.
fn scenario(crash_at: Option<u64>) -> Rig {
    let plan = crash_at.map_or(FaultPlan::none(), |n| FaultPlan::once(site::AEA_BEFORE_SIGN, n));
    Rig::fig9(false).with_faults(&plan)
}

/// The channel seed under which the hostile profile makes one hand-off of
/// `storm-run` burn [`RETRY_STORM_ATTEMPTS`] attempts.
const STORM_SEED: u64 = 6;

#[test]
fn stuck_hop_is_detected_and_taken_over_early() {
    // one injected crash; the monitor's progress deadline (15 ms) is
    // shorter than the supervisor lease (20 ms): the supervisor must act
    // on the StuckInstance observation and save virtual time
    let rig = scenario(Some(3));
    let sys = rig.cloud(3);
    let doc = rig.initial("stuck-run");
    let t0 = rig.network.virtual_time_us();
    let out = rig.run(&sys, &doc).run().unwrap();
    assert_eq!(out.steps, 9, "the run completes despite the crash");

    let alerts = rig.monitor.alerts();
    let stuck: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::StuckInstance { .. })).collect();
    assert_eq!(stuck.len(), 1, "exactly the injected stall is reported: {alerts:?}");
    assert_eq!(stuck[0].process_id, "stuck-run");

    // observation beat the lease: the takeover waited out only the
    // progress deadline, not the full lease
    let waited = rig.network.virtual_time_us() - t0;
    assert!(waited < LEASE_US, "advanced {waited} µs, a full lease is {LEASE_US} µs");

    let snap = rig.metrics.snapshot();
    assert_eq!(snap.counter("run.early_takeovers"), 1);
    assert_eq!(snap.counter("run.takeovers"), 1);
    assert_eq!(snap.counter("alerts.stuck"), 1);
    check_metric_invariants(&snap).unwrap();
}

#[test]
fn retry_storm_is_detected_on_a_hostile_channel() {
    let rig = scenario(None);
    let sys = rig.cloud(3);
    let delivery = rig.channel(FaultProfile::hostile(), STORM_SEED);
    let doc = rig.initial("storm-run");
    let out = rig.run(&sys, &doc).network(&delivery).run().unwrap();
    assert_eq!(out.steps, 9);
    let stats = out.delivery;
    assert!(stats.retries > 0, "the hostile channel must actually force retries");

    let alerts = rig.monitor.alerts();
    let storms: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::RetryStorm { .. })).collect();
    assert!(!storms.is_empty(), "a storm must surface: {alerts:?}");
    for a in &storms {
        let AlertKind::RetryStorm { attempts, threshold, .. } = &a.kind else { unreachable!() };
        assert!(*attempts >= RETRY_STORM_ATTEMPTS && *threshold == RETRY_STORM_ATTEMPTS);
    }
    check_metric_invariants(&rig.metrics.snapshot()).unwrap();
}

#[test]
fn crash_loop_is_detected_when_takeovers_hit_the_budget() {
    // the fifth signing dies, and so does each takeover of that hop until
    // the supervisor's budget is spent: the monitor must flag the instance
    // the moment takeovers exhaust it, and the last takeover gets through
    let budget = MAX_TAKEOVERS as u64;
    let crashes = (5..5 + budget).map(|n| (site::AEA_BEFORE_SIGN.to_string(), Trigger::Visit(n)));
    let rig = Rig::fig9(false).with_faults(&FaultPlan::of(crashes));
    let sys = rig.cloud(3);
    let doc = rig.initial("loop-run");
    assert_eq!(rig.run(&sys, &doc).run().unwrap().steps, 9);
    assert_eq!(rig.plan.fired(), budget);

    let alerts = rig.monitor.alerts();
    let loops: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::CrashLoop { .. })).collect();
    assert_eq!(loops.len(), 1, "the exhausted budget fires exactly once: {alerts:?}");
    assert_eq!(loops[0].kind, AlertKind::CrashLoop { crashes: budget, budget });
    let snap = rig.metrics.snapshot();
    assert_eq!(snap.counter("run.takeovers"), budget);
    check_metric_invariants(&snap).unwrap();
}

#[test]
fn slo_breach_fires_only_when_the_budget_is_blown() {
    for (slo_us, expect_breach) in [(1u64, true), (u64::MAX, false)] {
        let rig = scenario(None);
        let sys = rig.cloud(3);
        let doc = rig.initial("slo-run");
        rig.run(&sys, &doc).slo_us(slo_us).run().unwrap();
        let breaches = rig
            .monitor
            .alerts()
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::SloBreach { .. }))
            .count();
        assert_eq!(breaches == 1, expect_breach, "slo {slo_us} µs");
    }
}

#[test]
fn lossless_no_crash_baseline_raises_zero_alerts() {
    let rig = scenario(None);
    let sys = rig.cloud(3);
    let doc = rig.initial("baseline-run");
    let out = rig.run(&sys, &doc).run().unwrap();
    assert_eq!(out.steps, 9);
    assert_eq!(rig.monitor.alerts(), vec![], "a healthy run must be silent");
    let snap = rig.metrics.snapshot();
    assert_eq!(snap.counter("alerts.total"), 0);
    check_metric_invariants(&snap).unwrap();
}

#[test]
fn a_refused_admission_leaves_nothing_for_the_monitor_to_wait_on() {
    let rig = scenario(None);
    let sys = rig.cloud(3);
    let initials = ["ok-0", "no/such-row", "ok-1", "lost"].map(|pid| rig.initial(pid));
    let mut sched = Scheduler::new(&sys);
    sched.admit_instance(rig.run(&sys, &initials[0])).unwrap();
    // a process id no row key can hold is refused inside the admission
    let refused = sched.admit_instance(rig.run(&sys, &initials[1])).unwrap_err();
    assert!(matches!(refused, WfError::Malformed(_)), "{refused}");
    sched.admit_instance(rig.run(&sys, &initials[2])).unwrap();
    let results = sched.run_to_completion();
    assert_eq!(results.len(), 2, "the refused one was never admitted");
    assert!(results.iter().all(|(_, out)| out.as_ref().is_ok_and(|out| out.steps == 9)));

    // long after, nobody is waiting on the one that never started
    rig.monitor.tick(rig.network.virtual_time_us() + PROGRESS_DEADLINE_US + 1);
    assert_eq!(rig.monitor.alerts(), vec![], "a fault-free fleet stays silent");
    check_metric_invariants(&rig.metrics.snapshot()).unwrap();

    // nor on an initial document that stayed undeliverable: every copy
    // garbled is a retry storm, and its `deliver` span names the process
    let garbling = FaultProfile { corrupt: 1.0 - 1e-12, ..FaultProfile::lossless() };
    let garbling = rig.channel(garbling, 3);
    let lost = sched.admit_instance(rig.run(&sys, &initials[3]).network(&garbling)).unwrap_err();
    assert!(matches!(lost, WfError::Delivery(_)), "{lost}");
    rig.monitor.tick(rig.network.virtual_time_us() + PROGRESS_DEADLINE_US + 1);
    let alerts = rig.monitor.alerts();
    assert!(alerts.iter().all(|a| matches!(a.kind, AlertKind::RetryStorm { .. })), "{alerts:?}");
}
