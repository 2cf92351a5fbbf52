//! Integration: the online `HealthMonitor` detects every injected
//! pathology — stuck hop, retry storm, crash loop, SLO breach — and stays
//! silent on the lossless no-crash baseline (DESIGN §14).
//!
//! Alerts are advisory; the acceptance bar here is detection: 100% of the
//! injected scenarios raise their typed alert, and a clean run raises
//! nothing (the false-alarm half of the contract, also enforced fleet-wide
//! by `check_metric_invariants`).

use dra4wfms::cloud::monitor::AlertKind;
use dra4wfms::cloud::{
    check_metric_invariants, tracer_for, CloudSystem, CrashPlan, CrashPoint, Delivery,
    DeliveryPolicy, FaultProfile, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim, LEASE_US,
};
use dra4wfms::obs::MetricsRegistry;
use dra4wfms::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn fig9a_def() -> WorkflowDefinition {
    WorkflowDefinition::builder("fig9", "designer")
        .simple_activity("A", "p_a", &["attachment"])
        .simple_activity("B1", "p_b1", &["review1"])
        .simple_activity("B2", "p_b2", &["review2"])
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec!["decision".into()],
        })
        .simple_activity("D", "p_d", &["ack"])
        .flow("A", "B1")
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
        .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
        .flow_end("D")
        .build()
        .unwrap()
}

fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "A" => vec![("attachment".into(), "contract.pdf".into())],
        "B1" => vec![("review1".into(), "ok".into())],
        "B2" => vec![("review2".into(), "ok".into())],
        "C" => vec![(
            "decision".into(),
            if received.iter == 0 { "insufficient" } else { "accept" }.into(),
        )],
        "D" => vec![("ack".into(), "done".into())],
        _ => vec![],
    }
}

struct Scenario {
    creds: Vec<Credentials>,
    dir: Directory,
    network: Arc<NetworkSim>,
    plan: Arc<CrashPlan>,
}

fn scenario(crash_at: Option<u64>) -> Scenario {
    let creds: Vec<Credentials> = ["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d"]
        .iter()
        .map(|n| Credentials::from_seed(*n, &format!("health-{n}")))
        .collect();
    let dir = Directory::from_credentials(&creds);
    let network = Arc::new(NetworkSim::lan());
    let plan = match crash_at {
        Some(n) => CrashPlan::once(CrashPoint::AeaBeforeSign, n),
        None => CrashPlan::none(),
    };
    Scenario { creds, dir, network, plan }
}

fn agents(s: &Scenario, tracer: &dra4wfms::obs::Tracer) -> HashMap<String, Arc<Aea>> {
    s.creds
        .iter()
        .map(|c| {
            let aea = Aea::new(c.clone(), s.dir.clone())
                .with_crash_hook(s.plan.hook())
                .with_tracer(tracer.clone());
            (c.name.clone(), Arc::new(aea))
        })
        .collect()
}

fn initial(s: &Scenario, pid: &str) -> DraDocument {
    DraDocument::new_initial_with_pid(&fig9a_def(), &SecurityPolicy::public(), &s.creds[0], pid)
        .unwrap()
}

#[test]
fn stuck_hop_is_detected_and_taken_over_early() {
    // one injected crash; the monitor's progress deadline (15 ms) is
    // shorter than the supervisor lease (20 ms): the supervisor must act
    // on the StuckInstance observation and save virtual time
    let s = scenario(Some(3));
    let tracer = tracer_for(&s.network);
    let sys = CloudSystem::new(s.dir.clone(), 3, Arc::clone(&s.network))
        .with_crash_plan(Arc::clone(&s.plan))
        .with_tracer(tracer.clone());
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let metrics = MetricsRegistry::new();
    let doc = initial(&s, "stuck-run");
    let ags = agents(&s, &tracer);
    let t0 = s.network.virtual_time_us();
    let out = InstanceRun::new(&sys, &doc)
        .agents(&ags)
        .respond(&respond)
        .max_steps(100)
        .tracer(tracer.clone())
        .metrics(&metrics)
        .monitor(&monitor)
        .run()
        .unwrap();
    assert_eq!(out.steps, 9, "the run completes despite the crash");

    let alerts = monitor.alerts();
    let stuck: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::StuckInstance { .. })).collect();
    assert_eq!(stuck.len(), 1, "exactly the injected stall is reported: {alerts:?}");
    assert_eq!(stuck[0].process_id, "stuck-run");

    // observation beat the lease: the takeover waited out only the
    // progress deadline, not the full lease
    let waited = s.network.virtual_time_us() - t0;
    assert!(waited < LEASE_US, "advanced {waited} µs, a full lease is {LEASE_US} µs");

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("run.early_takeovers"), 1);
    assert_eq!(snap.counter("run.takeovers"), 1);
    assert_eq!(snap.counter("alerts.stuck"), 1);
    check_metric_invariants(&snap).unwrap();
}

#[test]
fn retry_storm_is_detected_on_a_hostile_channel() {
    let s = scenario(None);
    let tracer = tracer_for(&s.network);
    let sys =
        CloudSystem::new(s.dir.clone(), 3, Arc::clone(&s.network)).with_tracer(tracer.clone());
    // storm threshold 2: any delivery that needed a retry counts, so a
    // hostile channel is guaranteed to trip it
    let policy = MonitorConfig { retry_storm_attempts: 2, ..MonitorConfig::default() };
    let monitor = HealthMonitor::new(policy);
    let metrics = MetricsRegistry::new();
    let delivery = Delivery::new(
        Arc::clone(&s.network),
        FaultProfile::hostile(),
        DeliveryPolicy::default(),
        7,
    )
    .unwrap()
    .with_tracer(tracer.clone());
    let doc = initial(&s, "storm-run");
    let ags = agents(&s, &tracer);
    let out = InstanceRun::new(&sys, &doc)
        .agents(&ags)
        .respond(&respond)
        .max_steps(100)
        .network(&delivery)
        .tracer(tracer.clone())
        .metrics(&metrics)
        .monitor(&monitor)
        .run()
        .unwrap();
    assert_eq!(out.steps, 9);
    let stats = out.delivery.unwrap();
    assert!(stats.retries > 0, "the hostile channel must actually force retries");

    let alerts = monitor.alerts();
    let storms: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::RetryStorm { .. })).collect();
    assert!(!storms.is_empty(), "retried deliveries must surface as storms: {alerts:?}");
    for a in &storms {
        let AlertKind::RetryStorm { attempts, threshold, .. } = &a.kind else { unreachable!() };
        assert!(attempts >= threshold);
    }
    check_metric_invariants(&metrics.snapshot()).unwrap();
}

#[test]
fn crash_loop_is_detected_when_takeovers_hit_the_budget() {
    // a budget of one: the single injected crash *is* the loop — the
    // monitor must flag the instance the moment takeovers exhaust it
    let s = scenario(Some(5));
    let tracer = tracer_for(&s.network);
    let sys = CloudSystem::new(s.dir.clone(), 3, Arc::clone(&s.network))
        .with_crash_plan(Arc::clone(&s.plan))
        .with_tracer(tracer.clone());
    let policy = MonitorConfig { crash_loop_takeovers: 1, ..MonitorConfig::default() };
    let monitor = HealthMonitor::new(policy);
    let metrics = MetricsRegistry::new();
    let doc = initial(&s, "loop-run");
    let ags = agents(&s, &tracer);
    let out = InstanceRun::new(&sys, &doc)
        .agents(&ags)
        .respond(&respond)
        .max_steps(100)
        .tracer(tracer.clone())
        .metrics(&metrics)
        .monitor(&monitor)
        .run()
        .unwrap();
    assert_eq!(out.steps, 9);

    let alerts = monitor.alerts();
    let loops: Vec<_> =
        alerts.iter().filter(|a| matches!(a.kind, AlertKind::CrashLoop { .. })).collect();
    assert_eq!(loops.len(), 1, "the exhausted budget fires exactly once: {alerts:?}");
    assert_eq!(loops[0].kind, AlertKind::CrashLoop { crashes: 1, budget: 1 });
    check_metric_invariants(&metrics.snapshot()).unwrap();
}

#[test]
fn slo_breach_fires_only_when_the_budget_is_blown() {
    for (slo_us, expect_breach) in [(1u64, true), (u64::MAX, false)] {
        let s = scenario(None);
        let tracer = tracer_for(&s.network);
        let sys =
            CloudSystem::new(s.dir.clone(), 3, Arc::clone(&s.network)).with_tracer(tracer.clone());
        let monitor = HealthMonitor::new(MonitorConfig::default());
        let doc = initial(&s, "slo-run");
        let ags = agents(&s, &tracer);
        InstanceRun::new(&sys, &doc)
            .agents(&ags)
            .respond(&respond)
            .max_steps(100)
            .tracer(tracer.clone())
            .monitor(&monitor)
            .slo_us(slo_us)
            .run()
            .unwrap();
        let breaches = monitor
            .alerts()
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::SloBreach { .. }))
            .count();
        assert_eq!(breaches == 1, expect_breach, "slo {slo_us} µs");
    }
}

#[test]
fn lossless_no_crash_baseline_raises_zero_alerts() {
    let s = scenario(None);
    let tracer = tracer_for(&s.network);
    let sys =
        CloudSystem::new(s.dir.clone(), 3, Arc::clone(&s.network)).with_tracer(tracer.clone());
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let metrics = MetricsRegistry::new();
    let delivery = Delivery::lossless(Arc::clone(&s.network)).with_tracer(tracer.clone());
    let doc = initial(&s, "baseline-run");
    let ags = agents(&s, &tracer);
    let out = InstanceRun::new(&sys, &doc)
        .agents(&ags)
        .respond(&respond)
        .max_steps(100)
        .network(&delivery)
        .tracer(tracer.clone())
        .metrics(&metrics)
        .monitor(&monitor)
        .run()
        .unwrap();
    assert_eq!(out.steps, 9);
    assert_eq!(monitor.alerts(), vec![], "a healthy run must be silent");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("alerts.total"), 0);
    check_metric_invariants(&snap).unwrap();
}
