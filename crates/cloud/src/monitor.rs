//! Online fleet health: a [`HealthMonitor`] sink that watches the span
//! stream *while the run executes* and emits typed, deterministic
//! [`Alert`]s.
//!
//! The paper's monitoring requirement (§2.2) asks that process state be
//! "easily seen and statistics … provided" — but in an engine-less system
//! there is no engine to ask. PR 4 answered with after-the-fact traces;
//! this module closes the loop: the monitor subscribes to the live span
//! stream (see [`dra_obs::TraceSink`]), tracks a small per-instance state
//! machine in virtual time, and raises alerts the moment a pathology is
//! visible:
//!
//! * [`AlertKind::StuckInstance`] — no span has closed for an instance
//!   past the progress deadline;
//! * [`AlertKind::RetryStorm`] — a delivery burned attempts at or above
//!   the storm threshold before landing;
//! * [`AlertKind::CrashLoop`] — hop takeovers reached the supervisor's
//!   whole-budget (the instance survives only as long as the budget does);
//! * [`AlertKind::SloBreach`] — end-to-end latency exceeded the
//!   per-workflow SLO declared on the run builder;
//! * [`AlertKind::PortalTampered`] — a portal served bytes whose wire
//!   digest failed full verification (raised by the federation layer,
//!   which also quarantines the portal — see `cloud::federation`).
//!
//! Alerts are **advisory**: they route attention, they never decide
//! outcomes. The signed document remains the only authority on what
//! happened (the `reconcile` oracle checks the trace against it); an alert
//! stream is just the earliest trustworthy-enough hint that something
//! needs a look. The one feedback edge is deliberate and safe: the runner
//! consults [`HealthMonitor::time_until_stuck`] so a supervisor can take
//! over a crashed hop when the instance is *observed* stuck instead of
//! pessimistically waiting out the full lease — acting earlier, never
//! differently.
//!
//! Everything is virtual-time arithmetic over the deterministic span
//! stream, so for a fixed seed the alert JSONL from
//! [`alerts_to_jsonl`] is byte-identical run after run — CI exports twice
//! and `cmp`s, the same contract traces have.

use crate::runner::MAX_TAKEOVERS;
use dra_obs::{json_escape, stage, MetricsRegistry, TraceEvent, TraceSink, OUTCOME_CRASH};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// An instance with no closed span for this long (virtual µs) is declared
/// stuck. Deliberately shorter than the supervisor lease
/// ([`crate::runner::LEASE_US`]) so observation beats pessimistic waiting.
pub const PROGRESS_DEADLINE_US: u64 = 15_000;

/// A delivery that burned at least this many attempts is a retry storm (the
/// channel gives up after [`crate::delivery::MAX_ATTEMPTS`]).
pub const RETRY_STORM_ATTEMPTS: u64 = 4;

/// Crash takeovers of one instance at or above this count are a crash loop:
/// the supervisor's whole budget.
const CRASH_LOOP_TAKEOVERS: u64 = MAX_TAKEOVERS as u64;

/// What the monitor saw, and when (virtual µs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    /// Virtual time the alert fired.
    pub at_us: u64,
    /// The process instance it concerns.
    pub process_id: String,
    /// The pathology.
    pub kind: AlertKind,
}

/// Typed alert taxonomy. Every variant carries the observation *and* the
/// threshold it crossed, so an alert line is self-explaining.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// No span closed for the instance within the progress deadline.
    StuckInstance {
        /// Virtual µs since the last closed span.
        idle_us: u64,
        /// The deadline that was exceeded.
        deadline_us: u64,
    },
    /// One delivery burned `attempts` tries (threshold included).
    RetryStorm {
        /// The delivery target (`portal:N` or `transfer`), when recorded.
        target: String,
        /// Attempts the delivery cost.
        attempts: u64,
        /// The storm threshold.
        threshold: u64,
    },
    /// Crash takeovers reached the supervisor budget.
    CrashLoop {
        /// Crash-outcome hops observed for the instance.
        crashes: u64,
        /// The takeover budget.
        budget: u64,
    },
    /// End-to-end latency exceeded the declared SLO.
    SloBreach {
        /// Observed end-to-end latency, virtual µs.
        elapsed_us: u64,
        /// The declared SLO, virtual µs.
        slo_us: u64,
    },
    /// A portal served bytes whose wire digest failed full verification —
    /// the pool copy behind that portal can no longer be trusted. Raised
    /// by the federation layer, which also quarantines the portal.
    PortalTampered {
        /// The portal index that served the tampered bytes.
        portal: u64,
        /// Hex sha256 of the served (tampered) wire bytes.
        digest: String,
    },
    /// The continuous audit sampler found a stored document row that fails
    /// verification — the cloud holding it is storing bytes it cannot prove
    /// were honestly admitted. Raised by `cloud::audit`; the federation
    /// controller pumps it into quarantine of that cloud's portals.
    AuditDivergence {
        /// Index of the member cloud whose pool holds the divergent row.
        cloud: u64,
        /// The divergent row's pool key (`doc/{pid}/{seq}`).
        key: String,
    },
}

impl AlertKind {
    /// Stable snake_case tag used in the JSONL rendering and metric names.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            AlertKind::StuckInstance { .. } => "stuck_instance",
            AlertKind::RetryStorm { .. } => "retry_storm",
            AlertKind::CrashLoop { .. } => "crash_loop",
            AlertKind::SloBreach { .. } => "slo_breach",
            AlertKind::PortalTampered { .. } => "portal_tampered",
            AlertKind::AuditDivergence { .. } => "audit_divergence",
        }
    }
}

#[derive(Default)]
struct InstanceState {
    started_us: u64,
    last_progress_us: u64,
    stuck_flagged: bool,
    crashes: u64,
    crash_alerted: bool,
    slo_us: Option<u64>,
    /// Between `instance_started` and `instance_finished`. Spans alone never
    /// set it: a process whose admission was refused leaves spans behind but
    /// nobody who will finish it.
    watched: bool,
}

#[derive(Default)]
struct MonitorInner {
    instances: BTreeMap<String, InstanceState>,
    alerts: Vec<Alert>,
}

/// The online health monitor. Install it as a sink on the deployment's
/// tracer (`tracer.add_sink(monitor.clone())`) *and* hand it to
/// `InstanceRun::monitor(..)` so the supervisor can act on `StuckInstance`
/// observations.
pub struct HealthMonitor {
    inner: Mutex<MonitorInner>,
}

impl HealthMonitor {
    /// A monitor with no instance under watch, ready to install as a sink.
    pub fn new() -> Arc<HealthMonitor> {
        Arc::new(HealthMonitor { inner: Mutex::new(MonitorInner::default()) })
    }

    /// Declare an instance under watch, optionally with an end-to-end SLO
    /// (virtual µs). Progress accounting starts at `now_us`.
    pub fn instance_started(&self, process_id: &str, slo_us: Option<u64>, now_us: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let st = inner.instances.entry(process_id.to_string()).or_default();
        st.started_us = now_us;
        st.last_progress_us = st.last_progress_us.max(now_us);
        st.slo_us = slo_us;
        st.watched = true;
    }

    /// Declare an instance done; checks the SLO and stops stuck tracking.
    pub fn instance_finished(&self, process_id: &str, now_us: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(st) = inner.instances.get_mut(process_id) else { return };
        st.watched = false;
        let elapsed_us = now_us.saturating_sub(st.started_us);
        if let Some(slo_us) = st.slo_us {
            if elapsed_us > slo_us {
                inner.alerts.push(Alert {
                    at_us: now_us,
                    process_id: process_id.to_string(),
                    kind: AlertKind::SloBreach { elapsed_us, slo_us },
                });
            }
        }
    }

    /// Progress-deadline sweep: raise [`AlertKind::StuckInstance`] (once
    /// per stall — re-armed by the next progress) for every watched
    /// instance idle past the deadline. Call whenever virtual time has
    /// advanced without spans closing.
    pub fn tick(&self, now_us: u64) {
        self.sweep(now_us, |_| true);
    }

    /// [`tick`](HealthMonitor::tick) for one instance: what a supervisor
    /// waiting out that instance's lease observes. The other instances'
    /// clocks stand still while it waits, so they are not judged by it.
    pub fn tick_instance(&self, process_id: &str, now_us: u64) {
        self.sweep(now_us, |pid| pid == process_id);
    }

    fn sweep(&self, now_us: u64, judged: impl Fn(&str) -> bool) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline_us = PROGRESS_DEADLINE_US;
        let mut fired: Vec<Alert> = Vec::new();
        for (pid, st) in inner.instances.iter_mut().filter(|(pid, _)| judged(pid)) {
            let idle_us = now_us.saturating_sub(st.last_progress_us);
            if st.watched && !st.stuck_flagged && idle_us > deadline_us {
                st.stuck_flagged = true;
                fired.push(Alert {
                    at_us: now_us,
                    process_id: pid.clone(),
                    kind: AlertKind::StuckInstance { idle_us, deadline_us },
                });
            }
        }
        inner.alerts.extend(fired);
    }

    /// Virtual µs until [`tick`](HealthMonitor::tick) would declare this
    /// instance stuck (0 when it already would). The supervisor uses this
    /// to wait no longer than observation requires.
    #[must_use]
    pub fn time_until_stuck(&self, process_id: &str, now_us: u64) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let horizon = PROGRESS_DEADLINE_US + 1;
        match inner.instances.get(process_id) {
            Some(st) => (st.last_progress_us + horizon).saturating_sub(now_us),
            None => horizon,
        }
    }

    /// Snapshot of every alert fired so far, in firing order.
    #[must_use]
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).alerts.clone()
    }

    /// Incremental alert feed: every alert fired since `cursor`, plus the
    /// new cursor. Consumers that must *react* to alerts (the federation
    /// controller) poll this instead of re-scanning the whole stream, so
    /// each alert is acted on exactly once.
    #[must_use]
    pub fn alerts_since(&self, cursor: usize) -> (Vec<Alert>, usize) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let fresh = inner.alerts.get(cursor..).unwrap_or(&[]).to_vec();
        (fresh, inner.alerts.len())
    }

    /// Push an externally observed alert through the monitor's stream, so
    /// control-plane observations (e.g. [`AlertKind::PortalTampered`] from
    /// the federation layer) interleave with the sink-derived ones in one
    /// deterministic, exportable sequence.
    pub fn raise(&self, alert: Alert) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).alerts.push(alert);
    }

    /// Export alert counts: `alerts.stuck`, `alerts.retry_storm`,
    /// `alerts.crash_loop`, `alerts.slo_breach`, `alerts.portal_tampered`,
    /// `alerts.audit_divergence` and `alerts.total`.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let alerts = self.alerts();
        let count = |tag: &str| alerts.iter().filter(|a| a.kind.tag() == tag).count() as u64;
        metrics.set_counter("alerts.stuck", count("stuck_instance"));
        metrics.set_counter("alerts.retry_storm", count("retry_storm"));
        metrics.set_counter("alerts.crash_loop", count("crash_loop"));
        metrics.set_counter("alerts.slo_breach", count("slo_breach"));
        metrics.set_counter("alerts.portal_tampered", count("portal_tampered"));
        metrics.set_counter("alerts.audit_divergence", count("audit_divergence"));
        metrics.set_counter("alerts.total", alerts.len() as u64);
    }
}

impl TraceSink for HealthMonitor {
    fn on_span(&self, event: &TraceEvent) {
        if event.process_id.is_empty() {
            return; // not attributable to an instance
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut fired: Vec<Alert> = Vec::new();
        let st = inner.instances.entry(event.process_id.clone()).or_default();

        if event.stage == stage::HOP && event.outcome == OUTCOME_CRASH {
            // a crashed hop is not progress — it is evidence of the opposite
            st.crashes += 1;
            if st.crashes >= CRASH_LOOP_TAKEOVERS && !st.crash_alerted {
                st.crash_alerted = true;
                fired.push(Alert {
                    at_us: event.end_us,
                    process_id: event.process_id.clone(),
                    kind: AlertKind::CrashLoop {
                        crashes: st.crashes,
                        budget: CRASH_LOOP_TAKEOVERS,
                    },
                });
            }
        } else {
            st.last_progress_us = st.last_progress_us.max(event.end_us);
            st.stuck_flagged = false;
        }

        if event.stage == stage::DELIVER {
            let attempts = event.attr("attempts").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            if attempts >= RETRY_STORM_ATTEMPTS {
                let target = event.attr("target").unwrap_or("").to_string();
                fired.push(Alert {
                    at_us: event.end_us,
                    process_id: event.process_id.clone(),
                    kind: AlertKind::RetryStorm {
                        target,
                        attempts,
                        threshold: RETRY_STORM_ATTEMPTS,
                    },
                });
            }
        }
        inner.alerts.extend(fired);
    }
}

/// Render alerts as byte-deterministic JSONL: one alert per line, fixed
/// key order, trailing newline — the same contract as trace JSONL.
#[must_use]
pub fn alerts_to_jsonl(alerts: &[Alert]) -> String {
    let mut out = String::new();
    for a in alerts {
        let head = format!(
            "{{\"at_us\":{},\"process\":\"{}\",\"kind\":\"{}\"",
            a.at_us,
            json_escape(&a.process_id),
            a.kind.tag()
        );
        out.push_str(&head);
        match &a.kind {
            AlertKind::StuckInstance { idle_us, deadline_us } => {
                out.push_str(&format!(",\"idle_us\":{idle_us},\"deadline_us\":{deadline_us}"));
            }
            AlertKind::RetryStorm { target, attempts, threshold } => {
                out.push_str(&format!(
                    ",\"target\":\"{}\",\"attempts\":{attempts},\"threshold\":{threshold}",
                    json_escape(target)
                ));
            }
            AlertKind::CrashLoop { crashes, budget } => {
                out.push_str(&format!(",\"crashes\":{crashes},\"budget\":{budget}"));
            }
            AlertKind::SloBreach { elapsed_us, slo_us } => {
                out.push_str(&format!(",\"elapsed_us\":{elapsed_us},\"slo_us\":{slo_us}"));
            }
            AlertKind::PortalTampered { portal, digest } => {
                out.push_str(&format!(
                    ",\"portal\":{portal},\"digest\":\"{}\"",
                    json_escape(digest)
                ));
            }
            AlertKind::AuditDivergence { cloud, key } => {
                out.push_str(&format!(",\"cloud\":{cloud},\"key\":\"{}\"", json_escape(key)));
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_obs::Tracer;

    fn monitor() -> Arc<HealthMonitor> {
        HealthMonitor::new()
    }

    #[test]
    fn progress_resets_the_stuck_detector() {
        let m = monitor();
        let t = Tracer::sequential();
        t.add_sink(Arc::<HealthMonitor>::clone(&m));
        m.instance_started("p", None, 0);
        t.span("hop").process("p").end();
        m.tick(10_000);
        assert!(m.alerts().is_empty(), "within deadline: no alert");
        m.tick(20_000);
        let alerts = m.alerts();
        assert_eq!(alerts.len(), 1);
        assert!(matches!(alerts[0].kind, AlertKind::StuckInstance { .. }));
        m.tick(30_000);
        assert_eq!(m.alerts().len(), 1, "one alert per stall, not per tick");
        t.span("hop").process("p").end();
        m.tick(100_000);
        assert_eq!(m.alerts().len(), 2, "fresh progress re-arms the detector");
    }

    #[test]
    fn finished_instances_are_not_stuck() {
        let m = monitor();
        m.instance_started("p", None, 0);
        m.instance_finished("p", 5_000);
        m.tick(1_000_000);
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn slo_breach_fires_only_over_budget() {
        let m = monitor();
        m.instance_started("fast", Some(10_000), 0);
        m.instance_finished("fast", 9_999);
        m.instance_started("slow", Some(10_000), 0);
        m.instance_finished("slow", 10_001);
        let alerts = m.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].process_id, "slow");
        assert_eq!(alerts[0].kind, AlertKind::SloBreach { elapsed_us: 10_001, slo_us: 10_000 });
    }

    #[test]
    fn retry_storm_reads_the_attempts_attr() {
        let m = monitor();
        let t = Tracer::sequential();
        t.add_sink(Arc::<HealthMonitor>::clone(&m));
        let mut calm = t.span("deliver").process("p");
        calm.attr("target", "portal:1");
        calm.attr("attempts", 3);
        calm.end();
        assert!(m.alerts().is_empty(), "below threshold");
        let mut storm = t.span("deliver").process("p");
        storm.attr("target", "portal:2");
        storm.attr("attempts", 4);
        storm.end();
        let alerts = m.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].kind,
            AlertKind::RetryStorm { target: "portal:2".into(), attempts: 4, threshold: 4 }
        );
    }

    #[test]
    fn crash_loop_fires_once_at_budget() {
        let m = monitor();
        let t = Tracer::sequential();
        t.add_sink(Arc::<HealthMonitor>::clone(&m));
        for _ in 0..5 {
            t.span("hop").process("p").end_with(OUTCOME_CRASH);
        }
        let alerts = m.alerts();
        let crash_loops: Vec<&Alert> =
            alerts.iter().filter(|a| matches!(a.kind, AlertKind::CrashLoop { .. })).collect();
        assert_eq!(crash_loops.len(), 1, "fires once at the budget, not on every crash after");
        assert_eq!(crash_loops[0].kind, AlertKind::CrashLoop { crashes: 4, budget: 4 });
    }

    #[test]
    fn time_until_stuck_counts_down_from_progress() {
        let m = monitor();
        m.instance_started("p", None, 1_000);
        assert_eq!(m.time_until_stuck("p", 1_000), 15_001);
        assert_eq!(m.time_until_stuck("p", 10_000), 6_001);
        assert_eq!(m.time_until_stuck("p", 50_000), 0);
        assert_eq!(m.time_until_stuck("never-seen", 0), 15_001);
    }

    #[test]
    fn jsonl_is_deterministic_and_tagged() {
        let m = monitor();
        m.instance_started("p", Some(1), 0);
        m.instance_finished("p", 10);
        m.tick(99_999); // p finished: no stuck alert
        let rendered = alerts_to_jsonl(&m.alerts());
        assert_eq!(rendered, "{\"at_us\":10,\"process\":\"p\",\"kind\":\"slo_breach\",\"elapsed_us\":10,\"slo_us\":1}\n");
        assert_eq!(rendered, alerts_to_jsonl(&m.alerts()));
    }

    #[test]
    fn alerts_since_is_an_exactly_once_cursor() {
        let m = monitor();
        let (fresh, cursor) = m.alerts_since(0);
        assert!(fresh.is_empty());
        m.raise(Alert {
            at_us: 5,
            process_id: "p".into(),
            kind: AlertKind::PortalTampered { portal: 2, digest: "ab".into() },
        });
        let (fresh, cursor) = m.alerts_since(cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind.tag(), "portal_tampered");
        let (fresh, _) = m.alerts_since(cursor);
        assert!(fresh.is_empty(), "already consumed");
    }

    #[test]
    fn portal_tampered_renders_and_counts() {
        let m = monitor();
        m.raise(Alert {
            at_us: 7,
            process_id: "p".into(),
            kind: AlertKind::PortalTampered { portal: 1, digest: "deadbeef".into() },
        });
        assert_eq!(
            alerts_to_jsonl(&m.alerts()),
            "{\"at_us\":7,\"process\":\"p\",\"kind\":\"portal_tampered\",\"portal\":1,\"digest\":\"deadbeef\"}\n"
        );
        let metrics = MetricsRegistry::new();
        m.export_metrics(&metrics);
        assert_eq!(metrics.snapshot().counter("alerts.portal_tampered"), 1);
    }

    #[test]
    fn audit_divergence_renders_and_counts() {
        let m = monitor();
        m.raise(Alert {
            at_us: 11,
            process_id: "p".into(),
            kind: AlertKind::AuditDivergence { cloud: 1, key: "doc/p/000002".into() },
        });
        assert_eq!(
            alerts_to_jsonl(&m.alerts()),
            "{\"at_us\":11,\"process\":\"p\",\"kind\":\"audit_divergence\",\"cloud\":1,\"key\":\"doc/p/000002\"}\n"
        );
        let metrics = MetricsRegistry::new();
        m.export_metrics(&metrics);
        assert_eq!(metrics.snapshot().counter("alerts.audit_divergence"), 1);
    }

    #[test]
    fn export_metrics_counts_by_kind() {
        let m = monitor();
        m.instance_started("p", Some(1), 0);
        m.instance_finished("p", 10);
        m.instance_started("q", None, 0);
        m.tick(100_000);
        let metrics = MetricsRegistry::new();
        m.export_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("alerts.slo_breach"), 1);
        assert_eq!(snap.counter("alerts.stuck"), 1);
        assert_eq!(snap.counter("alerts.crash_loop"), 0);
        assert_eq!(snap.counter("alerts.total"), 2);
    }
}
