//! Glue between the deployment and the `dra-obs` substrate: a tracer
//! clocked by the simulated network, and the cross-layer metric
//! invariants every healthy run must satisfy.
//!
//! The tracer's clock closes over [`NetworkSim::virtual_time_us`], so
//! spans are stamped in the same deterministic virtual time the delivery
//! layer charges — a fixed seed yields a byte-identical trace.

use crate::netsim::NetworkSim;
use dra_obs::{MetricsSnapshot, Tracer};
use std::sync::Arc;

/// A [`Tracer`] whose clock reads the deployment's virtual time.
///
/// Install the same tracer on every component of a deployment (AEAs, TFC,
/// `CloudSystem`, `Delivery`, `InstanceRun`) so their spans interleave on
/// one timeline.
pub fn tracer_for(network: &Arc<NetworkSim>) -> Tracer {
    let clock = Arc::clone(network);
    Tracer::new(Arc::new(move || clock.virtual_time_us()))
}

/// Check the cross-layer accounting invariants on an end-of-run snapshot.
///
/// * `delivery.delivered + delivery.faults.dropped ≥ delivery.sends` —
///   every send is either delivered or accounted to a drop fault (retries
///   may re-deliver, so the left side can exceed the right);
/// * `delivery.attempts ≥ delivery.sends` — each send costs at least one
///   attempt;
/// * `journal.replayed_records ≤ delivery.crashes_injected` — replay only
///   ever repairs a crash the channel absorbed (a portal dies mid-store, the
///   channel restarts it); an AEA or TFC crash is the scheduler's,
///   `run.takeovers`, and replays nothing;
/// * `alerts.stuck ≤ run.takeovers` — every observed stall is matched by a
///   supervisor takeover: the monitor may act early, but never sees more
///   stalls than the supervisor handled (`run.timeouts` counts the same
///   crashes' leases, so adding it would double the bound);
/// * on a fault-free run (no injected faults, no crashes, no retries, no
///   supervisor takeovers or lease timeouts, no `journal.replayed_records`) the
///   monitor must stay silent: `alerts.stuck + alerts.retry_storm +
///   alerts.crash_loop == 0`. `alerts.slo_breach` is deliberately exempt —
///   an SLO can be missed by honest slowness with nothing injected at all;
/// * `sched.activations == portal.notifications` — every TO-DO
///   notification a portal published reached the activation bus exactly
///   once: none lost, none fabricated;
/// * `sched.dispatched ≤ sched.activations` — the scheduler never executes
///   a hop it was not woken for;
/// * on a fault-free run that actually dispatched hops, the bus drains to
///   empty (`sched.bus_depth == 0`): with no duplicates in flight, every
///   wake-up is consumed;
/// * on the same fault-free drain, `sched.or_join_parked == 0` — every
///   OR-join deferral resolves by drain end (sound definitions guarantee
///   upstream quiescence);
/// * `sched.cancelled_dispatches == 0` unconditionally — work withdrawn by
///   a cancellation region must never reach dispatch with a live inbox
///   entry;
/// * `federation.failovers ≤ federation.quarantines + federation.outages`
///   — the active cloud only ever moves on evidence: a confirmed outage or
///   a quarantine that emptied it;
/// * `alerts.portal_tampered ≤ federation.quarantines` — every tamper
///   alert is answered by a quarantine (the controller may also quarantine
///   on retry-storm evidence, so the right side can exceed the left);
/// * the fault-free clause above also demands
///   `federation.tampered_serves == 0` and counts `alerts.portal_tampered`
///   toward the forbidden alert noise;
/// * `audit.divergences == 0` on honest runs — the fault-free clause also
///   demands the continuous auditor found nothing, and counts
///   `alerts.audit_divergence` toward the forbidden alert noise (the
///   auditor must never raise false alarms on an honest pool). A run that
///   deliberately forges stored rows must say so via the
///   injector-maintained `audit.tampered_rows` counter — like
///   `delivery.crashes_injected`, it is the evidence that disqualifies the
///   run from the silence clause;
/// * `audit.divergences ≤ audit.tampered_rows` unconditionally — the
///   auditor only ever catches rows an injector actually forged: anything
///   beyond that count is a false positive;
/// * `audit.tainted == 0` while `audit.divergences == 0` — a tainted row
///   fails because a row below it was indicted; taint without an
///   indictment is an attribution that lost its cause. (Tainted rows are
///   not divergences: one forged row taints every later version of its
///   process that keeps the forged bytes, so they are bounded by the pool,
///   not by `audit.tampered_rows`.)
/// * `audit.sampled ≤ pool.rows` — the auditor counts *distinct* rows, so
///   any number of sweeps can never claim more coverage than the pool
///   holds;
/// * `alerts.audit_divergence ≤ federation.quarantines + audit.divergences`
///   — on federated deployments every audit alert is answered by
///   quarantine; on single-cloud deployments (no controller) each alert is
///   at least backed by a recorded divergent row.
///
/// Counters a run never touched read as zero, so the checks degrade
/// gracefully on single-cloud runs (the `federation.*` counters —
/// `replicas_acked`, `quarantines`, `failovers`, `outages`, `reroutes`,
/// `tampered_serves` — only exist on federated deployments). Returns a
/// description of the first violated invariant.
pub fn check_metric_invariants(snapshot: &MetricsSnapshot) -> Result<(), String> {
    let sends = snapshot.counter("delivery.sends");
    let delivered = snapshot.counter("delivery.delivered");
    let dropped = snapshot.counter("delivery.faults.dropped");
    if delivered + dropped < sends {
        return Err(format!(
            "delivered ({delivered}) + dropped ({dropped}) < sends ({sends}): \
             a document vanished without a recorded drop fault"
        ));
    }
    let attempts = snapshot.counter("delivery.attempts");
    if sends > 0 && attempts < sends {
        return Err(format!("attempts ({attempts}) < sends ({sends}): a send cost no attempt"));
    }
    let replays = snapshot.counter("journal.replayed_records");
    let crashes = snapshot.counter("delivery.crashes_injected");
    if replays > crashes {
        return Err(format!(
            "journal.replayed_records ({replays}) > crashes_injected ({crashes}): \
             replay repaired more crashes than were injected"
        ));
    }
    let stuck = snapshot.counter("alerts.stuck");
    let takeovers = snapshot.counter("run.takeovers");
    let timeouts = snapshot.counter("run.timeouts");
    if stuck > takeovers {
        return Err(format!(
            "alerts.stuck ({stuck}) > run.takeovers ({takeovers}): \
             the monitor saw stalls the supervisor never handled"
        ));
    }
    // takeovers/timeouts/replays count as crash evidence too: an AEA or
    // TFC crash is the scheduler's, not the channel's, so
    // `delivery.crashes_injected` alone would miss it and falsely demand
    // silence from a monitor that correctly flagged a stalled hop
    let fault_free = crashes == 0
        && takeovers == 0
        && timeouts == 0
        && replays == 0
        && snapshot.counter("delivery.retries") == 0
        && snapshot.counter("federation.tampered_serves") == 0
        && snapshot.counter("audit.tampered_rows") == 0
        && ["dropped", "duplicated", "reordered", "delayed_us", "corrupted"]
            .iter()
            .all(|f| snapshot.counter(&format!("delivery.faults.{f}")) == 0);
    let audit_divergences = snapshot.counter("audit.divergences");
    if fault_free {
        let noise = stuck
            + snapshot.counter("alerts.retry_storm")
            + snapshot.counter("alerts.crash_loop")
            + snapshot.counter("alerts.portal_tampered")
            + snapshot.counter("alerts.audit_divergence");
        if noise > 0 {
            return Err(format!(
                "{noise} fault alert(s) on a fault-free run: \
                 the monitor raised false alarms with nothing injected"
            ));
        }
        if audit_divergences > 0 {
            return Err(format!(
                "audit.divergences ({audit_divergences}) > 0 on a fault-free run: \
                 the auditor flagged rows of an honest pool"
            ));
        }
    }
    let tampered_rows = snapshot.counter("audit.tampered_rows");
    if audit_divergences > tampered_rows {
        return Err(format!(
            "audit.divergences ({audit_divergences}) > audit.tampered_rows ({tampered_rows}): \
             the auditor flagged more rows than were ever forged"
        ));
    }
    let tainted = snapshot.counter("audit.tainted");
    if tainted > 0 && audit_divergences == 0 {
        return Err(format!(
            "audit.tainted ({tainted}) > 0 with no divergence: \
             rows fail above a broken link that nobody was indicted for"
        ));
    }
    let sampled = snapshot.counter("audit.sampled");
    let pool_rows = snapshot.counter("pool.rows");
    if sampled > pool_rows {
        return Err(format!(
            "audit.sampled ({sampled}) > pool.rows ({pool_rows}): \
             the auditor claims to have sampled rows the pool does not hold"
        ));
    }
    let failovers = snapshot.counter("federation.failovers");
    let quarantines = snapshot.counter("federation.quarantines");
    let outages = snapshot.counter("federation.outages");
    if failovers > quarantines + outages {
        return Err(format!(
            "federation.failovers ({failovers}) > federation.quarantines ({quarantines}) + \
             federation.outages ({outages}): the active cloud moved without evidence"
        ));
    }
    let tampered_alerts = snapshot.counter("alerts.portal_tampered");
    if tampered_alerts > quarantines {
        return Err(format!(
            "alerts.portal_tampered ({tampered_alerts}) > federation.quarantines ({quarantines}): \
             a tamper alert went unanswered"
        ));
    }
    let audit_alerts = snapshot.counter("alerts.audit_divergence");
    if audit_alerts > quarantines + audit_divergences {
        return Err(format!(
            "alerts.audit_divergence ({audit_alerts}) > federation.quarantines ({quarantines}) + \
             audit.divergences ({audit_divergences}): an audit alert has no divergent row \
             or quarantine behind it"
        ));
    }
    let activations = snapshot.counter("sched.activations");
    let notifications = snapshot.counter("portal.notifications");
    if activations != notifications {
        return Err(format!(
            "sched.activations ({activations}) != portal.notifications ({notifications}): \
             a TO-DO notification was lost or fabricated on the bus"
        ));
    }
    let dispatched = snapshot.counter("sched.dispatched");
    if dispatched > activations {
        return Err(format!(
            "sched.dispatched ({dispatched}) > sched.activations ({activations}): \
             the scheduler executed hops it was never woken for"
        ));
    }
    if fault_free && dispatched > 0 {
        let depth = snapshot.gauge("sched.bus_depth");
        if depth != 0 {
            return Err(format!(
                "sched.bus_depth ({depth}) != 0 after a fault-free drain: \
                 activations were left stranded on the bus"
            ));
        }
        let parked = snapshot.gauge("sched.or_join_parked");
        if parked != 0 {
            return Err(format!(
                "sched.or_join_parked ({parked}) != 0 after a fault-free drain: \
                 a synchronizing merge never resolved"
            ));
        }
    }
    let cancelled_dispatches = snapshot.counter("sched.cancelled_dispatches");
    if cancelled_dispatches != 0 {
        return Err(format!(
            "sched.cancelled_dispatches ({cancelled_dispatches}) != 0: \
             work a cancellation region withdrew was still about to dispatch"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_obs::MetricsRegistry;

    #[test]
    fn tracer_reads_virtual_time() {
        let network = Arc::new(NetworkSim::lan());
        let tracer = tracer_for(&network);
        let before = tracer.now_us();
        network.advance(1_234);
        assert_eq!(tracer.now_us(), before + 1_234);
    }

    #[test]
    fn invariants_hold_on_empty_snapshot() {
        let metrics = MetricsRegistry::new();
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_vanished_documents() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("delivery.sends", 10);
        metrics.set_counter("delivery.delivered", 7);
        metrics.set_counter("delivery.faults.dropped", 2);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("vanished"), "got: {err}");
    }

    #[test]
    fn invariants_catch_stalls_beyond_the_takeovers() {
        // the scheduler counts a takeover and a lease timeout per crash, so
        // two stalls against one crash is one stall too many
        let metrics = MetricsRegistry::new();
        metrics.set_counter("alerts.stuck", 2);
        metrics.set_counter("run.takeovers", 1);
        metrics.set_counter("run.timeouts", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("never handled"), "got: {err}");
        metrics.set_counter("run.takeovers", 2);
        metrics.set_counter("run.timeouts", 2);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_phantom_replays() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("journal.replayed_records", 3);
        metrics.set_counter("delivery.crashes_injected", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("replay"), "got: {err}");
    }

    #[test]
    fn invariants_catch_evidence_free_failovers() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("federation.failovers", 2);
        metrics.set_counter("federation.quarantines", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("without evidence"), "got: {err}");
        metrics.set_counter("federation.outages", 1);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_unanswered_tamper_alerts() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("alerts.portal_tampered", 1);
        metrics.set_counter("federation.tampered_serves", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("unanswered"), "got: {err}");
        metrics.set_counter("federation.quarantines", 1);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_auditor_false_alarms_on_honest_runs() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("pool.rows", 10);
        metrics.set_counter("audit.sampled", 10);
        metrics.set_counter("audit.divergences", 1);
        metrics.set_counter("alerts.audit_divergence", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("false alarms"), "got: {err}");
        // declared forgeries exempt the run from the silence clause and
        // back the divergence one-to-one
        metrics.set_counter("audit.tampered_rows", 1);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_divergences_beyond_declared_forgeries() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("audit.tampered_rows", 1);
        metrics.set_counter("audit.divergences", 2);
        metrics.set_counter("pool.rows", 10);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("more rows than were ever forged"), "got: {err}");
        metrics.set_counter("audit.tampered_rows", 2);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_taint_without_an_indicted_row() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("audit.tampered_rows", 1);
        metrics.set_counter("audit.tainted", 5);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("nobody was indicted"), "got: {err}");
        // one broken link may taint any number of rows above it
        metrics.set_counter("audit.divergences", 1);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_phantom_audit_coverage() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("pool.rows", 5);
        metrics.set_counter("audit.sampled", 6);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("does not hold"), "got: {err}");
        metrics.set_counter("audit.sampled", 5);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn invariants_catch_unbacked_audit_alerts() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("audit.tampered_rows", 1); // declared forgery
        metrics.set_counter("alerts.audit_divergence", 2);
        metrics.set_counter("audit.divergences", 1);
        let err = check_metric_invariants(&metrics.snapshot()).unwrap_err();
        assert!(err.contains("audit alert"), "got: {err}");
        metrics.set_counter("federation.quarantines", 1);
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }

    #[test]
    fn tampered_serves_break_fault_free_silence() {
        let metrics = MetricsRegistry::new();
        metrics.set_counter("federation.tampered_serves", 1);
        metrics.set_counter("federation.quarantines", 1);
        metrics.set_counter("alerts.portal_tampered", 1);
        // a tampered serve disqualifies the run from the fault-free clause,
        // so the (correct) tamper alert is not treated as a false alarm
        check_metric_invariants(&metrics.snapshot()).unwrap();
    }
}
