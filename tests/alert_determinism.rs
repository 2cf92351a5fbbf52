//! Integration: alert streams are byte-deterministic (DESIGN §12), and
//! every `ReconcileError` variant renders a stable, self-explaining
//! message.
//!
//! Alerts are stamped in virtual time off the deterministic span stream,
//! so the same seed must yield byte-identical alert JSONL run after run —
//! the same contract traces have, pinned the same way: a golden under
//! `tests/golden/`, regenerated only intentionally with:
//!
//! ```sh
//! REGEN_GOLDEN=1 cargo test --test alert_determinism
//! ```

mod common;

use common::check_golden;
use dra4wfms::cloud::{alerts_to_jsonl, FaultPlan};
use dra4wfms::core::document::CerKey;
use dra4wfms::core::faultpoint::site;
use dra4wfms::core::reconcile::ReconcileError;

/// The golden workload: one Fig. 9A instance with a single injected crash
/// (stuck-hop → early takeover) and an unmeetable 1 µs SLO, so the alert
/// stream exercises `stuck_instance` *and* `slo_breach` deterministically.
fn monitored_alerts() -> String {
    let rig = common::golden_rig().with_faults(&FaultPlan::once(site::AEA_BEFORE_SIGN, 3));
    let sys = rig.cloud(3);
    let initial = rig.initial("golden-run");
    let out = rig.run(&sys, &initial).slo_us(1).run().unwrap();
    assert_eq!(out.steps, 9);
    alerts_to_jsonl(&rig.monitor.alerts())
}

#[test]
fn same_seed_yields_byte_identical_alert_jsonl() {
    let first = monitored_alerts();
    let second = monitored_alerts();
    assert_eq!(first, second);
    assert!(first.contains("\"kind\":\"stuck_instance\""), "the injected stall is in the stream");
    assert!(first.contains("\"kind\":\"slo_breach\""), "the unmeetable SLO is in the stream");
}

#[test]
fn alert_jsonl_matches_golden() {
    check_golden("fig9a.alerts.jsonl", &monitored_alerts());
}

/// `Display` snapshot for every `ReconcileError` variant: these strings
/// reach operators verbatim (bench summaries, CI logs), so changes must be
/// deliberate.
#[test]
fn reconcile_error_display_snapshots() {
    let cases: Vec<(ReconcileError, &str)> = vec![
        (ReconcileError::Document("bad xml".into()), "document unreadable: bad xml"),
        (
            ReconcileError::MissingFromTrace { position: 2, expected: CerKey::new("B1", 0) },
            "cascade position 2: document proves B1#0 but the trace has no successful hop for it",
        ),
        (
            ReconcileError::UnprovenExecution { position: 4, activity: "C".into(), iter: 1 },
            "hop position 4: trace claims C#1 succeeded but the document proves no such execution",
        ),
        (
            ReconcileError::OrderMismatch {
                position: 1,
                document: CerKey::new("A", 0),
                trace: CerKey::new("B2", 0),
            },
            "cascade position 1: document proves A#0 but the trace observed B2#0 there",
        ),
        (
            ReconcileError::ParticipantMismatch {
                key: CerKey::new("C", 0),
                document: "p_c".into(),
                trace: "mallory".into(),
            },
            "C#0: document proves participant 'p_c' but the trace attributes the hop to 'mallory'",
        ),
        (
            ReconcileError::TimestampUnwitnessed { key: CerKey::new("A", 1), timestamp: 250 },
            "A#1: document embeds TFC timestamp 250ms but no tfc:timestamp span witnessed it",
        ),
        (
            ReconcileError::TimestampMismatch {
                key: CerKey::new("D", 0),
                document: 300,
                trace: 301,
            },
            "D#0: document embeds TFC timestamp 300ms but the trace witnessed 301ms",
        ),
        (
            ReconcileError::TimestampOutsideHop {
                key: CerKey::new("B2", 0),
                witness_us: (10, 20),
                hop_us: (30, 40),
            },
            "B2#0: tfc:timestamp witness [10..20]µs lies outside its successful hop [30..40]µs",
        ),
        (
            ReconcileError::CancelledExecution {
                position: 3,
                key: CerKey::new("V", 0),
                trigger: "T".into(),
            },
            "cascade position 3: V#0 executed although completion of 'T' had cancelled its region",
        ),
        (
            ReconcileError::JoinMissingBranch {
                position: 2,
                join: CerKey::new("J", 0),
                branch: "R2".into(),
            },
            "cascade position 2: join J#0 fired without incoming branch 'R2'",
        ),
    ];
    for (err, expected) in cases {
        assert_eq!(err.to_string(), expected);
    }
}
