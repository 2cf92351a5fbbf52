//! Claim C8: crash-fault recovery — under every single-crash schedule at
//! every crash site (AEA after-verify / before-sign / after-sign, TFC
//! between timestamp and re-encrypt, portal between seen-row and document
//! row), every Fig. 9 instance still completes and the final document pool
//! is **byte-identical** to the crash-free run: no CER lost, none appended
//! twice, no double timestamp.
//!
//! The machinery under test: the portals' write-ahead journal (replayed on
//! restart), the TFC redo log (re-emits the same timestamped document), the
//! runner's lease-based hop takeover (re-dispatches the acked input it
//! holds) and deterministic signing + sealing (the re-executed hop is
//! byte-identical, so the wire-digest idempotency suppresses any copy the
//! dead agent did land).
//!
//! The sweep is fully deterministic (virtual time only, one seeded
//! [`FaultPlan`] per cell): `BENCH_crash.json` and the alert stream
//! `BENCH_crash_alerts.jsonl` must come out byte-identical on every run.
//!
//! Every cell runs under a live [`HealthMonitor`](dra_cloud::HealthMonitor):
//! stalls caused by a crashed hop surface as `stuck_instance` alerts
//! *during* the run, the alert books are balanced against the runner's
//! takeover counters by `check_metric_invariants`, and the crash-free
//! baselines must stay alert-silent.

use super::{draw, held, ClaimOutput, Row, Rows};
use crate::rig::{Rig, SEEDS};
use dra4wfms_core::faultpoint::site;
use dra4wfms_core::prelude::*;
use dra_cloud::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const INSTANCES: usize = 4;
/// The scheduled crash visit is drawn from the seed in `[1, MAX_NTH]`;
/// every crash site is visited ≥ 36 times per cell, so the plan always
/// fires exactly once.
const MAX_NTH: u64 = 12;
/// The single-cloud crash sites, in sweep order (the basic model, with no
/// TFC, skips the TFC's).
const SITES: [&str; 5] = [
    site::AEA_AFTER_VERIFY,
    site::AEA_BEFORE_SIGN,
    site::AEA_AFTER_SIGN,
    site::TFC_AFTER_TIMESTAMP,
    site::PORTAL_BETWEEN_SEEN_AND_STORE,
];

/// Run `INSTANCES` Fig. 9 instances on a fresh deployment, crashing at
/// `crash`'s `(site, nth visit)` when there is one.
fn run_cell(
    mode: &str,
    advanced: bool,
    crash: Option<(&str, u64)>,
    seed: u64,
    out: &mut ClaimOutput,
) -> Row {
    let (point, nth) = crash.unwrap_or(("none", 0));
    let plan = match crash {
        Some((site, nth)) => FaultPlan::once(site, nth),
        None => FaultPlan::none(),
    };
    // fresh deterministic clock per cell: crash-free and crashed runs
    // draw the same timestamps (the redo log guarantees one draw per hop)
    let draws = AtomicU64::new(0);
    let clock = Arc::new(move || 1_000 + draws.fetch_add(1, Ordering::Relaxed));
    let fx = Rig::fig9(advanced).with_faults(&plan).tfc_clock(clock);
    let sys = fx.cloud(3);

    let mut completed = 0usize;
    for i in 0..INSTANCES {
        let initial = fx.initial(&format!("crash-{i:02}"));
        if let Ok(run) = fx.run(&sys, &initial).run() {
            if run.steps == 9 {
                Verifier::new(&fx.dir).run(&run.document).expect("final document verifies");
                completed += 1;
            }
        }
    }
    // the successful runs' expired leases: the scheduler's, not the channel's
    let leases_expired = fx.metrics.snapshot().counter("run.timeouts");

    let stats = sys.channel().stats();
    let (invariants_ok, alerts) = out.close_cell(&format!("{mode}/{point}/{seed}"), &fx);
    Row::new()
        .with("mode", mode)
        .with("point", point)
        .with("seed", seed)
        .with("nth", nth)
        .with("instances", INSTANCES)
        .with("completed", completed)
        .with("crashes_injected", plan.fired())
        .with("leases_expired", leases_expired)
        .with("journal_replays", sys.journal_replays())
        .with("sends", stats.sends)
        .with("attempts", stats.attempts)
        .with("duplicates_suppressed", stats.duplicates_suppressed)
        .with("virtual_time_us", stats.virtual_time_us)
        .with("pool_sha256", sys.pool_digest())
        .with("alerts", alerts)
        .with("invariants", held(invariants_ok))
}

pub(super) fn run() -> ClaimOutput {
    let mut out = ClaimOutput::default();
    let mut rows = Vec::new();
    let mut baselines_ok = true;
    let mut recovered = true;
    let complete = |c: &Row| c.int("completed") == INSTANCES as i64;
    for (mode, advanced) in [("basic", false), ("tfc", true)] {
        // crash-free baseline fixes the byte-identity target for this mode
        // … and the monitor must stay completely silent on it
        let baseline = run_cell(mode, advanced, None, 0, &mut out);
        baselines_ok &= complete(&baseline)
            && baseline.int("crashes_injected") == 0
            && baseline.int("alerts") == 0;
        let target = baseline.get("pool_sha256").cloned();
        rows.push(baseline);

        for site in SITES.into_iter().filter(|&s| advanced || s != site::TFC_AFTER_TIMESTAMP) {
            for seed in SEEDS {
                let crash = Some((site, draw(seed, MAX_NTH)));
                let cell = run_cell(mode, advanced, crash, seed, &mut out);
                recovered &= complete(&cell)
                    && cell.int("crashes_injected") == 1
                    && cell.get("pool_sha256") == target.as_ref();
                rows.push(cell);
            }
        }
    }
    out.set_rows(Rows::array(rows));
    out.alerts_file("BENCH_crash_alerts.jsonl");
    out.verdict("crash-free baselines complete, crash nothing and raise zero alerts", baselines_ok);
    out.verdict(
        "every crashed cell completes, crashes exactly once and recovers the baseline's pool bytes",
        recovered,
    );
    out
}
