//! Claim C15: pool-side monitoring is **cheap, live and honest** — the
//! typed scan API answers fleet queries touching strictly fewer rows than
//! a full table read, the incrementally maintained fleet views are
//! byte-identical to a fresh MapReduce recompute in every cell, and the
//! continuous nonrepudiation auditor accounts for 100% of seeded stored-row
//! forgeries — each is indicted, or tainted by a forged row below it in its
//! own process — with no honest row indicted, on federated deployments
//! pumping the divergence alert straight into quarantine.
//!
//! Three cell families:
//!
//! * `fleet-NNNN` (honest) — N Fig. 9A instances through the scheduler,
//!   then: the status aggregation's scan-counter delta vs the pool's row
//!   count, the `views ≡ scan` differential (map equality *and* byte
//!   equality of the rendered pool view), and a full auditor sweep that
//!   must stay silent;
//! * `tamper-S` (seeded) — a small fleet, then 3 stored **non-latest**
//!   rows forged in place (rows below the latest, which nobody reads
//!   directly; one byte of what the hop appended is flipped); a full auditor sweep must indict forged rows
//!   only and leave no forged row unaccounted for. A stored version copies
//!   the bytes of the versions below it, so a forged row fails the rows
//!   that copy the flipped byte: those are `tainted`, not alerts, while a
//!   second forged row among them is `detected` on its own when its hop's
//!   CER no longer verifies and the rows between verify;
//! * `federated-quarantine` — a 2-cloud fleet with one forged row on the
//!   active cloud: the auditor's typed alert, pumped through the
//!   `FederationController`, quarantines every portal of the indicted
//!   cloud and fails the deployment over.
//!
//! Every cell also records the scan-counter delta of the latency
//! statistic, which its view answers without reading a pool row.
//!
//! All numbers are virtual-time: `BENCH_dashboard.json` (held against
//! `perf/BENCH_dashboard.baseline.json`), the 300-instance cell's
//! `fleet_dashboard.json` and the alert stream
//! `BENCH_dashboard_alerts.jsonl` must all come out byte-identical on
//! every run.

use super::{held, ClaimOutput, Row, Rows};
use crate::rig::{Rig, SEEDS};
use dra_cloud::federation::{flip_tail, forge_stored_row};
use dra_cloud::{AuditConfig, CloudSystem, FaultProfile, PoolAuditor, Topology};
use dra_docpool::{HTable, Scan};

const AUDIT_BATCH: usize = 32;
const AUDIT_PERIOD_US: u64 = 10_000;
const FORGED_PER_TAMPER_CELL: usize = 3;

fn pids(prefix: &str, n: usize) -> impl Iterator<Item = String> + '_ {
    (0..n).map(move |i| format!("{prefix}{i:04}"))
}

/// Drive the auditor through one complete sweep of every member cloud in
/// virtual time: enough periodic passes to wrap the largest `doc/` range.
fn full_audit_sweep(fx: &Rig, sys: &CloudSystem) -> PoolAuditor {
    let config =
        AuditConfig { batch: AUDIT_BATCH, period_us: AUDIT_PERIOD_US, ..AuditConfig::default() };
    let auditor = PoolAuditor::new(config);
    let doc_rows = sys
        .audit_pools()
        .iter()
        .map(|(_, _, pool)| pool.query(&Scan::prefix("doc/")).rows.len())
        .max()
        .unwrap_or(0);
    let passes = doc_rows.div_ceil(AUDIT_BATCH) + 1;
    for _ in 0..passes {
        let now = fx.network.virtual_time_us();
        assert!(auditor.due(now), "periodic schedule kept");
        auditor.run_pass(sys, Some(&fx.monitor), now);
        fx.network.advance(AUDIT_PERIOD_US);
    }
    auditor
}

/// The stored `doc/` keys that are *not* the latest version of their
/// process — rows the serve path never touches, in key order: a version is
/// not the latest exactly when the next key is its own process's.
fn non_latest_doc_keys(pool: &HTable) -> Vec<String> {
    let rows = pool.query(&Scan::prefix("doc/")).rows;
    let process = |key: &str| key.rfind('/').map(|slash| key[..=slash].to_string());
    rows.windows(2)
        .filter(|pair| process(&pair[0].0) == process(&pair[1].0))
        .map(|pair| pair[0].0.to_string())
        .collect()
}

/// The leading fields of a cell's row, with the rows the latency statistic
/// scans on every member cloud: 0 while its view answers it. Taken before
/// the `views ≡ scan` check, which would measure a lagging process first.
fn cell(name: &str, instances: usize, completed: usize, sys: &CloudSystem) -> Row {
    let scanned = || sys.audit_pools().iter().map(|(_, _, pool)| pool.scan_counters().0).sum();
    let before: usize = scanned();
    sys.activity_latency_stats(2);
    let row = Row::new().with("cell", name).with("instances", instances);
    row.with("completed", completed).with("latency_scanned_rows", scanned() - before)
}

/// Close a cell: export every layer's books — declaring the `forged` rows,
/// so the honest-silence invariant knows what to expect — and read the
/// audit back into the cell's row: forged rows indicted (`detected`), rows
/// failing above an indicted one (`tainted`), forged rows the auditor
/// neither indicted nor tainted (`unaccounted`), and indicted rows nobody
/// forged (`false_positives`). Scan cost and federation counters start at
/// zero for the caller to [`Row::set`].
fn close(
    cell: Row,
    fx: &Rig,
    sys: &CloudSystem,
    auditor: &PoolAuditor,
    forged: &[String],
    views_identical: bool,
    out: &mut ClaimOutput,
) -> Row {
    sys.export_metrics(&fx.metrics);
    auditor.export_metrics(&fx.metrics);
    fx.monitor.export_metrics(&fx.metrics);
    if !forged.is_empty() {
        fx.metrics.set_counter("audit.tampered_rows", forged.len() as u64);
    }
    let snap = fx.metrics.snapshot();
    let (invariants_ok, _) = out.close_cell(cell.text("cell"), fx);
    let (indicted, tainted) = (auditor.divergent_rows(), auditor.tainted_rows());
    let forged_among = |rows: &[(String, String)]| {
        forged.iter().filter(|key| rows.iter().any(|(_, row)| row == *key)).count()
    };
    let detected = forged_among(&indicted);
    cell.with("pool_rows", snap.counter("pool.rows"))
        .with("agg_scanned_rows", 0u64)
        .with("agg_scanned_regions", 0u64)
        .with("audit_passes", snap.counter("audit.passes"))
        .with("audit_sampled", snap.counter("audit.sampled"))
        .with("tampered_rows", forged.len())
        .with("detected", detected)
        .with("tainted", tainted.len())
        .with("unaccounted", forged.len() - detected - forged_among(&tainted))
        .with("false_positives", indicted.len() - detected)
        .with("audit_alerts", snap.counter("alerts.audit_divergence"))
        .with("quarantines", 0u64)
        .with("failovers", 0u64)
        .with("views_identical", if views_identical { "yes" } else { "NO" })
        .with("invariants", held(invariants_ok))
}

/// Honest fleet cell: scan-backed aggregation efficiency, `views ≡ scan`
/// byte identity, and a silent full auditor sweep. Also returns the
/// incrementally maintained dashboard.
fn run_fleet_cell(n: usize, out: &mut ClaimOutput) -> (Row, String) {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(4);
    let completed = fx.fleet(&sys, pids("dash-", n), sys.channel());

    // the monitoring aggregation's scan cost, isolated as a counter delta
    let (rows_before, scans_before) = sys.active_pool().scan_counters();
    let statuses = sys.statistics_by_status(4);
    let (rows_after, scans_after) = sys.active_pool().scan_counters();
    let complete_statuses = statuses.get("complete").copied().unwrap_or(0);
    let cell = cell(&format!("fleet-{n:04}"), n, completed, &sys);

    // incremental views vs a fresh full recompute: map and byte identity
    let views_identical = sys.views_match_scan(4).is_ok()
        && sys.fleet_views().pool_view_json() == sys.recompute_pool_view_json()
        && complete_statuses == completed;

    let auditor = full_audit_sweep(&fx, &sys);
    // nothing was forged: whatever the auditor indicts is a false positive
    let row = close(cell, &fx, &sys, &auditor, &[], views_identical, out)
        .set("agg_scanned_rows", rows_after - rows_before)
        .set("agg_scanned_regions", scans_after - scans_before);
    (row, sys.fleet_dashboard_json())
}

/// Seeded tamper cell: forge stored non-latest rows, then prove the sweep
/// indicts none but those and accounts for every one of them.
fn run_tamper_cell(seed: u64, out: &mut ClaimOutput) -> Row {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(2);
    let n = 6;
    let completed = fx.fleet(&sys, pids(&format!("tam{seed}-"), n), sys.channel());

    // forge FORGED_PER_TAMPER_CELL distinct non-latest rows, seed-picked
    let candidates = non_latest_doc_keys(sys.active_pool());
    let mut forged: Vec<String> = Vec::new();
    let mut idx = seed as usize;
    while forged.len() < FORGED_PER_TAMPER_CELL && forged.len() < candidates.len() {
        idx = (idx.wrapping_mul(31).wrapping_add(17)) % candidates.len();
        let key = &candidates[idx];
        if !forged.contains(key) {
            // one byte of what the row's hop appended has its case flipped:
            // the federation sweep's serve tamper, applied to the pool
            forge_stored_row(sys.active_pool(), key, flip_tail);
            forged.push(key.clone());
        }
    }

    let auditor = full_audit_sweep(&fx, &sys);
    let cell = cell(&format!("tamper-{seed}"), n, completed, &sys);
    let views_identical = sys.views_match_scan(2).is_ok();
    close(cell, &fx, &sys, &auditor, &forged, views_identical, out)
}

/// Federated cell: one forged row on the active cloud; the pumped alert
/// must quarantine that whole cloud and fail the deployment over.
fn run_federated_cell(out: &mut ClaimOutput) -> Row {
    let fx = Rig::fig9(false);
    let (sys, ctrl) = fx.federated(Topology::new().cloud("east", 2).cloud("west", 2));
    let delivery = fx.channel(FaultProfile::lossless(), 1);
    let n = 4;
    let completed = fx.fleet(&sys, pids("fedq-", n), &delivery);

    // forge one non-latest row on the active cloud's pool
    let pools = sys.audit_pools();
    let (_, _, active_pool) = &pools[ctrl.stats().active_cloud];
    let key = non_latest_doc_keys(active_pool).first().cloned().expect("non-latest row");
    forge_stored_row(active_pool, &key, flip_tail);

    let auditor = full_audit_sweep(&fx, &sys);
    // the scheduler normally polls between dispatches; the background
    // auditor's alert is consumed on the next poll
    sys.federation_poll();

    let cell = cell("federated-quarantine", n, completed, &sys);
    let views_identical = sys.views_match_scan(2).is_ok();
    let row = close(cell, &fx, &sys, &auditor, &[key], views_identical, out);
    let stats = ctrl.stats();
    row.set("quarantines", stats.quarantines).set("failovers", stats.failovers)
}

pub(super) fn run() -> ClaimOutput {
    let mut out = ClaimOutput::default();
    let mut cells = Vec::new();
    for n in [100usize, 300] {
        let (cell, dashboard) = run_fleet_cell(n, &mut out);
        cells.push(cell);
        if n == 300 {
            out.file("fleet_dashboard.json", dashboard);
        }
    }
    for seed in SEEDS {
        cells.push(run_tamper_cell(seed, &mut out));
    }
    cells.push(run_federated_cell(&mut out));
    out.alerts_file("BENCH_dashboard_alerts.jsonl");

    let honest = |c: &&Row| c.int("tampered_rows") == 0;
    out.verdict(
        "every cell completed its fleet",
        cells.iter().all(|c| c.int("completed") == c.int("instances")),
    );
    out.verdict(
        "monitoring scans touch strictly fewer rows than the pool holds",
        cells.iter().filter(|c| c.text("cell").starts_with("fleet-")).all(|c| {
            c.int("agg_scanned_rows") > 0 && c.int("agg_scanned_rows") < c.int("pool_rows")
        }),
    );
    out.verdict(
        "the latency statistic reads no pool row in any cell",
        cells.iter().all(|c| c.int("latency_scanned_rows") == 0),
    );
    out.verdict(
        "incremental views byte-identical to full recompute everywhere",
        cells.iter().all(|c| c.text("views_identical") == "yes"),
    );
    let nothing_honest_indicted = |c: &Row| c.int("false_positives") == 0;
    out.verdict(
        "auditor silent on every honest cell",
        cells.iter().filter(honest).all(|c| {
            nothing_honest_indicted(c) && c.int("tainted") == 0 && c.int("audit_alerts") == 0
        }),
    );
    out.verdict(
        "every seeded forgery indicted or tainted, no honest row indicted",
        cells.iter().filter(|c| !honest(c)).all(|c| {
            c.int("detected") > 0 && c.int("unaccounted") == 0 && nothing_honest_indicted(c)
        }),
    );
    out.verdict(
        "audit alert pumped into whole-cloud quarantine + failover",
        cells
            .iter()
            .filter(|c| c.text("cell") == "federated-quarantine")
            .all(|c| c.int("quarantines") >= 2 && c.int("failovers") >= 1),
    );
    out.set_rows(Rows::array(cells));
    out
}
