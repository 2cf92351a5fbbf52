//! Claim C15: pool-side monitoring is **cheap, live and honest** — the
//! typed scan API answers fleet queries touching strictly fewer rows than
//! a full table read, the incrementally maintained fleet views are
//! byte-identical to a fresh MapReduce recompute in every cell, and the
//! continuous nonrepudiation auditor catches 100% of seeded stored-row
//! forgeries with zero false positives on honest cells — on federated
//! deployments pumping the divergence alert straight into quarantine.
//!
//! Three cell families:
//!
//! * `fleet-NNNN` (honest) — N Fig. 9A instances through the scheduler,
//!   then: the status aggregation's scan-counter delta vs the pool's row
//!   count, the `views ≡ scan` differential (map equality *and* byte
//!   equality of the rendered pool view), and a full auditor sweep that
//!   must stay silent;
//! * `tamper-S` (seeded) — a small fleet, then 3 stored **non-latest**
//!   rows forged in place via `pool.put` (rows nobody ever serves); a full
//!   auditor sweep must flag exactly the forged keys;
//! * `federated-quarantine` — a 2-cloud fleet with one forged row on the
//!   active cloud: the auditor's typed alert, pumped through the
//!   `FederationController`, quarantines every portal of the indicted
//!   cloud and fails the deployment over.
//!
//! All numbers are virtual-time: `BENCH_dashboard.json` (held against
//! `perf/BENCH_dashboard.baseline.json`), the 300-instance cell's
//! `fleet_dashboard.json` and the alert stream
//! `BENCH_dashboard_alerts.jsonl` must all come out byte-identical on
//! every run.

use super::fixture::{Fig9, SEEDS};
use super::{held, ClaimOutput, Row, Rows};
use dra_cloud::{AuditConfig, CloudSystem, FaultProfile, PoolAuditor, Topology};
use dra_docpool::Scan;

const AUDIT_BATCH: usize = 32;
const AUDIT_PERIOD_US: u64 = 10_000;
const FORGED_PER_TAMPER_CELL: usize = 3;

fn pids(prefix: &str, n: usize) -> impl Iterator<Item = String> + '_ {
    (0..n).map(move |i| format!("{prefix}{i:04}"))
}

/// Drive the auditor through one complete sweep of every member cloud in
/// virtual time: enough periodic passes to wrap the largest `doc/` range.
fn full_audit_sweep(fx: &Fig9, sys: &CloudSystem, threads: usize) -> PoolAuditor {
    let auditor =
        PoolAuditor::new(AuditConfig { batch: AUDIT_BATCH, period_us: AUDIT_PERIOD_US, threads });
    let doc_rows = sys
        .audit_pools()
        .iter()
        .map(|(_, _, pool)| pool.query_count(&Scan::prefix("doc/")))
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

/// In-place forgery of one stored row: ASCII case-flip of the first
/// alphabetic byte past the midpoint (same byte-budget as the federation
/// sweep's serve tamper, but applied to the *pool*, not the serve path).
fn forge(xml: &str) -> String {
    let bytes = xml.as_bytes();
    let mid = bytes.len() / 2;
    let mut out = bytes.to_vec();
    for i in (mid..bytes.len()).chain(0..mid) {
        if out[i].is_ascii_alphabetic() {
            out[i] ^= 0x20;
            break;
        }
    }
    String::from_utf8(out).expect("case flip preserves utf8")
}

/// The stored `doc/` keys that are *not* the latest version of their
/// process — rows the serve path never touches, in key order.
fn non_latest_doc_keys(pool: &dra_docpool::HTable) -> Vec<String> {
    let rows = pool.query(&Scan::prefix("doc/").family("doc"));
    let keys: Vec<String> = rows.rows.into_iter().map(|(k, _)| k).collect();
    keys.iter()
        .filter(|k| {
            let pid_prefix = match k.rfind('/') {
                Some(i) => &k[..=i],
                None => return false,
            };
            // not the last key of its pid group
            keys.iter().filter(|o| o.starts_with(pid_prefix)).max() != Some(k)
        })
        .cloned()
        .collect()
}

/// The leading fields of a cell's row.
fn cell(name: &str, instances: usize, completed: usize) -> Row {
    Row::new().with("cell", name).with("instances", instances).with("completed", completed)
}

/// Close a cell: export every layer's books — declaring `tampered_rows`
/// forged rows, so the honest-silence invariant knows what to expect —
/// and read the audit counters back into the cell's row. Scan cost,
/// false positives and federation counters start at zero for the caller
/// to [`Row::set`].
fn close(
    cell: Row,
    fx: &Fig9,
    sys: &CloudSystem,
    auditor: &PoolAuditor,
    tampered_rows: u64,
    views_identical: bool,
    out: &mut ClaimOutput,
) -> Row {
    sys.export_metrics(&fx.metrics);
    auditor.export_metrics(&fx.metrics);
    fx.monitor.export_metrics(&fx.metrics);
    if tampered_rows > 0 {
        fx.metrics.set_counter("audit.tampered_rows", tampered_rows);
    }
    let snap = fx.metrics.snapshot();
    let (invariants_ok, _) = out.close_cell(cell.text("cell"), fx);
    cell.with("pool_rows", snap.counter("pool.rows"))
        .with("agg_scanned_rows", 0u64)
        .with("agg_scanned_regions", 0u64)
        .with("audit_passes", snap.counter("audit.passes"))
        .with("audit_sampled", snap.counter("audit.sampled"))
        .with("tampered_rows", tampered_rows)
        .with("detected", snap.counter("audit.divergences"))
        .with("false_positives", 0u64)
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
    let fx = Fig9::new(false);
    let sys = fx.cloud(4);
    let completed = fx.fleet(&sys, pids("dash-", n), None);

    // the monitoring aggregation's scan cost, isolated as a counter delta
    let (rows_before, regions_before) = sys.active_pool().scan_counters();
    let statuses = sys.statistics_by_status(4);
    let (rows_after, regions_after) = sys.active_pool().scan_counters();
    let complete_statuses = statuses.get("complete").copied().unwrap_or(0);

    // incremental views vs a fresh full recompute: map and byte identity
    let views_identical = sys.views_match_scan(4).is_ok()
        && sys.fleet_views().pool_view_json() == sys.recompute_pool_view_json(4)
        && complete_statuses == completed;

    let auditor = full_audit_sweep(&fx, &sys, 4);
    let cell = cell(&format!("fleet-{n:04}"), n, completed);
    let row = close(cell, &fx, &sys, &auditor, 0, views_identical, out);
    // nothing was forged: whatever the auditor flags is a false positive
    let false_positives = row.int("detected");
    let row = row
        .set("agg_scanned_rows", rows_after - rows_before)
        .set("agg_scanned_regions", regions_after - regions_before)
        .set("false_positives", false_positives);
    (row, sys.fleet_dashboard_json())
}

/// Seeded tamper cell: forge stored non-latest rows, then prove the sweep
/// flags exactly those keys.
fn run_tamper_cell(seed: u64, out: &mut ClaimOutput) -> Row {
    let fx = Fig9::new(false);
    let sys = fx.cloud(2);
    let n = 6;
    let completed = fx.fleet(&sys, pids(&format!("tam{seed}-"), n), None);

    // forge FORGED_PER_TAMPER_CELL distinct non-latest rows, seed-picked
    let candidates = non_latest_doc_keys(sys.active_pool());
    let mut forged: Vec<String> = Vec::new();
    let mut idx = seed as usize;
    while forged.len() < FORGED_PER_TAMPER_CELL && forged.len() < candidates.len() {
        idx = (idx.wrapping_mul(31).wrapping_add(17)) % candidates.len();
        let key = &candidates[idx];
        if !forged.contains(key) {
            let xml = sys.active_pool().get_str(key, "doc", "xml").expect("doc cell");
            sys.active_pool().put(key, "doc", "xml", forge(&xml));
            forged.push(key.clone());
        }
    }

    let auditor = full_audit_sweep(&fx, &sys, 2);
    let caught = auditor.divergent_rows();
    let detected = caught.iter().filter(|(_, key)| forged.contains(key)).count();
    let cell = cell(&format!("tamper-{seed}"), n, completed);
    let views_identical = sys.views_match_scan(2).is_ok();
    close(cell, &fx, &sys, &auditor, forged.len() as u64, views_identical, out)
        .set("detected", detected)
        .set("false_positives", caught.len() - detected)
}

/// Federated cell: one forged row on the active cloud; the pumped alert
/// must quarantine that whole cloud and fail the deployment over.
fn run_federated_cell(out: &mut ClaimOutput) -> Row {
    let fx = Fig9::new(false);
    let (sys, ctrl) = fx.federated(Topology::new().cloud("east", 2).cloud("west", 2));
    let delivery = fx.channel(FaultProfile::lossless(), 1);
    let n = 4;
    let completed = fx.fleet(&sys, pids("fedq-", n), Some(&delivery));

    // forge one non-latest row on the active cloud's pool
    let pools = sys.audit_pools();
    let (_, _, active_pool) = &pools[ctrl.stats().active_cloud];
    let key = non_latest_doc_keys(active_pool).first().cloned().expect("non-latest row");
    let xml = active_pool.get_str(&key, "doc", "xml").expect("doc cell");
    active_pool.put(&key, "doc", "xml", forge(&xml));

    let auditor = full_audit_sweep(&fx, &sys, 2);
    // the scheduler normally polls between dispatches; the background
    // auditor's alert is consumed on the next poll
    sys.federation_poll();

    let cell = cell("federated-quarantine", n, completed);
    let views_identical = sys.views_match_scan(2).is_ok();
    let row = close(cell, &fx, &sys, &auditor, 1, views_identical, out);
    let stats = ctrl.stats();
    let false_positives = row.int("detected").saturating_sub(1);
    row.set("false_positives", false_positives)
        .set("quarantines", stats.quarantines)
        .set("failovers", stats.failovers)
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
        "incremental views byte-identical to full recompute everywhere",
        cells.iter().all(|c| c.text("views_identical") == "yes"),
    );
    out.verdict(
        "auditor silent on every honest cell",
        cells.iter().filter(honest).all(|c| c.int("detected") == 0 && c.int("audit_alerts") == 0),
    );
    out.verdict(
        "every seeded forgery caught, zero false positives",
        cells
            .iter()
            .filter(|c| !honest(c))
            .all(|c| c.int("detected") == c.int("tampered_rows") && c.int("false_positives") == 0),
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
