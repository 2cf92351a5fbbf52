//! Claim C13: multi-cloud federation degrades gracefully — for every
//! topology × fault × seed cell (≥ 2 clouds, {healthy, cloud-outage,
//! tampered-portal}, pinned seeds), every Fig. 9A instance completes and
//! the final document pool is **byte-identical** to the healthy
//! single-cloud baseline: a bad cloud costs time, never safety.
//!
//! The machinery under test: per-cloud pools and write-ahead journals,
//! post-commit replication charged to virtual time, the
//! `FederationController`'s outage confirmation dance (retriable
//! `Crash` errors absorbed by the delivery retry layer), serve-side
//! tamper detection (digest probe, full re-verify fallback, typed
//! `portal_tampered` alert), quarantine with frozen admission counters,
//! and health-driven failover of the active cloud.
//!
//! The sweep is fully deterministic (virtual time only, one seeded
//! [`FaultPlan`] per cell): `BENCH_federation.json` and the sweep's alert
//! stream `BENCH_federation_alerts.jsonl` must come out byte-identical on
//! every run, and the rows are held against
//! `perf/BENCH_federation.baseline.json`.

use super::{draw, held, ClaimOutput, Row, Rows};
use crate::rig::{Rig, SEEDS};
use dra4wfms_core::faultpoint::site;
use dra_cloud::{FaultPlan, FaultProfile, Topology, Trigger};

/// Instances admitted before the serve audit (the audit gives a scripted
/// tamper its chance to fire) plus one wave after any quarantine —
/// frozen portals must stay frozen while the fleet keeps moving.
const WAVE1: usize = 3;
const WAVE2: usize = 1;
const TOTAL: usize = WAVE1 + WAVE2;
/// Seeded outages start at `draw(seed, MAX_OUTAGE_US)` virtual µs: a full
/// sweep runs ~21k virtual µs, so every draw lands inside the run —
/// early draws kill the active cloud before its first admission, late
/// draws mid-fleet.
const MAX_OUTAGE_US: u64 = 15_000;
/// Seeded tampers fire on the portal's 1st..=3rd serve — always within
/// the audit sweep below.
const MAX_TAMPER_NTH: u64 = 3;

fn pids(ids: std::ops::Range<usize>) -> impl Iterator<Item = String> {
    ids.map(|i| format!("fed-{i:02}"))
}

/// Run `TOTAL` Fig. 9A instances over the federated `topology` under one
/// fault `scenario`, audit every serve path, and digest the pool.
/// Returns the cell and whether it degraded gracefully.
fn run_cell(
    cell: String,
    topology: Topology,
    scenario: &str,
    seed: u64,
    target: &str,
    out: &mut ClaimOutput,
) -> (Row, bool) {
    let total_portals = topology.total_portals();
    let plan = match scenario {
        "healthy" => FaultPlan::none(),
        // the outage always hits cloud 0 — the initially active cloud, so
        // a confirmed outage forces a real failover of the primary
        "outage" => FaultPlan::of([(
            site::cloud(&topology.clouds[0].name),
            Trigger::From(draw(seed, MAX_OUTAGE_US)),
        )]),
        "tampered" => {
            FaultPlan::once(&site::serve(seed as usize % total_portals), draw(seed, MAX_TAMPER_NTH))
        }
        other => panic!("unknown scenario {other}"),
    };
    let fx = Rig::fig9(false).with_faults(&plan);
    let (sys, ctrl) = fx.federated(topology);
    // lossless channel: the outage dance surfaces as retriable Crash
    // errors, which the delivery retry layer absorbs without losing hops
    let delivery = fx.channel(FaultProfile::lossless(), seed);

    let mut completed = fx.fleet(&sys, pids(0..WAVE1), &delivery);

    // audit pass: serve every instance through every portal, so a scripted
    // tamper fires mid-sweep and the honest bytes get re-served
    let mut audits_ok = true;
    for pid in pids(0..WAVE1) {
        let latest = sys.retrieve_version(&pid, 9);
        for portal in 0..total_portals {
            if let Some(served) = sys.retrieve_latest(portal, &pid) {
                audits_ok &= Some(served) == latest;
            }
        }
    }

    // second wave after any quarantine: the fleet keeps completing and
    // quarantined portals take none of it
    completed += fx.fleet(&sys, pids(WAVE1..TOTAL), &delivery);

    sys.export_metrics(&fx.metrics);
    let dstats = delivery.stats();
    let stats = ctrl.stats();
    let pool_sha256 = sys.pool_digest();
    let identical = pool_sha256 == target && audits_ok;
    let (invariants_ok, alerts) = out.close_cell(&cell, &fx);
    let row = Row::new()
        .with("cell", cell)
        .with("instances", TOTAL)
        .with("completed", completed)
        .with("replicas_acked", stats.replicas_acked)
        .with("quarantines", stats.quarantines)
        .with("failovers", stats.failovers)
        .with("outages", stats.outages)
        .with("reroutes", stats.reroutes)
        .with("tampered_serves", stats.tampered_serves)
        .with("active_cloud", stats.active_cloud)
        .with("crashes_absorbed", dstats.crashes_injected)
        .with("retries", dstats.retries)
        .with("alerts", alerts)
        .with("virtual_time_us", fx.network.virtual_time_us())
        .with("pool_sha256", pool_sha256)
        .with("identical", if identical { "yes" } else { "NO" })
        .with("invariants", held(invariants_ok));
    let graceful = completed == TOTAL
        && identical
        && ctrl.zero_admissions_after_quarantine()
        && sys.replicas_consistent();
    (row, graceful)
}

/// The healthy single-cloud pool digest over the same `TOTAL` instances:
/// the byte-identity target every federated cell is held against.
fn single_cloud_target() -> String {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(4);
    assert_eq!(fx.fleet(&sys, pids(0..TOTAL), sys.channel()), TOTAL, "the baseline completes");
    sys.pool_digest()
}

pub(super) fn run() -> ClaimOutput {
    let target = single_cloud_target();
    println!("{TOTAL} Fig. 9 instances per cell, single-cloud target {}…", &target[..16]);

    let topologies = [
        ("fed2", Topology::new().cloud("east", 2).cloud("west", 2)),
        ("fed3", Topology::new().cloud("east", 2).cloud("west", 2).cloud("south", 2)),
    ];
    let mut out = ClaimOutput::default();
    let mut rows = Vec::new();
    let mut all_graceful = true;
    for (name, topology) in &topologies {
        for scenario in ["healthy", "outage", "tampered"] {
            for seed in SEEDS {
                let cell = format!("{name}/{scenario}/{seed}");
                let (row, graceful) =
                    run_cell(cell, topology.clone(), scenario, seed, &target, &mut out);
                all_graceful &= graceful;
                rows.push(row);
            }
        }
    }
    out.set_rows(Rows::array(rows));
    out.alerts_file("BENCH_federation_alerts.jsonl");
    out.verdict(
        "every cell completes, serves and stores the single-cloud bytes, keeps quarantined \
         portals frozen and its replicas consistent",
        all_graceful,
    );
    out
}
