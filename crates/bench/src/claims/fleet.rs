//! Claim C11: the event-driven scheduler carries *fleet-scale* load — 100,
//! 300 and 1000 concurrent Fig. 9A instances admitted into one
//! `cloud::sched::Scheduler` over a shared deployment all complete, with
//! hash-routed portals absorbing the stores evenly (no portal-0 hot-spot),
//! the bus accounting laws holding, and a byte-identical
//! `BENCH_fleet.json` for a fixed configuration.
//!
//! Reported rates are in *virtual* time (hops and instances per virtual
//! second), so the rows are deterministic and held against
//! `perf/BENCH_fleet.baseline.json`; wall-clock goes to stdout only.

use super::{ClaimOutput, Row, Rows};
use crate::rig::Rig;
use std::sync::atomic::Ordering;

const PORTALS: usize = 8;

/// Admit `n` Fig. 9A instances into one scheduler over a fresh deployment
/// and drain the bus to completion.
fn run_cell(n: usize, out: &mut ClaimOutput) -> Row {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(PORTALS);
    let wall_start = std::time::Instant::now();
    let vt_start = fx.network.virtual_time_us();
    let completed = fx.fleet(&sys, (0..n).map(|i| format!("fleet-{i:04}")), sys.channel());
    let virtual_us = fx.network.virtual_time_us() - vt_start;
    let wall = wall_start.elapsed();

    let snap = fx.metrics.snapshot();
    let hops = snap.counter("run.steps");
    let hist = snap.histograms.get("hop.duration_us").cloned().expect("hops were traced");
    let stored: Vec<usize> = sys.portals.iter().map(|p| p.stored.load(Ordering::Relaxed)).collect();

    // wall-clock is stdout-only: the rows stay byte-deterministic
    println!(
        "  fleet {n:>5}: {completed} completed, {hops} hops in {virtual_us} virtual µs \
         ({:.2}s wall), portal stored spread {:?}",
        wall.as_secs_f64(),
        stored
    );

    // end-of-run aggregation rides the typed scan API: a `meta/`
    // prefix scan feeds MapReduce, never a full table read
    let statuses = sys.statistics_by_status(4);
    sys.export_metrics(&fx.metrics);
    // the storage sheet: bytes kept for every version of every instance,
    // against the bytes of the documents the instances ended as
    let doc_bytes = sys.stored_doc_bytes();
    let final_doc_bytes: usize = sys
        .fleet_views()
        .progress()
        .iter()
        .filter_map(|(pid, versions)| sys.retrieve_version(pid, *versions as usize - 1))
        .map(|last| last.len())
        .sum();
    let snap = fx.metrics.snapshot();
    let cell = format!("fleet-{n:04}");
    out.close_cell(&cell, &fx);

    let per_vsec = |count: u64| count.saturating_mul(1_000_000) / virtual_us.max(1);
    Row::new()
        .with("cell", cell)
        .with("instances", n)
        .with("completed", completed)
        .with("hops", hops)
        .with("virtual_us", virtual_us)
        .with("hops_per_vsec", per_vsec(hops))
        .with("instances_per_vsec", per_vsec(completed as u64))
        .with("portal_min_stored", stored.iter().copied().min().unwrap_or(0))
        .with("portal_max_stored", stored.iter().copied().max().unwrap_or(0))
        .with("activations", snap.counter("sched.activations"))
        .with("dispatched", snap.counter("sched.dispatched"))
        .with("bus_depth", snap.gauge("sched.bus_depth"))
        .with("complete_statuses", statuses.get("complete").copied().unwrap_or(0))
        .with("pool_rows", snap.counter("pool.rows"))
        .with("scanned_rows", snap.counter("pool.scanned_rows"))
        .with("scanned_regions", snap.counter("pool.scanned_regions"))
        .with("doc_bytes", doc_bytes)
        .with("final_doc_bytes", final_doc_bytes)
        // the "hop" stage carries the percentiles the gate holds at +10%
        .stages(vec![Row::new()
            .with("stage", "hop")
            .with("count", hist.count)
            .with("total_us", hist.sum)
            .with("self_us", hist.sum)
            .with("child_us", 0u64)
            .with("max_us", hist.max)
            .with("p50_us", hist.p50())
            .with("p95_us", hist.p95())
            .with("p99_us", hist.p99())])
}

pub(super) fn run() -> ClaimOutput {
    println!("fleet sweep: concurrent Fig. 9A instances over {PORTALS} hash-routed portals");
    let mut out = ClaimOutput::default();
    let cells: Vec<Row> =
        [100usize, 300, 1000].into_iter().map(|n| run_cell(n, &mut out)).collect();

    // every instance of every fleet completes, the bus drains,
    // notifications balance, and the hash routing spreads the stores (the
    // old round-robin melted portal 0 with every initial document)
    let all = |law: &dyn Fn(&Row) -> bool| cells.iter().all(law);
    out.verdict(
        "every fleet completed all instances",
        all(&|c| c.int("completed") == c.int("instances")),
    );
    out.verdict(
        "a 1000-instance fleet completed",
        cells.iter().any(|c| c.int("instances") >= 1000 && c.int("completed") >= 1000),
    );
    out.verdict("bus drained to empty in every cell", all(&|c| c.int("bus_depth") == 0));
    out.verdict(
        "dispatches never exceed activations",
        all(&|c| c.int("dispatched") <= c.int("activations")),
    );
    out.verdict(
        "stores spread across portals (max < 2·min)",
        all(&|c| {
            c.int("portal_min_stored") > 0
                && c.int("portal_max_stored") < 2 * c.int("portal_min_stored")
        }),
    );
    out.verdict(
        "every stored history costs under 0.9 × the documents it ends in",
        all(&|c| {
            c.int("final_doc_bytes") > 0 && 10 * c.int("doc_bytes") < 9 * c.int("final_doc_bytes")
        }),
    );
    out.verdict(
        "scan-backed status aggregation agrees with the runner",
        all(&|c| c.int("complete_statuses") == c.int("completed")),
    );
    let header = Row::new().with("claim", "C11").with("portals", PORTALS).fields;
    out.set_rows(Rows::object(header, 0, cells));
    out
}
