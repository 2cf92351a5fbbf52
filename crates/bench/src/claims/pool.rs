//! Claim C5 (§4.2): the pool of DRA4WfMS documents serves retrieve and
//! MapReduce statistics over a fleet's stored documents, each read touching
//! only the rows it asks for.
//!
//! A fleet of Fig. 9A instances runs through the cloud's own admission
//! path, so the pool holds the layout a cloud writes: `doc/`, `def/`,
//! `seen/` and `meta/` rows. The rows are counts — rows held per prefix,
//! rows each latest-version read scanned, rows each MapReduce statistic
//! mapped — held against `perf/BENCH_pool.baseline.json`; wall clock goes to
//! stdout only.

use super::{ClaimOutput, Row, Rows};
use crate::rig::Rig;
use dra_docpool::{HTable, Scan};
use std::time::Instant;

/// Fig. 9A instances stored: ten versions each, 21 rows a process.
const INSTANCES: usize = 1000;
const PORTALS: usize = 4;

pub(super) fn run() -> ClaimOutput {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(PORTALS);
    let pids: Vec<String> = (0..INSTANCES).map(|i| format!("pool-{i:04}")).collect();
    let completed = fx.fleet(&sys, pids.iter().cloned(), sys.channel());
    let pool = sys.active_pool();
    let mut load = Row::new().with("cell", "load").with("completed", completed);
    load = load.with("rows", pool.row_count());
    for rows in ["doc", "def", "meta", "seen", "todo"] {
        let held = pool.query(&Scan::prefix(&format!("{rows}/"))).rows.len();
        load = load.with(&format!("{rows}_rows"), held);
    }

    let t = Instant::now();
    let read = |pid: &&String| sys.retrieve_latest(0, pid).is_some();
    let (found, scans, rows) = billed(pool, || pids.iter().filter(read).count());
    println!("C5: {INSTANCES} latest-version reads in {:.2?}", t.elapsed());
    let retrieve = Row::new()
        .with("cell", "retrieve_latest")
        .with("found", found)
        .with("scans", scans)
        .with("scanned_rows", rows);

    let t = Instant::now();
    let (counts, scans, rows) = billed(pool, || sys.statistics_by_status(1));
    let status = Row::new()
        .with("cell", "statistics_by_status")
        .with("scans", scans)
        .with("mapped_rows", rows)
        .with("complete", counts.get("complete").copied().unwrap_or(0));
    let (sums, scans, rows) = billed(pool, || sys.steps_per_workflow(1));
    let steps = Row::new()
        .with("cell", "steps_per_workflow")
        .with("scans", scans)
        .with("mapped_rows", rows)
        .with("steps", sums.values().sum::<usize>());
    println!("C5: two MapReduce statistics over the meta/ rows in {:.2?}", t.elapsed());

    sys.export_metrics(&fx.metrics);
    let mut out = ClaimOutput::default();
    out.close_cell("pool", &fx);
    out.verdict("every instance completed", completed == INSTANCES);
    // a read folds every version of its process, so one scan a read and no
    // more rows than the `doc/` rows is one scan of its own versions each
    out.verdict(
        "a latest-version read is one scan of its own process's versions",
        retrieve.int("found") == INSTANCES as i64
            && retrieve.int("scans") == INSTANCES as i64
            && retrieve.int("scanned_rows") == load.int("doc_rows"),
    );
    out.verdict(
        "a statistic is one scan that maps each meta/ row once",
        [&status, &steps]
            .iter()
            .all(|cell| cell.int("scans") == 1 && cell.int("mapped_rows") == load.int("meta_rows"))
            && status.int("complete") == INSTANCES as i64,
    );
    let header =
        Row::new().with("claim", "C5").with("instances", INSTANCES).with("portals", PORTALS);
    out.set_rows(Rows::object(header.fields, 0, vec![load, retrieve, status, steps]));
    out
}

/// What `f` returned, with the scans and rows `pool` served while it ran.
fn billed<T>(pool: &HTable, f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (rows, scans) = pool.scan_counters();
    let out = f();
    let (rows_after, scans_after) = pool.scan_counters();
    (out, scans_after - scans, rows_after - rows)
}
