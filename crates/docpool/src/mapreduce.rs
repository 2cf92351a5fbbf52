//! A mini MapReduce framework over the document pool.
//!
//! "The MapReduce computing model supported in the HBase system can apply
//! some statistical analyses to workflow processes or instances stored in
//! the DRA4WfMS cloud system" (§4.2). This module runs one mapper task per
//! region a [`Scan`] visits, in parallel on scoped threads, shuffles by key,
//! and reduces the key groups in order on the calling thread.

use crate::cluster::HTable;
use crate::row::RowSnapshot;
use crate::scan::Scan;
use std::collections::BTreeMap;

/// Run a MapReduce job over the rows a [`Scan`] selects — a key window, so
/// the monitoring paths never do a full table read.
///
/// * `map` — called once per row, emits zero or more `(key, value)` pairs;
/// * `reduce` — called once per distinct key with all its values;
/// * `threads` — maximum parallel mapper tasks (≥1).
///
/// The scan's regions are walked (honouring projection and limit), producing
/// one input split per visited region (region parallelism, like HBase's
/// `TableInputFormat` splits); mappers then run one task per split. The
/// reducers the pool's statistics need are counts, sums and means, so they
/// run inline, in key order. Results are deterministic for any thread count.
/// Rows touched are accounted in the table's scan counters.
pub fn map_reduce_scan<K, V, O, M, R>(
    table: &HTable,
    scan: &Scan,
    threads: usize,
    map: M,
    reduce: R,
) -> BTreeMap<K, O>
where
    K: Ord + Send,
    V: Send,
    M: Fn(&str, &RowSnapshot) -> Vec<(K, V)> + Sync,
    R: Fn(&K, Vec<V>) -> O,
{
    let threads = threads.max(1);
    let (splits, _) = table.query_partitions(scan, false);

    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for chunk in splits.chunks(threads) {
        // one output per split, each filled by its own mapper; the scope
        // re-raises a mapper's panic once every mapper has stopped
        let mut emitted: Vec<Vec<(K, V)>> = chunk.iter().map(|_| Vec::new()).collect();
        std::thread::scope(|s| {
            for (split, out) in chunk.iter().zip(&mut emitted) {
                let map = &map;
                s.spawn(move || out.extend(split.iter().flat_map(|(key, row)| map(key, row))));
            }
        });
        for (k, v) in emitted.into_iter().flatten() {
            groups.entry(k).or_default().push(v);
        }
    }

    groups
        .into_iter()
        .map(|(k, vs)| {
            let o = reduce(&k, vs);
            (k, o)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TableConfig;

    fn table_with_statuses() -> HTable {
        let t = HTable::new(TableConfig { max_versions: 1, max_region_rows: 16 });
        for i in 0..200 {
            let status = if i % 3 == 0 { "done" } else { "running" };
            t.put(&format!("proc-{i:04}"), "meta", "status", status);
            t.put(&format!("proc-{i:04}"), "meta", "steps", format!("{}", i % 7));
        }
        t
    }

    #[test]
    fn sum_steps_per_status() {
        let t = table_with_statuses();
        let sums = map_reduce_scan(
            &t,
            &Scan::prefix("proc-"),
            4,
            |_, row| {
                let status = row.get_str("meta", "status");
                let steps = row.get_str("meta", "steps").and_then(|s| s.parse::<u64>().ok());
                match (status, steps) {
                    (Some(st), Some(n)) => vec![(st, n)],
                    _ => vec![],
                }
            },
            |_, vs| vs.iter().sum::<u64>(),
        );
        let total: u64 = sums.values().sum();
        let expected: u64 = (0..200u64).map(|i| i % 7).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn empty_table_yields_empty_result() {
        let t = HTable::default();
        let map = |k: &str, _: &RowSnapshot| vec![(k.to_string(), 1usize)];
        assert!(map_reduce_scan(&t, &Scan::prefix("proc-"), 4, map, |_, vs| vs.len()).is_empty());
    }

    #[test]
    fn map_reduce_scan_matches_filtered_full_job() {
        let t = table_with_statuses();
        // scan-backed job over a key window...
        let windowed = map_reduce_scan(
            &t,
            &Scan::range("proc-0050", Some("proc-0100".to_string())),
            4,
            |_, row| row.get_str("meta", "status").map(|s| (s, 1usize)).into_iter().collect(),
            |_, vs| vs.len(),
        );
        // ...must agree with a full-table job that filters in the mapper
        let full = map_reduce_scan(
            &t,
            &Scan::prefix("proc-"),
            4,
            |key, row| {
                if ("proc-0050".."proc-0100").contains(&key) {
                    row.get_str("meta", "status").map(|s| (s, 1usize)).into_iter().collect()
                } else {
                    vec![]
                }
            },
            |_, vs| vs.len(),
        );
        assert_eq!(windowed, full);
        assert_eq!(windowed.values().sum::<usize>(), 50);
    }

    #[test]
    fn map_reduce_scan_deterministic_across_threads() {
        let t = table_with_statuses();
        let job = |threads: usize| {
            map_reduce_scan(
                &t,
                &Scan::prefix("proc-"),
                threads,
                |k, _| vec![(k.to_string(), 1usize)],
                |_, vs| vs.len(),
            )
        };
        assert_eq!(job(1), job(8));
        // and the mapper saw every row once
        assert_eq!(job(4).len(), 200);
        assert!(job(4).values().all(|&c| c == 1));
    }
}
