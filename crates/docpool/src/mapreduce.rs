//! A mini MapReduce framework over the document pool.
//!
//! "The MapReduce computing model supported in the HBase system can apply
//! some statistical analyses to workflow processes or instances stored in
//! the DRA4WfMS cloud system" (§4.2). The paper asks for the statistics,
//! not for a mapper count: a job here is one fold over the rows
//! [`HTable::query`] returns for a [`Scan`], on the calling thread — map
//! each row, group by key, reduce the groups in key order.

use crate::cluster::HTable;
use crate::row::Row;
use crate::scan::Scan;
use std::collections::BTreeMap;

/// Run a MapReduce job over the rows a [`Scan`] selects — a key window, so
/// the monitoring paths never do a full table read.
///
/// * `map` — called once per row, emits zero or more `(key, value)` pairs;
/// * `reduce` — called once per distinct key with all its values, in key
///   order.
///
/// The rows are exactly [`HTable::query`]'s (limit included), and they are
/// billed to the table's scan counters as that query bills them. The table
/// is not locked while `map` runs, so a mapper may read it again.
pub fn map_reduce_scan<K, V, O, M, R>(
    table: &HTable,
    scan: &Scan,
    map: M,
    reduce: R,
) -> BTreeMap<K, O>
where
    K: Ord,
    M: Fn(&str, &Row) -> Vec<(K, V)>,
    R: Fn(&K, Vec<V>) -> O,
{
    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (key, row) in &table.query(scan).rows {
        for (k, v) in map(key, row) {
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

    fn table_with_statuses() -> HTable {
        let t = HTable::default();
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
        let map = |k: &str, _: &Row| vec![(k.to_string(), 1usize)];
        assert!(map_reduce_scan(&t, &Scan::prefix("proc-"), map, |_, vs| vs.len()).is_empty());
    }

    #[test]
    fn map_reduce_scan_matches_filtered_full_job() {
        let t = table_with_statuses();
        let statuses = |_: &str, row: &Row| -> Vec<(String, usize)> {
            row.get_str("meta", "status").map(|s| (s, 1usize)).into_iter().collect()
        };
        // (a scan-backed job's window, the same window as a key filter, its rows)
        let inputs = [
            (Scan::range("proc-0050", Some("proc-0100".to_string())), "proc-0050".."proc-0100", 50),
            (Scan::prefix("proc-").limit(5), "proc-0000".."proc-0005", 5),
        ];
        for (scan, window, rows) in inputs {
            let windowed = map_reduce_scan(&t, &scan, statuses, |_, vs| vs.len());
            // ...must agree with a full-table job that filters in the mapper
            let full = map_reduce_scan(
                &t,
                &Scan::prefix("proc-"),
                |key, row| if window.contains(&key) { statuses(key, row) } else { vec![] },
                |_, vs| vs.len(),
            );
            assert_eq!(windowed, full, "{scan:?}");
            assert_eq!(windowed.values().sum::<usize>(), rows, "{scan:?}");
        }
    }

    #[test]
    fn every_row_is_mapped_once() {
        let t = table_with_statuses();
        let seen = map_reduce_scan(
            &t,
            &Scan::prefix("proc-"),
            |k, _| vec![(k.to_string(), 1usize)],
            |_, vs| vs.len(),
        );
        assert_eq!(seen.len(), 200);
        assert!(seen.values().all(|&c| c == 1));
    }

    #[test]
    fn a_mapper_that_reads_the_table_again_returns() {
        let t = table_with_statuses();
        let steps = map_reduce_scan(
            &t,
            &Scan::prefix("proc-").limit(10),
            |key, _| t.get_str(key, "meta", "steps").map(|s| (s, 1usize)).into_iter().collect(),
            |_, vs| vs.len(),
        );
        assert_eq!(steps.values().sum::<usize>(), 10);
    }
}
