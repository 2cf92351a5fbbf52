//! Criterion bench for claim C5: document pool operations — put, random
//! get, prefix scan and MapReduce — at a realistic pool size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dra_docpool::{map_reduce_scan, HTable, Scan, TableConfig};

fn loaded_table(n: usize) -> HTable {
    let t = HTable::new(TableConfig { max_versions: 2, max_region_rows: 2048 });
    let xml = "x".repeat(2048);
    for i in 0..n {
        let pid = format!("proc-{i:07}");
        t.put(&format!("doc/{pid}/000000"), "doc", "xml", xml.clone());
        t.put(
            &format!("meta/{pid}"),
            "meta",
            "status",
            if i % 4 == 0 { "running" } else { "complete" },
        );
    }
    t
}

fn bench_docpool(c: &mut Criterion) {
    let n = 10_000usize;
    let table = loaded_table(n);

    let mut g = c.benchmark_group("docpool");
    g.sample_size(20);

    g.bench_function("put_2k_doc", |b| {
        let xml = "y".repeat(2048);
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            table.put(&format!("bench/{i:09}"), "doc", "xml", xml.clone())
        })
    });

    g.bench_function("random_get", |b| {
        let mut x = 88172645463325252u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pid = format!("proc-{:07}", (x as usize) % n);
            table.get(&format!("meta/{pid}"), "meta", "status")
        })
    });

    g.bench_function("prefix_scan", |b| {
        let mut x = 1181783497276652981u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pid = format!("proc-{:07}", (x as usize) % n);
            table.query(&Scan::prefix(&format!("doc/{pid}/")))
        })
    });

    for threads in [1usize, 4] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::new("mapreduce_status_count", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    map_reduce_scan(
                        &table,
                        &Scan::prefix("meta/").family("meta").threads(threads),
                        threads,
                        |_, row| {
                            row.get_str("meta", "status").map(|s| (s, 1usize)).into_iter().collect()
                        },
                        |_, vs| vs.len(),
                    )
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_docpool);
criterion_main!(benches);
