//! Criterion bench for claim C2: TFC server processing throughput over the
//! Fig. 9B intermediate documents — the TFC must keep pace with the AEAs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dra4wfms_core::prelude::*;
use dra_bench::fig9::{cast, walk};
use std::sync::Arc;

fn bench_tfc(c: &mut Criterion) {
    let inters: Vec<String> = walk(true).into_iter().filter_map(|s| s.intermediate).collect();
    let (creds, dir) = cast();
    let tfc_creds = creds.iter().find(|c| c.name == "TFC").unwrap().clone();
    let tfc = TfcServer::with_clock(tfc_creds, dir, Arc::new(|| 1));

    let mut g = c.benchmark_group("tfc");
    g.sample_size(15);
    // cost per document at different cascade depths (first vs last hop)
    for (idx, label) in [(0usize, "first_hop"), (4, "mid_hop"), (8, "last_hop")] {
        let xml = &inters[idx];
        g.throughput(Throughput::Bytes(xml.len() as u64));
        g.bench_with_input(BenchmarkId::new("process", label), xml, |b, xml| {
            b.iter(|| tfc.process(xml).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tfc);
criterion_main!(benches);
