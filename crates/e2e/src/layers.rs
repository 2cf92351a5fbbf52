//! The traced run: per-layer metrics (layer = crate) from two sources, both
//! outside the product.
//!
//! (a) The rounds without their solo batches under a wall-clock tracer installed
//!     through the product's existing seams, with harness spans around the
//!     calls into it; self time per stage by interval containment.
//! (b) Layer probes: wire documents harvested from the populated pool, each
//!     public function timed call by call, the median reported.
//!
//! Counts come from counters the product already keeps.

use crate::metrics::{self, spec};
use crate::run::{Bench, Measured, Prepared, PORTALS, THREADS};
use crate::spans;
use crate::stats::median;
use crate::workload::{Rng, Workload};
use crate::Outcome;
use dra4wfms_core::prelude::*;
use dra_cloud::{AuditConfig, CloudSystem, PoolAuditor};
use dra_docpool::{HTable, Journal, PutOp, Scan, TableConfig};
use dra_obs::{MetricsSnapshot, TraceEvent, Tracer};
use dra_xml::{Element, Recipient};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Wire documents the probes run on.
const HARVEST: usize = 64;
/// Timed calls per probed function.
const CALLS: usize = 256;
/// Timed calls of the few probes that copy the whole pool.
const HEAVY_CALLS: usize = 5;

/// Median time of `calls` calls in µs. `prepare` builds the call's argument
/// off the clock, `call` is timed, `scale` turns one call's µs into the
/// reported unit (per KB, per signature, …).
fn probe<T, R>(
    calls: usize,
    mut prepare: impl FnMut(usize) -> T,
    mut call: impl FnMut(&T) -> R,
    scale: impl Fn(f64, &T) -> f64,
) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let arg = prepare(i);
            let start = Instant::now();
            let result = call(black_box(&arg));
            let us = start.elapsed().as_secs_f64() * 1e6;
            black_box(result);
            scale(us, &arg)
        })
        .collect();
    median(&samples)
}

fn per_kb(us: f64, text: &str) -> f64 {
    us / (text.len() as f64 / 1024.0)
}

/// Where build outputs go: the driver's target directory when it names one.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e")
}

fn write_traces(workload: &Workload, events: &[TraceEvent]) {
    let dir = trace_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let jsonl = dir.join(format!("{}.trace.jsonl", workload.name));
        let chrome = dir.join(format!("{}.trace.chrome.json", workload.name));
        std::fs::write(&jsonl, dra_obs::events_to_jsonl(events))?;
        std::fs::write(&chrome, dra_obs::events_to_chrome(events))?;
        println!("trace: {} spans in {} and {}", events.len(), jsonl.display(), chrome.display());
        Ok(())
    });
    if let Err(e) = written {
        println!("trace not written to {}: {e}", dir.display());
    }
}

/// Bytes of every cloud's journal, and of the document rows held by the
/// clouds other than the primary (what replication shipped).
fn journal_and_replica_bytes(sys: &CloudSystem) -> (u64, u64) {
    let journal = sys.journal_snapshots().iter().map(|(_, bytes)| bytes.len() as u64).sum();
    let replica = sys
        .audit_pools()
        .iter()
        .skip(1)
        .flat_map(|(_, _, pool)| pool.query(&Scan::prefix("doc/").family("doc")).rows)
        .filter_map(|(_, row)| row.get("doc", "xml").map(|xml| xml.len() as u64))
        .sum();
    (journal, replica)
}

/// Seeded harvest of stored versions that carry at least one CER.
fn harvest(bench: &Bench<'_>, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x4a27_e57e);
    let fleet = &bench.prep.inputs.fleet;
    (0..HARVEST)
        .map(|_| {
            let spec = &fleet[rng.below(fleet.len())];
            let seq = 1 + rng.below(spec.expected_steps);
            bench.sys.retrieve_version(&spec.pid, seq).expect("stored version")
        })
        .collect()
}

/// Source (b): the probes.
fn layer_probes(bench: &Bench<'_>, seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let prep = bench.prep;
    let dir = &prep.cast.dir;
    let wires = harvest(bench, seed);
    let wire = |i: usize| wires[i % wires.len()].clone();
    let last_cer = |xml: &String| -> Vec<u8> {
        let doc = DraDocument::parse(xml).expect("stored documents parse");
        let results = doc.results().expect("results");
        let cer = results.find_children("CER").last().expect("harvested with a CER");
        dra_xml::canon::canonicalize(cer)
    };

    // crypto
    let signer = &prep.cast.creds[1];
    let messages: Vec<Vec<u8>> = wires.iter().map(last_cer).collect();
    let message = |i: usize| messages[i % messages.len()].clone();
    out.insert("crypto.sign_us", probe(CALLS, message, |m| signer.sign.sign(m), |us, _| us));
    let signed = |i: usize| (message(i), signer.sign.sign(&message(i)));
    out.insert(
        "crypto.verify_us",
        probe(CALLS, signed, |(m, s)| signer.sign.public.verify(m, s), |us, _| us),
    );
    let mut lengths: Vec<f64> = prep.inputs.fleet.iter().map(|s| s.expected_steps as f64).collect();
    lengths.sort_by(f64::total_cmp);
    let cascade = median(&lengths) as usize;
    let batch = |i: usize| -> Vec<(Vec<u8>, dra_crypto::Signature, dra_crypto::PublicKey)> {
        (0..cascade)
            .map(|k| {
                let who = &prep.cast.creds[1 + (i + k) % (prep.cast.creds.len() - 1)];
                let m = message(i + k);
                let sig = who.sign.sign(&m);
                (m, sig, who.sign.public)
            })
            .collect()
    };
    out.insert(
        "crypto.verify_batch_us_per_sig",
        probe(
            CALLS,
            batch,
            |b| {
                let entries: Vec<dra_crypto::BatchEntry<'_>> =
                    b.iter().map(|(m, s, k)| (m.as_slice(), *s, *k)).collect();
                dra_crypto::verify_batch(&entries)
            },
            |us, b| us / b.len() as f64,
        ),
    );
    let reader = &prep.cast.creds[2];
    let reader_key = reader.enc.public_key();
    let plaintext = |i: usize| wire(i).into_bytes()[..1024].to_vec();
    out.insert(
        "crypto.seal_us",
        probe(CALLS, plaintext, |p| dra_crypto::seal(&reader_key, p), |us, _| us),
    );
    let sealed = |i: usize| dra_crypto::seal(&reader_key, &plaintext(i));
    out.insert(
        "crypto.open_us",
        probe(CALLS, sealed, |b| dra_crypto::open(&reader.enc, b).expect("opens"), |us, _| us),
    );
    out.insert(
        "crypto.sha256_mb_per_s",
        // bytes per µs is MB/s
        probe(CALLS, wire, |w| dra_crypto::sha256(w.as_bytes()), |us, w| w.len() as f64 / us),
    );

    // xml
    out.insert(
        "xml.parse_us_per_kb",
        probe(CALLS, wire, |w| dra_xml::parse(w).expect("parses"), |us, w| per_kb(us, w)),
    );
    // canonical bytes are memoized per element: every call gets a fresh tree
    let tree = |i: usize| (dra_xml::parse(&wire(i)).expect("parses"), wire(i));
    let tree_kb = |us: f64, t: &(Element, String)| per_kb(us, &t.1);
    out.insert(
        "xml.write_us_per_kb",
        probe(CALLS, tree, |t| dra_xml::writer::to_string(&t.0), tree_kb),
    );
    out.insert(
        "xml.canon_us_per_kb",
        probe(CALLS, tree, |t| dra_xml::canon::canonicalize(&t.0), tree_kb),
    );
    let field = |i: usize| {
        Element::new("Field")
            .attr("name", "attachment")
            .text(String::from_utf8_lossy(&plaintext(i)))
    };
    let readers = [Recipient::new(reader.name.clone(), reader_key)];
    out.insert(
        "xml.encrypt_element_us",
        probe(CALLS, field, |f| dra_xml::encrypt_element(f, &readers), |us, _| us),
    );
    let encrypted = |i: usize| dra_xml::encrypt_element(&field(i), &readers);
    out.insert(
        "xml.decrypt_element_us",
        probe(
            CALLS,
            encrypted,
            |e| dra_xml::decrypt_element(e, &reader.name, &reader.enc).expect("decrypts"),
            |us, _| us,
        ),
    );

    // core
    let parsed = |i: usize| DraDocument::parse(&wire(i)).expect("parses");
    out.insert(
        "core.verify_full_us_per_sig",
        probe(
            CALLS,
            |i| (parsed(i), std::cell::Cell::new(1usize)),
            |(doc, sigs)| {
                let report = Verifier::new(dir).run(doc).expect("verifies").report;
                sigs.set(report.signatures_verified);
            },
            |us, (_, sigs)| us / sigs.get() as f64,
        ),
    );
    let marked = |i: usize| {
        let doc = parsed(i);
        let trusted = doc.cers().expect("cers").len() - 1;
        let mark = TrustMark {
            process_id: doc.process_id().expect("pid"),
            verified_cers: trusted,
            prefix_digest: prefix_digest(&doc, trusted).expect("prefix"),
            signatures_verified: 0,
        };
        // a fresh tree again: prefix_digest filled the canon memo
        (parsed(i), mark)
    };
    out.insert(
        "core.verify_incremental_us",
        probe(
            CALLS,
            marked,
            |(doc, mark)| {
                let outcome = Verifier::new(dir).with_mark(Some(mark)).run(doc).expect("verifies");
                assert!(!outcome.fell_back, "the crafted mark pins a true prefix");
            },
            |us, _| us,
        ),
    );
    out.insert(
        "core.doc_parse_us_per_kb",
        probe(CALLS, wire, |w| DraDocument::parse(w).expect("parses"), |us, w| per_kb(us, w)),
    );
    let definitions = |i: usize| parsed(i).workflow_definition().expect("definition");
    out.insert(
        "core.soundness_us",
        probe(CALLS, definitions, |d| check_soundness(d).expect("sound"), |us, _| us),
    );

    // docpool
    let table = HTable::new(TableConfig { max_versions: 4, max_region_rows: 1024 });
    let row = |i: usize| (format!("doc/probe-{:03}/{:06}", i % HARVEST, i / HARVEST), wire(i));
    out.insert(
        "docpool.put_us",
        probe(CALLS, row, |(key, xml)| table.put(key, "doc", "xml", xml.clone()), |us, _| us),
    );
    out.insert(
        "docpool.get_us",
        probe(CALLS, row, |(key, _)| table.get(key, "doc", "xml").expect("just put"), |us, _| us),
    );
    let meta = Scan::prefix("meta/").family("meta");
    out.insert(
        "docpool.scan_us_per_row",
        probe(
            CALLS / 8,
            |_| std::cell::Cell::new(1usize),
            |rows| rows.set(bench.sys.active_pool().query(&meta).rows.len()),
            |us, rows| us / rows.get() as f64,
        ),
    );
    let journal = Journal::new();
    let batch_of = |i: usize| {
        let (key, xml) = row(i);
        std::cell::RefCell::new(Some(vec![
            PutOp::new(key, "doc", "xml", xml),
            PutOp::new(format!("meta/probe-{i}"), "meta", "status", "running"),
        ]))
    };
    out.insert(
        "docpool.journal_append_commit_us",
        probe(
            CALLS,
            batch_of,
            |ops| {
                let record = journal.append(ops.borrow_mut().take().expect("one call per batch"));
                journal.commit_through(record);
            },
            |us, _| us,
        ),
    );
    let pool_bytes = std::cell::Cell::new(0usize);
    out.insert(
        "docpool.snapshot_mb_per_s",
        probe(
            HEAVY_CALLS,
            |_| (),
            |()| pool_bytes.set(bench.sys.snapshot_pool().len()),
            |us, ()| pool_bytes.get() as f64 / us,
        ),
    );
    let snapshot = bench.sys.snapshot_pool();
    out.insert(
        "docpool.restore_ms",
        probe(
            HEAVY_CALLS,
            |_| (),
            |()| {
                CloudSystem::restore(dir.clone(), PORTALS, Arc::clone(&bench.network), &snapshot)
                    .expect("restores")
            },
            |us, ()| us / 1e3,
        ),
    );

    // cloud
    let auditor = PoolAuditor::new(AuditConfig { threads: THREADS, ..AuditConfig::default() });
    let now_us = bench.network.virtual_time_us();
    out.insert(
        "cloud.audit_pass_ms",
        probe(
            CALLS / 8,
            |_| (),
            |()| assert_eq!(auditor.run_pass(&bench.sys, None, now_us), 0, "an honest pool"),
            |us, ()| us / 1e3,
        ),
    );
    // the serve-side integrity probe of a federated retrieve: digest the
    // served bytes, find their admission row
    let pool = bench.sys.active_pool();
    out.insert(
        "cloud.retrieve_probe_us",
        probe(
            CALLS,
            wire,
            |w| {
                let key =
                    format!("seen/{}", dra_crypto::hex::encode(&dra_crypto::sha256(w.as_bytes())));
                pool.get_str(&key, "meta", "seq").expect("every admitted version has a seen row")
            },
            |us, _| us,
        ),
    );
}

/// Counter `name` gained between two snapshots, per hop.
fn gained(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str, hops: f64) -> f64 {
    (after.counter(name) - before.counter(name)) as f64 / hops
}

pub fn run_traced(workload: &'static Workload, seed: u64, seconds: u64) -> Outcome {
    let sizes = workload.sizes(seconds);
    let prep = Prepared::new(workload, sizes, seed);

    // tracing overhead: the same rounds untraced first, on their own deployment
    let (untraced_hops_per_s, untraced_check) = {
        let mut bench = Bench::deploy(&prep, Tracer::disabled());
        let mut m = Measured::default();
        bench.run_rounds(&mut m, false);
        (m.hops_per_s(), bench.check)
    };

    let t0 = Instant::now();
    let tracer = Tracer::new(Arc::new(move || t0.elapsed().as_micros() as u64));
    let mut bench = Bench::deploy(&prep, tracer.clone());
    tracer.clear(); // the warm-up's spans
    let before = bench.metrics.snapshot();
    let (journal_before, replica_before) = journal_and_replica_bytes(&bench.sys);
    let mut m = Measured::default();
    bench.run_rounds(&mut m, false);
    let after = bench.metrics.snapshot();
    let (journal_after, replica_after) = journal_and_replica_bytes(&bench.sys);
    let events = tracer.events();
    bench.final_checks();
    write_traces(workload, &events);

    let hops = m.fleet_hops as f64;
    let traced_wall_us = m.timed_wall.as_secs_f64() * 1e6;
    let stages = spans::self_times(&events);
    let stage = |name: &str| stages.get(name).copied().unwrap_or_default();
    let self_per_hop = |name: &str| stage(name).self_us as f64 / hops;
    let op_ms = |name: &str| {
        let s = stage(name);
        s.total_us as f64 / 1e3 / s.count.max(1) as f64
    };

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("core.verify_self_us_per_hop", "verify"),
        ("core.decrypt_self_us_per_hop", "decrypt"),
        ("core.seal_self_us_per_hop", "seal"),
        ("core.sign_self_us_per_hop", "sign"),
        ("core.execute_self_us_per_hop", "execute"),
        ("core.tfc_reencrypt_self_us_per_hop", "tfc:reencrypt"),
        ("core.tfc_timestamp_self_us_per_hop", "tfc:timestamp"),
        ("cloud.admit_self_us_per_hop", "portal:admit"),
        ("cloud.journal_commit_self_us_per_hop", "journal:commit"),
        ("cloud.dispatch_self_us_per_hop", "sched:dispatch"),
        // serialise, parse and merge inside a hop that no stage span covers
        ("cloud.hop_unattributed_us_per_hop", "hop"),
        ("bench.admit_self_us_per_hop", "bench:admit"),
        ("bench.drain_self_us_per_hop", "bench:drain"),
    ] {
        out.insert(metric, self_per_hop(span));
    }
    out.insert("cloud.retrieve_us_p50", median(&m.retrieve_us));
    out.insert("bench.sweep_ms_p50", median(&m.sweep_ms(sizes.instances())));
    let sweeps = stage("bench:sweep");
    out.insert("bench.sweep_self_ms", sweeps.self_us as f64 / 1e3 / sweeps.count.max(1) as f64);
    for (metric, span) in [
        ("bench.search_todo_ms", "bench:search_todo"),
        ("bench.statistics_by_status_ms", "bench:statistics_by_status"),
        ("bench.steps_per_workflow_ms", "bench:steps_per_workflow"),
        ("bench.activity_latency_stats_ms", "bench:activity_latency_stats"),
        ("bench.fleet_dashboard_json_ms", "bench:fleet_dashboard_json"),
    ] {
        out.insert(metric, op_ms(span));
    }

    out.insert("crypto.ec_ops_per_hop", m.fleet_ec_ops as f64 / hops);
    out.insert("xml.canon_bytes_per_hop", m.fleet_canon_bytes as f64 / hops);
    out.insert(
        "core.signature_checks_per_cer",
        gained(&before, &after, "run.signature_checks", hops),
    );
    out.insert(
        "docpool.scanned_rows_per_sweep",
        m.sweep_scanned_rows as f64 / m.sweeps.len() as f64,
    );
    out.insert("docpool.journal_bytes_per_hop", (journal_after - journal_before) as f64 / hops);
    out.insert(
        "docpool.rows_per_instance",
        after.counter("pool.rows") as f64 / bench.tally.completed as f64,
    );
    let hits = gained(&before, &after, "trust_cache.hits", 1.0);
    let misses = gained(&before, &after, "trust_cache.misses", 1.0);
    out.insert("cloud.trust_cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.insert(
        "cloud.notifications_per_hop",
        gained(&before, &after, "portal.notifications", hops),
    );
    out.insert("cloud.sched_skipped_per_hop", gained(&before, &after, "sched.skipped", hops));
    out.insert("cloud.sched_deferred_per_hop", gained(&before, &after, "sched.deferred", hops));
    out.insert("cloud.replica_bytes_per_hop", (replica_after - replica_before) as f64 / hops);
    out.insert("cloud.virtual_us_per_hop", m.fleet_virtual_us as f64 / hops);
    // only the hops advance virtual time; hold their wall against it
    let hop_wall_us = stage("bench:admit").total_us + stage("bench:drain").total_us;
    out.insert("cloud.wall_us_per_virtual_us", hop_wall_us as f64 / m.fleet_virtual_us as f64);
    let traced_hops_per_s = m.hops_per_s();
    out.insert("obs.spans_per_hop", events.len() as f64 / hops);
    out.insert(
        "obs.trace_overhead_pct",
        (untraced_hops_per_s - traced_hops_per_s) / untraced_hops_per_s * 100.0,
    );
    let covered: u64 = stages.values().map(|s| s.self_us).sum();
    let coverage_pct = covered as f64 / traced_wall_us * 100.0;
    out.insert("obs.trace_coverage_pct", coverage_pct);
    // below this the layer numbers no longer add up to the end-to-end one
    bench.check.expect(coverage_pct >= 98.0, || {
        format!("spans cover {coverage_pct:.2} % of the traced wall, less than 98 %")
    });

    layer_probes(&bench, seed, &mut out);

    println!(
        "hops_per_s untraced {untraced_hops_per_s:.1}, traced {traced_hops_per_s:.1} \
         ({} hops, {} spans)",
        m.fleet_hops,
        events.len()
    );
    println!("largest self-time stages (share of the traced wall):");
    for (name, s) in spans::top_self(&stages, 5) {
        println!(
            "  {name:<28} {:>10.1} ms  {:>5.1} %  ({} spans)",
            s.self_us as f64 / 1e3,
            s.self_us as f64 / traced_wall_us * 100.0,
            s.count
        );
    }
    let measured: Vec<(&str, f64)> = out.into_iter().collect();
    let metrics = metrics::report("per-layer metric", &spec().per_layer, &measured);
    let mut check = bench.check;
    check.absorb(untraced_check);
    Outcome { inputs_sha256: prep.inputs.sha256.clone(), check, metrics }
}
