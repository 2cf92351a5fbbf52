//! Claim C4 (§1): engine-based distributed WfMSs bottleneck on "the accesses
//! and coherence of shared workflow process instances", while DRA4WfMS has
//! no shared mutable instance at all — documents route independently.
//!
//! Workload: P cross-enterprise process instances, each with 3 activities
//! executed at 3 different organizations, driven by T worker threads.
//!
//! * engine baseline: every hop migrates the instance between engines under
//!   the global ownership lock;
//! * DRA4WfMS: every hop is an independent AEA receive+complete, with the
//!   final document stored into the (sharded) pool.

use super::{on_threads, ClaimOutput};
use crate::rig::{Handoff, Rig};
use dra_engine::DistributedWfms;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Executions per second and instance migrations of the engine baseline.
fn engine_run(rig: &Rig, instances: usize, threads: usize) -> (f64, usize) {
    let d = DistributedWfms::new(3);
    let pids: Vec<u64> = (0..instances).map(|_| d.start_process(&rig.def).unwrap().0).collect();
    let started = Instant::now();
    on_threads(threads, instances, &|i| {
        for hop in 0..3 {
            let fields = [("payload".into(), "v".into())];
            d.execute_at(hop, pids[i], &format!("S{hop}"), &format!("p{hop}"), &fields).unwrap();
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (instances as f64 * 3.0 / wall, d.migrations.load(Ordering::Relaxed))
}

/// Executions per second of the same workload as routed documents.
fn dra_run(rig: &Rig, instances: usize, threads: usize) -> f64 {
    let started = Instant::now();
    on_threads(threads, instances, &|i| {
        assert_eq!(rig.walk(&format!("c4-{i}"), Handoff::Wire).count(), 3);
    });
    instances as f64 * 3.0 / started.elapsed().as_secs_f64()
}

pub(super) fn run() -> ClaimOutput {
    let instances: usize = 120;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "cross-enterprise workload: {instances} instances × 3 hops across 3 organizations ({cores} core(s))\n"
    );
    println!(
        "{:>8} {:>18} {:>14} {:>18}",
        "threads", "engine exec/s", "migrations", "DRA4WfMS exec/s"
    );
    let metrics = dra_obs::MetricsRegistry::new();
    // untraced: a shared span buffer would be the one lock of the workload
    let rig = Rig::chain(3, false, |_| "v".into()).traced(dra_obs::Tracer::disabled());
    for threads in [1usize, 2, 4, 8] {
        let (engine_tput, migrations) = engine_run(&rig, instances, threads);
        let dra_tput = dra_run(&rig, instances, threads);
        metrics.incr("scalability.instances", instances as u64);
        metrics.incr("scalability.hops", (instances * 3) as u64);
        metrics.incr("scalability.engine_migrations", migrations as u64);
        println!("{threads:>8} {engine_tput:>18.0} {migrations:>14} {dra_tput:>18.0}");
    }
    println!("\nNote: raw engine hops are cheap (no cryptography) but serialized by the");
    println!("ownership lock + full-instance migration per cross-org hop; DRA4WfMS pays");
    println!("per-hop cryptography yet every instance routes independently — add engines");
    println!("and the coherence cost stays, add AEAs and DRA4WfMS scales linearly.");
    println!("The structural point (C4): engine migrations = 3×instances (every hop");
    println!("crosses organizations); DRA4WfMS shared-state accesses = 0.");
    let mut out = ClaimOutput::default();
    out.invariants("run", &metrics);
    out
}
