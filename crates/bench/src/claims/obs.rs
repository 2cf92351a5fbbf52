//! Claim C9: the observability layer is *checkable and cheap* — every
//! Fig. 9 run (basic and advanced model, lossless and hostile channels,
//! with and without injected crashes) produces a span trace that the
//! document-anchored differential oracle (`dra4wfms_core::reconcile`)
//! accepts, and the end-of-run metrics satisfy the cross-layer accounting
//! invariants.
//!
//! The trace is stamped in virtual time, so for a fixed seed the exported
//! `BENCH_obs_trace.jsonl` / `BENCH_obs_trace.chrome.json` and the sweep in
//! `BENCH_obs.json` are byte-identical across re-runs. What instrumenting
//! the C1 chain workload costs in wall clock is printed, not judged: a few
//! percent of a ~30 ms workload is inside this box's noise, and the measured
//! home of that number is `obs.trace_overhead_pct` of `crates/e2e`.

use super::{ClaimOutput, Row, Rows, Value};
use crate::rig::{Handoff, Rig, SEEDS};
use dra4wfms_core::faultpoint::site;
use dra4wfms_core::prelude::*;
use dra4wfms_core::reconcile::reconcile;
use dra_cloud::{FaultPlan, FaultProfile};
use dra_obs::{events_to_chrome, events_to_jsonl, TraceEvent, Tracer};
use std::time::Instant;

/// Drive one fully instrumented Fig. 9 instance and reconcile its trace
/// against the final document. Returns the cell and its recorded events.
fn run_cell(
    (mode, advanced): (&str, bool),
    (channel, hostile): (&str, bool),
    crash: bool,
    seed: u64,
    out: &mut ClaimOutput,
) -> (Row, Vec<TraceEvent>) {
    // a single-crash schedule that always fires: the nth AEA signing visit,
    // n drawn from the seed within the 9 hops of one Fig. 9 instance
    let plan = if crash {
        FaultPlan::once(site::AEA_BEFORE_SIGN, 1 + seed % 9)
    } else {
        FaultPlan::none()
    };
    let fx = Rig::fig9(advanced).with_faults(&plan);
    let sys = fx.cloud(3);
    let delivery = match hostile {
        true => fx.channel(FaultProfile::hostile(), seed),
        false => fx.channel(FaultProfile::lossless(), 0),
    };

    let initial = fx.initial("obs-fig9");
    let run = fx.run(&sys, &initial).network(&delivery).run().expect("instrumented run completes");
    Verifier::new(&fx.dir).run(run.document.document()).expect("final document verifies");

    let events = fx.tracer.events();
    let cell = format!("{mode}/{channel}/crash={crash}/seed={seed}");
    let report = reconcile(&events, run.document.document());
    if let Err(e) = &report {
        eprintln!("  reconcile FAILED [{cell}]: {e}");
    }
    let row = Row::new()
        .with("mode", mode)
        .with("channel", channel)
        .with("crash", crash)
        .with("seed", seed)
        .with("steps", run.steps)
        .with("events", events.len())
        .with("hops_matched", report.as_ref().map(|r| r.hops_matched).unwrap_or(0))
        .with("crashed_attempts", report.as_ref().map(|r| r.crashed_attempts).unwrap_or(0))
        .with("crashes_injected", plan.fired())
        .with("reconciled", report.is_ok())
        .with("invariants_ok", out.close_cell(&cell, &fx).0);
    (row, events)
}

/// Best-of-`reps` wall-clock of the sealed chain workload, `(plain,
/// instrumented)`. The two variants alternate rep by rep, so a noisy
/// stretch of the box hits both alike: the chain is a ~30 ms workload and
/// the difference being measured is a few percent of it. Chains run on no
/// network, so the traced variant uses logical time.
fn chain_secs(n: usize, reps: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (slot, tracer) in [Tracer::disabled(), Tracer::sequential()].into_iter().enumerate() {
            let rig = Rig::chain(n, true, |_| "x".into()).traced(tracer);
            let t0 = Instant::now();
            let steps = rig.walk("chain-run", Handoff::Sealed, true).count();
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(steps, n);
            best[slot] = best[slot].min(dt);
        }
    }
    (best[0], best[1])
}

pub(super) fn run() -> ClaimOutput {
    let mut out = ClaimOutput::default();
    let mut rows = Vec::new();
    let mut canonical: Option<Vec<TraceEvent>> = None;
    for model in [("basic", false), ("tfc", true)] {
        for channel in [("lossless", false), ("hostile", true)] {
            for crash in [false, true] {
                for seed in SEEDS {
                    let (row, events) = run_cell(model, channel, crash, seed, &mut out);
                    rows.push(row);
                    // canonical trace: first advanced-model lossless
                    // crash-free cell — the richest fault-free timeline
                    if canonical.is_none() && model.1 && !channel.1 && !crash {
                        canonical = Some(events);
                    }
                }
            }
        }
    }
    let events = canonical.expect("canonical cell ran");
    out.file("BENCH_obs_trace.jsonl", events_to_jsonl(&events));
    out.file("BENCH_obs_trace.chrome.json", events_to_chrome(&events));

    // instrumentation overhead on the C1 chain workload (wall clock,
    // best-of-15 — the only machine-dependent numbers in this claim)
    const CHAIN_N: usize = 48;
    const REPS: usize = 15;
    let (plain, traced) = chain_secs(CHAIN_N, REPS);
    let overhead_pct = (traced - plain) / plain * 100.0;
    println!(
        "chain({CHAIN_N}) best-of-{REPS}: plain {:.1} ms, traced {:.1} ms, overhead {:+.2}%",
        plain * 1e3,
        traced * 1e3,
        overhead_pct
    );

    let reconciled = |c: &Row| c.get("reconciled") == Some(&Value::Bool(true));
    let crashed = |c: &Row| c.get("crash") == Some(&Value::Bool(true));
    out.verdict("all cells reconciled against the signed document", rows.iter().all(reconciled));
    out.verdict("every cell completed 9 steps", rows.iter().all(|c| c.int("steps") == 9));
    out.verdict(
        "every crash cell injected exactly one crash",
        rows.iter().filter(|c| crashed(c)).all(|c| c.int("crashes_injected") == 1),
    );
    out.set_rows(Rows::object(vec![], 2, rows));
    out
}
