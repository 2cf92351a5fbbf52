//! Claim C10: per-stage latency attribution is *deterministic and
//! gateable* — sweeping the Fig. 9 workflow over basic/tfc × lossless/
//! hostile cells under a live `HealthMonitor` yields byte-identical
//! `BENCH_profile.json` / `BENCH_alerts.jsonl` for a fixed seed, the
//! lossless cells raise zero alerts, and the profile is held against
//! `perf/BENCH_profile.baseline.json`.
//!
//! Everything written here is virtual-time integer arithmetic — no wall
//! clock.

use super::{ClaimOutput, Row, Rows};
use crate::rig::Rig;
use dra4wfms_core::prelude::*;
use dra_cloud::FaultProfile;
use dra_obs::LatencyProfile;

const SEED: u64 = 7;

/// One fully instrumented, monitored Fig. 9 instance; returns the cell
/// with its latency profile as stages.
fn run_cell(
    mode: &str,
    advanced: bool,
    channel: &str,
    hostile: bool,
    out: &mut ClaimOutput,
) -> Row {
    let fx = Rig::fig9(advanced);
    let sys = fx.cloud(3);
    let delivery = match hostile {
        true => fx.channel(FaultProfile::hostile(), SEED),
        false => fx.channel(FaultProfile::lossless(), 0),
    };

    // per-cell pid: the alert stream names the cell it came from
    let initial = fx.initial(&format!("profile-{mode}-{channel}"));
    let run = fx
        .run(&sys, &initial)
        .network(&delivery)
        // a 25 ms end-to-end SLO: comfortable on a lossless channel,
        // deterministically blown by the hostile one (backoff is charged
        // in virtual time) — so the sweep demonstrates SloBreach too
        .slo_us(25_000)
        .run()
        .expect("instrumented run completes");
    Verifier::new(&fx.dir).run(run.document.document()).expect("final document verifies");

    let events = fx.tracer.events();
    let profile = LatencyProfile::from_events(&events);
    let cell = format!("{mode}/{channel}");
    println!("{cell}: hottest stages by self time");
    for s in profile.top_k(3) {
        println!(
            "    {:<14} self {:>8} µs  (count {}, p95 {} µs)",
            s.stage, s.self_us, s.count, s.p95_us
        );
    }
    let stages = profile.stages.iter().map(|s| {
        Row::new()
            .with("stage", s.stage.as_str())
            .with("count", s.count)
            .with("total_us", s.total_us)
            .with("self_us", s.self_us)
            .with("child_us", s.child_us)
            .with("max_us", s.max_us)
            .with("p50_us", s.p50_us)
            .with("p95_us", s.p95_us)
            .with("p99_us", s.p99_us)
    });
    let (_, alerts) = out.close_cell(&cell, &fx);
    Row::new()
        .with("cell", cell)
        .with("steps", run.steps)
        .with("spans", events.len())
        .with("alerts", alerts)
        .stages(stages.collect())
}

pub(super) fn run() -> ClaimOutput {
    let mut out = ClaimOutput::default();
    let mut cells = Vec::new();
    for (mode, advanced) in [("basic", false), ("tfc", true)] {
        for (channel, hostile) in [("lossless", false), ("hostile", true)] {
            cells.push(run_cell(mode, advanced, channel, hostile, &mut out));
        }
    }
    // the concatenated alert streams, byte-deterministic like the traces
    out.alerts_file("BENCH_alerts.jsonl");

    out.verdict("all cells completed 9 steps", cells.iter().all(|c| c.int("steps") == 9));
    out.verdict(
        "lossless cells raised zero alerts",
        cells.iter().filter(|c| c.text("cell").ends_with("lossless")).all(|c| c.int("alerts") == 0),
    );
    out.verdict(
        "self-time attribution bounded by totals",
        cells.iter().all(|c| {
            let sum = |key: &str| c.stages.iter().flatten().map(|s| s.int(key)).sum::<i64>();
            sum("self_us") <= sum("total_us")
        }),
    );
    let header = Row::new().with("claim", "C10").with("seed", SEED).fields;
    out.set_rows(Rows::object(header, 0, cells));
    out
}
