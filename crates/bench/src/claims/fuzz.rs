//! Claim C14: differential fuzzing over the workflow-pattern catalogue —
//! every definition a seeded generator draws from the full pattern set
//! (AND/XOR/OR joins, multi-instance activities, cancellation regions) is
//! proven sound, executes to the byte-identical final document and pool
//! digest through both operational models under honest, hostile and
//! crashing channels, reconciles cleanly against its span trace, catches
//! every injected forgery, and has its deadlocking twin rejected at
//! admission.
//!
//! Sweeps a fixed 64-seed corpus. The results are fully deterministic
//! (virtual time only, no wall clock): `BENCH_fuzz.json` must come out
//! byte-identical on every run and to the baseline
//! `perf/BENCH_fuzz.baseline.json`, so any drift in hop
//! counts, soundness-state counts or detection totals fails.

use super::{ClaimOutput, Row, Rows};
use crate::fuzz;

const SEEDS: u64 = 64;

pub(super) fn run() -> ClaimOutput {
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    let mut divergences = Vec::new();
    for seed in 0..SEEDS {
        match fuzz::fuzz_seed(seed) {
            Ok(r) => {
                rows.push(
                    Row::new()
                        .with("cell", format!("seed-{:02}", r.seed))
                        .with("activities", r.activities)
                        .with("hops_basic", r.hops_basic)
                        .with("hops_advanced", r.hops_advanced)
                        .with("soundness_states", r.soundness_states)
                        .with("or_join_waits", r.or_join_waits)
                        .with("cancelled", r.cancelled)
                        .with("forgeries_tried", r.forgeries_tried)
                        .with("forgeries_caught", r.forgeries_caught)
                        .with("unsound_rejected", u64::from(r.unsound_rejected))
                        .with("outcome_sha256", r.outcome_sha256.as_str()),
                );
                reports.push(r);
            }
            Err(e) => {
                let cell = format!("divergence-{:02}", divergences.len());
                divergences.push(Row::new().with("cell", cell).with("error", e));
            }
        }
    }
    let mut out = ClaimOutput::default();
    // every seed ran the full differential matrix without divergence,
    // every forgery was caught, every unsound twin rejected, and the corpus
    // actually exercised the new patterns
    out.verdict(
        "every seed converged across models and channels",
        divergences.is_empty() && reports.len() as u64 == SEEDS,
    );
    out.verdict(
        "every forgery caught",
        reports.iter().all(|r| r.forgeries_caught == r.forgeries_tried),
    );
    out.verdict("every unsound twin rejected", reports.iter().all(|r| r.unsound_rejected));
    out.verdict(
        "the corpus parked an OR-join and fired a cancellation",
        reports.iter().map(|r| r.or_join_waits).sum::<u64>() > 0
            && reports.iter().map(|r| r.cancelled).sum::<u64>() > 0,
    );
    rows.extend(divergences);
    out.set_rows(Rows::array(rows));
    out
}
