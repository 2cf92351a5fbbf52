//! Claims T1/T2: the paper's **Table 1** (Fig. 9A, basic model) and
//! **Table 2** (Fig. 9B, every hop via the TFC), from one walk of the Fig. 9
//! script.
//!
//! The deterministic columns — document, #sigs, #CERs, Σ, one row per
//! document (in Table 2 each hop's intermediate document, marked `~`, before
//! its final one) — are the rows, gated byte for byte. The α/β/γ timings are
//! wall clock: printed (mean of [`RUNS`] walks after a warm-up) next to the
//! paper's reference values and their shape checks, and deciding nothing.

use super::{ClaimOutput, Row, Rows};
use crate::fig9::{run_fig9_trace, StepRecord};
use crate::table::{average_traces, render_table};

/// Timed walks averaged into the printed table.
const RUNS: usize = 5;

/// Paper-reported Table 1 (IPDPSW 2012): (#sigs, #CERs, α s, β s, Σ bytes).
/// A printed side-by-side, not a verdict: ours read 6/6 and 8/8 at
/// `X_B2(1)`/`X_C(1)`, where the paper prints 7/7 twice.
const PAPER_TABLE1: [(&str, usize, usize, f64, f64, usize); 10] = [
    ("Initial", 0, 0, 0.0, 0.0, 7_119),
    ("X_A(0)", 1, 1, 0.0030, 0.0156, 8_667),
    ("X_B1(0)", 2, 2, 0.0041, 0.0167, 10_184),
    ("X_B2(0)", 2, 2, 0.0049, 0.0145, 10_184),
    ("X_C(0)", 4, 4, 0.0055, 0.0148, 13_503),
    ("X_A(1)", 5, 5, 0.0072, 0.0147, 15_015),
    ("X_B1(1)", 6, 6, 0.0079, 0.0130, 16_562),
    ("X_B2(1)", 7, 7, 0.0088, 0.0132, 18_079),
    ("X_C(1)", 7, 7, 0.0093, 0.0116, 18_079),
    ("X_D(0)", 9, 9, 0.0133, 0.0118, 21_398),
];

fn max_over_min(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    xs.clone().fold(f64::MIN, f64::max) / xs.fold(f64::MAX, f64::min)
}

/// Measure, print and gate one table; returns the averaged trace for the
/// table's own shape checks.
fn table(title: &str, advanced: bool, documents: usize) -> (Vec<StepRecord>, ClaimOutput) {
    let _warm_up = run_fig9_trace(advanced);
    let avg = average_traces(&(0..RUNS).map(|_| run_fig9_trace(advanced)).collect::<Vec<_>>());
    println!("{}", render_table(title, &avg));

    let row = |document: String, r: &StepRecord, size: usize| {
        Row::new()
            .with("document", document)
            .with("sigs", r.sigs_verified)
            .with("cers", r.cers)
            .with("size_bytes", size)
    };
    let mut rows = Vec::new();
    for r in &avg {
        if let Some(intermediate) = r.size_intermediate {
            rows.push(row(format!("{}~", r.label), r, intermediate));
        }
        rows.push(row(r.label.clone(), r, r.size));
    }
    let mut out = ClaimOutput::default();
    out.verdict(&format!("{documents} document rows"), rows.len() == documents);
    out.verdict("Σ final > Σ initial", avg[avg.len() - 1].size > avg[0].size);
    out.set_rows(Rows::array(rows));
    (avg, out)
}

pub(super) fn table1() -> ClaimOutput {
    let title = "TABLE 1. EXECUTION TIMES FOR THE WORKFLOW OF FIG. 9A (basic model)";
    let (avg, mut out) = table(title, false, 10);
    out.verdict("#sigs = #CERs in every row", avg.iter().all(|r| r.sigs_verified == r.cers));

    println!("paper-reported reference (2012 Java/RSA testbed; absolute numbers differ,");
    println!("the shape — verify-cost ∝ #signatures, ~constant sign cost, Σ ∝ #CERs — holds):");
    for (l, s, c, a, b, z) in PAPER_TABLE1 {
        println!("{l:<14} {s:>6} {c:>6} {a:>10.4} {b:>10.4} {z:>10}");
    }
    let (first, last) = (&avg[1], &avg[avg.len() - 1]);
    println!("\nshape checks:");
    println!(
        "  alpha growth first→last step: {:.2}×  (paper: {:.2}×)",
        last.alpha_aea.as_secs_f64() / first.alpha_aea.as_secs_f64(),
        0.0133 / 0.0030
    );
    println!(
        "  beta max/min spread: {:.2}×  (paper: {:.2}× — 'only a constant time')",
        max_over_min(avg[1..].iter().map(|r| r.beta.as_secs_f64())),
        0.0167 / 0.0116
    );
    println!(
        "  size growth initial→final: {:.2}×  (paper: {:.2}×)",
        last.size as f64 / avg[0].size as f64,
        22_910.0 / 7_119.0
    );
    out
}

pub(super) fn table2() -> ClaimOutput {
    let title = "TABLE 2. EXECUTION TIMES FOR THE WORKFLOW OF FIG. 9B (advanced model)";
    let (avg, out) = table(title, true, 19);

    println!("paper-reported envelope (2012 testbed): sizes 7,119 → 47,406 bytes over 19");
    println!("documents; alpha grows 0.0021 → 0.0431 s; beta and gamma stay ~constant");
    println!("(0.008–0.016 s). Key claim: 'the TFC was not the bottleneck' — `claim tfc` prints");
    println!("the AEA/TFC cost split of this trace and the TFC's throughput.");
    println!("\nshape checks:");
    println!(
        "  gamma max/min spread: {:.2}× (TFC work ~constant per step)",
        max_over_min(avg[1..].iter().filter_map(|r| r.gamma.map(|d| d.as_secs_f64())))
    );
    println!(
        "  advanced final size {} B vs basic final size {} B (paper: 47,406 vs 22,910)",
        avg[avg.len() - 1].size,
        run_fig9_trace(false).last().map_or(0, |r| r.size)
    );
    out
}
