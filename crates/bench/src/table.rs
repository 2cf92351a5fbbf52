//! Plain-text table rendering for the harness binaries — mirrors the layout
//! of the paper's Tables 1 and 2.

use crate::fig9::StepRecord;
use std::time::Duration;

fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Render a trace under `title` in the layout of the paper's tables: one
/// row per document with #sigs, #CERs, α, β and Σ. A trace of the advanced
/// model (Table 2) also gets the γ column and, before each hop's final
/// document, a row for its intermediate (AEA → TFC) document marked `~` —
/// the paper lists both; α of a final row is AEA + TFC.
pub fn render_table(title: &str, records: &[StepRecord]) -> String {
    let advanced = records.iter().any(|r| r.gamma.is_some());
    let row = |doc: &str, sigs: &str, cers: &str, a: &str, b: &str, g: &str, size: &str| {
        let gamma = if advanced { format!(" {g:>10}") } else { String::new() };
        format!("{doc:<14} {sigs:>6} {cers:>6} {a:>10} {b:>10}{gamma} {size:>10}\n")
    };
    let mut out = format!("{title}\n");
    out += &row("Document", "#sigs", "#CERs", "alpha(s)", "beta(s)", "gamma(s)", "size(B)");
    for r in records {
        let (sigs, cers) = (r.sigs_verified.to_string(), r.cers.to_string());
        if let Some(inter) = r.size_intermediate {
            let label = format!("{}~", r.label);
            let (alpha, size) = (secs(r.alpha_aea), inter.to_string());
            out += &row(&label, &sigs, &cers, &alpha, &secs(r.beta), "-", &size);
        }
        let alpha = secs(r.alpha_aea + r.alpha_tfc.unwrap_or_default());
        let gamma = r.gamma.map_or("-".into(), secs);
        out += &row(&r.label, &sigs, &cers, &alpha, &secs(r.beta), &gamma, &r.size.to_string());
    }
    out
}

/// Averages several trace runs element-wise (duration fields only; counts
/// and sizes must agree across runs and are taken from the first).
pub fn average_traces(runs: &[Vec<StepRecord>]) -> Vec<StepRecord> {
    assert!(!runs.is_empty());
    let steps = runs[0].len();
    (0..steps)
        .map(|i| {
            let mut r = runs[0][i].clone();
            let n = runs.len() as u32;
            r.alpha_aea = runs.iter().map(|run| run[i].alpha_aea).sum::<Duration>() / n;
            r.beta = runs.iter().map(|run| run[i].beta).sum::<Duration>() / n;
            if r.alpha_tfc.is_some() {
                r.alpha_tfc = Some(
                    runs.iter().map(|run| run[i].alpha_tfc.unwrap_or_default()).sum::<Duration>()
                        / n,
                );
                r.gamma = Some(
                    runs.iter().map(|run| run[i].gamma.unwrap_or_default()).sum::<Duration>() / n,
                );
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, alpha_ms: u64) -> StepRecord {
        StepRecord {
            label: label.into(),
            cers: 1,
            sigs_verified: 2,
            alpha_aea: Duration::from_millis(alpha_ms),
            beta: Duration::from_millis(1),
            alpha_tfc: None,
            gamma: None,
            size_intermediate: None,
            size: 1000,
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let t = render_table("T", &[rec("Initial", 0), rec("X_A(0)", 3)]);
        assert!(t.contains("Initial"));
        assert!(t.contains("X_A(0)"));
        assert!(t.contains("1000"));
        assert!(!t.contains("gamma") && !t.contains('~'), "basic model: no TFC columns\n{t}");

        let mut advanced = rec("X_A(0)", 3);
        (advanced.gamma, advanced.size_intermediate) = (Some(Duration::from_millis(2)), Some(900));
        let t = render_table("T", &[rec("Initial", 0), advanced]);
        assert!(t.contains("gamma(s)") && t.contains("X_A(0)~") && t.contains("900"), "{t}");
    }

    #[test]
    fn averaging() {
        let a = vec![rec("x", 2)];
        let b = vec![rec("x", 4)];
        let avg = average_traces(&[a, b]);
        assert_eq!(avg[0].alpha_aea, Duration::from_millis(3));
    }
}
