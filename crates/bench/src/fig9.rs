//! The paper's experimental workflow (Fig. 9) and its measured trace.

use crate::rig::{fig9_confidential, Rig};
use std::time::{Duration, Instant};

/// One measured step of the Fig. 9 trace (one activity execution). The
/// initial document is represented by a pseudo-step with zero timings.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Paper-style label: `Initial`, `X_A(0)`, `X_B1(0)` …
    pub label: String,
    /// CERs in the document *after* this step.
    pub cers: usize,
    /// Signatures verified on receive (the paper's "number of signatures to
    /// verify").
    pub sigs_verified: usize,
    /// Decrypt + verify time in the AEA (α).
    pub alpha_aea: Duration,
    /// Encrypt + embed-signature time in the AEA (β).
    pub beta: Duration,
    /// Decrypt + verify time in the TFC (advanced model; part of α).
    pub alpha_tfc: Option<Duration>,
    /// Encrypt + timestamp + sign time in the TFC (γ).
    pub gamma: Option<Duration>,
    /// Size of the intermediate (TFC-bound) document, advanced model.
    pub size_intermediate: Option<usize>,
    /// Size of the produced document in bytes (Σ).
    pub size: usize,
}

/// One document of the Fig. 9 walk: what was measured producing it, and
/// the bytes themselves.
pub struct Step {
    /// The measurements.
    pub record: StepRecord,
    /// The produced document, as routed on.
    pub document: String,
    /// The intermediate (TFC-bound) document, advanced model.
    pub intermediate: Option<String>,
}

impl Rig {
    /// Execute one activity (basic or advanced), timing each phase.
    fn timed_step(
        &self,
        label: &str,
        participant: &str,
        activity: &str,
        inputs: &[&str],
        (field, value): (&str, &str),
    ) -> Step {
        let aea = &self.agents[participant];
        let responses = [(field.to_string(), value.to_string())];

        let t0 = Instant::now();
        let received = if inputs.len() == 1 {
            aea.receive(inputs[0], activity)
        } else {
            aea.receive_merged(inputs, activity)
        }
        .unwrap_or_else(|e| panic!("receive {label}: {e}"));
        let alpha_aea = t0.elapsed();

        let t1 = Instant::now();
        let (beta, tfc_times, intermediate, produced) = match &self.tfc {
            None => {
                let done = aea
                    .complete(&received, &responses)
                    .unwrap_or_else(|e| panic!("complete {label}: {e}"));
                (t1.elapsed(), None, None, done.document)
            }
            Some(tfc) => {
                let inter = aea
                    .complete_via_tfc(&received, &responses)
                    .unwrap_or_else(|e| panic!("complete_via_tfc {label}: {e}"));
                let beta = t1.elapsed();
                let inter_xml = inter.document.to_xml_string();

                let t2 = Instant::now();
                let tfc_recv =
                    tfc.receive(&inter_xml).unwrap_or_else(|e| panic!("tfc receive {label}: {e}"));
                let alpha_tfc = t2.elapsed();

                let t3 = Instant::now();
                let finalized =
                    tfc.finalize(&tfc_recv).unwrap_or_else(|e| panic!("tfc finalize {label}: {e}"));
                (beta, Some((alpha_tfc, t3.elapsed())), Some(inter_xml), finalized.document)
            }
        };
        let document = produced.to_xml_string();
        let record = StepRecord {
            label: label.to_string(),
            cers: produced.cers().unwrap().len(),
            sigs_verified: received.report.signatures_verified,
            alpha_aea,
            beta,
            alpha_tfc: tfc_times.map(|t| t.0),
            gamma: tfc_times.map(|t| t.1),
            size_intermediate: intermediate.as_ref().map(String::len),
            size: document.len(),
        };
        Step { record, document, intermediate }
    }
}

/// Walk the exact Fig. 9 script of the paper's experiments (loop taken
/// once): A, B1, B2, C(insufficient), A, B1, B2, C(accept), D — one
/// [`Step`] per document produced, the initial document first. Every
/// consumer of the script (the two tables, the TFC workloads, the document
/// dump) reads this one walk.
pub fn walk(advanced: bool) -> Vec<Step> {
    let rig = Rig::fig9(advanced).with_policy(fig9_confidential());
    let document = rig.initial("fig9-bench").to_xml_string();
    let record = StepRecord {
        label: "Initial".into(),
        cers: 0,
        sigs_verified: 0,
        alpha_aea: Duration::ZERO,
        beta: Duration::ZERO,
        alpha_tfc: None,
        gamma: None,
        size_intermediate: None,
        size: document.len(),
    };
    let mut steps = vec![Step { record, document, intermediate: None }];
    // each hop reads the documents at `inputs` (indices into `steps`)
    let mut hop = |activity: &str, iter: u32, inputs: &[usize], field: &str, value: &str| {
        let label = format!("X_{activity}({iter})");
        let participant = &rig.def.activity(activity).expect("a Fig. 9 activity").participant;
        let inputs: Vec<&str> = inputs.iter().map(|&i| steps[i].document.as_str()).collect();
        let step = rig.timed_step(&label, participant, activity, &inputs, (field, value));
        steps.push(step);
    };
    hop("A", 0, &[0], "attachment", "contract-draft.pdf");
    hop("B1", 0, &[1], "review1", "figures look right");
    hop("B2", 0, &[1], "review2", "terms acceptable");
    hop("C", 0, &[2, 3], "decision", "insufficient");
    hop("A", 1, &[4], "attachment", "contract-final.pdf");
    hop("B1", 1, &[5], "review1", "ok now");
    hop("B2", 1, &[5], "review2", "ok now");
    hop("C", 1, &[6, 7], "decision", "accept");
    hop("D", 0, &[8], "ack", "purchase confirmed");
    steps
}

/// The measurements of one [`walk`], without the documents.
pub fn run_fig9_trace(advanced: bool) -> Vec<StepRecord> {
    walk(advanced).into_iter().map(|step| step.record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_trace_shape() {
        let records = run_fig9_trace(false);
        assert_eq!(records.len(), 10, "initial + 9 steps");
        // CER counts: 0,1,2,2,4,5,6,6,8,9
        let cers: Vec<usize> = records.iter().map(|r| r.cers).collect();
        assert_eq!(cers, vec![0, 1, 2, 2, 4, 5, 6, 6, 8, 9]);
        // sizes strictly grow along a path (parallel branches may tie)
        assert!(records.last().unwrap().size > records[0].size * 2);
        // verify-count grows monotonically except at parallel twins
        let sigs: Vec<usize> = records.iter().map(|r| r.sigs_verified).collect();
        assert_eq!(sigs, vec![0, 1, 2, 2, 4, 5, 6, 6, 8, 9]);
    }

    #[test]
    fn table2_trace_shape() {
        let records = run_fig9_trace(true);
        assert_eq!(records.len(), 10);
        for r in &records[1..] {
            assert!(r.alpha_tfc.is_some());
            assert!(r.gamma.is_some());
            assert!(r.size_intermediate.is_some());
            assert!(r.size > r.size_intermediate.unwrap(), "final carries more than intermediate");
        }
        // advanced documents are larger than basic ones step for step
        let basic = run_fig9_trace(false);
        for (a, b) in records.iter().zip(basic.iter()).skip(1) {
            assert!(a.size > b.size, "{}: {} > {}", a.label, a.size, b.size);
        }
    }

    #[test]
    fn intermediate_documents_produced() {
        let inters: Vec<String> = walk(true).into_iter().filter_map(|s| s.intermediate).collect();
        assert_eq!(inters.len(), 9);
        // each ends with an intermediate CER the TFC can process
        let rig = Rig::fig9(true);
        let tfc = rig.tfc.as_ref().unwrap();
        for xml in &inters {
            tfc.process(xml).expect("every intermediate processable");
        }
    }
}
