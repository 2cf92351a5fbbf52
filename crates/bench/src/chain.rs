//! Chain workloads of configurable length — for the scaling claims (C1):
//! verify time and document size grow with the number of CERs, while
//! encrypt+sign time stays constant.

use dra4wfms_core::prelude::*;
use dra_obs::Tracer;
use std::time::{Duration, Instant};

/// Per-step measurement of a chain run.
#[derive(Clone, Debug)]
pub struct ChainRecord {
    /// Step index (number of CERs before this step).
    pub step: usize,
    /// α: decrypt + verify on receive.
    pub alpha: Duration,
    /// β: encrypt + sign on complete.
    pub beta: Duration,
    /// Σ: document size after the step.
    pub size: usize,
    /// Signatures verified on receive.
    pub sigs_verified: usize,
    /// Elliptic-curve group operations spent in α (receive).
    pub ec_ops: u64,
    /// Bytes allocated for canonicalization in α (receive).
    pub canon_alloc: u64,
}

/// Deterministic cast of `n` chain participants (+ designer).
pub fn chain_cast(n: usize) -> (Vec<Credentials>, Directory) {
    let mut creds = vec![Credentials::from_seed("designer", "chain-designer")];
    for i in 0..n {
        creds.push(Credentials::from_seed(format!("p{i}"), &format!("chain-p{i}")));
    }
    let dir = Directory::from_credentials(&creds);
    (creds, dir)
}

/// A linear workflow of `n` activities; each response is restricted to the
/// next participant when `encrypted` (element-wise encryption on every hop).
pub fn chain_definition(n: usize) -> WorkflowDefinition {
    let mut b = WorkflowDefinition::builder("chain", "designer");
    for i in 0..n {
        b = b.simple_activity(format!("S{i}"), format!("p{i}"), &["payload"]);
    }
    for i in 0..n - 1 {
        b = b.flow(format!("S{i}"), format!("S{}", i + 1));
    }
    b.flow_end(format!("S{}", n - 1)).build().expect("chain definition")
}

/// Policy for the chain.
pub fn chain_policy(n: usize, encrypted: bool) -> SecurityPolicy {
    if !encrypted {
        return SecurityPolicy::public();
    }
    let mut pb = SecurityPolicy::builder();
    for i in 0..n {
        let next = format!("p{}", (i + 1).min(n - 1));
        pb = pb.restrict(format!("S{i}"), "payload", &[&next]);
    }
    pb.build()
}

/// Execute the full chain with per-signature verification, measuring each
/// step — the paper's baseline, where every hop re-serializes, re-parses
/// and re-verifies from scratch.
pub fn run_chain(n: usize, encrypted: bool, payload: &str) -> Vec<ChainRecord> {
    run_chain_with(n, encrypted, payload, false)
}

/// [`run_chain`] with the AEA's batched-verification knob exposed:
/// `batched = false` is the per-signature baseline, `batched = true`
/// checks each hop's whole cascade with one batch equation.
pub fn run_chain_with(n: usize, encrypted: bool, payload: &str, batched: bool) -> Vec<ChainRecord> {
    let (creds, dir) = chain_cast(n);
    let def = chain_definition(n);
    let pol = chain_policy(n, encrypted);
    let mut doc =
        DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "chain-run").expect("initial");
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone()).with_batched(batched);
        let xml = doc.to_xml_string();
        dra_crypto::ed25519::ec_ops_reset();
        dra_xml::canon_alloc_reset();
        let t0 = Instant::now();
        let received = aea.receive(&xml, &format!("S{i}")).expect("receive");
        let alpha = t0.elapsed();
        let ec_ops = dra_crypto::ed25519::ec_ops();
        let canon_alloc = dra_xml::canon_alloc_bytes();
        let sigs_verified = received.report.signatures_verified;
        let t1 = Instant::now();
        let done =
            aea.complete(&received, &[("payload".into(), payload.to_string())]).expect("complete");
        let beta = t1.elapsed();
        // drop the seal: this workload measures the full re-verify shape
        doc = done.document.into_document();
        records.push(ChainRecord {
            step: i,
            alpha,
            beta,
            size: doc.size_bytes(),
            sigs_verified,
            ec_ops,
            canon_alloc,
        });
    }
    records
}

/// Execute the full chain with sealed hand-offs: each hop passes the
/// [`SealedDocument`] (bytes + trust mark) to the next, so α covers only
/// the incremental re-check of the one new CER. The counterpart of
/// [`run_chain`] for the full-vs-incremental ablation.
pub fn run_chain_incremental(n: usize, encrypted: bool, payload: &str) -> Vec<ChainRecord> {
    run_chain_incremental_traced(n, encrypted, payload, &Tracer::disabled())
}

/// [`run_chain_incremental`] with every AEA recording spans into `tracer` —
/// the workload for the observability-overhead measurement (`claim obs`).
/// Chains run on no simulated network, so pair it with [`Tracer::sequential`] for a
/// deterministic logical-time trace, or [`Tracer::disabled`] to measure
/// the uninstrumented baseline.
pub fn run_chain_incremental_traced(
    n: usize,
    encrypted: bool,
    payload: &str,
    tracer: &Tracer,
) -> Vec<ChainRecord> {
    let (creds, dir) = chain_cast(n);
    let def = chain_definition(n);
    let pol = chain_policy(n, encrypted);
    let initial =
        DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "chain-run").expect("initial");
    let mut sealed = SealedDocument::new(initial);
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone()).with_tracer(tracer.clone());
        dra_crypto::ed25519::ec_ops_reset();
        dra_xml::canon_alloc_reset();
        let t0 = Instant::now();
        let received = aea.receive(sealed, &format!("S{i}")).expect("receive");
        let alpha = t0.elapsed();
        let ec_ops = dra_crypto::ed25519::ec_ops();
        let canon_alloc = dra_xml::canon_alloc_bytes();
        let sigs_verified = received.report.signatures_verified;
        let t1 = Instant::now();
        let done =
            aea.complete(&received, &[("payload".into(), payload.to_string())]).expect("complete");
        let beta = t1.elapsed();
        sealed = done.document;
        records.push(ChainRecord {
            step: i,
            alpha,
            beta,
            size: sealed.size_bytes(),
            sigs_verified,
            ec_ops,
            canon_alloc,
        });
    }
    records
}

/// Best-of-`reps` measurement of the full receive α at the last hop of an
/// `n`-step chain: the chain is executed once, then the final hand-off is
/// re-received `reps` times and the minimum taken — one-shot per-hop
/// timings are at the mercy of scheduler jitter, the minimum is not.
/// Returns `(best α, signatures verified per receive)`.
pub fn receive_alpha_best_of(
    n: usize,
    encrypted: bool,
    payload: &str,
    batched: bool,
    reps: usize,
) -> (Duration, usize) {
    let (creds, dir) = chain_cast(n);
    let def = chain_definition(n);
    let pol = chain_policy(n, encrypted);
    let mut doc =
        DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "chain-run").expect("initial");
    for i in 0..n - 1 {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone());
        let received = aea.receive(doc.to_xml_string(), &format!("S{i}")).expect("receive");
        doc = aea
            .complete(&received, &[("payload".into(), payload.to_string())])
            .expect("complete")
            .document
            .into_document();
    }
    let xml = doc.to_xml_string();
    let aea = Aea::new(creds[n].clone(), dir.clone()).with_batched(batched);
    let mut best = Duration::MAX;
    let mut sigs = 0;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let received = aea.receive(&xml, &format!("S{}", n - 1)).expect("receive");
        let dt = t.elapsed();
        sigs = received.report.signatures_verified;
        best = best.min(dt);
    }
    (best, sigs)
}

/// Build a finished chain document of `n` CERs (workload for verify benches).
pub fn finished_chain_document(n: usize, encrypted: bool) -> (String, Directory) {
    let (creds, dir) = chain_cast(n);
    let def = chain_definition(n);
    let pol = chain_policy(n, encrypted);
    let mut doc =
        DraDocument::new_initial_with_pid(&def, &pol, &creds[0], "chain-doc").expect("initial");
    for i in 0..n {
        let aea = Aea::new(creds[i + 1].clone(), dir.clone());
        let received = aea.receive(doc.to_xml_string(), &format!("S{i}")).expect("receive");
        doc = aea
            .complete(&received, &[("payload".into(), format!("data-{i}"))])
            .expect("complete")
            .document
            .into_document();
    }
    (doc.to_xml_string(), dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_runs_and_scales() {
        let records = run_chain(6, true, "x");
        assert_eq!(records.len(), 6);
        // sizes strictly increase
        assert!(records.windows(2).all(|w| w[1].size > w[0].size));
        // signature count grows by one per step
        let sigs: Vec<usize> = records.iter().map(|r| r.sigs_verified).collect();
        assert_eq!(sigs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn batched_chain_matches_sequential_chain() {
        let seq = run_chain_with(5, true, "x", false);
        let bat = run_chain_with(5, true, "x", true);
        assert_eq!(seq.len(), bat.len());
        for (s, b) in seq.iter().zip(bat.iter()) {
            assert_eq!(s.sigs_verified, b.sigs_verified, "step {}", s.step);
        }
        // the batch equation needs fewer group operations than n separate
        // double-scalar checks once the cascade is non-trivial
        let last = seq.len() - 1;
        assert!(
            bat[last].ec_ops < seq[last].ec_ops,
            "batched {} ops vs sequential {} ops",
            bat[last].ec_ops,
            seq[last].ec_ops
        );
    }

    #[test]
    fn finished_document_verifies() {
        let (xml, dir) = finished_chain_document(4, false);
        let doc = DraDocument::parse(&xml).unwrap();
        let report =
            dra4wfms_core::verify::Verifier::new(&dir).batched(false).run(&doc).unwrap().report;
        assert_eq!(report.cers.len(), 4);
    }
}
