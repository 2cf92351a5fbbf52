//! Integration: the paper's experimental workflows (Fig. 9A/9B) end to end,
//! checking the structural properties behind Tables 1 and 2.

use dra4wfms::core::monitor::ProcessStatus;
use dra4wfms::prelude::*;
use dra_bench::rig::{fig9_confidential, Rig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a receiver of `doc`'s bytes holds: the wire parsed, no mark.
fn wire(doc: &DraDocument) -> SealedDocument {
    SealedDocument::from_wire(&doc.to_xml_string()).unwrap()
}

/// Fig. 9 under the element-wise encryption of the paper's experiments. C
/// routes on its own decision: C can read it (it is in the audience).
fn fig9(advanced: bool) -> Rig {
    Rig::fig9(advanced).with_policy(fig9_confidential())
}

/// Every hand-off of a run crosses a channel — the system's own lossless one
/// when the run names none — and so shows in the run's registry.
fn assert_handoffs(rig: &Rig, expected: u64, why: &str) {
    let snap = rig.metrics.snapshot();
    assert_eq!(snap.counter("delivery.sends"), expected, "{why}");
    assert_eq!(snap.counter("delivery.delivered"), expected, "each answered");
    assert_eq!(snap.counter("delivery.retries"), 0, "at the first attempt");
    let (spent, ideal) = ("delivery.virtual_time_us", "delivery.ideal_time_us");
    assert_eq!(snap.counter(spent), snap.counter(ideal), "each copy charged exactly once");
}

#[test]
fn fig9a_basic_model_structure_matches_table1() {
    let rig = fig9(false);
    let sys = rig.cloud(2);
    let initial = rig.initial("t1");
    let initial_size = initial.size_bytes();
    let out = rig.run(&sys, &initial).run().unwrap();
    assert_eq!(out.steps, 9, "A,B1,B2,C ×2 + D (loop taken once), as in Table 1");
    assert_handoffs(&rig, 10, "the initial store + one store per hop");

    // Σ grows monotonically with the number of CERs (Table 1's key shape).
    let mut sizes = vec![initial_size];
    for seq in 1.. {
        match sys.retrieve_version("t1", seq) {
            Some(xml) => sizes.push(xml.len()),
            None => break,
        }
    }
    assert_eq!(sizes.len(), 10, "initial + 9 stored versions");
    // per-branch parallel docs may tie; overall trend strictly grows at joins
    assert!(sizes.windows(2).all(|w| w[1] >= w[0] || w[1] as f64 > w[0] as f64 * 0.8));
    assert!(*sizes.last().unwrap() > 4 * initial_size / 2, "final ≫ initial");

    // number of signatures to verify grows linearly with CERs
    let report = Verifier::new(&rig.dir).run(&out.document).unwrap().report;
    assert_eq!(report.cers.len(), 9);
    assert_eq!(report.signatures_verified, 10);
}

#[test]
fn fig9b_advanced_model_structure_matches_table2() {
    let ticks = AtomicU64::new(0);
    let rig = fig9(true).tfc_clock(Arc::new(move || 1000 + ticks.fetch_add(1, Ordering::Relaxed)));
    let sys = rig.cloud(2);
    let initial = rig.initial("t2");
    let out = rig.run(&sys, &initial).run().unwrap();
    assert_eq!(out.steps, 9);
    assert_handoffs(&rig, 19, "as Fig. 9A, plus one AEA → TFC send per hop");

    // every CER has: TfcSealed + Result + Timestamp + participant & TFC sigs
    for cer in out.document.cers().unwrap() {
        assert!(cer.tfc_sealed().is_some(), "{} sealed", cer.key);
        assert!(cer.result().is_some(), "{} re-encrypted", cer.key);
        assert!(cer.timestamp_millis().is_some(), "{} timestamped", cer.key);
        assert_eq!(cer.signatures().len(), 2, "{} doubly signed", cer.key);
    }
    // timestamps are monotone in execution order of the TFC's clock
    let status = ProcessStatus::from_document(&out.document).unwrap();
    let times: Vec<u64> = status.executed.iter().filter_map(|e| e.timestamp).collect();
    assert_eq!(times.len(), 9);

    // designer + 9 participant + 9 TFC signatures
    let report = Verifier::new(&rig.dir).run(&out.document).unwrap().report;
    assert_eq!(report.signatures_verified, 19);

    // the advanced-model document is larger than the basic one (extra sealed
    // blobs, timestamps and attestations — Table 2 vs Table 1 sizes)
    let rig_b = fig9(false);
    let sys_b = rig_b.cloud(2);
    let initial_b = rig_b.initial("t2b");
    let out_b = rig_b.run(&sys_b, &initial_b).run().unwrap();
    assert!(
        out.document.size_bytes() > out_b.document.size_bytes(),
        "advanced {} > basic {}",
        out.document.size_bytes(),
        out_b.document.size_bytes()
    );
}

#[test]
fn loop_iterations_are_distinct_cers() {
    let rig = fig9(false);
    let sys = rig.cloud(1);
    let initial = rig.initial("t3");
    let out = rig.run(&sys, &initial).run().unwrap();
    // X''_Ai(k) notation: the same activity appears once per iteration
    let keys: Vec<String> =
        out.document.cers().unwrap().iter().map(|c| c.key.to_string()).collect();
    assert!(keys.contains(&"A#0".to_string()));
    assert!(keys.contains(&"A#1".to_string()));
    assert!(keys.contains(&"C#0".to_string()));
    assert!(keys.contains(&"C#1".to_string()));
    assert!(keys.contains(&"D#0".to_string()));
    // and the second C signs the second branch results
    let c1 = out.document.find_cer(&CerKey::new("C", 1)).unwrap().unwrap();
    assert!(c1.preds.contains(&PredRef::Cer(CerKey::new("B1", 1))));
    assert!(c1.preds.contains(&PredRef::Cer(CerKey::new("B2", 1))));
}

#[test]
fn and_join_requires_both_branches() {
    let rig = fig9(false);
    let (initial, ags) = (rig.initial("t4"), &rig.agents);
    // A executes, then only B1 — C must refuse
    let recv = ags["p_a"].receive(wire(&initial), "A").unwrap();
    let a_done = ags["p_a"].complete(&recv, &[("attachment".into(), "f".into())]).unwrap();
    let recv = ags["p_b1"].receive(wire(&a_done.document), "B1").unwrap();
    let b1_done = ags["p_b1"].complete(&recv, &[("review1".into(), "ok".into())]).unwrap();
    let err = ags["p_c"].receive(wire(&b1_done.document), "C").unwrap_err();
    assert!(matches!(err, WfError::Flow(m) if m.contains("AND-join")));

    // with B2's branch merged in, C proceeds
    let recv = ags["p_b2"].receive(wire(&a_done.document), "B2").unwrap();
    let b2_done = ags["p_b2"].complete(&recv, &[("review2".into(), "ok".into())]).unwrap();
    let arrivals = [wire(&b1_done.document), wire(&b2_done.document)];
    let recv = ags["p_c"].receive(merge_sealed(&arrivals).unwrap(), "C").unwrap();
    assert_eq!(recv.preds.len(), 2, "C signs both branches");
    let c_done = ags["p_c"].complete(&recv, &[("decision".into(), "accept".into())]).unwrap();
    assert_eq!(c_done.route.targets, vec!["D"]);
}
