//! Integration: the empty work list. A mark covering the whole document
//! leaves zero signature checks to schedule, and the verifier must accept
//! without checking any signature, reusing every CER.

use dra4wfms::prelude::*;
use dra_bench::rig::Rig;

/// Execute a linear `len`-step workflow with the given response values.
fn run_linear(len: usize, values: &[String]) -> (DraDocument, Directory) {
    let values = values.to_vec();
    let rig = Rig::chain(len, false, move |i| values[i].clone());
    (rig.walked("bv-pid").into_document(), rig.dir.clone())
}

#[test]
fn empty_task_batch_verifies() {
    let values: Vec<String> = (0..3).map(|i| format!("v{i}")).collect();
    let (doc, dir) = run_linear(3, &values);
    let mark = Verifier::new(&dir).with_mark(None).run(&doc).unwrap().mark.unwrap();
    let outcome = Verifier::new(&dir).with_mark(&mark).run(&doc).unwrap();
    assert!(!outcome.fell_back);
    assert_eq!(outcome.report.signatures_verified, 0);
    assert_eq!(outcome.reused_cers, 3);
}
