//! Integration: `Verifier::run_many` — one verdict per document, whatever
//! the number of documents in flight (the auditor's path).

use dra4wfms::prelude::*;
use dra_bench::rig::Rig;

fn chain(n: usize) -> (DraDocument, Directory) {
    let rig = Rig::chain(n, false, |i| format!("x{i}"));
    (rig.walked("pv").into_document(), rig.dir.clone())
}

#[test]
fn batch_reports_per_document_verdicts() {
    let (good, dir) = chain(4);
    let bad = {
        let xml = good.to_xml_string().replace("x1", "EVIL");
        DraDocument::parse(&xml).unwrap()
    };
    let docs = vec![good.clone(), bad, good.clone()];
    for threads in [1, 3, 8] {
        let verdicts = Verifier::new(&dir).batched(false).threads(threads).run_many(&docs);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts[0].is_ok(), "threads={threads}");
        assert!(verdicts[1].is_err(), "threads={threads}");
        assert!(verdicts[2].is_ok(), "threads={threads}");
    }
}

#[test]
fn empty_batch_is_fine() {
    let (_, dir) = chain(2);
    assert!(Verifier::new(&dir).batched(false).threads(4).run_many(&[]).is_empty());
}
