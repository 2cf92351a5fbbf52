//! The prose has a budget, as the code has `MAX_LINES`: README.md,
//! DESIGN.md and EXPERIMENTS.md together stay within 90 000 bytes, and a
//! CHANGES.md entry (one line per PR) within 1 536 bytes. A number a claim
//! gates lives in its `perf/` baseline, and history lives in CHANGES.md, so
//! the three documents need not grow with either.

const DOCS_BYTES: usize = 90_000;
const CHANGES_ENTRY_BYTES: usize = 1_536;

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn the_documents_and_each_changes_entry_fit_their_budgets() {
    let docs: usize =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|f| read(f).len()).iter().sum();
    assert!(
        docs <= DOCS_BYTES,
        "README.md + DESIGN.md + EXPERIMENTS.md hold {docs} bytes, over the {DOCS_BYTES}-byte budget"
    );
    for entry in read("CHANGES.md").lines().filter(|line| !line.trim().is_empty()) {
        let head: String = entry.chars().take(40).collect();
        assert!(
            entry.len() <= CHANGES_ENTRY_BYTES,
            "the CHANGES.md entry {head:?}… holds {} bytes, over the {CHANGES_ENTRY_BYTES}-byte budget",
            entry.len()
        );
    }
}
