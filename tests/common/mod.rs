//! Shared by the tests that pin bytes under `tests/golden/`.

use dra_bench::rig::{fig9_definition, Rig};
use std::path::Path;

/// The workload the `fig9a.*` goldens were recorded from: Fig. 9A with
/// activities that request nothing, played by a cast seeded `golden-*`.
pub fn golden_rig() -> Rig {
    let mut def = fig9_definition(false);
    def.activities.iter_mut().for_each(|a| a.requests.clear());
    Rig::fig9_as("golden", def)
}

/// Hold `rendered` against `tests/golden/<name>` byte for byte — or, under
/// `REGEN_GOLDEN`, rewrite the golden with it.
pub fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} (REGEN_GOLDEN=1 to create): {e}"));
    assert_eq!(
        rendered, golden,
        "{name} diverged from its golden — these bytes must stay deterministic; \
         regenerate with REGEN_GOLDEN=1 only after an intentional format change"
    );
}
