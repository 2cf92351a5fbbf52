//! Scheduler parity: [`InstanceRun::run`] (a facade over
//! `cloud::sched::Scheduler`) must stay byte-for-byte what the original
//! per-instance driver loop produced before it was deleted — the pool
//! snapshot hash, the `run.*` / `portal.*` counters and the step count of
//! Fig. 9A (basic) and Fig. 9B (advanced) under a lossless channel,
//! hostile faults, and seeded crash-fault takeover are frozen in
//! `tests/golden/scheduler_parity.txt`, recorded from that loop. The
//! `portal.verifications` / `portal.signature_checks` rows pin that every
//! admission still runs the verifier and checks as many signatures.
//!
//! `pool_snapshot_sha256` is over the pool's rows as laid out, so a layout
//! change moves it; `pool_digest` is over the bytes every stored version
//! reads as and was recorded with full-copy rows, before a `doc/` row held
//! only what its hop appended: it pins that each stored version still is,
//! byte for byte, what was admitted.
//!
//! Two lines are not that loop's: `run.signature_checks` of the two crash
//! cells (18 → 19 on Fig. 9A, 42 → 44 on Fig. 9B, the crash-free cells'
//! values). The commit that deleted the loop also deleted the portal's
//! in-memory trust cache, whose mark covered the sender's own CER; a
//! taken-over hop now verifies under its input's own mark, exactly as the
//! crashed attempt did.
//!
//! Regenerate (only after an intentional change of pool bytes or counters):
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test scheduler_parity
//! ```

use dra4wfms::cloud::{FaultPlan, FaultProfile};
use dra4wfms::core::faultpoint::site;
use dra_bench::rig::{fig9_definition, Rig};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Lossless,
    HostileFaults,
    SeededCrash,
}

/// What the golden was recorded on: a Fig. 9 whose reviewers request
/// nothing, a cast seeded `parity-*`, a TFC stamping 1 000 ms, and no
/// monitor attached (a crashed hop waits out its full lease).
fn parity_rig(advanced: bool) -> Rig {
    let mut def = fig9_definition(advanced);
    def.activities.iter_mut().filter(|a| a.id.starts_with('B')).for_each(|a| a.requests.clear());
    Rig::fig9_as("parity", def).tfc_clock(Arc::new(|| 1_000)).unmonitored()
}

/// The six golden cells, in file order.
const CELLS: [(&str, bool, Scenario); 6] = [
    ("fig9a lossless", false, Scenario::Lossless),
    ("fig9b lossless", true, Scenario::Lossless),
    ("fig9a hostile", false, Scenario::HostileFaults),
    ("fig9b hostile", true, Scenario::HostileFaults),
    ("fig9a crash", false, Scenario::SeededCrash),
    ("fig9b crash", true, Scenario::SeededCrash),
];

/// Drive one fresh deployment end to end through the scenario and render
/// what the golden pins under the `## label` header: the pool snapshot
/// hash, the layout-independent pool digest, the reported step count and
/// the `run.*` / `portal.*` counters, one `key = value` line each.
fn run_cell(label: &str, advanced: bool, scenario: Scenario) -> String {
    let plan = match scenario {
        // one AEA dies mid-sign on the 3rd trigger; the supervisor takes
        // the hop over after the lease
        Scenario::SeededCrash => FaultPlan::once(site::AEA_BEFORE_SIGN, 3),
        _ => FaultPlan::none(),
    };
    let rig = parity_rig(advanced).with_faults(&plan);
    let sys = rig.cloud(3);
    let hostile = rig.channel(FaultProfile::hostile(), 42);
    let channel = if scenario == Scenario::HostileFaults { &hostile } else { sys.channel() };
    let initial = rig.initial("parity-run");
    let out = rig.run(&sys, &initial).network(channel).run().expect("the run completes");
    assert_eq!(out.steps, 9, "{label}: fig9 takes its loop exactly once");

    let counters = rig.metrics.snapshot().counters;
    assert!(counters["portal.notifications"] > 0, "{label}: notifications were actually published");
    let digest = dra4wfms::crypto::sha256(&sys.snapshot_pool());
    let mut cell = format!("{label}\n");
    writeln!(cell, "pool_snapshot_sha256 = {}", dra4wfms::crypto::hex::encode(&digest)).unwrap();
    writeln!(cell, "pool_digest = {}", sys.pool_digest()).unwrap();
    writeln!(cell, "steps = {}", out.steps).unwrap();
    for (key, value) in &counters {
        if key.starts_with("run.") || key.starts_with("portal.") {
            writeln!(cell, "{key} = {value}").unwrap();
        }
    }
    cell
}

/// The golden file, read once per test process — or, under
/// `REGEN_GOLDEN`, rewritten once from all six cells before any test
/// compares against it.
fn golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/scheduler_parity.txt");
        if std::env::var_os("REGEN_GOLDEN").is_some() {
            let rendered: String =
                CELLS.iter().map(|(l, a, s)| format!("## {}", run_cell(l, *a, *s))).collect();
            std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
            return rendered;
        }
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {path:?} (REGEN_GOLDEN=1 to create): {e}"))
    })
}

fn assert_parity(label: &str) {
    let (_, advanced, scenario) = *CELLS.iter().find(|c| c.0 == label).expect("a golden cell");
    let pinned = golden()
        .split("## ")
        .find(|section| section.strip_prefix(label).is_some_and(|rest| rest.starts_with('\n')))
        .unwrap_or_else(|| panic!("no '{label}' section in the golden (REGEN_GOLDEN=1)"));
    assert_eq!(
        run_cell(label, advanced, scenario),
        pinned,
        "{label}: pool bytes, run.*/portal.* counters or step count diverged from the golden \
         recorded from the original driver loop; regenerate with REGEN_GOLDEN=1 only after an \
         intentional change"
    );
}

#[test]
fn fig9a_lossless_parity() {
    assert_parity("fig9a lossless");
}

#[test]
fn fig9b_lossless_parity() {
    assert_parity("fig9b lossless");
}

#[test]
fn fig9a_hostile_faults_parity() {
    assert_parity("fig9a hostile");
}

#[test]
fn fig9b_hostile_faults_parity() {
    assert_parity("fig9b hostile");
}

#[test]
fn fig9a_seeded_crash_parity() {
    assert_parity("fig9a crash");
}

#[test]
fn fig9b_seeded_crash_parity() {
    assert_parity("fig9b crash");
}

/// A three-instance fleet driven concurrently by one scheduler stores, for
/// every instance, exactly the document bytes that driving the instances
/// one by one with [`InstanceRun::run`] stores — interleaving reorders
/// pool *cell timestamps* (a global monotonic counter), never document
/// content. And the concurrent fleet itself is byte-deterministic: two
/// identical fleets produce identical pool snapshots, timestamps included.
#[test]
fn small_fleet_matches_sequential_runs() {
    let run_fleet = |concurrent: bool| -> (String, Vec<String>) {
        let rig = parity_rig(false);
        let sys = rig.cloud(4);
        let pids = (0..3).map(|i| format!("fleet-{i}"));
        if concurrent {
            assert_eq!(rig.fleet(&sys, pids, sys.channel()), 3);
        } else {
            for pid in pids {
                let initial = rig.initial(&pid);
                assert_eq!(rig.run(&sys, &initial).run().unwrap().steps, 9);
            }
        }
        let pool_hash =
            dra4wfms::crypto::hex::encode(&dra4wfms::crypto::sha256(&sys.snapshot_pool()));
        let mut docs: Vec<String> = Vec::new();
        for i in 0..3 {
            let pid = format!("fleet-{i}");
            for seq in 0.. {
                match sys.retrieve_version(&pid, seq) {
                    Some(xml) => docs.push(xml),
                    None => break,
                }
            }
        }
        (pool_hash, docs)
    };
    let (concurrent_hash, concurrent_docs) = run_fleet(true);
    let (_, sequential_docs) = run_fleet(false);
    assert_eq!(concurrent_docs.len(), 30, "initial + 9 versions per instance");
    assert_eq!(concurrent_docs, sequential_docs, "fleet interleaving changed document bytes");
    let (concurrent_hash_again, _) = run_fleet(true);
    assert_eq!(concurrent_hash, concurrent_hash_again, "concurrent fleet must be deterministic");
}
