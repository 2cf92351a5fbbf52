//! A `doc/` row holds what its hop appended, not the document — and every
//! stored version still reads back as, byte for byte, the wire that was
//! admitted as it.
//!
//! The property, over definitions from the differential fuzzer's generator
//! (sequences, AND-splits, choices, OR-joins, multi-instance, cancellation)
//! plus a loop (Fig. 9) and a designer's amendment, each under the basic
//! model and under the TFC: after the run, for every `k`,
//! `retrieve_version(pid, k)` is the wire admitted as `k` —
//!
//! * on the cloud that committed it, where each delta was cut against the
//!   in-memory tip;
//! * on every replica, and after a snapshot and a cold restore (each member
//!   cloud's pool is restored into a deployment of its own and read there);
//! * after a portal died between the `seen/` row and the document row, and
//!   after a replica died between journal append and commit, once
//!   `recover_portals` replayed the journals;
//! * after a failover, where the new active cloud has no tip and cuts its
//!   first delta of every running process against the fold of its own rows.
//!
//! The oracle does not go through the layout under test: the `seen/` row of
//! an admission is keyed by the SHA-256 of the *whole* wire as it arrived,
//! so a version that reads back under a digest whose `seen/` row names its
//! own `seq` is the admitted wire.

use dra4wfms::cloud::federation::{flip_tail, forge_stored_row};
use dra4wfms::cloud::{
    check_metric_invariants, AuditConfig, Base, CloudSystem, FaultPlan, FaultProfile, PoolAuditor,
    Topology, Trigger,
};
use dra4wfms::core::faultpoint::site;
use dra4wfms::docpool::{HTable, Scan};
use dra4wfms::prelude::*;
use dra_bench::fuzz;
use dra_bench::rig::{cast, fig9_definition, Handoff, Responses, Rig};
use proptest::prelude::*;
use std::sync::Arc;

const PID: &str = "stored-0";

/// The amendment of `subject(1, _)`: `s2` no longer ends the process, a
/// third activity `extra` follows it.
fn extension() -> DefinitionDelta {
    let extra = Activity {
        id: "extra".into(),
        participant: "p2".into(),
        join: JoinKind::Any,
        requests: vec![FieldRef::new("s1", "x")],
        responses: vec!["z".into()],
    };
    let to = |to| Transition { from: "s2".into(), to, condition: None };
    DefinitionDelta {
        add_activities: vec![extra],
        add_transitions: vec![
            to(Target::Activity("extra".into())),
            Transition { from: "extra".into(), to: Target::End, condition: None },
        ],
        retire_transitions: vec![("s2".into(), Target::End)],
        add_policy_rules: vec![],
    }
}

/// What is run — a rig for the definition and the script that answers it,
/// played by the fuzzer's cast (a designer, `p0..p3` and a TFC) — and the
/// initial document.
fn subject(pick: u64, tfc: bool) -> (Rig, DraDocument) {
    type Script = Box<dyn Fn(&ReceivedActivity) -> Responses + Send + Sync>;
    let (mut def, delta, respond): (_, _, Script) = match pick % 6 {
        // Fig. 9: an AND-split, its join, and a loop taken once
        0 => {
            let mut def = fig9_definition(false);
            for (activity, participant) in
                def.activities.iter_mut().zip(["p0", "p1", "p2", "p3", "p0"])
            {
                activity.participant = participant.into();
            }
            let respond = |r: &ReceivedActivity| {
                let again = if r.iter == 0 { "insufficient" } else { "accept — früh genug" };
                let (field, value) = match r.activity.as_str() {
                    "A" => ("attachment", "contract.pdf"),
                    "B1" => ("review1", "ok"),
                    "B2" => ("review2", "ok"),
                    "C" => ("decision", again),
                    _ => ("ack", "done"),
                };
                vec![(field.to_string(), value.to_string())]
            };
            (def, None, Box::new(respond))
        }
        // a designer's amendment, folded in before anything executes
        1 => {
            let def = WorkflowDefinition::builder("amendable", "designer")
                .simple_activity("s1", "p0", &["x"])
                .simple_activity("s2", "p1", &["y"])
                .flow("s1", "s2")
                .flow_end("s2")
                .build()
                .unwrap();
            let respond = |r: &ReceivedActivity| {
                let field = match r.activity.as_str() {
                    "s1" => "x",
                    "s2" => "y",
                    _ => "z",
                };
                vec![(field.to_string(), "1".to_string())]
            };
            (def, Some(extension()), Box::new(respond))
        }
        _ => {
            let generated = fuzz::generate(pick);
            let script = generated.script;
            let respond =
                move |r: &ReceivedActivity| script.get(&r.activity).cloned().unwrap_or_default();
            (generated.def, None, Box::new(respond))
        }
    };
    if tfc {
        def.tfc = Some("TFC".into());
    }
    let rig = Rig::new(cast("fuzz", &fuzz::CAST), def, SecurityPolicy::public(), respond);
    let mut initial = rig.initial(PID);
    if let Some(delta) = delta {
        initial = amend_document(&initial, &rig.creds[0], &delta).unwrap();
    }
    (rig, initial)
}

/// Where the instance runs and what goes wrong there.
#[derive(Clone, Copy, Debug)]
enum Deployment {
    Lone,
    /// A portal dies between the `seen/` row and the document row.
    TornStore,
    Federated,
    /// A replica dies between journal append and commit.
    TornReplica,
    /// The active cloud goes dark mid-run.
    Failover,
}

const DEPLOYMENTS: [Deployment; 5] = [
    Deployment::Lone,
    Deployment::TornStore,
    Deployment::Federated,
    Deployment::TornReplica,
    Deployment::Failover,
];

/// Every version of `PID` that `sys` serves reads back under a digest whose
/// `seen/` row names that version, and there is one per `doc/` row. Returns
/// how many there are.
fn assert_versions_read_back(sys: &CloudSystem, whose: &str) -> usize {
    let rows = sys.active_pool().query(&Scan::prefix(&format!("doc/{PID}/"))).rows.len();
    for seq in 0..rows {
        let version = sys
            .retrieve_version(PID, seq)
            .unwrap_or_else(|| panic!("{whose}: version {seq} of {rows} does not read back"));
        assert_eq!(sys.stored_seq_for(&version), Some(seq), "{whose}: version {seq}");
    }
    assert_eq!(sys.retrieve_version(PID, rows), None, "{whose}: no version past the last row");
    // (a cloud that died before the first admission holds none)
    let latest = rows.checked_sub(1).and_then(|last| sys.retrieve_version(PID, last));
    assert_eq!(sys.retrieve_latest(0, PID), latest, "{whose}");
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_stored_version_reads_back_as_the_wire_admitted(
        pick in 0u64..6_000,
        tfc in any::<bool>(),
        deployment in 0usize..DEPLOYMENTS.len(),
        nth in 1u64..5,
    ) {
        let deployment = DEPLOYMENTS[deployment];
        let plan = match deployment {
            Deployment::TornStore => FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, nth),
            Deployment::TornReplica => FaultPlan::once(site::PORTAL_REPLICA_BEFORE_COMMIT, nth),
            // a hop or two in (a hop is ~205 virtual µs on this network)
            Deployment::Failover => FaultPlan::of([(site::cloud("east"), Trigger::From(100 * nth))]),
            _ => FaultPlan::none(),
        };
        let (rig, initial) = subject(pick, tfc);
        let rig = rig.with_faults(&plan);
        let sys = match deployment {
            Deployment::Lone | Deployment::TornStore => rig.cloud(3),
            _ => rig.federated(Topology::new().cloud("east", 2).cloud("west", 2)).0,
        };
        let out = rig
            .run(&sys, &initial)
            .run()
            .unwrap_or_else(|e| panic!("{deployment:?}, pick {pick}: {e}"));
        // whatever died did die, and was restarted by the run
        let torn = matches!(deployment, Deployment::TornStore | Deployment::TornReplica);
        prop_assert_eq!(plan.fired(), u64::from(torn));
        prop_assert_eq!(sys.journal_replays(), u64::from(torn));
        prop_assert_eq!(sys.recover_portals(), 0, "nothing is left to replay");

        let versions = assert_versions_read_back(&sys, "the active cloud");
        prop_assert!(versions > out.steps, "the initial document and one version per hop");
        prop_assert_eq!(sys.retrieve_latest(0, PID), Some(out.document.wire().to_string()));
        if let Deployment::Failover = deployment {
            let stats = sys.federation_controller().unwrap().stats();
            prop_assert_eq!((stats.outages, stats.active_cloud), (1, 1), "west took over");
        } else {
            prop_assert!(sys.replicas_consistent());
        }

        // every member cloud's pool, snapshotted and restored cold: the
        // replicas, and the dead cloud's rows up to where it died
        for (name, _, pool) in sys.audit_pools() {
            let snapshot = pool.export_snapshot();
            let restored =
                CloudSystem::restore(rig.dir.clone(), 2, Arc::clone(&rig.network), &snapshot)
                    .unwrap();
            let restored_versions = assert_versions_read_back(&restored, &name);
            let died = matches!(deployment, Deployment::Failover) && name == "east";
            prop_assert!(restored_versions == versions || died, "{}", name);
        }
    }
}

// -- the same bytes, the same books ------------------------------------------

/// `assert_versions_read_back`, and on top of it: every version above the
/// first is a delta — it keeps bytes of the version below it, at the least
/// the header and the definition every version of a process starts with —
/// whether it was cut against the tip in memory or against the pool's rows
/// after a replay or a failover. Returns what the deployment counted:
/// versions, documents stored, duplicates suppressed.
fn books(sys: &CloudSystem, cell: &str) -> [usize; 3] {
    let versions = assert_versions_read_back(sys, cell);
    for seq in 1..versions {
        let row = sys.active_pool().get_str(&key(PID, seq), "doc", "xml").expect("a doc/ row");
        let header = row.split_once('\n').expect("a header line, LF, the literal").0;
        let keep: usize = header.split(' ').next().unwrap().parse().expect("keep");
        assert!(keep > 0, "{cell}: version {seq} is a full copy");
    }
    [versions, sys.total_stored(), sys.total_duplicates_suppressed()]
}

/// The digest a version is admitted under may be resumed from the store's
/// tip, and the wire it is taken over may be assembled from per-node memos;
/// neither shows. Six deployments where either could: an AND-split, its join
/// and a loop (siblings break the prefix), the TFC rewriting the newest CER,
/// a channel that duplicates, corrupts and reorders, a portal dying between
/// the `seen/` row and the document row, a failover to a cloud with no tip,
/// an amendment signed mid-run. In each, every stored version reads back
/// under a digest whose `seen/` row names it, and the counters are the
/// literals the commit before the memo and the checkpoint counted for the
/// same seeds.
#[test]
fn resumed_digests_and_assembled_wires_leave_every_version_and_counter_as_they_were() {
    let fig9 = |advanced: bool, plan: &Arc<FaultPlan>| {
        let rig = Rig::fig9(advanced).with_faults(plan);
        let initial = rig.initial(PID);
        (rig, initial)
    };
    let none = FaultPlan::none();

    let (rig, initial) = fig9(false, &none);
    let sys = rig.cloud(2);
    rig.run(&sys, &initial).run().unwrap();
    assert_eq!(books(&sys, "fig. 9A"), [10, 10, 0]);

    let (rig, initial) = fig9(true, &none);
    let sys = rig.cloud(2);
    rig.run(&sys, &initial).run().unwrap();
    assert_eq!(books(&sys, "fig. 9B via the TFC"), [10, 10, 0]);

    let (rig, initial) = fig9(false, &none);
    let sys = rig.cloud(2);
    let faults =
        FaultProfile { drop: 0.0, duplicate: 0.3, corrupt: 0.3, reorder: 0.3, delay_max_us: 0 };
    let channel = rig.channel(faults, 7);
    let lossy = rig.run(&sys, &initial).network(&channel).run().unwrap().delivery;
    assert_eq!(books(&sys, "lossy channel"), [10, 10, 7]);
    assert_eq!((lossy.duplicates_suppressed, lossy.corruptions_rejected), (7, 7));
    assert!(lossy.faults.reordered > 0 && lossy.late_deliveries > 0, "{lossy:?}");

    let plan = FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 2);
    let (rig, initial) = fig9(false, &plan);
    let sys = rig.cloud(2);
    rig.run(&sys, &initial).run().unwrap();
    assert_eq!((plan.fired(), sys.journal_replays()), (1, 1));
    assert_eq!(books(&sys, "torn store"), [10, 9, 1]);

    let (rig, initial) = fig9(false, &FaultPlan::of([(site::cloud("east"), Trigger::From(700))]));
    let (sys, controller) = rig.federated(Topology::new().cloud("east", 2).cloud("west", 2));
    rig.run(&sys, &initial).run().unwrap();
    assert_eq!((controller.stats().outages, controller.stats().active_cloud), (1, 1));
    assert_eq!(books(&sys, "failover"), [10, 10, 0]);

    // s1 runs, the designer amends what s1 left, s2 and the added activity
    // run under the amendment — by hand: the runner amends nothing mid-run
    let (rig, _) = subject(1, false);
    let sys = rig.cloud(1);
    let deliver = |sealed: &SealedDocument, route: &Route| {
        sys.channel().deliver(&sys, 0, sealed, None, route).unwrap();
    };
    let mut sealed = SealedDocument::new(rig.initial(PID));
    let mut route = Route { targets: vec!["s1".into()], ends: false };
    for (activity, participant, field) in
        [("s1", "p0", "x"), ("s2", "p1", "y"), ("extra", "p2", "z")]
    {
        deliver(&sealed, &route);
        if activity == "s2" {
            let amended = amend_document(sealed.document(), &rig.creds[0], &extension());
            sealed = SealedDocument::new(amended.unwrap());
            deliver(&sealed, &route);
        }
        let aea = rig.agent(participant);
        let received = aea.receive(sealed, activity).unwrap();
        let done = aea.complete(&received, &[(field.into(), "1".into())]).unwrap();
        (sealed, route) = (done.document, done.route);
    }
    assert!(route.is_final());
    deliver(&sealed, &route);
    assert_eq!(books(&sys, "amended mid-run"), [5, 5, 0]);
}

/// A crash between the `seen/` row and the rest of the batch of the first
/// initial document — the one that writes its definition's `def/` row — is
/// replayed to the pool a crash-free run leaves, that row included.
#[test]
fn a_torn_first_initial_document_replays_to_the_crash_free_pool() {
    let run = |rig: Rig| {
        let sys = rig.cloud(2);
        let pids = ["d-0", "d-1"].map(String::from);
        assert_eq!(rig.fleet(&sys, pids.into_iter(), sys.channel()), 2);
        let defs = sys.active_pool().query(&Scan::prefix("def/")).rows.len();
        (sys.pool_digest(), defs, sys.journal_replays())
    };
    let plan = FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 1);
    let (torn, defs, replays) = run(Rig::fig9(false).with_faults(&plan));
    assert_eq!((plan.fired(), replays, defs), (1, 1, 1));
    assert_eq!(torn, run(Rig::fig9(false)).0, "the crash-free pool");
}

// -- a delta without its base ---------------------------------------------------

/// The hand-offs of `rig`'s chain of process [`PID`], walked AEA by AEA: each
/// version with its route and, from the second on, the version it was served
/// as its [`Base`].
fn handoffs(rig: &Rig) -> Vec<(SealedDocument, Route, Option<Base>)> {
    let ids: Vec<String> = rig.def.activities.iter().map(|a| a.id.clone()).collect();
    let route = |k: usize| Route {
        ends: k == ids.len(),
        targets: ids.get(k).cloned().into_iter().collect(),
    };
    let mut out = vec![(SealedDocument::new(rig.initial(PID)), route(0), None)];
    for (k, record) in rig.walk(PID, Handoff::Sealed).enumerate() {
        let name = record.document.trust().expect("a hop carries its mark").prefix_digest;
        let base = Base { name, wire: out[k].0.wire() };
        out.push((record.document, route(k + 1), Some(base)));
    }
    out
}

/// A delta whose base the portal holds no head for is answered with the
/// whole wire: after a cold restart from a snapshot, and after one whose
/// newest row was tampered with, so that the whole copy is cut against a
/// forged row. Either way the pool ends as it does when every version was
/// handed off whole.
#[test]
fn a_delta_without_its_base_falls_back_to_the_whole_wire() {
    let rig = Rig::chain(6, false, |i| format!("value-{i}"));
    let hand = handoffs(&rig);
    // three versions, a restart, the rest: as deltas or whole
    let run = |delta: bool, tamper: bool| {
        let deliver =
            |sys: &CloudSystem, (sealed, route, base): &(SealedDocument, Route, Option<Base>)| {
                sys.channel()
                    .deliver(sys, 0, sealed, base.as_ref().filter(|_| delta), route)
                    .unwrap();
            };
        let sys = rig.cloud(1);
        hand[..3].iter().for_each(|handoff| deliver(&sys, handoff));
        assert_eq!(sys.channel().stats().delta_fallbacks, 0, "the first cloud holds every base");
        if tamper {
            forge_stored_row(sys.active_pool(), &key(PID, 2), flip_tail);
        }
        let network = Arc::clone(&rig.network);
        let restored =
            CloudSystem::restore(rig.dir.clone(), 1, network, &sys.snapshot_pool()).unwrap();
        assert_eq!(restored.tips_held(), 0, "a snapshot holds rows, not heads");
        hand[3..].iter().for_each(|handoff| deliver(&restored, handoff));
        (restored.pool_digest(), restored.channel().stats().delta_fallbacks)
    };
    for tamper in [false, true] {
        let (whole, none) = run(false, tamper);
        let (delta, fallbacks) = run(true, tamper);
        assert_eq!((none, fallbacks), (0, 1), "tamper {tamper}: the first hop after the restart");
        assert_eq!(delta, whole, "tamper {tamper}: the pool a whole-wire run leaves");
    }
}

// -- what the layout costs ---------------------------------------------------

/// Σ bytes of the `doc/` and `def/` rows against the bytes of the final
/// version. With full-copy rows an n-version instance stored about n/2 times
/// its final document (asserted below, as what the versions sum to); a row
/// now holds what its hop added, so the whole history of a chain costs its
/// last version, the closing tags once per row and the header of each row's
/// cell: ≤ 1.1 × (measured 1.07 ×). Fig. 9A's bound is 1.15 × (measured
/// 1.08 ×): an AND-join copies each branch's CER from the version that holds
/// it instead of storing it again, so its joins cost their own CER and a
/// range per branch. A lone instance pays for its definition's `def/` row in
/// full; a fleet of one definition pays for it once.
#[test]
fn a_stored_history_costs_about_its_final_version() {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(2);
    assert_eq!(fx.fleet(&sys, std::iter::once("size-0".to_string()), sys.channel()), 1);
    let full_copies = |sys: &CloudSystem, pid: &str, versions: usize| -> u64 {
        (0..versions).map(|k| sys.retrieve_version(pid, k).expect("stored").len() as u64).sum()
    };
    let last = sys.retrieve_version("size-0", 9).expect("nine hops, ten versions");
    let (stored, last) = (sys.stored_doc_bytes(), last.len() as u64);
    assert!(stored * 20 <= last * 23, "fig. 9A: {stored} bytes stored for a {last}-byte document");
    assert!(full_copies(&sys, "size-0", 10) > 4 * last, "full copies cost n/2 documents");

    const STEPS: usize = 48;
    let chain = Rig::chain(STEPS, false, |_| "x".repeat(64));
    let sys = chain.cloud(2);
    assert_eq!(chain.fleet(&sys, std::iter::once("size-1".to_string()), sys.channel()), 1);
    let last = sys.retrieve_version("size-1", STEPS).expect("one version per step and the initial");
    let (stored, last) = (sys.stored_doc_bytes(), last.len() as u64);
    assert!(stored * 10 <= last * 11, "chain: {stored} bytes stored for a {last}-byte document");
    assert!(full_copies(&sys, "size-1", STEPS + 1) > 20 * last, "full copies cost n/2 documents");
}

// -- who is charged with a broken chain ----------------------------------------

/// One auditor over `sys`, swept twice in small batches (so attribution
/// crosses batch borders, and the second sweep has the chance to re-alert).
fn sweep_twice(fx: &Rig, sys: &CloudSystem) -> PoolAuditor {
    let auditor = PoolAuditor::new(AuditConfig { batch: 3, period_us: 100, threads: 1 });
    let rows = sys.active_pool().query(&Scan::prefix("doc/")).rows.len();
    for pass in 0..2 * (rows / 3 + 2) {
        auditor.run_pass(sys, Some(&fx.monitor), pass as u64 * 100);
    }
    auditor
}

fn rows_of(pid: &str, seqs: impl IntoIterator<Item = usize>) -> Vec<(String, String)> {
    seqs.into_iter().map(|seq| ("cloud0".to_string(), format!("doc/{pid}/{seq:06}"))).collect()
}

fn key(pid: &str, seq: usize) -> String {
    format!("doc/{pid}/{seq:06}")
}

/// A byte of what the hop appended, flipped: every later version keeps it.
fn flip_kept(pool: &HTable, key: &str) {
    forge_stored_row(pool, key, flip_tail);
}

/// A byte of the closing tags, flipped: the next version writes its own.
fn flip_unkept(pool: &HTable, key: &str) {
    forge_stored_row(pool, key, |keep, tail| {
        let forged = tail.replace("</DRA4WfMS>", "</DRA4WfMs>");
        assert_ne!(forged, tail);
        (keep, forged)
    });
}

/// One alert per broken link. Four ten-version processes, forged four ways:
///
/// * `one` — row 4, a kept byte: row 4 is indicted, rows 5–9 keep the forged
///   byte and are tainted;
/// * `tags` — row 4, a byte of the closing tags: row 4 is indicted, and no
///   row above keeps that byte, so all stay honest;
/// * `pair` — rows 4 and 5, kept bytes: row 4 is indicted; row 5 fails
///   already for what it keeps of row 4, so its own flip is not told apart
///   and it is tainted with rows 6–9;
/// * `gap` — row 3 in its closing tags and row 5 in a kept byte, honest row
///   4 between: both are indicted, each stands on a sound row; rows 6–9 are
///   tainted.
///
/// A second sweep re-alerts nothing, and the books balance with the six
/// forgeries declared: five divergences, never more than were forged.
#[test]
fn a_broken_link_is_indicted_once_and_the_rows_above_it_are_tainted() {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(2);
    let pids = ["one", "tags", "pair", "gap"];
    assert_eq!(fx.fleet(&sys, pids.iter().map(|p| p.to_string()), sys.channel()), 4);
    let pool = sys.active_pool();
    flip_kept(pool, &key("one", 4));
    flip_unkept(pool, &key("tags", 4));
    flip_kept(pool, &key("pair", 4));
    flip_kept(pool, &key("pair", 5));
    flip_unkept(pool, &key("gap", 3));
    flip_kept(pool, &key("gap", 5));

    let auditor = sweep_twice(&fx, &sys);
    let indicted =
        [rows_of("gap", [3, 5]), rows_of("one", [4]), rows_of("pair", [4]), rows_of("tags", [4])];
    assert_eq!(auditor.divergent_rows(), indicted.concat());
    let tainted = [rows_of("gap", 6..=9), rows_of("one", 5..=9), rows_of("pair", 5..=9)];
    assert_eq!(auditor.tainted_rows(), tainted.concat());
    let alerted: Vec<String> = fx.monitor.alerts().iter().map(|a| a.process_id.clone()).collect();
    assert_eq!(alerted.len(), 5, "one alert per indicted row, none per tainted row or sweep");

    fx.metrics.set_counter("audit.tampered_rows", 6);
    sys.export_metrics(&fx.metrics);
    auditor.export_metrics(&fx.metrics);
    fx.monitor.export_metrics(&fx.metrics);
    let snapshot = fx.metrics.snapshot();
    assert_eq!(snapshot.counter("audit.divergences"), 5);
    assert_eq!(snapshot.counter("audit.tainted"), 14);
    check_metric_invariants(&snapshot).expect("divergences ≤ declared forgeries");
}

/// A forged row above a row that is only tainted. Row 3, a branch, is
/// forged, and the join (row 4) copies its CER; row 5 is flipped in its own
/// hop, so it fails for what it keeps of row 4 as well:
///
/// * `body` — row 3's result value: the join's own signature covers only
///   the branch's signature, so it still verifies, and row 5's, which no
///   longer does, is charged to row 5 — two forgeries, two alerts;
/// * `signature` — row 3's signature: the join's own signature fails over
///   it, so whether the join's own bytes were forged too cannot be told,
///   nor whether row 5's signature fails over them or over its own: row 5
///   is tainted with the rows above it. No honest row is indicted either way.
#[test]
fn a_forged_row_above_a_tainted_one_is_indicted_when_the_rows_between_verify() {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(2);
    let pids = ["body", "signature"];
    assert_eq!(fx.fleet(&sys, pids.iter().map(|p| p.to_string()), sys.channel()), 2);
    let pool = sys.active_pool();
    for pid in pids {
        flip_kept(pool, &key(pid, 5));
    }
    forge_stored_row(pool, &key("body", 3), |keep, tail| {
        let forged = tail.replacen("\">ok<", "\">oK<", 1);
        assert_ne!(forged, tail);
        (keep, forged)
    });
    flip_kept(pool, &key("signature", 3));

    let auditor = sweep_twice(&fx, &sys);
    let indicted = [rows_of("body", [3, 5]), rows_of("signature", [3])];
    assert_eq!(auditor.divergent_rows(), indicted.concat());
    let tainted = [rows_of("body", [4, 6, 7, 8, 9]), rows_of("signature", 4..=9)];
    assert_eq!(auditor.tainted_rows(), tainted.concat());
    assert_eq!(fx.monitor.alerts().len(), 3, "one alert per indicted row");
}

/// The auditor holds a failing row's newest CER to the verifier's rule —
/// the expected signer and the pinned `covers` label. Row 2, a branch, is
/// flipped in a kept byte, so rows 4–9 fail for what they keep of it, and
/// row 7, a branch of the loop's second turn, is rewritten in its own CER:
///
/// * `label` (basic model) — its participant signature's `covers` label is
///   the other branch's, the signature itself untouched;
/// * `attest` (advanced model) — its TFC attestation is signed again, over
///   the same bytes under the same label, with a participant's key.
///
/// Either is row 7's own divergence, so it is indicted with row 2; the
/// join above it, whose signature covers row 7's, cannot be told apart and
/// is tainted with the rest. A check that let row 7 pass would indict the
/// honest join instead.
#[test]
fn a_newest_cer_is_held_to_the_verifiers_signer_and_label() {
    use dra4wfms::xml::{canon::canonicalize_all, sign_detached, writer::to_string};
    for (pid, advanced) in [("label", false), ("attest", true)] {
        let fx = Rig::fig9(advanced);
        let sys = fx.cloud(2);
        assert_eq!(fx.fleet(&sys, [pid.to_string()].into_iter(), sys.channel()), 1);
        let row = DraDocument::parse(&sys.retrieve_version(pid, 7).unwrap()).unwrap();
        let cers = row.cers().unwrap();
        let newest = cers.last().unwrap();
        let (genuine, forged) = if advanced {
            // what the attestation covers: [Header, TfcSealed, participant
            // signature, Result, Timestamp]
            let psig = newest.participant_signature().ok();
            let header = row.header().ok();
            let parts = [header, newest.tfc_sealed(), psig, newest.result(), newest.timestamp()];
            let tfc = newest.tfc_signature().unwrap();
            let p_d = fx.creds.iter().find(|c| c.name == "p_d").unwrap();
            let covers = tfc.get_attr("covers").unwrap();
            let resigned =
                sign_detached(&p_d.sign, &canonicalize_all(parts.map(Option::unwrap)), covers);
            (to_string(tfc), to_string(&resigned))
        } else {
            // the other branch's: as long, so the join's copy of this CER
            // still applies
            let sibling = if newest.key.activity == "B1" { "B2" } else { "B1" };
            let sibling = CerKey::new(sibling, newest.key.iter);
            (format!("covers=\"{}\"", newest.key), format!("covers=\"{sibling}\""))
        };
        let pool = sys.active_pool();
        flip_kept(pool, &key(pid, 2));
        forge_stored_row(pool, &key(pid, 7), |keep, tail| {
            let forged = tail.replacen(&genuine, &forged, 1);
            assert_ne!(forged, tail);
            (keep, forged)
        });

        let auditor = sweep_twice(&fx, &sys);
        assert_eq!(auditor.divergent_rows(), rows_of(pid, [2, 7]), "{pid}");
        assert_eq!(auditor.tainted_rows(), rows_of(pid, [4, 5, 6, 8, 9]), "{pid}");
    }
}

/// Rolling a stored version back. `doc/p/k` is rewritten to reproduce
/// version k−1, every byte of it validly signed, with the `seen/` row of
/// those bytes …
///
/// * `kept` — left alone: it names k−1, so row k is bound elsewhere and
///   indicted, and the rows above it are tainted;
/// * `moved` — repointed to k: row k now passes, but row k−1 is bound
///   elsewhere and indicted — and so is row k+1, cut against the real
///   version k and landing past the end of the shorter k−1;
/// * `gone` — removed: rows k−1 and k both pass on their signatures as
///   genuine bytes nobody admitted, and it is row k+1 alone that no longer
///   applies and is indicted.
///
/// What the chain added is the row above. What it cannot add is a row above
/// the last one: `tip`, the final version of a finished process rolled back
/// with its `seen/` row removed, passes every check of its own cloud — the
/// process reads as one step short. The peer clouds' replicas are the
/// evidence against that.
#[test]
fn a_rollback_is_caught_by_the_row_above_it() {
    let fx = Rig::fig9(false);
    let sys = fx.cloud(2);
    let pids = ["kept", "moved", "gone", "tip"];
    assert_eq!(fx.fleet(&sys, pids.iter().map(|p| p.to_string()), sys.channel()), 4);
    let pool = sys.active_pool();
    let seen_row = |bytes: &str| {
        let digest = dra4wfms::crypto::sha256(bytes.as_bytes());
        format!("seen/{}", dra4wfms::crypto::hex::encode(&digest))
    };
    let roll_back = |pid: &str, k: usize| {
        let below = sys.retrieve_version(pid, k - 1).unwrap();
        forge_stored_row(pool, &key(pid, k), |_, _| (below.len(), String::new()));
        assert_eq!(
            sys.retrieve_version(pid, k).as_ref(),
            Some(&below),
            "row {k} reads as {}",
            k - 1
        );
        seen_row(&below)
    };
    roll_back("kept", 5);
    pool.put(&roll_back("moved", 5), "meta", "seq", "5");
    assert!(pool.delete_row(&roll_back("gone", 5)));
    assert!(pool.delete_row(&roll_back("tip", 9)));

    let auditor = sweep_twice(&fx, &sys);
    let indicted = [rows_of("gone", [6]), rows_of("kept", [5]), rows_of("moved", [4, 6])];
    assert_eq!(auditor.divergent_rows(), indicted.concat());
    let tainted = [rows_of("gone", 7..=9), rows_of("kept", 6..=9), rows_of("moved", 7..=9)];
    assert_eq!(auditor.tainted_rows(), tainted.concat());
    // the rolled-back tip: nothing on this cloud contradicts it
    let status = sys.process_status("tip").unwrap().unwrap();
    assert_eq!(status.steps(), 8, "one step short, and honest as far as this cloud can tell");
    assert!(sys.process_status("kept").is_err() && sys.process_status("gone").is_err());
}
