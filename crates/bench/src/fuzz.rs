//! Differential fuzzing harness over the workflow-pattern catalogue.
//!
//! A seeded generator composes random definitions from the full pattern
//! set — sequences, AND-splits with synchronizing joins, exclusive choices,
//! OR-joins (synchronizing merges), multi-instance activities with static
//! and runtime cardinality, and cancellation regions. Every generated
//! definition is:
//!
//! 1. proven sound by [`dra4wfms_core::soundness::check_soundness`] (the
//!    generator only composes well-structured blocks, so this doubles as a
//!    regression test of the analysis itself — a false rejection here is a
//!    soundness bug);
//! 2. executed through **both operational models** (basic AEA cascade and
//!    advanced TFC finalization) under an honest channel, a hostile
//!    [`FaultProfile`] and a seeded [`FaultPlan`], via the event-driven
//!    [`Scheduler`] (`InstanceRun::run`);
//! 3. differential-checked: every run's final document verifies and
//!    reconciles against its span trace, each honest run is a firing
//!    sequence of the definition's net ([`conforms`]), fault and crash
//!    runs converge to the byte-identical document and pool digest of the
//!    honest run, and the cross-layer metric invariants hold in every cell;
//! 4. attacked: seeded forgeries (signature bit-flips, phantom CERs,
//!    reordered/forged/fabricated trace events) must every one be caught;
//! 5. poisoned: an unsound twin of the definition (a synchronizing join
//!    downgraded to an AND-join over exclusive branches) must be rejected
//!    at admission with [`WfError::Unsound`].
//!
//! Everything is virtual-time and seed-deterministic: the same seed always
//! produces the same definition, the same runs and the same report bytes.

use crate::rig::{cast, Rig};
use dra4wfms_core::faultpoint::site;
use dra4wfms_core::prelude::*;
use dra4wfms_core::semantics::{cancelled, route, Net};
use dra4wfms_core::soundness::{check_soundness, SoundnessError};
use dra_cloud::delivery::SeededStream;
use dra_cloud::{
    check_metric_invariants, AuditConfig, FaultPlan, FaultProfile, PoolAuditor, Scheduler,
};
use dra_obs::TraceEvent;
use std::collections::BTreeMap;

/// The cast shared by every generated workflow: a designer, the
/// participants the generator round-robins activities over, and a TFC.
pub const CAST: [&str; 6] = ["designer", "p0", "p1", "p2", "p3", "TFC"];

/// A generated workflow plus the deterministic script that drives it.
pub struct GeneratedWorkflow {
    /// Generator seed (also drives the fault/crash schedules downstream).
    pub seed: u64,
    /// The definition, basic model (no TFC).
    pub def: WorkflowDefinition,
    /// `activity → response fields` — same responses on every iteration.
    pub script: BTreeMap<String, Vec<(String, String)>>,
}

impl GeneratedWorkflow {
    /// A hand-written definition over the fuzzer's cast with its script,
    /// `activity → [(field, value)]`: what the pattern tests run.
    pub fn scripted(def: WorkflowDefinition, script: &[(&str, &[(&str, &str)])]) -> Self {
        let owned = |(field, value): &(&str, &str)| (field.to_string(), value.to_string());
        let script =
            script.iter().map(|(a, rs)| (a.to_string(), rs.iter().map(owned).collect())).collect();
        GeneratedWorkflow { seed: 0, def, script }
    }
}

/// The script as the run read it: every iteration of an activity answers
/// the same values.
impl FieldReader for GeneratedWorkflow {
    fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
        let answers = self.script.get(activity).into_iter().flatten();
        Ok(answers.filter(|(f, _)| f == field).map(|(_, v)| v.clone()).next())
    }
}

/// The conformance oracle: replay the successful hops of a run of `gw`, in
/// trace order, through the definition's [`Net`], reading guards from the
/// script. Each hop's activity must be enabled when it runs (a
/// multi-instance activity's hops are one firing), and the replay must end
/// at the empty marking.
pub fn conforms(gw: &GeneratedWorkflow, events: &[TraceEvent]) -> Result<(), String> {
    let net = Net::build(&gw.def);
    let mut marking = net.initial();
    for hop in ok_hop_indices(events).into_iter().map(|i| &events[i]) {
        let (act, key) = (&hop.activity, format!("{}#{}", hop.activity, hop.iter));
        if !net.enabled(&marking, act) {
            return Err(format!("{key} ran while the net had it disabled"));
        }
        let step = route(&gw.def, act, Some(hop.iter), gw)
            .and_then(|r| Ok((r, cancelled(&gw.def, act, gw)?)))
            .map_err(|e| format!("{key}: {e}"))?;
        marking = net.fire(&marking, act, &step.0, &step.1).map_err(|e| format!("{key}: {e}"))?;
    }
    match net.waiting(&marking) {
        waiting if waiting.is_empty() => Ok(()),
        waiting => Err(format!("the replay ends with work waiting at {waiting:?}")),
    }
}

fn aid(n: &mut usize) -> String {
    let id = format!("S{:02}", *n);
    *n += 1;
    id
}

fn participant(id: &str) -> String {
    // stable assignment from the activity number, independent of segment mix
    let n: usize = id[1..].parse().unwrap_or(0);
    CAST[1 + n % (CAST.len() - 2)].to_string()
}

/// Generate one pattern-rich workflow from `seed`. The composition is
/// well-structured (each segment has one entry and one exit), so every
/// generated definition is sound by construction.
pub fn generate(seed: u64) -> GeneratedWorkflow {
    let mut rng = SeededStream::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut n = 0usize;
    let mut script: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut b = WorkflowDefinition::builder(format!("fuzz-{seed:04}"), "designer");

    // start activity
    let start = aid(&mut n);
    b = b.simple_activity(&start, participant(&start), &["f"]);
    script.insert(start.clone(), vec![("f".into(), format!("v{}", seed % 89))]);
    let mut exit = start;

    let segments = 2 + rng.below(3); // 2..=4
    for _ in 0..segments {
        let kind = rng.below(10);
        match kind {
            // plain sequence step
            0..=2 => {
                let x = aid(&mut n);
                b = b.simple_activity(&x, participant(&x), &["f"]);
                script.insert(x.clone(), vec![("f".into(), format!("s{}", rng.below(97)))]);
                b = b.flow(&exit, &x);
                exit = x;
            }
            // AND-split into 2–3 branches, synchronized by an AND-join
            3..=4 => {
                let fork = aid(&mut n);
                b = b.simple_activity(&fork, participant(&fork), &["f"]);
                script.insert(fork.clone(), vec![("f".into(), "fork".into())]);
                b = b.flow(&exit, &fork);
                let branches = 2 + rng.below(2);
                let mut ids = Vec::new();
                for _ in 0..branches {
                    let br = aid(&mut n);
                    b = b.simple_activity(&br, participant(&br), &["f"]);
                    script.insert(br.clone(), vec![("f".into(), "br".into())]);
                    b = b.flow(&fork, &br);
                    ids.push(br);
                }
                let join = aid(&mut n);
                b = b.activity(Activity {
                    id: join.clone(),
                    participant: participant(&join),
                    join: JoinKind::All,
                    requests: vec![],
                    responses: vec!["f".into()],
                });
                script.insert(join.clone(), vec![("f".into(), "joined".into())]);
                for br in &ids {
                    b = b.flow(br, &join);
                }
                exit = join;
            }
            // exclusive choice steered by a response field, merged by Any
            5..=6 => {
                let fork = aid(&mut n);
                b = b.simple_activity(&fork, participant(&fork), &["f", "pick"]);
                let pick = if rng.coin() { "left" } else { "right" };
                script.insert(
                    fork.clone(),
                    vec![("f".into(), "fork".into()), ("pick".into(), pick.into())],
                );
                b = b.flow(&exit, &fork);
                let l = aid(&mut n);
                let r = aid(&mut n);
                b = b.simple_activity(&l, participant(&l), &["f"]);
                b = b.simple_activity(&r, participant(&r), &["f"]);
                script.insert(l.clone(), vec![("f".into(), "L".into())]);
                script.insert(r.clone(), vec![("f".into(), "R".into())]);
                b = b.flow_if(&fork, &l, Condition::field_equals(&fork, "pick", "left"));
                b = b.flow_if(&fork, &r, Condition::field_not_equals(&fork, "pick", "left"));
                let join = aid(&mut n);
                b = b.activity(Activity {
                    id: join.clone(),
                    participant: participant(&join),
                    join: JoinKind::Any,
                    requests: vec![],
                    responses: vec!["f".into()],
                });
                script.insert(join.clone(), vec![("f".into(), "merged".into())]);
                b = b.flow(&l, &join).flow(&r, &join);
                exit = join;
            }
            // parallel (or partially conditional) branches into an OR-join
            7 => {
                let fork = aid(&mut n);
                let conditional = rng.coin();
                if conditional {
                    b = b.simple_activity(&fork, participant(&fork), &["f", "go"]);
                    let go = if rng.coin() { "yes" } else { "no" };
                    script.insert(
                        fork.clone(),
                        vec![("f".into(), "fork".into()), ("go".into(), go.into())],
                    );
                } else {
                    b = b.simple_activity(&fork, participant(&fork), &["f"]);
                    script.insert(fork.clone(), vec![("f".into(), "fork".into())]);
                }
                b = b.flow(&exit, &fork);
                // asymmetric branches: the short one announces the join
                // while the long one still has a queued activation, so the
                // OR-join genuinely parks and is resumed by the late branch
                let l = aid(&mut n);
                let r1 = aid(&mut n);
                let r2 = aid(&mut n);
                b = b.simple_activity(&l, participant(&l), &["f"]);
                b = b.simple_activity(&r1, participant(&r1), &["f"]);
                b = b.simple_activity(&r2, participant(&r2), &["f"]);
                script.insert(l.clone(), vec![("f".into(), "L".into())]);
                script.insert(r1.clone(), vec![("f".into(), "R1".into())]);
                script.insert(r2.clone(), vec![("f".into(), "R2".into())]);
                b = b.flow(&fork, &l);
                if conditional {
                    b = b.flow_if(&fork, &r1, Condition::field_equals(&fork, "go", "yes"));
                } else {
                    b = b.flow(&fork, &r1);
                }
                b = b.flow(&r1, &r2);
                let join = aid(&mut n);
                b = b.activity(Activity {
                    id: join.clone(),
                    participant: participant(&join),
                    join: JoinKind::Or,
                    requests: vec![],
                    responses: vec!["f".into()],
                });
                script.insert(join.clone(), vec![("f".into(), "or-merged".into())]);
                b = b.flow(&l, &join).flow(&r2, &join);
                exit = join;
            }
            // multi-instance activity, static or runtime cardinality
            8 => {
                if rng.coin() {
                    let m = aid(&mut n);
                    let k = 2 + rng.below(2) as u32; // 2..=3
                    b = b.simple_activity(&m, participant(&m), &["f"]);
                    script.insert(m.clone(), vec![("f".into(), "mi".into())]);
                    b = b.flow(&exit, &m).multi_static(&m, k);
                    exit = m;
                } else {
                    let p = aid(&mut n);
                    let m = aid(&mut n);
                    let k = 1 + rng.below(3) as u32; // 1..=3
                    b = b.simple_activity(&p, participant(&p), &["f", "n"]);
                    script.insert(
                        p.clone(),
                        vec![("f".into(), "prod".into()), ("n".into(), k.to_string())],
                    );
                    b = b.simple_activity(&m, participant(&m), &["f"]);
                    script.insert(m.clone(), vec![("f".into(), "mi".into())]);
                    b = b.flow(&exit, &p).flow(&p, &m).multi_runtime(&m, &p, "n");
                    exit = m;
                }
            }
            // cancellation region: trigger withdraws a sibling branch
            _ => {
                let fork = aid(&mut n);
                b = b.simple_activity(&fork, participant(&fork), &["f"]);
                script.insert(fork.clone(), vec![("f".into(), "fork".into())]);
                b = b.flow(&exit, &fork);
                let trig = aid(&mut n);
                let victim = aid(&mut n);
                let conditional = rng.coin();
                if conditional {
                    b = b.simple_activity(&trig, participant(&trig), &["f", "cond"]);
                    let cond = if rng.coin() { "yes" } else { "no" };
                    script.insert(
                        trig.clone(),
                        vec![("f".into(), "trig".into()), ("cond".into(), cond.into())],
                    );
                } else {
                    b = b.simple_activity(&trig, participant(&trig), &["f"]);
                    script.insert(trig.clone(), vec![("f".into(), "trig".into())]);
                }
                b = b.simple_activity(&victim, participant(&victim), &["f"]);
                script.insert(victim.clone(), vec![("f".into(), "victim".into())]);
                // flow order decides which branch is announced (and thus
                // dispatched) first — cover both races
                if rng.coin() {
                    b = b.flow(&fork, &trig).flow(&fork, &victim);
                } else {
                    b = b.flow(&fork, &victim).flow(&fork, &trig);
                }
                let join = aid(&mut n);
                b = b.activity(Activity {
                    id: join.clone(),
                    participant: participant(&join),
                    join: JoinKind::Or,
                    requests: vec![],
                    responses: vec!["f".into()],
                });
                script.insert(join.clone(), vec![("f".into(), "after-cancel".into())]);
                b = b.flow(&trig, &join).flow(&victim, &join);
                if conditional {
                    b = b.cancel_on_if(
                        &trig,
                        Condition::field_equals(&trig, "cond", "yes"),
                        &[&victim],
                    );
                } else {
                    b = b.cancel_on(&trig, &[&victim]);
                }
                exit = join;
            }
        }
    }

    let def = b.flow_end(&exit).build().expect("generated definition is structurally valid");
    GeneratedWorkflow { seed, def, script }
}

/// Downgrade a synchronizing/exclusive join of `def` to an AND-join over
/// branches that cannot all deliver — a *known-deadlocking* twin. Returns
/// `None` when the definition has no conditional join to poison.
pub fn poison(def: &WorkflowDefinition) -> Option<WorkflowDefinition> {
    let mut twin = def.clone();
    let target = twin
        .activities
        .iter()
        .find(|a| {
            a.join != JoinKind::All
                && twin.incoming(&a.id).len() >= 2
                && twin
                    .transitions
                    .iter()
                    .any(|t| t.condition.is_some() && t.to == Target::Activity(a.id.clone()))
        })?
        .id
        .clone();
    twin.activities.iter_mut().find(|a| a.id == target)?.join = JoinKind::All;
    Some(twin)
}

/// One execution channel of the differential matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Lossless channel, no crashes.
    Honest,
    /// [`FaultProfile::hostile`] — drops, duplicates, corruption,
    /// reordering, jitter.
    Hostile,
    /// Seeded agent crash mid-hop, repaired by lease takeover.
    Crash,
}

/// Everything one run leaves behind for differential checking.
pub struct RunArtifacts {
    /// Final document (verified before return).
    pub document: DraDocument,
    /// Final document wire bytes.
    pub wire: String,
    /// The pool's digest ([`dra_cloud::CloudSystem::pool_digest`]).
    pub pool_digest: String,
    /// Hops executed.
    pub steps: usize,
    /// Recorded span trace.
    pub events: Vec<TraceEvent>,
    /// Cross-layer metric invariant verdict for the cell.
    pub invariants: Result<(), String>,
    /// `sched.or_join_waits` for the cell.
    pub or_join_waits: u64,
    /// `sched.cancelled` for the cell.
    pub cancelled: u64,
}

/// Execute `gw` once through the scheduler under `variant`, in the basic
/// (`advanced = false`) or TFC-finalized (`advanced = true`) model.
pub fn run_generated(
    gw: &GeneratedWorkflow,
    advanced: bool,
    variant: Variant,
) -> Result<RunArtifacts, String> {
    let plan = match variant {
        Variant::Crash => FaultPlan::once(site::AEA_BEFORE_SIGN, 1 + gw.seed % 4),
        _ => FaultPlan::none(),
    };
    let rig = Rig::generated(gw, advanced).with_faults(&plan);
    let sys = rig.cloud(3);
    let delivery = match variant {
        Variant::Hostile => rig.channel(FaultProfile::hostile(), gw.seed),
        _ => rig.channel(FaultProfile::lossless(), 0),
    };
    let initial = rig.initial(&format!("fuzz-{:04}", gw.seed));
    let out = rig
        .run(&sys, &initial)
        .network(&delivery)
        .run()
        .map_err(|e| format!("run ({variant:?}, advanced={advanced}): {e}"))?;
    Verifier::new(&rig.dir)
        .run(out.document.document())
        .map_err(|e| format!("final document fails verification: {e}"))?;
    let snap = rig.metrics.snapshot();
    // whatever the channel and the crashes did, every stored version is an
    // honest one: one auditor pass over the whole pool finds nothing
    let auditor = PoolAuditor::new(AuditConfig { batch: usize::MAX, ..AuditConfig::default() });
    if auditor.run_pass(&sys, None, 0) > 0 {
        return Err(format!("auditor indicts honest rows: {:?}", auditor.divergent_rows()));
    }
    Ok(RunArtifacts {
        wire: out.document.wire().as_ref().clone(),
        pool_digest: sys.pool_digest(),
        steps: out.steps,
        events: rig.tracer.events(),
        document: out.document.document().clone(),
        invariants: check_metric_invariants(&snap),
        or_join_waits: snap.counter("sched.or_join_waits"),
        cancelled: snap.counter("sched.cancelled"),
    })
}

/// Per-seed differential report — every field is seed-deterministic.
pub struct SeedReport {
    /// Generator seed.
    pub seed: u64,
    /// Activities in the generated definition.
    pub activities: usize,
    /// Hops of the honest basic-model run.
    pub hops_basic: u64,
    /// Hops of the honest advanced-model run.
    pub hops_advanced: u64,
    /// Reachability states the soundness proof explored.
    pub soundness_states: u64,
    /// OR-join parkings summed over the honest runs of both models.
    pub or_join_waits: u64,
    /// Cancellation withdrawals summed over the honest runs of both models.
    pub cancelled: u64,
    /// Forgeries injected.
    pub forgeries_tried: u64,
    /// Forgeries detected (must equal `forgeries_tried`).
    pub forgeries_caught: u64,
    /// Whether the poisoned (or canned) unsound twin was rejected both by
    /// the static analysis and at scheduler admission.
    pub unsound_rejected: bool,
    /// SHA-256 over the two honest final documents.
    pub outcome_sha256: String,
}

fn ok_hop_indices(events: &[TraceEvent]) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.stage == dra_obs::stage::HOP && e.outcome == dra_obs::OUTCOME_OK)
        .map(|(i, _)| i)
        .collect()
}

/// A fixed deadlocking definition, used when [`poison`] finds nothing to
/// poison: an exclusive choice feeding an AND-join that waits forever for
/// the branch not taken.
pub fn canned_deadlock() -> WorkflowDefinition {
    WorkflowDefinition::builder("canned-deadlock", "designer")
        .simple_activity("A", "p0", &["x"])
        .simple_activity("B", "p1", &["y"])
        .simple_activity("C", "p2", &["z"])
        .activity(Activity {
            id: "J".into(),
            participant: "p3".into(),
            join: JoinKind::All,
            requests: vec![],
            responses: vec![],
        })
        .flow_if("A", "B", Condition::field_equals("A", "x", "b"))
        .flow_if("A", "C", Condition::field_not_equals("A", "x", "b"))
        .flow("B", "J")
        .flow("C", "J")
        .flow_end("J")
        .build()
        .expect("structurally valid")
}

/// What scheduler admission answers an instance of `def` with: the error,
/// or `None` when it was admitted.
pub fn admission_error(def: &WorkflowDefinition) -> Option<WfError> {
    let rig = Rig::new(cast("fuzz", &CAST), def.clone(), SecurityPolicy::public(), |_| vec![]);
    let sys = rig.cloud(1);
    let initial = rig.initial("unsound-twin");
    Scheduler::new(&sys).admit_instance(rig.run(&sys, &initial)).err()
}

/// Assert that `def` is rejected both statically and at scheduler
/// admission (typed as [`WfError::Unsound`]).
fn unsound_twin_rejected(def: &WorkflowDefinition) -> Result<bool, String> {
    if check_soundness(def).is_ok() {
        return Err(format!("unsound twin of '{}' passed the static analysis", def.name));
    }
    match admission_error(def) {
        Some(WfError::Unsound(_)) => Ok(true),
        Some(e) => Err(format!("unsound twin rejected with the wrong error: {e}")),
        None => Err("unsound twin was admitted".into()),
    }
}

/// Run the full differential matrix for one seed. `Err` means the harness
/// itself found a divergence — a real bug, not a caught forgery.
pub fn fuzz_seed(seed: u64) -> Result<SeedReport, String> {
    let gw = generate(seed);
    let sound = check_soundness(&gw.def)
        .map_err(|e: SoundnessError| format!("seed {seed}: generated definition unsound: {e}"))?;

    let mut honest: Vec<RunArtifacts> = Vec::new();
    for advanced in [false, true] {
        let base = run_generated(&gw, advanced, Variant::Honest)
            .map_err(|e| format!("seed {seed}: {e}"))?;
        reconcile(&base.events, &base.document)
            .map_err(|e| format!("seed {seed}: honest run fails reconciliation: {e}"))?;
        conforms(&gw, &base.events)
            .map_err(|e| format!("seed {seed}: honest run is no firing sequence: {e}"))?;
        base.invariants
            .as_ref()
            .map_err(|e| format!("seed {seed}: metric invariants violated: {e}"))?;
        for variant in [Variant::Hostile, Variant::Crash] {
            let alt =
                run_generated(&gw, advanced, variant).map_err(|e| format!("seed {seed}: {e}"))?;
            reconcile(&alt.events, &alt.document)
                .map_err(|e| format!("seed {seed}: {variant:?} run fails reconciliation: {e}"))?;
            alt.invariants
                .as_ref()
                .map_err(|e| format!("seed {seed}: {variant:?} invariants violated: {e}"))?;
            if alt.wire != base.wire {
                return Err(format!(
                    "seed {seed}: {variant:?} run diverged from the honest document \
                     (advanced={advanced})"
                ));
            }
            if variant == Variant::Hostile && alt.pool_digest != base.pool_digest {
                return Err(format!(
                    "seed {seed}: hostile pool digest diverged (advanced={advanced})"
                ));
            }
        }
        honest.push(base);
    }

    // forgery battery against the honest basic-model run
    let base = &honest[0];
    let dir = Directory::from_credentials(&cast("fuzz", &CAST));
    let mut tried = 0u64;
    let mut caught = 0u64;

    // 1. flip one signature hex digit — cascade verification must fail
    tried += 1;
    let cers = base.document.cers().map_err(|e| format!("seed {seed}: cers: {e}"))?;
    let sig_text = cers[ok_hop_indices(&base.events).len() % cers.len()]
        .participant_signature()
        .map_err(|e| format!("seed {seed}: signature: {e}"))?
        .text_content();
    let mut flipped = sig_text.clone();
    let c = flipped.remove(0);
    flipped.insert(0, if c == '0' { '1' } else { '0' });
    let forged_xml = base.wire.replace(&sig_text, &flipped);
    if forged_xml != base.wire {
        if DraDocument::parse(&forged_xml).map_or(true, |d| Verifier::new(&dir).run(&d).is_err()) {
            caught += 1;
        }
    } else {
        caught += 1; // degenerate signature; the replace found nothing to forge
    }

    // 2. phantom CER appended without a signature — verification must fail
    tried += 1;
    let mut phantom = base.document.clone();
    let last = cers.last().expect("non-empty cascade");
    phantom
        .push_cer(
            dra_xml::Element::new("CER")
                .attr("activity", last.key.activity.clone())
                .attr("iter", (last.key.iter + 1).to_string())
                .attr("participant", "mallory")
                .attr("preds", "Def")
                .child(dra_xml::Element::new("Result")),
        )
        .map_err(|e| format!("seed {seed}: push_cer: {e}"))?;
    if Verifier::new(&dir).run(&phantom).is_err() {
        caught += 1;
    }

    // 3–5. trace forgeries: reorder, actor swap, fabricated execution
    let hops = ok_hop_indices(&base.events);
    if hops.len() >= 2 {
        tried += 1;
        let mut ev = base.events.clone();
        ev.swap(hops[0], hops[1]);
        if reconcile(&ev, &base.document).is_err() {
            caught += 1;
        }
    }
    tried += 1;
    let mut ev = base.events.clone();
    ev[hops[0]].actor = "mallory".into();
    if reconcile(&ev, &base.document).is_err() {
        caught += 1;
    }
    tried += 1;
    let mut ev = base.events.clone();
    let mut fab = ev[*hops.last().expect("hops")].clone();
    fab.iter += 100;
    ev.push(fab);
    if reconcile(&ev, &base.document).is_err() {
        caught += 1;
    }

    // unsound twin: poisoned join when available, canned deadlock otherwise
    let twin = poison(&gw.def).unwrap_or_else(canned_deadlock);
    let unsound_rejected = unsound_twin_rejected(&twin).map_err(|e| format!("seed {seed}: {e}"))?;

    let mut finals = honest[0].wire.clone();
    finals.push_str(&honest[1].wire);
    Ok(SeedReport {
        seed,
        activities: gw.def.activities.len(),
        hops_basic: honest[0].steps as u64,
        hops_advanced: honest[1].steps as u64,
        soundness_states: sound.states_explored as u64,
        or_join_waits: honest[0].or_join_waits + honest[1].or_join_waits,
        cancelled: honest[0].cancelled + honest[1].cancelled,
        forgeries_tried: tried,
        forgeries_caught: caught,
        unsound_rejected,
        outcome_sha256: dra_crypto::hex::encode(&dra_crypto::sha256(finals.as_bytes())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        for seed in [0, 1, 17] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.def.to_xml().element_count(), b.def.to_xml().element_count());
            assert_eq!(a.script, b.script);
        }
    }

    #[test]
    fn generated_definitions_are_sound() {
        for seed in 0..16 {
            let gw = generate(seed);
            check_soundness(&gw.def)
                .unwrap_or_else(|e| panic!("seed {seed} generated an unsound def: {e}"));
        }
    }

    #[test]
    fn seeds_cover_the_pattern_set() {
        let mut multi = 0;
        let mut cancels = 0;
        let mut or_joins = 0;
        for seed in 0..32 {
            let gw = generate(seed);
            multi += gw.def.multi.len();
            cancels += gw.def.cancellations.len();
            or_joins += gw.def.activities.iter().filter(|a| a.join == JoinKind::Or).count();
        }
        assert!(multi > 0, "no multi-instance activity in 32 seeds");
        assert!(cancels > 0, "no cancellation region in 32 seeds");
        assert!(or_joins > 0, "no OR-join in 32 seeds");
    }

    #[test]
    fn poisoned_or_canned_twins_are_unsound() {
        for seed in 0..8 {
            let gw = generate(seed);
            let twin = poison(&gw.def).unwrap_or_else(canned_deadlock);
            assert!(check_soundness(&twin).is_err(), "seed {seed}: twin passed");
        }
    }

    #[test]
    fn the_oracle_rejects_an_and_join_that_runs_before_a_branch() {
        let def = WorkflowDefinition::builder("early-join", "designer")
            .simple_activity("A", "p0", &["f"])
            .simple_activity("B1", "p1", &["f"])
            .simple_activity("B2", "p2", &["f"])
            .activity(Activity {
                id: "C".into(),
                participant: "p3".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["f".into()],
            })
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_end("C")
            .build()
            .unwrap();
        let gw = GeneratedWorkflow::scripted(def, &[]);
        let hops = |order: &[&str]| -> Vec<TraceEvent> {
            let hop = |a: &&str| TraceEvent {
                seq: 0,
                start_us: 0,
                end_us: 0,
                stage: dra_obs::stage::HOP.into(),
                actor: String::new(),
                process_id: String::new(),
                activity: a.to_string(),
                iter: 0,
                outcome: dra_obs::OUTCOME_OK.into(),
                attrs: vec![],
            };
            order.iter().map(hop).collect()
        };
        conforms(&gw, &hops(&["A", "B1", "B2", "C"])).unwrap();
        let err = conforms(&gw, &hops(&["A", "B1", "C", "B2"])).unwrap_err();
        assert!(err.contains("C#0 ran while the net had it disabled"), "{err}");
        let err = conforms(&gw, &hops(&["A", "B1"])).unwrap_err();
        assert!(err.contains("waiting at [\"B2\", \"C\"]"), "{err}");
    }

    #[test]
    fn one_full_differential_seed() {
        let report = fuzz_seed(3).expect("differential matrix clean");
        assert_eq!(report.forgeries_tried, report.forgeries_caught);
        assert!(report.unsound_rejected);
        assert!(report.hops_basic >= 3);
        assert_eq!(report.hops_basic, report.hops_advanced);
    }
}
