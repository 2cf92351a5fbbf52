//! Event-driven execution core: portal notifications drive the run loop.
//!
//! The paper's Fig. 7 scalability story is portals + the sharded pool
//! absorbing load a centralized engine cannot, so no in-memory queue
//! single-steps an instance here. Control flows from the pool outward:
//!
//! * every TO-DO row a portal admission writes also emits a typed
//!   [`Activation`] onto the deployment's [`ActivationBus`] — the
//!   paper's "the DRA4WfMS cloud system can inform the subsequent
//!   participant(s)" made operational instead of inert index rows;
//! * a [`Scheduler`] drains activations in deterministic virtual-time
//!   order, performs join-readiness and amendment re-folding, and
//!   dispatches hops to AEAs under lease-based crash supervision — so
//!   `notify` fires the next participant at O(1) with zero idle polling,
//!   and any number of instances interleave naturally over shared portals,
//!   delivery, leases and the monitor.
//!
//! ## Determinism
//!
//! The bus is a `BTreeMap` keyed by `(emit time, emission sequence)`.
//! Virtual time is monotone, so draining the map front-to-back replays the
//! exact emission order; a fixed seed therefore yields a byte-identical
//! pool and trace, fleet or single instance alike. Duplicate activations
//! (a retransmitted copy re-notifying, journal replay re-emitting a
//! repaired admission's TO-DO rows) are harmless by construction: they pop,
//! find the inbox already drained, and are counted as `sched.skipped`.
//!
//! ## Fairness
//!
//! Because activations are ordered by emission time, a fleet interleaves
//! breadth-first: every instance's step `k` dispatches before any
//! instance's step `k+1` that was notified later. No instance can starve
//! another — the bus is the only ready-list, and it is strictly FIFO in
//! virtual time.

use crate::portal::CloudSystem;
use crate::runner::{InstanceRun, RunOutcome, LEASE_US, MAX_TAKEOVERS};
use dra4wfms_core::prelude::*;
use dra4wfms_core::semantics::{and_join_missing, cancelled};
use dra_obs::stage;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One portal notification, typed: "participant, your activity of this
/// process is ready as of seq".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Activation {
    /// The participant whose TO-DO list grew.
    pub participant: String,
    /// Process instance id.
    pub process_id: String,
    /// The activity awaiting execution.
    pub activity: String,
    /// Pool sequence number of the document that triggered the notification.
    pub seq: usize,
    /// Virtual time of emission (portal-side).
    pub at_us: u64,
}

#[derive(Default)]
struct BusQueue {
    /// `(emit time, emission seq) → activation`: draining front-to-back is
    /// exactly emission order, because virtual time is monotone.
    ready: BTreeMap<(u64, u64), Activation>,
}

/// The deployment-wide activation bus portals publish to and the
/// [`Scheduler`] drains. Owned by the [`CloudSystem`]; shared by every
/// portal the same way the pool and the journal are.
#[derive(Default)]
pub struct ActivationBus {
    queue: Mutex<BusQueue>,
    emit_seq: AtomicU64,
    emitted: AtomicU64,
}

impl ActivationBus {
    /// An empty bus.
    pub fn new() -> ActivationBus {
        ActivationBus::default()
    }

    /// Publish one activation (portal-side, on writing a TO-DO row).
    pub fn emit(&self, activation: Activation) {
        let seq = self.emit_seq.fetch_add(1, Ordering::Relaxed);
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.ready.insert((activation.at_us, seq), activation);
    }

    /// Pop the oldest pending activation whose process satisfies `owned`,
    /// leaving the rest untouched. Concurrent schedulers share one bus the
    /// way portals share one pool — each must take only its own wake-ups,
    /// never steal another's.
    pub fn pop_owned(&self, owned: impl Fn(&str) -> bool) -> Option<Activation> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let key = q.ready.iter().find(|(_, a)| owned(&a.process_id)).map(|(k, _)| *k)?;
        q.ready.remove(&key)
    }

    /// Pending activations.
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).ready.len()
    }

    /// Whether the bus is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total activations ever emitted — the number every portal
    /// notification must match (`sched.activations == portal.notifications`
    /// in [`crate::obs::check_metric_invariants`]).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Drop every pending activation of one process; returns how many were
    /// removed. Used when an instance leaves the scheduler (completion
    /// flush, terminal error) so stale duplicates never leak into the next
    /// run over the same deployment.
    pub fn drain_process(&self, process_id: &str) -> usize {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let before = q.ready.len();
        q.ready.retain(|_, a| a.process_id != process_id);
        before - q.ready.len()
    }

    /// Drop the pending activations of one `(process, activity)` pair;
    /// returns how many were removed. Used when a cancellation region
    /// withdraws work a portal had already announced.
    pub fn drain_activity(&self, process_id: &str, activity: &str) -> usize {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let before = q.ready.len();
        q.ready.retain(|_, a| !(a.process_id == process_id && a.activity == activity));
        before - q.ready.len()
    }

    /// Whether some pending activation of `process_id` targets an activity
    /// satisfying `matches`. The OR-join readiness probe: a synchronizing
    /// merge fires only once no upstream branch can still deliver.
    pub fn has_pending(&self, process_id: &str, matches: impl Fn(&str) -> bool) -> bool {
        let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.ready.values().any(|a| a.process_id == process_id && matches(&a.activity))
    }
}

/// Scheduler-side accounting, exported as `sched.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Activations that dispatched a hop.
    pub dispatched: u64,
    /// Activations that found nothing to do (duplicate notifications).
    pub skipped: u64,
    /// Activations parked on an AND-join awaiting sibling branches.
    pub deferred: u64,
    /// Activations parked on an OR-join while an upstream branch could
    /// still deliver (the synchronizing-merge wait).
    pub or_join_waits: u64,
    /// Work items withdrawn by cancellation regions: inbox entries and bus
    /// activations removed when a trigger completed, plus late activations
    /// arriving for already-cancelled work.
    pub cancelled: u64,
    /// Activations for cancelled work that still found a live inbox entry —
    /// a withdrawal that failed to actually withdraw. Must stay zero; the
    /// metric invariants treat any other value as a scheduler bug.
    pub cancelled_dispatches: u64,
}

/// Per-admitted-instance execution state: the builder's configuration plus
/// the instance's inbox and progress.
struct Instance<'a> {
    run: InstanceRun<'a>,
    agents: &'a HashMap<String, Arc<Aea>>,
    respond: &'a crate::runner::Responder,
    pid: String,
    inbox: HashMap<String, Vec<SealedDocument>>,
    /// Activities whose pending work a cancellation region withdrew; their
    /// activations must never dispatch again (regions are acyclic by the
    /// soundness gate, so membership is permanent for the run).
    cancelled: std::collections::BTreeSet<String>,
    /// OR-joins parked until their upstream goes quiet; revisited after the
    /// bus drains (and by any later duplicate activation).
    or_parked: std::collections::BTreeSet<String>,
    steps: usize,
    signature_checks: usize,
    last_doc: SealedDocument,
    /// Hops taken over, each after its lease ran out (or the monitor saw
    /// the instance stuck): `run.takeovers` and `run.timeouts`.
    takeovers: u64,
    early_takeovers: u64,
    finished: bool,
    failed: Option<WfError>,
}

/// Drains the deployment's [`ActivationBus`] and dispatches hops.
///
/// One scheduler can drive any number of concurrently admitted instances;
/// [`InstanceRun::run`] is a single-instance facade over exactly this type.
pub struct Scheduler<'a> {
    system: &'a CloudSystem,
    order: Vec<String>,
    instances: HashMap<String, Instance<'a>>,
    stats: SchedStats,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `system`'s activation bus.
    pub fn new(system: &'a CloudSystem) -> Scheduler<'a> {
        Scheduler {
            system,
            order: Vec::new(),
            instances: HashMap::new(),
            stats: SchedStats::default(),
        }
    }

    /// Scheduler-side accounting so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Admit one configured instance: validate the configuration and the
    /// definition, store the initial document (which notifies the start
    /// activity's participant — the activation that boots the instance),
    /// hook up the monitor and register the inbox. Returns the process id.
    pub fn admit_instance(&mut self, run: InstanceRun<'a>) -> WfResult<String> {
        if !std::ptr::eq(run.system, self.system) {
            return Err(WfError::Config(
                "InstanceRun was built against a different CloudSystem".into(),
            ));
        }
        let agents =
            run.agents.ok_or_else(|| WfError::Config("InstanceRun needs .agents(..)".into()))?;
        let respond =
            run.respond.ok_or_else(|| WfError::Config("InstanceRun needs .respond(..)".into()))?;

        // structurally valid by construction (see `EffectiveDefinition`)
        let definition = dra4wfms_core::amendment::effective_definition(run.initial)?;
        // unsound models never enter the run loop: a deadlocking join or an
        // orphaning cancellation would strand the instance mid-flight, long
        // after the designer could cheaply fix the definition
        definition.require_sound()?;
        let def = &definition.def;
        let pid = run.initial.process_id()?;
        if def.tfc.is_some() && run.tfc.is_none() {
            return Err(WfError::Policy(
                "definition uses the advanced model but no TFC server was provided".into(),
            ));
        }
        if self.instances.contains_key(&pid) {
            return Err(WfError::Config(format!("instance '{pid}' already admitted")));
        }
        if let Some(mon) = &run.monitor {
            run.tracer.add_sink(Arc::clone(mon) as Arc<dyn dra_obs::TraceSink>);
        }

        // the initial document enters the pool; admission emits the
        // activation that wakes the start activity's participant
        let started_us = run.tracer.now_us();
        let sealed_initial = SealedDocument::new(run.initial.clone());
        run.delivery.deliver(
            self.system,
            self.system.route_portal(self.system.portal_for(&pid, 0)),
            &sealed_initial,
            None,
            &Route { targets: vec![def.start.clone()], ends: false },
        )?;
        // only an instance the pool holds is watched: a refused admission
        // must not leave the monitor waiting on progress nobody will make
        if let Some(mon) = &run.monitor {
            mon.instance_started(&pid, run.slo_us, started_us);
            // on a federated deployment, the monitor's alert stream drives
            // the controller's quarantines — wire it up automatically
            if let Some(fed) = self.system.federation_controller() {
                fed.set_monitor(mon);
            }
        }

        let mut inbox: HashMap<String, Vec<SealedDocument>> = HashMap::new();
        inbox.entry(def.start.clone()).or_default().push(sealed_initial.clone());

        self.order.push(pid.clone());
        self.instances.insert(
            pid.clone(),
            Instance {
                run,
                agents,
                respond,
                pid: pid.clone(),
                inbox,
                cancelled: Default::default(),
                or_parked: Default::default(),
                steps: 0,
                signature_checks: 0,
                last_doc: sealed_initial,
                takeovers: 0,
                early_takeovers: 0,
                finished: false,
                failed: None,
            },
        );
        Ok(pid)
    }

    /// Drain the bus to empty, then finalize every admitted instance in
    /// admission order: flush delivery, add the `run.*` family per instance,
    /// build each [`RunOutcome`] — then export the deployment-wide counters
    /// and the `sched.*` family once per registry.
    pub fn run_to_completion(&mut self) -> Vec<(String, WfResult<RunOutcome>)> {
        let bus = self.system.activation_bus();
        loop {
            // pop only own instances' activations: schedulers running
            // concurrently over one deployment share the bus, and a wake-up
            // taken by the wrong scheduler would strand the instance it woke
            while let Some(act) = bus.pop_owned(|pid| self.instances.contains_key(pid)) {
                let Some(inst) = self.instances.get_mut(&act.process_id) else { continue };
                if inst.failed.is_some() {
                    self.stats.skipped += 1;
                    continue;
                }
                if let Err(e) = dispatch_one(self.system, inst, &act, &mut self.stats) {
                    inst.failed = Some(e);
                    // a dead instance's remaining activations are noise
                    self.stats.skipped += bus.drain_process(&act.process_id) as u64;
                }
            }
            // drain end: every upstream branch of a parked OR-join has now
            // either delivered or provably never will — fire the first
            // quiet one and rescan (its hop may refill the bus)
            if !self.fire_one_parked_or_join() {
                break;
            }
        }
        self.finalize_all()
    }

    /// Dispatch the first parked OR-join whose upstream is quiet, in
    /// admission order then activity order: deterministic. Returns whether
    /// one fired. Dispatch is direct — not a bus emission — so
    /// `sched.activations == portal.notifications` keeps holding.
    fn fire_one_parked_or_join(&mut self) -> bool {
        let bus = self.system.activation_bus();
        for pid in &self.order {
            let Some(inst) = self.instances.get_mut(pid) else { continue };
            if inst.failed.is_some() || inst.or_parked.is_empty() {
                continue;
            }
            let Some(activity) = inst.or_parked.iter().next().cloned() else { continue };
            let synthetic = Activation {
                participant: String::new(),
                process_id: pid.clone(),
                activity,
                seq: 0,
                at_us: inst.run.tracer.now_us(),
            };
            if let Err(e) = dispatch_one(self.system, inst, &synthetic, &mut self.stats) {
                inst.failed = Some(e);
                self.stats.skipped += bus.drain_process(pid) as u64;
            }
            return true;
        }
        false
    }

    /// Finalize and drain every admitted instance, in admission order.
    fn finalize_all(&mut self) -> Vec<(String, WfResult<RunOutcome>)> {
        let system = self.system;
        let bus = system.activation_bus();
        let mut results = Vec::with_capacity(self.order.len());
        let mut exported: Vec<InstanceRun<'a>> = Vec::new();
        // parked OR-joins remaining at finalize: non-zero on a fault-free
        // drain means a synchronizing merge never resolved (a scheduler
        // bug — sound definitions guarantee quiescence by drain end)
        let or_join_parked: usize = self.instances.values().map(|i| i.or_parked.len()).sum();
        for pid in self.order.drain(..) {
            let Some(mut inst) = self.instances.remove(&pid) else { continue };
            if let Some(e) = inst.failed.take() {
                results.push((pid, Err(e)));
                continue;
            }

            // late reordered copies are ingested before stats are read, so
            // the same seed + profile always reports the same numbers; any
            // re-notification they triggered is stale by now
            inst.run.delivery.flush(system);
            let delivery = inst.run.delivery.stats();
            self.stats.skipped += bus.drain_process(&pid) as u64;

            if !inst.finished {
                if let Some(mon) = &inst.run.monitor {
                    mon.instance_finished(&pid, inst.run.tracer.now_us());
                }
            }

            if let Some(m) = inst.run.metrics {
                // additive, not overwriting: bench cells run many instances
                // against one shared registry (and one shared monitor), and
                // the alert-accounting invariants compare *cumulative*
                // alert counts against these — so they must accumulate too
                m.incr("run.steps", inst.steps as u64);
                m.incr("run.signature_checks", inst.signature_checks as u64);
                m.incr("run.takeovers", inst.takeovers);
                m.incr("run.timeouts", inst.takeovers);
                m.incr("run.early_takeovers", inst.early_takeovers);
                // the registry's deployment-wide counters are read once, from
                // the last instance finalized into it
                exported.retain(|run| !run.metrics.is_some_and(|e| std::ptr::eq(e, m)));
                exported.push(inst.run);
            }

            results.push((
                pid.clone(),
                Ok(RunOutcome {
                    document: inst.last_doc,
                    steps: inst.steps,
                    process_id: pid,
                    signature_checks: inst.signature_checks,
                    delivery,
                }),
            ));
        }
        // deployment-wide totals and scheduler-side accounting, once per
        // registry per drain
        for run in exported {
            let Some(m) = run.metrics else { continue };
            run.delivery.stats().export_metrics(m);
            system.export_metrics(m);
            if let Some(tfc) = run.tfc {
                m.set_counter("tfc.redo_reuses", tfc.redo_reuses());
            }
            if let Some(mon) = &run.monitor {
                mon.export_metrics(m);
            }
            m.incr("sched.dispatched", self.stats.dispatched);
            m.incr("sched.skipped", self.stats.skipped);
            m.incr("sched.deferred", self.stats.deferred);
            m.incr("sched.or_join_waits", self.stats.or_join_waits);
            m.incr("sched.cancelled", self.stats.cancelled);
            m.incr("sched.cancelled_dispatches", self.stats.cancelled_dispatches);
            // re-read the bus gauge now that every instance drained
            m.set_gauge("sched.bus_depth", bus.len() as i64);
            m.set_gauge("sched.or_join_parked", or_join_parked as i64);
        }
        self.stats = SchedStats::default();
        results
    }
}

/// Process one activation against its instance: skip duplicates, defer
/// not-ready joins, otherwise dispatch the hop under lease-based crash
/// supervision.
fn dispatch_one<'a>(
    system: &'a CloudSystem,
    inst: &mut Instance<'a>,
    act: &Activation,
    stats: &mut SchedStats,
) -> WfResult<()> {
    // any activation (duplicate, synthetic revisit) supersedes a parking:
    // it re-runs the readiness check below and re-parks if still not quiet
    inst.or_parked.remove(&act.activity);
    if inst.cancelled.contains(&act.activity) {
        // work withdrawn by a cancellation region: the activation is void.
        // Withdrawal already emptied the inbox — a surviving entry means a
        // cancelled hop was one step from dispatching, which the metric
        // invariants flag (`sched.cancelled_dispatches` must stay zero).
        if inst.inbox.remove(&act.activity).is_some() {
            stats.cancelled_dispatches += 1;
        }
        stats.cancelled += 1;
        return Ok(());
    }
    let Some(inputs) = inst.inbox.remove(&act.activity) else {
        // duplicate notification (retransmitted copy, replay re-emission):
        // the inbox was already drained by the first activation
        stats.skipped += 1;
        return Ok(());
    };
    if inst.steps >= inst.run.max_steps {
        return Err(WfError::Flow(format!(
            "run exceeded {} steps (runaway loop?)",
            inst.run.max_steps
        )));
    }

    let merged = merge_sealed(&inputs)?;

    // re-fold amendments: a designer may have amended the definition
    // mid-run, and routing must follow the rules now in force
    let definition_now = dra4wfms_core::amendment::effective_definition(&merged)?;
    let def_now = &definition_now.def;
    let act_def = def_now.activity(&act.activity)?.clone();
    let aea = inst
        .agents
        .get(&act_def.participant)
        .ok_or_else(|| WfError::UnknownIdentity(act_def.participant.clone()))?;

    // AND-join: park the merged prefix until the remaining branches notify
    if and_join_missing(def_now, &act.activity, |a| merged.latest_iter(a))?.is_some() {
        inst.inbox.entry(act.activity.clone()).or_default().push(merged);
        stats.deferred += 1;
        return Ok(());
    }

    // OR-join (synchronizing merge): fire only once upstream is quiet — no
    // inbox entry and no announced activation on any transitive
    // predecessor could still deliver another branch. Parked joins are
    // revisited by later duplicate activations and at bus-drain end.
    if act_def.join == JoinKind::Or {
        let upstream = |a: &str| definition_now.net.reaches(a, &act.activity);
        let busy = inst.inbox.keys().any(|k| upstream(k))
            || system.activation_bus().has_pending(&inst.pid, upstream);
        if busy {
            inst.inbox.entry(act.activity.clone()).or_default().push(merged);
            inst.or_parked.insert(act.activity.clone());
            stats.or_join_waits += 1;
            return Ok(());
        }
    }

    // dispatch the hop under a virtual-time lease; an AEA that dies, or the
    // TFC dying in `finalize`, surfaces as WfError::Crash and the supervisor
    // takes the hop over (a dead portal never gets here: the channel
    // restarted it and sent again). The sched:dispatch span deliberately
    // carries the process id as an attribute, not as span coordinates — the
    // monitor reads every process-scoped span as progress, and a dispatch is
    // not progress.
    let mut dspan = inst.run.tracer.span(stage::SCHED_DISPATCH).actor(&act_def.participant);
    dspan.attr("process", &inst.pid);
    dspan.attr("activity", &act.activity);
    dspan.attr("seq", act.seq);
    let mut takeovers_left = MAX_TAKEOVERS;
    let (document, route, hop_checks, _hop_iter) = loop {
        let hop_start = inst.run.tracer.now_us();
        let mut hop_span =
            inst.run.tracer.span(stage::HOP).actor(&act_def.participant).process(&inst.pid);
        // re-route the in-flight activation: fresh alerts may have
        // quarantined the hashed portal (or failed its cloud over) since
        // the activation was emitted. Identity on single-cloud systems.
        system.federation_poll();
        let portal = system.route_portal(system.portal_for(&inst.pid, inst.steps + 1));
        match inst.run.execute_hop(aea, &act.activity, &inputs, &merged, inst.respond, portal) {
            Ok(done) => {
                hop_span.set_activity(&act.activity, done.3);
                hop_span.attr("signature_checks", done.2);
                hop_span.end();
                if let Some(m) = inst.run.metrics {
                    m.observe(
                        "hop.duration_us",
                        inst.run.tracer.now_us().saturating_sub(hop_start),
                    );
                }
                break done;
            }
            Err(WfError::Crash(site)) if takeovers_left > 0 => {
                hop_span.set_activity(&act.activity, 0);
                hop_span.attr("site", &site);
                hop_span.end_with(dra_obs::OUTCOME_CRASH);
                takeovers_left -= 1;
                inst.takeovers += 1;
                // the dead agent's lease runs out in virtual time — unless
                // a monitor is watching, in which case the supervisor moves
                // the moment the instance is *observed* stuck
                let wait_us = match &inst.run.monitor {
                    Some(mon) => {
                        let until_stuck = mon.time_until_stuck(&inst.pid, inst.run.tracer.now_us());
                        until_stuck.min(LEASE_US)
                    }
                    None => LEASE_US,
                };
                system.network.advance(wait_us);
                if let Some(mon) = &inst.run.monitor {
                    mon.tick(inst.run.tracer.now_us());
                    if wait_us < LEASE_US {
                        inst.early_takeovers += 1;
                    }
                }
                // the hop is re-dispatched with the inputs it holds: a
                // portal acked each one after storing exactly its bytes, so
                // they are the pool's copy, not the dead agent's memory (the
                // portals have nothing to replay: the channel repaired a
                // torn store before its hand-off returned)
            }
            Err(e) => {
                dspan.end_with(dra_obs::OUTCOME_CRASH);
                return Err(e);
            }
        }
    };
    dspan.end();
    stats.dispatched += 1;
    inst.steps += 1;
    inst.signature_checks += hop_checks;
    system.consume_todo(&act_def.participant, &inst.pid, &act.activity);

    // completing this activity may fire cancellation regions: withdraw
    // every pending piece of region work — inbox entries, parked OR-joins
    // and already-announced bus activations alike
    let reader = DocFieldReader::public(document.document());
    for region in cancelled(def_now, &act.activity, &reader)? {
        for member in &region.region {
            if inst.inbox.remove(member).is_some() {
                stats.cancelled += 1;
            }
            inst.or_parked.remove(member);
            stats.cancelled += system.activation_bus().drain_activity(&inst.pid, member) as u64;
            inst.cancelled.insert(member.clone());
        }
    }

    for target in &route.targets {
        inst.inbox.entry(target.clone()).or_default().push(document.clone());
    }
    if route.is_final() {
        inst.finished = true;
        if let Some(mon) = &inst.run.monitor {
            mon.instance_finished(&inst.pid, inst.run.tracer.now_us());
        }
    }
    inst.last_doc = document;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(pid: &str, activity: &str, at_us: u64) -> Activation {
        Activation {
            participant: "p".into(),
            process_id: pid.into(),
            activity: activity.into(),
            seq: 0,
            at_us,
        }
    }

    #[test]
    fn bus_pops_in_time_then_emission_order() {
        let bus = ActivationBus::new();
        bus.emit(act("p1", "A", 10));
        bus.emit(act("p2", "B", 10));
        bus.emit(act("p3", "C", 5));
        assert_eq!(bus.len(), 3);
        assert_eq!(bus.emitted(), 3);
        let order: Vec<String> =
            std::iter::from_fn(|| bus.pop_owned(|_| true)).map(|a| a.process_id).collect();
        assert_eq!(order, vec!["p3", "p1", "p2"], "time first, then emission seq");
        assert!(bus.is_empty());
    }

    #[test]
    fn pop_owned_leaves_other_schedulers_wakeups() {
        let bus = ActivationBus::new();
        bus.emit(act("theirs", "A", 1));
        bus.emit(act("mine", "B", 2));
        bus.emit(act("mine", "C", 3));
        assert_eq!(bus.pop_owned(|pid| pid == "mine").unwrap().activity, "B");
        assert_eq!(bus.pop_owned(|pid| pid == "mine").unwrap().activity, "C");
        assert!(bus.pop_owned(|pid| pid == "mine").is_none());
        assert_eq!(bus.len(), 1, "the foreign activation survives untouched");
        assert_eq!(bus.pop_owned(|_| true).unwrap().process_id, "theirs");
    }

    #[test]
    fn and_split_branches_receive_the_same_nodes() {
        use crate::netsim::NetworkSim;

        let creds: Vec<Credentials> = ["designer", "p_a", "p_b1", "p_b2", "p_c"]
            .iter()
            .map(|n| Credentials::from_seed(*n, &format!("split-{n}")))
            .collect();
        let dir = Directory::from_credentials(&creds);
        let def = WorkflowDefinition::builder("split", "designer")
            .simple_activity("A", "p_a", &["x"])
            .simple_activity("B1", "p_b1", &["y"])
            .simple_activity("B2", "p_b2", &["z"])
            .activity(Activity {
                id: "C".into(),
                participant: "p_c".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["w".into()],
            })
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_end("C")
            .build()
            .unwrap();
        let initial =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "split")
                .unwrap();
        let agents: HashMap<String, Arc<Aea>> = creds
            .iter()
            .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
            .collect();
        let respond = |r: &ReceivedActivity| {
            vec![(
                r.definition.def.activity(&r.activity).unwrap().responses[0].clone(),
                "v".to_string(),
            )]
        };
        let sys = CloudSystem::new(dir, 2, Arc::new(NetworkSim::lan()));

        let mut sched = Scheduler::new(&sys);
        let pid = sched
            .admit_instance(InstanceRun::new(&sys, &initial).agents(&agents).respond(&respond))
            .unwrap();
        // one dispatch: A executes and routes to both branches
        let wakeup = sys.activation_bus().pop_owned(|_| true).unwrap();
        let inst = sched.instances.get_mut(&pid).unwrap();
        dispatch_one(&sys, inst, &wakeup, &mut sched.stats).unwrap();

        let (b1, b2) = (&inst.inbox["B1"][0], &inst.inbox["B2"][0]);
        let same = |a: &dra_xml::Element, b: &dra_xml::Element| {
            a.children.len() == b.children.len()
                && a.shared_children().zip(b.shared_children()).all(|(x, y)| Arc::ptr_eq(x, y))
        };
        assert!(same(&b1.document().root, &b2.document().root), "sections shared, not copied");
        assert!(same(b1.results().unwrap(), b2.results().unwrap()), "CERs shared, not copied");
        assert!(Arc::ptr_eq(&b1.wire(), &b2.wire()), "one serialization for both branches");

        // and the instance still runs to completion from there
        let results = sched.run_to_completion();
        assert_eq!(results[0].1.as_ref().unwrap().steps, 4);
    }

    #[test]
    fn drain_process_removes_only_that_instance() {
        let bus = ActivationBus::new();
        bus.emit(act("keep", "A", 1));
        bus.emit(act("drop", "A", 2));
        bus.emit(act("drop", "B", 3));
        assert_eq!(bus.drain_process("drop"), 2);
        assert_eq!(bus.len(), 1);
        assert_eq!(bus.pop_owned(|_| true).unwrap().process_id, "keep");
        assert_eq!(bus.emitted(), 3, "emitted counter is lifetime, not depth");
    }
}
