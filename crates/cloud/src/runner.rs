//! End-to-end scenario driver: pushes whole process instances through the
//! Fig. 7 loop — portal → AEA → (TFC →) portal → notify — handling
//! AND-split branching, AND-join merging and loops.
//!
//! Participants are scripted: a [`Responder`] maps each opened activity to
//! its response fields, standing in for the humans behind the GUIs (the
//! experiments measure AEA/TFC processing, not think time).
//!
//! Runs are configured with the [`InstanceRun`] builder:
//!
//! ```ignore
//! let outcome = InstanceRun::new(&system, &initial)
//!     .agents(&agents)
//!     .tfc(&tfc)                // advanced model only
//!     .respond(&responder)
//!     .max_steps(100)
//!     .network(&delivery)       // hops cross this channel, not the system's lossless one
//!     .run()?;
//! ```
//!
//! ## Who repairs what
//!
//! Every hand-off — AEA → portal, AEA → TFC — crosses a [`Delivery`], so
//! each component that can die has one recovery owner:
//!
//! * a **portal** that dies mid-store is restarted (journal replay) and the
//!   send retried by the channel, on every run; the scheduler never sees it;
//! * an **AEA**, or the **TFC** dying in `finalize` (which runs outside the
//!   channel), surfaces as [`WfError::Crash`] from the hop. Every dispatched
//!   hop carries a virtual-time lease ([`LEASE_US`]): the scheduler — as
//!   supervisor, at most [`MAX_TAKEOVERS`] times per hop — waits it out
//!   and re-dispatches the inputs it holds to a recovered agent: a portal
//!   acked each one after storing exactly its bytes, so they are the pool's
//!   copy, not the dead agent's memory. Deterministic signing, sealing
//!   and the TFC's redo log make the re-executed result byte-identical, so
//!   if the dead agent's send did land, the portal's wire-digest
//!   idempotency suppresses the duplicate.

use crate::delivery::{Base, Delivery, DeliveryStats};
use crate::monitor::HealthMonitor;
use crate::portal::CloudSystem;
use dra4wfms_core::prelude::*;
use dra_obs::{stage, MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::sync::Arc;

/// Scripted participant behaviour: given the opened activity (with its
/// visible fields), produce the response fields.
pub type Responder = dyn Fn(&ReceivedActivity) -> Vec<(String, String)> + Sync;

/// Virtual-time lease granted to each dispatched hop; on a crash the
/// supervisor charges this much waiting for the lease to expire before
/// taking the hop over.
pub const LEASE_US: u64 = 20_000;

/// How many takeovers the supervisor will perform per hop before giving up
/// and surfacing the crash.
pub const MAX_TAKEOVERS: usize = 4;

/// The result of driving one process instance to completion.
#[derive(Debug)]
pub struct RunOutcome {
    /// The final document (sealed, with the last hop's trust mark).
    pub document: SealedDocument,
    /// Total activity executions performed.
    pub steps: usize,
    /// The process id.
    pub process_id: String,
    /// Individual signature checks the AEAs/TFC spent across the run —
    /// with trust-marked hand-offs this grows O(n) in the number of steps
    /// instead of the O(n²) of re-verifying every cascade from scratch.
    pub signature_checks: usize,
    /// Delivery accounting of the channel the run handed off over, read at
    /// the end of the run (cumulative over the channel's life): what the
    /// channel counted, and nothing else — the scheduler's takeovers are
    /// `run.takeovers` in [`InstanceRun::metrics`].
    pub delivery: DeliveryStats,
}

/// Builder for driving one process instance end to end.
///
/// Required: [`InstanceRun::agents`] and [`InstanceRun::respond`] — the run
/// fails with [`WfError::Config`] without them. Everything else has
/// defaults: no TFC (basic model), 1 000 step bound, hand-offs over the
/// system's own lossless channel.
#[must_use = "the builder does nothing until .run()"]
pub struct InstanceRun<'a> {
    pub(crate) system: &'a CloudSystem,
    pub(crate) initial: &'a DraDocument,
    pub(crate) agents: Option<&'a HashMap<String, Arc<Aea>>>,
    pub(crate) tfc: Option<&'a TfcServer>,
    pub(crate) respond: Option<&'a Responder>,
    pub(crate) max_steps: usize,
    pub(crate) delivery: &'a Delivery,
    pub(crate) tracer: Tracer,
    pub(crate) metrics: Option<&'a MetricsRegistry>,
    pub(crate) monitor: Option<Arc<HealthMonitor>>,
    pub(crate) slo_us: Option<u64>,
}

impl<'a> InstanceRun<'a> {
    /// Start configuring a run of `initial` on `system`.
    pub fn new(system: &'a CloudSystem, initial: &'a DraDocument) -> InstanceRun<'a> {
        InstanceRun {
            system,
            initial,
            agents: None,
            tfc: None,
            respond: None,
            max_steps: 1_000,
            delivery: system.channel(),
            tracer: Tracer::disabled(),
            metrics: None,
            monitor: None,
            slo_us: None,
        }
    }

    /// One AEA per participant name (required).
    pub fn agents(mut self, agents: &'a HashMap<String, Arc<Aea>>) -> InstanceRun<'a> {
        self.agents = Some(agents);
        self
    }

    /// The TFC server, when the definition uses the advanced model.
    pub fn tfc(mut self, tfc: &'a TfcServer) -> InstanceRun<'a> {
        self.tfc = Some(tfc);
        self
    }

    /// Scripted participant behaviour (required).
    pub fn respond(mut self, respond: &'a Responder) -> InstanceRun<'a> {
        self.respond = Some(respond);
        self
    }

    /// Safety bound against runaway loops (default 1 000).
    pub fn max_steps(mut self, max_steps: usize) -> InstanceRun<'a> {
        self.max_steps = max_steps;
        self
    }

    /// Route every document hand-off (AEA → portal, AEA → TFC) through
    /// `delivery` — typically a fault-injecting channel — instead of the
    /// system's lossless one.
    pub fn network(mut self, delivery: &'a Delivery) -> InstanceRun<'a> {
        self.delivery = delivery;
        self
    }

    /// Record a structured trace of the run: one `hop` span per dispatch
    /// attempt (outcome `crash` when the supervisor takes the hop over)
    /// plus an `execute` span around each scripted response. The same
    /// tracer should be installed on the AEAs / TFC / system so the stage
    /// spans interleave on one timeline.
    pub fn tracer(mut self, tracer: Tracer) -> InstanceRun<'a> {
        self.tracer = tracer;
        self
    }

    /// Watch the run with an online [`HealthMonitor`] and let the
    /// supervisor act on its observations: a crashed hop is taken over as
    /// soon as the monitor declares the instance stuck
    /// ([`crate::monitor::PROGRESS_DEADLINE_US`]) instead of pessimistically
    /// waiting out the full lease. The runner registers the monitor as a
    /// sink on its tracer (`add_sink` is idempotent, so sharing one monitor
    /// across many runs of a deployment is fine).
    pub fn monitor(mut self, monitor: &Arc<HealthMonitor>) -> InstanceRun<'a> {
        self.monitor = Some(Arc::clone(monitor));
        self
    }

    /// Declare an end-to-end SLO (virtual µs) for this instance: when a
    /// [`HealthMonitor`] is installed and the run takes longer, it raises
    /// an `SloBreach` alert.
    pub fn slo_us(mut self, slo_us: u64) -> InstanceRun<'a> {
        self.slo_us = Some(slo_us);
        self
    }

    /// Export end-of-run counters into `metrics`: the `run.*` family and a
    /// `hop.duration_us` histogram in virtual time, added per instance; and
    /// once per registry, after every instance of the drain is finalized,
    /// the channel's `delivery.*` family, the portal / journal / pool family
    /// via [`CloudSystem::export_metrics`], `tfc.redo_reuses` (advanced
    /// model) and the monitor's `alerts.*`.
    pub fn metrics(mut self, metrics: &'a MetricsRegistry) -> InstanceRun<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// Drive the instance to completion.
    ///
    /// A thin facade over [`crate::sched::Scheduler`]: the instance is
    /// admitted (which stores the initial document and emits the boot
    /// activation), and the deployment's activation bus is drained to
    /// completion.
    pub fn run(self) -> WfResult<RunOutcome> {
        let system = self.system;
        let mut sched = crate::sched::Scheduler::new(system);
        let pid = sched.admit_instance(self)?;
        let results = sched.run_to_completion();
        results.into_iter().find_map(|(p, r)| (p == pid).then_some(r)).unwrap_or_else(|| {
            Err(WfError::Flow(format!("scheduler lost track of instance '{pid}'")))
        })
    }

    /// Execute one hop end to end: open the activity on `merged`, the merge
    /// of `inputs`, respond, complete (via the TFC on the advanced model),
    /// store and notify. Returns the resulting document, its route, the
    /// signature checks spent and the activity iteration executed — or the
    /// [`WfError::Crash`] of whichever component died.
    pub(crate) fn execute_hop(
        &self,
        aea: &Aea,
        activity: &str,
        inputs: &[SealedDocument],
        merged: &SealedDocument,
        respond: &Responder,
        portal: usize,
    ) -> WfResult<(SealedDocument, Route, usize, u32)> {
        let received = aea.receive(merged.clone(), activity)?;
        let use_tfc = received.definition.def.tfc.is_some();
        let mut checks = received.report.signatures_verified;
        let iter = received.iter;
        let mut span_exec = self
            .tracer
            .span(stage::EXECUTE)
            .actor(&aea.creds.name)
            .process(&received.report.process_id)
            .activity(activity, iter);
        let responses = respond(&received);
        span_exec.attr("responses", responses.len());
        span_exec.end();

        // both legs hand off a delta against the version the hop was served:
        // the first input, named by the chain digest of the mark its receive
        // issued — or after a join, whose mark covers the merge, by its own
        let base = match inputs {
            [single] => Some(Base { name: received.trust.prefix_digest, wire: single.wire() }),
            [first, ..] => Some(Base::of(first)?),
            [] => None,
        };

        // basic vs advanced model
        let (document, route) = match self.tfc {
            Some(server) if use_tfc => {
                let inter = aea.complete_via_tfc(&received, &responses)?;
                let sent = &inter.document;
                // the initial document is no TFC output: it goes whole
                let tfc_base = base.as_ref().filter(|_| received.trust.verified_cers > 0);
                let processed = self.delivery.transfer(
                    sent,
                    tfc_base,
                    |delta, damaged| server.arrived(delta, damaged, sent),
                    |copy| server.receive(copy),
                )?;
                checks += processed.report.signatures_verified;
                let finalized = server.finalize(&processed)?;
                (finalized.document, finalized.route)
            }
            _ => {
                let done = aea.complete(&received, &responses)?;
                (done.document, done.route)
            }
        };

        // store + notify (portal chosen by hash of (process, step))
        self.delivery.deliver(self.system, portal, &document, base.as_ref(), &route)?;
        Ok((document, route, checks, iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultProfile;
    use crate::netsim::NetworkSim;
    use dra4wfms_core::monitor::ProcessStatus;
    use dra4wfms_core::verify::Verifier;
    use dra_docpool::Scan;

    /// The Fig. 9A workflow: A → AND-split(B1,B2) → AND-join C → (loop to A
    /// on "insufficient" | D on accept) → end.
    pub fn fig9a() -> WorkflowDefinition {
        WorkflowDefinition::builder("fig9a", "designer")
            .simple_activity("A", "p_a", &["attachment"])
            .simple_activity("B1", "p_b1", &["review1"])
            .simple_activity("B2", "p_b2", &["review2"])
            .activity(Activity {
                id: "C".into(),
                participant: "p_c".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["decision".into()],
            })
            .simple_activity("D", "p_d", &["ack"])
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
            .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
            .flow_end("D")
            .build()
            .unwrap()
    }

    fn people() -> Vec<Credentials> {
        ["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d", "TFC"]
            .iter()
            .map(|n| Credentials::from_seed(*n, &format!("seed-{n}")))
            .collect()
    }

    fn agents(creds: &[Credentials], dir: &Directory) -> HashMap<String, Arc<Aea>> {
        creds.iter().map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone())))).collect()
    }

    /// Fig. 9A with the loop taken once: C rejects on its first pass
    /// ("attachment is insufficient"), then accepts.
    fn fig9a_responder() -> impl Fn(&ReceivedActivity) -> Vec<(String, String)> + Sync {
        |received: &ReceivedActivity| match received.activity.as_str() {
            "A" => vec![("attachment".into(), format!("files-v{}", received.iter))],
            "B1" => vec![("review1".into(), "looks-good".into())],
            "B2" => vec![("review2".into(), "fine".into())],
            "C" => {
                let decision = if received.iter == 0 { "insufficient" } else { "accept" };
                vec![("decision".into(), decision.into())]
            }
            "D" => vec![("ack".into(), "done".into())],
            other => panic!("unexpected activity {other}"),
        }
    }

    #[test]
    fn fig9a_basic_model_full_run() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 3, Arc::new(NetworkSim::lan()));
        let def = fig9a();
        let initial = DraDocument::new_initial_with_pid(
            &def,
            &SecurityPolicy::public(),
            &creds[0],
            "fig9a-run",
        )
        .unwrap();
        let responder = fig9a_responder();
        let out = InstanceRun::new(&sys, &initial)
            .agents(&agents(&creds, &dir))
            .respond(&responder)
            .max_steps(100)
            .run()
            .unwrap();
        // Loop taken once: A,B1,B2,C (reject) + A,B1,B2,C (accept) + D = 9
        assert_eq!(out.steps, 9);
        let sent = out.delivery;
        assert_eq!((sent.sends, sent.delivered, sent.retries), (10, 10, 0), "initial + 9 stores");
        let cers = out.document.cers().unwrap();
        assert_eq!(cers.len(), 9);
        let status = ProcessStatus::from_document(&out.document).unwrap();
        assert_eq!(status.counts_per_activity()["A"], 2);
        assert_eq!(status.counts_per_activity()["C"], 2);
        assert_eq!(status.counts_per_activity()["D"], 1);
        // the final document verifies end-to-end
        let report = Verifier::new(&dir).run(&out.document).unwrap().report;
        assert_eq!(report.signatures_verified, 10, "designer + 9 CERs");
        // and the pool has every intermediate version
        assert_eq!(sys.active_pool().query(&Scan::prefix("doc/fig9a-run/")).rows.len(), 10);
    }

    #[test]
    fn fig9b_advanced_model_full_run() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 3, Arc::new(NetworkSim::lan()));
        let def = {
            // same process, routed through the TFC (Fig. 9B)
            let mut d = fig9a();
            d.tfc = Some("TFC".into());
            d
        };
        let tfc_creds = creds.iter().find(|c| c.name == "TFC").unwrap().clone();
        let t = 1_000u64;
        let tfc = TfcServer::with_clock(tfc_creds, dir.clone(), Arc::new(move || t));
        let initial = DraDocument::new_initial_with_pid(
            &def,
            &SecurityPolicy::public().with_tfc_access("TFC", &def),
            &creds[0],
            "fig9b-run",
        )
        .unwrap();
        let responder = fig9a_responder();
        let out = InstanceRun::new(&sys, &initial)
            .agents(&agents(&creds, &dir))
            .tfc(&tfc)
            .respond(&responder)
            .max_steps(100)
            .run()
            .unwrap();
        assert_eq!(out.steps, 9);
        // every CER carries a TFC timestamp
        let status = ProcessStatus::from_document(&out.document).unwrap();
        assert!(status.executed.iter().all(|e| e.timestamp == Some(1_000)));
        // designer + 9 participant sigs + 9 TFC sigs
        let report = Verifier::new(&dir).run(&out.document).unwrap().report;
        assert_eq!(report.signatures_verified, 19);
    }

    #[test]
    fn merged_branches_ride_the_first_arrivals_mark() {
        // B1 and B2 each extend A's document; the AND-join input is B1's
        // document with B2's CER appended, so B1's mark still pins a prefix
        // of it and the join checks the two CERs past that prefix
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let agents = agents(&creds, &dir);
        let initial =
            DraDocument::new_initial_with_pid(&fig9a(), &SecurityPolicy::public(), &creds[0], "m")
                .unwrap();
        let respond = fig9a_responder();
        let hop = |input: SealedDocument, activity: &str, who: &str| {
            let received = agents[who].receive(input, activity).unwrap();
            agents[who].complete(&received, &respond(&received)).unwrap().document
        };
        let after_a = hop(SealedDocument::new(initial), "A", "p_a");
        let b1 = hop(after_a.clone(), "B1", "p_b1");
        let b2 = hop(after_a, "B2", "p_b2");
        let pinned = b1.trust().expect("a completed hop carries its mark").verified_cers;
        assert_eq!(pinned, 1, "B1's AEA verified A's CER");

        let single = merge_sealed(std::slice::from_ref(&b1)).unwrap();
        assert_eq!(single.trust(), b1.trust(), "a single arrival keeps its mark");

        let merged = merge_sealed(&[b1.clone(), b2.clone()]).unwrap();
        assert_eq!(merged.trust(), b1.trust(), "the merge rides the first arrival's mark");
        let received = agents["p_c"].receive(merged, "C").unwrap();
        assert_eq!(received.reused_cers, pinned);
        assert_eq!(received.report.signatures_verified, 2, "B1 + B2, the branches' new CERs");

        // no mark on the first arrival: the full pass, as before
        let unmarked = SealedDocument::new(b1.document().clone());
        let merged = merge_sealed(&[unmarked, b2]).unwrap();
        assert!(merged.trust().is_none(), "the second arrival's mark pins no prefix of the merge");
        let received = agents["p_c"].receive(merged, "C").unwrap();
        assert_eq!(received.reused_cers, 0);
        assert_eq!(received.report.signatures_verified, 4, "designer + A + B1 + B2");
    }

    #[test]
    fn missing_tfc_is_an_error() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let mut def = fig9a();
        def.tfc = Some("TFC".into());
        let initial =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "x")
                .unwrap();
        let responder = fig9a_responder();
        assert!(matches!(
            InstanceRun::new(&sys, &initial)
                .agents(&agents(&creds, &dir))
                .respond(&responder)
                .max_steps(10)
                .run(),
            Err(WfError::Policy(_))
        ));
    }

    #[test]
    fn builder_requires_agents_and_responder() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let initial = DraDocument::new_initial_with_pid(
            &fig9a(),
            &SecurityPolicy::public(),
            &creds[0],
            "cfg",
        )
        .unwrap();
        assert!(matches!(InstanceRun::new(&sys, &initial).run(), Err(WfError::Config(_))));
        let ags = agents(&creds, &dir);
        assert!(matches!(
            InstanceRun::new(&sys, &initial).agents(&ags).run(),
            Err(WfError::Config(_))
        ));
    }

    #[test]
    fn aea_crash_recovered_by_lease_takeover() {
        // nth 3 kills a mid-run hop whose input carries its sender's mark;
        // nth 1 kills the first hop, whose input — the initial document —
        // carries none, so the taken-over hop does the full signature pass
        // on the input it holds
        for nth in [3, 1] {
            let creds = people();
            let dir = Directory::from_credentials(&creds);
            let plan =
                crate::FaultPlan::once(dra4wfms_core::faultpoint::site::AEA_BEFORE_SIGN, nth);
            let network = Arc::new(NetworkSim::lan());
            let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network))
                .with_faults(Arc::clone(&plan));
            let initial = DraDocument::new_initial_with_pid(
                &fig9a(),
                &SecurityPolicy::public(),
                &creds[0],
                "crash-run",
            )
            .unwrap();
            // every AEA shares the fault plan; exactly one dies, once
            let ags = crashing_agents(&creds, &dir, &plan);
            let responder = fig9a_responder();
            let metrics = MetricsRegistry::new();
            let t0 = network.virtual_time_us();
            let out = InstanceRun::new(&sys, &initial)
                .agents(&ags)
                .respond(&responder)
                .max_steps(100)
                .metrics(&metrics)
                .run()
                .unwrap();
            assert_eq!(out.steps, 9, "nth {nth}: the run completes despite the crash");
            assert_eq!(
                out.signature_checks, 11,
                "nth {nth}: the taken-over hop verifies what a crash-free hop does"
            );
            let counted = metrics.snapshot();
            assert_eq!(plan.fired(), 1);
            assert_eq!(out.delivery.crashes_injected, 0, "nth {nth}: none reached the channel");
            assert_eq!(
                (counted.counter("run.takeovers"), counted.counter("run.timeouts")),
                (1, 1),
                "nth {nth}: one takeover, after one expired lease"
            );
            assert!(
                network.virtual_time_us() - t0 >= LEASE_US,
                "nth {nth}: the takeover waited out the lease"
            );
            // no version lost, none duplicated
            assert_eq!(sys.active_pool().query(&Scan::prefix("doc/crash-run/")).rows.len(), 10);
            Verifier::new(&dir).run(&out.document).unwrap();
        }
    }

    /// Every AEA of `creds`, each consulting `plan` at its crash sites.
    fn crashing_agents(
        creds: &[Credentials],
        dir: &Directory,
        plan: &Arc<crate::FaultPlan>,
    ) -> HashMap<String, Arc<Aea>> {
        let aea = |c: &Credentials| Aea::new(c.clone(), dir.clone()).with_crash_hook(plan.hook());
        creds.iter().map(|c| (c.name.clone(), Arc::new(aea(c)))).collect()
    }

    #[test]
    fn fig9b_takeover_re_dispatches_the_held_input_on_both_legs() {
        // an AEA dying after its verify, and the TFC dying between its
        // timestamp and its re-encrypt (the redo path): each takeover
        // re-dispatches the input the scheduler holds, and the run ends as
        // the crash-free one does
        use dra4wfms_core::faultpoint::site;
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let def = {
            let mut d = fig9a();
            d.tfc = Some("TFC".into());
            d
        };
        let policy = SecurityPolicy::public().with_tfc_access("TFC", &def);
        let initial = DraDocument::new_initial_with_pid(&def, &policy, &creds[0], "9b").unwrap();
        let tfc_creds = creds.iter().find(|c| c.name == "TFC").unwrap().clone();
        let run = |plan: Arc<crate::FaultPlan>| {
            let sys = CloudSystem::new(dir.clone(), 3, Arc::new(NetworkSim::lan()))
                .with_faults(Arc::clone(&plan));
            let tfc = TfcServer::with_clock(tfc_creds.clone(), dir.clone(), Arc::new(|| 1_000))
                .with_crash_hook(plan.hook());
            let responder = fig9a_responder();
            let metrics = MetricsRegistry::new();
            let out = InstanceRun::new(&sys, &initial)
                .agents(&crashing_agents(&creds, &dir, &plan))
                .tfc(&tfc)
                .respond(&responder)
                .max_steps(100)
                .metrics(&metrics)
                .run()
                .unwrap();
            assert_eq!(plan.fired(), metrics.snapshot().counter("run.takeovers"));
            (sys.pool_digest(), out.document.wire(), out.signature_checks, plan.fired())
        };
        let (digest, wire, checks, fired) = run(crate::FaultPlan::none());
        assert_eq!(fired, 0);
        for site in [site::AEA_AFTER_VERIFY, site::TFC_AFTER_TIMESTAMP] {
            let crashed = run(crate::FaultPlan::once(site, 3));
            assert_eq!(crashed.3, 1, "{site}: the crash fired");
            assert_eq!(crashed.0, digest, "{site}: the crash-free pool");
            assert_eq!(crashed.1, wire, "{site}: the crash-free final wire");
            assert_eq!(crashed.2, checks, "{site}: the crash-free signature checks");
        }
    }

    #[test]
    fn fig9a_completes_over_a_lossy_channel() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let network = Arc::new(NetworkSim::lan());
        let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network));
        let initial = DraDocument::new_initial_with_pid(
            &fig9a(),
            &SecurityPolicy::public(),
            &creds[0],
            "faulty-run",
        )
        .unwrap();
        let delivery = Delivery::new(Arc::clone(&network), FaultProfile::lossy(0.2), 7).unwrap();
        let responder = fig9a_responder();
        let out = InstanceRun::new(&sys, &initial)
            .agents(&agents(&creds, &dir))
            .respond(&responder)
            .max_steps(100)
            .network(&delivery)
            .run()
            .unwrap();
        assert_eq!(out.steps, 9);
        let stats = out.delivery;
        assert_eq!(stats.sends, 10, "initial + 9 stores");
        assert!(stats.attempts >= stats.sends);
        // the pool holds exactly the 10 versions despite duplicated copies
        assert_eq!(sys.active_pool().query(&Scan::prefix("doc/faulty-run/")).rows.len(), 10);
        // the final document still verifies end to end
        Verifier::new(&dir).run(&out.document).unwrap();
    }

    #[test]
    fn runaway_loop_bounded() {
        let creds = people();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let def = fig9a();
        let initial = DraDocument::new_initial_with_pid(
            &def,
            &SecurityPolicy::public(),
            &creds[0],
            "loop-forever",
        )
        .unwrap();
        // C always rejects → infinite loop → bounded by max_steps
        let always_reject = |received: &ReceivedActivity| match received.activity.as_str() {
            "A" => vec![("attachment".into(), "f".into())],
            "B1" => vec![("review1".into(), "r".into())],
            "B2" => vec![("review2".into(), "r".into())],
            "C" => vec![("decision".into(), "insufficient".into())],
            "D" => vec![("ack".into(), "d".into())],
            _ => vec![],
        };
        assert!(matches!(
            InstanceRun::new(&sys, &initial)
                .agents(&agents(&creds, &dir))
                .respond(&always_reject)
                .max_steps(20)
                .run(),
            Err(WfError::Flow(_))
        ));
    }
}
