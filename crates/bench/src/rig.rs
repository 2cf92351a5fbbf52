//! The one rig: everything a claim cell, a fuzz run or an integration test
//! hangs a deployment on, built in one place.
//!
//! A [`Rig`] is made from *who and what* — a cast, a
//! [`WorkflowDefinition`], a [`SecurityPolicy`] and the script that answers
//! each activity — and owns the rest: the virtual network and the tracer
//! stamping spans in its time, the metrics registry, the health monitor,
//! the fault plan, one traced AEA per participant and, when the
//! definition names one, the TFC on a fixed clock. Deployments
//! ([`Rig::cloud`], [`Rig::federated`]), channels ([`Rig::channel`]),
//! initial documents ([`Rig::initial`]) and runs ([`Rig::run`],
//! [`Rig::fleet`]) come off it already wired to those instruments, so two
//! cells differ only in what they say they differ in.
//!
//! The scenarios of the paper have constructors: [`Rig::fig9`] (Fig. 9A, or
//! 9B through the TFC), [`Rig::chain`] (n activities in a row) and
//! [`Rig::generated`] (a [`GeneratedWorkflow`] of the fuzzer). A cell whose
//! golden pins something else — a definition variant, a seed prefix, a TFC
//! clock, no monitor attached — says so with [`Rig::new`] or a modifier.
//!
//! [`Rig::walk`] is the one AEA-by-AEA loop over a linear definition with
//! no cloud in between: the workload of the scaling claim and of every
//! test that needs an executed document.

use crate::fuzz::GeneratedWorkflow;
use dra4wfms_core::prelude::*;
use dra4wfms_core::tfc::Clock;
use dra_cloud::{
    tracer_for, CloudSystem, Delivery, FaultPlan, FaultProfile, FederationController,
    HealthMonitor, InstanceRun, NetworkSim, Scheduler, Topology,
};
use dra_obs::{MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seeds every seeded sweep runs under.
pub const SEEDS: [u64; 3] = [1, 7, 42];

/// Bound on the hops of one instance; no scenario here comes near it.
const MAX_STEPS: usize = 300;

/// What a scripted participant answers an opened activity with.
pub type Responses = Vec<(String, String)>;

/// Deterministic credentials for `names`, each seeded `"{prefix}-{name}"`.
/// A rig's cast lists the designer first.
pub fn cast(prefix: &str, names: &[&str]) -> Vec<Credentials> {
    names.iter().map(|n| Credentials::from_seed(*n, &format!("{prefix}-{n}"))).collect()
}

/// The Fig. 9 workflow: A → AND-split (B1, B2) → AND-join C → back to A on
/// "insufficient", on to D otherwise. 9A when `advanced` is false, 9B
/// (every hop via the TFC) when true.
pub fn fig9_definition(advanced: bool) -> WorkflowDefinition {
    let reviewer = |id: &str, participant: &str, response: &str| Activity {
        id: id.into(),
        participant: participant.into(),
        join: JoinKind::Any,
        requests: vec![FieldRef::new("A", "attachment")],
        responses: vec![response.into()],
    };
    let b = WorkflowDefinition::builder("fig9", "designer")
        .simple_activity("A", "p_a", &["attachment"])
        .activity(reviewer("B1", "p_b1", "review1"))
        .activity(reviewer("B2", "p_b2", "review2"))
        .activity(Activity {
            id: "C".into(),
            participant: "p_c".into(),
            join: JoinKind::All,
            requests: vec![FieldRef::new("B1", "review1"), FieldRef::new("B2", "review2")],
            responses: vec!["decision".into()],
        })
        .simple_activity("D", "p_d", &["ack"])
        .flow("A", "B1")
        .flow("A", "B2")
        .flow("B1", "C")
        .flow("B2", "C")
        .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
        .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
        .flow_end("D");
    if advanced { b.with_tfc("TFC") } else { b }.build().expect("fig9 definition")
}

/// The element-wise encryption of the paper's measurements: the attachment
/// and the reviews are confidential, the decision is shared with every
/// participant (it steers the loop).
pub fn fig9_confidential() -> SecurityPolicy {
    SecurityPolicy::builder()
        .restrict("A", "attachment", &["p_b1", "p_b2", "p_c"])
        .restrict("B1", "review1", &["p_c"])
        .restrict("B2", "review2", &["p_c"])
        .restrict("C", "decision", &["p_a", "p_b1", "p_b2", "p_c", "p_d"])
        .build()
}

/// The scripted Fig. 9 participants: the loop is taken exactly once, so
/// every instance runs A, B1, B2, C(insufficient), A, B1, B2, C(accept), D.
pub fn fig9_respond(received: &ReceivedActivity) -> Responses {
    let (field, value) = match received.activity.as_str() {
        "A" => ("attachment", "contract.pdf"),
        "B1" => ("review1", "ok"),
        "B2" => ("review2", "ok"),
        "C" if received.iter == 0 => ("decision", "insufficient"),
        "C" => ("decision", "accept"),
        "D" => ("ack", "done"),
        other => panic!("no Fig. 9 activity '{other}'"),
    };
    vec![(field.into(), value.into())]
}

/// How [`Rig::walk`] hands a document from one AEA to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handoff {
    /// As wire bytes: every hop parses and re-verifies the whole cascade —
    /// the paper's baseline.
    Wire,
    /// As the [`SealedDocument`], trust mark included: every hop re-checks
    /// the one new CER.
    Sealed,
}

/// One step of a [`Rig::walk`]: what it cost, and the document it made.
#[derive(Clone, Debug)]
pub struct ChainRecord {
    /// Step index (number of CERs before this step).
    pub step: usize,
    /// α: decrypt + verify on receive.
    pub alpha: Duration,
    /// β: encrypt + sign on complete.
    pub beta: Duration,
    /// Σ: document size after the step.
    pub size: usize,
    /// Signatures verified on receive.
    pub sigs_verified: usize,
    /// Elliptic-curve group operations spent in α (receive).
    pub ec_ops: u64,
    /// Bytes allocated for canonicalization in α (receive).
    pub canon_alloc: u64,
    /// The document after the step, as handed on.
    pub document: SealedDocument,
}

/// One cell's worth of actors and instruments. The deployment itself
/// (`CloudSystem`, `Delivery`) stays with the cell: that is where cells
/// differ.
pub struct Rig {
    /// The deterministic cast, designer first.
    pub creds: Vec<Credentials>,
    /// Their public directory.
    pub dir: Directory,
    /// The workflow every instance of the cell runs.
    pub def: WorkflowDefinition,
    /// Its policy, with TFC access when the definition names a TFC.
    pub policy: SecurityPolicy,
    /// A fresh LAN: the cell's virtual clock.
    pub network: Arc<NetworkSim>,
    /// Stamps spans in `network`'s virtual time.
    pub tracer: Tracer,
    /// Receives each run's end-of-run counters.
    pub metrics: MetricsRegistry,
    /// Watches every run and federation of the cell unless the rig is
    /// [`Rig::unmonitored`]; per-pid state keeps a cell's instances apart.
    pub monitor: Arc<HealthMonitor>,
    /// The fault plan every actor and deployment of the cell consults.
    pub plan: Arc<FaultPlan>,
    /// One AEA per participant.
    pub agents: HashMap<String, Arc<Aea>>,
    /// The TFC, when the definition names one.
    pub tfc: Option<TfcServer>,
    respond: Box<dyn Fn(&ReceivedActivity) -> Responses + Send + Sync>,
    clock: Clock,
    watched: bool,
    /// Hops of a complete instance, where the scenario fixes them.
    steps: Option<usize>,
}

impl Rig {
    /// A rig for `def` under `policy`, played by `creds` (designer first)
    /// answering with `respond`: actors that never crash, a TFC stamping
    /// 1 700 000 000 000 ms, a monitor attached.
    pub fn new(
        creds: Vec<Credentials>,
        def: WorkflowDefinition,
        policy: SecurityPolicy,
        respond: impl Fn(&ReceivedActivity) -> Responses + Send + Sync + 'static,
    ) -> Rig {
        let network = Arc::new(NetworkSim::lan());
        let mut rig = Rig {
            dir: Directory::from_credentials(&creds),
            creds,
            def,
            policy: SecurityPolicy::public(),
            tracer: tracer_for(&network),
            network,
            metrics: MetricsRegistry::new(),
            monitor: HealthMonitor::new(),
            plan: FaultPlan::none(),
            agents: HashMap::new(),
            tfc: None,
            respond: Box::new(respond),
            clock: Arc::new(|| 1_700_000_000_000),
            watched: true,
            steps: None,
        };
        rig.hire();
        rig.with_policy(policy)
    }

    /// Fig. 9A, or 9B when `advanced`: public policy, hence deterministic
    /// document bytes.
    pub fn fig9(advanced: bool) -> Rig {
        Rig::fig9_as("fig9-bench", fig9_definition(advanced))
    }

    /// The Fig. 9 cast seeded `"{prefix}-{name}"` playing `def`, a variant
    /// of the Fig. 9 definition: for the cells whose golden pins either.
    pub fn fig9_as(prefix: &str, def: WorkflowDefinition) -> Rig {
        let creds = cast(prefix, &["designer", "p_a", "p_b1", "p_b2", "p_c", "p_d", "TFC"]);
        let mut rig = Rig::new(creds, def, SecurityPolicy::public(), fig9_respond);
        rig.steps = Some(9);
        rig
    }

    /// A linear workflow of `n` activities `S0 … S{n-1}`, one participant
    /// `p{i}` each, step `i` answering `payload(i)`. When `encrypted`, each
    /// response is restricted to the next participant (element-wise
    /// encryption on every hop).
    pub fn chain(
        n: usize,
        encrypted: bool,
        payload: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> Rig {
        let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        let mut cast_names = vec!["designer"];
        cast_names.extend(names.iter().map(String::as_str));
        let mut b = WorkflowDefinition::builder("chain", "designer");
        let mut pb = SecurityPolicy::builder();
        for i in 0..n {
            b = b.simple_activity(format!("S{i}"), &names[i], &["payload"]);
            pb = pb.restrict(format!("S{i}"), "payload", &[&names[(i + 1).min(n - 1)]]);
        }
        for i in 1..n {
            b = b.flow(format!("S{}", i - 1), format!("S{i}"));
        }
        let def = b.flow_end(format!("S{}", n - 1)).build().expect("chain definition");
        let policy = if encrypted { pb.build() } else { SecurityPolicy::public() };
        let respond = move |r: &ReceivedActivity| {
            let step = r.activity[1..].parse().expect("a chain activity is S<step>");
            vec![("payload".to_string(), payload(step))]
        };
        let mut rig = Rig::new(cast("chain", &cast_names), def, policy, respond);
        rig.steps = Some(n);
        rig
    }

    /// A workflow of the fuzzer with its script, played by the fuzzer's
    /// cast as the differential matrix runs it: through the TFC (stamping
    /// 1 000 ms) when `advanced`, and with no monitor attached.
    pub fn generated(gw: &GeneratedWorkflow, advanced: bool) -> Rig {
        let mut def = gw.def.clone();
        if advanced {
            def.tfc = Some("TFC".into());
        }
        let script = gw.script.clone();
        let respond =
            move |r: &ReceivedActivity| script.get(&r.activity).cloned().unwrap_or_default();
        Rig::new(cast("fuzz", &crate::fuzz::CAST), def, SecurityPolicy::public(), respond)
            .tfc_clock(Arc::new(|| 1_000))
            .unmonitored()
    }

    /// (Re)build the actors from the cast, the fault plan, the tracer and the
    /// clock: one AEA per participant, the TFC if the definition names one.
    fn hire(&mut self) {
        self.agents =
            self.creds.iter().map(|c| (c.name.clone(), Arc::new(self.agent(&c.name)))).collect();
        self.tfc = self.def.tfc.as_deref().map(|name| {
            TfcServer::with_clock(
                self.credentials(name).clone(),
                self.dir.clone(),
                self.clock.clone(),
            )
            .with_crash_hook(self.plan.hook())
            .with_tracer(self.tracer.clone())
        });
    }

    fn credentials(&self, name: &str) -> &Credentials {
        self.creds.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("{name} in the cast"))
    }

    /// A fresh AEA for `name`, wired like the ones in [`Rig::agents`].
    pub fn agent(&self, name: &str) -> Aea {
        Aea::new(self.credentials(name).clone(), self.dir.clone())
            .with_crash_hook(self.plan.hook())
            .with_tracer(self.tracer.clone())
    }

    /// Actors and deployments consulting `plan` at every fault site.
    pub fn with_faults(mut self, plan: &Arc<FaultPlan>) -> Rig {
        self.plan = Arc::clone(plan);
        self.hire();
        self
    }

    /// The TFC on `clock`.
    pub fn tfc_clock(mut self, clock: Clock) -> Rig {
        self.clock = clock;
        self.hire();
        self
    }

    /// Every actor, deployment, channel and run recording into `tracer`
    /// instead of the network-clocked default.
    pub fn traced(mut self, tracer: Tracer) -> Rig {
        self.tracer = tracer;
        self.hire();
        self
    }

    /// `policy`, plus TFC access when the definition names a TFC, instead of
    /// the constructor's.
    pub fn with_policy(mut self, policy: SecurityPolicy) -> Rig {
        self.policy = match &self.def.tfc {
            Some(tfc) => policy.with_tfc_access(tfc, &self.def),
            None => policy,
        };
        self
    }

    /// No monitor attached to runs and federations: a crashed hop waits out
    /// its full lease, and [`Rig::monitor`] stays silent.
    pub fn unmonitored(mut self) -> Rig {
        self.watched = false;
        self
    }

    /// A traced `portals`-portal single-cloud deployment on this cell's
    /// network, under the cell's fault plan.
    pub fn cloud(&self, portals: usize) -> CloudSystem {
        CloudSystem::new(self.dir.clone(), portals, Arc::clone(&self.network))
            .with_faults(Arc::clone(&self.plan))
            .with_tracer(self.tracer.clone())
    }

    /// A federated deployment on this cell's network, under the cell's
    /// fault plan, its controller listening to the cell's monitor.
    pub fn federated(&self, topology: Topology) -> (CloudSystem, Arc<FederationController>) {
        let sys = CloudSystem::federated(self.dir.clone(), topology, Arc::clone(&self.network))
            .expect("valid topology")
            .with_faults(Arc::clone(&self.plan));
        let ctrl = Arc::clone(sys.federation_controller().expect("federated"));
        if self.watched {
            ctrl.set_monitor(&self.monitor);
        }
        (sys, ctrl)
    }

    /// A traced delivery channel over this cell's network injecting
    /// `profile` faults from the stream `seed` starts.
    pub fn channel(&self, profile: FaultProfile, seed: u64) -> Delivery {
        Delivery::new(Arc::clone(&self.network), profile, seed)
            .expect("valid profile")
            .with_tracer(self.tracer.clone())
    }

    /// The designer's initial document for process `pid`. Cells keep pids
    /// independent of fault seeds and fault plans: stored bytes must vary
    /// with the workflow only, never with the schedule.
    pub fn initial(&self, pid: &str) -> DraDocument {
        DraDocument::new_initial_with_pid(&self.def, &self.policy, &self.creds[0], pid)
            .expect("initial document")
    }

    /// What the cell's script answers to `received`.
    pub fn answer(&self, received: &ReceivedActivity) -> Responses {
        (self.respond)(received)
    }

    /// A run of `initial` on `sys` with the cast, the script, the TFC (if
    /// any) and every instrument wired in; it hands off over `sys`'s own
    /// lossless channel unless the cell chains `.network(..)`.
    pub fn run<'a>(&'a self, sys: &'a CloudSystem, initial: &'a DraDocument) -> InstanceRun<'a> {
        let mut run = InstanceRun::new(sys, initial)
            .agents(&self.agents)
            .respond(&*self.respond)
            .max_steps(MAX_STEPS)
            .tracer(self.tracer.clone())
            .metrics(&self.metrics);
        if self.watched {
            run = run.monitor(&self.monitor);
        }
        if let Some(tfc) = &self.tfc {
            run = run.tfc(tfc);
        }
        run
    }

    /// Admit one instance per pid into one scheduler over `sys`, every
    /// hand-off over `delivery` (`sys.channel()` unless the cell has its own),
    /// and drain the bus; returns how many ran to completion (in the
    /// scenario's step count, where it fixes one).
    pub fn fleet(
        &self,
        sys: &CloudSystem,
        pids: impl Iterator<Item = String>,
        delivery: &Delivery,
    ) -> usize {
        let initials: Vec<DraDocument> = pids.map(|pid| self.initial(&pid)).collect();
        let mut sched = Scheduler::new(sys);
        for initial in &initials {
            let run = self.run(sys, initial).network(delivery);
            sched.admit_instance(run).expect("admission succeeds");
        }
        let results = sched.run_to_completion();
        let complete = |steps: usize| self.steps.is_none_or(|expected| steps == expected);
        results.iter().filter(|(_, r)| r.as_ref().is_ok_and(|o| complete(o.steps))).count()
    }

    /// Walk process `pid` through the definition's activities in order,
    /// AEA by AEA with no cloud in between — the definition must be linear.
    /// Each item is one executed step, measured; the last one carries the
    /// finished document. `batched` is the AEAs' verification mode: one
    /// batch equation per receive, or the per-signature baseline.
    pub fn walk(
        &self,
        pid: &str,
        handoff: Handoff,
        batched: bool,
    ) -> impl Iterator<Item = ChainRecord> + '_ {
        let mut sealed = SealedDocument::new(self.initial(pid));
        self.def.activities.iter().enumerate().map(move |(step, activity)| {
            let aea = self.agent(&activity.participant).with_batched(batched);
            let wire = (handoff == Handoff::Wire).then(|| sealed.to_xml_string());
            dra_crypto::ed25519::ec_ops_reset();
            dra_xml::canon_alloc_reset();
            let t0 = Instant::now();
            // α includes the parse of what arrived as bytes
            let input = match &wire {
                Some(xml) => SealedDocument::from_wire(xml).expect("the wire parses"),
                None => sealed.clone(),
            };
            let received = aea.receive(input, &activity.id).expect("receive");
            let alpha = t0.elapsed();
            let ec_ops = dra_crypto::ed25519::ec_ops();
            let canon_alloc = dra_xml::canon_alloc_bytes();
            let responses = (self.respond)(&received);
            let t1 = Instant::now();
            sealed = aea.complete(&received, &responses).expect("complete").document;
            let beta = t1.elapsed();
            ChainRecord {
                step,
                alpha,
                beta,
                size: sealed.size_bytes(),
                sigs_verified: received.report.signatures_verified,
                ec_ops,
                canon_alloc,
                document: sealed.clone(),
            }
        })
    }

    /// [`Rig::walk`] to the end: the finished document.
    pub fn walked(&self, pid: &str) -> SealedDocument {
        self.walk(pid, Handoff::Wire, true).last().expect("a definition has activities").document
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_walks_and_scales() {
        let records: Vec<ChainRecord> =
            Rig::chain(6, true, |_| "x".into()).walk("chain-run", Handoff::Wire, false).collect();
        assert_eq!(records.len(), 6);
        // sizes strictly increase
        assert!(records.windows(2).all(|w| w[1].size > w[0].size));
        // signature count grows by one per step
        let sigs: Vec<usize> = records.iter().map(|r| r.sigs_verified).collect();
        assert_eq!(sigs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn batched_walk_matches_sequential_walk() {
        // 16 steps: the last hop checks 16 signatures, past `BATCH_MIN` (15)
        let rig = Rig::chain(16, true, |_| "x".into());
        let seq: Vec<ChainRecord> = rig.walk("chain-run", Handoff::Wire, false).collect();
        let bat: Vec<ChainRecord> = rig.walk("chain-run", Handoff::Wire, true).collect();
        assert_eq!(seq.len(), bat.len());
        for (s, b) in seq.iter().zip(bat.iter()) {
            assert_eq!(s.sigs_verified, b.sigs_verified, "step {}", s.step);
        }
        // the batch equation needs fewer group operations than n separate
        // checks once the cascade is past the crossover
        let (s, b) = (seq.last().unwrap().ec_ops, bat.last().unwrap().ec_ops);
        assert!(b < s, "batched {b} ops vs sequential {s} ops");
    }

    #[test]
    fn walked_document_verifies_and_a_sealed_walk_rechecks_one_cer_a_hop() {
        let rig = Rig::chain(4, false, |i| format!("data-{i}"));
        let report = Verifier::new(&rig.dir).batched(false).run(&rig.walked("chain-doc")).unwrap();
        assert_eq!(report.report.cers.len(), 4);
        let sigs: Vec<usize> =
            rig.walk("chain-doc", Handoff::Sealed, true).map(|r| r.sigs_verified).collect();
        assert_eq!(sigs, vec![1, 1, 1, 1], "the designer's, then one new CER per hop");
    }
}
