//! The Fig. 9 set-up every cloud claim shares: the cast, one AEA per
//! participant, the TFC of the advanced model, the scripted participants,
//! and the virtual-time instruments (network clock, tracer, metrics,
//! health monitor) a cell hangs its deployment on.

use crate::fig9;
use dra4wfms_core::prelude::*;
use dra_cloud::{
    tracer_for, CloudSystem, CrashPlan, Delivery, DeliveryPolicy, FaultProfile,
    FederationController, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim, Scheduler,
    Topology,
};
use dra_obs::{MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::sync::Arc;

/// The seeds every seeded sweep runs under.
pub const SEEDS: [u64; 3] = [1, 7, 42];

/// The scripted Fig. 9 participants: the loop is taken exactly once, so
/// every instance runs A, B1, B2, C(insufficient), A, B1, B2, C(accept), D.
pub fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "A" => vec![("attachment".into(), "contract.pdf".into())],
        "B1" => vec![("review1".into(), "ok".into())],
        "B2" => vec![("review2".into(), "ok".into())],
        "C" => vec![(
            "decision".into(),
            if received.iter == 0 { "insufficient" } else { "accept" }.into(),
        )],
        "D" => vec![("ack".into(), "done".into())],
        _ => vec![],
    }
}

/// One cell's worth of Fig. 9 actors and instruments. The deployment
/// itself (`CloudSystem`, `Delivery`) stays with the claim: that is where
/// the cells differ.
pub struct Fig9 {
    /// The deterministic cast, designer first.
    pub creds: Vec<Credentials>,
    /// Their public directory.
    pub dir: Directory,
    /// Fig. 9A, or 9B when the fixture is `advanced`.
    pub def: WorkflowDefinition,
    /// Public policy (deterministic document bytes), plus TFC access in
    /// the advanced model.
    pub policy: SecurityPolicy,
    /// A fresh LAN: the cell's virtual clock.
    pub network: Arc<NetworkSim>,
    /// Stamps spans in `network`'s virtual time.
    pub tracer: Tracer,
    /// Receives each run's end-of-run counters.
    pub metrics: MetricsRegistry,
    /// Default-configured; per-pid state keeps a cell's instances apart.
    pub monitor: Arc<HealthMonitor>,
    /// The crash schedule every actor and deployment of the cell consults.
    pub plan: Arc<CrashPlan>,
    /// One AEA per participant.
    pub agents: HashMap<String, Arc<Aea>>,
    /// The TFC (advanced model only), on a fixed clock.
    pub tfc: Option<TfcServer>,
}

impl Fig9 {
    /// Actors that never crash.
    pub fn new(advanced: bool) -> Fig9 {
        Fig9::crashing(advanced, &CrashPlan::none())
    }

    /// Actors consulting `plan` at every crash injection point. All of
    /// them record their stage spans on the cell's tracer.
    pub fn crashing(advanced: bool, plan: &Arc<CrashPlan>) -> Fig9 {
        let (creds, dir) = fig9::cast();
        let def = fig9::definition(advanced);
        let network = Arc::new(NetworkSim::lan());
        let tracer = tracer_for(&network);
        let agents = creds
            .iter()
            .map(|c| {
                let aea = Aea::new(c.clone(), dir.clone())
                    .with_crash_hook(plan.hook())
                    .with_tracer(tracer.clone());
                (c.name.clone(), Arc::new(aea))
            })
            .collect();
        let policy = if advanced {
            SecurityPolicy::public().with_tfc_access("TFC", &def)
        } else {
            SecurityPolicy::public()
        };
        let mut fixture = Fig9 {
            creds,
            dir,
            def,
            policy,
            network,
            tracer,
            metrics: MetricsRegistry::new(),
            monitor: HealthMonitor::new(MonitorConfig::default()),
            plan: Arc::clone(plan),
            agents,
            tfc: None,
        };
        if advanced {
            fixture.tfc = Some(fixture.tfc_server(Arc::new(|| 1_700_000_000_000)));
        }
        fixture
    }

    /// A TFC for this cast on `clock`, wired like the AEAs.
    pub fn tfc_server(&self, clock: dra4wfms_core::tfc::Clock) -> TfcServer {
        let creds = self.creds.iter().find(|c| c.name == "TFC").expect("TFC in the cast").clone();
        TfcServer::with_clock(creds, self.dir.clone(), clock)
            .with_crash_hook(self.plan.hook())
            .with_tracer(self.tracer.clone())
    }

    /// A traced `portals`-portal single-cloud deployment on this cell's
    /// network, under the cell's crash schedule.
    pub fn cloud(&self, portals: usize) -> CloudSystem {
        CloudSystem::new(self.dir.clone(), portals, Arc::clone(&self.network))
            .with_crash_plan(Arc::clone(&self.plan))
            .with_tracer(self.tracer.clone())
    }

    /// A federated deployment on this cell's network, its controller
    /// listening to the cell's monitor.
    pub fn federated(&self, topology: Topology) -> (CloudSystem, Arc<FederationController>) {
        let sys = CloudSystem::federated(self.dir.clone(), topology, Arc::clone(&self.network))
            .expect("valid topology");
        let ctrl = Arc::clone(sys.federation_controller().expect("federated"));
        ctrl.set_monitor(&self.monitor);
        (sys, ctrl)
    }

    /// A traced delivery channel over this cell's network injecting
    /// `profile` faults under the default retry policy.
    pub fn channel(&self, profile: FaultProfile, seed: u64) -> Delivery {
        Delivery::new(Arc::clone(&self.network), profile, DeliveryPolicy::default(), seed)
            .expect("valid profile")
            .with_tracer(self.tracer.clone())
    }

    /// The designer's initial document for process `pid`. Claims keep pids
    /// independent of fault, crash and outage seeds: stored bytes must vary
    /// with the workflow only, never with the schedule.
    pub fn initial(&self, pid: &str) -> DraDocument {
        DraDocument::new_initial_with_pid(&self.def, &self.policy, &self.creds[0], pid)
            .expect("initial document")
    }

    /// A run of `initial` on `sys` — over `delivery` when given, direct
    /// otherwise — with the cast, the script, the TFC (if any) and every
    /// instrument wired in.
    pub fn run<'a>(
        &'a self,
        sys: &'a CloudSystem,
        initial: &'a DraDocument,
        delivery: Option<&'a Delivery>,
    ) -> InstanceRun<'a> {
        let mut run = InstanceRun::new(sys, initial)
            .agents(&self.agents)
            .respond(&respond)
            .max_steps(100)
            .tracer(self.tracer.clone())
            .metrics(&self.metrics)
            .monitor(&self.monitor);
        if let Some(tfc) = &self.tfc {
            run = run.tfc(tfc);
        }
        if let Some(delivery) = delivery {
            run = run.network(delivery);
        }
        run
    }

    /// Admit one instance per pid into one scheduler over `sys` and drain
    /// the bus; returns how many completed the full 9-step run.
    pub fn fleet(
        &self,
        sys: &CloudSystem,
        pids: impl Iterator<Item = String>,
        delivery: Option<&Delivery>,
    ) -> usize {
        let initials: Vec<DraDocument> = pids.map(|pid| self.initial(&pid)).collect();
        let mut sched = Scheduler::new(sys);
        for initial in &initials {
            sched.admit_instance(self.run(sys, initial, delivery)).expect("admission succeeds");
        }
        let results = sched.run_to_completion();
        results.iter().filter(|(_, r)| r.as_ref().map(|o| o.steps) == Ok(9)).count()
    }
}
