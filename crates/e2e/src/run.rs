//! Set-up, the timed rounds and the output checker.
//!
//! Single process, one driver thread; the only other threads are the two
//! scan/audit workers the product spawns inside a sweep or an audit pass.
//!
//! A run is a sequence of *rounds*, each a fleet wave, an operator sweep, a
//! batch of point reads and a batch of solo instances, so that every metric is
//! sampled across the whole run: the host slows this box down for seconds at
//! a time, and a burst should hit a minority of a metric's samples, not all
//! of them.

use crate::workload::{generate, Cast, Inputs, InstanceSpec, Script, Shape, Sizes, Workload};
use dra4wfms_core::prelude::*;
use dra_cloud::{
    check_metric_invariants, AuditConfig, CloudSystem, InstanceRun, NetworkSim, PoolAuditor,
    RunOutcome, Scheduler, Topology,
};
use dra_obs::{MetricsRegistry, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads for scans and audit passes: the box has two cores.
pub const THREADS: usize = 2;
pub const PORTALS: usize = 8;
/// `retrieve_version` and `process_status` reads after each `pool_mixed` wave.
const WAVE_LOOKUPS: usize = 10;

/// Counts what was checked and what failed; a failure keeps its first few
/// descriptions for the report.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Add another deployment's checks to these.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// The seed-derived half of set-up: keys, definitions, signed initial
/// documents, scripted answers.
pub struct Prepared {
    pub workload: &'static Workload,
    pub sizes: Sizes,
    pub cast: Cast,
    pub inputs: Inputs,
    /// Shared, because a `dra_cloud::Responder` must be `'static`.
    pub script: Arc<Script>,
}

impl Prepared {
    pub fn new(workload: &'static Workload, sizes: Sizes, seed: u64) -> Prepared {
        let cast = Cast::new(workload.shape);
        let inputs = generate(workload, &cast, &sizes, seed);
        let script = Arc::new(Script::new(&inputs));
        Prepared { workload, sizes, cast, inputs, script }
    }
}

/// What the runner itself knows the pool must report.
#[derive(Default)]
pub struct Tally {
    pub completed: usize,
    pub steps: u64,
    pub steps_by_workflow: BTreeMap<String, usize>,
    /// SHA-256 of each completed instance's final wire document.
    pub finals: HashMap<String, [u8; 32]>,
}

/// One deployment with its agents, warmed up and ready for the first round.
pub struct Bench<'p> {
    pub prep: &'p Prepared,
    pub sys: CloudSystem,
    pub network: Arc<NetworkSim>,
    pub agents: HashMap<String, Arc<Aea>>,
    pub tfc: Option<TfcServer>,
    pub metrics: MetricsRegistry,
    pub tracer: Tracer,
    pub check: Checker,
    pub tally: Tally,
}

/// What one fleet wave cost: its wall, and on the driver thread the curve
/// operations and canonicalisation bytes of the product's thread-local
/// counters (the checker's own verifications stay outside).
pub struct WaveCost {
    pub wall: Duration,
    pub ec_ops: u64,
    pub canon_bytes: u64,
}

/// Timings and counts of the measured rounds.
#[derive(Default)]
pub struct Measured {
    /// Per round: the wave's hops ÷ the round's share of [`Measured::hops_wall`].
    pub round_hops_per_s: Vec<f64>,
    /// Wall the run's hops are held against: the waves, and on the federated
    /// workload also the sweeps, reads, lookups and audit passes between them.
    pub hops_wall: Duration,
    /// Wall of everything timed bar the solo batches.
    pub timed_wall: Duration,
    /// What the waves' hops spent: `NetworkSim` bytes and virtual time, and
    /// the [`WaveCost`] counters.
    pub fleet_hops: u64,
    pub fleet_wire_bytes: u64,
    pub fleet_virtual_us: u64,
    pub fleet_ec_ops: u64,
    pub fleet_canon_bytes: u64,
    /// One latency per solo instance.
    pub solo_ms: Vec<f64>,
    /// One aggregate sweep per round: its wall in ms, and the instances the
    /// pool held.
    pub sweeps: Vec<(f64, usize)>,
    /// One time per point read.
    pub retrieve_us: Vec<f64>,
    /// Rows the sweeps' scans touched.
    pub sweep_scanned_rows: u64,
}

impl Measured {
    /// Every hop of the run over the whole wall it is held against, so a
    /// round that ran slow, or one on a fuller pool, counts for what it cost.
    pub fn hops_per_s(&self) -> f64 {
        self.fleet_hops as f64 / self.hops_wall.as_secs_f64()
    }

    /// Each sweep's wall scaled to a pool of `instances`. A sweep scans every
    /// instance's rows and the pool grows from round to round; unscaled, the
    /// sweeps would not be repeats of one another and their median would be
    /// whichever middle round noise picks.
    pub fn sweep_ms(&self, instances: usize) -> Vec<f64> {
        self.sweeps.iter().map(|(ms, pool)| ms * instances as f64 / *pool as f64).collect()
    }
}

/// What one operator sweep answered.
struct SweepAnswers {
    /// Entries over every participant's TO-DO list.
    todo: usize,
    by_status: BTreeMap<String, usize>,
    steps: BTreeMap<String, usize>,
    /// Timestamp gaps `activity_latency_stats` counted.
    gaps: usize,
    dashboard: String,
}

impl<'p> Bench<'p> {
    /// Deploy and warm up: the second, deployment half of set-up.
    pub fn deploy(prep: &'p Prepared, tracer: Tracer) -> Bench<'p> {
        let dir = &prep.cast.dir;
        let network = Arc::new(NetworkSim::lan());
        let sys = if prep.workload.federated {
            let topology = Topology::new().cloud("east", PORTALS / 2).cloud("west", PORTALS / 2);
            CloudSystem::federated(dir.clone(), topology, Arc::clone(&network)).expect("topology")
        } else {
            CloudSystem::new(dir.clone(), PORTALS, Arc::clone(&network))
        }
        .with_tracer(tracer.clone());
        let agents = prep
            .cast
            .creds
            .iter()
            .map(|c| {
                let aea = Aea::new(c.clone(), dir.clone()).with_tracer(tracer.clone());
                (c.name.clone(), Arc::new(aea))
            })
            .collect();
        let tfc = (prep.workload.shape == Shape::Fig9 { advanced: true }).then(|| {
            // a fixed clock: timestamps, and so document bytes, repeat
            TfcServer::with_clock(
                prep.cast.get("TFC").clone(),
                dir.clone(),
                Arc::new(|| 1_700_000_000_000),
            )
            .with_tracer(tracer.clone())
        });
        let mut bench = Bench {
            prep,
            sys,
            network,
            agents,
            tfc,
            metrics: MetricsRegistry::new(),
            tracer,
            check: Checker::default(),
            tally: Tally::default(),
        };
        // fills sound_defs, the point-decompression memo and the TrustCache
        bench.run_fleet(&prep.inputs.warmup);
        bench
    }

    fn instance_run<'a>(
        &'a self,
        spec: &'a InstanceSpec,
        respond: &'a dra_cloud::Responder,
    ) -> InstanceRun<'a> {
        let run = InstanceRun::new(&self.sys, &spec.initial)
            .agents(&self.agents)
            .respond(respond)
            .max_steps(200)
            .tracer(self.tracer.clone())
            .metrics(&self.metrics);
        match &self.tfc {
            Some(server) => run.tfc(server),
            None => run,
        }
    }

    /// Closed loop over a fleet: admit every instance into one scheduler,
    /// drain it. Outcomes are checked after the clock stops.
    pub fn run_fleet(&mut self, specs: &'p [InstanceSpec]) -> WaveCost {
        let script = Arc::clone(&self.prep.script);
        let respond = move |r: &ReceivedActivity| script.respond(r);
        let (ec_ops, canon_bytes) = (dra_crypto::ed25519::ec_ops(), dra_xml::canon_alloc_bytes());
        let start = Instant::now();
        let results = {
            let mut sched = Scheduler::new(&self.sys);
            let admit = self.tracer.span("bench:admit");
            for spec in specs {
                // a refused admission leaves no result: the missing outcome
                // fails the instance below
                let _ = sched.admit_instance(self.instance_run(spec, &respond));
            }
            admit.end();
            let drain = self.tracer.span("bench:drain");
            let results = sched.run_to_completion();
            drain.end();
            results
        };
        let cost = WaveCost {
            wall: start.elapsed(),
            ec_ops: dra_crypto::ed25519::ec_ops() - ec_ops,
            canon_bytes: dra_xml::canon_alloc_bytes() - canon_bytes,
        };
        let mut by_pid: HashMap<String, WfResult<RunOutcome>> = results.into_iter().collect();
        for spec in specs {
            let outcome = by_pid.remove(&spec.pid);
            self.check_instance(spec, outcome);
        }
        cost
    }

    /// Closed loop, one client: instance after instance, one latency each.
    fn run_solo(&mut self, specs: &'p [InstanceSpec], m: &mut Measured) {
        let script = Arc::clone(&self.prep.script);
        let respond = move |r: &ReceivedActivity| script.respond(r);
        for spec in specs {
            let start = Instant::now();
            let outcome = self.instance_run(spec, &respond).run();
            m.solo_ms.push(start.elapsed().as_secs_f64() * 1e3);
            self.check_instance(spec, Some(outcome));
        }
    }

    fn check_instance(&mut self, spec: &InstanceSpec, outcome: Option<WfResult<RunOutcome>>) {
        let verdict = match outcome {
            None => Err("never admitted".to_string()),
            Some(Err(e)) => Err(format!("failed: {e}")),
            Some(Ok(out)) if out.steps != spec.expected_steps => {
                Err(format!("{} steps, expected {}", out.steps, spec.expected_steps))
            }
            Some(Ok(out)) => {
                match Verifier::new(&self.prep.cast.dir).run(out.document.document()) {
                    Err(e) => Err(format!("final document does not verify: {e}")),
                    Ok(verified) => {
                        let workflow = out
                            .document
                            .document()
                            .workflow_definition()
                            .map(|d| d.name)
                            .unwrap_or_default();
                        self.tally.completed += 1;
                        self.tally.steps += out.steps as u64;
                        *self.tally.steps_by_workflow.entry(workflow).or_default() +=
                            verified.report.cers.len();
                        self.tally.finals.insert(
                            spec.pid.clone(),
                            dra_crypto::sha256(out.document.wire().as_bytes()),
                        );
                        Ok(())
                    }
                }
            }
        };
        self.check
            .expect(verdict.is_ok(), || format!("instance {}: {}", spec.pid, verdict.unwrap_err()));
    }

    /// One aggregate operator sweep; records its wall. Returns the answers,
    /// for [`Bench::check_sweep`] once the round's clock has stopped.
    fn sweep(&self, m: &mut Measured) -> SweepAnswers {
        let sys = &self.sys;
        let tracer = &self.tracer;
        let scanned_before = self.scanned_rows();
        let start = Instant::now();
        let whole = tracer.span("bench:sweep");
        let op = tracer.span("bench:search_todo");
        let todo = self.prep.cast.creds.iter().map(|c| sys.search_todo(&c.name).len()).sum();
        op.end();
        let op = tracer.span("bench:statistics_by_status");
        let by_status = sys.statistics_by_status(THREADS);
        op.end();
        let op = tracer.span("bench:steps_per_workflow");
        let steps = sys.steps_per_workflow(THREADS);
        op.end();
        let op = tracer.span("bench:activity_latency_stats");
        let latency = sys.activity_latency_stats(THREADS);
        op.end();
        let op = tracer.span("bench:fleet_dashboard_json");
        let dashboard = sys.fleet_dashboard_json();
        op.end();
        whole.end();
        m.sweeps.push((start.elapsed().as_secs_f64() * 1e3, self.tally.completed));
        m.sweep_scanned_rows += self.scanned_rows() - scanned_before;
        // the TFC stamps every CER after an instance's first: one gap each
        let gaps = latency.values().map(|(n, _)| n).sum();
        SweepAnswers { todo, by_status, steps, gaps, dashboard }
    }

    /// A sweep's answers against the runner's own tally.
    fn check_sweep(&mut self, answers: SweepAnswers) {
        let tally = &self.tally;
        let count = |status: &str| answers.by_status.get(status).copied().unwrap_or(0);
        let expected_gaps =
            if self.tfc.is_some() { tally.steps as usize - tally.completed } else { 0 };
        let verdicts = [
            (count("complete") == tally.completed && count("running") == 0, "statistics_by_status"),
            (answers.steps == tally.steps_by_workflow, "steps_per_workflow"),
            (answers.todo == 0, "search_todo"),
            (answers.gaps == expected_gaps, "activity_latency_stats"),
            (
                answers
                    .dashboard
                    .contains(&format!("\"status\":{{\"complete\":{}}}", tally.completed)),
                "fleet_dashboard_json",
            ),
        ];
        for (ok, op) in verdicts {
            self.check.expect(ok, || format!("sweep answer of {op} disagrees with the runner"));
        }
    }

    /// Rows scanned so far, all clouds.
    fn scanned_rows(&self) -> u64 {
        self.sys.audit_pools().iter().map(|(_, _, pool)| pool.scan_counters().0 as u64).sum()
    }

    /// Timed `retrieve_latest` point reads of `picks` (indices into the
    /// fleet). Returns what was served, for [`Bench::check_reads`] to hold
    /// against the final documents once the round's clock has stopped.
    fn point_reads(&self, picks: &[usize], m: &mut Measured) -> Vec<Option<String>> {
        let fleet = &self.prep.inputs.fleet;
        picks
            .iter()
            .enumerate()
            .map(|(i, pick)| {
                let span = self.tracer.span("bench:retrieve_latest");
                let start = Instant::now();
                let served = self.sys.retrieve_latest(i % PORTALS, &fleet[*pick].pid);
                m.retrieve_us.push(start.elapsed().as_secs_f64() * 1e6);
                span.end();
                served
            })
            .collect()
    }

    /// Each served document must be the instance's final one.
    fn check_reads(&mut self, picks: &[usize], served: Vec<Option<String>>) {
        for (pick, xml) in picks.iter().zip(served) {
            let pid = &self.prep.inputs.fleet[*pick].pid;
            let digest = xml.map(|xml| dra_crypto::sha256(xml.as_bytes()));
            self.check.expect(digest.as_ref() == self.tally.finals.get(pid), || {
                format!("retrieve_latest({pid}) is not the final document")
            });
        }
    }

    /// Version and status lookups of the first few `picks`.
    fn lookups(&mut self, picks: &[usize]) {
        let fleet = &self.prep.inputs.fleet;
        for (i, pick) in picks.iter().take(WAVE_LOOKUPS).enumerate() {
            let spec = &fleet[*pick];
            let span = self.tracer.span("bench:retrieve_version");
            let version = self.sys.retrieve_version(&spec.pid, i % (spec.expected_steps + 1));
            span.end();
            let span = self.tracer.span("bench:process_status");
            let status = self.sys.process_status(&spec.pid);
            span.end();
            let steps = status.ok().flatten().map(|s| s.steps());
            self.check.expect(version.is_some(), || format!("version of {} missing", spec.pid));
            self.check.expect(steps == Some(spec.expected_steps), || {
                format!("process_status({}) reports {steps:?} steps", spec.pid)
            });
        }
    }

    /// The timed rounds. `solo` is off in the traced run, whose spans are
    /// about the fleet's hops and the sweeps.
    pub fn run_rounds(&mut self, m: &mut Measured, solo: bool) {
        let prep = self.prep;
        let rounds = prep.sizes.rounds;
        let waves = prep.inputs.fleet.chunks(prep.sizes.fleet / rounds);
        let mut batches = prep.inputs.solo.chunks(prep.sizes.solo.div_ceil(rounds));
        let auditor = PoolAuditor::new(AuditConfig { threads: THREADS, ..AuditConfig::default() });
        for (round, wave) in waves.enumerate() {
            let (bytes, virtual_us) = (self.network.bytes(), self.network.virtual_time_us());
            let steps = self.tally.steps;
            let cost = self.run_fleet(wave);
            let (wave_wall, hops) = (cost.wall, self.tally.steps - steps);
            m.fleet_ec_ops += cost.ec_ops;
            m.fleet_canon_bytes += cost.canon_bytes;
            m.fleet_hops += hops;
            m.fleet_wire_bytes += self.network.bytes() - bytes;
            m.fleet_virtual_us += self.network.virtual_time_us() - virtual_us;

            let beside = Instant::now();
            let answers = self.sweep(m);
            let served = self.point_reads(&prep.inputs.reads[round], m);
            if prep.workload.federated {
                self.lookups(&prep.inputs.reads[round]);
                let span = self.tracer.span("bench:audit_pass");
                let divergent = auditor.run_pass(&self.sys, None, self.network.virtual_time_us());
                span.end();
                self.check
                    .expect(divergent == 0, || format!("audit flagged {divergent} honest rows"));
            }
            // reads beside writes: on the federated workload the sweep, the
            // reads and the audit pass share the clock with the hops
            let beside = beside.elapsed();
            self.check_sweep(answers);
            self.check_reads(&prep.inputs.reads[round], served);
            m.timed_wall += wave_wall + beside;
            let round_wall = if prep.workload.federated { wave_wall + beside } else { wave_wall };
            m.hops_wall += round_wall;
            m.round_hops_per_s.push(hops as f64 / round_wall.as_secs_f64());

            if solo {
                self.run_solo(batches.next().unwrap_or_default(), m);
            }
        }
        auditor.export_metrics(&self.metrics);
    }

    /// Workload-level checks; returns the pool snapshot they were made on.
    pub fn final_checks(&mut self) -> Vec<u8> {
        self.sys.export_metrics(&self.metrics);
        let invariants = check_metric_invariants(&self.metrics.snapshot());
        self.check.expect(invariants.is_ok(), || {
            format!("metric invariants: {}", invariants.unwrap_err())
        });
        let snapshot = self.sys.snapshot_pool();
        if self.prep.workload.federated {
            let consistent = self.sys.replicas_consistent();
            self.check.expect(consistent, || "replicas hold different documents".to_string());
            let views = self.sys.views_match_scan(THREADS);
            self.check.expect(views.is_ok(), || format!("views != scan: {}", views.unwrap_err()));
            let digest = self.sys.pool_digest();
            let restored = CloudSystem::restore(
                self.prep.cast.dir.clone(),
                PORTALS,
                Arc::clone(&self.network),
                &snapshot,
            )
            .map(|sys| sys.pool_digest());
            self.check.expect(restored.as_ref() == Ok(&digest), || {
                format!("restored pool digest {restored:?} != {digest}")
            });
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Every workload end to end at N = 3, one instance per round: every
    /// phase of a round runs, every output checks out.
    #[test]
    fn smoke_run_of_every_workload() {
        for workload in &WORKLOADS {
            let sizes = Sizes { warmup: 1, fleet: 3, rounds: 3, solo: 3, reads: 6 };
            let prep = Prepared::new(workload, sizes, 7);
            let mut bench = Bench::deploy(&prep, Tracer::disabled());
            let mut m = Measured::default();
            bench.run_rounds(&mut m, true);
            let snapshot = bench.final_checks();
            assert_eq!(bench.check.failures, Vec::<String>::new(), "{}", workload.name);
            assert_eq!(bench.tally.completed, 7, "{}", workload.name);
            assert_eq!(m.solo_ms.len(), 3);
            assert_eq!(m.retrieve_us.len(), 6, "{}", workload.name);
            assert!(m.fleet_hops > 0 && m.fleet_wire_bytes > 0 && !snapshot.is_empty());
            assert_eq!((m.sweeps.len(), m.round_hops_per_s.len()), (3, 3));
            assert!(m.hops_per_s() > 0.0);
        }
    }
}
