//! Portal servers and the DRA4WfMS cloud system (§3, §4.2).
//!
//! Portals are stateless front doors: they authenticate users, verify
//! incoming documents, store them in the pool, maintain TO-DO indexes and
//! notify subsequent participants. All persistent state lives in the
//! document pool — which is why any number of portals can serve the same
//! deployment (the scalability story of the paper).

use crate::delivery::Delivery;
use crate::faults::FaultPlan;
use crate::federation::{tamper_bytes, FederationController, Topology};
use crate::netsim::NetworkSim;
use crate::sched::{Activation, ActivationBus};
use crate::schema::{self, Name, RowKey, SEQ, STATUS, STEPS, WORKFLOW};
use crate::store::{CloudStore, Proved, Stored, Tip};
use dra4wfms_core::faultpoint::site;
use dra4wfms_core::monitor::{self, ProcessStatus};
use dra4wfms_core::prelude::*;
use dra_docpool::{map_reduce_scan, record_bytes, FleetViews, HTable, PutOp};
use dra_obs::{stage, MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A portal's acknowledgement of a store request.
///
/// Idempotency receipt: when the same wire bytes are presented twice (a
/// duplicated or retransmitted copy on a faulty network), the portal
/// recognises them by digest and returns the original sequence number with
/// `duplicate = true` instead of growing the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreAck {
    /// Sequence number the document is stored under.
    pub seq: usize,
    /// `true` when these exact bytes were already stored and the request
    /// was suppressed rather than re-executed.
    pub duplicate: bool,
}

/// A pending work item for a participant (the TO-DO list of §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TodoEntry {
    /// Process instance id.
    pub process_id: String,
    /// The activity awaiting execution.
    pub activity: String,
}

/// Counters of one portal server.
#[derive(Debug, Default)]
pub struct PortalStats {
    /// Documents stored through this portal: counted once an admission is
    /// durable on the primary cloud, before it is replicated.
    pub stored: AtomicUsize,
    /// Documents served to users.
    pub retrieved: AtomicUsize,
    /// Verification passes performed (full or incremental).
    pub verifications: AtomicUsize,
    /// Individual signature checks executed across those passes — the cost
    /// a document's [`TrustMark`] exists to shrink.
    pub signature_checks: AtomicUsize,
    /// Verification passes that reused a verified prefix instead of
    /// re-checking every CER.
    pub incremental_verifications: AtomicUsize,
    /// Store requests recognised by wire digest as already stored and
    /// suppressed (duplicate copies on a faulty network).
    pub duplicates_suppressed: AtomicUsize,
    /// TO-DO notifications published as typed [`Activation`]s: one per
    /// routed target on admission, plus replay re-emissions and duplicate
    /// re-notifications. Must equal the bus's emission count
    /// (`sched.activations == portal.notifications`).
    pub notifications: AtomicUsize,
    /// Bytes SHA-256 absorbed keying admissions' `seen/` rows: what a digest
    /// resumed from a tip's checkpoint spares.
    pub sha256_bytes: AtomicUsize,
    /// Bytes admissions compared against a tip to cut their `doc/` rows:
    /// what a delta whose base is the latest version spares.
    pub memcmp_bytes: AtomicUsize,
}

/// The DRA4WfMS cloud system: a pool of documents behind `n` portal servers.
pub struct CloudSystem {
    /// Deployment PKI.
    pub directory: Directory,
    /// Per-portal statistics, index = portal id.
    pub portals: Vec<PortalStats>,
    /// Simulated network accounting for user↔portal transfers.
    pub network: Arc<NetworkSim>,
    /// See [`CloudSystem::channel`].
    channel: Delivery,
    /// The member clouds' storage, in declaration order; never empty. Every
    /// admission commits its full put batch through the active cloud's
    /// journal, so a portal crash between two rows is repaired by
    /// [`CloudSystem::recover_portals`]. A single-cloud deployment
    /// ([`CloudSystem::new`]) is a topology of one.
    pub(crate) clouds: Vec<CloudStore>,
    /// The control plane that owns quarantine/failover state, present only
    /// on deployments built with [`CloudSystem::federated`]. Without one,
    /// cloud 0 is always active, portals are never re-routed and serves are
    /// not probed — a controller would quarantine portals on retry storms
    /// and audit alerts, and a lone cloud has nowhere to fail over to.
    controller: Option<Arc<FederationController>>,
    /// Typed notification bus: every TO-DO row written by admission (or
    /// repaired by journal replay) also publishes an [`Activation`] here,
    /// which a [`crate::sched::Scheduler`] drains to dispatch the next hop
    /// — `notify` as an O(1) wake-up instead of an inert index row.
    bus: Arc<ActivationBus>,
    /// The fault script portals consult mid-admission and mid-serve, and
    /// the controller consults for each cloud's reachability.
    faults: Arc<FaultPlan>,
    /// Span recorder for portal admissions; disabled (free) unless
    /// [`CloudSystem::with_tracer`] is used.
    tracer: Tracer,
    /// Incrementally maintained fleet views — status and progress, fed by
    /// the fold over applied mutations below, and timestamp gaps, fed by
    /// admission. Dashboards read these in O(view size); the differential
    /// check [`CloudSystem::views_match_scan`] proves them equivalent to a
    /// fresh scan recompute.
    views: Arc<FleetViews>,
}

impl CloudSystem {
    fn assemble(
        directory: Directory,
        portals: usize,
        network: Arc<NetworkSim>,
        clouds: Vec<CloudStore>,
        controller: Option<Arc<FederationController>>,
    ) -> CloudSystem {
        CloudSystem {
            directory,
            portals: (0..portals).map(|_| PortalStats::default()).collect(),
            channel: Delivery::lossless(Arc::clone(&network)),
            network,
            clouds,
            controller,
            bus: Arc::new(ActivationBus::new()),
            faults: FaultPlan::none(),
            tracer: Tracer::disabled(),
            views: Arc::new(FleetViews::new()),
        }
    }

    /// Create a deployment with `portals` portal servers: a topology of one
    /// cloud named `cloud0`, no controller.
    pub fn new(directory: Directory, portals: usize, network: Arc<NetworkSim>) -> CloudSystem {
        Self::assemble(directory, portals.max(1), network, vec![CloudStore::new("cloud0")], None)
    }

    /// Create a **federated** deployment from a [`Topology`]: one pool +
    /// write-ahead journal per named cloud, portal indices spread across
    /// the clouds in declaration order, and a [`FederationController`]
    /// owning quarantine and failover. Cloud 0 starts active.
    pub fn federated(
        directory: Directory,
        topology: Topology,
        network: Arc<NetworkSim>,
    ) -> WfResult<CloudSystem> {
        topology.validate()?;
        let clouds = topology.clouds.iter().map(|c| CloudStore::new(&c.name)).collect();
        let total = topology.total_portals();
        let controller = Arc::new(FederationController::new(topology));
        Ok(Self::assemble(directory, total, network, clouds, Some(controller)))
    }

    /// The federation's control plane, when this deployment is federated.
    pub fn federation_controller(&self) -> Option<&Arc<FederationController>> {
        self.controller.as_ref()
    }

    /// Give the federation controller a chance to consume fresh health
    /// alerts (retry storms quarantine their portal at the threshold).
    /// No-op on single-cloud deployments; the scheduler calls this between
    /// dispatches.
    pub fn federation_poll(&self) {
        if let Some(controller) = &self.controller {
            controller.pump();
        }
    }

    /// Remap a requested portal to an eligible one — skip quarantined
    /// portals and down clouds — without counters or errors (the admission
    /// itself re-resolves authoritatively). Identity on single-cloud
    /// deployments.
    pub fn route_portal(&self, requested: usize) -> usize {
        match &self.controller {
            Some(controller) => controller.route(requested),
            None => requested,
        }
    }

    /// The pool serving reads right now: the active cloud's.
    pub fn active_pool(&self) -> &Arc<HTable> {
        self.active_cloud().pool()
    }

    /// Index of the active cloud: the controller's choice, cloud 0 without
    /// one.
    fn active_index(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.active_cloud())
    }

    /// The cloud an admission commits on before replicating to peers, and
    /// the one unrouted reads are served from.
    fn active_cloud(&self) -> &CloudStore {
        &self.clouds[self.active_index()]
    }

    /// The channel a run hands off over unless it names another
    /// ([`crate::runner::InstanceRun::network`]): lossless, over `network`,
    /// recording into the deployment's tracer.
    pub fn channel(&self) -> &Delivery {
        &self.channel
    }

    /// The deployment's activation bus (portals publish, schedulers drain).
    pub fn activation_bus(&self) -> &Arc<ActivationBus> {
        &self.bus
    }

    /// Deterministic portal choice for `(process_id, step)`: an inline
    /// FNV-1a hash — deliberately not the std hasher, whose random seed
    /// would break byte-determinism — so a fleet of instances spreads
    /// across every portal instead of melting portal 0 with its initial
    /// documents and round-robining hops in lock-step.
    pub fn portal_for(&self, process_id: &str, step: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in process_id.as_bytes().iter().chain((step as u64).to_le_bytes().iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.portals.len() as u64) as usize
    }

    /// Publish one TO-DO notification on the bus, counting it against
    /// portal `portal_idx` so `portal.notifications` and the bus's
    /// emission counter move in lock-step.
    fn notify(
        &self,
        portal_idx: usize,
        participant: &str,
        process_id: &str,
        activity: &str,
        seq: usize,
    ) {
        self.portals[portal_idx % self.portals.len()].notifications.fetch_add(1, Ordering::Relaxed);
        self.bus.emit(Activation {
            participant: participant.to_string(),
            process_id: process_id.to_string(),
            activity: activity.to_string(),
            seq,
            at_us: self.network.virtual_time_us(),
        });
    }

    /// Script this deployment's faults: portals consult `plan` at their
    /// crash sites during admission and at [`site::serve`] when serving, and
    /// the federation controller at [`site::cloud`] for each cloud's
    /// reachability.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> CloudSystem {
        self.faults = plan;
        self
    }

    /// Record `portal:admit` spans, the journal's commit/replay spans and
    /// the default channel's `deliver` spans into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> CloudSystem {
        for cloud in &self.clouds {
            cloud.set_tracer(tracer.clone());
        }
        self.channel = self.channel.with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Fold the deployment's counters — portal stats, journal records and
    /// replays and pool inventory summed across clouds, the controller's
    /// `federation.*` family when there is one — into one
    /// [`MetricsRegistry`] under stable names.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let sum = |f: fn(&PortalStats) -> &AtomicUsize| -> u64 {
            self.portals.iter().map(|p| f(p).load(Ordering::Relaxed) as u64).sum()
        };
        metrics.set_counter("portal.stored", sum(|p| &p.stored));
        metrics.set_counter("portal.retrieved", sum(|p| &p.retrieved));
        metrics.set_counter("portal.verifications", sum(|p| &p.verifications));
        metrics.set_counter("portal.signature_checks", sum(|p| &p.signature_checks));
        metrics
            .set_counter("portal.incremental_verifications", sum(|p| &p.incremental_verifications));
        metrics.set_counter("portal.duplicates_suppressed", sum(|p| &p.duplicates_suppressed));
        metrics.set_counter("portal.notifications", sum(|p| &p.notifications));
        metrics.set_counter("sched.activations", self.bus.emitted());
        metrics.set_gauge("sched.bus_depth", self.bus.len() as i64);
        metrics.set_counter("journal.records", self.clouds.iter().map(|c| c.journal_len()).sum());
        metrics.set_counter("journal.replayed_records", self.journal_replays());
        if let Some(controller) = &self.controller {
            let stats = controller.stats();
            metrics.set_counter("federation.replicas_acked", stats.replicas_acked);
            metrics.set_counter("federation.quarantines", stats.quarantines);
            metrics.set_counter("federation.failovers", stats.failovers);
            metrics.set_counter("federation.outages", stats.outages);
            metrics.set_counter("federation.reroutes", stats.reroutes);
            metrics.set_counter("federation.tampered_serves", stats.tampered_serves);
            metrics.set_gauge("federation.active_cloud", stats.active_cloud as i64);
            metrics.set_gauge("federation.clouds", self.clouds.len() as i64);
        }
        // pool inventory and scan-API accounting: how many rows the
        // deployment holds vs how many monitoring queries actually touched
        let (rows, scanned_rows, scanned_regions) =
            self.clouds.iter().fold((0, 0, 0), |(rows, sr, sg), c| {
                let (a, b) = c.pool().scan_counters();
                (rows + c.pool().row_count(), sr + a, sg + b)
            });
        metrics.set_counter("pool.rows", rows as u64);
        metrics.set_counter("pool.scanned_rows", scanned_rows as u64);
        metrics.set_counter("pool.scanned_regions", scanned_regions as u64);
    }

    /// Portal restart: replay every journaled-but-uncommitted admission
    /// batch into the pool, re-emitting an [`Activation`] for every
    /// repaired TO-DO row (the dying portal crashed before it could
    /// notify). Returns how many records were replayed (0 when no portal
    /// died mid-admission).
    pub fn recover_portals(&self) -> usize {
        let observer = |op: &PutOp| {
            // recovery feeds the views through the fold live admissions
            // use, so a torn admission leaves the views exactly as
            // consistent as the pool it repaired
            schema::fold_into_views(&self.views, [schema::applied(op)]);
            let Some(RowKey::Todo { participant, pid, activity }) = RowKey::parse(&op.key) else {
                return;
            };
            let seq = std::str::from_utf8(&op.value).ok().and_then(|s| s.parse().ok()).unwrap_or(0);
            self.notify(0, participant.as_str(), pid.as_str(), activity.as_str(), seq);
        };
        // every cloud replays its own journal into its own pool: a replica
        // torn between journal-append and commit is repaired exactly like a
        // torn primary. Re-emitted activations that turn out to be
        // duplicates are skipped harmlessly by the scheduler.
        self.clouds.iter().map(|cloud| cloud.replay(observer)).sum()
    }

    /// Total journal records replayed by portal recoveries so far, summed
    /// across clouds.
    pub fn journal_replays(&self) -> u64 {
        self.clouds.iter().map(CloudStore::journal_replays).sum()
    }

    /// Look up the sequence number some exact wire bytes were stored under
    /// (via the same digest row duplicate suppression uses). `None` when
    /// these bytes never completed admission.
    pub fn stored_seq_for(&self, wire: &str) -> Option<usize> {
        self.active_cloud().seq_of(&dra_crypto::sha256(wire.as_bytes()))
    }

    /// The one byte-level admission entry — the deployment's trust boundary:
    /// parse `wire` as it arrived and run the admission pipeline on it, the
    /// full signature pass included: bytes carry no mark. Charges nothing:
    /// whoever put the bytes on a channel was charged for every physical
    /// copy ([`Delivery`]).
    ///
    /// Idempotent: re-presenting bytes already stored acks the original
    /// sequence number with `duplicate = true` and grows nothing.
    pub fn ingest_wire(&self, portal: usize, wire: &str, route: &Route) -> WfResult<StoreAck> {
        self.admit(portal, &SealedDocument::from_wire(wire)?, route)
    }

    /// The portal's admission pipeline (steps 4–6 of Fig. 7) for a whole
    /// copy: duplicate suppression by wire digest, verification (incremental
    /// when the document's [`TrustMark`] still pins its prefix), storage of
    /// the wire bytes as they are, TO-DO notification.
    pub(crate) fn admit(
        &self,
        portal: usize,
        sealed: &SealedDocument,
        route: &Route,
    ) -> WfResult<StoreAck> {
        let portal_idx = self.resolve(portal)?;
        self.store(portal_idx, sealed, None, route)
    }

    /// [`CloudSystem::admit`] for a copy that travelled as a delta: `keep`
    /// bytes of the version named `base`, then the sender's bytes past
    /// `keep` — or, when the copy was damaged, the `damaged` ones it carried.
    /// The wire is rebuilt from the active cloud's head of that name
    /// ([`Heads::arrived`](dra4wfms_core::sealed::Heads::arrived)): intact,
    /// the sender's document is admitted as an intact whole copy is; damaged,
    /// it is parsed and verified from the rebuilt bytes. A base the cloud
    /// holds no head for is refused with [`WfError::UnknownBase`] before a
    /// byte is read: `whole` answers the refusal with the whole wire,
    /// admitted on the portal already chosen.
    pub(crate) fn admit_delta(
        &self,
        portal: usize,
        sender: &SealedDocument,
        (base, keep): (&[u8; 32], usize),
        damaged: Option<&str>,
        whole: impl FnOnce(WfError) -> WfResult<SealedDocument>,
        route: &Route,
    ) -> WfResult<StoreAck> {
        let portal_idx = self.resolve(portal)?;
        match self.active_cloud().arrived((base, keep), damaged, sender) {
            Err(refusal @ WfError::UnknownBase(_)) => {
                self.store(portal_idx, &whole(refusal)?, None, route)
            }
            arrived => {
                let (tip, sealed) = arrived?;
                self.store(portal_idx, &sealed, Some((&tip, keep)), route)
            }
        }
    }

    /// The portal an admission addressed to `portal` runs on. On a federated
    /// deployment the controller owns the final choice: it runs the outage
    /// dance for the target cloud (touches of an unconfirmed-dead cloud
    /// surface as retriable crashes), then re-routes past quarantined
    /// portals and down clouds. Single-cloud: plain modulo.
    fn resolve(&self, portal: usize) -> WfResult<usize> {
        match &self.controller {
            Some(controller) => {
                controller.resolve_admission(portal, self.network.virtual_time_us(), &self.faults)
            }
            None => Ok(portal % self.portals.len()),
        }
    }

    /// The admission pipeline on portal `portal_idx`, for `sealed` as it
    /// arrived — rebuilt from `base`, keeping the given bytes of it, when it
    /// travelled as a delta.
    fn store(
        &self,
        portal_idx: usize,
        sealed: &SealedDocument,
        base: Option<(&Tip, usize)>,
        route: &Route,
    ) -> WfResult<StoreAck> {
        let active = self.active_cloud();
        let stats = &self.portals[portal_idx];
        let actor = format!("portal:{portal_idx}");
        let mut span = self.tracer.span(stage::PORTAL_ADMIT).actor(&actor);
        // claimed, not proved: verification is further down
        let claimed = sealed.document().process_id().ok();
        if let Some(pid) = &claimed {
            span.set_process(pid);
        }
        let wire = sealed.wire();
        // one measurement of the wire against the version it extends and the
        // latest version of the process it claims: the digest for the `seen/`
        // key, the bytes kept for the `doc/` row. No tip answers to a claim
        // nothing was committed under.
        let mut cut = active.cut(claimed.as_deref().unwrap_or_default(), &wire, base);
        let digest = cut.digest;
        debug_assert_eq!(digest, dra_crypto::sha256(wire.as_bytes()), "resumed ≠ cold digest");
        stats.sha256_bytes.fetch_add(cut.hashed, Ordering::Relaxed);

        // idempotency: bytes we have already stored are acked, not
        // re-stored — a duplicated or retransmitted copy costs nothing but
        // the transfer.
        if let Some(seq) = active.seq_of(&digest) {
            stats.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
            // re-notify: the retransmitted copy proves the sender believes
            // the hand-off is still pending. For every routed target whose
            // TO-DO row is still unconsumed, publish a fresh activation —
            // a duplicate wake-up is skipped harmlessly by the scheduler,
            // a lost one would strand the instance.
            let definition = dra4wfms_core::amendment::effective_definition(sealed)?;
            if let Some(pid) = &claimed {
                for target in &route.targets {
                    let Ok(act) = definition.def.activity(target) else { continue };
                    // (names no key can hold have no TO-DO row to re-notify)
                    let todo = RowKey::todo(&act.participant, pid, target);
                    if todo.is_ok_and(|todo| active.todo_pending(todo)) {
                        self.notify(portal_idx, &act.participant, pid, target, seq);
                    }
                }
            }
            span.attr("seq", seq);
            span.attr("duplicate", true);
            span.end();
            return Ok(StoreAck { seq, duplicate: true });
        }

        // the portal verifies before storing — a malformed or tampered
        // document never enters the pool. A trust mark only ever *narrows*
        // the work: its prefix digest must match byte-identically, and any
        // mismatch falls back to the full signature pass.
        let mut span_verify = self.tracer.span(stage::VERIFY).actor(&actor);
        if let Some(pid) = &claimed {
            span_verify.set_process(pid);
        }
        let outcome = Verifier::new(&self.directory).with_mark(sealed.trust()).run(sealed)?;
        span_verify.attr("signatures_verified", outcome.report.signatures_verified);
        span_verify.attr("reused_cers", outcome.reused_cers);
        span_verify.end();
        stats.verifications.fetch_add(1, Ordering::Relaxed);
        stats.signature_checks.fetch_add(outcome.report.signatures_verified, Ordering::Relaxed);
        if outcome.reused_cers > 0 {
            stats.incremental_verifications.fetch_add(1, Ordering::Relaxed);
        }
        let report = outcome.report;

        // a process id no row key can hold is refused before any row is
        // written: with a `/` in it, its rows would sit under another
        // process's prefix and be served as that process's versions
        let pid = Name::new(&report.process_id)?;
        let seq = active.next_seq(pid, &mut cut, &wire);
        stats.memcmp_bytes.fetch_add(cut.compared, Ordering::Relaxed);
        let definition = dra4wfms_core::amendment::effective_definition(sealed)?;
        // design-time soundness gate: a definition that can deadlock, starve
        // an activity or orphan a join is rejected *here*, before any row is
        // written — the designer gets the diagnostic while the fix is still
        // a document edit, not a stranded instance. The verdict lives with
        // the shared parse, so the reachability analysis runs once per
        // definition content; amendments re-enter the gate because a folded
        // definition is an entry of its own.
        definition.require_sound()?;
        let def = &definition.def;
        let status = if route.is_final() { "complete" } else { "running" };

        // The full admission as one journaled batch: the version's two rows
        // (`seen/` first), the monitoring meta row (amendments folded in, so
        // dynamically added activities resolve), and one TO-DO entry per
        // routed target's participant.
        let mut ops = Vec::from(active.version_rows(pid, seq, &cut, &wire));
        ops.push(STATUS.put(RowKey::Meta(pid), status));
        ops.push(STEPS.put(RowKey::Meta(pid), report.cers.len().to_string()));
        ops.push(WORKFLOW.put(RowKey::Meta(pid), def.name.clone()));
        let mut notified: Vec<(&str, &str)> = Vec::with_capacity(route.targets.len());
        for target in &route.targets {
            let participant = &def.activity(target)?.participant;
            ops.push(SEQ.put(RowKey::todo(participant, pid.as_str(), target)?, seq.to_string()));
            notified.push((participant, target));
        }

        // the admission becomes durable on the active cloud (the `seen/`
        // row lands before the crash point), is folded into the fleet views
        // through the same fold crash replay uses, and is counted as stored:
        // a retry after a torn replica commit is a duplicate on this cloud
        let crash = || self.faults.check(site::PORTAL_BETWEEN_SEEN_AND_STORE);
        active.commit(&ops, 1, crash)?;
        if let Some(mark) = &outcome.mark {
            let executed = report.cers.last().map(|cer| cer.activity.as_str());
            let proved = Proved { name: mark.prefix_digest, executed, route };
            active.advance(pid, seq, Arc::clone(&wire), cut, proved);
        }
        schema::fold_into_views(&self.views, ops.iter().map(schema::applied));
        // the tree the verifier has just checked: attribute reads, no parse
        self.views.record_gaps(pid.as_str(), seq as u64, monitor::gaps(sealed.document()));
        stats.stored.fetch_add(1, Ordering::Relaxed);
        self.replicate(&ops)?;
        // notify after commit: an activation must never outrun its TO-DO
        // row. The crash window above never reaches this point — replay
        // re-emits the repaired admission's notifications instead.
        for (participant, target) in notified {
            self.notify(portal_idx, participant, pid.as_str(), target, seq);
        }
        span.attr("seq", seq);
        span.attr("duplicate", false);
        span.attr("signatures", report.signatures_verified);
        span.end();
        Ok(StoreAck { seq, duplicate: false })
    }

    /// Replication: ship, charge and commit an admission's batch on every
    /// reachable peer cloud before acking — the journal record, whose `doc/`
    /// row holds what the hop appended. A replica torn between append and
    /// commit (the `PORTAL_REPLICA_BEFORE_COMMIT` site) is repaired by its
    /// own journal's replay in [`CloudSystem::recover_portals`]; the views
    /// were fed by the primary's commit already.
    fn replicate(&self, ops: &[PutOp]) -> WfResult<()> {
        let Some(controller) = &self.controller else { return Ok(()) };
        let now_us = self.network.virtual_time_us();
        for cloud in controller.replica_targets(now_us, &self.faults) {
            self.network.transfer(record_bytes(ops));
            let crash = || self.faults.check(site::PORTAL_REPLICA_BEFORE_COMMIT);
            self.clouds[cloud].commit(ops, 0, crash)?;
            controller.ack_replica();
        }
        Ok(())
    }

    /// Retrieve the latest stored document of a process (step 2 of Fig. 7).
    ///
    /// On a federated deployment the serve is resolved to an eligible
    /// portal and integrity-probed before it leaves: what is about to be
    /// served must be an honest version of the serving cloud's row it was
    /// read from (`store::CloudStore::honest`: the `seen/` row of its
    /// bytes names that version and it proves this process; bytes no
    /// `seen/` row names go through the full signature pass). A failure
    /// raises the typed `portal_tampered` alert, quarantines the serving
    /// portal and re-serves from the next eligible one.
    pub fn retrieve_latest(&self, portal: usize, process_id: &str) -> Option<String> {
        let pid = Name::new(process_id).ok()?;
        let Some(controller) = &self.controller else {
            let xml = self.active_cloud().latest(pid)?.xml.ok()?;
            return Some(self.serve(portal % self.portals.len(), xml));
        };
        // bounded by the portal count: every failed probe quarantines its
        // serving portal, so the candidate set strictly shrinks
        for _ in 0..self.portals.len() {
            let serving = controller.resolve_serve(portal)?;
            let cloud = &self.clouds[controller.topology().cloud_of(serving)];
            let Stored { key, xml } = cloud.latest(pid)?;
            // a tampered serve corrupts the *served copy*, never the pool
            let now_us = self.network.virtual_time_us();
            let tamper = self.faults.visit(&site::serve(serving), now_us).is_some();
            if tamper {
                controller.tampered_serve();
            }
            let served =
                Stored { key, xml: xml.map(|x| if tamper { tamper_bytes(&x) } else { x }) };
            match cloud.honest(&served, &self.directory) {
                Ok(_) => return served.xml.ok().map(|xml| self.serve(serving, xml)),
                Err(divergence) => controller.on_tamper(
                    serving,
                    process_id,
                    &dra_crypto::hex::encode(&divergence.digest),
                    self.network.virtual_time_us(),
                ),
            }
        }
        None
    }

    /// Hand `xml` to the user through portal `portal_idx`: charge the
    /// transfer, count the serve.
    fn serve(&self, portal_idx: usize, xml: String) -> String {
        self.network.transfer(xml.len());
        self.portals[portal_idx].retrieved.fetch_add(1, Ordering::Relaxed);
        xml
    }

    /// Retrieve a specific stored version (from the active cloud's pool).
    pub fn retrieve_version(&self, process_id: &str, seq: usize) -> Option<String> {
        self.active_cloud().version(Name::new(process_id).ok()?, seq)
    }

    /// The TO-DO list of a participant ("a list of links of DRA4WfMS
    /// documents where s/he is one of the participants of the subsequent
    /// activities", §4.2).
    pub fn search_todo(&self, participant: &str) -> Vec<TodoEntry> {
        Name::new(participant)
            .map_or(vec![], |participant| self.active_cloud().todos_of(participant))
    }

    /// Remove a consumed TO-DO entry (after the activity executed); returns
    /// whether the active cloud held it. The consumption propagates to
    /// every replica — a failover must not resurrect work a participant
    /// already finished.
    pub fn consume_todo(&self, participant: &str, process_id: &str, activity: &str) -> bool {
        let Ok(todo) = RowKey::todo(participant, process_id, activity) else { return false };
        let active = self.active_index();
        let mut on_active = false;
        for (i, cloud) in self.clouds.iter().enumerate() {
            on_active |= cloud.remove(todo) && i == active;
        }
        on_active
    }

    /// Monitoring: the status of one process instance, derived from its
    /// latest stored document — which must be an honest version of that
    /// process ([`WfError::Verify`] otherwise, never some other status).
    pub fn process_status(&self, process_id: &str) -> WfResult<Option<ProcessStatus>> {
        let active = self.active_cloud();
        let Some(stored) = Name::new(process_id).ok().and_then(|pid| active.latest(pid)) else {
            return Ok(None);
        };
        let doc = active.honest(&stored, &self.directory)?;
        Ok(Some(ProcessStatus::from_document(&doc)?))
    }

    /// MapReduce statistics over every stored process: instance counts per
    /// status (the paper's "statistical analyses to workflow processes or
    /// instances stored in the DRA4WfMS cloud system"). Runs over a `meta/`
    /// prefix scan with family projection — document rows are never touched.
    /// `_threads` is ignored: `crates/e2e` still passes it, and ROADMAP item 1
    /// removes it.
    pub fn statistics_by_status(&self, _threads: usize) -> BTreeMap<String, usize> {
        map_reduce_scan(
            self.active_cloud().pool(),
            &schema::all_meta(),
            |_, row| STATUS.of(row).map(|s| (s, 1usize)).into_iter().collect(),
            |_, vs| vs.len(),
        )
    }

    /// Per-activity count and mean TFC-timestamp gap ([`monitor::gaps`]) over
    /// the latest stored version of every process (advanced model) — the
    /// "statistics on the performance of one or more processes" that §2.2
    /// says monitoring must provide. Returns
    /// `activity -> (executions, mean gap ms)`. A view: admission records
    /// each version's gaps, and the pool is read only for a process whose
    /// entry lags its progress. `_threads` is ignored: `crates/e2e` still passes
    /// it, and ROADMAP item 1 removes it.
    pub fn activity_latency_stats(&self, _threads: usize) -> BTreeMap<String, (usize, f64)> {
        self.fill_lagging_gaps();
        let totals = self.views.gap_totals().into_iter();
        totals.map(|(activity, (n, sum))| (activity, (n as usize, sum as f64 / n as f64))).collect()
    }

    /// Measure each process whose gap entry is older than its progress — an
    /// admission torn before it recorded, which replay repaired, or a cold
    /// restart — once, on its latest stored version; the result is kept.
    fn fill_lagging_gaps(&self) {
        let active = self.active_cloud();
        for (pid, seq) in self.views.lagging_gaps() {
            let gaps = Name::new(&pid).ok().and_then(|pid| latest_document(active, pid));
            self.views.record_gaps(&pid, seq, gaps.as_ref().map(monitor::gaps).unwrap_or_default());
        }
    }

    /// MapReduce: total executed steps per workflow name.
    /// `_threads` is ignored: `crates/e2e` still passes it, and ROADMAP item 1
    /// removes it.
    pub fn steps_per_workflow(&self, _threads: usize) -> BTreeMap<String, usize> {
        map_reduce_scan(
            self.active_cloud().pool(),
            &schema::all_meta(),
            |_, row| {
                let steps = STEPS.of(row).and_then(|s| s.parse::<usize>().ok());
                match (WORKFLOW.of(row), steps) {
                    (Some(w), Some(n)) => vec![(w, n)],
                    _ => vec![],
                }
            },
            |_, vs| vs.iter().sum(),
        )
    }

    /// The deployment's incremental fleet views.
    pub fn fleet_views(&self) -> &Arc<FleetViews> {
        &self.views
    }

    /// The full fleet dashboard as byte-deterministic JSON — the
    /// incremental views, each portal's stored and notification counts and
    /// each cloud's journal length; no pool scan involved.
    pub fn fleet_dashboard_json(&self) -> String {
        let count = |n: &AtomicUsize| n.load(Ordering::Relaxed) as u64;
        let portals: Vec<(u64, u64)> =
            self.portals.iter().map(|p| (count(&p.stored), count(&p.notifications))).collect();
        let clouds: Vec<(&str, u64)> =
            self.clouds.iter().map(|c| (c.name.as_str(), c.journal_len())).collect();
        self.views.dashboard_json(&portals, &clouds)
    }

    /// Full MapReduce recompute of the pool-derived views over the scan API
    /// — the oracle the incremental fold is held against, so it shares the
    /// key codec with it and nothing else.
    fn recompute_views_from_pool(&self) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
        let status = self.statistics_by_status(1);
        let status = status.into_iter().map(|(status, n)| (status, n as u64)).collect();
        (status, self.active_cloud().progress_by_scan())
    }

    /// The differential check `views ≡ scan`: recompute the pool-derived
    /// views (status counts, per-process progress, and the latency answer as
    /// per-activity gap count and sum, each latest stored version parsed
    /// afresh) with a MapReduce over the scan API and compare cell by cell.
    /// `Ok(())` when identical; `Err` names the first divergent cell.
    /// `_threads` is ignored: `crates/e2e` still passes it, and ROADMAP item 1
    /// removes it.
    pub fn views_match_scan(&self, _threads: usize) -> Result<(), String> {
        let (status, progress) = self.recompute_views_from_pool();
        let active = self.active_cloud();
        let gaps = map_reduce_scan(
            active.pool(),
            &schema::all_meta(),
            |key, _| match RowKey::parse(key) {
                Some(RowKey::Meta(pid)) => {
                    latest_document(active, pid).map(|doc| monitor::gaps(&doc)).unwrap_or_default()
                }
                _ => vec![],
            },
            |_, gaps| (gaps.len() as u64, gaps.iter().sum()),
        );
        self.fill_lagging_gaps();
        self.views.diff_against(&status, &progress, &gaps)
    }

    /// The scan-recomputed pool views rendered in the identical byte format
    /// as [`FleetViews::pool_view_json`] — the byte-identity half of the
    /// differential check for benches that compare whole renderings.
    pub fn recompute_pool_view_json(&self) -> String {
        let (status, progress) = self.recompute_views_from_pool();
        FleetViews::render_pool_view(&status, &progress)
    }

    /// The pools the continuous auditor samples, as `(cloud name, cloud
    /// index, pool)` per member cloud.
    pub fn audit_pools(&self) -> Vec<(String, usize, Arc<HTable>)> {
        self.clouds
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i, Arc::clone(c.pool())))
            .collect()
    }

    /// Branch heads the clouds hold (see `store`): what a delta hand-off is
    /// rebuilt from, none once every process has ended.
    pub fn tips_held(&self) -> usize {
        self.clouds.iter().map(CloudStore::tips_held).sum()
    }

    /// Total documents stored across portals.
    pub fn total_stored(&self) -> usize {
        self.portals.iter().map(|p| p.stored.load(Ordering::Relaxed)).sum()
    }

    /// Total duplicate store requests suppressed across portals.
    pub fn total_duplicates_suppressed(&self) -> usize {
        self.portals.iter().map(|p| p.duplicates_suppressed.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot the entire document pool (disaster recovery; the HDFS role
    /// in the paper's stack). On a federated deployment this snapshots the
    /// active cloud's pool — the surviving truth.
    pub fn snapshot_pool(&self) -> Vec<u8> {
        self.active_cloud().snapshot()
    }

    /// SHA-256 digest over every stored document row (`doc/…`) of the
    /// active pool, keys and bytes, in key order — the byte-identity
    /// oracle the crash and federation sweeps compare runs with. Two
    /// deployments with equal digests hold exactly the same documents
    /// under exactly the same sequence numbers.
    pub fn pool_digest(&self) -> String {
        self.active_cloud().doc_digest()
    }

    /// Bytes the active cloud's `doc/` rows hold: what keeping every version
    /// of every process costs, each row holding what its hop appended.
    pub fn stored_doc_bytes(&self) -> u64 {
        self.active_cloud().doc_bytes()
    }

    /// Per-cloud [`CloudSystem::pool_digest`]s: `(cloud name, SHA-256 hex)`
    /// in declaration order. Single-cloud deployments report one entry named
    /// `cloud0`.
    pub fn cloud_digests(&self) -> Vec<(String, String)> {
        self.clouds.iter().map(|c| (c.name.clone(), c.doc_digest())).collect()
    }

    /// Export every cloud's write-ahead journal as `(name, bytes)` — the
    /// persistence seam a real deployment would fsync per cloud; the bytes
    /// round-trip through [`dra_docpool::Journal::import`], which drops a
    /// torn final record. Single-cloud deployments export one entry named
    /// `cloud0`.
    pub fn journal_snapshots(&self) -> Vec<(String, Vec<u8>)> {
        self.clouds.iter().map(|c| (c.name.clone(), c.journal_export())).collect()
    }

    /// Do all clouds that are still up hold the same stored versions — the
    /// same [`CloudSystem::pool_digest`]? (Down clouds are excluded: a
    /// confirmed-dead replica legitimately stops at the admission where it
    /// died.) Trivially true single-cloud.
    pub fn replicas_consistent(&self) -> bool {
        let down = |i: usize| self.controller.as_ref().is_some_and(|c| c.cloud_down(i));
        let mut live =
            self.clouds.iter().enumerate().filter(|(i, _)| !down(*i)).map(|(_, c)| c.doc_digest());
        let Some(first) = live.next() else { return true };
        live.all(|digest| digest == first)
    }

    /// Rebuild a cloud system from a pool snapshot — a cold restart of the
    /// deployment. Portal counters reset; every stored document, TO-DO
    /// entry and meta row survives.
    pub fn restore(
        directory: Directory,
        portals: usize,
        network: Arc<NetworkSim>,
        snapshot: &[u8],
    ) -> WfResult<CloudSystem> {
        let cloud = CloudStore::from_snapshot("cloud0", snapshot)?;
        let sys = Self::assemble(directory, portals.max(1), network, vec![cloud], None);
        sys.active_cloud().seed_views(&sys.views);
        Ok(sys)
    }
}

/// The latest stored version of `pid` on `cloud`, parsed.
fn latest_document(cloud: &CloudStore, pid: Name<'_>) -> Option<DraDocument> {
    DraDocument::parse(&cloud.latest(pid)?.xml.ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CloudSystem, WorkflowDefinition, SecurityPolicy, Credentials, Credentials) {
        let designer = Credentials::from_seed("designer", "d");
        let alice = Credentials::from_seed("alice", "a");
        let bob = Credentials::from_seed("bob", "b");
        let def = WorkflowDefinition::builder("po", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .simple_activity("approve", "bob", &["decision"])
            .flow("submit", "approve")
            .flow_end("approve")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer, &alice, &bob]);
        let sys = CloudSystem::new(dir, 2, Arc::new(NetworkSim::lan()));
        (sys, def, SecurityPolicy::public(), designer, alice)
    }

    fn versions(sys: &CloudSystem, pid: &str) -> usize {
        (0..).take_while(|&seq| sys.retrieve_version(pid, seq).is_some()).count()
    }

    #[test]
    fn store_retrieve_roundtrip() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-1").unwrap();
        let route = Route { targets: vec!["submit".into()], ends: false };
        let ack = sys.ingest_wire(0, &doc.to_xml_string(), &route).unwrap();
        assert_eq!(ack, StoreAck { seq: 0, duplicate: false });
        let xml = sys.retrieve_latest(0, "p-1").unwrap();
        assert_eq!(xml, doc.to_xml_string());
        assert_eq!(sys.retrieve_version("p-1", 0).unwrap(), xml);
        assert!(sys.retrieve_version("p-1", 3).is_none());
    }

    #[test]
    fn definition_map_stays_bounded_and_evicted_definitions_are_rechecked() {
        use dra4wfms_core::amendment::{
            definition_cache_len, effective_definition, DEFINITION_CACHE_ENTRIES,
        };
        let (sys, _, pol, designer, _) = setup();
        // a tenant submitting ever new definitions: distinct, sound, valid
        let variant = |i: usize| {
            WorkflowDefinition::builder(format!("tenant-wf-{i}"), "designer")
                .simple_activity("submit", "alice", &["amount"])
                .flow_end("submit")
                .build()
                .unwrap()
        };
        let admit = |def: &WorkflowDefinition, pid: &str| {
            let doc = DraDocument::new_initial_with_pid(def, &pol, &designer, pid).unwrap();
            let route = Route { targets: vec![def.start.clone()], ends: false };
            sys.ingest_wire(0, &doc.to_xml_string(), &route).map(|_| doc)
        };

        let first = admit(&variant(0), "tenant-0").unwrap();
        let entry = effective_definition(&first).unwrap();
        assert!(entry.soundness_checked(), "admission ran the soundness gate");

        let distinct = DEFINITION_CACHE_ENTRIES + 8;
        for i in 1..distinct {
            admit(&variant(i), &format!("tenant-{i}")).unwrap();
            assert!(definition_cache_len() <= DEFINITION_CACHE_ENTRIES);
        }
        assert_eq!(definition_cache_len(), DEFINITION_CACHE_ENTRIES, "full, not growing");

        // definition 0 was evicted: it comes back as a new entry without a
        // verdict, so its next admission runs the gate again
        let again = effective_definition(&first).unwrap();
        assert!(!Arc::ptr_eq(&entry, &again), "evicted, then parsed afresh");
        assert!(!again.soundness_checked(), "no verdict survives eviction");
        admit(&variant(0), "tenant-0-again").unwrap();
        assert!(again.soundness_checked(), "evicted ⇒ re-checked");

        // and the gate still bites after all that churn
        let deadlock = WorkflowDefinition::builder("tenant-deadlock", "designer")
            .simple_activity("A", "alice", &["x"])
            .simple_activity("B", "alice", &["y"])
            .simple_activity("C", "bob", &["z"])
            .activity(Activity {
                id: "J".into(),
                participant: "bob".into(),
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
            .unwrap();
        for attempt in 0..2 {
            let err = admit(&deadlock, &format!("tenant-dl-{attempt}")).unwrap_err();
            assert!(matches!(err, WfError::Unsound(_)), "attempt {attempt}: {err}");
        }
    }

    #[test]
    fn tampered_document_never_enters_pool() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-2").unwrap();
        let tampered = doc.to_xml_string().replace("alice", "mallory");
        let route = Route::default();
        assert!(sys.ingest_wire(0, &tampered, &route).is_err());
        assert!(sys.retrieve_latest(0, "p-2").is_none());
        assert_eq!(sys.total_stored(), 0);
    }

    #[test]
    fn stale_mark_on_the_senders_own_copy_is_rejected_by_admit() {
        // what `Delivery::arrived` hands over for a damaged copy: its own
        // bytes parsed, under the mark the sender holds
        let (sys, def, pol, designer, alice) = setup();
        let bob = Credentials::from_seed("bob", "b");
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-lm").unwrap();
        let hop = |aea: &Aea, input: SealedDocument, activity: &str, value: &str| {
            let recv = aea.receive(input, activity).unwrap();
            let field = recv.definition.def.activity(activity).unwrap().responses[0].clone();
            aea.complete(&recv, &[(field, value.into())]).unwrap().document
        };
        let submitted =
            hop(&Aea::new(alice, sys.directory.clone()), SealedDocument::new(doc), "submit", "100");
        // bob's AEA verified the submit CER: its mark pins it
        let genuine = hop(&Aea::new(bob, sys.directory.clone()), submitted, "approve", "ok");
        assert_eq!(genuine.trust().map(|mark| mark.verified_cers), Some(1));

        // a tampered copy, inside the pinned prefix, under the genuine mark
        let tampered = genuine.to_xml_string().replace(">100<", ">1000000<");
        let route = Route { targets: vec![], ends: true };
        let laundered = SealedDocument::arrived(&tampered, &genuine).unwrap();
        assert_eq!(laundered.trust(), genuine.trust());
        assert!(sys.admit(0, &laundered, &route).is_err());
        assert_eq!(sys.total_stored(), 0);
        // the mark itself is good: the genuine tree enters on it
        sys.admit(0, &genuine, &route).unwrap();
        assert_eq!(sys.total_stored(), 1);
        assert_eq!(sys.portals[0].incremental_verifications.load(Ordering::Relaxed), 1);
    }

    /// A mark reaches a receiver on a document a core actor sealed, or on a
    /// copy [`SealedDocument::arrived`] rebuilt from one — no other way. A
    /// copy damaged (a) inside the sender's verified prefix or (b) inside
    /// its newest CER is refused by the AEA, the TFC and a portal alike with
    /// a typed error; only the full pass checks the prefix, so (a) names the
    /// prefix's CER.
    #[test]
    fn a_copy_damaged_under_its_senders_mark_is_refused_by_every_receiver() {
        let cast: Vec<Credentials> = ["designer", "alice", "bob", "carol", "TFC"]
            .iter()
            .map(|n| Credentials::from_seed(*n, &format!("seam-{n}")))
            .collect();
        let dir = Directory::from_credentials(&cast);
        let def = WorkflowDefinition::builder("seam", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .simple_activity("approve", "bob", &["decision"])
            .simple_activity("file", "carol", &["ref"])
            .flow("submit", "approve")
            .flow("approve", "file")
            .flow_end("file")
            .with_tfc("TFC")
            .build()
            .unwrap();
        let pol = SecurityPolicy::public().with_tfc_access("TFC", &def);
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &cast[0], "seam").unwrap();
        let aea = |i: usize| Aea::new(cast[i].clone(), dir.clone());
        let tfc = TfcServer::with_clock(cast[4].clone(), dir.clone(), Arc::new(|| 7));
        let submitted = {
            let recv = aea(1).receive(SealedDocument::new(doc), "submit").unwrap();
            let inter = aea(1).complete_via_tfc(&recv, &[("amount".into(), "100".into())]);
            tfc.process(inter.unwrap().document).unwrap().document
        };
        let recv = aea(2).receive(submitted, "approve").unwrap();
        let responses = [("decision".to_string(), "granted".to_string())];
        // the TFC's sender: [submit, approve (sealed to the TFC)], submit pinned
        let inter = aea(2).complete_via_tfc(&recv, &responses).unwrap().document;
        // the AEA's and the portal's: [submit, approve], submit pinned
        let approved = tfc.process(inter.clone()).unwrap().document;
        for sender in [&inter, &approved] {
            assert_eq!(sender.trust().map(|mark| mark.verified_cers), Some(1));
        }
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let route = Route { targets: vec!["file".into()], ends: false };

        type Receiver<'r> = Box<dyn Fn(SealedDocument) -> WfResult<()> + 'r>;
        let receivers: [(&str, &SealedDocument, Receiver); 3] = [
            ("aea", &approved, Box::new(|copy| aea(3).receive(copy, "file").map(|_| ()))),
            ("tfc", &inter, Box::new(|copy| tfc.receive(copy).map(|_| ()))),
            ("portal", &approved, Box::new(|copy| sys.admit(0, &copy, &route).map(|_| ()))),
        ];
        for (who, sender, receive) in &receivers {
            let wire = sender.wire();
            // (b): the newest CER's result, plain or sealed to the TFC
            let newest = match wire.rfind("<TfcSealed") {
                Some(at) => {
                    let text = at + wire[at..].find('>').unwrap() + 1;
                    let flipped = if &wire[text..=text] == "A" { "B" } else { "A" };
                    [&wire[..text], flipped, &wire[text + 1..]].concat()
                }
                None => wire.replace(">granted<", ">grantee<"),
            };
            let cases = [("inside the pinned prefix", wire.replace(">100<", ">101<"), "submit#0")];
            let cases = cases.into_iter().chain([("inside the newest CER", newest, "approve#0")]);
            for (case, damaged, culprit) in cases {
                assert_ne!(damaged, *wire, "{who}, {case}");
                let copy = SealedDocument::arrived(&damaged, sender).unwrap();
                assert_eq!(copy.trust(), sender.trust(), "{who}, {case}: the sender's mark");
                match receive(copy) {
                    Err(WfError::Verify(why)) => {
                        assert!(why.contains(culprit), "{who}, {case}: {why}")
                    }
                    other => panic!("{who}, {case}: {other:?}"),
                }
            }
            receive((*sender).clone()).unwrap_or_else(|e| panic!("{who}: the intact copy: {e}"));
        }
        assert_eq!(sys.total_stored(), 1, "only the intact copy was stored");
    }

    #[test]
    fn todo_notification_cycle() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-3").unwrap();
        sys.ingest_wire(
            0,
            &doc.to_xml_string(),
            &Route { targets: vec!["submit".into()], ends: false },
        )
        .unwrap();
        // alice is notified
        let todos = sys.search_todo("alice");
        assert_eq!(todos, vec![TodoEntry { process_id: "p-3".into(), activity: "submit".into() }]);
        assert!(sys.search_todo("bob").is_empty());
        // consumed after execution
        assert!(sys.consume_todo("alice", "p-3", "submit"));
        assert!(sys.search_todo("alice").is_empty());
        assert!(!sys.consume_todo("alice", "p-3", "submit"));
    }

    #[test]
    fn status_and_statistics() {
        let (sys, def, pol, designer, _) = setup();
        for i in 0..6 {
            let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, &format!("p-{i}"))
                .unwrap();
            // even instances "complete", odd "running"
            let route = if i % 2 == 0 {
                Route { targets: vec![], ends: true }
            } else {
                Route { targets: vec!["submit".into()], ends: false }
            };
            sys.ingest_wire(i, &doc.to_xml_string(), &route).unwrap();
        }
        let stats = sys.statistics_by_status(4);
        assert_eq!(stats["complete"], 3);
        assert_eq!(stats["running"], 3);
        let steps = sys.steps_per_workflow(4);
        assert_eq!(steps["po"], 0, "no CERs stored yet");
        let status = sys.process_status("p-0").unwrap().unwrap();
        assert_eq!(status.process_id, "p-0");
        assert!(sys.process_status("nope").unwrap().is_none());
    }

    #[test]
    fn views_track_admissions_and_match_scan() {
        let (sys, def, pol, designer, _) = setup();
        for i in 0..5 {
            let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, &format!("v-{i}"))
                .unwrap();
            let route = if i % 2 == 0 {
                Route { targets: vec![], ends: true }
            } else {
                Route { targets: vec!["submit".into()], ends: false }
            };
            sys.ingest_wire(i, &doc.to_xml_string(), &route).unwrap();
        }
        let counts = sys.fleet_views().status_counts();
        assert_eq!(counts["complete"], 3);
        assert_eq!(counts["running"], 2);
        sys.views_match_scan(4).expect("views ≡ scan");
        assert_eq!(sys.fleet_views().pool_view_json(), sys.recompute_pool_view_json());
        let dash = sys.fleet_dashboard_json();
        assert_eq!(dash, sys.fleet_dashboard_json(), "byte-deterministic");
        assert!(dash.contains("\"totals\":{\"processes\":5,\"docs\":5}"), "{dash}");
    }

    #[test]
    fn views_survive_crash_replay_and_cold_restart() {
        let (sys, def, pol, designer, _) = setup();
        let sys = sys.with_faults(FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 1));
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "v-cr").unwrap();
        let route = Route { targets: vec!["submit".into()], ends: false };
        assert!(sys.ingest_wire(0, &doc.to_xml_string(), &route).is_err());
        // torn admission: neither the pool nor the views saw the meta rows
        sys.views_match_scan(2).expect("views ≡ scan in the crash window");
        sys.recover_portals();
        sys.views_match_scan(2).expect("views ≡ scan after replay");
        assert_eq!(sys.fleet_views().status_counts()["running"], 1);

        // a cold restart reseeds the views from the pool snapshot
        let restored = CloudSystem::restore(
            sys.directory.clone(),
            2,
            Arc::new(NetworkSim::lan()),
            &sys.snapshot_pool(),
        )
        .unwrap();
        restored.views_match_scan(2).expect("views ≡ scan after restore");
        assert_eq!(restored.fleet_views().progress()["v-cr"], 1);
    }

    #[test]
    fn cold_restore_seeds_the_views_the_live_fold_built() {
        use crate::delivery::SeededStream;
        let (sys, def, pol, designer, alice) = setup();
        let aea = Aea::new(alice, sys.directory.clone());
        let mut rng = SeededStream::new(16);
        for i in 0..24 {
            let pid = format!("s-{i:02}");
            let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, &pid).unwrap();
            let submit = Route { targets: vec!["submit".into()], ends: false };
            sys.ingest_wire(i, &doc.to_xml_string(), &submit).unwrap();
            // a random share of the instances takes a hop, some of them the last
            if rng.below(3) > 0 {
                let recv = aea
                    .receive(SealedDocument::from_wire(&doc.to_xml_string()).unwrap(), "submit")
                    .unwrap();
                let done = aea.complete(&recv, &[("amount".into(), i.to_string())]).unwrap();
                let ends = rng.below(2) == 0;
                let targets = if ends { vec![] } else { vec!["approve".into()] };
                let xml = done.document.to_xml_string();
                sys.ingest_wire(i, &xml, &Route { targets, ends }).unwrap();
            }
        }
        let restored = CloudSystem::restore(
            sys.directory.clone(),
            2,
            Arc::new(NetworkSim::lan()),
            &sys.snapshot_pool(),
        )
        .unwrap();
        let live = sys.fleet_views();
        assert!(live.status_counts().len() == 2 && live.progress().values().any(|&n| n == 2));
        assert_eq!(restored.fleet_views().pool_view_json(), live.pool_view_json());
        restored.views_match_scan(2).expect("seeded views ≡ scan");
        assert_eq!(restored.recompute_pool_view_json(), live.pool_view_json());
    }

    #[test]
    fn a_process_id_cannot_reach_into_another_process_rows() {
        let (sys, def, pol, designer, _) = setup();
        let route = Route { targets: vec!["submit".into()], ends: false };
        let wire = |pid: &str| {
            DraDocument::new_initial_with_pid(&def, &pol, &designer, pid).unwrap().to_xml_string()
        };
        sys.ingest_wire(0, &wire("P"), &route).unwrap();
        let rows = sys.active_pool().row_count();

        // `P/zzz` would store under `doc/P/zzz/…`, inside `P`'s own prefix
        let err = sys.ingest_wire(0, &wire("P/zzz"), &route).unwrap_err();
        assert!(matches!(err, WfError::Malformed(_)), "{err}");
        assert_eq!(sys.active_pool().row_count(), rows, "no row written for it");

        assert_eq!(sys.retrieve_latest(0, "P").unwrap(), wire("P"));
        assert_eq!(sys.process_status("P").unwrap().unwrap().process_id, "P");
        assert_eq!(versions(&sys, "P"), 1, "P's next seq counts P's rows only");
        assert!(sys.retrieve_latest(0, "P/zzz").is_none());
    }

    #[test]
    fn deeply_nested_wire_bytes_are_a_parse_error_not_a_stack_overflow() {
        let (sys, ..) = setup();
        // the parser runs before any signature check, on whatever arrived
        let err = sys.ingest_wire(0, &"<a>".repeat(10_000), &Route::default()).unwrap_err();
        assert!(matches!(err, WfError::Parse(_)), "{err}");
        assert_eq!(sys.active_pool().row_count(), 0, "pool untouched");
    }

    #[test]
    fn cold_restart_from_snapshot() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-r").unwrap();
        sys.ingest_wire(
            0,
            &doc.to_xml_string(),
            &Route { targets: vec!["submit".into()], ends: false },
        )
        .unwrap();
        let snapshot = sys.snapshot_pool();

        // the deployment restarts from the snapshot
        let restored =
            CloudSystem::restore(sys.directory.clone(), 3, Arc::new(NetworkSim::lan()), &snapshot)
                .unwrap();
        assert_eq!(restored.retrieve_latest(0, "p-r").unwrap(), doc.to_xml_string());
        assert_eq!(restored.search_todo("alice").len(), 1, "TO-DO entries survive");
        assert_eq!(restored.statistics_by_status(2)["running"], 1);
        // corrupted snapshots are rejected
        assert!(CloudSystem::restore(
            sys.directory.clone(),
            1,
            Arc::new(NetworkSim::lan()),
            &snapshot[..10],
        )
        .is_err());
    }

    #[test]
    fn ingest_wire_dedup_and_rejection() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-iw").unwrap();
        let wire = doc.to_xml_string();
        let route = Route { targets: vec!["submit".into()], ends: false };

        let ack = sys.ingest_wire(0, &wire, &route).unwrap();
        assert!(!ack.duplicate);
        let again = sys.ingest_wire(1, &wire, &route).unwrap();
        assert_eq!(again, StoreAck { seq: ack.seq, duplicate: true }, "whichever the portal");
        assert_eq!((sys.total_stored(), sys.total_duplicates_suppressed()), (1, 1));
        // admission charges nothing (the channel charged each copy); a serve does
        assert_eq!(sys.network.bytes(), 0);
        sys.retrieve_latest(1, "p-iw").unwrap();
        assert_eq!((sys.network.bytes(), sys.network.messages()), (wire.len() as u64, 1));

        // a tampered copy is rejected, stored nothing
        let tampered = wire.replace("alice", "mallory");
        assert!(sys.ingest_wire(0, &tampered, &route).is_err());
        assert_eq!(versions(&sys, "p-iw"), 1);
    }

    #[test]
    fn duplicate_suppression_survives_restart() {
        let (sys, def, pol, designer, _) = setup();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-sr").unwrap();
        let route = Route { targets: vec!["submit".into()], ends: false };
        let seq = sys.ingest_wire(0, &doc.to_xml_string(), &route).unwrap().seq;
        let snapshot = sys.snapshot_pool();

        let restored =
            CloudSystem::restore(sys.directory.clone(), 1, Arc::new(NetworkSim::lan()), &snapshot)
                .unwrap();
        // the digest → seq binding lives in the pool, so a replayed copy is
        // still recognised after a cold restart
        let ack = restored.ingest_wire(0, &doc.to_xml_string(), &route).unwrap();
        assert!(ack.duplicate);
        assert_eq!(ack.seq, seq);
    }

    #[test]
    fn crash_between_seen_and_store_is_repaired_by_replay() {
        let (sys, def, pol, designer, _) = setup();
        let sys = sys.with_faults(FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 1));
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "p-cr").unwrap();
        let wire = doc.to_xml_string();
        let route = Route { targets: vec!["submit".into()], ends: false };

        // the portal dies after the seen row, before the document row: the
        // dangerous window where the pool claims "stored" with nothing stored
        let err = sys.ingest_wire(0, &wire, &route).unwrap_err();
        assert!(matches!(err, WfError::Crash(_)));
        assert!(sys.retrieve_latest(0, "p-cr").is_none(), "document row missing");
        assert_eq!(sys.stored_seq_for(&wire), Some(0), "seen row landed");
        let journal = dra_docpool::Journal::import(&sys.journal_snapshots()[0].1).unwrap();
        assert_eq!(journal.uncommitted(), 1);

        // portal restart: journal replay completes the admission
        assert_eq!(sys.recover_portals(), 1);
        assert_eq!(sys.retrieve_latest(0, "p-cr").unwrap(), wire);
        assert_eq!(sys.search_todo("alice").len(), 1, "TO-DO entry replayed");
        assert_eq!(sys.journal_replays(), 1);

        // the sender's retry is now a clean duplicate, and the crashed
        // schedule is disarmed so the revisit gets through
        let ack = sys.ingest_wire(0, &wire, &route).unwrap();
        assert!(ack.duplicate);
        assert_eq!(ack.seq, 0);
        assert_eq!(versions(&sys, "p-cr"), 1);
    }
}
