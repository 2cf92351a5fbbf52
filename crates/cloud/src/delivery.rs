//! Fault-tolerant document delivery: retry with exponential backoff +
//! jitter in virtual time, per-hop ack timeouts, and a bounded redelivery
//! queue for reordered copies.
//!
//! The delivery layer sits between the scenario runner and the receivers
//! (portals, the TFC server) and drives every hop *through* the
//! [`FaultyNetwork`] instead of around it:
//!
//! * a **dropped** copy times out and is retransmitted after an
//!   exponentially growing, jittered backoff — all in virtual time, so
//!   benchmarks stay deterministic and fast;
//! * a **duplicated** copy reaches the portal twice; the portal's
//!   wire-digest idempotency (see [`StoreAck`]) suppresses the second
//!   store, so the pool never grows a phantom version;
//! * a **corrupted** copy fails the portal's verification fallback and is
//!   counted, never stored — the sender retries with the original bytes;
//! * a **reordered** copy is parked in a bounded redelivery queue and
//!   ingested after later sends, exercising out-of-order arrival.
//!
//! A fault can cost time — [`DeliveryStats::inflation`] reports how much —
//! but never safety: every path into the pool still runs the full
//! verification pipeline.

use crate::faults::{FaultCounts, FaultProfile, FaultyNetwork};
use crate::netsim::NetworkSim;
use crate::portal::{parse_arrived, CloudSystem, StoreAck};
use dra4wfms_core::prelude::*;
use dra_obs::{stage, MetricsRegistry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Retry/backoff/queue configuration of a [`Delivery`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeliveryPolicy {
    /// Maximum send attempts per hop (first try + retries), ≥ 1.
    pub max_attempts: usize,
    /// Backoff before the first retry, in virtual microseconds; doubles
    /// after every failed attempt.
    pub base_backoff_us: u64,
    /// Backoff ceiling in virtual microseconds.
    pub max_backoff_us: u64,
    /// Jitter fraction: each backoff is stretched by a uniformly random
    /// factor in `[0, jitter]` to decorrelate retry storms.
    pub jitter: f64,
    /// Virtual time charged waiting for an ack that never comes, per
    /// failed attempt.
    pub ack_timeout_us: u64,
    /// Capacity of the redelivery queue holding reordered copies; overflow
    /// copies are dropped (and counted) rather than buffered unboundedly.
    pub redelivery_capacity: usize,
}

impl Default for DeliveryPolicy {
    fn default() -> DeliveryPolicy {
        DeliveryPolicy {
            max_attempts: 8,
            base_backoff_us: 1_000,
            max_backoff_us: 64_000,
            jitter: 0.2,
            ack_timeout_us: 2_000,
            redelivery_capacity: 32,
        }
    }
}

impl DeliveryPolicy {
    /// Check the policy is usable.
    pub fn validate(&self) -> WfResult<()> {
        if self.max_attempts == 0 {
            return Err(WfError::Config("delivery needs at least one attempt".into()));
        }
        if !(0.0..=1.0).contains(&self.jitter) || self.jitter.is_nan() {
            return Err(WfError::Config(format!(
                "jitter must be a fraction in [0, 1], got {}",
                self.jitter
            )));
        }
        Ok(())
    }
}

/// Per-run delivery accounting: what the faults cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Logical hand-offs attempted (hops).
    pub sends: u64,
    /// Logical hand-offs the receiver answered, with an ack or a refusal
    /// (≤ `sends`; the gap is hops in flight or given up as undeliverable).
    pub delivered: u64,
    /// Physical send attempts across all hops (≥ `sends`).
    pub attempts: u64,
    /// Retransmissions after a hop-level timeout.
    pub retries: u64,
    /// Copies the receiver recognised (by wire digest) as already stored
    /// and suppressed instead of re-storing.
    pub duplicates_suppressed: u64,
    /// Corrupted copies rejected by the verification pipeline.
    pub corruptions_rejected: u64,
    /// Reordered copies that were ingested late from the redelivery queue.
    pub late_deliveries: u64,
    /// Reordered copies dropped because the redelivery queue was full.
    pub queue_overflow_dropped: u64,
    /// Crash faults injected during the run (by a [`crate::CrashPlan`]);
    /// the delivery layer counts the portal crashes it repaired, the runner
    /// folds in the AEA and TFC crashes it supervised.
    pub crashes_injected: u64,
    /// Hop leases that expired and triggered a supervisor takeover
    /// (runner-supervised; 0 for bare delivery use).
    pub leases_expired: u64,
    /// Journal records replayed by portal recoveries
    /// (runner/[`CloudSystem::recover_portals`]-supplied).
    pub journal_replays: u64,
    /// Faults injected by the channel underneath.
    pub faults: FaultCounts,
    /// Virtual time actually spent, in microseconds (transfers + injected
    /// delays + timeouts + backoff).
    pub virtual_time_us: u64,
    /// Virtual time the same hops would have cost on a lossless channel.
    pub ideal_time_us: u64,
}

impl DeliveryStats {
    /// Virtual-time inflation factor: actual / lossless. `1.0` on a clean
    /// channel; bounded retry overhead keeps it finite under faults.
    pub fn inflation(&self) -> f64 {
        if self.ideal_time_us == 0 {
            1.0
        } else {
            self.virtual_time_us as f64 / self.ideal_time_us as f64
        }
    }

    /// Fold this run's totals into a [`MetricsRegistry`] under `delivery.*`
    /// names — the unified home the ad-hoc struct is being absorbed into.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        metrics.set_counter("delivery.sends", self.sends);
        metrics.set_counter("delivery.delivered", self.delivered);
        metrics.set_counter("delivery.attempts", self.attempts);
        metrics.set_counter("delivery.retries", self.retries);
        metrics.set_counter("delivery.duplicates_suppressed", self.duplicates_suppressed);
        metrics.set_counter("delivery.corruptions_rejected", self.corruptions_rejected);
        metrics.set_counter("delivery.late_deliveries", self.late_deliveries);
        metrics.set_counter("delivery.queue_overflow_dropped", self.queue_overflow_dropped);
        metrics.set_counter("delivery.crashes_injected", self.crashes_injected);
        metrics.set_counter("delivery.leases_expired", self.leases_expired);
        metrics.set_counter("delivery.journal_replays", self.journal_replays);
        metrics.set_counter("delivery.faults.dropped", self.faults.dropped);
        metrics.set_counter("delivery.faults.duplicated", self.faults.duplicated);
        metrics.set_counter("delivery.faults.corrupted", self.faults.corrupted);
        metrics.set_counter("delivery.faults.reordered", self.faults.reordered);
        metrics.set_counter("delivery.faults.delayed_us", self.faults.delayed_us);
        metrics.set_counter("delivery.virtual_time_us", self.virtual_time_us);
        metrics.set_counter("delivery.ideal_time_us", self.ideal_time_us);
    }
}

/// A reordered portal-bound copy waiting in the redelivery queue, as it
/// [`arrived`].
struct Pending {
    copy: WfResult<SealedDocument>,
    portal: usize,
    route: Route,
}

/// What one physical copy reads as at its receiver. An intact copy *is* the
/// sender's sealed document — tree, wire bytes and mark shared, nothing
/// parsed again; a corrupted one is parsed from its own bytes and handed the
/// sender's mark.
fn arrived(sealed: &SealedDocument, payload: Option<&str>) -> WfResult<SealedDocument> {
    match payload {
        None => Ok(sealed.clone()),
        Some(bytes) => parse_arrived(bytes, sealed.trust()),
    }
}

/// What a [`Delivery`] mutates, under one lock (never held across a call
/// into the network or a receiver).
struct State {
    /// Jitter randomness, seeded independently of the fault stream so
    /// retry timing never perturbs the fault schedule.
    jitter_rng: StdRng,
    pending: VecDeque<Pending>,
    /// The counters of [`Delivery::stats`], kept in the struct it returns;
    /// the fields derived from the network stay zero here.
    stats: DeliveryStats,
    /// Payload bytes of every logical send: with `stats.sends`, what the
    /// same hops would have cost on a lossless channel.
    ideal_bytes: u64,
}

/// A fault-tolerant delivery channel over a [`FaultyNetwork`].
pub struct Delivery {
    network: FaultyNetwork,
    policy: DeliveryPolicy,
    state: Mutex<State>,
    tracer: Tracer,
}

impl Delivery {
    /// Build a delivery channel injecting `profile` faults over `sim`,
    /// seeded by `seed` (same seed + profile ⇒ identical fault schedule
    /// and [`DeliveryStats`]).
    pub fn new(
        sim: Arc<NetworkSim>,
        profile: FaultProfile,
        policy: DeliveryPolicy,
        seed: u64,
    ) -> WfResult<Delivery> {
        policy.validate()?;
        let network = FaultyNetwork::new(sim, profile, seed)?;
        let state = State {
            // distinct, fixed offset: decouples jitter from fault decisions
            jitter_rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            pending: VecDeque::new(),
            stats: DeliveryStats::default(),
            ideal_bytes: 0,
        };
        Ok(Delivery { network, policy, state: Mutex::new(state), tracer: Tracer::disabled() })
    }

    /// Record a `deliver` span per logical hand-off into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Delivery {
        self.tracer = tracer;
        self
    }

    /// A perfect channel with the default policy — useful as a drop-in
    /// where the call site wants delivery accounting without faults.
    pub fn lossless(sim: Arc<NetworkSim>) -> Delivery {
        Delivery::new(sim, FaultProfile::lossless(), DeliveryPolicy::default(), 0)
            .expect("lossless profile and default policy are always valid")
    }

    /// The fault-injecting channel underneath.
    pub fn network(&self) -> &FaultyNetwork {
        &self.network
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &DeliveryPolicy {
        &self.policy
    }

    /// The hand-off skeleton both paths share: the `deliver` span, the
    /// attempt and retry counters, the backoff after an unacked attempt and
    /// the undeliverable error. `attempt` puts one copy of the wire bytes on
    /// the channel, handles whatever arrives and returns the receiver's
    /// ack if one came; its error is the receiver's refusal and ends the
    /// hand-off at once.
    fn with_retries<T>(
        &self,
        sealed: &SealedDocument,
        target: std::fmt::Arguments<'_>,
        what: std::fmt::Arguments<'_>,
        mut attempt: impl FnMut(&Arc<String>) -> WfResult<Option<T>>,
    ) -> WfResult<T> {
        let mut span = self.tracer.span(stage::DELIVER).actor("delivery");
        if span.enabled() {
            if let Ok(pid) = sealed.document().process_id() {
                span.set_process(&pid);
            }
            span.attr("target", target);
        }
        let wire = sealed.wire();
        {
            let mut state = self.state();
            state.stats.sends += 1;
            state.ideal_bytes += wire.len() as u64;
        }
        let mut backoff = self.policy.base_backoff_us;
        for n in 1..=self.policy.max_attempts {
            self.count(|stats| {
                stats.attempts += 1;
                stats.retries += u64::from(n > 1);
            });
            // the receiver answered: with its ack, or with a refusal that
            // retrying the same bytes can never cure
            if let Some(answer) = attempt(&wire).transpose() {
                self.count(|stats| stats.delivered += 1);
                if answer.is_ok() {
                    span.attr("attempts", n);
                    span.end();
                }
                return answer;
            }
            self.wait_before_retry(&mut backoff);
        }
        span.attr("attempts", self.policy.max_attempts);
        span.end_with("undeliverable");
        Err(WfError::Delivery(format!(
            "{what} undeliverable after {} attempts ({} bytes)",
            self.policy.max_attempts,
            wire.len()
        )))
    }

    /// Deliver a sealed document to portal `portal` through the faulty
    /// channel, retrying with exponential backoff until the portal acks or
    /// the attempt budget is exhausted.
    pub fn deliver(
        &self,
        system: &CloudSystem,
        portal: usize,
        sealed: &SealedDocument,
        route: &Route,
    ) -> WfResult<StoreAck> {
        // reordered copies of *earlier* sends arrive before this one
        self.flush(system);
        let attempt = |wire: &Arc<String>| {
            let mut ack: Option<StoreAck> = None;
            for arrival in self.network.send(wire) {
                let copy = arrived(sealed, arrival.payload.as_deref());
                if arrival.late {
                    self.enqueue_pending(Pending { copy, portal, route: route.clone() });
                    continue;
                }
                self.network.sim().advance(arrival.delay_us);
                let corrupted = arrival.payload.is_some();
                if let Some(a) = self.to_portal(system, portal, copy, route, corrupted)? {
                    ack.get_or_insert(a);
                }
            }
            Ok(ack)
        };
        let what = format_args!("document for portal {portal}");
        self.with_retries(sealed, format_args!("portal:{portal}"), what, attempt)
    }

    /// Deliver a sealed document to an arbitrary receiver (the AEA → TFC
    /// link) through the faulty channel. `ingest` is invoked once per
    /// arriving copy until it acks; corrupted copies failing ingestion are
    /// counted and retried, duplicate copies after the first ack are
    /// suppressed sender-side.
    pub fn transfer<T>(
        &self,
        sealed: &SealedDocument,
        mut ingest: impl FnMut(SealedDocument) -> WfResult<T>,
    ) -> WfResult<T> {
        self.with_retries(sealed, format_args!("transfer"), format_args!("hand-off"), |wire| {
            let mut acked: Option<T> = None;
            // a point-to-point link has no shared redelivery queue: process
            // reordered copies after the on-time ones within this attempt
            let mut arrivals = self.network.send(wire);
            arrivals.sort_by_key(|a| a.late);
            for arrival in arrivals {
                self.network.sim().advance(arrival.delay_us);
                if acked.is_some() {
                    self.count(|stats| stats.duplicates_suppressed += 1);
                    continue;
                }
                if arrival.late {
                    self.count(|stats| stats.late_deliveries += 1);
                }
                let corrupted = arrival.payload.is_some();
                let copy = arrived(sealed, arrival.payload.as_deref());
                // (a corrupted copy that still verifies is canonically
                // identical — accept it)
                acked = self.settle(copy.and_then(&mut ingest), corrupted, || ())?;
            }
            Ok(acked)
        })
    }

    /// Snapshot the accumulated statistics: the counters kept here plus
    /// what the network underneath knows (the runner folds in the leases
    /// and replays it supervised).
    pub fn stats(&self) -> DeliveryStats {
        let sim = self.network.sim();
        let state = self.state();
        DeliveryStats {
            faults: self.network.counts(),
            virtual_time_us: sim.virtual_time_us(),
            ideal_time_us: sim.ideal_time_us(state.stats.sends, state.ideal_bytes),
            ..state.stats
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn count(&self, bump: impl FnOnce(&mut DeliveryStats)) {
        bump(&mut self.state().stats);
    }

    fn wait_before_retry(&self, backoff: &mut u64) {
        let draw = self.state().jitter_rng.gen::<f64>();
        let jitter = (*backoff as f64 * self.policy.jitter * draw) as u64;
        self.network.sim().advance(self.policy.ack_timeout_us + *backoff + jitter);
        *backoff = (*backoff * 2).min(self.policy.max_backoff_us);
    }

    fn enqueue_pending(&self, pending: Pending) {
        let mut state = self.state();
        if state.pending.len() >= self.policy.redelivery_capacity {
            state.stats.queue_overflow_dropped += 1;
            return;
        }
        state.pending.push_back(pending);
    }

    /// Ingest every copy still parked in the redelivery queue (also at the
    /// end of a run, so late duplicates are accounted before reading stats).
    pub fn flush(&self, system: &CloudSystem) {
        loop {
            let Some(p) = self.state().pending.pop_front() else { return };
            self.count(|stats| stats.late_deliveries += 1);
            // a late copy of a send that eventually succeeded via retry
            // stores the same bytes → always a duplicate; a late copy of a
            // send that never acked lands here as a fresh (valid) store,
            // which is exactly redelivery; a late corrupted or stale copy is
            // rejected by verification, so every rejection counts as one
            let _ = self.to_portal(system, p.portal, p.copy, &p.route, true);
        }
    }

    /// Hand one arrived copy to its portal and [`settle`](Self::settle) the
    /// outcome; a dead portal is restarted (journal replay completes the
    /// half-done store, so the retry acks a duplicate).
    fn to_portal(
        &self,
        system: &CloudSystem,
        portal: usize,
        copy: WfResult<SealedDocument>,
        route: &Route,
        corrupted: bool,
    ) -> WfResult<Option<StoreAck>> {
        let admitted = copy.and_then(|copy| system.admit(portal, &copy, route));
        let ack = self.settle(admitted, corrupted, || {
            system.recover_portals();
        })?;
        if ack.is_some_and(|a| a.duplicate) {
            self.count(|stats| stats.duplicates_suppressed += 1);
        }
        Ok(ack)
    }

    /// What one arrived copy's ingestion means for its hand-off, counted:
    /// the receiver's ack; or nothing, because the receiver died mid-ingest
    /// (`restart` it, the attempt stays unacked and backoff + retry run) or
    /// because a `corrupted` copy failed verification — the fault model
    /// working, the retry sends the original bytes; or the error of an
    /// *intact* copy: an application error (bad document, policy violation)
    /// that retrying the same bytes can never cure.
    fn settle<T>(
        &self,
        arrived: WfResult<T>,
        corrupted: bool,
        restart: impl FnOnce(),
    ) -> WfResult<Option<T>> {
        match arrived {
            Ok(ack) => Ok(Some(ack)),
            Err(WfError::Crash(_)) => {
                self.count(|stats| stats.crashes_injected += 1);
                restart();
                Ok(None)
            }
            Err(_) if corrupted => {
                self.count(|stats| stats.corruptions_rejected += 1);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        DeliveryPolicy::default().validate().unwrap();
    }

    #[test]
    fn bad_policies_rejected() {
        let sim = Arc::new(NetworkSim::lan());
        let zero_attempts = DeliveryPolicy { max_attempts: 0, ..DeliveryPolicy::default() };
        assert!(matches!(
            Delivery::new(Arc::clone(&sim), FaultProfile::lossless(), zero_attempts, 0),
            Err(WfError::Config(_))
        ));
        let bad_jitter = DeliveryPolicy { jitter: 1.5, ..DeliveryPolicy::default() };
        assert!(matches!(
            Delivery::new(sim, FaultProfile::lossless(), bad_jitter, 0),
            Err(WfError::Config(_))
        ));
    }

    #[test]
    fn inflation_is_unity_without_faults() {
        let stats =
            DeliveryStats { virtual_time_us: 500, ideal_time_us: 500, ..Default::default() };
        assert!((stats.inflation() - 1.0).abs() < 1e-9);
        assert!((DeliveryStats::default().inflation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_intact_copy_is_the_senders_document_and_a_corrupted_one_is_parsed_and_rejected() {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("wf", "designer")
            .simple_activity("a", "designer", &["x"])
            .flow_end("a")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer]);
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "p")
                .unwrap();
        let mark = Verifier::new(&dir).with_mark(None).run(&doc).unwrap().mark.unwrap();
        let sealed = SealedDocument::with_trust(doc, mark);

        let profile = FaultProfile { corrupt: 0.5, ..FaultProfile::lossless() };
        let policy = DeliveryPolicy { max_attempts: 32, ..DeliveryPolicy::default() };
        let delivery = Delivery::new(Arc::new(NetworkSim::lan()), profile, policy, 5).unwrap();
        let (mut intact, mut garbled) = (0u64, 0u64);
        for _ in 0..32 {
            let receive = |copy: SealedDocument| {
                assert_eq!(copy.trust(), sealed.trust(), "either way, the sender's mark");
                if Arc::ptr_eq(&copy.wire(), &sealed.wire()) {
                    intact += 1;
                } else {
                    garbled += 1;
                    assert_ne!(copy.wire(), sealed.wire(), "parsed from its own bytes");
                }
                Verifier::new(&dir).with_mark(copy.trust()).run(&copy).map(|_| ())
            };
            delivery.transfer(&sealed, receive).unwrap();
        }
        let stats = delivery.stats();
        assert_eq!((intact, stats.delivered), (32, 32), "only intact copies were accepted");
        assert!(garbled > 0 && garbled <= stats.faults.corrupted, "some did not even parse");
        assert_eq!(stats.corruptions_rejected, stats.faults.corrupted, "each one rejected");

        // a receiver that refuses an intact copy has answered: the error
        // comes back at once and the hand-off is not left open
        let lossless = Delivery::lossless(Arc::new(NetworkSim::lan()));
        let refusal = |_| Err::<(), _>(WfError::Malformed("refused".into()));
        assert!(matches!(lossless.transfer(&sealed, refusal), Err(WfError::Malformed(_))));
        let stats = lossless.stats();
        assert_eq!((stats.sends, stats.delivered, stats.attempts), (1, 1, 1));
    }
}
