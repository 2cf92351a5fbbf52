//! Fault-tolerant document delivery: retry with exponential backoff +
//! jitter in virtual time, per-hop ack timeouts, and a bounded redelivery
//! queue for reordered copies.
//!
//! The delivery layer sits between the scenario runner and the receivers
//! (portals, the TFC server) and is the channel itself: every physical copy
//! it puts on the [`NetworkSim`] is subjected to its [`FaultProfile`], drawn
//! from one seeded stream per channel (same seed + profile ⇒ the same fault
//! schedule and the same [`DeliveryStats`]):
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
//!
//! A hand-off whose sender names a [`Base`] — the version it was served —
//! travels as a **delta**: the base's chain digest, the bytes of it kept, the
//! tail; the receiver (a portal, or the TFC for the AEA → TFC leg) rebuilds
//! the wire from its own branch head of that name ([`Heads::arrived`]). A
//! receiver that holds none refuses, and the whole wire follows as a second
//! charged copy ([`DeliveryStats::delta_fallbacks`]). Faults are drawn per
//! copy as for the whole wire, whichever form the copy takes, so a seeded
//! schedule does not depend on it: a damaged delta flips the byte the whole
//! copy's draw names where the tail carries it, else the byte as far into
//! the tail, and a whole copy answering a refusal rides the draws of the
//! copy that was refused.
//!
//! [`Heads::arrived`]: dra4wfms_core::sealed::Heads::arrived

use crate::faults::FaultProfile;
use crate::netsim::NetworkSim;
use crate::portal::{CloudSystem, StoreAck};
use crate::store::kept;
use dra4wfms_core::prelude::*;
use dra_obs::{stage, MetricsRegistry, Tracer};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Send attempts per hand-off (first try + retries).
pub const MAX_ATTEMPTS: usize = 8;
/// Backoff before the first retry, in virtual microseconds; doubles after
/// every failed attempt, up to [`MAX_BACKOFF_US`].
const BASE_BACKOFF_US: u64 = 1_000;
/// Backoff ceiling in virtual microseconds.
const MAX_BACKOFF_US: u64 = 64_000;
/// Jitter fraction: each backoff is stretched by a uniformly random factor
/// in `[0, JITTER]` to decorrelate retry storms.
const JITTER: f64 = 0.2;
/// Virtual time charged waiting for an ack that never comes, per failed
/// attempt.
const ACK_TIMEOUT_US: u64 = 2_000;
/// Capacity of the redelivery queue holding reordered copies; overflow
/// copies are dropped (and counted) rather than buffered unboundedly.
const REDELIVERY_CAPACITY: usize = 32;

/// Snapshot of the faults a channel has injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Physical copies that vanished in flight.
    pub dropped: u64,
    /// Extra physical copies emitted by duplication.
    pub duplicated: u64,
    /// Copies delivered with a corrupted wire byte.
    pub corrupted: u64,
    /// Copies deferred into the redelivery queue.
    pub reordered: u64,
    /// Total fault-injected delay across all copies, in microseconds.
    pub delayed_us: u64,
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
    /// Crash faults injected during the run (by a [`crate::FaultPlan`]);
    /// the delivery layer counts the portal crashes it repaired, the runner
    /// folds in the AEA and TFC crashes it supervised.
    pub crashes_injected: u64,
    /// Hop leases that expired and triggered a supervisor takeover
    /// (runner-supervised; 0 for bare delivery use).
    pub leases_expired: u64,
    /// Journal records replayed by portal recoveries
    /// (runner/[`CloudSystem::recover_portals`]-supplied).
    pub journal_replays: u64,
    /// Delta copies refused for a base the receiver held no head of, each
    /// answered with the whole wire.
    pub delta_fallbacks: u64,
    /// Bytes the channel charged for its copies.
    pub bytes: u64,
    /// Faults the channel injected.
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
        metrics.set_counter("delivery.delta_fallbacks", self.delta_fallbacks);
        metrics.set_counter("delivery.faults.dropped", self.faults.dropped);
        metrics.set_counter("delivery.faults.duplicated", self.faults.duplicated);
        metrics.set_counter("delivery.faults.corrupted", self.faults.corrupted);
        metrics.set_counter("delivery.faults.reordered", self.faults.reordered);
        metrics.set_counter("delivery.faults.delayed_us", self.faults.delayed_us);
        metrics.set_counter("delivery.virtual_time_us", self.virtual_time_us);
        metrics.set_counter("delivery.ideal_time_us", self.ideal_time_us);
    }
}

/// The version a hand-off extends, as its sender holds it: the one it was
/// served. A hand-off naming one travels as a delta against it.
#[derive(Clone, Debug)]
pub struct Base {
    /// Its chain digest `dₖ` over every CER ([`prefix_digest`]): the name a
    /// receiver keeps its head under.
    pub name: [u8; 32],
    /// Its wire bytes.
    pub wire: Arc<String>,
}

impl Base {
    /// `sealed` as a base, named by the chain digest of all its CERs.
    pub(crate) fn of(sealed: &SealedDocument) -> WfResult<Base> {
        let name = prefix_digest(sealed.document(), usize::MAX)?;
        Ok(Base { name, wire: sealed.wire() })
    }
}

/// A delta's base name and the bytes of the base it keeps.
type Delta = ([u8; 32], usize);

/// The delta `wire` travels as against `base`, if the sender names one, and
/// the bytes one copy is charged: the base's name, then a `doc/` cell's form
/// (`keep`, a line feed, the tail) — else the whole wire.
fn sized(base: Option<&Base>, wire: &str) -> (Option<Delta>, usize) {
    // one comparison against the base the sender holds
    let delta = base.map(|base| (base.name, kept(&base.wire, wire)));
    let len = match delta {
        Some((name, keep)) => name.len() + keep.to_string().len() + 1 + (wire.len() - keep),
        None => wire.len(),
    };
    (delta, len)
}

/// A portal hand-off: the sender's document, its route and, for a delta,
/// the base's name and the bytes of it kept.
#[derive(Clone)]
struct Handoff {
    sealed: SealedDocument,
    delta: Option<Delta>,
    route: Route,
}

/// A reordered portal-bound copy waiting in the redelivery queue.
struct Pending {
    handoff: Handoff,
    damage: Option<Damage>,
    portal: usize,
}

/// What one physical whole copy reads as at its receiver. An intact copy
/// *is* the sender's sealed document — tree, wire bytes and mark shared,
/// nothing parsed again; a damaged one is parsed from its own bytes and
/// handed the sender's mark.
fn arrived(sealed: &SealedDocument, damage: Option<Damage>) -> WfResult<SealedDocument> {
    match damage {
        None => Ok(sealed.clone()),
        Some(damage) => SealedDocument::arrived(&damage.applied(&sealed.wire(), 0), sealed.trust()),
    }
}

/// One corrupted byte, as the draws for a whole copy name it: its index in
/// the wire (a single-byte character) and the printable ASCII byte it reads
/// as. One byte is the minimal corruption — if the verification pipeline
/// catches that, it catches anything larger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Damage {
    at: usize,
    byte: u8,
}

impl Damage {
    /// Draw the damage of a copy of `wire`: a position, moved forward
    /// (wrapping) to the nearest single-byte character so the mutation
    /// cannot split a multi-byte one, and a different printable byte.
    fn draw(wire: &str, rng: &mut SeededStream) -> Damage {
        let bytes = wire.as_bytes();
        if bytes.is_empty() {
            return Damage { at: 0, byte: b'!' };
        }
        let at = ascii_from(bytes, rng.below(bytes.len() as u64) as usize);
        let byte = loop {
            let candidate = b'!' + rng.below(94) as u8; // printable ASCII 0x21..=0x7e
            if candidate != bytes[at] {
                break candidate;
            }
        };
        Damage { at, byte }
    }

    /// The bytes a copy carrying `wire[from..]` reads as: the damaged byte
    /// where the copy carries it, else the byte as far into what it carries
    /// (the next single-byte character from there), made to differ.
    fn applied(self, wire: &str, from: usize) -> String {
        let mut bytes = wire.as_bytes()[from..].to_vec();
        if bytes.is_empty() {
            return String::new();
        }
        let at = ascii_from(&bytes, self.at.checked_sub(from).unwrap_or(self.at) % bytes.len());
        bytes[at] = if bytes[at] == self.byte { self.byte ^ 1 } else { self.byte };
        // ASCII for ASCII keeps UTF-8; a wire without ASCII (no XML wire) comes out lossy
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// The first single-byte character of `bytes` from `start` on, wrapping;
/// `start` itself when there is none.
fn ascii_from(bytes: &[u8], start: usize) -> usize {
    (0..bytes.len())
        .map(|off| (start + off) % bytes.len())
        .find(|&i| bytes[i].is_ascii())
        .unwrap_or(start)
}

/// One physical copy of a sent message that reaches the receiver.
struct Arrival {
    /// The byte corrupted in flight, or `None` when the copy arrived intact
    /// (the receiver then uses the original bytes without cloning them).
    damage: Option<Damage>,
    /// Fault-injected extra virtual delay for this copy, in microseconds.
    delay_us: u64,
    /// True when the copy was reordered: it must not be processed now but
    /// deferred into the redelivery queue, arriving after later sends.
    late: bool,
}

/// What a [`Delivery`] mutates, under one lock (never held across a call
/// into a receiver).
struct State {
    /// The fault stream: every duplicate, drop, corruption, delay and
    /// reorder decision, in send order.
    fault_rng: SeededStream,
    /// Jitter randomness, seeded independently of the fault stream so
    /// retry timing never perturbs the fault schedule.
    jitter_rng: SeededStream,
    pending: VecDeque<Pending>,
    /// The counters of [`Delivery::stats`], kept in the struct it returns;
    /// the fields derived from the network's clock stay zero here.
    stats: DeliveryStats,
    /// Payload bytes of every logical send: with `stats.sends`, what the
    /// same hops would have cost on a lossless channel.
    ideal_bytes: u64,
}

/// A fault-injecting, fault-tolerant delivery channel over a [`NetworkSim`].
///
/// Every physical copy — delivered, dropped or duplicated — is accounted on
/// the network (it left the sender and consumed the wire), so virtual time
/// reflects the *actual* traffic including waste.
pub struct Delivery {
    sim: Arc<NetworkSim>,
    profile: FaultProfile,
    state: Mutex<State>,
    tracer: Tracer,
}

impl Delivery {
    /// Build a delivery channel injecting `profile` faults over `sim`,
    /// seeded by `seed` (same seed + profile ⇒ identical fault schedule
    /// and [`DeliveryStats`]).
    ///
    /// # Errors
    ///
    /// Returns [`WfError::Config`] when the profile's rates are not
    /// probabilities in `[0, 1)`.
    pub fn new(sim: Arc<NetworkSim>, profile: FaultProfile, seed: u64) -> WfResult<Delivery> {
        profile.validate()?;
        Ok(Delivery::unchecked(sim, profile, seed))
    }

    /// [`Delivery::new`] for a profile already known to be valid.
    fn unchecked(sim: Arc<NetworkSim>, profile: FaultProfile, seed: u64) -> Delivery {
        let state = State {
            fault_rng: SeededStream::new(seed),
            // distinct, fixed offset: decouples jitter from fault decisions
            jitter_rng: SeededStream::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            pending: VecDeque::new(),
            stats: DeliveryStats::default(),
            ideal_bytes: 0,
        };
        Delivery { sim, profile, state: Mutex::new(state), tracer: Tracer::disabled() }
    }

    /// Record a `deliver` span per logical hand-off into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Delivery {
        self.tracer = tracer;
        self
    }

    /// A perfect channel — useful as a drop-in where the call site wants
    /// delivery accounting without faults.
    pub fn lossless(sim: Arc<NetworkSim>) -> Delivery {
        Delivery::unchecked(sim, FaultProfile::lossless(), 0)
    }

    /// Put one logical message of `len` bytes, a copy of `wire`, on the
    /// channel: the physical copies that reach the receiver — possibly none
    /// (dropped), possibly two (duplicated), each possibly damaged, delayed
    /// or deferred. Every copy, delivered or not, is charged to the network.
    fn send(&self, wire: &str, len: usize) -> Vec<Arrival> {
        let profile = &self.profile;
        let mut state = self.state();
        let State { fault_rng: rng, stats, .. } = &mut *state;
        let counts = &mut stats.faults;
        let copies = if rng.unit() < profile.duplicate {
            counts.duplicated += 1;
            2
        } else {
            1
        };
        let mut arrivals = Vec::with_capacity(copies);
        for _ in 0..copies {
            // the copy left the sender: it consumes wire and latency even
            // when it never arrives
            self.charge(stats, len);
            if rng.unit() < profile.drop {
                stats.faults.dropped += 1;
                continue;
            }
            let damage = (rng.unit() < profile.corrupt).then(|| {
                stats.faults.corrupted += 1;
                Damage::draw(wire, rng)
            });
            let delay_us = if profile.delay_max_us > 0 {
                let d = rng.below(profile.delay_max_us.saturating_add(1));
                stats.faults.delayed_us += d;
                d
            } else {
                0
            };
            let late = rng.unit() < profile.reorder;
            if late {
                stats.faults.reordered += 1;
            }
            arrivals.push(Arrival { damage, delay_us, late });
        }
        arrivals
    }

    /// The hand-off skeleton both paths share: the `deliver` span, the
    /// attempt and retry counters, the backoff after an unacked attempt and
    /// the undeliverable error. `attempt` puts one copy of the message, `len`
    /// bytes, on the channel, handles whatever arrives and returns the
    /// receiver's ack if one came; its error is the receiver's refusal and
    /// ends the hand-off at once.
    fn with_retries<T>(
        &self,
        sealed: &SealedDocument,
        len: usize,
        target: std::fmt::Arguments<'_>,
        what: std::fmt::Arguments<'_>,
        mut attempt: impl FnMut() -> WfResult<Option<T>>,
    ) -> WfResult<T> {
        let mut span = self.tracer.span(stage::DELIVER).actor("delivery");
        if span.enabled() {
            if let Ok(pid) = sealed.document().process_id() {
                span.set_process(&pid);
            }
            span.attr("target", target);
        }
        {
            let mut state = self.state();
            state.stats.sends += 1;
            state.ideal_bytes += len as u64;
        }
        let mut backoff = BASE_BACKOFF_US;
        for n in 1..=MAX_ATTEMPTS {
            self.count(|stats| {
                stats.attempts += 1;
                stats.retries += u64::from(n > 1);
            });
            // the receiver answered: with its ack, or with a refusal that
            // retrying the same bytes can never cure
            if let Some(answer) = attempt().transpose() {
                self.count(|stats| stats.delivered += 1);
                if answer.is_ok() {
                    span.attr("attempts", n);
                    span.end();
                }
                return answer;
            }
            self.wait_before_retry(&mut backoff);
        }
        span.attr("attempts", MAX_ATTEMPTS);
        span.end_with("undeliverable");
        Err(WfError::Delivery(format!(
            "{what} undeliverable after {MAX_ATTEMPTS} attempts ({len} bytes)"
        )))
    }

    /// Deliver a sealed document to portal `portal` through the faulty
    /// channel, retrying with exponential backoff until the portal acks or
    /// the attempt budget is exhausted: as a delta against `base` when the
    /// sender names the version it was served, else whole.
    pub fn deliver(
        &self,
        system: &CloudSystem,
        portal: usize,
        sealed: &SealedDocument,
        base: Option<&Base>,
        route: &Route,
    ) -> WfResult<StoreAck> {
        // reordered copies of *earlier* sends arrive before this one
        self.flush(system);
        let wire = sealed.wire();
        let (delta, len) = sized(base, &wire);
        let handoff = Handoff { sealed: sealed.clone(), delta, route: route.clone() };
        let attempt = || {
            let mut ack: Option<StoreAck> = None;
            for Arrival { damage, delay_us, late } in self.send(&wire, len) {
                if late {
                    self.enqueue_pending(Pending { handoff: handoff.clone(), damage, portal });
                    continue;
                }
                self.sim.advance(delay_us);
                if let Some(a) =
                    self.to_portal(system, portal, &handoff, damage, damage.is_some())?
                {
                    ack.get_or_insert(a);
                }
            }
            Ok(ack)
        };
        let what = format_args!("document for portal {portal}");
        self.with_retries(sealed, len, format_args!("portal:{portal}"), what, attempt)
    }

    /// Deliver a sealed document to a point-to-point receiver (the AEA →
    /// TFC link) through the faulty channel: as a delta against `base` when
    /// the sender names one, which `rebuild` turns back into the document at
    /// the receiver (the TFC's [`TfcServer::arrived`]), else whole. `ingest`
    /// is invoked once per arriving copy until it acks; corrupted copies
    /// failing ingestion are counted and retried, duplicate copies after the
    /// first ack are suppressed sender-side.
    pub fn transfer<T>(
        &self,
        sealed: &SealedDocument,
        base: Option<&Base>,
        rebuild: impl Fn((&[u8; 32], usize), Option<&str>) -> WfResult<SealedDocument>,
        mut ingest: impl FnMut(SealedDocument) -> WfResult<T>,
    ) -> WfResult<T> {
        let wire = sealed.wire();
        let (delta, len) = sized(base, &wire);
        let what = (format_args!("transfer"), format_args!("hand-off"));
        self.with_retries(sealed, len, what.0, what.1, || {
            let mut acked: Option<T> = None;
            // a point-to-point link has no shared redelivery queue: process
            // reordered copies after the on-time ones within this attempt
            let mut arrivals = self.send(&wire, len);
            arrivals.sort_by_key(|a| a.late);
            for arrival in arrivals {
                self.sim.advance(arrival.delay_us);
                if acked.is_some() {
                    self.count(|stats| stats.duplicates_suppressed += 1);
                    continue;
                }
                if arrival.late {
                    self.count(|stats| stats.late_deliveries += 1);
                }
                let damage = arrival.damage;
                let copy = match delta {
                    None => arrived(sealed, damage),
                    Some((name, keep)) => {
                        let tail = damage.map(|damage| damage.applied(&wire, keep));
                        match rebuild((&name, keep), tail.as_deref()) {
                            Err(WfError::UnknownBase(_)) => self.whole(sealed, damage),
                            copy => copy,
                        }
                    }
                };
                let corrupted = damage.is_some();
                // (a corrupted copy that still verifies is canonically
                // identical — accept it)
                acked = self.settle(copy.and_then(&mut ingest), corrupted, || ())?;
            }
            Ok(acked)
        })
    }

    /// Snapshot the accumulated statistics: the counters kept here plus
    /// the network's clock (the runner folds in the leases and replays it
    /// supervised).
    pub fn stats(&self) -> DeliveryStats {
        let state = self.state();
        DeliveryStats {
            virtual_time_us: self.sim.virtual_time_us(),
            ideal_time_us: self.sim.ideal_time_us(state.stats.sends, state.ideal_bytes),
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
        let draw = self.state().jitter_rng.unit();
        let jitter = (*backoff as f64 * JITTER * draw) as u64;
        self.sim.advance(ACK_TIMEOUT_US + *backoff + jitter);
        *backoff = (*backoff * 2).min(MAX_BACKOFF_US);
    }

    fn enqueue_pending(&self, pending: Pending) {
        let mut state = self.state();
        if state.pending.len() >= REDELIVERY_CAPACITY {
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
            let _ = self.to_portal(system, p.portal, &p.handoff, p.damage, true);
        }
    }

    /// The whole wire answering a delta its receiver refused for want of the
    /// base: a second copy, charged, with the refused copy's `damage`.
    fn whole(&self, sealed: &SealedDocument, damage: Option<Damage>) -> WfResult<SealedDocument> {
        self.count(|stats| {
            stats.delta_fallbacks += 1;
            self.charge(stats, sealed.wire().len());
        });
        arrived(sealed, damage)
    }

    /// Hand one arrived copy to its portal and [`settle`](Self::settle) the
    /// outcome; a dead portal is restarted (journal replay completes the
    /// half-done store, so the retry acks a duplicate). A delta whose base
    /// the portal lacks is answered [`whole`](Self::whole).
    fn to_portal(
        &self,
        system: &CloudSystem,
        portal: usize,
        handoff: &Handoff,
        damage: Option<Damage>,
        rejectable: bool,
    ) -> WfResult<Option<StoreAck>> {
        let Handoff { sealed, delta, route } = handoff;
        let admitted = match *delta {
            None => arrived(sealed, damage).and_then(|copy| system.admit(portal, &copy, route)),
            Some((name, keep)) => {
                let tail = damage.map(|damage| damage.applied(&sealed.wire(), keep));
                let whole = |_refusal| self.whole(sealed, damage);
                system.admit_delta(portal, sealed, (&name, keep), tail.as_deref(), whole, route)
            }
        };
        let ack = self.settle(admitted, rejectable, || {
            system.recover_portals();
        })?;
        if ack.is_some_and(|a| a.duplicate) {
            self.count(|stats| stats.duplicates_suppressed += 1);
        }
        Ok(ack)
    }

    /// Charge one physical copy of `len` bytes to the network: the channel's
    /// one meter.
    fn charge(&self, stats: &mut DeliveryStats, len: usize) {
        self.sim.transfer(len);
        stats.bytes += len as u64;
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

/// The one seeded generator of the workspace: xoshiro256** from four
/// [`splitmix64`] words of the seed. A channel's fault and jitter streams,
/// the fuzz generator and the tamper claim each draw from one, so the same
/// seed replays the same draws.
#[derive(Clone, Debug)]
pub struct SeededStream {
    s: [u64; 4],
}

impl SeededStream {
    /// The stream of `seed`.
    pub fn new(mut seed: u64) -> SeededStream {
        let mut s = [0; 4];
        for word in &mut s {
            *word = splitmix64(&mut seed);
        }
        // xoshiro must not start from the all-zero state
        if s == [0; 4] {
            s[0] = 1;
        }
        SeededStream { s }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)`: the top 53 bits of the next word.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin: bit 32 of the next word.
    pub fn coin(&mut self) -> bool {
        (self.next_u64() >> 32) & 1 == 1
    }

    /// A uniform draw in `[0, n)` for `n > 0`, by rejection: a word in the
    /// top `u64::MAX % n` values is drawn again, so no residue is favoured.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// One step of splitmix64: advance `state` and return its mixed word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(profile: FaultProfile, seed: u64) -> Delivery {
        Delivery::new(Arc::new(NetworkSim::lan()), profile, seed).unwrap()
    }

    #[test]
    fn lossless_profile_delivers_everything_intact() {
        let n = channel(FaultProfile::lossless(), 1);
        for _ in 0..100 {
            let arrivals = n.send("<doc>payload</doc>", 18);
            assert_eq!(arrivals.len(), 1);
            assert!(arrivals[0].damage.is_none());
            assert_eq!(arrivals[0].delay_us, 0);
            assert!(!arrivals[0].late);
        }
        assert_eq!(n.stats().faults, FaultCounts::default());
        assert_eq!(n.sim.messages(), 100);
    }

    #[test]
    fn same_seed_replays_the_same_fault_schedule() {
        let a = channel(FaultProfile::hostile(), 42);
        let b = channel(FaultProfile::hostile(), 42);
        for _ in 0..200 {
            let xa = a.send("0123456789abcdef", 16);
            let xb = b.send("0123456789abcdef", 16);
            assert_eq!(xa.len(), xb.len());
            for (pa, pb) in xa.iter().zip(&xb) {
                assert_eq!(pa.damage, pb.damage);
                assert_eq!(pa.delay_us, pb.delay_us);
                assert_eq!(pa.late, pb.late);
            }
        }
        assert_eq!(a.stats().faults, b.stats().faults);
    }

    #[test]
    fn fault_rates_manifest_roughly_as_configured() {
        let n = channel(FaultProfile { drop: 0.3, ..FaultProfile::lossless() }, 7);
        let mut delivered = 0;
        for _ in 0..1000 {
            delivered += n.send("x".repeat(64).as_str(), 64).len();
        }
        let dropped = n.stats().faults.dropped;
        assert_eq!(delivered as u64 + dropped, 1000);
        assert!((200..400).contains(&dropped), "≈30% of 1000, got {dropped}");
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let n =
            channel(FaultProfile { corrupt: 1.0 - f64::EPSILON, ..FaultProfile::lossless() }, 3);
        let wire = "<Element attr=\"value\">text côntent</Element>";
        for _ in 0..50 {
            let damage = n.send(wire, wire.len())[0].damage.expect("always corrupted");
            // whole, and as the tail of a delta keeping every prefix
            for from in (0..wire.len()).filter(|&from| wire.is_char_boundary(from)) {
                let carried = &wire[from..];
                let corrupted = damage.applied(wire, from);
                assert_eq!(corrupted.len(), carried.len());
                let diffs = corrupted.bytes().zip(carried.bytes()).filter(|(a, b)| a != b);
                assert_eq!(diffs.count(), 1, "exactly one byte flipped, from {from}");
                // where the tail carries the flipped byte, it is the whole copy's
                if damage.at >= from {
                    assert_eq!(corrupted, damage.applied(wire, 0)[from..]);
                }
            }
        }
    }

    #[test]
    fn invalid_rates_rejected() {
        let sim = Arc::new(NetworkSim::lan());
        for bad in [
            FaultProfile { drop: 1.0, ..FaultProfile::lossless() },
            FaultProfile { duplicate: -0.1, ..FaultProfile::lossless() },
            FaultProfile { corrupt: f64::NAN, ..FaultProfile::lossless() },
        ] {
            assert!(matches!(Delivery::new(Arc::clone(&sim), bad, 0), Err(WfError::Config(_))));
        }
    }

    #[test]
    fn dropped_copies_still_consume_the_wire() {
        let n = channel(FaultProfile { drop: 0.5, ..FaultProfile::lossless() }, 11);
        for _ in 0..100 {
            n.send("0123456789", 10);
        }
        assert_eq!(n.sim.messages(), 100, "every copy is charged, delivered or not");
        assert_eq!(n.sim.bytes(), 1000);
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
        let delivery = channel(profile, 5);
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
            delivery.transfer(&sealed, None, |_, _| unreachable!("whole"), receive).unwrap();
        }
        let stats = delivery.stats();
        assert_eq!((intact, stats.delivered), (32, 32), "only intact copies were accepted");
        assert!(garbled > 0 && garbled <= stats.faults.corrupted, "some did not even parse");
        assert_eq!(stats.corruptions_rejected, stats.faults.corrupted, "each one rejected");

        // a receiver that refuses an intact copy has answered: the error
        // comes back at once and the hand-off is not left open
        let lossless = Delivery::lossless(Arc::new(NetworkSim::lan()));
        let refusal = |_| Err::<(), _>(WfError::Malformed("refused".into()));
        let refused = lossless.transfer(&sealed, None, |_, _| unreachable!("whole"), refusal);
        assert!(matches!(refused, Err(WfError::Malformed(_))));
        let stats = lossless.stats();
        assert_eq!((stats.sends, stats.delivered, stats.attempts), (1, 1, 1));
    }

    #[test]
    fn seeded_stream_replays_the_recorded_words() {
        let mut s = SeededStream::new(42);
        let words: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1
            ]
        );
        let mut zero = SeededStream::new(0);
        assert_eq!(
            [zero.next_u64(), zero.next_u64()],
            [0x99ec_5f36_cb75_f2b4, 0xbf6e_1f78_4956_452a]
        );
    }

    #[test]
    fn seeded_draws_stay_in_range() {
        let mut s = SeededStream::new(7);
        for n in [1, 2, 3, 17, 94, 1 << 40, u64::MAX] {
            for _ in 0..200 {
                assert!(s.below(n) < n);
                assert!((0.0..1.0).contains(&s.unit()));
            }
        }
    }
}
