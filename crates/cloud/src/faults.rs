//! Seeded, deterministic fault injection for the simulated network.
//!
//! The paper's engine-less claim rests on documents surviving hostile,
//! unreliable networks between enterprises — yet a plain [`NetworkSim`]
//! only *counts* traffic and assumes every hand-off arrives intact.
//! [`FaultyNetwork`] closes that gap: every logical send is subjected to a
//! configurable [`FaultProfile`] that can **drop**, **duplicate**,
//! **delay**, **reorder** and **bit-corrupt** the in-flight wire bytes.
//!
//! Two properties make the injector a usable testbed rather than a chaos
//! monkey:
//!
//! * **Determinism** — all fault decisions come from one seeded xoshiro
//!   stream, so the same seed + profile replays the exact same fault
//!   schedule (and therefore the same [`DeliveryStats`]).
//! * **Faults cost time, never safety** — a dropped or reordered copy is
//!   retried by the delivery layer, a duplicated copy is suppressed by the
//!   portal's wire-digest idempotency, and a corrupted copy fails the
//!   portal's full-verification fallback before it can reach the pool.
//!
//! [`DeliveryStats`]: crate::delivery::DeliveryStats

use crate::netsim::NetworkSim;
use dra4wfms_core::error::{WfError, WfResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Per-copy fault probabilities and magnitudes for a [`FaultyNetwork`].
///
/// All rates are probabilities in `[0, 1)` applied independently per
/// physical copy (`drop`, `corrupt`, `reorder`) or per logical send
/// (`duplicate`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability a physical copy vanishes in flight.
    pub drop: f64,
    /// Probability a logical send emits a second physical copy.
    pub duplicate: f64,
    /// Probability a delivered copy has one wire byte corrupted.
    pub corrupt: f64,
    /// Probability a delivered copy is deferred into the receiver's
    /// redelivery queue and arrives out of order (after later sends).
    pub reorder: f64,
    /// Upper bound on the extra per-copy virtual delay, drawn uniformly
    /// from `[0, delay_max_us]` microseconds.
    pub delay_max_us: u64,
}

impl FaultProfile {
    /// A perfect channel: no faults at all.
    pub fn lossless() -> FaultProfile {
        FaultProfile { drop: 0.0, duplicate: 0.0, corrupt: 0.0, reorder: 0.0, delay_max_us: 0 }
    }

    /// A lossy-but-honest channel: drops and duplicates at rate `p`, no
    /// corruption. This is the profile the acceptance criterion pins at
    /// `p = 0.10`.
    pub fn lossy(p: f64) -> FaultProfile {
        FaultProfile { drop: p, duplicate: p, corrupt: 0.0, reorder: 0.0, delay_max_us: 0 }
    }

    /// A hostile multi-cloud WAN: 15% drop, 15% duplication, 10% byte
    /// corruption, 10% reordering, up to 5 ms of injected jitter per copy.
    pub fn hostile() -> FaultProfile {
        FaultProfile {
            drop: 0.15,
            duplicate: 0.15,
            corrupt: 0.10,
            reorder: 0.10,
            delay_max_us: 5_000,
        }
    }

    /// Check every rate is a probability in `[0, 1)`.
    ///
    /// `drop = 1.0` is rejected because no retry budget can get a message
    /// through a channel that loses everything; rates above 1 are always
    /// caller bugs.
    pub fn validate(&self) -> WfResult<()> {
        for (name, rate) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
        ] {
            if !(0.0..1.0).contains(&rate) || rate.is_nan() {
                return Err(WfError::Config(format!(
                    "fault rate '{name}' must be in [0, 1), got {rate}"
                )));
            }
        }
        Ok(())
    }
}

/// One physical copy of a sent message that reaches the receiver.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Corrupted wire bytes, or `None` when the copy arrived intact (the
    /// receiver then uses the original bytes without cloning them).
    pub payload: Option<String>,
    /// Fault-injected extra virtual delay for this copy, in microseconds.
    pub delay_us: u64,
    /// True when the copy was reordered: it must not be processed now but
    /// deferred into the redelivery queue, arriving after later sends.
    pub late: bool,
}

/// Snapshot of the faults a [`FaultyNetwork`] has injected so far.
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

/// A [`NetworkSim`] wrapped in a seeded, deterministic fault injector.
///
/// Every physical copy — delivered, dropped or duplicated — is accounted on
/// the underlying [`NetworkSim`] (it left the sender and consumed the
/// wire), so virtual time reflects the *actual* traffic including waste.
pub struct FaultyNetwork {
    sim: Arc<NetworkSim>,
    profile: FaultProfile,
    /// The fault stream and what it has injected so far, under one lock: a
    /// send draws and counts in one step.
    injector: Mutex<(StdRng, FaultCounts)>,
}

impl FaultyNetwork {
    /// Wrap `sim` with fault injection per `profile`, seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`WfError::Config`] when the profile's rates are not
    /// probabilities in `[0, 1)`.
    pub fn new(sim: Arc<NetworkSim>, profile: FaultProfile, seed: u64) -> WfResult<FaultyNetwork> {
        profile.validate()?;
        let injector = Mutex::new((StdRng::seed_from_u64(seed), FaultCounts::default()));
        Ok(FaultyNetwork { sim, profile, injector })
    }

    /// The underlying accounting network.
    pub fn sim(&self) -> &Arc<NetworkSim> {
        &self.sim
    }

    /// The active fault profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Send one logical message of `wire` bytes through the faulty channel.
    ///
    /// Returns the physical copies that reach the receiver — possibly none
    /// (dropped), possibly two (duplicated), each possibly corrupted,
    /// delayed or deferred. Every physical copy, delivered or not, is
    /// charged to the underlying [`NetworkSim`].
    pub fn send(&self, wire: &str) -> Vec<Arrival> {
        let mut injector = self.injector.lock().unwrap_or_else(|e| e.into_inner());
        let (rng, counts) = &mut *injector;
        let copies = if rng.gen::<f64>() < self.profile.duplicate {
            counts.duplicated += 1;
            2
        } else {
            1
        };
        let mut arrivals = Vec::with_capacity(copies);
        for _ in 0..copies {
            // the copy left the sender: it consumes wire and latency even
            // when it never arrives
            self.sim.transfer(wire.len());
            if rng.gen::<f64>() < self.profile.drop {
                counts.dropped += 1;
                continue;
            }
            let payload = if rng.gen::<f64>() < self.profile.corrupt {
                counts.corrupted += 1;
                Some(corrupt_one_byte(wire, rng))
            } else {
                None
            };
            let delay_us = if self.profile.delay_max_us > 0 {
                let d = rng.gen_range(0..=self.profile.delay_max_us);
                counts.delayed_us += d;
                d
            } else {
                0
            };
            let late = rng.gen::<f64>() < self.profile.reorder;
            if late {
                counts.reordered += 1;
            }
            arrivals.push(Arrival { payload, delay_us, late });
        }
        arrivals
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.injector.lock().unwrap_or_else(|e| e.into_inner()).1
    }
}

/// Replace one byte of `wire` with a different printable ASCII byte at a
/// position chosen to hold a single-byte UTF-8 character, keeping the copy
/// a valid (if tampered) `String`. One byte is the minimal corruption — if
/// the verification pipeline catches that, it catches anything larger.
fn corrupt_one_byte(wire: &str, rng: &mut StdRng) -> String {
    let mut bytes = wire.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let start = rng.gen_range(0..bytes.len());
    // scan forward (wrapping) to the nearest ASCII byte so the mutation
    // cannot split a multi-byte character
    let idx = (0..bytes.len())
        .map(|off| (start + off) % bytes.len())
        .find(|&i| bytes[i].is_ascii())
        .unwrap_or(start);
    let replacement = loop {
        let candidate = b'!' + (rng.gen_range(0..94u8)); // printable ASCII 0x21..=0x7e
        if candidate != bytes[idx] {
            break candidate;
        }
    };
    bytes[idx] = replacement;
    String::from_utf8(bytes).expect("ASCII-for-ASCII substitution preserves UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(profile: FaultProfile, seed: u64) -> FaultyNetwork {
        FaultyNetwork::new(Arc::new(NetworkSim::lan()), profile, seed).unwrap()
    }

    #[test]
    fn lossless_profile_delivers_everything_intact() {
        let n = net(FaultProfile::lossless(), 1);
        for _ in 0..100 {
            let arrivals = n.send("<doc>payload</doc>");
            assert_eq!(arrivals.len(), 1);
            assert!(arrivals[0].payload.is_none());
            assert_eq!(arrivals[0].delay_us, 0);
            assert!(!arrivals[0].late);
        }
        assert_eq!(n.counts(), FaultCounts::default());
        assert_eq!(n.sim().messages(), 100);
    }

    #[test]
    fn same_seed_replays_the_same_fault_schedule() {
        let a = net(FaultProfile::hostile(), 42);
        let b = net(FaultProfile::hostile(), 42);
        for _ in 0..200 {
            let xa = a.send("0123456789abcdef");
            let xb = b.send("0123456789abcdef");
            assert_eq!(xa.len(), xb.len());
            for (pa, pb) in xa.iter().zip(&xb) {
                assert_eq!(pa.payload, pb.payload);
                assert_eq!(pa.delay_us, pb.delay_us);
                assert_eq!(pa.late, pb.late);
            }
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn fault_rates_manifest_roughly_as_configured() {
        let n = net(FaultProfile { drop: 0.3, ..FaultProfile::lossless() }, 7);
        let mut delivered = 0;
        for _ in 0..1000 {
            delivered += n.send("x".repeat(64).as_str()).len();
        }
        let dropped = n.counts().dropped;
        assert_eq!(delivered as u64 + dropped, 1000);
        assert!((200..400).contains(&dropped), "≈30% of 1000, got {dropped}");
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let n = net(FaultProfile { corrupt: 1.0 - f64::EPSILON, ..FaultProfile::lossless() }, 3);
        let wire = "<Element attr=\"value\">text content</Element>";
        for _ in 0..50 {
            let arrivals = n.send(wire);
            let corrupted = arrivals[0].payload.as_ref().expect("always corrupted");
            assert_eq!(corrupted.len(), wire.len());
            let diffs = corrupted.bytes().zip(wire.bytes()).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1, "exactly one byte flipped");
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
            assert!(matches!(
                FaultyNetwork::new(Arc::clone(&sim), bad, 0),
                Err(WfError::Config(_))
            ));
        }
    }

    #[test]
    fn dropped_copies_still_consume_the_wire() {
        let n = net(FaultProfile { drop: 0.5, ..FaultProfile::lossless() }, 11);
        for _ in 0..100 {
            n.send("0123456789");
        }
        assert_eq!(n.sim().messages(), 100, "every copy is charged, delivered or not");
        assert_eq!(n.sim().bytes(), 1000);
    }
}
