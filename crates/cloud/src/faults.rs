//! What goes wrong, and where: the channel's fault rates and the one
//! script of site faults.
//!
//! The paper's engine-less claim rests on documents surviving hostile,
//! unreliable multi-cloud deployments. Two things decide what goes wrong:
//!
//! * a [`FaultProfile`] — per-copy rates at which a
//!   [`Delivery`](crate::delivery::Delivery) channel **drops**,
//!   **duplicates**, **delays**, **reorders** and **bit-corrupts** the wire
//!   bytes it carries, drawn from the channel's own seeded stream;
//! * a [`FaultPlan`] — a script of `(site, trigger)` entries over the named
//!   sites of [`dra4wfms_core::faultpoint::site`]: an AEA, the TFC or a
//!   portal dies on the nth visit of a site, a portal corrupts its nth serve,
//!   a cloud is unreachable from a virtual instant on. Actors consult it
//!   through a [`CrashHook`], a deployment through
//!   [`CloudSystem::with_faults`](crate::CloudSystem::with_faults).
//!
//! Both are deterministic: the same seed and profile replay the same channel
//! faults, the same plan strikes the same visits, so a recovery run is
//! exactly reproducible — the property `claim faults`, `claim crash` and
//! `claim federation` sweep. A fault costs time, never safety.

use dra4wfms_core::error::{WfError, WfResult};
use dra4wfms_core::faultpoint::CrashHook;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-copy fault probabilities and magnitudes for a
/// [`Delivery`](crate::delivery::Delivery) channel.
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

/// When a [`FaultPlan`] entry strikes its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// On the nth visit of the site (1-based), and on no other: a crash or a
    /// tampered serve. The recovered component revisits the site during
    /// takeover and gets through, like a machine that stays up after its
    /// reboot.
    Visit(u64),
    /// On every visit from this virtual instant (µs) on: an outage, the
    /// disaster-recovery case. A site visited without a clock (an actor's
    /// [`CrashHook`]) is visited at instant 0.
    From(u64),
}

/// The trigger as error text puts it: `visit 3`, `outage since 700us`.
impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Visit(nth) => write!(f, "visit {nth}"),
            Trigger::From(from_us) => write!(f, "outage since {from_us}us"),
        }
    }
}

struct Entry {
    site: String,
    trigger: Trigger,
    visits: AtomicU64,
}

/// A deterministic script of site faults: `(site, trigger)` entries, asked
/// by site name. One plan serves a whole cell — its actors through
/// [`FaultPlan::hook`], its deployment through
/// [`CloudSystem::with_faults`](crate::CloudSystem::with_faults) — so a
/// crash and a tamper can share a run. A site the plan does not name passes.
pub struct FaultPlan {
    entries: Vec<Entry>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// A plan of `entries`; visits are counted per entry.
    pub fn of(entries: impl IntoIterator<Item = (String, Trigger)>) -> Arc<FaultPlan> {
        let entries = entries
            .into_iter()
            .map(|(site, trigger)| Entry { site, trigger, visits: AtomicU64::new(0) })
            .collect();
        Arc::new(FaultPlan { entries, fired: AtomicU64::new(0) })
    }

    /// A plan that never strikes.
    pub fn none() -> Arc<FaultPlan> {
        Self::of([])
    }

    /// Strike `site` on its `nth` visit (1-based), once.
    pub fn once(site: &str, nth: u64) -> Arc<FaultPlan> {
        Self::of([(site.to_string(), Trigger::Visit(nth))])
    }

    /// Visit `site` at virtual instant `now_us`: the trigger of the entry
    /// that strikes this visit, if one does.
    pub fn visit(&self, site: &str, now_us: u64) -> Option<Trigger> {
        let mut struck = None;
        for entry in self.entries.iter().filter(|e| e.site == site) {
            let strikes = match entry.trigger {
                Trigger::Visit(nth) => {
                    let strikes = entry.visits.fetch_add(1, Ordering::Relaxed) + 1 == nth;
                    self.fired.fetch_add(u64::from(strikes), Ordering::Relaxed);
                    strikes
                }
                Trigger::From(from_us) => now_us >= from_us,
            };
            if strikes {
                struck.get_or_insert(entry.trigger);
            }
        }
        struck
    }

    /// How many [`Trigger::Visit`] entries have struck so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Visit a crash site: [`WfError::Crash`] naming the site and the
    /// trigger (`"aea:before-sign (visit 3)"`) when this visit strikes.
    pub fn check(&self, site: &str) -> WfResult<()> {
        match self.visit(site, 0) {
            Some(trigger) => Err(WfError::Crash(format!("{site} ({trigger})"))),
            None => Ok(()),
        }
    }

    /// The plan as the [`CrashHook`] seam core components take.
    pub fn hook(self: &Arc<Self>) -> CrashHook {
        let plan = Arc::clone(self);
        Arc::new(move |site| plan.check(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra4wfms_core::faultpoint::site;

    #[test]
    fn a_visit_entry_fires_once_at_its_nth_visit_of_its_own_site() {
        let plan = FaultPlan::once(site::AEA_BEFORE_SIGN, 3);
        for _ in 0..5 {
            assert_eq!(plan.visit(site::AEA_AFTER_VERIFY, 0), None, "another site");
        }
        assert_eq!(plan.visit(site::AEA_BEFORE_SIGN, 0), None);
        assert_eq!(plan.visit(site::AEA_BEFORE_SIGN, 0), None);
        assert_eq!(plan.visit(site::AEA_BEFORE_SIGN, 0), Some(Trigger::Visit(3)));
        assert_eq!(plan.fired(), 1);
        // spent: the recovered component revisits the site and survives
        for _ in 0..5 {
            assert_eq!(plan.visit(site::AEA_BEFORE_SIGN, 0), None);
        }
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn a_from_entry_fires_at_and_after_its_instant_not_before() {
        let east = site::cloud("east");
        let plan = FaultPlan::of([(east.clone(), Trigger::From(1_000))]);
        assert_eq!(plan.visit(&east, 999), None);
        assert_eq!(plan.visit(&east, 1_000), Some(Trigger::From(1_000)));
        assert_eq!(plan.visit(&east, 5_000), Some(Trigger::From(1_000)), "every visit on");
        assert_eq!(plan.visit(&site::cloud("west"), 5_000), None);
        assert_eq!(plan.fired(), 0, "an outage is not a one-shot fault");
    }

    #[test]
    fn a_site_the_plan_does_not_name_passes() {
        let plan = FaultPlan::of([
            (site::serve(1), Trigger::Visit(1)),
            (site::cloud("east"), Trigger::From(0)),
        ]);
        let hook = plan.hook();
        assert!(hook("unknown:site").is_ok());
        assert_eq!(plan.visit(&site::serve(2), 0), None, "another portal's serve");
        assert!(FaultPlan::none().check(site::PORTAL_BETWEEN_SEEN_AND_STORE).is_ok());
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn crash_and_outage_text_is_unchanged() {
        let plan = FaultPlan::once(site::PORTAL_BETWEEN_SEEN_AND_STORE, 1);
        let hook = plan.hook();
        match hook(site::PORTAL_BETWEEN_SEEN_AND_STORE) {
            Err(WfError::Crash(text)) => {
                assert_eq!(text, "portal:between-seen-and-store (visit 1)")
            }
            other => panic!("expected a crash, got {other:?}"),
        }
        assert_eq!(Trigger::From(700).to_string(), "outage since 700us");
    }
}
