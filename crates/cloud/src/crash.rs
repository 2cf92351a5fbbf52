//! Seeded crash-fault schedules over the named injection points.
//!
//! A [`CrashPlan`] decides, deterministically, at which visit of which
//! injection point a component dies. It is the crash-side analogue of
//! [`crate::faults::FaultProfile`]: the same plan always kills the same
//! visit, so a recovery run is exactly reproducible — the property the
//! `claim crash` bench sweeps to show byte-identical pools after recovery.
//!
//! A plan fires **once** and then disarms (single-crash schedules): the
//! recovered component revisits the same site during takeover and must get
//! through, exactly like a machine that stays up after its reboot.

use dra4wfms_core::faultpoint::{site, CrashHook};
use dra4wfms_core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The injection points a plan can target, one per named site in
/// [`dra4wfms_core::faultpoint::site`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// The AEA dies right after verifying its input.
    AeaAfterVerify,
    /// The AEA dies before signing the result.
    AeaBeforeSign,
    /// The AEA dies after signing, before the send leaves.
    AeaAfterSign,
    /// The TFC dies between the timestamp draw and the re-encrypt.
    TfcAfterTimestamp,
    /// The portal dies between the seen-row and the document row.
    PortalBetweenSeenAndStore,
    /// A replica cloud dies after journalling an admission's ops but
    /// before committing them — the torn-replication hazard. Deliberately
    /// *not* part of [`CrashPoint::ALL`]/[`CrashPoint::BASIC`]: those
    /// sweep single-cloud deployments where the site is never visited;
    /// federation sweeps and tests schedule it explicitly.
    ReplicaBeforeCommit,
}

impl CrashPoint {
    /// Every single-cloud injection point, in sweep order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::AeaAfterVerify,
        CrashPoint::AeaBeforeSign,
        CrashPoint::AeaAfterSign,
        CrashPoint::TfcAfterTimestamp,
        CrashPoint::PortalBetweenSeenAndStore,
    ];

    /// The points reachable without a TFC server (the basic model).
    pub const BASIC: [CrashPoint; 4] = [
        CrashPoint::AeaAfterVerify,
        CrashPoint::AeaBeforeSign,
        CrashPoint::AeaAfterSign,
        CrashPoint::PortalBetweenSeenAndStore,
    ];

    /// The stable site name this point corresponds to.
    pub fn site(self) -> &'static str {
        match self {
            CrashPoint::AeaAfterVerify => site::AEA_AFTER_VERIFY,
            CrashPoint::AeaBeforeSign => site::AEA_BEFORE_SIGN,
            CrashPoint::AeaAfterSign => site::AEA_AFTER_SIGN,
            CrashPoint::TfcAfterTimestamp => site::TFC_AFTER_TIMESTAMP,
            CrashPoint::PortalBetweenSeenAndStore => site::PORTAL_BETWEEN_SEEN_AND_STORE,
            CrashPoint::ReplicaBeforeCommit => site::PORTAL_REPLICA_BEFORE_COMMIT,
        }
    }

    fn from_site(name: &str) -> Option<CrashPoint> {
        CrashPoint::ALL
            .into_iter()
            .chain([CrashPoint::ReplicaBeforeCommit])
            .find(|p| p.site() == name)
    }
}

/// A deterministic single-crash schedule: kill `point` on its `nth` visit.
pub struct CrashPlan {
    target: Option<(CrashPoint, u64)>,
    visits: AtomicU64,
    fired: AtomicBool,
    crashes: AtomicU64,
}

impl CrashPlan {
    /// A plan that never crashes anything.
    pub fn none() -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            target: None,
            visits: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            crashes: AtomicU64::new(0),
        })
    }

    /// Crash on the `nth` visit (1-based) of `point`, once.
    pub fn once(point: CrashPoint, nth: u64) -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            target: Some((point, nth.max(1))),
            visits: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            crashes: AtomicU64::new(0),
        })
    }

    /// Seeded schedule: the visit to kill is drawn from `seed` in
    /// `[1, max_nth]`. Same seed + point + bound ⇒ same schedule.
    pub fn seeded(point: CrashPoint, seed: u64, max_nth: u64) -> Arc<CrashPlan> {
        Self::once(point, 1 + splitmix64(seed) % max_nth.max(1))
    }

    /// The scheduled (point, visit), if any.
    pub fn scheduled(&self) -> Option<(CrashPoint, u64)> {
        self.target
    }

    /// Crashes this plan has injected so far (0 or 1).
    pub fn crashes_injected(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Consult the plan at an injection point. Returns
    /// [`WfError::Crash`] exactly when this is the scheduled visit and the
    /// plan has not fired yet.
    pub fn check(&self, point: CrashPoint) -> WfResult<()> {
        let Some((target, nth)) = self.target else { return Ok(()) };
        if target != point {
            return Ok(());
        }
        let visit = self.visits.fetch_add(1, Ordering::Relaxed) + 1;
        if visit == nth && !self.fired.swap(true, Ordering::Relaxed) {
            self.crashes.fetch_add(1, Ordering::Relaxed);
            return Err(WfError::Crash(format!("{} (visit {visit})", point.site())));
        }
        Ok(())
    }

    /// Adapt the plan into the [`CrashHook`] seam core components take.
    pub fn hook(self: &Arc<Self>) -> CrashHook {
        let plan = Arc::clone(self);
        Arc::new(move |name| match CrashPoint::from_site(name) {
            Some(point) => plan.check(point),
            None => Ok(()),
        })
    }
}

/// SplitMix64 — tiny seeded mixer, enough to spread sweep seeds over visits
/// (shared with the federation layer's seeded outage/tamper plans).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_the_scheduled_visit() {
        let plan = CrashPlan::once(CrashPoint::AeaBeforeSign, 3);
        assert!(plan.check(CrashPoint::AeaBeforeSign).is_ok());
        assert!(plan.check(CrashPoint::AeaAfterVerify).is_ok(), "other points untouched");
        assert!(plan.check(CrashPoint::AeaBeforeSign).is_ok());
        assert!(matches!(plan.check(CrashPoint::AeaBeforeSign), Err(WfError::Crash(_))));
        assert_eq!(plan.crashes_injected(), 1);
        // disarmed: the recovered component revisits the site and survives
        assert!(plan.check(CrashPoint::AeaBeforeSign).is_ok());
        assert_eq!(plan.crashes_injected(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let a = CrashPlan::seeded(CrashPoint::TfcAfterTimestamp, seed, 12);
            let b = CrashPlan::seeded(CrashPoint::TfcAfterTimestamp, seed, 12);
            assert_eq!(a.scheduled(), b.scheduled());
            let (_, nth) = a.scheduled().unwrap();
            assert!((1..=12).contains(&nth));
        }
    }

    #[test]
    fn hook_translates_site_names() {
        let plan = CrashPlan::once(CrashPoint::PortalBetweenSeenAndStore, 1);
        let hook = plan.hook();
        assert!(hook("unknown:site").is_ok());
        assert!(matches!(hook(site::PORTAL_BETWEEN_SEEN_AND_STORE), Err(WfError::Crash(_))));
    }

    #[test]
    fn none_never_fires() {
        let plan = CrashPlan::none();
        for point in CrashPoint::ALL {
            for _ in 0..10 {
                assert!(plan.check(point).is_ok());
            }
        }
        assert_eq!(plan.crashes_injected(), 0);
        assert!(plan.scheduled().is_none());
    }
}
