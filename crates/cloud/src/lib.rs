//! # dra-cloud — DRA4WfMS in the cloud (paper §3, Fig. 7)
//!
//! "A user connects to one of the portal servers to access the DRA4WfMS
//! cloud system … the portal server just simply sends a copy of the
//! DRA4WfMS document to the user. The user employs an AEA to execute the
//! activity … and then sends it back to the portal server. When an AEA sends
//! the resulting document to the portal server, the portal server verifies
//! it and … stores it in the pool of DRA4WfMS documents. By checking this
//! document, the DRA4WfMS cloud system can inform the subsequent
//! participant(s)."
//!
//! * [`netsim`] — a simulated network that accounts for message count and
//!   bytes so routing costs can be compared analytically (virtual time),
//! * [`faults`] — what goes wrong, and where: a channel's [`FaultProfile`]
//!   (drop / duplicate / reorder / delay / bit-corrupt rates) and the one
//!   [`FaultPlan`], a script of `(site, trigger)` entries that kills an AEA,
//!   the TFC, a portal or a replica at a named site, corrupts a portal's
//!   serve, or takes a cloud down; recovery is journal replay + lease-based
//!   hop takeover, and the recovered run's pool is byte-identical to the
//!   fault-free one,
//! * [`delivery`] — the channel: one seeded fault stream per [`Delivery`],
//!   retry with exponential backoff + jitter in virtual time, bounded
//!   redelivery, and per-run [`DeliveryStats`]: runs complete *through* the
//!   faulty channel, and a fault can cost time but never safety,
//! * [`portal`] — stateless portal servers over one [`dra_docpool`] pool
//!   and write-ahead journal per member cloud (a single cloud is a topology
//!   of one): store / retrieve / search (TO-DO lists) / notify / monitor /
//!   MapReduce statistics; idempotent by wire digest, so duplicated copies
//!   never grow the pool; verification is narrowed only by the trust mark
//!   a document carries, never by portal memory. Each fact is kept once: a
//!   portal's admissions and notifications in its [`PortalStats`], a
//!   cloud's commits in its journal, status and progress in the fleet
//!   views, and replicas are compared by the SHA-256 of their stored
//!   versions,
//! * [`runner`] — the end-to-end scenario builder ([`InstanceRun`]): one
//!   hop through an AEA, the TFC and a portal, optionally over a
//!   fault-injecting delivery channel, and pool-anchored recovery of a
//!   crashed hop's inputs,
//! * [`monitor`] — an online [`HealthMonitor`] sink over the live span
//!   stream: typed deterministic alerts (stuck instance, retry storm,
//!   crash loop, SLO breach) at fixed thresholds in virtual time, fed back
//!   into the runner so the supervisor can act on observation instead of
//!   only lease expiry,
//! * [`sched`] — the event-driven execution core: portal admissions emit
//!   typed [`Activation`]s onto a deployment-wide [`ActivationBus`], and a
//!   [`Scheduler`] drains them in deterministic virtual-time order to
//!   dispatch hops — so `notify` wakes the next participant at O(1), and
//!   whole fleets of instances interleave over shared portals, delivery,
//!   leases and the monitor ([`InstanceRun::run`] is a single-instance
//!   facade over it; there is no other run loop),
//! * [`federation`] — the multi-cloud control plane: a [`Topology`] groups
//!   portals into named clouds with replicated pools/journals, and a
//!   [`FederationController`] consumes [`HealthMonitor`] alerts (including
//!   the typed `portal_tampered` integrity alert) to quarantine portals
//!   and fail admissions over to a healthy cloud — a bad cloud costs time,
//!   never safety,
//! * [`audit`] — a continuous nonrepudiation auditor: a [`PoolAuditor`]
//!   samples stored rows through the scan API in virtual time, spot-checks
//!   them with the batched verifier, and raises a typed `audit_divergence`
//!   alert the federation pump turns into quarantine — forged rows are
//!   caught even when nobody ever serves them.
//!
//! The pool's row layout — key strings, column families, key parsers —
//! is private to this crate and lives in one module, `schema`; committing
//! a batch, reading a stored version and judging one live in another,
//! `store`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod delivery;
pub mod faults;
pub mod federation;
pub mod monitor;
pub mod netsim;
pub mod obs;
pub mod portal;
pub mod runner;
pub mod sched;
pub(crate) mod schema;
pub(crate) mod store;

pub use audit::{AuditConfig, PoolAuditor};
pub use delivery::{Base, Delivery, DeliveryStats, FaultCounts};
pub use faults::{FaultPlan, FaultProfile, Trigger};
pub use federation::{CloudSpec, FederationController, FederationStats, Topology};
pub use monitor::{alerts_to_jsonl, Alert, AlertKind, HealthMonitor};
pub use netsim::NetworkSim;
pub use obs::{check_metric_invariants, tracer_for};
pub use portal::{CloudSystem, PortalStats, StoreAck, TodoEntry};
pub use runner::{InstanceRun, Responder, RunOutcome, LEASE_US, MAX_TAKEOVERS};
pub use sched::{Activation, ActivationBus, SchedStats, Scheduler};
