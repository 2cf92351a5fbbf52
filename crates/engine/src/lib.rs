//! # dra-engine — the engine-based WfMS baseline
//!
//! The comparator the paper argues against (§1, Fig. 1): centralized and
//! distributed **engine-based** workflow management systems, where process
//! instances live inside administrated workflow engines.
//!
//! This crate exists to reproduce the paper's negative claims concretely:
//!
//! * **Nonrepudiation failure** ([`engine::Superuser`]) — "superusers exist
//!   in the administration domain of WfMSs … the administrator of a
//!   relational database always has the privilege to update the contents and
//!   logs in the database. It is obvious that the central WfMS also cannot
//!   guarantee the nonrepudiation requirement." A superuser can rewrite
//!   stored execution results *and the audit log* without leaving any
//!   detectable trace, whereas any such rewrite of a DRA4WfMS document
//!   breaks a signature.
//! * **Scalability bottleneck** ([`distributed`]) — "the accesses and
//!   coherence of shared workflow process instances are a bottleneck. If a
//!   process instance is replicated in multiple servers, we have to use a
//!   coherence protocol to maintain the consistency between concurrent
//!   accesses." The distributed baseline implements the single-primary
//!   ownership protocol with instance migration that engine-based systems
//!   need, and the benches measure its cost against document routing.
//! * **Transport security is not enough** ([`engine::Superuser`]) — a
//!   channel that protects documents in flight leaves them in the clear at
//!   rest in the engine, where the superuser rewrites them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod engine;

pub use distributed::DistributedWfms;
pub use engine::{EngineError, EngineResult, ProcessInstance, Superuser, WorkflowEngine};
