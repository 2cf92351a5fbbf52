//! # dra4wfms-core — the Document Routing Architecture for WfMS
//!
//! A Rust implementation of the paper *"A Framework for Nonrepudiatable and
//! Scalable Cross-Enterprise Workflow Management Systems in the Cloud"*
//! (Hwang, Hsiao, Kao, Lin — IEEE IPDPSW 2012): an **engine-less,
//! document-routing** workflow management system in which the process
//! instance travels inside a self-protecting XML document.
//!
//! ## Security framework
//!
//! * **Authentication** — every actor holds Ed25519/X25519 keypairs
//!   registered in a [`identity::Directory`]; every execution is checked
//!   against the participant the definition assigns.
//! * **Confidentiality** — element-wise encryption ([`fields`]): each form
//!   field is encrypted to exactly its policy-defined audience.
//! * **Integrity** — any alteration of the routed document breaks a
//!   signature during verification ([`verify::Verifier`]).
//! * **Nonrepudiation** — the cascade of signatures: each participant signs
//!   its result *and the signatures of all predecessor activities*
//!   ([`aea`]); Algorithm 1 ([`scope`]) derives who cannot deny what.
//!
//! ## Operational models
//!
//! * **Basic** ([`aea::Aea::complete`]) — the participant's AEA encrypts,
//!   signs and routes on its own.
//! * **Advanced** ([`aea::Aea::complete_via_tfc`] + [`tfc::TfcServer`]) —
//!   the document passes through a Timestamp & Flow Control server that
//!   re-encrypts per policy, embeds trusted timestamps and resolves routing
//!   the participant must not see (the paper's Fig. 4 conflict-of-interest
//!   scenario).
//!
//! ## Quick start
//!
//! ```
//! use dra4wfms_core::prelude::*;
//!
//! // actors
//! let designer = Credentials::from_seed("designer", "seed-d");
//! let alice = Credentials::from_seed("alice", "seed-a");
//! let bob = Credentials::from_seed("bob", "seed-b");
//! let directory = Directory::from_credentials([&designer, &alice, &bob]);
//!
//! // a two-step workflow
//! let def = WorkflowDefinition::builder("expense", "designer")
//!     .simple_activity("submit", "alice", &["amount"])
//!     .simple_activity("approve", "bob", &["decision"])
//!     .flow("submit", "approve")
//!     .flow_end("approve")
//!     .build()
//!     .unwrap();
//! let policy = SecurityPolicy::builder()
//!     .restrict("submit", "amount", &["bob"])
//!     .build();
//!
//! // the secured initial document
//! let doc = DraDocument::new_initial(&def, &policy, &designer).unwrap();
//!
//! // alice executes "submit"
//! let aea = Aea::new(alice, directory.clone());
//! let wire = doc.to_xml_string();
//! let received = aea.receive(SealedDocument::from_wire(&wire).unwrap(), "submit").unwrap();
//! let done = aea.complete(&received, &[("amount".into(), "120".into())]).unwrap();
//! assert_eq!(done.route.targets, vec!["approve".to_string()]);
//!
//! // bob executes "approve" — seeing amount, verifying the whole cascade
//! let aea = Aea::new(bob, directory.clone());
//! let wire = done.document.to_xml_string();
//! let received = aea.receive(SealedDocument::from_wire(&wire).unwrap(), "approve").unwrap();
//! let done = aea.complete(&received, &[("decision".into(), "ok".into())]).unwrap();
//! assert!(done.route.ends);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aea;
pub mod amendment;
pub mod document;
pub mod dsl;
pub mod error;
pub mod faultpoint;
pub mod fields;
pub mod flow;
pub mod identity;
pub mod model;
pub mod monitor;
pub mod policy;
pub mod reconcile;
pub mod scope;
pub mod sealed;
pub mod semantics;
pub mod soundness;
pub mod tfc;
pub mod verify;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::aea::{Aea, CompletedActivity, IntermediateActivity, ReceivedActivity};
    pub use crate::amendment::{amend_document, effective_definition, DefinitionDelta};
    pub use crate::document::{CerKey, DraDocument, PredRef};
    pub use crate::dsl::{parse_workflow, to_dsl};
    pub use crate::error::{WfError, WfResult};
    pub use crate::faultpoint::CrashHook;
    pub use crate::fields::FieldReader;
    pub use crate::flow::{merge_documents, merge_sealed, DocFieldReader};
    pub use crate::identity::{Credentials, Directory, Identity};
    pub use crate::model::{
        Activity, CancelRegion, Cardinality, Condition, FieldRef, JoinKind, MultiInstance, Target,
        Transition, WorkflowDefinition,
    };
    pub use crate::monitor::{ProcessStatus, SloReport};
    pub use crate::policy::{FieldRule, Readers, SecurityPolicy};
    pub use crate::reconcile::{reconcile, ReconcileError, ReconcileReport};
    pub use crate::scope::{all_scopes, nonrepudiation_scope};
    pub use crate::sealed::{prefix_digest, SealedDocument, TrustMark};
    pub use crate::semantics::Route;
    pub use crate::soundness::{check_soundness, require_sound, SoundnessError, SoundnessReport};
    pub use crate::tfc::{TfcProcessed, TfcServer};
    pub use crate::verify::{VerificationReport, Verifier, VerifyOutcome};
}

pub use prelude::*;
