//! # dra4wfms — Nonrepudiatable & Scalable Cross-Enterprise WfMS in the Cloud
//!
//! Umbrella crate for the Rust reproduction of *"A Framework for
//! Nonrepudiatable and Scalable Cross-Enterprise Workflow Management Systems
//! in the Cloud"* (Hwang, Hsiao, Kao, Lin — IEEE IPDPSW 2012).
//!
//! The system is an **engine-less, document-routing WfMS**: the workflow
//! process instance travels inside a self-protecting XML document secured by
//! element-wise encryption and a cascade of digital signatures, so
//! authentication, confidentiality, integrity and nonrepudiation hold even
//! when the cloud provider itself is untrusted.
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `dra4wfms-core` | workflow model, documents, AEA, TFC, Algorithm 1 |
//! | [`crypto`] | `dra-crypto` | Ed25519, X25519, ChaCha20, SHA-2, sealed boxes |
//! | [`xml`] | `dra-xml` | XML tree, canonicalization, element encryption, signatures |
//! | [`engine`] | `dra-engine` | the engine-based baseline WfMS (the comparator) |
//! | [`docpool`] | `dra-docpool` | document pool (one ordered map) + mini MapReduce |
//! | [`cloud`] | `dra-cloud` | portal servers, network sim, scenario runner |
//! | [`obs`] | `dra-obs` | virtual-time spans, metrics registry, trace exporters |
//!
//! See the `examples/` directory for runnable walkthroughs:
//!
//! * `quickstart` — a two-step workflow under the basic model
//! * `purchase_order` — the paper's Fig. 9 process under the advanced model
//! * `conflict_of_interest` — the Fig. 4 flow-concealment scenario
//! * `tamper_detection` — superuser tampering: engine baseline vs DRA4WfMS
//! * `cloud_scale` — many concurrent instances + MapReduce statistics

#![forbid(unsafe_code)]

pub mod cli;

pub use dra4wfms_core as core;
pub use dra_cloud as cloud;
pub use dra_crypto as crypto;
pub use dra_docpool as docpool;
pub use dra_engine as engine;
pub use dra_obs as obs;
pub use dra_xml as xml;

pub use dra4wfms_core::prelude;
pub use dra4wfms_core::prelude::*;
