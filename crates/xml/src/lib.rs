//! # dra-xml — secure XML document layer for DRA4WfMS
//!
//! The paper represents workflow documents as XML and secures them with W3C
//! XML Encryption (element-wise encryption) and XML Signature, via the Java
//! XML DSig API and Apache Santuario. Mature equivalents do not exist in the
//! Rust ecosystem, so this crate implements the needed subset from scratch:
//!
//! * [`node`] — an XML element tree of shared nodes, one memo each
//! * [`escape`] — the one escape of each character that has one
//! * [`writer`] — the one serialization, and a pretty printer
//! * [`parser`] — a parser that accepts exactly what the writer writes
//! * [`canon`] — the bytes a signature covers: the writer's
//! * [`enc`] — element-wise encryption with multi-recipient key wrapping
//! * [`sig`] — detached element signatures in the XML-DSig style
//!
//! Canonicalization here plays the role of W3C C14N, which exists because
//! signer and verifier do not share a writer. Here they do, so the wire form
//! is the canonical form: the parser refuses any other spelling, every
//! accepted document re-serializes to its own bytes, and a signature covers
//! exactly what travels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod canon;
pub mod enc;
pub mod escape;
pub mod node;
pub mod parser;
pub mod sig;
pub mod writer;

pub use canon::{canon_alloc_bytes, canon_alloc_reset, canon_digest};
pub use enc::{decrypt_element, encrypt_element, EncryptError, Recipient};
pub use node::{Canon, Element, Node};
pub use parser::{parse, ParseError};
pub use sig::{sign_detached, SignatureBlock};
pub use writer::{wire_written_bytes, wire_written_bytes_reset};
