//! # dra-xml — secure XML document layer for DRA4WfMS
//!
//! The paper represents workflow documents as XML and secures them with W3C
//! XML Encryption (element-wise encryption) and XML Signature, via the Java
//! XML DSig API and Apache Santuario. Mature equivalents do not exist in the
//! Rust ecosystem, so this crate implements the needed subset from scratch:
//!
//! * [`node`] — an XML element tree of shared, memoizing nodes
//! * [`escape`] — XML escaping/unescaping
//! * [`writer`] — compact and pretty serialization
//! * [`parser`] — a parser for the subset this system emits
//! * [`canon`] — canonical serialization (deterministic bytes to sign)
//! * [`enc`] — element-wise encryption with multi-recipient key wrapping
//! * [`sig`] — detached element signatures in the XML-DSig style
//!
//! Canonicalization here plays the role of W3C C14N: both the signer and the
//! verifier serialize the covered elements to an identical byte stream, so a
//! signature survives parsing/re-serialization round trips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
pub use sig::{sign_detached, verify_detached, SignatureBlock};
pub use writer::{wire_written_bytes, wire_written_bytes_reset};
