//! # dra-bench — workloads and harnesses for the paper's evaluation
//!
//! Shared by the `claim` binary (`src/bin/claim.rs`; every claim, the
//! paper's two tables included, and the harness around them live in
//! [`claims`]) and the document dump; every deployment either of them, the
//! fuzzer or an integration test runs on is built by [`rig`]. The central
//! piece of the paper's own tables is [`fig9::walk`], which executes the exact step sequence of the paper's
//! experiments (Fig. 9A/9B: sequence, AND-split/join, one loop iteration)
//! while timing each phase at the same boundaries as Tables 1–2:
//!
//! * **α** — time for the AEA (and TFC in the advanced model) to decrypt
//!   cipher data and verify digital signatures on receive,
//! * **β** — time for the AEA to encrypt the result and embed signatures,
//! * **γ** — time for the TFC to re-encrypt, timestamp and sign,
//! * **Σ** — the size of the generated document in bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod fig9;
pub mod fuzz;
pub mod rig;
pub mod table;

pub use fig9::{run_fig9_trace, StepRecord};
