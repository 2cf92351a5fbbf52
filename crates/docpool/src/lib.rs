//! # dra-docpool — the pool of DRA4WfMS documents
//!
//! The paper stores documents in HBase on Hadoop: "HBase is a distributed
//! column-oriented database … the optimal Hadoop application to use when
//! real-time read/write random accesses to very large datasets are required.
//! A DRA4WfMS document is stored as a cell in a row of an HBase table"
//! (§4.2). This crate reproduces the slice of that stack the system relies
//! on, in-process:
//!
//! * [`cluster`] — the table: one ordered map of rows, one value per
//!   column, point reads and writes
//! * [`scan`] — typed bounded scans that hand back the stored rows (the
//!   monitoring-query path that replaces full-table reads)
//! * [`mapreduce`] — a mini MapReduce framework, one fold over a scan's rows
//!   (the paper's "MapReduce computing model … can apply some statistical
//!   analyses to workflow processes or instances stored in the DRA4WfMS
//!   cloud system")
//! * [`journal`] and [`persist`] — the write-ahead journal multi-row updates
//!   commit through, and the table's snapshot format
//! * [`views`] — incrementally maintained fleet views with a differential
//!   `views ≡ scan` proof obligation
//!
//! The crate spawns no thread: every operation runs on its caller's. A
//! table is safe to share between callers, behind one `std::sync`
//! reader-writer lock that no read holds past its return — the document
//! pool is the scalability substrate for the cloud experiments (claims
//! C4/C5 in EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod journal;
pub mod mapreduce;
pub mod persist;
mod row;
pub mod scan;
pub mod views;

pub use cluster::{HTable, TableConfig};
pub use journal::{record_bytes, Journal, PutOp};
pub use mapreduce::map_reduce_scan;
pub use persist::PersistError;
pub use row::Row;
pub use scan::{Scan, ScanResult};
pub use views::{FleetViews, GapTotals};
