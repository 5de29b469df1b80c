//! End-to-end and per-layer benchmark of the P-OPT reproduction.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read a before/after comparison.

pub mod checks;
pub mod graphs;
pub mod report;
pub mod spans;
pub mod workloads;
