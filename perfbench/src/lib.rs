//! `perfbench` — the repository's performance benchmark.
//!
//! It drives the public API of the delorean workspace on fixed seeded
//! workloads (see [`workloads`]). Every round runs each user-visible
//! operation once — record, timing replay, functional and parallel
//! replay, analyze, checkpoint, seek and window replay — and checks
//! its output. With tracing off the run reports end-to-end medians;
//! with tracing on it also runs layer probes and reports per-layer
//! times, counts and self times from in-memory spans (see [`trace`]).
//! `README.md` in this directory describes the workloads and metrics.

#![forbid(unsafe_code)]

mod bench;
pub mod metrics;
pub mod trace;
pub mod workloads;

pub use bench::run;
