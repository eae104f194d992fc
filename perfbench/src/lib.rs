//! The repository's benchmark: Fig. 6 overhead, time to insight and
//! live-view latency over three workloads, with a leveled per-layer
//! trace. See `main.rs` for the command line and the metrics, and
//! `BENCHMARK.json` at the repository root for the workloads and bounds.
//!
//! Its smoke test runs every workload at minimal length:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod gate;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workloads;
