//! The one benchmark of quadforest: five named workloads, end-to-end
//! metrics from an untraced run, a per-layer table from a traced run.
//! See `README.md` beside this crate and `/BENCHMARK.json`.

pub mod compare;
pub mod json;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

/// How long one run measures, as `/BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 12;
