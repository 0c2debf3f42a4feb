//! `kddbench` — the end-to-end and per-layer benchmark of the KDD stack.
//!
//! One process runs one named workload with one seed on one thread:
//!
//! 1. **Set-up** (timed as `setup_s`): generate the seeded trace and every
//!    page payload, build the engine or the counting model, and, where
//!    the workload asks for a warm cache, prefill it.
//! 2. **Measurement**: replay the pre-generated inputs, repeating
//!    set-up + replay on fresh state until the time budget is spent.
//!    Host-time metrics are medians over the repeats; simulated-time and
//!    counting metrics come from one repeat and must repeat exactly.
//! 3. **Checks**: every read is compared with the last acknowledged
//!    version; after the replay the engine is cleaned, flushed and
//!    power-cycled and every written address is read back.
//!
//! With `--trace 1` the replay is wrapped in outside-in spans (one per
//! public engine call, classified by the change in `stats()` across the
//! call) and every lower layer is timed alone on the workload's own
//! inputs ("rungs"); the layer budget multiplies the two. See
//! `kddbench/README.md` for the workloads, the metric table and the
//! recorded numbers.

pub mod alloc;
pub mod engine_run;
pub mod inputs;
pub mod model_run;
pub mod report;
pub mod rungs;
pub mod stats;

use std::time::Instant;

pub use inputs::{Size, Workload};
pub use report::Report;

/// Options of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds (repeats start while it lasts).
    pub seconds: f64,
    /// Traced run: spans, rungs and the layer budget instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input size (`Full` for the benchmark, `Smoke` for self-tests).
    pub size: Size,
}

/// Run one invocation and return its report.
pub fn run(opts: &Opts) -> Report {
    let start = Instant::now();
    let mut report = match opts.workload {
        Workload::Fig9Model => model_run::run(opts),
        _ => engine_run::run(opts),
    };
    report.wall_s = start.elapsed().as_secs_f64();
    report
}
