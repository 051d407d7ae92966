//! End-to-end and per-layer benchmark of the netdsl protocol stack.
//!
//! The benchmark drives the stack from outside, through public entry
//! points only (`SuiteDriver::run`, `drive_duplex`,
//! `Campaign::run_streaming` with `MultiSessionDriver`), audits every
//! result, and reports either the end-to-end metrics (untraced run) or
//! the per-layer breakdown (traced run, in its own process: the `obs`
//! metric switch is process-wide). See `run.rs` and `layers.rs`.

pub mod alloc;
pub mod audit;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
