//! # netdsl-bench — shared machinery for the experiment harnesses
//!
//! The `benches/` directory of this crate regenerates every experiment
//! (E1–E10 from the paper, plus the engine harnesses E12–E17), each
//! emitting a `bench-results/BENCH_<id>.json` report. This library
//! holds the pieces the harnesses share and that deserve their own
//! unit tests:
//!
//! * [`loc`] — the source-line classifier behind experiment E6 (the
//!   paper's "50% or more of the code will deal with error checking"
//!   claim);
//! * [`arq_model`] — the sender × channel × receiver product model the
//!   E5 composition rows are checked on;
//! * [`campaign_drivers`] — the trust-relaying
//!   [`ScenarioDriver`](netdsl_netsim::scenario::ScenarioDriver) behind
//!   E9, the one campaign driver outside the protocol registry;
//! * [`codec_specs`] — the shared spec set and frame corpora behind
//!   experiment E12 (compiled vs interpretive codec throughput);
//! * [`harnesses`] — the campaign builders behind E4/E8/E9/E12/E13,
//!   shared with the tests that pin quick-mode ↔ full-mode label parity;
//! * [`report`] — the [`BenchReport`](report::BenchReport) schema every
//!   harness serializes to `bench-results/BENCH_<id>.json` (see
//!   `docs/BENCHMARKS.md`);
//! * [`workload`] — deterministic message/workload generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq_model;
pub mod campaign_drivers;
pub mod codec_specs;
pub mod harnesses;
pub mod loc;
pub mod report;
pub mod workload;
