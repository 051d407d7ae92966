//! The untraced run: end-to-end metrics of one workload.
//!
//! Every loop is closed: the next scenario (or grid block) starts when
//! the previous one returns. Time is counted in *blocks* of fixed
//! composition; throughput is the median over blocks, so one stall on
//! a shared machine moves it little.

use std::time::{Duration, Instant};

use netdsl_netsim::{
    BatchDriver, Campaign, Scenario, ScenarioDriver, ScenarioResult, StreamOptions,
};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::SuiteDriver;

use crate::audit::{check_stream, oracle_check, Tally};
use crate::spans::Observed;
use crate::stats::{median, quantile};
use crate::workload::{self, mix, Shape, Workload, GRID_WORKERS};

/// Scenarios per timed block of a solo workload (a multiple of its
/// cell count, so every block holds each cell equally often).
fn block_len(workload: Workload) -> usize {
    match workload {
        Workload::Bulk1k => 10,
        _ => 1_000,
    }
}

/// The call-latency percentile each workload reports. `chaos_default`
/// reports p99, which lies in its crash cells and repeats to within a
/// few percent. Elsewhere p99 does not repeat on a shared machine
/// (`bulk_1k` has only ~300 calls in a 15 s run; a grid chunk's p99 is
/// set by whatever else the machine runs), so they report p90.
pub fn tail_quantile(workload: Workload) -> f64 {
    match workload {
        Workload::ChaosDefault => 0.99,
        _ => 0.90,
    }
}

/// What a workload needs in place before its timed loop.
pub enum Prepared {
    /// Cells a solo loop cycles through.
    Solo(Vec<Campaign>),
    /// A streamed grid (blocks are built per block from the seed).
    Grid,
}

/// Builds the workload from the seed and warms it up: every cell runs
/// once (lazy codec and FSM lowering, arena and wheel growth), and the
/// grid streams one small block. This is what `setup_s` times.
pub fn setup(workload: Workload, seed: u64, shape: &Shape, tally: &mut Tally) -> Prepared {
    match workload {
        Workload::SessionGrid => {
            let observed = Observed::new(MultiSessionDriver::new(), None);
            workload::grid_campaign(seed, u64::MAX - 1, 100).run_streaming(
                &observed,
                GRID_WORKERS,
                StreamOptions::default(),
            );
            tally.merge(&observed.take_tally());
            Prepared::Grid
        }
        _ => {
            let cells = workload::solo_cells(workload, seed, shape);
            let suite = SuiteDriver::new();
            // The seed axis of a solo cell is far longer than any run, so
            // the warm-up's last seeds never recur in the timed loop.
            for cell in &cells {
                let s = cell.scenario_at(cell.scenario_count() - 1);
                tally.record(&s, &suite.run(&s));
            }
            Prepared::Solo(cells)
        }
    }
}

/// End-to-end results of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median over blocks of delivered payload MB (10⁶ B) per second.
    pub goodput_mbps: f64,
    /// Median over blocks of scenarios completed per second.
    pub sessions_per_s: f64,
    /// Median driver-call wall time, µs.
    pub call_p50_us: f64,
    /// [`tail_quantile`] of the driver-call wall time, µs.
    pub call_tail_us: f64,
    /// Driver calls timed.
    pub calls: usize,
    /// Blocks timed.
    pub blocks: usize,
    /// Scenarios completed in the timed loop.
    pub sessions: u64,
    /// Timed wall seconds.
    pub seconds: f64,
    /// Scenarios re-run by the oracle.
    pub oracle_samples: usize,
    /// Peak resident memory (`VmHWM`) right after the timed loop, MB.
    pub peak_rss_mb: f64,
    /// Failed run-level checks.
    pub broken: Vec<String>,
}

/// Runs the timed loop for `seconds` (whole blocks; the last block may
/// end past the budget), then the oracle on a seeded sample.
pub fn measure(
    workload: Workload,
    seed: u64,
    shape: &Shape,
    prepared: &Prepared,
    seconds: f64,
    tally: &mut Tally,
) -> EndToEnd {
    match prepared {
        Prepared::Solo(cells) => measure_solo(workload, seed, cells, seconds, tally),
        Prepared::Grid => measure_grid(seed, shape, seconds, tally),
    }
}

fn summarize(calls_us: &[f64], q: f64, rates: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    let sessions: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let goodput: Vec<f64> = rates.iter().map(|r| r.1).collect();
    (
        median(&goodput) / 1e6,
        median(&sessions),
        median(calls_us),
        quantile(calls_us, q),
    )
}

fn measure_solo(
    workload: Workload,
    seed: u64,
    cells: &[Campaign],
    seconds: f64,
    tally: &mut Tally,
) -> EndToEnd {
    let suite = SuiteDriver::new();
    let block = block_len(workload);
    let budget = Duration::from_secs_f64(seconds);
    // Oracle sample: one block's worth of seeded picks, capped.
    let sample_rate = (block as u64 / 5).max(1);
    let sample_cap = match workload {
        Workload::Bulk1k => 2,
        _ => 200,
    };
    let pick = mix(seed) % sample_rate;
    let mut samples: Vec<(Scenario, ScenarioResult)> = Vec::new();

    let mut calls_us = Vec::new();
    let mut rates = Vec::new();
    let mut k = 0usize;
    let mut sessions = 0u64;
    let mut timed = Duration::ZERO;
    let started = Instant::now();
    while started.elapsed() < budget {
        let mut block_time = Duration::ZERO;
        let mut block_bytes = 0u64;
        for _ in 0..block {
            let t0 = Instant::now();
            let scenario = workload::nth_scenario(cells, k);
            let t1 = Instant::now();
            let outcome = suite.run(&scenario);
            let t2 = Instant::now();
            calls_us.push((t2 - t1).as_secs_f64() * 1e6);
            block_time += t2 - t0;
            tally.record(&scenario, &outcome);
            if let Ok(result) = outcome {
                block_bytes += result.payload_bytes;
                if k as u64 % sample_rate == pick && samples.len() < sample_cap {
                    samples.push((scenario, result));
                }
            }
            k += 1;
        }
        sessions += block as u64;
        timed += block_time;
        let secs = block_time.as_secs_f64();
        rates.push((block as f64 / secs, block_bytes as f64 / secs));
    }

    let peak_rss_mb = peak_rss_mb();
    oracle_check(workload, &samples, tally);
    let (goodput_mbps, sessions_per_s, call_p50_us, call_tail_us) =
        summarize(&calls_us, tail_quantile(workload), &rates);
    EndToEnd {
        goodput_mbps,
        sessions_per_s,
        call_p50_us,
        call_tail_us,
        calls: calls_us.len(),
        blocks: rates.len(),
        sessions,
        seconds: timed.as_secs_f64(),
        oracle_samples: samples.len(),
        peak_rss_mb,
        broken: Vec::new(),
    }
}

/// Grid scenarios re-run on the oracle per run.
const GRID_ORACLE_SAMPLE: usize = 500;

fn measure_grid(seed: u64, shape: &Shape, seconds: f64, tally: &mut Tally) -> EndToEnd {
    let observed = Observed::new(MultiSessionDriver::new(), None);
    let budget = Duration::from_secs_f64(seconds);
    let mut broken = Vec::new();
    let mut rates = Vec::new();
    let mut sessions = 0u64;
    let mut timed = Duration::ZERO;
    let mut block = 0u64;
    let started = Instant::now();
    while started.elapsed() < budget {
        let campaign = workload::grid_campaign(seed, block, shape.grid_block_seeds);
        let n = campaign.scenario_count();
        let t = Instant::now();
        let report = campaign.run_streaming(&observed, GRID_WORKERS, StreamOptions::default());
        let secs = t.elapsed();
        let payload = observed.take_payload();
        check_stream(&campaign, &report, &mut broken);
        sessions += n as u64;
        timed += secs;
        rates.push((
            n as f64 / secs.as_secs_f64(),
            payload as f64 / secs.as_secs_f64(),
        ));
        block += 1;
    }
    tally.merge(&observed.take_tally());
    let calls_us = observed.take_calls_us();
    let peak_rss_mb = peak_rss_mb();

    // Oracle: a seeded sample of the last block, re-run as one batch on
    // the multiplexed driver and on the interpreted solo path.
    let campaign = workload::grid_campaign(seed, block - 1, shape.grid_block_seeds);
    let n = campaign.scenario_count();
    let batch: Vec<Scenario> = (0..GRID_ORACLE_SAMPLE.min(n))
        .map(|i| campaign.scenario_at((mix(seed ^ mix(i as u64)) % n as u64) as usize))
        .collect();
    let mut samples = Vec::new();
    for (scenario, outcome) in batch
        .iter()
        .zip(MultiSessionDriver::new().run_batch(&batch))
    {
        if tally.record(scenario, &outcome) {
            if let Ok(result) = outcome {
                samples.push((scenario.clone(), result));
            }
        }
    }
    oracle_check(Workload::SessionGrid, &samples, tally);

    let (goodput_mbps, sessions_per_s, call_p50_us, call_tail_us) =
        summarize(&calls_us, tail_quantile(Workload::SessionGrid), &rates);
    EndToEnd {
        goodput_mbps,
        sessions_per_s,
        call_p50_us,
        call_tail_us,
        calls: calls_us.len(),
        blocks: rates.len(),
        sessions,
        seconds: timed.as_secs_f64(),
        oracle_samples: samples.len(),
        peak_rss_mb,
        broken,
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB; 0
/// where the kernel does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
