//! E13 — the zero-allocation simulation core, measured.
//!
//! The simulator's one core (`docs/SIMCORE.md`) keeps frame payloads in
//! a refcounted arena and schedules events on a hierarchical timer
//! wheel, so a warm worker allocates nothing per frame.
//!
//! Series:
//! * raw frame throughput through the handle path (encode into a
//!   recycled arena buffer, `send_ref`/`step_ref`, detach, recycle);
//! * timer scheduling throughput (wheel churn);
//! * end-to-end campaign scenarios/s (`SuiteDriver`, compiled frame
//!   path so codec cost is minimal) — **the gated metric**: CI asserts
//!   a `campaign_throughput` floor on the committed `BENCH_E13.json`
//!   (`tools/check_bench_json --min-metric`).
//!
//! The campaign runs once before anything is timed, and no cell may
//! error.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::harnesses::e13_campaign;
use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_netsim::{EventRef, LinkConfig, Simulator};
use netdsl_protocols::scenario::SuiteDriver;

const PAYLOAD: usize = 512;
const THREADS: usize = 4;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Pumps `n` frames through a duplex link on the handle path (encode
/// into a recycled arena buffer, zero steady-state allocation),
/// frames/s.
fn frame_throughput(n: usize) -> f64 {
    let payload = vec![0xA5u8; PAYLOAD];
    let mut sim = Simulator::new(7);
    let a = sim.add_node();
    let b = sim.add_node();
    let (ab, _) = sim.add_duplex(a, b, LinkConfig::reliable(1));
    let start = Instant::now();
    for _ in 0..n {
        let h = sim.alloc_payload_with(|buf| buf.extend_from_slice(&payload));
        sim.send_ref(ab, h);
        match sim.step_ref() {
            Some(EventRef::Frame { payload, .. }) => {
                let buf = sim.detach_payload(payload);
                black_box(&buf);
                sim.recycle_payload(buf);
            }
            other => {
                black_box(&other);
            }
        }
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Schedules and drains `n` timers (a mix of near and cross-chunk
/// delays, like retransmission timers), timers/s.
fn timer_throughput(n: usize) -> f64 {
    let mut sim = Simulator::new(11);
    let node = sim.add_node();
    let start = Instant::now();
    let mut fired = 0usize;
    while fired < n {
        for burst in 0..32u64 {
            sim.set_timer(node, 1 + (burst % 4) * 200, burst);
        }
        while sim.step().is_some() {
            fired += 1;
        }
    }
    fired as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 5 };
    let frames = report::scaled(50_000, 5_000);
    let timers = report::scaled(200_000, 20_000);

    println!("E13: zero-allocation simulation core (arena + timer wheel)\n");

    let driver = SuiteDriver::new();
    let campaign = e13_campaign(quick);
    let agg = campaign.run(&driver, THREADS).aggregate();
    assert_eq!(agg.errors, 0, "no sweep cell may error");
    println!(
        "campaign: {} scenarios ({} succeeded)\n",
        agg.runs, agg.succeeded
    );

    let mut out = BenchReport::new(
        "e13_simcore_throughput",
        "zero-allocation simulation core: payload arena + timer wheel",
    );

    let frame_rates: Vec<f64> = (0..reps).map(|_| frame_throughput(frames)).collect();
    println!(
        "frame path ({PAYLOAD}B × {frames}): {:>12.0} frames/s",
        mean(&frame_rates)
    );

    let timer_rates: Vec<f64> = (0..reps).map(|_| timer_throughput(timers)).collect();
    println!(
        "timers     (burst × {timers}): {:>12.0} timers/s",
        mean(&timer_rates)
    );

    // End-to-end campaign throughput, the gated series.
    let scenarios = campaign.scenarios().len();
    let campaign_rates: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(campaign.run(&driver, THREADS));
            scenarios as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    println!(
        "campaign   ({scenarios} scenarios × {THREADS} threads): {:>8.1} scenarios/s",
        mean(&campaign_rates)
    );

    out.push(
        Metric::new("frame_throughput", "frames/s")
            .with_axis("payload", format!("{PAYLOAD}B"))
            .with_samples(frame_rates.iter().copied())
            .with_throughput("bytes/s", mean(&frame_rates) * PAYLOAD as f64),
    );
    out.push(Metric::new("timer_throughput", "timers/s").with_samples(timer_rates));
    out.push(
        Metric::new("campaign_throughput", "scenarios/s")
            .with_axis("threads", THREADS.to_string())
            .with_samples(campaign_rates),
    );
    out.push(
        Metric::new("campaign_success", "ratio")
            .with_sample(agg.succeeded as f64 / agg.runs as f64),
    );

    println!("\nthe floor: CI gates campaign_throughput on the committed artifact;");
    println!("the core allocates nothing per frame (see netsim tests/alloc_zero.rs).");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E13.json`): same measurements under the
    // short id, schema-valid on its own, gated by CI on
    // `campaign_throughput`.
    let mut alias = BenchReport::new("E13", "alias of e13_simcore_throughput (simcore gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
