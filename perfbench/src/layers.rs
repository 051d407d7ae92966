//! The traced run: per-layer metrics measured from outside the
//! program.
//!
//! It runs the workload's traced set — a fixed, seed-determined list of
//! scenarios, so every count repeats exactly — in three passes, each
//! through public entry points only:
//!
//! - **reference**: `SuiteDriver::run` per scenario (`session_grid`:
//!   `MultiSessionDriver::run_batch` per chunk), on one thread, with the
//!   `obs` metric registry on and allocation counting armed around the
//!   driver calls. The `sim.*`, `fault.*`, `arq.*` and `alloc.*`
//!   counts come from this pass alone.
//! - **traced solo**: the same scenarios (`session_grid`: a seeded
//!   sample) through `drive_duplex` with endpoints wrapped in spans.
//!   Each result must equal the reference result exactly.
//! - **streamed**: the traced set streamed through
//!   `Campaign::run_streaming` on the multiplexed driver behind a timing
//!   `BatchDriver`, on the workload's worker count. Results must equal
//!   the reference results.
//!
//! Frames the wrapped endpoints received are then replayed through the
//! compiled codec, the walker, the checksum, and the compiled FSM is
//! stepped, each for a fixed time budget with the registry off.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use netdsl_core::fsm_compiled::Stepper;
use netdsl_netsim::scenario::{FramePath, ScenarioError};
use netdsl_netsim::{
    BatchDriver, Campaign, Scenario, ScenarioDriver, ScenarioResult, StreamOptions,
};
use netdsl_obs::MetricsSnapshot;
use netdsl_protocols::arq::compiled::sender_fsm;
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::SuiteDriver;
use netdsl_protocols::window::WindowFrame;
use netdsl_wire::checksum::crc16_ccitt;

use crate::alloc;
use crate::audit::{check_stream, Tally};
use crate::spans::{name, traced_drive, Format, Observed, Recorder, Span, NO_SCENARIO};
use crate::workload::{self, mix, Shape, Workload};

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a traced run produced.
#[derive(Debug)]
pub struct TraceRun {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Audit of every result the run produced.
    pub tally: Tally,
    /// Failed run-level checks (counter identities, report shape).
    pub broken: Vec<String>,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Scenarios in the traced set.
    pub sessions: usize,
}

impl TraceRun {
    /// The value of metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if the run reports no such metric.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }
}

/// The traced set: the campaigns that expand to it, in the order their
/// scenarios run.
struct TracedSet {
    campaigns: Vec<Campaign>,
    scenarios: Vec<Scenario>,
}

impl TracedSet {
    fn new(workload: Workload, seed: u64, shape: &Shape) -> TracedSet {
        let seeds = shape.traced_seeds(workload);
        let campaigns = match workload {
            Workload::Bulk1k => workload::bulk_cells(seed, shape, seeds),
            Workload::ChaosDefault => workload::chaos_cells(seed, seeds),
            // A block index no timed block uses.
            Workload::SessionGrid => vec![workload::grid_campaign(seed, u64::MAX, seeds)],
        };
        let scenarios = match workload {
            Workload::SessionGrid => campaigns[0].scenarios(),
            _ => (0..campaigns.len() * seeds as usize)
                .map(|k| workload::nth_scenario(&campaigns, k))
                .collect(),
        };
        TracedSet {
            campaigns,
            scenarios,
        }
    }

    /// Scenarios of the traced solo pass.
    fn solo_sample(&self, workload: Workload, seed: u64, shape: &Shape) -> Vec<usize> {
        let n = self.scenarios.len();
        match workload {
            Workload::SessionGrid => {
                let mut picked: Vec<usize> = (0..n).collect();
                picked.sort_by_key(|&i| mix(seed ^ mix(i as u64)));
                picked.truncate(shape.grid_solo_sample.min(n));
                picked.sort_unstable();
                picked
            }
            _ => (0..n).collect(),
        }
    }
}

/// A counter's value in a registry snapshot (0 if never touched).
fn counter(after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0)
}

/// Runs the traced set through `Campaign::run_streaming` on the
/// multiplexed driver behind a traced [`Observed`] wrapper. Returns the
/// wrapper (holding results and audit), the stream wall time, and the
/// worker-seconds the streams had (wall × workers that ran).
fn stream_traced<'r>(
    campaigns: &[Campaign],
    rec: &'r Recorder,
    workers: usize,
    broken: &mut Vec<String>,
) -> (Observed<'r, MultiSessionDriver>, f64, f64) {
    let observed = Observed::new(MultiSessionDriver::new(), Some(rec));
    let opts = StreamOptions::default();
    let mut wall = 0.0;
    let mut worker_seconds = 0.0;
    for campaign in campaigns {
        let t = Instant::now();
        let report = campaign.run_streaming(&observed, workers, opts);
        rec.span(name::STREAM, 0, NO_SCENARIO, t);
        let secs = t.elapsed().as_secs_f64();
        let chunks = campaign.scenario_count().div_ceil(opts.chunk);
        wall += secs;
        worker_seconds += secs * workers.min(chunks) as f64;
        check_stream(campaign, &report, broken);
    }
    (observed, wall, worker_seconds)
}

fn untraced_stream(campaigns: &[Campaign], workers: usize) -> f64 {
    let t = Instant::now();
    for campaign in campaigns {
        campaign.run_streaming(
            &MultiSessionDriver::new(),
            workers,
            StreamOptions::default(),
        );
    }
    t.elapsed().as_secs_f64()
}

/// Runs `f`; with a recorder, as a span with its allocations counted.
fn reference_call<R>(
    rec: Option<&Recorder>,
    label: &'static str,
    id: u32,
    f: impl FnOnce() -> R,
) -> R {
    let Some(rec) = rec else {
        return f();
    };
    let t = Instant::now();
    let out = alloc::counting(f);
    rec.span(label, 0, id, t);
    out
}

/// The reference pass, on the calling thread: `SuiteDriver::run` per
/// scenario, or on the grid `MultiSessionDriver::run_batch` per chunk
/// of the stream's chunk size. With `rec`, each call is a span and its
/// allocations are counted; on one thread, with a warm simulator pool,
/// those counts repeat exactly whatever the worker count elsewhere.
fn reference_pass(
    set: &TracedSet,
    grid: bool,
    rec: Option<&Recorder>,
) -> Vec<Result<ScenarioResult, ScenarioError>> {
    if grid {
        let mux = MultiSessionDriver::new();
        set.scenarios
            .chunks(StreamOptions::default().chunk)
            .flat_map(|chunk| {
                reference_call(rec, name::BATCH_REF, NO_SCENARIO, || mux.run_batch(chunk))
            })
            .collect()
    } else {
        let suite = SuiteDriver::new();
        (set.scenarios.iter().enumerate())
            .map(|(i, s)| reference_call(rec, name::SUITE_RUN, i as u32, || suite.run(s)))
            .collect()
    }
}

/// Runs the traced measurement of `workload` for `seed`. `workers` is
/// the worker count of the streamed pass.
pub fn traced(workload: Workload, seed: u64, shape: &Shape, workers: usize) -> TraceRun {
    let started = Instant::now();
    let set = TracedSet::new(workload, seed, shape);
    let suite = SuiteDriver::new();
    let mut tally = Tally::default();
    let mut broken = Vec::new();
    let n = set.scenarios.len();
    let grid = workload == Workload::SessionGrid;

    // Warm-up, then the untraced wall time of the work the traced pass
    // repeats (the solo path, or on the grid the stream), registry off.
    reference_pass(&set, grid, None);
    untraced_stream(&set.campaigns, workers);
    let t = Instant::now();
    if grid {
        untraced_stream(&set.campaigns, workers);
    } else {
        reference_pass(&set, grid, None);
    }
    let untraced_wall = t.elapsed().as_secs_f64();

    // Every metric registers on its first update (one allocation); a
    // warm-up with the registry on keeps that out of the counts.
    netdsl_obs::set_metrics_enabled(true);
    reference_pass(&set, grid, None);
    netdsl_obs::reset_all();
    let rec = Recorder::new(match workload {
        Workload::Bulk1k => 8,
        _ => 1,
    });

    let (allocs0, bytes0) = alloc::totals();
    let outcomes = reference_pass(&set, grid, Some(&rec));
    let (allocs1, bytes1) = alloc::totals();
    let snap = netdsl_obs::snapshot();
    let reference: Vec<Option<ScenarioResult>> = set
        .scenarios
        .iter()
        .zip(outcomes)
        .map(|(s, out)| tally.record(s, &out).then(|| out.ok()).flatten())
        .collect();

    // Traced solo pass: parity with the solo driver, scenario by
    // scenario (and, on the grid, of the solo driver with the
    // multiplexed reference).
    let sample = set.solo_sample(workload, seed, shape);
    let solo_started = rec.spans().len();
    let solo_wall = Instant::now();
    for &i in &sample {
        let s = &set.scenarios[i];
        let got = traced_drive(s, &rec, i as u32);
        let solo = grid.then(|| suite.run(s));
        let want = match &solo {
            Some(out) => out.as_ref().ok(),
            None => reference[i].as_ref(),
        };
        match (got.as_ref().ok(), want) {
            (Some(got), Some(want)) => tally.compare(s, got, want),
            _ => {
                tally.record(s, &got);
                broken.push(format!("{}: no result to compare", s.name));
            }
        }
        if let (Some(Ok(solo)), Some(mux)) = (&solo, &reference[i]) {
            tally.compare(s, mux, solo);
        }
    }
    let solo_wall = solo_wall.elapsed().as_secs_f64();
    let solo_spans: Vec<Span> = rec.spans()[solo_started..].to_vec();

    // Streamed pass on the multiplexed driver.
    let before_mux = counter(&netdsl_obs::snapshot(), "mux.sessions_run");
    let (observed, wall, worker_seconds) =
        stream_traced(&set.campaigns, &rec, workers, &mut broken);
    let mux_sessions = counter(&netdsl_obs::snapshot(), "mux.sessions_run") - before_mux;
    let kept: HashMap<String, ScenarioResult> = observed.take_kept().into_iter().collect();
    for (s, want) in set.scenarios.iter().zip(&reference) {
        match (kept.get(&s.name), want) {
            (Some(got), Some(want)) => tally.compare(s, got, want),
            _ => broken.push(format!("{}: missing multiplexed result", s.name)),
        }
    }
    if mux_sessions != n as u64 {
        broken.push(format!(
            "mux.sessions_run = {mux_sessions}, but {n} scenarios were streamed"
        ));
    }
    netdsl_obs::set_metrics_enabled(false);

    let spans = rec.spans();
    let sum_ns = |spans: &[Span], name: &str| -> (f64, usize) {
        let hits = spans.iter().filter(|s| s.name == name);
        hits.fold((0.0, 0), |(ns, k), s| (ns + s.ns() as f64, k + 1))
    };
    let (batch_ns, _) = sum_ns(&spans, name::BATCH);
    let (drive_ns, drives) = sum_ns(&solo_spans, name::DRIVE);
    let (frame_ns, frames) = sum_ns(&solo_spans, name::FRAME);
    let (timer_ns, timers) = sum_ns(&solo_spans, name::TIMER);
    let (start_ns, starts) = sum_ns(&solo_spans, name::START);
    let traced_wall = if grid { wall } else { solo_wall };

    let results: Vec<&ScenarioResult> = reference.iter().flatten().collect();
    let sessions = n.max(1) as f64;
    let frames_sent: u64 = results.iter().map(|r| r.frames_sent).sum();
    let retransmissions: u64 = results.iter().map(|r| r.retransmissions).sum();
    let abandoned = results.iter().filter(|r| !r.success).count();
    let per_session = |name: &str| counter(&snap, name) as f64 / sessions;
    let sim_sent = counter(&snap, "sim.frames_sent").max(1) as f64;
    let per = |total: f64, count: usize| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };

    // The replays fill what is left of the run's time, 7 ways.
    let left = shape.trace_seconds - started.elapsed().as_secs_f64();
    let replay = replay_layers(&rec.take_frames(), &set, left.max(0.35) / 7.0);

    let metrics = vec![
        Metric {
            name: "campaign.self_share",
            value: 1.0 - batch_ns * 1e-9 / worker_seconds,
            unit: "ratio",
        },
        Metric {
            name: "campaign.expand_ns_per_scenario",
            value: replay.expand_ns,
            unit: "ns",
        },
        Metric {
            name: "mux.us_per_session",
            value: batch_ns * 1e-3 / sessions,
            unit: "us",
        },
        Metric {
            name: "mux.sessions_run",
            value: mux_sessions as f64,
            unit: "count",
        },
        Metric {
            name: "driver.self_share",
            value: if drive_ns > 0.0 {
                (drive_ns - frame_ns - timer_ns - start_ns) / drive_ns
            } else {
                0.0
            },
            unit: "ratio",
        },
        Metric {
            name: "endpoint.on_frame_ns",
            value: per(frame_ns, frames),
            unit: "ns",
        },
        Metric {
            name: "endpoint.on_timer_ns",
            value: per(timer_ns, timers),
            unit: "ns",
        },
        Metric {
            name: "endpoint.callbacks_per_session",
            value: per((frames + timers + starts) as f64, drives),
            unit: "count",
        },
        Metric {
            name: "endpoint.useful_frame_ratio",
            value: if frames_sent == 0 {
                0.0
            } else {
                (frames_sent - retransmissions) as f64 / frames_sent as f64
            },
            unit: "ratio",
        },
        Metric {
            name: "endpoint.retransmissions_per_session",
            value: retransmissions as f64 / sessions,
            unit: "count",
        },
        Metric {
            name: "sim.frames_sent",
            value: per_session("sim.frames_sent"),
            unit: "count",
        },
        Metric {
            name: "sim.frames_delivered",
            value: per_session("sim.frames_delivered"),
            unit: "count",
        },
        Metric {
            name: "sim.frames_dropped",
            value: per_session("sim.frames_dropped"),
            unit: "count",
        },
        Metric {
            name: "sim.frames_corrupted",
            value: per_session("sim.frames_corrupted"),
            unit: "count",
        },
        Metric {
            name: "sim.timers_set",
            value: per_session("sim.timers_set"),
            unit: "count",
        },
        Metric {
            name: "sim.timers_fired",
            value: per_session("sim.timers_fired"),
            unit: "count",
        },
        Metric {
            name: "sim.timers_cancelled",
            value: per_session("sim.timers_cancelled"),
            unit: "count",
        },
        Metric {
            name: "sim.frame_bytes_mean",
            value: snap.histogram("sim.frame_bytes").map_or(0.0, |h| h.mean()),
            unit: "B",
        },
        Metric {
            name: "codec.decode_ns_per_frame",
            value: replay.decode_ns[0],
            unit: "ns",
        },
        Metric {
            name: "codec.encode_ns_per_frame",
            value: replay.encode_ns[0],
            unit: "ns",
        },
        Metric {
            name: "packet.decode_ns_per_frame",
            value: replay.decode_ns[1],
            unit: "ns",
        },
        Metric {
            name: "packet.encode_ns_per_frame",
            value: replay.encode_ns[1],
            unit: "ns",
        },
        Metric {
            name: "checksum.ns_per_KiB",
            value: replay.crc_ns_per_kib,
            unit: "ns",
        },
        Metric {
            name: "fsm.step_ns",
            value: replay.fsm_step_ns,
            unit: "ns",
        },
        Metric {
            name: "arq.rto_backoffs",
            value: per_session("arq.rto_backoffs"),
            unit: "count",
        },
        Metric {
            name: "fault.injected",
            value: per_session("fault.injected"),
            unit: "count",
        },
        Metric {
            name: "protocols.transfers_abandoned",
            value: abandoned as f64 / sessions,
            unit: "ratio",
        },
        Metric {
            name: "alloc.per_session",
            value: (allocs1 - allocs0) as f64 / sessions,
            unit: "count",
        },
        Metric {
            name: "alloc.bytes_per_session",
            value: (bytes1 - bytes0) as f64 / sessions,
            unit: "B",
        },
        Metric {
            name: "alloc.per_frame",
            value: (allocs1 - allocs0) as f64 / sim_sent,
            unit: "count",
        },
        Metric {
            name: "trace.overhead_ratio",
            value: traced_wall / untraced_wall,
            unit: "ratio",
        },
    ];

    TraceRun {
        metrics,
        tally,
        broken,
        spans,
        sessions: n,
    }
}

/// Per-item costs of the layers replayed outside the simulator.
struct Replay {
    expand_ns: f64,
    /// `[compiled codec, walker]`.
    decode_ns: [f64; 2],
    /// `[compiled codec, walker]`.
    encode_ns: [f64; 2],
    crc_ns_per_kib: f64,
    fsm_step_ns: f64,
}

/// Repeats `pass` (which handles `items` items) until `budget` seconds
/// have passed, at least once; returns ns per item.
fn ns_per_item(budget: f64, items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let t = Instant::now();
    let mut passes = 0usize;
    loop {
        pass();
        passes += 1;
        if t.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    t.elapsed().as_nanos() as f64 / (passes * items) as f64
}

/// A decoded frame, ready to re-encode.
enum Decoded {
    Arq {
        data: bool,
        seq: u8,
        payload: Vec<u8>,
    },
    Window {
        data: bool,
        seq: u32,
        payload: Vec<u8>,
    },
}

fn decode(path: FramePath, format: Format, frame: &[u8]) -> Option<Decoded> {
    match format {
        Format::Arq => match ArqFrame::decode_via(path, frame).ok()? {
            ArqFrame::Data { seq, payload } => Some(Decoded::Arq {
                data: true,
                seq,
                payload,
            }),
            ArqFrame::Ack { seq } => Some(Decoded::Arq {
                data: false,
                seq,
                payload: Vec::new(),
            }),
        },
        Format::Window => match WindowFrame::decode_via(path, frame).ok()? {
            WindowFrame::Data { seq, payload } => Some(Decoded::Window {
                data: true,
                seq,
                payload,
            }),
            WindowFrame::Ack { seq } => Some(Decoded::Window {
                data: false,
                seq,
                payload: Vec::new(),
            }),
        },
    }
}

fn encode(path: FramePath, frame: &Decoded, out: &mut Vec<u8>) {
    match *frame {
        Decoded::Arq {
            data: true,
            seq,
            ref payload,
        } => ArqFrame::encode_data_into(path, seq, payload, out),
        Decoded::Arq { seq, .. } => ArqFrame::encode_ack_into(path, seq, out),
        Decoded::Window {
            data: true,
            seq,
            ref payload,
        } => WindowFrame::encode_data_into(path, seq, payload, out),
        Decoded::Window { seq, .. } => WindowFrame::encode_ack_into(path, seq, out),
    }
}

fn replay_layers(frames: &[(Format, Vec<u8>)], set: &TracedSet, budget: f64) -> Replay {
    let expand_ns = {
        let count: usize = set.campaigns.iter().map(Campaign::scenario_count).sum();
        ns_per_item(budget, count, || {
            for c in &set.campaigns {
                for i in 0..c.scenario_count() {
                    black_box(c.scenario_at(i));
                }
            }
        })
    };

    let decoded: Vec<Decoded> = frames
        .iter()
        .filter_map(|(format, f)| decode(FramePath::Compiled, *format, f))
        .collect();
    let mut decode_ns = [0.0; 2];
    let mut encode_ns = [0.0; 2];
    for (k, path) in [FramePath::Compiled, FramePath::Interpreted]
        .into_iter()
        .enumerate()
    {
        decode_ns[k] = ns_per_item(budget, frames.len(), || {
            for (format, f) in frames {
                black_box(decode(path, *format, black_box(f)));
            }
        });
        let mut out = Vec::new();
        encode_ns[k] = ns_per_item(budget, decoded.len(), || {
            for d in &decoded {
                encode(path, d, &mut out);
                black_box(&out);
            }
        });
    }

    let bytes: usize = frames.iter().map(|(_, f)| f.len()).sum();
    let crc_ns_per_frame = ns_per_item(budget, frames.len(), || {
        for (_, f) in frames {
            black_box(crc16_ccitt(black_box(f)));
        }
    });
    let crc_ns_per_kib = if bytes == 0 {
        0.0
    } else {
        crc_ns_per_frame * frames.len() as f64 / (bytes as f64 / 1024.0)
    };

    // SEND, TIMEOUT, RETRY, SEND, OK: a retransmission then an
    // acknowledgement — every arm the endpoint drives on its hot path.
    let fsm = sender_fsm();
    let spec = fsm.spec();
    let cycle: Vec<_> = ["SEND", "TIMEOUT", "RETRY", "SEND", "OK"]
        .iter()
        .map(|e| spec.event_id(e).expect("paper sender event"))
        .collect();
    let mut stepper = Stepper::new(fsm);
    const CYCLES: usize = 1_000;
    let fsm_step_ns = ns_per_item(budget, CYCLES * cycle.len(), || {
        for _ in 0..CYCLES {
            for &e in &cycle {
                black_box(stepper.apply(black_box(e)).expect("spec-legal cycle"));
            }
        }
    });

    Replay {
        expand_ns,
        decode_ns,
        encode_ns,
        crc_ns_per_kib,
        fsm_step_ns,
    }
}
