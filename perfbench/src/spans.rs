//! Spans recorded around calls into each layer, from outside the
//! program: endpoint callbacks ([`Traced`]), whole solo sessions
//! ([`traced_drive`]) and multiplexed batches ([`Observed`]).
//!
//! Spans live in memory until the run ends. Spans of one scenario share
//! its scenario id; a batch span covers many scenarios and carries
//! [`NO_SCENARIO`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netdsl_netsim::scenario::{FsmPath, ScenarioError};
use netdsl_netsim::{BatchDriver, Scenario, ScenarioResult, TimerToken};
use netdsl_protocols::arq::compiled::FsmSender;
use netdsl_protocols::arq::session::{SwReceiver, SwSender};
use netdsl_protocols::baseline::{CReceiver, CSender};
use netdsl_protocols::driver::{Endpoint, Io};
use netdsl_protocols::gbn::{GbnReceiver, GbnSender};
use netdsl_protocols::scenario::{
    drive_duplex, validate_engine, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};
use netdsl_protocols::sr::{SrReceiver, SrSender};

use crate::audit::Tally;

/// Scenario id of spans that cover no single scenario.
pub const NO_SCENARIO: u32 = u32::MAX;

/// Span names.
pub mod name {
    /// One `SuiteDriver::run` call.
    pub const SUITE_RUN: &str = "suite.run";
    /// One `drive_duplex` call on the traced solo path.
    pub const DRIVE: &str = "driver.drive_duplex";
    /// `Endpoint::start`.
    pub const START: &str = "endpoint.start";
    /// `Endpoint::on_frame`.
    pub const FRAME: &str = "endpoint.on_frame";
    /// `Endpoint::on_timer`.
    pub const TIMER: &str = "endpoint.on_timer";
    /// One `BatchDriver::run_batch` call on the multiplexed driver.
    pub const BATCH: &str = "mux.run_batch";
    /// One `run_batch` call of the grid's single-thread reference pass.
    pub const BATCH_REF: &str = "mux.run_batch.reference";
    /// One `Campaign::run_streaming` call.
    pub const STREAM: &str = "campaign.run_streaming";
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called (see [`name`]).
    pub name: &'static str,
    /// This span's id (unique within a recorder, never 0).
    pub id: u32,
    /// The enclosing span's id, or 0.
    pub parent: u32,
    /// The scenario the call served, or [`NO_SCENARIO`].
    pub scenario: u32,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Wire format of a captured frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The stop-and-wait ARQ frame.
    Arq,
    /// The sliding-window frame (go-back-N, selective repeat).
    Window,
}

/// Frames kept for the codec replays (about 16 MiB of 1 KiB frames).
const FRAME_CAP: usize = 16_384;

/// In-memory span store plus the frames endpoints received.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    frames: Mutex<Vec<(Format, Vec<u8>)>>,
    frames_seen: AtomicU64,
    frame_stride: u64,
}

impl Recorder {
    /// A recorder keeping every `frame_stride`-th received frame.
    pub fn new(frame_stride: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            frames: Mutex::new(Vec::new()),
            frames_seen: AtomicU64::new(0),
            frame_stride: frame_stride.max(1),
        }
    }

    /// Reserves a span id, so children can name their parent before it
    /// closes.
    pub fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Recorder::open`].
    pub fn close(
        &self,
        name: &'static str,
        id: u32,
        parent: u32,
        scenario: u32,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            id,
            parent,
            scenario,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a span from `start` to now, with a fresh id.
    pub fn span(&self, name: &'static str, parent: u32, scenario: u32, start: Instant) {
        self.close(name, self.open(), parent, scenario, start, Instant::now());
    }

    fn capture(&self, format: Format, frame: &[u8]) {
        let seen = self.frames_seen.fetch_add(1, Ordering::Relaxed);
        if seen.is_multiple_of(self.frame_stride) {
            let mut frames = self.frames.lock().expect("frame store poisoned");
            if frames.len() < FRAME_CAP {
                frames.push((format, frame.to_vec()));
            }
        }
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Takes the captured frames.
    pub fn take_frames(&self) -> Vec<(Format, Vec<u8>)> {
        std::mem::take(&mut *self.frames.lock().expect("frame store poisoned"))
    }
}

/// An endpoint wrapped in spans: every `start`, `on_frame` and
/// `on_timer` call is recorded as a child of the session's drive span.
pub struct Traced<'r, E> {
    inner: E,
    rec: &'r Recorder,
    parent: u32,
    scenario: u32,
    format: Option<Format>,
}

impl<'r, E> Traced<'r, E> {
    fn new(
        inner: E,
        rec: &'r Recorder,
        parent: u32,
        scenario: u32,
        format: Option<Format>,
    ) -> Self {
        Traced {
            inner,
            rec,
            parent,
            scenario,
            format,
        }
    }
}

impl<E: Endpoint> Endpoint for Traced<'_, E> {
    fn start(&mut self, io: &mut Io<'_>) {
        let t = Instant::now();
        self.inner.start(io);
        self.rec.span(name::START, self.parent, self.scenario, t);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        if let Some(format) = self.format {
            self.rec.capture(format, frame);
        }
        let t = Instant::now();
        self.inner.on_frame(frame, io);
        self.rec.span(name::FRAME, self.parent, self.scenario, t);
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        let t = Instant::now();
        self.inner.on_timer(token, io);
        self.rec.span(name::TIMER, self.parent, self.scenario, t);
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Runs one duplex suite scenario through the public `drive_duplex`
/// with [`Traced`] endpoints built from the public constructors — the
/// same construction `SuiteDriver::run` performs, which the traced run
/// asserts result for result.
pub fn traced_drive(
    scenario: &Scenario,
    rec: &Recorder,
    id: u32,
) -> Result<ScenarioResult, ScenarioError> {
    let spec = &scenario.protocol;
    validate_engine(spec)?;
    let messages = scenario.traffic.generate();
    let n = messages.len();
    let drive = rec.open();
    let t = Instant::now();
    let result = match spec.name.as_str() {
        STOP_AND_WAIT => match spec.fsm_path {
            FsmPath::Typestate => drive_duplex(
                scenario,
                Traced::new(
                    SwSender::new(messages, spec.timeout, spec.max_retries)
                        .with_frame_path(spec.frame_path)
                        .with_retransmit(spec.retransmit),
                    rec,
                    drive,
                    id,
                    Some(Format::Arq),
                ),
                Traced::new(
                    SwReceiver::new(n).with_frame_path(spec.frame_path),
                    rec,
                    drive,
                    id,
                    Some(Format::Arq),
                ),
                |d| {
                    let s = d.a().inner.stats();
                    (d.a().inner.succeeded(), s.frames_sent, s.retransmissions)
                },
                |a| a.inner.messages(),
                |b| b.inner.delivered(),
            ),
            FsmPath::Compiled => drive_duplex(
                scenario,
                Traced::new(
                    FsmSender::new(messages, spec.timeout, spec.max_retries)
                        .with_frame_path(spec.frame_path),
                    rec,
                    drive,
                    id,
                    Some(Format::Arq),
                ),
                Traced::new(
                    SwReceiver::new(n).with_frame_path(spec.frame_path),
                    rec,
                    drive,
                    id,
                    Some(Format::Arq),
                ),
                |d| {
                    let s = d.a().inner.stats();
                    (d.a().inner.succeeded(), s.frames_sent, s.retransmissions)
                },
                |a| a.inner.messages(),
                |b| b.inner.delivered(),
            ),
        },
        GO_BACK_N => drive_duplex(
            scenario,
            Traced::new(
                GbnSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path)
                    .with_retransmit(spec.retransmit),
                rec,
                drive,
                id,
                Some(Format::Window),
            ),
            Traced::new(
                GbnReceiver::new(n).with_frame_path(spec.frame_path),
                rec,
                drive,
                id,
                Some(Format::Window),
            ),
            |d| {
                let s = d.a().inner.stats();
                (d.a().inner.succeeded(), s.frames_sent, s.retransmissions)
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        SELECTIVE_REPEAT => drive_duplex(
            scenario,
            Traced::new(
                SrSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path)
                    .with_retransmit(spec.retransmit),
                rec,
                drive,
                id,
                Some(Format::Window),
            ),
            Traced::new(
                SrReceiver::new(n, spec.window).with_frame_path(spec.frame_path),
                rec,
                drive,
                id,
                Some(Format::Window),
            ),
            |d| {
                let s = d.a().inner.stats();
                (d.a().inner.succeeded(), s.frames_sent, s.retransmissions)
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        BASELINE => drive_duplex(
            scenario,
            Traced::new(
                CSender::new(messages, spec.timeout, spec.max_retries),
                rec,
                drive,
                id,
                None,
            ),
            Traced::new(CReceiver::new(n), rec, drive, id, None),
            |d| {
                // As the solo driver does: every frame on the data
                // link is a data frame, and any beyond one per
                // delivered message was a retransmission.
                let frames_sent = d.sim().link_stats(d.link_ab()).sent;
                let retransmissions =
                    frames_sent.saturating_sub(d.b().inner.delivered().len() as u64);
                (d.a().inner.succeeded(), frames_sent, retransmissions)
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        other => return Err(ScenarioError::UnknownProtocol(other.to_string())),
    };
    rec.close(name::DRIVE, drive, 0, id, t, Instant::now());
    Ok(result)
}

/// A [`BatchDriver`] wrapper that times every batch, audits every
/// result and sums delivered payload. With a recorder it also records
/// each batch as a span and keeps every result by scenario name (the
/// traced run); without one it adds nothing to the batch but two clock
/// reads and the audit.
pub struct Observed<'r, D> {
    inner: D,
    rec: Option<&'r Recorder>,
    tally: Mutex<Tally>,
    calls_us: Mutex<Vec<f64>>,
    payload: AtomicU64,
    kept: Mutex<Vec<(String, ScenarioResult)>>,
}

impl<'r, D: BatchDriver> Observed<'r, D> {
    /// Wraps `inner`; `rec` selects the traced behaviour.
    pub fn new(inner: D, rec: Option<&'r Recorder>) -> Self {
        Observed {
            inner,
            rec,
            tally: Mutex::new(Tally::default()),
            calls_us: Mutex::new(Vec::new()),
            payload: AtomicU64::new(0),
            kept: Mutex::new(Vec::new()),
        }
    }

    /// The audit of every batch so far.
    pub fn take_tally(&self) -> Tally {
        std::mem::take(&mut *self.tally.lock().expect("tally poisoned"))
    }

    /// Wall time of every `run_batch` call so far, in µs.
    pub fn take_calls_us(&self) -> Vec<f64> {
        std::mem::take(&mut *self.calls_us.lock().expect("latency store poisoned"))
    }

    /// Payload bytes delivered so far.
    pub fn take_payload(&self) -> u64 {
        self.payload.swap(0, Ordering::Relaxed)
    }

    /// The kept `(scenario name, result)` pairs (traced only).
    pub fn take_kept(&self) -> Vec<(String, ScenarioResult)> {
        std::mem::take(&mut *self.kept.lock().expect("result store poisoned"))
    }
}

impl<D: BatchDriver> BatchDriver for Observed<'_, D> {
    fn supports(&self, protocol: &str) -> bool {
        self.inner.supports(protocol)
    }

    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        let t0 = Instant::now();
        let results = self.inner.run_batch(batch);
        let t1 = Instant::now();
        let mut tally = Tally::default();
        let mut payload = 0;
        for (scenario, outcome) in batch.iter().zip(&results) {
            tally.record(scenario, outcome);
            if let Ok(r) = outcome {
                payload += r.payload_bytes;
            }
        }
        if let Some(rec) = self.rec {
            rec.close(name::BATCH, rec.open(), 0, NO_SCENARIO, t0, t1);
            let mut kept = self.kept.lock().expect("result store poisoned");
            for (scenario, outcome) in batch.iter().zip(&results) {
                if let Ok(r) = outcome {
                    kept.push((scenario.name.clone(), r.clone()));
                }
            }
        }
        self.payload.fetch_add(payload, Ordering::Relaxed);
        self.calls_us
            .lock()
            .expect("latency store poisoned")
            .push(t1.duration_since(t0).as_secs_f64() * 1e6);
        self.tally.lock().expect("tally poisoned").merge(&tally);
        results
    }
}
