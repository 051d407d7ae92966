//! The event tap: one call per engine hook site, three sinks.
//!
//! Every frame, timer and fault hook site in
//! [`Simulator`](crate::Simulator) — and every protocol-level event an
//! endpoint reports through
//! [`Simulator::flight_protocol_event`](crate::Simulator::flight_protocol_event)
//! — makes exactly one call into the simulator's private tap with one
//! typed event: a [`FlightKind`] plus its kind-specific `subject` and
//! `detail`, and the wire bytes for `Send`/`Deliver`. Three sinks
//! consume it:
//!
//! * **metrics** — [`counter`] maps each kind to its one
//!   `&'static` [`Counter`] (plus the `sim.frame_bytes` histogram on
//!   `Send`). Each counter is declared here and nowhere else;
//! * **flight** — the bounded [`FlightRecorder`] ring, when installed;
//! * **golden** — the full-fidelity golden log, when capture is on: the
//!   four frame kinds map to `Sent`/`Delivered`/`Lost`/`Corrupted` with
//!   their wire bytes, and the last delivery stays open for
//!   [`Simulator::annotate_delivery`](crate::Simulator::annotate_delivery).
//!
//! Because all three read the same event, the counters, the flight
//! kind counts and the golden frame sequence agree by construction.
//! With no recorder installed a hook site pays the counter's relaxed
//! load and one branch on the boxed recorders.

use netdsl_obs::{Counter, FlightEvent, FlightKind, FlightRecorder, Histogram};

use crate::golden::{GoldenEvent, GoldenEventKind, Verdict};

static FRAMES_SENT: Counter = Counter::new("sim.frames_sent");
static FRAMES_DELIVERED: Counter = Counter::new("sim.frames_delivered");
static FRAMES_DROPPED: Counter = Counter::new("sim.frames_dropped");
static FRAMES_CORRUPTED: Counter = Counter::new("sim.frames_corrupted");
static TIMERS_SET: Counter = Counter::new("sim.timers_set");
static TIMERS_FIRED: Counter = Counter::new("sim.timers_fired");
static TIMERS_CANCELLED: Counter = Counter::new("sim.timers_cancelled");
static ARQ_TIMEOUTS: Counter = Counter::new("arq.timeouts");
static ARQ_RETRANSMISSIONS: Counter = Counter::new("arq.retransmissions");
static ARQ_FRAMES_REJECTED: Counter = Counter::new("arq.frames_rejected");
static FAULTS_INJECTED: Counter = Counter::new("fault.injected");
static FRAME_BYTES: Histogram = Histogram::new("sim.frame_bytes");

/// The metrics sink's table: the counter each event kind bumps.
#[inline]
pub fn counter(kind: FlightKind) -> &'static Counter {
    match kind {
        FlightKind::Send => &FRAMES_SENT,
        FlightKind::Deliver => &FRAMES_DELIVERED,
        FlightKind::Drop => &FRAMES_DROPPED,
        FlightKind::Corrupt => &FRAMES_CORRUPTED,
        FlightKind::TimerSet => &TIMERS_SET,
        FlightKind::TimerFire => &TIMERS_FIRED,
        FlightKind::TimerCancel => &TIMERS_CANCELLED,
        FlightKind::ArqTimeout => &ARQ_TIMEOUTS,
        FlightKind::Retransmit => &ARQ_RETRANSMISSIONS,
        FlightKind::CodecReject => &ARQ_FRAMES_REJECTED,
        FlightKind::Fault => &FAULTS_INJECTED,
    }
}

/// The metrics sink: bumps the kind's counter and, on `Send`, observes
/// the frame size. Inert (one relaxed load each) while the registry is
/// disabled.
#[inline]
pub(crate) fn count(kind: FlightKind, detail: u64) {
    counter(kind).incr();
    if kind == FlightKind::Send {
        FRAME_BYTES.observe(detail);
    }
}

/// The two recording sinks, boxed together behind one `Option` on the
/// simulator so the hot path pays one branch when neither is on.
#[derive(Debug, Default)]
pub(crate) struct Recorders {
    pub(crate) flight: Option<FlightRecorder>,
    pub(crate) golden: Option<GoldenLog>,
}

impl Recorders {
    /// Feeds one event to whichever recorders are installed. `wire` is
    /// the frame's bytes for `Send`/`Deliver`.
    pub(crate) fn record(&mut self, event: FlightEvent, wire: Option<&[u8]>) {
        if let Some(flight) = &mut self.flight {
            flight.record(event);
        }
        if let Some(golden) = &mut self.golden {
            golden.record(event, wire);
        }
    }

    /// `true` when neither recorder is installed.
    pub(crate) fn is_empty(&self) -> bool {
        self.flight.is_none() && self.golden.is_none()
    }
}

/// The golden sink: full-fidelity frame events with their wire bytes.
#[derive(Debug, Default)]
pub(crate) struct GoldenLog {
    events: Vec<GoldenEvent>,
    /// Index of the most recent `Delivered` event, pending annotation.
    last_delivery: Option<usize>,
}

impl GoldenLog {
    fn record(&mut self, event: FlightEvent, wire: Option<&[u8]>) {
        let kind = match event.kind {
            FlightKind::Send => GoldenEventKind::Sent,
            FlightKind::Deliver => GoldenEventKind::Delivered,
            FlightKind::Drop => GoldenEventKind::Lost,
            FlightKind::Corrupt => GoldenEventKind::Corrupted,
            _ => return,
        };
        if kind == GoldenEventKind::Delivered {
            self.last_delivery = Some(self.events.len());
        }
        self.events.push(GoldenEvent {
            at: event.at,
            kind,
            link: event.subject as usize,
            bytes: wire.map_or_else(Vec::new, <[u8]>::to_vec),
            verdict: None,
            digest: None,
        });
    }

    /// Attaches a verdict and digest to the most recent delivery (once).
    pub(crate) fn annotate_delivery(&mut self, verdict: Verdict, digest: u64) {
        let Some(idx) = self.last_delivery.take() else {
            return;
        };
        let ev = &mut self.events[idx];
        debug_assert_eq!(ev.kind, GoldenEventKind::Delivered);
        ev.verdict = Some(verdict);
        ev.digest = Some(digest);
    }

    /// Takes the logged events, leaving the log empty.
    pub(crate) fn take_events(&mut self) -> Vec<GoldenEvent> {
        self.last_delivery = None;
        std::mem::take(&mut self.events)
    }
}
