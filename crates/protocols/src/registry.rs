//! The protocol registry: the one place that maps a protocol name to
//! its endpoints.
//!
//! [`session`] turns a [`Scenario`] into a ready-to-pump
//! [`SessionEndpoints`]. It checks the topology, then the protocol
//! name, then the engine configuration ([`validate_engine`]) — always in
//! that order, so every driver refuses a scenario with the same
//! [`ScenarioError`] — and builds the endpoint pair with every
//! behavioural [`ProtocolSpec`] field applied: window, timeout, retry
//! budget, retransmission policy and frame path. Each entry also
//! carries the plain functions the drivers and the golden recorder read
//! from its pair: the result extractors, the interpreted-codec frame
//! validator, and the sender and receiver state digests.
//!
//! The solo driver ([`SuiteDriver`]), the multiplexed driver
//! ([`MultiSessionDriver`]) and the golden recorder
//! ([`crate::golden::record`]) all build their sessions here. The one
//! campaign driver that does not is `netdsl-bench`'s `RelayDriver`:
//! E9's relay paths are not a two-endpoint session.
//!
//! [`SuiteDriver`]: crate::scenario::SuiteDriver
//! [`MultiSessionDriver`]: crate::multiplex::MultiSessionDriver

use netdsl_netsim::golden::Digest;
use netdsl_netsim::scenario::{
    EngineConfigError, FaultNode, FsmPath, ProtocolSpec, RetransmitPolicy, Scenario, ScenarioError,
    ScenarioResult, TopologySpec,
};
use netdsl_netsim::{LinkStats, Tick, TimerToken};

use crate::arq::compiled::FsmSender;
use crate::arq::session::{SenderStats, SwReceiver, SwSender};
use crate::arq::ArqFrame;
use crate::baseline::{self, CReceiver, CSender};
use crate::driver::{fold, Dispatch, Endpoint, Io};
use crate::gbn::{GbnReceiver, GbnSender};
use crate::scenario::{BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use crate::sr::{SrReceiver, SrSender};
use crate::window::WindowFrame;

/// One session's pair of endpoints, type-erased so a batch can mix
/// protocols: the [`Dispatch`] half the pumps drive, plus what the
/// drivers and the golden recorder read back from the pair.
pub trait SessionEndpoints: Dispatch {
    /// `(sender_succeeded, frames_sent, retransmissions)`. `ab_sent` is
    /// the session's A→B link send counter, for endpoints (the baseline)
    /// that keep no counters of their own.
    fn outcome(&self, ab_sent: u64) -> (bool, u64, u64);
    /// The messages the sender offered.
    fn offered(&self) -> &[Vec<u8>];
    /// The messages the receiver delivered, in order.
    fn delivered(&self) -> &[Vec<u8>];
    /// Whether `frame` decodes under the protocol's reference
    /// interpreted codec — engine-independent by construction.
    fn frame_ok(&self, frame: &[u8]) -> bool;
    /// FNV digest of one endpoint's engine-independent observable state.
    fn digest(&self, side: FaultNode) -> u64;
}

/// `true` when the registry has an entry for `protocol`.
pub fn supports(protocol: &str) -> bool {
    entry(protocol).is_some()
}

/// Builds the session for `scenario`, or refuses it: a non-duplex
/// topology, then an unknown protocol name, then an engine
/// configuration [`validate_engine`] rejects.
pub fn session(scenario: &Scenario) -> Result<Box<dyn SessionEndpoints>, ScenarioError> {
    let spec = &scenario.protocol;
    if scenario.topology != TopologySpec::Duplex {
        return Err(ScenarioError::UnsupportedTopology(format!(
            "{} runs duplex topologies only, got {:?}",
            spec.name, scenario.topology
        )));
    }
    let build =
        entry(&spec.name).ok_or_else(|| ScenarioError::UnknownProtocol(spec.name.clone()))?;
    validate_engine(spec)?;
    // Generated once and moved into the sender, which serves as the
    // offered-message store for the result fold — no per-scenario clone
    // of the whole transfer.
    Ok(build(spec, scenario.traffic.generate()))
}

/// Folds a finished session into the [`ScenarioResult`] every driver
/// reports. `ab_sent` is the session's A→B link send counter and `link`
/// its link counters.
pub(crate) fn result(
    pair: &dyn SessionEndpoints,
    elapsed: Tick,
    ab_sent: u64,
    link: LinkStats,
) -> ScenarioResult {
    fold(
        elapsed,
        pair.outcome(ab_sent),
        pair.offered(),
        pair.delivered(),
        link,
    )
}

/// Validates a protocol spec's engine configuration — the **single**
/// refusal path for unsupported axis combinations, shared by the suite
/// driver, the golden recorder, and the multiplexed driver.
///
/// The invalid combinations are the ones that would silently measure
/// something other than what the sweep cell claims:
///
/// - [`FsmPath::Compiled`] on a protocol other than [`STOP_AND_WAIT`]:
///   only the §3.4 spec is reified and lowered to a transition table,
///   and silently falling back to the typestate engine would let a
///   sweep label a cell "compiled" while measuring something else —
///   the same honesty rule the driver applies to fault schedules.
/// - [`RetransmitPolicy::AdaptiveRto`] on the compiled FSM path or on
///   [`BASELINE`]: the transition table and the hand-rolled C-style
///   sender both hard-code the constant-timeout arm, so an "adaptive"
///   cell there would quietly run fixed timers.
pub fn validate_engine(spec: &ProtocolSpec) -> Result<(), EngineConfigError> {
    let refuse = |reason: &str| {
        Err(EngineConfigError {
            protocol: spec.name.clone(),
            config: spec.engine(),
            reason: reason.to_string(),
        })
    };
    if spec.fsm_path == FsmPath::Compiled && spec.name != STOP_AND_WAIT {
        return refuse("only stop-and-wait has a compiled control-FSM driver");
    }
    if matches!(spec.retransmit, RetransmitPolicy::AdaptiveRto { .. }) {
        if spec.fsm_path == FsmPath::Compiled {
            return refuse("the compiled control-FSM driver supports fixed retransmission only");
        }
        if spec.name == BASELINE {
            return refuse("the baseline ARQ supports fixed retransmission only");
        }
    }
    Ok(())
}

/// Builds one protocol's session from its spec and offered messages.
type Build = fn(&ProtocolSpec, Vec<Vec<u8>>) -> Box<dyn SessionEndpoints>;

/// The registry proper: the builder for each protocol name.
fn entry(protocol: &str) -> Option<Build> {
    let build: Build = match protocol {
        // Stop-and-wait is the one protocol with a reified control spec,
        // so it honours the FsmPath axis: the same scenario runs on the
        // typestate engine or the compiled transition-table engine,
        // transcript-identically.
        STOP_AND_WAIT => |spec, messages| {
            let receiver = SwReceiver::new(messages.len()).with_frame_path(spec.frame_path);
            match spec.fsm_path {
                FsmPath::Typestate => Pair::boxed(
                    SwSender::new(messages, spec.timeout, spec.max_retries)
                        .with_frame_path(spec.frame_path)
                        .with_retransmit(spec.retransmit),
                    receiver,
                    &SW,
                ),
                FsmPath::Compiled => Pair::boxed(
                    FsmSender::new(messages, spec.timeout, spec.max_retries)
                        .with_frame_path(spec.frame_path),
                    receiver,
                    &SW_COMPILED,
                ),
            }
        },
        GO_BACK_N => |spec, messages| {
            let receiver = GbnReceiver::new(messages.len()).with_frame_path(spec.frame_path);
            Pair::boxed(
                GbnSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path)
                    .with_retransmit(spec.retransmit),
                receiver,
                &GBN,
            )
        },
        SELECTIVE_REPEAT => |spec, messages| {
            let receiver =
                SrReceiver::new(messages.len(), spec.window).with_frame_path(spec.frame_path);
            Pair::boxed(
                SrSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path)
                    .with_retransmit(spec.retransmit),
                receiver,
                &SR,
            )
        },
        BASELINE => |spec, messages| {
            let receiver = CReceiver::new(messages.len());
            Pair::boxed(
                CSender::new(messages, spec.timeout, spec.max_retries),
                receiver,
                &BASE,
            )
        },
        _ => return None,
    };
    Some(build)
}

/// The plain functions an entry reads from its endpoint pair; one
/// static per pair type keeps [`Pair`] monomorphic with no captures.
struct Probes<A, B> {
    outcome: fn(&A, &B, u64) -> (bool, u64, u64),
    offered: fn(&A) -> &[Vec<u8>],
    delivered: fn(&B) -> &[Vec<u8>],
    frame_ok: fn(&[u8]) -> bool,
    digest_a: fn(&A) -> u64,
    digest_b: fn(&B) -> u64,
}

/// The one [`SessionEndpoints`] implementation: two concrete endpoints
/// plus their entry's probes.
struct Pair<A: 'static, B: 'static> {
    ends: (A, B),
    probes: &'static Probes<A, B>,
}

impl<A: Endpoint, B: Endpoint> Pair<A, B> {
    fn boxed(a: A, b: B, probes: &'static Probes<A, B>) -> Box<dyn SessionEndpoints> {
        Box::new(Pair {
            ends: (a, b),
            probes,
        })
    }
}

impl<A: Endpoint, B: Endpoint> Dispatch for Pair<A, B> {
    fn start(&mut self, side: FaultNode, io: &mut Io<'_>) {
        self.ends.start(side, io);
    }
    fn frame(&mut self, side: FaultNode, frame: &[u8], io: &mut Io<'_>) {
        self.ends.frame(side, frame, io);
    }
    fn timer(&mut self, side: FaultNode, token: TimerToken, io: &mut Io<'_>) {
        self.ends.timer(side, token, io);
    }
    fn reset(&mut self, side: FaultNode) {
        self.ends.reset(side);
    }
    fn done(&self) -> bool {
        self.ends.done()
    }
}

impl<A: Endpoint, B: Endpoint> SessionEndpoints for Pair<A, B> {
    fn outcome(&self, ab_sent: u64) -> (bool, u64, u64) {
        (self.probes.outcome)(&self.ends.0, &self.ends.1, ab_sent)
    }
    fn offered(&self) -> &[Vec<u8>] {
        (self.probes.offered)(&self.ends.0)
    }
    fn delivered(&self) -> &[Vec<u8>] {
        (self.probes.delivered)(&self.ends.1)
    }
    fn frame_ok(&self, frame: &[u8]) -> bool {
        (self.probes.frame_ok)(frame)
    }
    fn digest(&self, side: FaultNode) -> u64 {
        match side {
            FaultNode::A => (self.probes.digest_a)(&self.ends.0),
            FaultNode::B => (self.probes.digest_b)(&self.ends.1),
        }
    }
}

// ---------------------------------------------------------------------
// Entry probes. Sender digests fold the counters and outcome flags;
// receiver digests additionally fold every delivered payload, so a
// single mis-delivered byte anywhere in the run shifts all subsequent
// digests. The typestate and compiled stop-and-wait senders fold the
// same fields in the same order — their behavioural equivalence is what
// makes one golden fixture the oracle for both.
// ---------------------------------------------------------------------

fn sender_digest(
    frames_sent: u64,
    retransmissions: u64,
    delivered: u64,
    ok: bool,
    failed: bool,
) -> Digest {
    Digest::new()
        .u64(frames_sent)
        .u64(retransmissions)
        .u64(delivered)
        .u64(ok as u64)
        .u64(failed as u64)
}

fn sw_sender_digest(s: SenderStats, ok: bool, failed: bool, final_seq: Option<u8>) -> u64 {
    sender_digest(s.frames_sent, s.retransmissions, s.delivered, ok, failed)
        .u64(final_seq.map_or(0, |seq| seq as u64 + 1))
        .finish()
}

fn fold_messages(mut d: Digest, messages: &[Vec<u8>]) -> Digest {
    d = d.u64(messages.len() as u64);
    for m in messages {
        d = d.u64(m.len() as u64).bytes(m);
    }
    d
}

fn arq_frame_ok(frame: &[u8]) -> bool {
    ArqFrame::decode(frame).is_ok()
}

fn window_frame_ok(frame: &[u8]) -> bool {
    WindowFrame::decode(frame).is_ok()
}

fn sw_receiver_digest(b: &SwReceiver) -> u64 {
    fold_messages(
        Digest::new().u64(b.rejected()).u64(b.acks_sent()),
        b.delivered(),
    )
    .finish()
}

static SW: Probes<SwSender, SwReceiver> = Probes {
    outcome: |a, _, _| {
        (
            a.succeeded(),
            a.stats().frames_sent,
            a.stats().retransmissions,
        )
    },
    offered: SwSender::messages,
    delivered: SwReceiver::delivered,
    frame_ok: arq_frame_ok,
    digest_a: |a| sw_sender_digest(a.stats(), a.succeeded(), a.failed(), a.final_seq()),
    digest_b: sw_receiver_digest,
};

static SW_COMPILED: Probes<FsmSender, SwReceiver> = Probes {
    outcome: |a, _, _| {
        (
            a.succeeded(),
            a.stats().frames_sent,
            a.stats().retransmissions,
        )
    },
    offered: FsmSender::messages,
    delivered: SwReceiver::delivered,
    frame_ok: arq_frame_ok,
    digest_a: |a| sw_sender_digest(a.stats(), a.succeeded(), a.failed(), a.final_seq()),
    digest_b: sw_receiver_digest,
};

static GBN: Probes<GbnSender, GbnReceiver> = Probes {
    outcome: |a, _, _| {
        (
            a.succeeded(),
            a.stats().frames_sent,
            a.stats().retransmissions,
        )
    },
    offered: GbnSender::messages,
    delivered: GbnReceiver::delivered,
    frame_ok: window_frame_ok,
    digest_a: |a| {
        let s = a.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            a.succeeded(),
            a.failed(),
        )
        .finish()
    },
    digest_b: |b| fold_messages(Digest::new().u64(b.out_of_order()), b.delivered()).finish(),
};

static SR: Probes<SrSender, SrReceiver> = Probes {
    outcome: |a, _, _| {
        (
            a.succeeded(),
            a.stats().frames_sent,
            a.stats().retransmissions,
        )
    },
    offered: SrSender::messages,
    delivered: SrReceiver::delivered,
    frame_ok: window_frame_ok,
    digest_a: |a| {
        let s = a.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            a.succeeded(),
            a.failed(),
        )
        .finish()
    },
    digest_b: |b| fold_messages(Digest::new().u64(b.buffered_count()), b.delivered()).finish(),
};

static BASE: Probes<CSender, CReceiver> = Probes {
    // The baseline keeps no counters (that is its point); recover them
    // from the data-direction link: every frame sent there is a data
    // frame, and any beyond one per delivered message was a
    // retransmission.
    outcome: |a, b, ab_sent| {
        let retransmissions = ab_sent.saturating_sub(b.delivered().len() as u64);
        (a.succeeded(), ab_sent, retransmissions)
    },
    offered: CSender::messages,
    delivered: CReceiver::delivered,
    frame_ok: |frame| {
        let (mut kind, mut seq, mut payload) = (0u8, 0u8, Vec::new());
        baseline::parse_frame(frame, &mut kind, &mut seq, &mut payload) == baseline::E_OK
    },
    digest_a: |a| {
        Digest::new()
            .u64(a.succeeded() as u64)
            .u64(a.messages().len() as u64)
            .finish()
    },
    digest_b: |b| fold_messages(Digest::new(), b.delivered()).finish(),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::record;
    use crate::multiplex::MultiSessionDriver;
    use crate::scenario::SuiteDriver;
    use netdsl_netsim::campaign::BatchDriver;
    use netdsl_netsim::scenario::{EngineConfig, ScenarioDriver};
    use netdsl_netsim::LinkConfig;

    #[test]
    fn every_driver_refuses_with_the_same_error() {
        let compiled = |spec: ProtocolSpec| {
            spec.with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            })
        };
        let adaptive = RetransmitPolicy::AdaptiveRto {
            min_rto: 4,
            max_rto: 2_000,
        };
        let cases = [
            compiled(ProtocolSpec::new("nonesuch")),
            ProtocolSpec::new(STOP_AND_WAIT),
            compiled(ProtocolSpec::new(GO_BACK_N).with_window(4)),
            ProtocolSpec::new(BASELINE).with_retransmit(adaptive),
            compiled(ProtocolSpec::new(STOP_AND_WAIT)).with_retransmit(adaptive),
        ];
        let mut scenarios: Vec<Scenario> = cases
            .into_iter()
            .map(|spec| Scenario::new(spec, LinkConfig::reliable(3)))
            .collect();
        scenarios[1] = scenarios[1]
            .clone()
            .with_topology(TopologySpec::Line { nodes: 3 });

        let batched = MultiSessionDriver::new().run_batch(&scenarios);
        let mut solo_errors = Vec::new();
        for (scenario, mux) in scenarios.iter().zip(batched) {
            let solo = SuiteDriver::new().run(scenario).unwrap_err();
            assert_eq!(mux.unwrap_err(), solo, "{:?}", scenario.protocol);
            assert_eq!(
                record(scenario).unwrap_err(),
                solo,
                "{:?}",
                scenario.protocol
            );
            solo_errors.push(solo);
        }
        // Topology first, then the name, then the engine.
        assert!(matches!(
            solo_errors[..],
            [
                ScenarioError::UnknownProtocol(_),
                ScenarioError::UnsupportedTopology(_),
                ScenarioError::Unsupported(_),
                ScenarioError::Unsupported(_),
                ScenarioError::Unsupported(_),
            ]
        ));
    }
}
