//! Campaign driver for the pairwise protocol suite.
//!
//! [`SuiteDriver`] plugs the protocols of this crate into the
//! declarative scenario layer of
//! [`netdsl_netsim::scenario`]: a [`Scenario`] names one of
//! [`STOP_AND_WAIT`], [`GO_BACK_N`], [`SELECTIVE_REPEAT`] or
//! [`BASELINE`], the [`registry`] builds the matching endpoint pair,
//! and the driver pumps it on a fresh simulator — applying any
//! scheduled [`Fault`]s mid-run (expanded to a primitive [`FaultPlan`])
//! — and reports a protocol-independent [`ScenarioResult`].
//!
//! [`Fault`]: netdsl_netsim::scenario::Fault
//! [`FaultPlan`]: netdsl_netsim::scenario::FaultPlan
//!
//! ```
//! use netdsl_netsim::scenario::{ProtocolSpec, Scenario, ScenarioDriver, TrafficPattern};
//! use netdsl_netsim::LinkConfig;
//! use netdsl_protocols::scenario::{SuiteDriver, STOP_AND_WAIT};
//!
//! let scenario = Scenario::new(
//!     ProtocolSpec::new(STOP_AND_WAIT).with_timeout(60),
//!     LinkConfig::lossy(3, 0.2),
//! )
//! .with_traffic(TrafficPattern::messages(10, 16))
//! .with_seed(7);
//!
//! let result = SuiteDriver::new().run(&scenario).unwrap();
//! assert!(result.success);
//! assert_eq!(result.messages_delivered, 10);
//! ```

use netdsl_netsim::scenario::{Scenario, ScenarioDriver, ScenarioError, ScenarioResult};

use crate::driver::{duplex_world, fold, run_scenario, Duplex, Endpoint};
use crate::registry;
pub use crate::registry::validate_engine;

/// Protocol key for the §3.4 typestate stop-and-wait ARQ.
pub const STOP_AND_WAIT: &str = "stop-and-wait";
/// Protocol key for Go-Back-N (window from [`ProtocolSpec::window`]).
///
/// [`ProtocolSpec::window`]: netdsl_netsim::scenario::ProtocolSpec
pub const GO_BACK_N: &str = "go-back-n";
/// Protocol key for Selective Repeat (window from `ProtocolSpec::window`).
pub const SELECTIVE_REPEAT: &str = "selective-repeat";
/// Protocol key for the hand-rolled C-style baseline ARQ.
pub const BASELINE: &str = "baseline";

/// [`ScenarioDriver`] over this crate's pairwise protocols
/// ([`STOP_AND_WAIT`], [`GO_BACK_N`], [`SELECTIVE_REPEAT`],
/// [`BASELINE`]); duplex topologies only. Each run is the [`registry`]
/// session alone on a fresh simulator, pumped by the crate's one
/// session pump.
#[derive(Debug, Default, Clone, Copy)]
pub struct SuiteDriver;

impl SuiteDriver {
    /// A new driver (stateless — every run is self-contained).
    pub fn new() -> Self {
        SuiteDriver
    }
}

impl ScenarioDriver for SuiteDriver {
    fn supports(&self, protocol: &str) -> bool {
        registry::supports(protocol)
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
        let mut pair = registry::session(scenario)?;
        let (mut sim, world) = duplex_world(scenario.seed, scenario.link.clone());
        let (elapsed, link) = run_scenario(scenario, &mut sim, world, pair.as_mut());
        Ok(registry::result(
            pair.as_ref(),
            elapsed,
            sim.link_stats(world.link_ab).sent,
            link,
        ))
    }
}

/// Runs `scenario` with caller-built endpoints on a [`Duplex`] world
/// through the same pump, fault schedule and result fold as
/// [`SuiteDriver`] — the entry point for
/// drivers that wrap or replace the suite's endpoints. `stats_of`
/// extracts `(sender_succeeded, frames_sent, retransmissions)`;
/// `offered_of` / `delivered_of` borrow the offered and delivered
/// message slices from the endpoints, so the result is computed without
/// copying a single transfer.
pub fn drive_duplex<A: Endpoint, B: Endpoint>(
    scenario: &Scenario,
    a: A,
    b: B,
    stats_of: impl FnOnce(&Duplex<A, B>) -> (bool, u64, u64),
    offered_of: impl Fn(&A) -> &[Vec<u8>],
    delivered_of: impl Fn(&B) -> &[Vec<u8>],
) -> ScenarioResult {
    let mut duplex = Duplex::new(scenario.seed, scenario.link.clone(), a, b);
    let (elapsed, link) = duplex.run_scenario(scenario);
    fold(
        elapsed,
        stats_of(&duplex),
        offered_of(duplex.a()),
        delivered_of(duplex.b()),
        link,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::scenario::{
        EngineConfig, Fault, FaultDirection, FramePath, FsmPath, ProtocolSpec, TopologySpec,
        TrafficPattern,
    };
    use netdsl_netsim::LinkConfig;

    fn base(name: &str) -> Scenario {
        Scenario::new(
            ProtocolSpec::new(name).with_window(8).with_timeout(100),
            LinkConfig::lossy(3, 0.2),
        )
        .with_traffic(TrafficPattern::messages(12, 24))
        .with_seed(11)
    }

    #[test]
    fn every_suite_protocol_completes_a_lossy_transfer() {
        let driver = SuiteDriver::new();
        for name in [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT, BASELINE] {
            let r = driver.run(&base(name)).unwrap();
            assert!(r.success, "{name} failed: {r:?}");
            assert_eq!(r.messages_delivered, 12, "{name}");
            assert_eq!(r.payload_bytes, 12 * 24, "{name}");
            assert!(r.frames_sent >= 12, "{name}");
            assert!(r.link.sent > 0, "{name} records link counters");
        }
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let driver = SuiteDriver::new();
        let r1 = driver.run(&base(STOP_AND_WAIT)).unwrap();
        let r2 = driver.run(&base(STOP_AND_WAIT)).unwrap();
        assert_eq!(r1, r2, "bit-identical replay");
    }

    #[test]
    fn partition_and_repair_fault_schedule() {
        let scenario = base(STOP_AND_WAIT)
            .with_fault(Fault::partition(50))
            .with_fault(Fault::repair(5_000, 3));
        let r = SuiteDriver::new().run(&scenario).unwrap();
        assert!(r.success, "session survives the outage: {r:?}");
        assert!(r.retransmissions > 0, "outage forces retransmission");
        assert!(r.elapsed > 5_000, "completion only after repair");
    }

    #[test]
    fn unknown_protocol_and_topology_error() {
        let driver = SuiteDriver::new();
        assert!(!driver.supports("nonesuch"));
        assert!(matches!(
            driver.run(&base("nonesuch")),
            Err(ScenarioError::UnknownProtocol(_))
        ));
        let bad_topo = base(STOP_AND_WAIT).with_topology(TopologySpec::Line { nodes: 3 });
        assert!(matches!(
            driver.run(&bad_topo),
            Err(ScenarioError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn compiled_frame_path_replays_interpreted_runs_exactly() {
        use netdsl_netsim::scenario::FramePath;
        // Same seed + same semantics ⇒ the whole simulation transcript
        // (and therefore the result) is identical — the strongest
        // end-to-end statement of codec equivalence.
        let driver = SuiteDriver::new();
        for name in [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT] {
            let interpreted = base(name);
            let mut compiled = base(name);
            compiled.protocol = compiled.protocol.clone().with_engine(EngineConfig {
                frame_path: FramePath::Compiled,
                ..EngineConfig::default()
            });
            let ri = driver.run(&interpreted).unwrap();
            let rc = driver.run(&compiled).unwrap();
            assert_eq!(ri, rc, "{name}: frame paths diverge");
            assert!(rc.success, "{name}");
        }
    }

    #[test]
    fn compiled_fsm_path_replays_typestate_runs_exactly() {
        // The control-FSM twin of the frame-path test above: the same
        // scenario driven by the typestate machine and by the compiled
        // transition-table stepper produces an identical result —
        // timing, frame counts, retransmissions, link counters and all.
        let driver = SuiteDriver::new();
        for seed in [3, 11, 42] {
            let typestate = base(STOP_AND_WAIT).with_seed(seed);
            let mut compiled = base(STOP_AND_WAIT).with_seed(seed);
            compiled.protocol = compiled.protocol.clone().with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            });
            let rt = driver.run(&typestate).unwrap();
            let rc = driver.run(&compiled).unwrap();
            assert_eq!(rt, rc, "seed {seed}: fsm paths diverge");
            assert!(rc.success, "seed {seed}");
        }
    }

    #[test]
    fn compiled_fsm_path_refused_without_a_driver() {
        // Protocols without a reified control spec must refuse the axis
        // loudly rather than silently measure the typestate engine.
        let driver = SuiteDriver::new();
        for name in [GO_BACK_N, SELECTIVE_REPEAT, BASELINE] {
            let mut scenario = base(name);
            scenario.protocol = scenario.protocol.clone().with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            });
            assert!(
                matches!(driver.run(&scenario), Err(ScenarioError::Unsupported(_))),
                "{name} must refuse FsmPath::Compiled"
            );
        }
    }

    #[test]
    fn drive_duplex_matches_the_suite_driver() {
        // Caller-built endpoints on a `Duplex` world run the same pump,
        // fault schedule and result fold as the registry's session, on
        // either frame path.
        use crate::gbn::{GbnReceiver, GbnSender};
        use netdsl_netsim::scenario::FaultNode;
        let crashed = base(GO_BACK_N)
            .with_fault(Fault::crash(40, FaultNode::B))
            .with_fault(Fault::restart(600, FaultNode::B));
        let mut compiled = crashed.clone();
        compiled.protocol = compiled.protocol.clone().with_engine(EngineConfig {
            frame_path: FramePath::Compiled,
            ..EngineConfig::default()
        });
        for scenario in [base(GO_BACK_N), crashed, compiled] {
            let spec = &scenario.protocol;
            let messages = scenario.traffic.generate();
            let n = messages.len();
            let got = drive_duplex(
                &scenario,
                GbnSender::new(messages, spec.window, spec.timeout, spec.max_retries),
                GbnReceiver::new(n),
                |d| {
                    let s = d.a().stats();
                    (d.a().succeeded(), s.frames_sent, s.retransmissions)
                },
                GbnSender::messages,
                GbnReceiver::delivered,
            );
            assert_eq!(got, SuiteDriver::new().run(&scenario).unwrap());
        }
    }

    #[test]
    fn reverse_only_fault_hits_the_ack_path() {
        // Kill only the ack path from the start; the sender must
        // retransmit even though data flows cleanly.
        let scenario = base(STOP_AND_WAIT).with_fault(Fault::link(
            0,
            FaultDirection::Reverse,
            LinkConfig::lossy(3, 0.5),
        ));
        let r = SuiteDriver::new().run(&scenario).unwrap();
        assert!(r.success);
        assert!(r.retransmissions > 0, "lost acks force retries");
    }
}
