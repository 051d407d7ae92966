//! Multiplexed session driver: many scenarios, **one** simulator.
//!
//! [`SuiteDriver`](crate::scenario::SuiteDriver) builds a fresh
//! [`Simulator`] — arena, timer wheel, RNG — per scenario. That is the
//! right shape for isolation, but a campaign of a million tiny sessions
//! pays the world-construction cost a million times and keeps only two
//! nodes busy per wheel. [`MultiSessionDriver`] instead runs a whole
//! batch of scenarios as *sessions* of a single simulator: every session
//! gets its own node pair, duplex links and seeded RNG stream (see
//! [`Simulator::add_session`]), while the timer wheel, payload arena and
//! event queue are shared.
//!
//! The batch runs on the crate's one session pump (in
//! [`crate::driver`]) with one slot per session: the same
//! event-at-a-time loop, dispatch step, fault-boundary step and result
//! fold every other driver runs with one slot.
//!
//! **Parity is the contract.** Each session's transcript — frame bytes,
//! timer firings, retransmission counts, elapsed ticks, link counters —
//! is bit-identical to what a standalone [`SuiteDriver`] run of the same
//! scenario produces. The per-session RNG streams make impairment draws
//! independent of batch composition; global `(at, seq)` pop order
//! preserves each session's relative event order; and an event for a
//! session that has already closed — one a standalone run would never
//! have popped — is dropped undispatched, while the session's result
//! keeps the link counters it closed with. The simulator's event tap
//! (metrics, flight ring, golden log) records what the shared engine
//! popped, these events included.
//! `tests/golden_parity.rs` replays the committed fixture corpus through
//! this driver and compares every result with the solo run.
//!
//! [`SuiteDriver`]: crate::scenario::SuiteDriver

use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{Scenario, ScenarioError, ScenarioResult};
use netdsl_netsim::{ObsConfig, Simulator};
use netdsl_obs::{Counter, Gauge};

use crate::driver::{run_sessions, wire, Slot};
use crate::registry::{self, SessionEndpoints};

static MUX_SESSIONS_RUN: Counter = Counter::new("mux.sessions_run");
static MUX_OPEN_SESSIONS: Gauge = Gauge::new("mux.open_sessions");

/// [`BatchDriver`] that multiplexes a batch of duplex suite scenarios
/// onto one shared simulator. Results come back in batch order,
/// bit-identical to standalone
/// [`SuiteDriver`](crate::scenario::SuiteDriver) runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct MultiSessionDriver;

impl MultiSessionDriver {
    /// A new driver (stateless — every batch is self-contained).
    pub fn new() -> Self {
        MultiSessionDriver
    }
}

impl BatchDriver for MultiSessionDriver {
    fn supports(&self, protocol: &str) -> bool {
        registry::supports(protocol)
    }

    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        let mut results: Vec<Option<Result<ScenarioResult, ScenarioError>>> =
            batch.iter().map(|_| None).collect();
        // Scenarios the registry refuses error in place; the rest run
        // together (batch order preserved).
        let mut group = Vec::new();
        for (i, scenario) in batch.iter().enumerate() {
            match registry::session(scenario) {
                Err(e) => results[i] = Some(Err(e)),
                Ok(pair) => group.push((i, pair)),
            }
        }
        if !group.is_empty() {
            run_group(&mut group, batch, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot is filled"))
            .collect()
    }
}

/// Runs registry-built sessions (each with its batch index) as
/// sessions of a single simulator and writes each result into its
/// original batch slot.
fn run_group(
    group: &mut [(usize, Box<dyn SessionEndpoints>)],
    batch: &[Scenario],
    results: &mut [Option<Result<ScenarioResult, ScenarioError>>],
) {
    // The simulator is shared, so it observes the union of what the
    // member scenarios ask for (flight capacity takes the max). Metric
    // updates outside this function self-gate, so the two batch-level
    // instruments below are unconditional.
    let obs = group.iter().fold(ObsConfig::off(), |acc, (index, _)| {
        acc.union(batch[*index].protocol.obs)
    });
    // World building: the first scenario seeds the constructor (its RNG
    // stream is session 0), every further scenario is an added session.
    // Each session is wired and started in batch order, so session `k`
    // owns nodes `2k` and `2k + 1` — the pump's node-to-slot map.
    let mut sim = Simulator::new(batch[group[0].0].seed);
    sim.set_obs(obs);
    let mut indices = Vec::with_capacity(group.len());
    let mut slots = Vec::with_capacity(group.len());
    for (k, (index, pair)) in group.iter_mut().enumerate() {
        let scenario = &batch[*index];
        let session = if k == 0 {
            sim.default_session()
        } else {
            sim.add_session(scenario.seed)
        };
        let world = wire(&mut sim, session, scenario.link.clone());
        debug_assert_eq!(world.node_a.index(), 2 * k);
        indices.push(*index);
        slots.push(Slot::start(&mut sim, scenario, world, &mut **pair));
    }
    MUX_SESSIONS_RUN.add(slots.len() as u64);
    MUX_OPEN_SESSIONS.add(slots.len() as i64);
    run_sessions(&mut sim, &mut slots);
    MUX_OPEN_SESSIONS.add(-(slots.len() as i64));

    for (slot, &index) in slots.iter().zip(&indices) {
        results[index] = Some(Ok(registry::result(
            &*slot.dispatch,
            slot.now,
            sim.link_stats(slot.world.link_ab).sent,
            slot.link,
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
    use netdsl_netsim::scenario::{
        EngineConfig, FramePath, FsmPath, ProtocolSpec, ScenarioDriver, TopologySpec,
        TrafficPattern,
    };
    use netdsl_netsim::LinkConfig;

    /// A deliberately heterogeneous batch: every protocol, varied
    /// impairments, both frame paths, a compiled FSM, fault schedules
    /// and deadline-bound sessions.
    fn mixed_batch() -> Vec<Scenario> {
        let mk = |name: &str, window: u32, link: LinkConfig, seed: u64| {
            Scenario::new(
                ProtocolSpec::new(name).with_window(window).with_timeout(90),
                link,
            )
            .with_traffic(TrafficPattern::messages(8, 16))
            .with_seed(seed)
        };
        let mut batch = vec![
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 0.2), 7),
            mk(GO_BACK_N, 4, LinkConfig::reliable(3).with_corrupt(0.15), 8),
            mk(
                SELECTIVE_REPEAT,
                4,
                LinkConfig::reliable(2).with_jitter(8),
                9,
            ),
            mk(BASELINE, 1, LinkConfig::reliable(3).with_duplicate(0.3), 10),
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(4, 0.3), 11)
                .with_fault(netdsl_netsim::Fault::partition(40))
                .with_fault(netdsl_netsim::Fault::repair(1_000, 4)),
            // Total loss + finite deadline: exercises the past-deadline
            // close while other sessions keep the shared engine popping.
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 1.0), 12).with_deadline(600),
            // The receiver crashes for good and the sender hits its
            // deadline with retransmissions in flight to the dead node:
            // the shared engine pops those crash losses after the
            // session closed, which a solo run never sees.
            mk(GO_BACK_N, 4, LinkConfig::reliable(3), 7)
                .with_deadline(300)
                .with_fault(netdsl_netsim::Fault::crash(5, netdsl_netsim::FaultNode::B)),
        ];
        batch[1].protocol = batch[1].protocol.clone().with_engine(EngineConfig {
            frame_path: FramePath::Compiled,
            ..EngineConfig::default()
        });
        batch[4].protocol = batch[4].protocol.clone().with_engine(EngineConfig {
            fsm_path: FsmPath::Compiled,
            ..EngineConfig::default()
        });
        batch
    }

    #[test]
    fn batched_sessions_match_solo_runs_bit_for_bit() {
        let batch = mixed_batch();
        let solo = SuiteDriver::new();
        let expected: Vec<_> = batch.iter().map(|s| solo.run(s).unwrap()).collect();
        let got = MultiSessionDriver::new().run_batch(&batch);
        for ((scenario, want), got) in batch.iter().zip(&expected).zip(got) {
            assert_eq!(
                &got.unwrap(),
                want,
                "{}: multiplexed diverges",
                scenario.name
            );
        }
    }

    #[test]
    fn many_identical_sessions_do_not_perturb_each_other() {
        // 64 copies of one lossy scenario in a shared simulator must all
        // reproduce the standalone result — the per-session RNG streams
        // are what isolates them.
        let base = mixed_batch().remove(0);
        let want = SuiteDriver::new().run(&base).unwrap();
        let batch: Vec<_> = std::iter::repeat_with(|| base.clone()).take(64).collect();
        for got in MultiSessionDriver::new().run_batch(&batch) {
            assert_eq!(got.unwrap(), want);
        }
    }

    #[test]
    fn invalid_scenarios_error_in_place_without_poisoning_the_batch() {
        let mut batch = mixed_batch();
        let good = batch[0].clone();
        batch[1] = good.clone().with_topology(TopologySpec::Line { nodes: 3 });
        batch[3] = Scenario::new(ProtocolSpec::new("nonesuch"), LinkConfig::reliable(3));
        // Compiled FSM on go-back-n: no driver, must refuse.
        batch[2] = Scenario::new(
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_engine(EngineConfig {
                    fsm_path: FsmPath::Compiled,
                    ..EngineConfig::default()
                }),
            LinkConfig::reliable(3),
        );
        let results = MultiSessionDriver::new().run_batch(&batch);
        assert!(matches!(
            results[1],
            Err(ScenarioError::UnsupportedTopology(_))
        ));
        assert!(matches!(results[2], Err(ScenarioError::Unsupported(_))));
        assert!(matches!(results[3], Err(ScenarioError::UnknownProtocol(_))));
        let want = SuiteDriver::new().run(&batch[0]).unwrap();
        assert_eq!(
            *results[0].as_ref().unwrap(),
            want,
            "valid slots unaffected"
        );
    }

    #[test]
    fn batch_results_come_back_in_batch_order() {
        // Interleave refused scenarios so the sessions that run scatter
        // back into non-contiguous slots.
        let base = mixed_batch().remove(0);
        let batch: Vec<_> = (0..10)
            .map(|i| {
                let mut s = base.clone().with_seed(100 + i as u64);
                if i % 3 == 1 {
                    s.protocol.name = "nonesuch".into();
                }
                s
            })
            .collect();
        let solo = SuiteDriver::new();
        let got = MultiSessionDriver::new().run_batch(&batch);
        for (scenario, got) in batch.iter().zip(got) {
            assert_eq!(got, solo.run(scenario), "{}", scenario.name);
        }
    }
}
