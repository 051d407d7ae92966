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
//! event queue are shared. One [`Simulator::drain_tick`] then serves
//! every session with events due at that tick.
//!
//! This module also holds [`run_session_stepped`], the solo driver's
//! and the golden recorder's runner: one session on its own simulator,
//! pumped event-at-a-time. The two pumps share their sessions (built by
//! the [`registry`]), their dispatch and fault-boundary steps, and their
//! result fold.
//!
//! **Parity is the contract.** Each session's transcript — frame bytes,
//! timer firings, retransmission counts, elapsed ticks, link counters —
//! is bit-identical to what a standalone [`SuiteDriver`] run of the same
//! scenario produces. The per-session RNG streams make impairment draws
//! independent of batch composition; global `(at, seq)` dispatch order
//! preserves each session's relative event order; and two retraction
//! hooks ([`Simulator::skip_delivery`],
//! [`Simulator::consume_cancellation`]) undo the places where batched
//! draining pops events a standalone pump would never have seen. They
//! retract link counters only: the simulator's event tap (metrics,
//! flight ring, golden log) records what the shared engine popped and
//! is never retracted.
//! `tests/golden_parity.rs` replays the committed fixture corpus through
//! this driver and compares every result with the solo run.
//!
//! [`SuiteDriver`]: crate::scenario::SuiteDriver

use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{FaultWorld, PlannedFault, Scenario, ScenarioError, ScenarioResult};
use netdsl_netsim::{EventRef, ObsConfig, SessionId, Simulator, Tick};
use netdsl_obs::{Counter, Gauge};

use crate::driver::{
    apply_faults, dispatch, duplex_world, fold, planned_faults, run_scenario, start, wire,
};
use crate::golden::Observed;
use crate::registry::{self, SessionEndpoints};

static MUX_SESSIONS_RUN: Counter = Counter::new("mux.sessions_run");
static MUX_OPEN_SESSIONS: Gauge = Gauge::new("mux.open_sessions");

/// Per-session pump bookkeeping inside a batch.
struct Slot {
    /// The session's position in the batch.
    index: usize,
    pair: Box<dyn SessionEndpoints>,
    world: FaultWorld,
    deadline: Tick,
    faults: Vec<PlannedFault>,
    next_fault: usize,
    /// The session's own clock: the tick of its last dispatched event —
    /// exactly what a standalone run's `Simulator::now` would read.
    now: Tick,
    closed: bool,
    session: SessionId,
}

impl Slot {
    /// Post-dispatch bookkeeping, the multiplexed equivalent of one
    /// step of the single-session pump: advance the session clock, apply
    /// every fault boundary the event crossed, and close the session
    /// once both endpoints are done or the event landed past the
    /// deadline (standalone dispatches exactly one event past the
    /// boundary before breaking).
    fn settle(&mut self, sim: &mut Simulator, open: &mut usize) {
        self.now = sim.now();
        apply_faults(
            sim,
            &self.world,
            &mut *self.pair,
            &self.faults,
            &mut self.next_fault,
        );
        if self.pair.done() || self.now > self.deadline {
            self.closed = true;
            *open -= 1;
        }
    }
}

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
            run_group(group, batch, &mut results);
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
    group: Vec<(usize, Box<dyn SessionEndpoints>)>,
    batch: &[Scenario],
    results: &mut [Option<Result<ScenarioResult, ScenarioError>>],
) {
    // World building: the first scenario seeds the constructor (its RNG
    // stream is session 0), every further scenario is an added session.
    // Node ids are dense and allocated here in order, so a flat vector
    // maps any event's node straight to its slot.
    let mut sim = Simulator::new(batch[group[0].0].seed);
    let mut slots: Vec<Slot> = Vec::with_capacity(group.len());
    let mut node_slot: Vec<usize> = Vec::with_capacity(group.len() * 2);
    for (k, (index, pair)) in group.into_iter().enumerate() {
        let scenario = &batch[index];
        let session = if k == 0 {
            sim.default_session()
        } else {
            sim.add_session(scenario.seed)
        };
        let world = wire(&mut sim, session, scenario.link.clone());
        debug_assert_eq!(world.node_a.index(), node_slot.len());
        node_slot.extend([k, k]);
        slots.push(Slot {
            index,
            pair,
            world,
            deadline: scenario.deadline,
            faults: planned_faults(scenario),
            next_fault: 0,
            now: 0,
            closed: false,
            session,
        });
    }

    // The simulator is shared, so it observes the union of what the
    // member scenarios ask for (flight capacity takes the max). Metric
    // updates outside this function self-gate, so the two batch-level
    // instruments below are unconditional.
    let obs = slots.iter().fold(ObsConfig::off(), |acc, slot| {
        acc.union(batch[slot.index].protocol.obs)
    });
    sim.set_obs(obs);
    MUX_SESSIONS_RUN.add(slots.len() as u64);

    // Start phase: all starts happen at tick 0, before any event is
    // popped — just as each standalone run starts its endpoints
    // before pumping. Sessions that need no events (empty transfers)
    // close immediately with elapsed 0.
    let mut open = slots.len();
    for slot in &mut slots {
        start(&mut sim, &slot.world, &mut *slot.pair);
        if slot.pair.done() {
            slot.closed = true;
            open -= 1;
        }
    }

    // Batched pump: one wheel pop per tick drains every session's
    // due events in global (at, seq) order — the exact relative
    // order each session's standalone pump would have produced.
    let mut events: Vec<EventRef> = Vec::new();
    // Gauge of in-flight sessions, updated by delta so concurrent
    // groups on other threads compose instead of clobbering.
    MUX_OPEN_SESSIONS.add(open as i64);
    let mut last_open = open;
    while open > 0 && sim.drain_tick(&mut events).is_some() {
        for event in events.drain(..) {
            let (EventRef::Frame { node, .. } | EventRef::Timer { node, .. }) = event;
            let slot = &mut slots[node_slot[node.index()]];
            match event {
                // A closed session's events (done, or past its
                // deadline) are events a standalone run would never
                // have popped: retract the delivery count / consume
                // the cancellation and drop them.
                EventRef::Frame { link, payload, .. } if slot.closed => {
                    sim.skip_delivery(link);
                    sim.release_payload(payload);
                }
                // A crash applied mid-tick: this event was drained
                // before the crash landed, so the pop-time dead check
                // never saw it. A standalone pump pops it after the
                // crash and drops it; do the same here (without
                // settling — standalone applies fault boundaries only
                // after *dispatched* events).
                EventRef::Frame { link, payload, .. } if sim.node_is_down(node) => {
                    sim.drop_delivery(link, payload);
                }
                // Timers: a cancellation a handler earlier in this
                // tick left pending is consumed first (for closed
                // sessions too), then the same two drops apply.
                EventRef::Timer { token, .. }
                    if sim.consume_cancellation(node, token)
                        || slot.closed
                        || sim.node_is_down(node) => {}
                event => {
                    dispatch(&mut sim, &slot.world, &mut *slot.pair, event);
                    slot.settle(&mut sim, &mut open);
                }
            }
        }
        if open != last_open {
            MUX_OPEN_SESSIONS.add(open as i64 - last_open as i64);
            last_open = open;
        }
    }
    MUX_OPEN_SESSIONS.add(-(last_open as i64));

    for slot in &slots {
        let ab_sent = sim.link_stats(slot.world.link_ab).sent;
        results[slot.index] = Some(Ok(fold(
            slot.now,
            slot.pair.outcome(ab_sent),
            slot.pair.offered(),
            slot.pair.delivered(),
            sim.session_stats(slot.session),
        )));
    }
}

/// Runs **one** registry session on its own simulator through the
/// single-session pump (event-at-a-time via [`Simulator::step_ref`]) —
/// what [`SuiteDriver`](crate::scenario::SuiteDriver) runs. With
/// `record` on, the simulator captures the golden transcript and the
/// session runs inside a [`golden::Observed`](crate::golden::Observed)
/// wrapper that annotates every delivery (the golden recorder's mode);
/// the returned simulator still holds the capture. Batched draining
/// pops a whole tick before dispatching, which would misattach those
/// per-delivery annotations; the stepped pump preserves the exact
/// pop-dispatch-annotate interleaving.
pub fn run_session_stepped(
    scenario: &Scenario,
    pair: &mut dyn SessionEndpoints,
    record: bool,
) -> (ScenarioResult, Simulator) {
    let (mut sim, world) = duplex_world(scenario.seed, scenario.link.clone());
    let elapsed = if record {
        sim.record_golden(true);
        run_scenario(scenario, &mut sim, &world, &mut Observed(&mut *pair))
    } else {
        run_scenario(scenario, &mut sim, &world, pair)
    };
    let ab_sent = sim.link_stats(world.link_ab).sent;
    let result = fold(
        elapsed,
        pair.outcome(ab_sent),
        pair.offered(),
        pair.delivered(),
        sim.total_stats(),
    );
    (result, sim)
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
    /// impairments, both frame paths, a compiled FSM, a fault schedule
    /// and a deadline-bound lossy session.
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
            // close and the skip_delivery retraction path.
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 1.0), 12).with_deadline(600),
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
