//! Event-loop harness: connects protocol endpoints to the simulator.
//!
//! An [`Endpoint`] is a mailbox-style protocol participant: it reacts to
//! delivered frames and timer expiries through an [`Io`] handle that lets
//! it transmit, arm timers and read the virtual clock. [`Duplex`] wires
//! two endpoints across a configurable duplex link and pumps the
//! simulation — the standard harness for every pairwise protocol in this
//! crate.
//!
//! This module also holds the crate's **one** session pump,
//! `run_sessions`: an event-at-a-time loop over
//! [`Simulator::step_ref`] that hands each event to the [`Dispatch`]
//! session owning its node and applies every fault boundary the event
//! crossed. The batched multiplexer ([`crate::multiplex`]) runs it over
//! one slot per session; [`Duplex::run`], [`drive_duplex`], the
//! [`SuiteDriver`] and the golden recorder run it over one slot. A
//! session's `elapsed` is the tick of the last event dispatched to it,
//! whichever driver ran it.
//!
//! [`drive_duplex`]: crate::scenario::drive_duplex
//! [`SuiteDriver`]: crate::scenario::SuiteDriver

use netdsl_netsim::scenario::{
    apply_fault, FaultNode, FaultPlan, FaultWorld, PlannedFault, Scenario, ScenarioResult,
};
use netdsl_netsim::{
    EventRef, LinkConfig, LinkId, LinkStats, NodeId, SessionId, Simulator, Tick, TimerToken,
};

/// I/O capabilities handed to an endpoint during a callback.
#[derive(Debug)]
pub struct Io<'a> {
    sim: &'a mut Simulator,
    node: NodeId,
    out_link: LinkId,
}

impl<'a> Io<'a> {
    /// Builds the handle for one endpoint callback; every dispatch the
    /// pumps make goes through one of these.
    fn new(sim: &'a mut Simulator, node: NodeId, out_link: LinkId) -> Io<'a> {
        Io {
            sim,
            node,
            out_link,
        }
    }
}

impl Io<'_> {
    /// Transmits a frame on this endpoint's outgoing link.
    pub fn send(&mut self, frame: Vec<u8>) {
        self.sim.send(self.out_link, frame);
    }

    /// Transmits a frame encoded by `fill` directly into a pooled
    /// arena buffer — the allocation-free send path.
    pub fn send_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let frame = self.sim.alloc_payload_with(fill);
        self.sim.send_ref(self.out_link, frame);
    }

    /// Arms a timer that will fire `delay` ticks from now with `token`.
    pub fn set_timer(&mut self, delay: Tick, token: TimerToken) {
        self.sim.set_timer(self.node, delay, token);
    }

    /// Cancels pending timers carrying `token`.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.sim.cancel_timer(self.node, token);
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.sim.now()
    }

    /// Attaches a validation verdict and endpoint state digest to the
    /// frame currently being dispatched (a no-op unless the simulator
    /// has golden-trace capture on — see
    /// [`Simulator::record_golden`](netdsl_netsim::Simulator::record_golden)
    /// and [`crate::golden`]).
    pub fn annotate_golden(&mut self, verdict: netdsl_netsim::Verdict, digest: u64) {
        self.sim.annotate_delivery(verdict, digest);
    }

    /// Reports a protocol-level event (ARQ timeout, retransmit, codec
    /// reject, …) to the simulator's event tap with this endpoint's
    /// node as the subject: one call bumps the kind's counter and, when
    /// the scenario installed one ([`netdsl_netsim::ObsConfig`]),
    /// records it in the flight ring. Endpoints call it
    /// unconditionally.
    pub fn flight_event(&mut self, kind: netdsl_netsim::FlightKind, detail: u64) {
        self.sim.flight_protocol_event(kind, self.node, detail);
    }
}

/// A protocol participant driven by frames and timers.
pub trait Endpoint {
    /// Called once before the first event, to kick things off.
    fn start(&mut self, io: &mut Io<'_>);

    /// A frame arrived (possibly corrupted, duplicated or reordered by
    /// the network — validating it is the endpoint's job).
    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>);

    /// A timer armed via [`Io::set_timer`] fired.
    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>);

    /// `true` once this endpoint needs no more events (used by the pump
    /// to detect completion).
    fn done(&self) -> bool;

    /// Discards all protocol state, returning the endpoint to its
    /// freshly-constructed condition — the *total state loss* a
    /// [`FaultKind::Restart`](netdsl_netsim::FaultKind::Restart)
    /// models. The driver calls [`Endpoint::start`] again afterwards.
    /// Endpoints that allocate monotone timer tokens keep their token
    /// counters so post-restart timers never alias retracted ones.
    /// Default: no-op (stateless endpoints).
    fn reset(&mut self) {}
}

/// The dispatch half of a two-endpoint session: every callback a pump
/// makes, addressed by side ([`FaultNode::A`] is the sender, which
/// transmits on the A→B link; [`FaultNode::B`] the receiver).
pub trait Dispatch {
    /// Kicks off one endpoint (called before any event, and again after
    /// a crash-restart).
    fn start(&mut self, side: FaultNode, io: &mut Io<'_>);
    /// A frame arrived at one endpoint.
    fn frame(&mut self, side: FaultNode, frame: &[u8], io: &mut Io<'_>);
    /// A timer fired on one endpoint's node.
    fn timer(&mut self, side: FaultNode, token: TimerToken, io: &mut Io<'_>);
    /// Total state loss on one endpoint (see [`Endpoint::reset`]).
    fn reset(&mut self, side: FaultNode);
    /// `true` once both endpoints need no more events.
    fn done(&self) -> bool;
}

impl<A: Endpoint, B: Endpoint> Dispatch for (A, B) {
    fn start(&mut self, side: FaultNode, io: &mut Io<'_>) {
        match side {
            FaultNode::A => self.0.start(io),
            FaultNode::B => self.1.start(io),
        }
    }
    fn frame(&mut self, side: FaultNode, frame: &[u8], io: &mut Io<'_>) {
        match side {
            FaultNode::A => self.0.on_frame(frame, io),
            FaultNode::B => self.1.on_frame(frame, io),
        }
    }
    fn timer(&mut self, side: FaultNode, token: TimerToken, io: &mut Io<'_>) {
        match side {
            FaultNode::A => self.0.on_timer(token, io),
            FaultNode::B => self.1.on_timer(token, io),
        }
    }
    fn reset(&mut self, side: FaultNode) {
        match side {
            FaultNode::A => self.0.reset(),
            FaultNode::B => self.1.reset(),
        }
    }
    fn done(&self) -> bool {
        self.0.done() && self.1.done()
    }
}

/// Two endpoints joined by a duplex link, plus the pump loop.
#[derive(Debug)]
pub struct Duplex<A, B> {
    sim: Simulator,
    ends: (A, B),
    world: FaultWorld,
}

impl<A: Endpoint, B: Endpoint> Duplex<A, B> {
    /// Builds the two-node world with symmetric link configuration.
    pub fn new(seed: u64, config: LinkConfig, a: A, b: B) -> Self {
        let (sim, world) = duplex_world(seed, config);
        Duplex {
            sim,
            ends: (a, b),
            world,
        }
    }

    /// Runs until both endpoints report done, the simulation quiesces, or
    /// an event past `deadline` has been dispatched. Returns the tick of
    /// the last event dispatched to either endpoint (the simulator's
    /// time on entry if none was).
    pub fn run(&mut self, deadline: Tick) -> Tick {
        start(&mut self.sim, &self.world, &mut self.ends);
        self.resume(deadline)
    }

    /// Continues pumping without re-running `start` (for staged runs
    /// around a mid-session reconfiguration). Semantics otherwise match
    /// [`Duplex::run`], including the returned tick.
    pub fn resume(&mut self, deadline: Tick) -> Tick {
        let mut slot = [Slot::new(
            &self.sim,
            self.world,
            &mut self.ends,
            Vec::new(),
            deadline,
        )];
        run_sessions(&mut self.sim, &mut slot);
        slot[0].now
    }

    /// Runs `scenario` on this (freshly built) world — see
    /// [`run_scenario`].
    pub(crate) fn run_scenario(&mut self, scenario: &Scenario) -> (Tick, LinkStats) {
        run_scenario(scenario, &mut self.sim, self.world, &mut self.ends)
    }

    /// The left endpoint.
    pub fn a(&self) -> &A {
        &self.ends.0
    }

    /// The right endpoint.
    pub fn b(&self) -> &B {
        &self.ends.1
    }

    /// The simulator (for link statistics after a run).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access between pump phases — used by failure-
    /// injection tests to repair or degrade links mid-session.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Tears the world down into its endpoints (and simulator), so
    /// callers can move results (e.g. a receiver's delivered payloads)
    /// out instead of copying them.
    pub fn into_parts(self) -> (A, B, Simulator) {
        (self.ends.0, self.ends.1, self.sim)
    }

    /// The A→B link id (for stats lookups).
    pub fn link_ab(&self) -> LinkId {
        self.world.link_ab
    }

    /// The B→A link id.
    pub fn link_ba(&self) -> LinkId {
        self.world.link_ba
    }
}

/// Adds one duplex session's node pair and links to `sim`: A's data
/// link `link_ab`, B's ack link `link_ba`, both drawing impairments from
/// `session`'s RNG stream. The solo and multiplexed drivers wire every
/// session this way.
pub(crate) fn wire(sim: &mut Simulator, session: SessionId, config: LinkConfig) -> FaultWorld {
    let node_a = sim.add_node_for(session);
    let node_b = sim.add_node_for(session);
    let (link_ab, link_ba) = sim.add_duplex(node_a, node_b, config);
    FaultWorld {
        node_a,
        node_b,
        link_ab,
        link_ba,
    }
}

/// A fresh single-session simulator, wired as one duplex session
/// (session 0).
pub(crate) fn duplex_world(seed: u64, config: LinkConfig) -> (Simulator, FaultWorld) {
    let mut sim = Simulator::new(seed);
    let session = sim.default_session();
    let world = wire(&mut sim, session, config);
    (sim, world)
}

/// The I/O handle of one side of `world`.
fn io<'a>(sim: &'a mut Simulator, world: &FaultWorld, side: FaultNode) -> Io<'a> {
    let out_link = match side {
        FaultNode::A => world.link_ab,
        FaultNode::B => world.link_ba,
    };
    Io::new(sim, world.node(side), out_link)
}

/// Starts both endpoints, A first — before any event is popped.
fn start<D: Dispatch + ?Sized>(sim: &mut Simulator, world: &FaultWorld, d: &mut D) {
    d.start(FaultNode::A, &mut io(sim, world, FaultNode::A));
    d.start(FaultNode::B, &mut io(sim, world, FaultNode::B));
}

/// Hands one popped event to the endpoint on its node's side. A frame's
/// payload buffer is detached from the arena (a move, not a copy), lent
/// to the endpoint, and recycled afterwards — zero allocation in steady
/// state.
fn dispatch<D: Dispatch + ?Sized>(
    sim: &mut Simulator,
    world: &FaultWorld,
    d: &mut D,
    event: EventRef,
) {
    let side_of = |node: NodeId| {
        if node == world.node_a {
            FaultNode::A
        } else {
            FaultNode::B
        }
    };
    match event {
        EventRef::Frame { node, payload, .. } => {
            let frame = sim.detach_payload(payload);
            let side = side_of(node);
            d.frame(side, &frame, &mut io(sim, world, side));
            sim.recycle_payload(frame);
        }
        EventRef::Timer { node, token } => {
            let side = side_of(node);
            d.timer(side, token, &mut io(sim, world, side));
        }
    }
}

/// One session's pump state inside [`run_sessions`]: its world and
/// endpoints, its planned faults and the next one still pending, its
/// deadline, its clock, and whether it has closed.
pub(crate) struct Slot<'d, D: ?Sized> {
    pub(crate) world: FaultWorld,
    pub(crate) dispatch: &'d mut D,
    faults: Vec<PlannedFault>,
    next_fault: usize,
    deadline: Tick,
    /// The session's clock: the tick of the last event dispatched to
    /// it, or the simulator's time when the slot was built if none has
    /// been. This is the session's `elapsed`.
    pub(crate) now: Tick,
    closed: bool,
    /// The session's link counters, taken when it closed. Events of a
    /// closed session still popped by the shared engine cannot move
    /// them.
    pub(crate) link: LinkStats,
}

impl<'d, D: Dispatch + ?Sized> Slot<'d, D> {
    /// A slot for endpoints that are already started. It is closed from
    /// the outset when both endpoints are done or the clock is already
    /// past `deadline`.
    pub(crate) fn new(
        sim: &Simulator,
        world: FaultWorld,
        dispatch: &'d mut D,
        faults: Vec<PlannedFault>,
        deadline: Tick,
    ) -> Self {
        let now = sim.now();
        let mut slot = Slot {
            world,
            dispatch,
            faults,
            next_fault: 0,
            deadline,
            now,
            closed: false,
            link: LinkStats::default(),
        };
        if slot.dispatch.done() || now > deadline {
            slot.close(sim);
        }
        slot
    }

    /// Starts both endpoints of `scenario`'s session on `world`, A
    /// first, and returns its slot.
    pub(crate) fn start(
        sim: &mut Simulator,
        scenario: &Scenario,
        world: FaultWorld,
        dispatch: &'d mut D,
    ) -> Self {
        start(sim, &world, dispatch);
        Slot::new(
            sim,
            world,
            dispatch,
            planned_faults(scenario),
            scenario.deadline,
        )
    }

    /// Bookkeeping after an event was dispatched to this session:
    /// advances the clock, applies every fault whose boundary the event
    /// crossed, and closes the session once both endpoints are done or
    /// the event landed past the deadline. Returns whether it closed.
    ///
    /// A fault lands strictly after its tick (`at < now`): after the
    /// first event *past* it, which is deterministic and
    /// indistinguishable from the fault landing a tick later. A restart
    /// re-launches the endpoint from scratch ([`Dispatch::reset`] then
    /// [`Dispatch::start`]).
    fn settle(&mut self, sim: &mut Simulator) -> bool {
        self.now = sim.now();
        while let Some(fault) = self.faults.get(self.next_fault) {
            if fault.at >= self.now {
                break;
            }
            if let Some(side) = apply_fault(sim, &self.world, fault) {
                self.dispatch.reset(side);
                self.dispatch.start(side, &mut io(sim, &self.world, side));
            }
            self.next_fault += 1;
        }
        if self.dispatch.done() || self.now > self.deadline {
            self.close(sim);
        }
        self.closed
    }

    /// Closes the session and takes its link counters.
    fn close(&mut self, sim: &Simulator) {
        self.closed = true;
        self.link = sim
            .link_stats(self.world.link_ab)
            .merge(*sim.link_stats(self.world.link_ba));
    }
}

/// The one session pump. Pops one event at a time with
/// [`Simulator::step_ref`], dispatches it to the session that owns its
/// node and settles that session, until every session has closed or
/// the event queue drains. A session closes once both its endpoints
/// are done or an event past its deadline was dispatched to it (exactly
/// one such event is). Every driver runs on this loop: the batched
/// multiplexer with one slot per session, everything else with one.
///
/// A session owns nodes `2k` and `2k + 1` of the simulator, where `k`
/// is its index in `slots`: the nodes must be allocated densely, two
/// per session, in slot order (as [`wire`] does).
///
/// An event for a closed session is one that a run of that session
/// alone would never have popped: it is dropped undispatched, and the
/// link counters the session closed with stand. Sessions still open
/// when the queue drains close then. A fault scheduled after a
/// session's last dispatched event never lands.
pub(crate) fn run_sessions<D: Dispatch + ?Sized>(sim: &mut Simulator, slots: &mut [Slot<'_, D>]) {
    let mut open = slots.iter().filter(|slot| !slot.closed).count();
    while open > 0 {
        let Some(event) = sim.step_ref() else {
            break;
        };
        let (EventRef::Frame { node, .. } | EventRef::Timer { node, .. }) = event;
        let slot = &mut slots[node.index() / 2];
        if slot.closed {
            if let EventRef::Frame { payload, .. } = event {
                sim.release_payload(payload);
            }
            continue;
        }
        dispatch(sim, &slot.world, slot.dispatch, event);
        if slot.settle(sim) {
            open -= 1;
        }
    }
    for slot in slots.iter_mut().filter(|slot| !slot.closed) {
        slot.close(sim);
    }
}

/// `scenario`'s expanded fault schedule, pre-filtered to `at <
/// deadline` (a fault at or past the deadline can never influence a
/// dispatched event).
fn planned_faults(scenario: &Scenario) -> Vec<PlannedFault> {
    let mut faults = FaultPlan::from_scenario(scenario).actions;
    faults.retain(|f| f.at < scenario.deadline);
    faults
}

/// Runs one scenario's session alone on its freshly wired world:
/// installs the scenario's telemetry, starts both endpoints and pumps
/// one slot through the fault schedule up to the deadline. Returns the
/// session's `elapsed` and link counters.
pub(crate) fn run_scenario<D: Dispatch + ?Sized>(
    scenario: &Scenario,
    sim: &mut Simulator,
    world: FaultWorld,
    d: &mut D,
) -> (Tick, LinkStats) {
    sim.set_obs(scenario.protocol.obs);
    let mut slot = [Slot::start(sim, scenario, world, d)];
    run_sessions(sim, &mut slot);
    (slot[0].now, slot[0].link)
}

/// Folds a finished session into the driver-independent result shape —
/// the one fold every driver shares. `outcome` is `(sender_succeeded,
/// frames_sent, retransmissions)`; `link` holds the session's link
/// counters.
pub(crate) fn fold(
    elapsed: Tick,
    outcome: (bool, u64, u64),
    offered: &[Vec<u8>],
    delivered: &[Vec<u8>],
    link: LinkStats,
) -> ScenarioResult {
    let (sender_succeeded, frames_sent, retransmissions) = outcome;
    ScenarioResult {
        success: sender_succeeded && delivered == offered,
        elapsed,
        messages_offered: offered.len() as u64,
        messages_delivered: delivered.len() as u64,
        payload_bytes: delivered.iter().map(|m| m.len() as u64).sum(),
        frames_sent,
        retransmissions,
        link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping endpoint: sends "ping", waits for "pong", done.
    struct Ping {
        got_pong: bool,
    }

    impl Endpoint for Ping {
        fn start(&mut self, io: &mut Io<'_>) {
            io.send(b"ping".to_vec());
        }
        fn on_frame(&mut self, frame: &[u8], _io: &mut Io<'_>) {
            if frame == b"pong" {
                self.got_pong = true;
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _io: &mut Io<'_>) {}
        fn done(&self) -> bool {
            self.got_pong
        }
    }

    /// Pong endpoint: answers any frame with "pong".
    struct Pong {
        replied: bool,
    }

    impl Endpoint for Pong {
        fn start(&mut self, _io: &mut Io<'_>) {}
        fn on_frame(&mut self, _frame: &[u8], io: &mut Io<'_>) {
            io.send(b"pong".to_vec());
            self.replied = true;
        }
        fn on_timer(&mut self, _t: TimerToken, _io: &mut Io<'_>) {}
        fn done(&self) -> bool {
            self.replied
        }
    }

    #[test]
    fn ping_pong_completes() {
        let mut d = Duplex::new(
            0,
            LinkConfig::reliable(3),
            Ping { got_pong: false },
            Pong { replied: false },
        );
        let end = d.run(100);
        assert!(d.a().got_pong);
        assert!(d.b().replied);
        assert_eq!(end, 6, "two 3-tick hops");
    }

    #[test]
    fn run_respects_deadline_on_lossy_silence() {
        // Total loss: ping never arrives; the pump must stop (quiescence).
        let mut d = Duplex::new(
            0,
            LinkConfig::lossy(3, 1.0),
            Ping { got_pong: false },
            Pong { replied: false },
        );
        d.run(1000);
        assert!(!d.a().got_pong);
    }

    #[test]
    fn timers_reach_endpoints() {
        struct TimerUser {
            fired: bool,
        }
        impl Endpoint for TimerUser {
            fn start(&mut self, io: &mut Io<'_>) {
                io.set_timer(5, 42);
            }
            fn on_frame(&mut self, _: &[u8], _: &mut Io<'_>) {}
            fn on_timer(&mut self, token: TimerToken, _: &mut Io<'_>) {
                assert_eq!(token, 42);
                self.fired = true;
            }
            fn done(&self) -> bool {
                self.fired
            }
        }
        struct Inert;
        impl Endpoint for Inert {
            fn start(&mut self, _: &mut Io<'_>) {}
            fn on_frame(&mut self, _: &[u8], _: &mut Io<'_>) {}
            fn on_timer(&mut self, _: TimerToken, _: &mut Io<'_>) {}
            fn done(&self) -> bool {
                true
            }
        }
        let mut d = Duplex::new(
            0,
            LinkConfig::reliable(1),
            TimerUser { fired: false },
            Inert,
        );
        d.run(100);
        assert!(d.a().fired);
    }
}
