//! The three workloads, generated from the `--seed` argument.
//!
//! A workload is a list of campaign *cells*: each cell is a
//! [`Campaign`] with one protocol, one link, one traffic pattern and
//! one fault plan, swept over a seed axis. The protocol stack only
//! ever sees the [`Scenario`]s these campaigns expand to.
//!
//! - `bulk_1k` (solo, one caller thread): per-byte and per-frame
//!   costs — CRC-16 over whole frames, payload copies through the
//!   arena, compiled decode, one wheel timer per frame.
//! - `session_grid` (streamed, two workers): per-session fixed costs —
//!   scenario expansion, world building, boxed endpoints, traffic
//!   generation, result folding, streaming aggregation. The only
//!   workload on the multiplexed driver and the compiled FSM.
//! - `chaos_default` (solo, one caller thread): the engine
//!   `ProtocolSpec::new` gives a user (interpreted walker codec,
//!   typestate FSM) under faults — frame rejection, timers that fire,
//!   RTO backoff, crash/restart, flaps and corruption bursts.

use netdsl_netsim::campaign::derive_seed;
use netdsl_netsim::scenario::{FaultDirection, FaultNode, FramePath, FsmPath};
use netdsl_netsim::{
    Campaign, EngineConfig, Fault, LinkConfig, ProtocolSpec, RetransmitPolicy, Scenario, Sweep,
    TrafficPattern,
};
use netdsl_protocols::scenario::{BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long bulk transfers on the compiled frame path.
    Bulk1k,
    /// A large grid of tiny sessions on the multiplexed driver.
    SessionGrid,
    /// Short transfers under faults on the default (interpreted) engine.
    ChaosDefault,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::Bulk1k,
    Workload::SessionGrid,
    Workload::ChaosDefault,
];

/// Worker threads `session_grid` streams on.
pub const GRID_WORKERS: usize = 2;

/// Seed-axis length of every solo cell; a run that outlasts it cycles
/// through it again. (The axis is materialised, one label per seed.)
const SOLO_SEEDS: u64 = 4_096;

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk1k => "bulk_1k",
            Workload::SessionGrid => "session_grid",
            Workload::ChaosDefault => "chaos_default",
        }
    }
}

/// Sizes of one run. [`Shape::FULL`] is what the benchmark measures;
/// tests shrink it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Messages per `bulk_1k` session.
    pub bulk_messages: usize,
    /// Seed-axis length of one timed `session_grid` block.
    pub grid_block_seeds: u64,
    /// Seeds per cell in the traced run (grid: seed-axis length).
    pub traced_seeds: [u64; 3],
    /// Scenarios of the traced `session_grid` set that also run on the
    /// traced solo path.
    pub grid_solo_sample: usize,
    /// Seconds a traced run lasts: after its passes, the replays of
    /// captured frames through each codec, checksum and FSM layer fill
    /// the rest (each at least 50 ms).
    pub trace_seconds: f64,
}

impl Shape {
    /// The benchmark's sizes.
    pub const FULL: Shape = Shape {
        bulk_messages: 20_000,
        grid_block_seeds: 40_000,
        traced_seeds: [1, 1_000, 25],
        grid_solo_sample: 400,
        trace_seconds: 10.0,
    };

    /// Traced seeds per cell for `workload`.
    pub fn traced_seeds(&self, workload: Workload) -> u64 {
        match workload {
            Workload::Bulk1k => self.traced_seeds[0],
            Workload::SessionGrid => self.traced_seeds[1],
            Workload::ChaosDefault => self.traced_seeds[2],
        }
    }
}

fn compiled_frames() -> EngineConfig {
    EngineConfig {
        frame_path: FramePath::Compiled,
        ..EngineConfig::default()
    }
}

/// `bulk_1k` cells: selective repeat (window 16) and go-back-N
/// (window 8) on the compiled frame path, 1 KiB messages over a link
/// with delay 5, 3 % loss and 1 % corruption.
pub fn bulk_cells(seed: u64, shape: &Shape, seeds: u64) -> Vec<Campaign> {
    let link = LinkConfig::lossy(5, 0.03).with_corrupt(0.01);
    let traffic = TrafficPattern::messages(shape.bulk_messages, 1024);
    [
        ("sr16", ProtocolSpec::new(SELECTIVE_REPEAT).with_window(16)),
        ("gbn8", ProtocolSpec::new(GO_BACK_N).with_window(8)),
    ]
    .into_iter()
    .map(|(label, spec)| {
        Campaign::new(format!("bulk_1k/{label}"), seed)
            .protocols(Sweep::single(
                label,
                spec.with_timeout(40).with_engine(compiled_frames()),
            ))
            .links(Sweep::single("d5-l3-c1", link.clone()))
            .traffic(Sweep::single("20000x1KiB", traffic))
            .seeds(Sweep::seeds(seeds))
    })
    .collect()
}

/// One `session_grid` block: {sw, sw on the compiled FSM, gbn4, sr4,
/// baseline} × {clean delay 2, 15 % loss} × `seeds`, 4 × 32 B each, on
/// the compiled frame path. The engine is set on each protocol entry
/// (not through `Campaign::engines`), so the compiled-FSM cell keeps
/// its FSM path.
pub fn grid_campaign(seed: u64, block: u64, seeds: u64) -> Campaign {
    let engine = compiled_frames();
    let fsm = EngineConfig {
        fsm_path: FsmPath::Compiled,
        ..engine
    };
    Campaign::new(format!("session_grid/b{block}"), derive_seed(seed, block))
        .protocols(Sweep::grid([
            ("sw", ProtocolSpec::new(STOP_AND_WAIT).with_engine(engine)),
            ("sw-fsm", ProtocolSpec::new(STOP_AND_WAIT).with_engine(fsm)),
            (
                "gbn4",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(4)
                    .with_engine(engine),
            ),
            (
                "sr4",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(4)
                    .with_engine(engine),
            ),
            ("baseline", ProtocolSpec::new(BASELINE).with_engine(engine)),
        ]))
        .links(Sweep::grid([
            ("clean-d2", LinkConfig::reliable(2)),
            ("loss15-d2", LinkConfig::lossy(2, 0.15)),
        ]))
        .traffic(Sweep::single("4x32B", TrafficPattern::messages(4, 32)))
        .seeds(Sweep::seeds(seeds))
}

/// The `chaos_default` fault plans.
fn fault_plans() -> Vec<(&'static str, Vec<Fault>)> {
    vec![
        ("none", vec![]),
        (
            "crash",
            vec![
                Fault::crash(20, FaultNode::B),
                Fault::restart(400, FaultNode::B),
            ],
        ),
        (
            "flap",
            vec![Fault::flap(
                30,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                150,
                250,
                2,
            )],
        ),
        (
            "burst",
            vec![Fault::burst(
                30,
                FaultDirection::Both,
                LinkConfig::reliable(3).with_corrupt(0.6),
                300,
            )],
        ),
    ]
}

/// `chaos_default` cells: {sw fixed, sw adaptive, gbn4 adaptive, sr8
/// fixed, baseline} × the fault plans, 16 × 64 B over a link with delay
/// 3, 10 % loss and 2 % corruption, deadline 1 M ticks, on the default
/// engine.
pub fn chaos_cells(seed: u64, seeds: u64) -> Vec<Campaign> {
    let adaptive = RetransmitPolicy::AdaptiveRto {
        min_rto: 4,
        max_rto: 2_000,
    };
    let protocols = [
        ("sw", ProtocolSpec::new(STOP_AND_WAIT)),
        (
            "sw-rto",
            ProtocolSpec::new(STOP_AND_WAIT).with_retransmit(adaptive),
        ),
        (
            "gbn4-rto",
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_retransmit(adaptive),
        ),
        ("sr8", ProtocolSpec::new(SELECTIVE_REPEAT).with_window(8)),
        ("baseline", ProtocolSpec::new(BASELINE)),
    ];
    let link = LinkConfig::lossy(3, 0.10).with_corrupt(0.02);
    let mut cells = Vec::new();
    for (label, spec) in protocols {
        for (plan, faults) in fault_plans() {
            let campaign = Campaign::new(format!("chaos_default/{label}/{plan}"), seed)
                .protocols(Sweep::single(label, spec.clone()))
                .links(Sweep::single("d3-l10-c2", link.clone()))
                .traffic(Sweep::single("16x64B", TrafficPattern::messages(16, 64)))
                .seeds(Sweep::seeds(seeds))
                .deadline(1_000_000);
            cells.push(faults.into_iter().fold(campaign, Campaign::fault));
        }
    }
    cells
}

/// The cells a solo workload's timed loop cycles through.
pub fn solo_cells(workload: Workload, seed: u64, shape: &Shape) -> Vec<Campaign> {
    match workload {
        Workload::Bulk1k => bulk_cells(seed, shape, SOLO_SEEDS),
        Workload::ChaosDefault => chaos_cells(seed, SOLO_SEEDS),
        Workload::SessionGrid => panic!("session_grid is streamed, not run cell by cell"),
    }
}

/// The `k`-th scenario of a solo run: cells take turns, so any prefix
/// of the sequence holds every cell in equal measure.
pub fn nth_scenario(cells: &[Campaign], k: usize) -> Scenario {
    let cell = &cells[k % cells.len()];
    cell.scenario_at((k / cells.len()) % cell.scenario_count())
}

/// A deterministic 64-bit mix (splitmix64), for seeded sampling.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
