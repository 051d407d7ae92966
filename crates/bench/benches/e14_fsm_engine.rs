//! E14 — the compiled transition-table FSM engine, measured.
//!
//! The tentpole claim of the FSM-engine work (`docs/FSM.md`): lowering a
//! reified [`Spec`] to a dense `state × event` transition matrix with
//! interned stack-machine guards/effects over integer registers makes
//! stepping the machine — no name lookups, no `BTreeMap` environment,
//! no per-step candidate `Vec` — at least 1.5× faster than the
//! tree-walking [`Machine`], with the *same observable behaviour* (the
//! walker stays in-tree as the differential oracle).
//!
//! Series:
//! * raw step throughput through a non-terminating §3.4 sender schedule
//!   (`SEND, OK, SEND, TIMEOUT, RETRY`) on each engine + `step_speedup`
//!   — **the gated metric**: CI asserts mean ≥ 1.5 on the committed
//!   `BENCH_E14.json` (`tools/check_bench_json --min-metric`);
//! * model-checker state throughput: `Explorer::explore` over the same
//!   spec via the enum-dispatch `SpecSystem` vs the dense-table
//!   `CompiledSpecSystem` + `checker_speedup` (advisory).
//!
//! Equivalence is asserted before anything is timed: both engines must
//! produce identical configurations along the schedule, and both checker
//! systems identical exploration reports. Speed without equivalence
//! would be measuring a different machine.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_core::fsm::{paper_sender_spec, EventId, Machine, Spec};
use netdsl_core::fsm_compiled::{lower, CompiledFsm, Stepper};
use netdsl_verify::{CompiledSpecSystem, Explorer, SpecSystem};

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The cyclic, never-terminating event schedule: one acknowledged send
/// followed by one timed-out-and-retried send, returning to `Ready`.
fn schedule(spec: &Spec) -> [EventId; 5] {
    let ev = |n: &str| spec.event_id(n).expect("paper sender event");
    [ev("SEND"), ev("OK"), ev("SEND"), ev("TIMEOUT"), ev("RETRY")]
}

/// Steps the tree-walking interpreter `n` times around the schedule,
/// steps/s.
fn walker_throughput(spec: &Spec, sched: &[EventId], n: usize) -> f64 {
    let mut m = Machine::new(spec);
    let start = Instant::now();
    for i in 0..n {
        black_box(m.apply(sched[i % sched.len()]).expect("schedule is legal"));
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Steps the compiled stepper `n` times around the schedule, steps/s.
fn stepper_throughput(fsm: &CompiledFsm, sched: &[EventId], n: usize) -> f64 {
    let mut s = Stepper::new(fsm);
    let start = Instant::now();
    for i in 0..n {
        black_box(s.apply(sched[i % sched.len()]).expect("schedule is legal"));
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 5 };
    let steps = report::scaled(2_000_000, 100_000);
    let seq_max = report::scaled(4095, 255) as u64;

    println!("E14: compiled transition-table FSM engine vs tree-walking interpreter\n");

    let spec = paper_sender_spec(255);
    let fsm = lower(&spec).expect("paper sender spec lowers");
    let sched = schedule(&spec);

    // Equivalence first: both engines walk the schedule in lockstep for
    // two full sequence-space wraps.
    {
        let mut m = Machine::new(&spec);
        let mut s = Stepper::new(&fsm);
        for i in 0..(2 * 256 * sched.len()) {
            let ev = sched[i % sched.len()];
            assert_eq!(m.apply(ev), s.apply(ev), "engines diverged at step {i}");
            assert_eq!(m.config(), &s.config(), "configs diverged at step {i}");
        }
    }

    // Checker equivalence on the sweep-sized spec: identical reports.
    let big_spec = paper_sender_spec(seq_max);
    let big_fsm = lower(&big_spec).expect("paper sender spec lowers");
    let explorer = Explorer::new();
    let walk_report = explorer.explore(&SpecSystem::new(&big_spec));
    let table_report = explorer.explore(&CompiledSpecSystem::new(&big_fsm));
    assert_eq!(walk_report.states, table_report.states, "state counts");
    assert_eq!(
        walk_report.transitions, table_report.transitions,
        "transition counts"
    );
    assert!(!walk_report.truncated && !table_report.truncated);
    println!(
        "equivalence: {} schedule steps lockstep; exploration identical ({} states, {} transitions)\n",
        2 * 256 * sched.len(),
        walk_report.states,
        walk_report.transitions
    );

    let mut out = BenchReport::new(
        "e14_fsm_engine",
        "compiled transition-table FSM engine: dense matrix + register programs vs tree walker",
    );

    // Step-throughput microbench, the gated comparison.
    let mut walker_rates = Vec::with_capacity(reps);
    let mut stepper_rates = Vec::with_capacity(reps);
    let mut step_speedups = Vec::with_capacity(reps);
    for _ in 0..reps {
        let w = walker_throughput(&spec, &sched, steps);
        let s = stepper_throughput(&fsm, &sched, steps);
        walker_rates.push(w);
        stepper_rates.push(s);
        step_speedups.push(s / w);
    }
    println!(
        "steps    ({steps} × §3.4 schedule): compiled {:>12.0} steps/s   walker {:>12.0} steps/s   speedup {:.2}x",
        mean(&stepper_rates),
        mean(&walker_rates),
        mean(&step_speedups)
    );

    // Checker state throughput: explore the seq_max-sized sender.
    let states = walk_report.states;
    let mut walk_checker = Vec::with_capacity(reps);
    let mut table_checker = Vec::with_capacity(reps);
    let mut checker_speedups = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sys = SpecSystem::new(&big_spec);
        let start = Instant::now();
        black_box(explorer.explore(&sys));
        let w = states as f64 / start.elapsed().as_secs_f64();
        let sys = CompiledSpecSystem::new(&big_fsm);
        let start = Instant::now();
        black_box(explorer.explore(&sys));
        let t = states as f64 / start.elapsed().as_secs_f64();
        walk_checker.push(w);
        table_checker.push(t);
        checker_speedups.push(t / w);
    }
    println!(
        "checker  ({states} states, seq_max {seq_max}): dense table {:>10.0} states/s   walker {:>10.0} states/s   speedup {:.2}x",
        mean(&table_checker),
        mean(&walk_checker),
        mean(&checker_speedups)
    );

    for (engine, samples) in [("compiled", &stepper_rates), ("walker", &walker_rates)] {
        out.push(
            Metric::new("step", "steps/s")
                .with_axis("engine", engine)
                .with_axis("spec", "paper_sender(255)")
                .with_samples(samples.iter().copied()),
        );
    }
    out.push(
        Metric::new("step_speedup", "ratio")
            .with_axis("comparison", "compiled vs walker steps/s")
            .with_samples(step_speedups.iter().copied()),
    );
    for (engine, samples) in [("compiled", &table_checker), ("walker", &walk_checker)] {
        out.push(
            Metric::new("checker_throughput", "states/s")
                .with_axis("engine", engine)
                .with_samples(samples.iter().copied()),
        );
    }
    out.push(
        Metric::new("checker_speedup", "ratio")
            .with_axis("comparison", "dense table vs enum dispatch states/s")
            .with_samples(checker_speedups.iter().copied()),
    );

    // Advisory on the live run (quick mode on a noisy runner must not
    // redden CI); the hard ≥ 1.5× gate is enforced by
    // `check_bench_json --min-metric` on the committed full-depth
    // BENCH_E14.json.
    let speedup = mean(&step_speedups);
    if speedup < 1.5 {
        eprintln!(
            "WARNING: compiled stepper only {speedup:.2}x over the walker this run \
             (expected ≥ 1.5x); likely measurement noise"
        );
    }
    println!("\nexpected shape: step_speedup ≥ 1.5 (the FSM-engine gate), checker_speedup > 1;");
    println!("both engines are differential-tested equivalent (core tests/fsm_differential.rs).");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E14.json`): same measurements under the
    // short id, schema-valid on its own, gated by CI on `step_speedup`.
    let mut alias = BenchReport::new("E14", "alias of e14_fsm_engine (FSM engine gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
