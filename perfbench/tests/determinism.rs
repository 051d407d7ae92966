//! The traced run's counts are exact: they repeat run for run, and the
//! grid's do not depend on how many workers stream it. The correctness
//! gate catches a corrupted result.

use std::sync::Mutex;

use perfbench::audit;
use perfbench::layers::{traced, TraceRun};
use perfbench::workload::{Shape, Workload, ALL};

/// The `obs` registry and the allocation counters are process-wide, so
/// traced runs in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// The grid's traced set (5 × 2 × 120 scenarios) spans three
/// 512-scenario chunks, so two workers both run.
const SMALL: Shape = Shape {
    bulk_messages: 300,
    grid_block_seeds: 10,
    traced_seeds: [1, 120, 2],
    grid_solo_sample: 40,
    trace_seconds: 0.0,
};

/// Counts that must repeat exactly, whatever the worker count.
const COUNTS: [&str; 18] = [
    "mux.sessions_run",
    "endpoint.callbacks_per_session",
    "endpoint.retransmissions_per_session",
    "endpoint.useful_frame_ratio",
    "sim.frames_sent",
    "sim.frames_delivered",
    "sim.frames_dropped",
    "sim.frames_corrupted",
    "sim.timers_set",
    "sim.timers_fired",
    "sim.timers_cancelled",
    "sim.frame_bytes_mean",
    "arq.rto_backoffs",
    "fault.injected",
    "protocols.transfers_abandoned",
    "alloc.per_session",
    "alloc.bytes_per_session",
    "alloc.per_frame",
];

fn counts<'a>(run: &TraceRun, names: &[&'a str]) -> Vec<(&'a str, f64)> {
    names.iter().map(|&n| (n, run.get(n))).collect()
}

fn clean(run: &TraceRun) {
    assert_eq!(run.tally.failed(), 0, "{:?}", run.tally.failures);
    assert!(run.broken.is_empty(), "{:?}", run.broken);
    assert_eq!(run.get("mux.sessions_run"), run.sessions as f64);
}

#[test]
fn traced_counts_repeat_exactly() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in ALL {
        let a = traced(workload, 7, &SMALL, 2);
        let b = traced(workload, 7, &SMALL, 2);
        clean(&a);
        assert_eq!(counts(&a, &COUNTS), counts(&b, &COUNTS), "{workload:?}");
        assert!(a.get("sim.frames_sent") > 0.0, "{workload:?}");
        assert!(a.get("alloc.per_session") > 0.0, "{workload:?}");
    }
}

#[test]
fn grid_counts_do_not_depend_on_worker_count() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let one = traced(Workload::SessionGrid, 5, &SMALL, 1);
    let two = traced(Workload::SessionGrid, 5, &SMALL, 2);
    clean(&one);
    clean(&two);
    assert_eq!(counts(&one, &COUNTS), counts(&two, &COUNTS));
}

#[test]
fn corrupted_result_counts_as_failed() {
    assert!(audit::self_test());
}
