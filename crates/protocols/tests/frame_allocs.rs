//! Allocation ceilings for one warm frame encode or decode of the two
//! suite wire formats (ARQ and sliding-window), on both frame paths, and
//! for one warm whole-session run of two corpus fixtures.
//!
//! Allocation counts are exact and do not depend on the machine, so
//! these ceilings catch a regression that timing would blur: rebuilding
//! a `PacketSpec` on every frame, for instance, costs the interpretive
//! walker a couple of dozen allocations. A counting `#[global_allocator]`
//! wraps the system allocator; each probe makes one warm-up call (spec
//! and codec caches, the thread-local decode view, the simulator core
//! pool), then counts the allocations of the next call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use netdsl_netsim::scenario::{FramePath, ScenarioDriver};
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::golden::corpus;
use netdsl_protocols::scenario::SuiteDriver;
use netdsl_protocols::window::WindowFrame;

/// System allocator wrapper that counts every allocation entry point
/// (alloc, alloc_zeroed, realloc) made by the current thread.
/// Deallocations are not counted. The count is per thread because the
/// test harness allocates on its own threads (reporting a finished test,
/// spawning the next) while a probe runs; everything a probe measures
/// runs on the probing thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the only addition is a thread-local counter, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by the second of two calls of `op`.
fn warm_allocs(mut op: impl FnMut()) -> u64 {
    op();
    let before = allocations();
    op();
    allocations() - before
}

/// Counts the eight probes of one frame path: data and ack encodes into a
/// pooled, pre-sized buffer, then data and ack decodes, for ARQ and for
/// the window format. Returns `(probe, allocations)` pairs.
fn probe(path: FramePath) -> Vec<(&'static str, u64)> {
    let payload = [0x5A_u8; 64];
    let mut buf = Vec::with_capacity(2048);
    let arq_data = ArqFrame::Data {
        seq: 7,
        payload: payload.to_vec(),
    }
    .encode_via(path);
    let arq_ack = ArqFrame::Ack { seq: 7 }.encode_via(path);
    let window_data = WindowFrame::Data {
        seq: 7,
        payload: payload.to_vec(),
    }
    .encode_via(path);
    let window_ack = WindowFrame::Ack { seq: 7 }.encode_via(path);
    vec![
        (
            "arq encode_data_into",
            warm_allocs(|| ArqFrame::encode_data_into(path, 7, &payload, &mut buf)),
        ),
        (
            "arq encode_ack_into",
            warm_allocs(|| ArqFrame::encode_ack_into(path, 7, &mut buf)),
        ),
        (
            "arq decode_via data",
            warm_allocs(|| {
                black_box(ArqFrame::decode_via(path, &arq_data).expect("valid frame"));
            }),
        ),
        (
            "arq decode_via ack",
            warm_allocs(|| {
                black_box(ArqFrame::decode_via(path, &arq_ack).expect("valid frame"));
            }),
        ),
        (
            "window encode_data_into",
            warm_allocs(|| WindowFrame::encode_data_into(path, 7, &payload, &mut buf)),
        ),
        (
            "window encode_ack_into",
            warm_allocs(|| WindowFrame::encode_ack_into(path, 7, &mut buf)),
        ),
        (
            "window decode_via data",
            warm_allocs(|| {
                black_box(WindowFrame::decode_via(path, &window_data).expect("valid frame"));
            }),
        ),
        (
            "window decode_via ack",
            warm_allocs(|| {
                black_box(WindowFrame::decode_via(path, &window_ack).expect("valid frame"));
            }),
        ),
    ]
}

/// Counts one warm `SuiteDriver::run` of each whole-session fixture on
/// `path`.
fn probe_sessions(path: FramePath) -> Vec<(&'static str, u64)> {
    let fixtures = corpus();
    ["sw-loss", "gbn-loss"]
        .into_iter()
        .map(|name| {
            let mut scenario = fixtures
                .iter()
                .find(|s| s.name == name)
                .expect("corpus names are stable")
                .clone();
            scenario.protocol = scenario.protocol.with_frame_path(path);
            let allocs = warm_allocs(|| {
                black_box(SuiteDriver.run(&scenario).expect("fixture runs"));
            });
            (name, allocs)
        })
        .collect()
}

/// Fails with the whole measured table if any probe exceeds its ceiling.
fn assert_within(path: FramePath, measured: Vec<(&str, u64)>, ceilings: &[(&str, u64)]) {
    let names: Vec<_> = measured.iter().map(|(name, _)| *name).collect();
    let expected: Vec<_> = ceilings.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected, "probe and ceiling tables disagree");
    let over: Vec<_> = measured
        .iter()
        .zip(ceilings)
        .filter(|((_, got), (_, ceiling))| got > ceiling)
        .collect();
    assert!(
        over.is_empty(),
        "{path:?} frame allocations over their ceilings: {over:?}\nmeasured: {measured:?}"
    );
}

#[test]
fn interpreted_frames_stay_within_their_allocation_ceilings() {
    assert_within(
        FramePath::Interpreted,
        probe(FramePath::Interpreted),
        &[
            ("arq encode_data_into", 20),
            ("arq encode_ack_into", 19),
            ("arq decode_via data", 22),
            ("arq decode_via ack", 20),
            ("window encode_data_into", 19),
            ("window encode_ack_into", 18),
            ("window decode_via data", 21),
            ("window decode_via ack", 19),
        ],
    );
}

#[test]
fn compiled_frames_stay_within_their_allocation_ceilings() {
    assert_within(
        FramePath::Compiled,
        probe(FramePath::Compiled),
        &[
            ("arq encode_data_into", 2),
            ("arq encode_ack_into", 2),
            ("arq decode_via data", 1),
            ("arq decode_via ack", 0),
            ("window encode_data_into", 2),
            ("window encode_ack_into", 2),
            ("window decode_via data", 1),
            ("window decode_via ack", 0),
        ],
    );
}

#[test]
fn whole_sessions_stay_within_their_allocation_ceilings() {
    assert_within(
        FramePath::Interpreted,
        probe_sessions(FramePath::Interpreted),
        &[("sw-loss", 553), ("gbn-loss", 441)],
    );
    assert_within(
        FramePath::Compiled,
        probe_sessions(FramePath::Compiled),
        &[("sw-loss", 60), ("gbn-loss", 47)],
    );
}
