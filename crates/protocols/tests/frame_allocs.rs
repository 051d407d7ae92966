//! Allocation ceilings for one warm frame encode or decode of the two
//! suite wire formats (ARQ and sliding-window), on both frame paths.
//!
//! Allocation counts are exact and do not depend on the machine, so
//! these ceilings catch a per-frame regression that timing would blur:
//! rebuilding a `PacketSpec` on every frame, for instance, costs the
//! interpretive walker a couple of dozen allocations. A counting
//! `#[global_allocator]` wraps the system allocator; each probe makes
//! one warm-up call (spec and codec caches, the thread-local decode
//! view), then counts the allocations of the next call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use netdsl_netsim::scenario::FramePath;
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::window::WindowFrame;

/// The allocation counter is process-global, so the tests in this
/// binary must not run concurrently. Each test holds this lock for its
/// whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every allocation entry point
/// (alloc, alloc_zeroed, realloc). Deallocations are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the only addition is a relaxed counter, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    op();
    ALLOCS.load(Ordering::Relaxed) - before
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

/// Fails with the whole measured table if any probe exceeds its ceiling.
fn assert_within(path: FramePath, ceilings: &[(&str, u64)]) {
    let measured = probe(path);
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
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    assert_within(
        FramePath::Interpreted,
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
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    assert_within(
        FramePath::Compiled,
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
