//! The zero-allocation acceptance test for the simulation core: once
//! warm, the frame hot path — encode into an arena buffer, send,
//! schedule through the timer wheel, deliver, detach, recycle — must
//! perform **zero** heap allocations per frame. Demonstrated at the
//! allocator shim level: a counting `#[global_allocator]` wraps the
//! system allocator and the steady-state loop is required to leave the
//! counter untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use netdsl_netsim::{EventRef, LinkConfig, ObsConfig, Simulator};

/// The metric switch and registry are process-global, so the tests in
/// this binary must not run concurrently: the metrics test turning the
/// switch on would make another test's simulator register metrics (a
/// registry push) inside its zero-allocation measurement window. Each
/// test holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every allocation entry point
/// (alloc, alloc_zeroed, realloc) made by the current thread.
/// Deallocations are not counted — the property under test is "no new
/// memory", not "no frees". The count is per thread because the test
/// harness allocates on its own threads (spawning a test, reporting a
/// finished one) while a measurement runs; the simulator runs entirely
/// on the measuring thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations the current thread has made so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Pumps `frames` frames (with per-frame retransmission timers, like a
/// window protocol would arm) through the pooled hot path.
fn pump(sim: &mut Simulator, ab: netdsl_netsim::LinkId, node: netdsl_netsim::NodeId, frames: u64) {
    for i in 0..frames {
        let payload = sim.alloc_payload_with(|buf| {
            buf.extend_from_slice(&[i as u8; 256]);
        });
        sim.send_ref(ab, payload);
        sim.set_timer(node, 40, i);
        sim.cancel_timer(node, i);
        loop {
            match sim.step_ref() {
                Some(EventRef::Frame { payload, .. }) => {
                    assert_eq!(sim.payload(&payload)[0], i as u8);
                    let buf = sim.detach_payload(payload);
                    sim.recycle_payload(buf);
                }
                Some(EventRef::Timer { .. }) => {}
                None => break,
            }
        }
    }
}

#[test]
fn frame_hot_path_is_allocation_free_once_warm() {
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    let mut sim = Simulator::new(3);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(5));

    // Warm-up: grows the arena slot, the wheel's touched slots and the
    // scratch buffers to their steady-state sizes.
    pump(&mut sim, ab, a, 200);

    let before = allocations();
    pump(&mut sim, ab, a, 1_000);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "frame hot path allocated {} times across 1000 frames",
        after - before
    );
}

#[test]
fn frame_hot_path_stays_allocation_free_with_metrics_enabled() {
    // Observability must not cost the alloc_zero invariant: with the
    // global metric switch on, every hot-path update lands in a
    // pre-sized thread-local shard cell, and the flight sink writes into
    // a ring allocated once at install time (it wraps during the run).
    // The only allocation metrics ever perform is lazy registration
    // (one Vec push per metric, process-wide), which the warm-up pump
    // absorbs here. Thread-count invariance of the cross-shard snapshot
    // merge is pinned in the obs crate's own suite.
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    let mut sim = Simulator::new(3);
    sim.set_obs(ObsConfig::off().with_metrics().with_flight());
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(5));

    pump(&mut sim, ab, a, 200);

    let before = allocations();
    pump(&mut sim, ab, a, 1_000);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metrics-enabled hot path allocated {} times across 1000 frames",
        after - before
    );
    let snap = netdsl_obs::snapshot();
    let sent = snap.counter("sim.frames_sent").unwrap_or(0);
    assert!(sent >= 1_200, "counters should have observed the pump");
    let flight = sim.take_flight().expect("flight sink installed");
    assert!(flight.dropped > 0, "the flight ring wrapped while measured");
}

#[test]
fn owned_send_path_allocates_per_frame_for_contrast() {
    // The owned-buffer API: the caller's `vec!` allocates per frame.
    // This guards the test harness itself — if the counter stopped
    // counting, the zero assertions above would be vacuous.
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    let mut sim = Simulator::new(3);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(5));
    for i in 0..64u64 {
        sim.send(ab, vec![i as u8; 256]);
        while sim.step().is_some() {}
    }
    let before = allocations();
    for i in 0..64u64 {
        sim.send(ab, vec![i as u8; 256]);
        while sim.step().is_some() {}
    }
    assert!(
        allocations() - before >= 64,
        "owned-buffer path must allocate at least once per frame"
    );
}
