//! Allocation ceilings for one warm frame encode or decode of the two
//! suite wire formats (ARQ and sliding-window), on both frame paths.
//! Whole-session allocations are pinned per golden fixture and engine
//! combination by the workspace's `tests/work_counts.rs`.
//!
//! Allocation counts are exact and do not depend on the machine, so
//! these ceilings catch a regression that timing would blur: rebuilding
//! a `PacketSpec` on every frame, for instance, costs the interpretive
//! walker a couple of dozen allocations. A counting `#[global_allocator]`
//! wraps the system allocator; each probe makes one warm-up call (spec
//! and codec caches, the thread-local walker scratch, decode view and
//! encode span table), then counts the allocations of the next call.

use std::hint::black_box;

use netdsl_netsim::scenario::FramePath;
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::window::WindowFrame;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

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
            ("arq encode_data_into", 0),
            ("arq encode_ack_into", 0),
            ("arq decode_via data", 1),
            ("arq decode_via ack", 0),
            ("window encode_data_into", 0),
            ("window encode_ack_into", 0),
            ("window decode_via data", 1),
            ("window decode_via ack", 0),
        ],
    );
}

#[test]
fn compiled_frames_stay_within_their_allocation_ceilings() {
    assert_within(
        FramePath::Compiled,
        probe(FramePath::Compiled),
        &[
            ("arq encode_data_into", 0),
            ("arq encode_ack_into", 0),
            ("arq decode_via data", 1),
            ("arq decode_via ack", 0),
            ("window encode_data_into", 0),
            ("window encode_ack_into", 0),
            ("window decode_via data", 1),
            ("window decode_via ack", 0),
        ],
    );
}
