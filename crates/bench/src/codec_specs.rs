//! The shared benchmark spec set for experiment E12 (compiled vs
//! interpretive codec throughput).
//!
//! Four real wire formats from `netdsl-protocols`, spanning the IR's
//! feature space: the paper's ARQ frame (enum + 8-bit checksum + rest),
//! the sliding-window frame (32-bit seq + CRC-16), RFC 791 IPv4
//! (sub-byte fields, scaled lengths, field-list coverage) and UDP
//! (length-prefixed payload). [`frame_corpus`] materialises
//! deterministic valid frames through the interpretive encoder — the
//! ground truth both paths are measured against — and
//! [`fill_values`] builds the caller-side value set for encode
//! benchmarks.

use netdsl_core::packet::{FieldKind, Len, PacketSpec, PacketValue, Value};
use netdsl_protocols::{arq, ipv4, udp, window};

/// The spec set, `(label, spec)` in fixed order.
pub fn spec_set() -> Vec<(&'static str, &'static PacketSpec)> {
    vec![
        ("arq", arq::arq_spec()),
        ("window", window::window_spec()),
        ("ipv4", ipv4::ipv4_spec()),
        ("udp", udp::udp_spec()),
    ]
}

/// Builds a value set for `spec` with deterministic field contents
/// (seeded by `i`) and `payload`-byte variable runs. Computed fields
/// (constants, lengths, checksums) are left to the encoders.
pub fn fill_values(spec: &PacketSpec, i: usize, payload: usize) -> PacketValue {
    let mut pv = spec.value();
    for (j, f) in spec.fields().iter().enumerate() {
        match &f.kind {
            FieldKind::Uint { bits } => {
                let raw = (i * 131 + j * 31) as u64;
                let v = if *bits >= 64 {
                    raw
                } else {
                    raw & ((1u64 << bits) - 1)
                };
                pv.set(&f.name, Value::Uint(v));
            }
            FieldKind::Enum { allowed, .. } => {
                pv.set(&f.name, Value::Uint(allowed[i % allowed.len()]));
            }
            FieldKind::Bytes { len } => {
                let n = match len {
                    Len::Fixed(n) => *n,
                    // The set's prefixed run (UDP) derives its prefix
                    // from a computed length field, so any size works.
                    Len::Prefixed { .. } | Len::Rest => payload,
                };
                pv.set(
                    &f.name,
                    Value::Bytes((0..n).map(|k| ((i * 31 + k) % 251) as u8).collect()),
                );
            }
            FieldKind::Const { .. } | FieldKind::Length { .. } | FieldKind::Checksum { .. } => {}
        }
    }
    pv
}

/// `frames` deterministic valid wire frames for `spec`, each with a
/// `payload`-byte variable run, encoded through the interpretive path
/// (the ground truth).
pub fn frame_corpus(spec: &PacketSpec, frames: usize, payload: usize) -> Vec<Vec<u8>> {
    (0..frames)
        .map(|i| {
            spec.encode(&fill_values(spec, i, payload))
                .expect("corpus values always encode")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_codec::lower;

    #[test]
    fn every_spec_lowers_and_its_corpus_roundtrips_both_paths() {
        for (label, spec) in spec_set() {
            let codec = lower(spec).expect(label);
            for frame in frame_corpus(spec, 8, 32) {
                assert!(spec.decode(&frame).is_ok(), "{label} interpretive");
                let decoded = codec.decode(&frame).expect(label);
                assert_eq!(
                    decoded.to_packet_value(),
                    *spec.decode(&frame).unwrap(),
                    "{label} values"
                );
            }
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        for (label, spec) in spec_set() {
            assert_eq!(
                frame_corpus(spec, 4, 16),
                frame_corpus(spec, 4, 16),
                "{label}"
            );
        }
    }
}
