//! The walker's borrowed entry points agree with its by-name front door
//! on every spec of the shared set (`codec_specs`: ARQ, window, IPv4
//! with sub-byte coverage and a scaled length, UDP with a prefixed
//! length):
//!
//! * `decode_with` hands its closure exactly the fields `decode`
//!   returns, and gives the same verdict — the same error, or the same
//!   fields — on every single-bit flip, every truncation and a trailing
//!   byte; the compiled codec gives the same accept/reject verdict;
//! * `encode_fields_into`, starting from a stale non-empty buffer,
//!   writes exactly the bytes `encode` returns, and refuses missing,
//!   wrong-kind, non-member, over-width and prefix-mismatched values
//!   with the same `DslError`.

use netdsl_bench::codec_specs::{fill_values, spec_set};
use netdsl_codec::lower;
use netdsl_core::packet::{FieldKind, FieldRef, Len, PacketSpec, PacketValue, Value};
use netdsl_core::DslError;
use proptest::prelude::*;

/// `pv`'s values in `spec`'s declaration order.
fn field_refs<'v>(spec: &PacketSpec, pv: &'v PacketValue) -> Vec<FieldRef<'v>> {
    spec.fields()
        .iter()
        .map(|f| pv.get(&f.name).map_or(FieldRef::Absent, FieldRef::from))
        .collect()
}

/// `decode` and `decode_with` on one frame, as comparable values: the
/// error, or the fields in name order.
fn both_decodes(
    spec: &PacketSpec,
    frame: &[u8],
) -> (Result<PacketValue, DslError>, Result<PacketValue, DslError>) {
    let owned = spec.decode(frame).map(|checked| (*checked).clone());
    let borrowed = spec.decode_with(frame, |fields| {
        let mut pv = PacketValue::new();
        for f in spec.fields() {
            let value = match f.kind {
                FieldKind::Bytes { .. } => Value::Bytes(fields.bytes(&f.name)?.to_vec()),
                _ => Value::Uint(fields.uint(&f.name)?),
            };
            pv.set(&f.name, value);
        }
        Ok(pv)
    });
    (owned, borrowed)
}

/// Encodes `pv` both ways, the borrowed way into a stale buffer, and
/// returns both outcomes.
fn both_encodes(
    spec: &PacketSpec,
    pv: &PacketValue,
) -> (Result<Vec<u8>, DslError>, Result<Vec<u8>, DslError>) {
    let mut out = vec![0xEE; 9];
    let borrowed = spec
        .encode_fields_into(&field_refs(spec, pv), &mut out)
        .map(|()| out);
    (spec.encode(pv), borrowed)
}

proptest! {
    #[test]
    fn borrowed_entry_points_match_the_by_name_walker(
        i in 0usize..10_000,
        payload in prop_oneof![Just(0usize), 1usize..=80],
    ) {
        for (label, spec) in spec_set() {
            let codec = lower(spec).expect("spec set lowers");
            let pv = fill_values(spec, i, payload);
            let (owned, borrowed) = both_encodes(spec, &pv);
            prop_assert_eq!(&borrowed, &owned, "{} encode", label);
            let wire = owned.expect("spec-set values encode");

            let (owned, borrowed) = both_decodes(spec, &wire);
            prop_assert_eq!(owned.as_ref(), Ok(&pv_with_computed(spec, &pv, &wire)), "{}", label);
            prop_assert_eq!(&borrowed, &owned, "{} decode", label);

            let mut mutants: Vec<Vec<u8>> = (0..wire.len() * 8)
                .map(|bit| {
                    let mut bad = wire.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    bad
                })
                .collect();
            mutants.extend((0..wire.len()).map(|len| wire[..len].to_vec()));
            mutants.push([wire.as_slice(), &[0]].concat());
            for bad in &mutants {
                let (owned, borrowed) = both_decodes(spec, bad);
                prop_assert_eq!(&borrowed, &owned, "{} verdicts differ on {:?}", label, bad);
                prop_assert_eq!(
                    codec.decode(bad).is_ok(),
                    owned.is_ok(),
                    "{} compiled verdict differs on {:?}",
                    label,
                    bad
                );
            }
        }
    }
}

/// `pv` plus the computed fields as they appear in `wire`: what a
/// decode of `wire` must return.
fn pv_with_computed(spec: &PacketSpec, pv: &PacketValue, wire: &[u8]) -> PacketValue {
    let mut full = pv.clone();
    for (name, value) in spec.decode_unchecked(wire).expect("own frame").iter() {
        if pv.get(name).is_none() {
            full.set(name, value.clone());
        }
    }
    full
}

/// Every way of getting one value wrong, applied to the spec set plus a
/// spec whose byte run is sized by a caller-supplied prefix.
#[test]
fn refused_values_fail_identically_through_both_encoders() {
    let prefixed = PacketSpec::builder("prefixed")
        .uint("len", 8)
        .bytes(
            "data",
            Len::Prefixed {
                field: "len".into(),
                unit: 1,
                bias: 1,
            },
        )
        .build()
        .expect("well-formed");
    let mut prefixed_pv = PacketValue::new();
    prefixed_pv.set("len", Value::Uint(2));
    prefixed_pv.set("data", Value::Bytes(vec![7; 3]));
    let mut specs: Vec<(&str, &PacketSpec, PacketValue)> = spec_set()
        .into_iter()
        .map(|(label, spec)| (label, spec, fill_values(spec, 3, 16)))
        .collect();
    specs.push(("prefixed", &prefixed, prefixed_pv));

    let mut refused = 0;
    for (label, spec, good) in specs {
        assert!(spec.encode(&good).is_ok(), "{label} baseline encodes");
        let mut cases: Vec<PacketValue> = Vec::new();
        for (name, value) in good.iter() {
            // Missing: drop the field.
            let mut missing = PacketValue::new();
            for (other, v) in good.iter().filter(|(other, _)| *other != name) {
                missing.set(other, v.clone());
            }
            cases.push(missing);
            // Wrong kind: swap integer and bytes.
            let swapped = match value {
                Value::Uint(_) => Value::Bytes(vec![1]),
                Value::Bytes(_) => Value::Uint(1),
            };
            cases.push(with(&good, name, swapped));
        }
        for f in spec.fields() {
            match &f.kind {
                FieldKind::Enum { allowed, .. } => {
                    let outside = allowed.iter().max().expect("non-empty") + 1;
                    cases.push(with(&good, &f.name, Value::Uint(outside)));
                }
                FieldKind::Uint { bits } if *bits < 64 => {
                    cases.push(with(&good, &f.name, Value::Uint(1 << bits)));
                }
                _ => {}
            }
        }
        if label == "prefixed" {
            cases.push(with(&good, "len", Value::Uint(3)));
        }
        for pv in &cases {
            let (owned, borrowed) = both_encodes(spec, pv);
            assert!(owned.is_err(), "{label}: {pv:?} must be refused");
            assert_eq!(borrowed, owned, "{label}: {pv:?}");
            refused += 1;
        }
    }
    assert!(refused >= 40, "only {refused} refusals exercised");
}

fn with(pv: &PacketValue, name: &str, value: Value) -> PacketValue {
    let mut out = pv.clone();
    out.set(name, value);
    out
}
