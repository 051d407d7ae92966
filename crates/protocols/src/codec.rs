//! Compiled frame codecs for the protocol suite.
//!
//! Each wire format of this crate ([`arq_spec`](crate::arq::arq_spec),
//! [`window_spec`](crate::window::window_spec)) is built once as a
//! process-wide [`PacketSpec`], the executable spec the interpretive
//! walker runs. It is lowered **once** from that value by
//! `netdsl-codec` into a [`SuiteCodec`] — the compiled program plus the
//! pre-resolved field indices the endpoints read — also cached for the
//! process. Endpoints select between the interpretive and compiled
//! paths per scenario through
//! [`FramePath`](netdsl_netsim::scenario::FramePath) (see
//! [`ProtocolSpec::with_frame_path`]); the two paths are behaviourally
//! equivalent, which the tests here and the differential suite in
//! `netdsl-codec` pin down.
//!
//! [`ProtocolSpec::with_frame_path`]: netdsl_netsim::scenario::ProtocolSpec::with_frame_path
//!
//! Both paths encode from a stack table of borrowed values straight
//! into the caller's (pooled) buffer, and decode into thread-local
//! scratch — a [`FieldView`] for the compiled path, the walker's own
//! for the interpreted one — handing back the payload borrowed from the
//! frame. Neither allocates per frame in the steady state beyond the
//! payload copy into a data frame's enum.

use std::cell::RefCell;
use std::sync::OnceLock;

use netdsl_codec::{lower, CompiledCodec, FieldIx, FieldView};
use netdsl_core::packet::{FieldRef, PacketSpec};

/// A compiled suite wire format: the program plus the field indices the
/// endpoints touch (`kind`, `seq`, `payload`), resolved once.
#[derive(Debug)]
pub struct SuiteCodec {
    codec: CompiledCodec,
    /// Index of the frame-kind discriminator field.
    pub kind: FieldIx,
    /// Index of the sequence-number field.
    pub seq: FieldIx,
    /// Index of the payload byte run.
    pub payload: FieldIx,
}

impl SuiteCodec {
    fn new(spec: &PacketSpec) -> SuiteCodec {
        let codec = lower(spec).expect("suite specs always lower");
        let ix = |name: &str| {
            codec
                .field_index(name)
                .unwrap_or_else(|| panic!("suite spec {:?} has a {name} field", spec.name()))
        };
        SuiteCodec {
            kind: ix("kind"),
            seq: ix("seq"),
            payload: ix("payload"),
            codec,
        }
    }

    /// The compiled program itself.
    pub fn codec(&self) -> &CompiledCodec {
        &self.codec
    }
}

/// The compiled §3.4 ARQ codec (`kind:8 seq:8 chk:8 payload:*`),
/// lowered on first use and shared for the process lifetime.
pub fn arq_codec() -> &'static SuiteCodec {
    static CODEC: OnceLock<SuiteCodec> = OnceLock::new();
    CODEC.get_or_init(|| SuiteCodec::new(crate::arq::arq_spec()))
}

/// The compiled sliding-window codec
/// (`kind:8 seq:32 chk:16 payload:*`), lowered on first use.
pub fn window_codec() -> &'static SuiteCodec {
    static CODEC: OnceLock<SuiteCodec> = OnceLock::new();
    CODEC.get_or_init(|| SuiteCodec::new(crate::window::window_spec()))
}

thread_local! {
    /// Scratch view reused by every compiled decode on this thread.
    static SCRATCH: RefCell<FieldView> = RefCell::new(FieldView::new());
}

/// Runs `f` with the thread's scratch [`FieldView`] (zero-allocation
/// steady state for compiled decodes).
pub(crate) fn with_scratch_view<R>(f: impl FnOnce(&mut FieldView) -> R) -> R {
    SCRATCH.with(|view| f(&mut view.borrow_mut()))
}

/// Number of fields of both suite formats (`kind`, `seq`, `chk`,
/// `payload`), which sizes the stack value tables of the two encoders.
const SUITE_FIELDS: usize = 4;

/// Interpretive encode of one suite frame (`kind`, `seq`, `payload`)
/// into a caller-reused buffer (cleared first), by walking `spec` —
/// the interpreted twin of [`compiled_encode_into`] and the one body
/// behind every interpreted `ArqFrame`/`WindowFrame` encode. The values
/// sit in a stack table indexed by [`PacketSpec::field_index`], and the
/// walker writes straight into `out`, so a warm encode into a pooled
/// buffer allocates nothing.
pub(crate) fn interpreted_encode_into(
    spec: &PacketSpec,
    kind: u64,
    seq: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut fields = [FieldRef::Absent; SUITE_FIELDS];
    for (name, value) in [
        ("kind", FieldRef::Uint(kind)),
        ("seq", FieldRef::Uint(seq)),
        ("payload", FieldRef::Bytes(payload)),
    ] {
        let i = spec
            .field_index(name)
            .unwrap_or_else(|| panic!("suite spec {:?} has a {name} field", spec.name()));
        fields[i] = value;
    }
    spec.encode_fields_into(&fields, out)
        .expect("well-typed frame always encodes");
}

/// Compiled encode of one suite frame into a caller-reused buffer
/// (cleared first) — the body behind the pooled transmit path, where
/// `out` is an arena buffer. The values sit in a stack table indexed by
/// the codec's [`FieldIx`], so a warm encode allocates nothing.
pub(crate) fn compiled_encode_into(
    suite: &SuiteCodec,
    kind: u64,
    seq: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut fields = [FieldRef::Absent; SUITE_FIELDS];
    fields[usize::from(suite.kind)] = FieldRef::Uint(kind);
    fields[usize::from(suite.seq)] = FieldRef::Uint(seq);
    fields[usize::from(suite.payload)] = FieldRef::Bytes(payload);
    suite
        .codec()
        .encode_fields_into(&fields, out)
        .expect("well-typed frame always encodes");
}

/// Interpretive decode of one suite frame, returning `(kind, seq,
/// payload)` with the payload borrowed from `frame` — the interpreted
/// twin of [`compiled_decode`], through the walker's fully validating
/// [`PacketSpec::decode_with`].
///
/// # Errors
///
/// As for [`PacketSpec::decode`].
pub(crate) fn interpreted_decode<'f>(
    spec: &PacketSpec,
    frame: &'f [u8],
) -> Result<(u64, u64, &'f [u8]), netdsl_core::DslError> {
    spec.decode_with(frame, |fields| {
        Ok((
            fields.uint("kind")?,
            fields.uint("seq")?,
            fields.bytes("payload")?,
        ))
    })
}

/// Compiled zero-copy decode of one suite frame, returning
/// `(kind, seq, payload)` with the payload borrowed from `frame` — the
/// shared body behind `ArqFrame::decode_via` and
/// `WindowFrame::decode_via` (callers map the tuple onto their frame
/// enum and copy the payload only for data frames).
///
/// # Errors
///
/// As for [`netdsl_codec::CompiledCodec::decode_into`].
pub(crate) fn compiled_decode<'f>(
    suite: &SuiteCodec,
    frame: &'f [u8],
) -> Result<(u64, u64, &'f [u8]), netdsl_core::DslError> {
    with_scratch_view(|view| {
        suite.codec().decode_into(frame, view)?;
        Ok((
            view.uint(suite.kind),
            view.uint(suite.seq),
            view.bytes(frame, suite.payload),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::ArqFrame;
    use crate::window::WindowFrame;
    use netdsl_core::packet::Value;
    use netdsl_core::DslError;
    use netdsl_netsim::scenario::FramePath;
    use proptest::prelude::*;
    use std::fmt::Debug;

    const PATHS: [FramePath; 2] = [FramePath::Interpreted, FramePath::Compiled];

    #[test]
    fn cached_codecs_resolve_their_fields() {
        let arq = arq_codec();
        assert_eq!(arq.codec().name(), "arq");
        assert_eq!(usize::from(arq.kind), 0);
        assert_eq!(usize::from(arq.payload), 3);
        let win = window_codec();
        assert_eq!(win.codec().name(), "window");
        assert_eq!(win.codec().min_frame_len(), 1 + 4 + 2);
    }

    #[test]
    fn compiled_and_interpretive_suite_frames_are_byte_identical() {
        for (spec, suite) in [
            (crate::arq::arq_spec(), arq_codec()),
            (crate::window::window_spec(), window_codec()),
        ] {
            let mut v = spec.value();
            v.set("kind", Value::Uint(1));
            v.set("seq", Value::Uint(3));
            v.set("payload", Value::Bytes(b"payload".to_vec()));
            let interpretive = spec.encode(&v).unwrap();
            let compiled = suite.codec().encode_packet_value(&v).unwrap();
            assert_eq!(interpretive, compiled, "{}", spec.name());
        }
    }

    /// Whether both frame paths give `frame` the same verdict: both
    /// reject it, or both accept it as the same frame.
    fn paths_agree<F: PartialEq>(
        decode: fn(FramePath, &[u8]) -> Result<F, DslError>,
        frame: &[u8],
    ) -> bool {
        decode(FramePath::Interpreted, frame).ok() == decode(FramePath::Compiled, frame).ok()
    }

    /// Checks one format on `frames`: each `*_into` encoder (through
    /// `encode_into`), starting from a buffer holding `stale`, writes on
    /// both paths exactly the bytes a fresh compiled `encode_via` does;
    /// the frame decodes back to itself; and the paths agree on every
    /// single-bit flip and every truncation of it.
    fn check_format<F: PartialEq + Debug>(
        frames: &[F],
        stale: &[u8],
        encode_via: fn(&F, FramePath) -> Vec<u8>,
        encode_into: fn(&F, FramePath, &mut Vec<u8>),
        decode: fn(FramePath, &[u8]) -> Result<F, DslError>,
    ) -> Result<(), TestCaseError> {
        for frame in frames {
            let wire = encode_via(frame, FramePath::Compiled);
            for path in PATHS {
                let mut out = stale.to_vec();
                encode_into(frame, path, &mut out);
                prop_assert_eq!(&out, &wire, "{:?} *_into of {:?}", path, frame);
                prop_assert_eq!(
                    &encode_via(frame, path),
                    &wire,
                    "{:?} encode_via of {:?}",
                    path,
                    frame
                );
            }
            let decoded = decode(FramePath::Interpreted, &wire).ok();
            prop_assert_eq!(decoded.as_ref(), Some(frame));
            let mut flipped = wire.clone();
            for bit in 0..wire.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(
                    paths_agree(decode, &flipped),
                    "paths disagree with bit {} of {:?} flipped",
                    bit,
                    frame
                );
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            for len in 0..wire.len() {
                prop_assert!(
                    paths_agree(decode, &wire[..len]),
                    "paths disagree on {:?} truncated to {} bytes",
                    frame,
                    len
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn interpreted_suite_encoders_match_compiled_and_decode_verdicts_agree(
            arq_seq in prop_oneof![Just(0u8), Just(u8::MAX), any::<u8>()],
            window_seq in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            payload in prop_oneof![
                Just(Vec::new()),
                proptest::collection::vec(any::<u8>(), 0..=1500),
            ],
            stale in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            check_format(
                &[
                    ArqFrame::Data { seq: arq_seq, payload: payload.clone() },
                    ArqFrame::Ack { seq: arq_seq },
                ],
                &stale,
                ArqFrame::encode_via,
                |frame, path, out| match frame {
                    ArqFrame::Data { seq, payload } => {
                        ArqFrame::encode_data_into(path, *seq, payload, out)
                    }
                    ArqFrame::Ack { seq } => ArqFrame::encode_ack_into(path, *seq, out),
                },
                ArqFrame::decode_via,
            )?;
            check_format(
                &[
                    WindowFrame::Data { seq: window_seq, payload },
                    WindowFrame::Ack { seq: window_seq },
                ],
                &stale,
                WindowFrame::encode_via,
                |frame, path, out| match frame {
                    WindowFrame::Data { seq, payload } => {
                        WindowFrame::encode_data_into(path, *seq, payload, out)
                    }
                    WindowFrame::Ack { seq } => WindowFrame::encode_ack_into(path, *seq, out),
                },
                WindowFrame::decode_via,
            )?;
        }
    }
}
