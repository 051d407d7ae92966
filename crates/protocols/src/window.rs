//! Shared frame format and statistics for the sliding-window protocols.
//!
//! Go-Back-N and Selective Repeat share one wire format: a kind octet, a
//! 32-bit sequence number, a CRC-16 over the whole frame, and the
//! payload. As with ARQ, the checksum is part of the declarative
//! definition, so no unverified frame reaches window logic.

use std::sync::OnceLock;

use netdsl_core::packet::{Coverage, Len, PacketSpec};
use netdsl_core::DslError;
use netdsl_netsim::scenario::FramePath;
use netdsl_wire::checksum::ChecksumKind;

use crate::codec::{self, window_codec};
use crate::driver::Io;

/// Frame kind: payload-carrying.
pub const KIND_DATA: u64 = 1;
/// Frame kind: acknowledgement.
pub const KIND_ACK: u64 = 2;

/// The window-protocol frame spec, built and validated once for the
/// process:
///
/// ```text
/// kind:8  seq:32  chk:16(CRC-16 whole-frame)  payload:*
/// ```
///
/// Both frame paths hang off this one value: the walker runs it and
/// [`crate::codec::window_codec`] is lowered from it.
pub fn window_spec() -> &'static PacketSpec {
    static SPEC: OnceLock<PacketSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        PacketSpec::builder("window")
            .enumerated("kind", 8, &[KIND_DATA, KIND_ACK])
            .uint("seq", 32)
            .checksum("chk", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .expect("window spec is well-formed")
    })
}

/// A decoded, validated window-protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowFrame {
    /// Data packet `seq` with its payload.
    Data {
        /// Absolute sequence number.
        seq: u32,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// Acknowledgement. Go-Back-N reads it cumulatively ("everything up
    /// to and including `seq` received"); Selective Repeat individually.
    Ack {
        /// Acknowledged sequence number.
        seq: u32,
    },
}

impl WindowFrame {
    /// Encodes to wire bytes via the interpretive path — see
    /// [`WindowFrame::encode_via`] to select.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_via(FramePath::Interpreted)
    }

    /// Encodes to wire bytes through the selected frame path (the two
    /// paths are byte-identical).
    pub fn encode_via(&self, path: FramePath) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WindowFrame::Data { seq, payload } => {
                WindowFrame::encode_data_into(path, *seq, payload, &mut out)
            }
            WindowFrame::Ack { seq } => WindowFrame::encode_ack_into(path, *seq, &mut out),
        }
        out
    }

    /// Encodes a data frame for a **borrowed** payload into `out`
    /// (cleared first) — the pooled transmit path: no payload clone,
    /// and on the compiled path the frame is written straight into the
    /// caller's (arena) buffer.
    pub fn encode_data_into(path: FramePath, seq: u32, payload: &[u8], out: &mut Vec<u8>) {
        WindowFrame::encode_into(path, KIND_DATA, seq, payload, out);
    }

    /// Encodes an ack frame into `out` (cleared first); see
    /// [`WindowFrame::encode_data_into`].
    pub fn encode_ack_into(path: FramePath, seq: u32, out: &mut Vec<u8>) {
        WindowFrame::encode_into(path, KIND_ACK, seq, &[], out);
    }

    /// The one encode body behind [`WindowFrame::encode_via`] and the
    /// `*_into` encoders: both paths read the borrowed payload, and the
    /// interpreted one walks the process-wide [`window_spec`].
    fn encode_into(path: FramePath, kind: u64, seq: u32, payload: &[u8], out: &mut Vec<u8>) {
        let seq = u64::from(seq);
        match path {
            FramePath::Interpreted => {
                codec::interpreted_encode_into(window_spec(), kind, seq, payload, out)
            }
            FramePath::Compiled => {
                codec::compiled_encode_into(window_codec(), kind, seq, payload, out)
            }
        }
    }

    /// Decodes and validates wire bytes via the interpretive path — see
    /// [`WindowFrame::decode_via`] to select.
    ///
    /// # Errors
    ///
    /// Checksum failures, truncation, unknown kinds.
    pub fn decode(frame: &[u8]) -> Result<WindowFrame, DslError> {
        WindowFrame::decode_via(FramePath::Interpreted, frame)
    }

    /// Decodes and validates wire bytes through the selected frame path
    /// (verdict-equivalent; the compiled path decodes zero-copy).
    ///
    /// # Errors
    ///
    /// As for [`WindowFrame::decode`].
    pub fn decode_via(path: FramePath, frame: &[u8]) -> Result<WindowFrame, DslError> {
        let (kind, seq, payload) = match path {
            FramePath::Interpreted => codec::interpreted_decode(window_spec(), frame)?,
            FramePath::Compiled => codec::compiled_decode(window_codec(), frame)?,
        };
        let seq = seq as u32;
        match kind {
            KIND_DATA => Ok(WindowFrame::Data {
                seq,
                payload: payload.to_vec(),
            }),
            KIND_ACK => Ok(WindowFrame::Ack { seq }),
            other => Err(DslError::Wire(netdsl_wire::WireError::InvalidValue {
                field: "kind",
                value: other,
            })),
        }
    }
}

/// Transmits a data frame for `payload`, encoded straight into a
/// pooled arena buffer with the payload borrowed (no clone).
pub(crate) fn send_data(io: &mut Io<'_>, path: FramePath, seq: u32, payload: &[u8]) {
    io.send_with(|buf| WindowFrame::encode_data_into(path, seq, payload, buf));
}

/// Transmits an ack frame into a pooled arena buffer.
pub(crate) fn send_ack(io: &mut Io<'_>, path: FramePath, seq: u32) {
    io.send_with(|buf| WindowFrame::encode_ack_into(path, seq, buf));
}

/// Transfer statistics common to both window protocols.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Data frames transmitted (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Messages fully acknowledged.
    pub delivered: u64,
}

/// Outcome of a complete window-protocol transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Every message delivered in order, exactly once?
    pub success: bool,
    /// Virtual ticks consumed.
    pub elapsed: u64,
    /// Sender statistics.
    pub stats: WindowStats,
    /// What the receiver delivered.
    pub delivered: Vec<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let d = WindowFrame::Data {
            seq: 0xDEAD_BEEF,
            payload: vec![1, 2, 3],
        };
        assert_eq!(WindowFrame::decode(&d.encode()).unwrap(), d);
        let a = WindowFrame::Ack { seq: 42 };
        assert_eq!(WindowFrame::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn corruption_rejected() {
        let wire = WindowFrame::Data {
            seq: 7,
            payload: vec![9; 16],
        }
        .encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(WindowFrame::decode(&bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn ack_frames_are_seven_bytes() {
        assert_eq!(WindowFrame::Ack { seq: 0 }.encode().len(), 1 + 4 + 2);
    }
}
