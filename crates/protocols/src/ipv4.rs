//! The RFC 791 IPv4 header — the paper's Figure 1 — as a declarative spec.
//!
//! The paper reproduces the classic ASCII picture of this header as the
//! canonical example of how formats are specified today (§2.1). Here the
//! same header is a [`PacketSpec`]: the picture is *generated from* the
//! spec ([`PacketSpec::ascii_art`]), the version field is a checked
//! constant, IHL is a computed word-count, Total Length is computed over
//! the whole datagram, and the header checksum is declared rather than
//! hand-rolled — every semantic constraint the ASCII picture leaves to
//! prose.
//!
//! A hand-written codec ([`encode_manual`] / [`decode_manual`]) with the
//! identical wire behaviour is included as the experiment E1 baseline.

use std::sync::OnceLock;

use netdsl_core::packet::{Coverage, Len, PacketSpec, PacketValue, Value};
use netdsl_core::witness::Checked;
use netdsl_core::DslError;
use netdsl_wire::checksum::{internet_checksum, ChecksumKind};
use netdsl_wire::WireError;

/// Names of the IPv4 header fields, in wire order (no options; IHL = 5).
pub const HEADER_FIELDS: [&str; 13] = [
    "version",
    "ihl",
    "tos",
    "total_length",
    "identification",
    "flags",
    "fragment_offset",
    "ttl",
    "protocol",
    "header_checksum",
    "source",
    "destination",
    "payload",
];

/// The RFC 791 header spec (without options, so IHL is the
/// constant-by-computation value 5), built and validated once for the
/// process.
pub fn ipv4_spec() -> &'static PacketSpec {
    static SPEC: OnceLock<PacketSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let header: Vec<String> = HEADER_FIELDS[..12].iter().map(|s| s.to_string()).collect();
        PacketSpec::builder("ipv4")
            .constant("version", 4, 4)
            .length_scaled("ihl", 4, Coverage::Fields(header.clone()), 4, 0)
            .uint("tos", 8)
            .length("total_length", 16, Coverage::Whole)
            .uint("identification", 16)
            .uint("flags", 3)
            .uint("fragment_offset", 13)
            .uint("ttl", 8)
            .uint("protocol", 8)
            .checksum(
                "header_checksum",
                ChecksumKind::Internet,
                Coverage::Fields(header),
            )
            .uint("source", 32)
            .uint("destination", 32)
            .bytes("payload", Len::Rest)
            .build()
            .expect("ipv4 spec is well-formed")
    })
}

/// A typed IPv4 datagram (header fields + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Type of service / DSCP+ECN octet.
    pub tos: u8,
    /// Identification for fragmentation.
    pub identification: u16,
    /// The three flag bits (`0b010` = DF).
    pub flags: u8,
    /// Fragment offset in 8-byte units.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number (6 = TCP, 17 = UDP, …).
    pub protocol: u8,
    /// Source address.
    pub source: u32,
    /// Destination address.
    pub destination: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Encodes via the declarative spec (version, IHL, total length and
    /// checksum are all computed by the definition).
    ///
    /// # Errors
    ///
    /// [`DslError::Wire`] if a field value overflows its width (e.g.
    /// `flags > 7`).
    pub fn encode(&self) -> Result<Vec<u8>, DslError> {
        let spec = ipv4_spec();
        let mut v = spec.value();
        v.set("tos", Value::Uint(u64::from(self.tos)));
        v.set(
            "identification",
            Value::Uint(u64::from(self.identification)),
        );
        v.set("flags", Value::Uint(u64::from(self.flags)));
        v.set(
            "fragment_offset",
            Value::Uint(u64::from(self.fragment_offset)),
        );
        v.set("ttl", Value::Uint(u64::from(self.ttl)));
        v.set("protocol", Value::Uint(u64::from(self.protocol)));
        v.set("source", Value::Uint(u64::from(self.source)));
        v.set("destination", Value::Uint(u64::from(self.destination)));
        v.set("payload", Value::Bytes(self.payload.clone()));
        spec.encode(&v)
    }

    /// Decodes and validates via the declarative spec.
    ///
    /// # Errors
    ///
    /// Any declarative-validation failure: bad version constant, IHL or
    /// total-length mismatch, header-checksum failure, truncation.
    pub fn decode(frame: &[u8]) -> Result<Ipv4Packet, DslError> {
        let spec = ipv4_spec();
        let checked: Checked<PacketValue> = spec.decode(frame)?;
        Ok(Ipv4Packet {
            tos: checked.uint("tos")? as u8,
            identification: checked.uint("identification")? as u16,
            flags: checked.uint("flags")? as u8,
            fragment_offset: checked.uint("fragment_offset")? as u16,
            ttl: checked.uint("ttl")? as u8,
            protocol: checked.uint("protocol")? as u8,
            source: checked.uint("source")? as u32,
            destination: checked.uint("destination")? as u32,
            payload: checked.bytes("payload")?.to_vec(),
        })
    }
}

/// Hand-rolled encoder with identical wire behaviour — the E1 baseline.
/// Every length/checksum computation the spec derives automatically is
/// manual here.
pub fn encode_manual(p: &Ipv4Packet) -> Result<Vec<u8>, WireError> {
    if p.flags > 0x7 {
        return Err(WireError::ValueOverflow {
            value: u64::from(p.flags),
            width: 3,
        });
    }
    if p.fragment_offset > 0x1FFF {
        return Err(WireError::ValueOverflow {
            value: u64::from(p.fragment_offset),
            width: 13,
        });
    }
    let total_len = 20 + p.payload.len();
    if total_len > 0xFFFF {
        return Err(WireError::ValueOverflow {
            value: total_len as u64,
            width: 16,
        });
    }
    let mut out = Vec::with_capacity(total_len);
    out.push(0x45); // version 4, IHL 5
    out.push(p.tos);
    out.extend_from_slice(&(total_len as u16).to_be_bytes());
    out.extend_from_slice(&p.identification.to_be_bytes());
    let flags_frag = (u16::from(p.flags) << 13) | p.fragment_offset;
    out.extend_from_slice(&flags_frag.to_be_bytes());
    out.push(p.ttl);
    out.push(p.protocol);
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&p.source.to_be_bytes());
    out.extend_from_slice(&p.destination.to_be_bytes());
    let ck = internet_checksum(&out[..20]);
    out[10..12].copy_from_slice(&ck.to_be_bytes());
    out.extend_from_slice(&p.payload);
    Ok(out)
}

/// Hand-rolled decoder matching [`encode_manual`] — the E1 baseline.
pub fn decode_manual(frame: &[u8]) -> Result<Ipv4Packet, WireError> {
    if frame.len() < 20 {
        return Err(WireError::UnexpectedEnd {
            requested: 160,
            available: frame.len() * 8,
        });
    }
    let version = frame[0] >> 4;
    if version != 4 {
        return Err(WireError::InvalidValue {
            field: "version",
            value: u64::from(version),
        });
    }
    let ihl = frame[0] & 0xF;
    if ihl != 5 {
        return Err(WireError::InvalidValue {
            field: "ihl",
            value: u64::from(ihl),
        });
    }
    let total_len = u16::from_be_bytes([frame[2], frame[3]]) as usize;
    if total_len != frame.len() {
        return Err(WireError::LengthMismatch {
            declared: total_len,
            actual: frame.len(),
        });
    }
    // Header checksum: sum over the header with the field in place must
    // be 0xFFFF (ones'-complement property).
    let sum = netdsl_wire::checksum::ones_complement_sum(&frame[..20]);
    if sum != 0xFFFF {
        return Err(WireError::ChecksumMismatch {
            expected: u64::from(u16::from_be_bytes([frame[10], frame[11]])),
            computed: u64::from(!sum),
        });
    }
    let flags_frag = u16::from_be_bytes([frame[6], frame[7]]);
    Ok(Ipv4Packet {
        tos: frame[1],
        identification: u16::from_be_bytes([frame[4], frame[5]]),
        flags: (flags_frag >> 13) as u8,
        fragment_offset: flags_frag & 0x1FFF,
        ttl: frame[8],
        protocol: frame[9],
        source: u32::from_be_bytes([frame[12], frame[13], frame[14], frame[15]]),
        destination: u32::from_be_bytes([frame[16], frame[17], frame[18], frame[19]]),
        payload: frame[20..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet {
            tos: 0,
            identification: 0x1c46,
            flags: 0b010,
            fragment_offset: 0,
            ttl: 64,
            protocol: 6,
            source: 0xC0A8_0001,      // 192.168.0.1
            destination: 0xC0A8_00C7, // 192.168.0.199
            payload: b"TCP goes here".to_vec(),
        }
    }

    #[test]
    fn declarative_roundtrip() {
        let p = sample();
        let wire = p.encode().unwrap();
        assert_eq!(wire[0], 0x45, "version 4, IHL 5 — both computed");
        assert_eq!(
            u16::from_be_bytes([wire[2], wire[3]]) as usize,
            wire.len(),
            "total length computed over the whole datagram"
        );
        assert_eq!(Ipv4Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn declarative_and_manual_codecs_agree_exactly() {
        let p = sample();
        assert_eq!(p.encode().unwrap(), encode_manual(&p).unwrap());
        let wire = p.encode().unwrap();
        assert_eq!(decode_manual(&wire).unwrap(), p);
    }

    #[test]
    fn header_checksum_verifies_like_a_router_would() {
        let wire = sample().encode().unwrap();
        // Receiver-side check: ones'-complement sum of the header with
        // the checksum in place equals 0xFFFF.
        assert_eq!(
            netdsl_wire::checksum::ones_complement_sum(&wire[..20]),
            0xFFFF
        );
    }

    #[test]
    fn corrupted_header_rejected_by_both_codecs() {
        let mut wire = sample().encode().unwrap();
        wire[8] = wire[8].wrapping_add(1); // TTL changed without checksum fix
        assert!(Ipv4Packet::decode(&wire).is_err());
        assert!(decode_manual(&wire).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = sample().encode().unwrap();
        wire[0] = 0x65; // version 6
                        // (checksum now also wrong; fix it so the version check is what fires)
        wire[10] = 0;
        wire[11] = 0;
        let ck = internet_checksum(&[&wire[..10], &[0, 0], &wire[12..20]].concat());
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        let err = Ipv4Packet::decode(&wire).unwrap_err();
        assert!(
            matches!(err, DslError::ConstMismatch { ref field, .. } if field == "version"),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_and_lying_lengths_rejected() {
        let wire = sample().encode().unwrap();
        assert!(Ipv4Packet::decode(&wire[..10]).is_err());
        let mut lying = wire.clone();
        lying.pop(); // total_length now exceeds the frame
        assert!(Ipv4Packet::decode(&lying).is_err());
        assert!(decode_manual(&lying).is_err());
    }

    #[test]
    fn field_overflow_rejected_on_encode() {
        let mut p = sample();
        p.flags = 0x8;
        assert!(p.encode().is_err());
        assert!(encode_manual(&p).is_err());
    }

    #[test]
    fn ascii_art_matches_figure_1_shape() {
        let art = ipv4_spec().ascii_art();
        // The generated picture carries the field names of RFC 791.
        for name in ["version", "ihl", "tos", "total_length", "ttl", "protocol"] {
            assert!(art.contains(name), "missing {name} in:\n{art}");
        }
        // Five full 32-bit header rows plus the payload row.
        let rows = art.lines().filter(|l| l.starts_with('|')).count();
        assert_eq!(rows, 6);
    }

    #[test]
    fn empty_payload_is_a_bare_header() {
        let mut p = sample();
        p.payload.clear();
        let wire = p.encode().unwrap();
        assert_eq!(wire.len(), 20);
        assert_eq!(Ipv4Packet::decode(&wire).unwrap(), p);
    }
}
