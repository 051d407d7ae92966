//! RFC 768 UDP header as a declarative spec.
//!
//! Demonstrates the `Prefixed` length idiom: the UDP `length` field
//! counts header *plus* payload, so the payload's size on decode is
//! `length − 8` — a semantic relationship the spec states once and both
//! codec directions honour automatically.
//!
//! The checksum here covers the UDP header and payload only (the RFC's
//! pseudo-header involves the enclosing IP layer; composing the two specs
//! is done in [`checksum_with_pseudo_header`] for completeness).

use std::sync::OnceLock;

use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl_core::DslError;
use netdsl_wire::checksum::{internet_checksum, ChecksumKind};

/// The UDP datagram spec, built and validated once for the process.
pub fn udp_spec() -> &'static PacketSpec {
    static SPEC: OnceLock<PacketSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        PacketSpec::builder("udp")
            .uint("source_port", 16)
            .uint("dest_port", 16)
            .length("length", 16, Coverage::Whole)
            .checksum("checksum", ChecksumKind::Internet, Coverage::Whole)
            .bytes(
                "payload",
                Len::Prefixed {
                    field: "length".into(),
                    unit: 1,
                    bias: -8,
                },
            )
            .build()
            .expect("udp spec is well-formed")
    })
}

/// A typed UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub source_port: u16,
    /// Destination port.
    pub dest_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Encodes via the spec (length and checksum computed).
    ///
    /// # Errors
    ///
    /// [`DslError::Wire`] if the payload exceeds the 16-bit length space.
    pub fn encode(&self) -> Result<Vec<u8>, DslError> {
        let spec = udp_spec();
        let mut v = spec.value();
        v.set("source_port", Value::Uint(u64::from(self.source_port)));
        v.set("dest_port", Value::Uint(u64::from(self.dest_port)));
        v.set("payload", Value::Bytes(self.payload.clone()));
        spec.encode(&v)
    }

    /// Decodes and validates via the spec.
    ///
    /// # Errors
    ///
    /// Length/checksum mismatches and truncation.
    pub fn decode(frame: &[u8]) -> Result<UdpDatagram, DslError> {
        let spec = udp_spec();
        let checked = spec.decode(frame)?;
        Ok(UdpDatagram {
            source_port: checked.uint("source_port")? as u16,
            dest_port: checked.uint("dest_port")? as u16,
            payload: checked.bytes("payload")?.to_vec(),
        })
    }
}

/// RFC-faithful checksum including the IPv4 pseudo-header, computed over
/// an already-encoded UDP frame. Provided for interoperability checks;
/// the in-workspace protocols use the spec's self-contained checksum.
pub fn checksum_with_pseudo_header(udp_frame: &[u8], src: u32, dst: u32) -> u16 {
    let mut input = Vec::with_capacity(12 + udp_frame.len());
    input.extend_from_slice(&src.to_be_bytes());
    input.extend_from_slice(&dst.to_be_bytes());
    input.push(0);
    input.push(17); // protocol = UDP
    input.extend_from_slice(&(udp_frame.len() as u16).to_be_bytes());
    // Frame with its checksum field zeroed.
    input.extend_from_slice(&udp_frame[..6]);
    input.extend_from_slice(&[0, 0]);
    input.extend_from_slice(&udp_frame[8..]);
    internet_checksum(&input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_computed_length() {
        let d = UdpDatagram {
            source_port: 12345,
            dest_port: 53,
            payload: b"dns query".to_vec(),
        };
        let wire = d.encode().unwrap();
        assert_eq!(wire.len(), 8 + 9);
        assert_eq!(
            u16::from_be_bytes([wire[4], wire[5]]),
            17,
            "length = 8 + payload"
        );
        assert_eq!(UdpDatagram::decode(&wire).unwrap(), d);
    }

    #[test]
    fn lying_length_field_rejected() {
        let d = UdpDatagram {
            source_port: 1,
            dest_port: 2,
            payload: vec![0; 4],
        };
        let mut wire = d.encode().unwrap();
        wire[5] = wire[5].wrapping_sub(1); // shrink declared length
        assert!(UdpDatagram::decode(&wire).is_err());
    }

    #[test]
    fn corrupt_payload_rejected() {
        let d = UdpDatagram {
            source_port: 1,
            dest_port: 2,
            payload: b"payload".to_vec(),
        };
        let mut wire = d.encode().unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(UdpDatagram::decode(&wire).is_err());
    }

    #[test]
    fn empty_payload_is_eight_bytes() {
        let d = UdpDatagram {
            source_port: 9,
            dest_port: 9,
            payload: vec![],
        };
        let wire = d.encode().unwrap();
        assert_eq!(wire.len(), 8);
        assert_eq!(UdpDatagram::decode(&wire).unwrap(), d);
    }

    #[test]
    fn pseudo_header_checksum_changes_with_addresses() {
        let wire = UdpDatagram {
            source_port: 1,
            dest_port: 2,
            payload: b"x".to_vec(),
        }
        .encode()
        .unwrap();
        let a = checksum_with_pseudo_header(&wire, 0x0A00_0001, 0x0A00_0002);
        let b = checksum_with_pseudo_header(&wire, 0x0A00_0001, 0x0A00_0003);
        assert_ne!(a, b, "pseudo-header binds the addresses");
    }
}
