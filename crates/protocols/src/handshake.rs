//! A three-way connection handshake as a reified, model-checkable spec.
//!
//! This is the "control-plane element" protocol of the paper's scope
//! (§1.2): a TCP-style connection life cycle. The definition is a single
//! reified [`Spec`] — the *same value* is executed by the runtime
//! endpoints below and exhaustively verified by `netdsl-verify` (see
//! experiment E5), which is precisely the model-equals-implementation
//! property §3.3 argues for.

use std::sync::OnceLock;

use netdsl_core::fsm::Spec;
use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl_core::DslError;
use netdsl_netsim::TimerToken;
use netdsl_wire::checksum::ChecksumKind;

use crate::driver::{Endpoint, Io};

/// Builds the connection state machine (a pruned TCP diagram).
pub fn handshake_spec() -> Spec {
    Spec::builder("handshake")
        .state("Closed")
        .state("Listen")
        .state("SynSent")
        .state("SynRcvd")
        .state("Established")
        .state("FinWait")
        .state("CloseWait")
        .state("LastAck")
        .state("TimeWait")
        .terminal("Done")
        .event("ACTIVE_OPEN")
        .event("PASSIVE_OPEN")
        .event("RECV_SYN")
        .event("RECV_SYNACK")
        .event("RECV_ACK")
        .event("RECV_FIN")
        .event("CLOSE")
        .event("TIMEOUT")
        .transition("Closed", "ACTIVE_OPEN", "SynSent")
        .transition("Closed", "PASSIVE_OPEN", "Listen")
        .transition("Listen", "RECV_SYN", "SynRcvd")
        .transition("SynSent", "RECV_SYNACK", "Established")
        .transition("SynSent", "TIMEOUT", "Closed")
        .transition("SynRcvd", "RECV_ACK", "Established")
        .transition("SynRcvd", "TIMEOUT", "Listen")
        .transition("Established", "CLOSE", "FinWait")
        .transition("Established", "RECV_FIN", "CloseWait")
        .transition("FinWait", "RECV_ACK", "TimeWait")
        .transition("FinWait", "RECV_FIN", "TimeWait")
        .transition("CloseWait", "CLOSE", "LastAck")
        .transition("LastAck", "RECV_ACK", "Done")
        .transition("TimeWait", "TIMEOUT", "Done")
        .build()
        .expect("handshake spec is well-formed")
}

/// Control-segment flags, one bit each (SYN/ACK/FIN), as in TCP.
pub const FLAG_SYN: u64 = 0b100;
/// ACK flag bit.
pub const FLAG_ACK: u64 = 0b010;
/// FIN flag bit.
pub const FLAG_FIN: u64 = 0b001;

/// The control-segment spec (3 flag bits, 13 reserved, a 32-bit
/// sequence number, CRC-16 over the whole segment), built and validated
/// once for the process.
pub fn segment_spec() -> &'static PacketSpec {
    static SPEC: OnceLock<PacketSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        PacketSpec::builder("hs-segment")
            .uint("flags", 3)
            .constant("reserved", 13, 0)
            .uint("seq", 32)
            .checksum("chk", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .expect("segment spec is well-formed")
    })
}

/// Encodes a control segment.
pub fn encode_segment(flags: u64, seq: u32) -> Vec<u8> {
    let spec = segment_spec();
    let mut v = spec.value();
    v.set("flags", Value::Uint(flags));
    v.set("seq", Value::Uint(u64::from(seq)));
    v.set("payload", Value::Bytes(Vec::new()));
    spec.encode(&v).expect("well-typed segment encodes")
}

/// Decodes and validates a control segment into `(flags, seq)`.
///
/// # Errors
///
/// Checksum or reserved-bits violations, truncation.
pub fn decode_segment(frame: &[u8]) -> Result<(u64, u32), DslError> {
    let spec = segment_spec();
    let checked = spec.decode(frame)?;
    Ok((checked.uint("flags")?, checked.uint("seq")? as u32))
}

/// One handshake endpoint, driven by the **reified spec itself**: every
/// state change goes through [`netdsl_core::fsm::Machine::apply`], so an
/// event the spec does not allow is refused at runtime exactly where the
/// model checker proved it cannot occur.
#[derive(Debug)]
pub struct HandshakePeer {
    spec: Spec,
    /// Current state name (mirrors the machine; kept for cheap access).
    state: String,
    active: bool,
    isn: u32,
    /// Events applied, for post-run inspection.
    pub history: Vec<String>,
}

impl HandshakePeer {
    /// An actively-opening peer (client).
    pub fn client(isn: u32) -> Self {
        HandshakePeer {
            spec: handshake_spec(),
            state: "Closed".into(),
            active: true,
            isn,
            history: Vec::new(),
        }
    }

    /// A passively-opening peer (server).
    pub fn server(isn: u32) -> Self {
        HandshakePeer {
            spec: handshake_spec(),
            state: "Closed".into(),
            active: false,
            isn,
            history: Vec::new(),
        }
    }

    /// Current state name.
    pub fn state(&self) -> &str {
        &self.state
    }

    /// `true` once the connection is established.
    pub fn established(&self) -> bool {
        self.state == "Established"
    }

    fn apply(&mut self, event: &str) -> bool {
        // Re-run the machine from history: the spec is tiny, and this
        // keeps HandshakePeer borrow-free. (Production code would hold a
        // Machine; see netdsl_core::exec::Driver.)
        let mut m = netdsl_core::fsm::Machine::new(&self.spec);
        for e in &self.history {
            m.apply_named(e).expect("history is replayable");
        }
        match m.apply_named(event) {
            Ok(to) => {
                self.history.push(event.to_string());
                self.state = self.spec.state_name(to).to_string();
                true
            }
            Err(_) => false,
        }
    }
}

impl Endpoint for HandshakePeer {
    fn start(&mut self, io: &mut Io<'_>) {
        if self.active {
            assert!(self.apply("ACTIVE_OPEN"));
            io.send(encode_segment(FLAG_SYN, self.isn));
        } else {
            assert!(self.apply("PASSIVE_OPEN"));
        }
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        let Ok((flags, seq)) = decode_segment(frame) else {
            return; // corrupt segments never reach the machine
        };
        if flags & FLAG_SYN != 0 && flags & FLAG_ACK != 0 {
            if self.apply("RECV_SYNACK") {
                io.send(encode_segment(FLAG_ACK, seq + 1));
            }
        } else if flags & FLAG_SYN != 0 {
            if self.apply("RECV_SYN") {
                io.send(encode_segment(FLAG_SYN | FLAG_ACK, self.isn));
            }
        } else if flags & FLAG_ACK != 0 {
            self.apply("RECV_ACK");
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {
        self.apply("TIMEOUT");
    }

    fn done(&self) -> bool {
        self.established()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Duplex;
    use netdsl_netsim::LinkConfig;

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let mut d = Duplex::new(
            1,
            LinkConfig::reliable(3),
            HandshakePeer::client(1000),
            HandshakePeer::server(9000),
        );
        d.run(1000);
        assert!(d.a().established(), "client: {:?}", d.a().history);
        assert!(d.b().established(), "server: {:?}", d.b().history);
        assert_eq!(
            d.a().history,
            vec!["ACTIVE_OPEN", "RECV_SYNACK"],
            "client path"
        );
        assert_eq!(
            d.b().history,
            vec!["PASSIVE_OPEN", "RECV_SYN", "RECV_ACK"],
            "server path"
        );
    }

    #[test]
    fn corrupting_link_cannot_establish_with_garbage() {
        // 100% corruption: no valid segment ever arrives, nobody moves
        // beyond their opening state, and crucially nothing panics.
        let mut d = Duplex::new(
            2,
            LinkConfig::reliable(3).with_corrupt(1.0),
            HandshakePeer::client(1),
            HandshakePeer::server(2),
        );
        d.run(1000);
        assert!(!d.a().established());
        assert!(!d.b().established());
        assert_eq!(d.a().state(), "SynSent");
        assert_eq!(d.b().state(), "Listen");
    }

    #[test]
    fn duplicate_syn_is_refused_by_the_machine() {
        let mut d = Duplex::new(
            3,
            LinkConfig::reliable(2).with_duplicate(1.0),
            HandshakePeer::client(5),
            HandshakePeer::server(6),
        );
        d.run(1000);
        // Every segment arrives twice; the spec has no RECV_SYN edge out
        // of SynRcvd, so the duplicate is refused and the handshake still
        // converges.
        assert!(d.a().established());
        assert!(d.b().established());
    }

    #[test]
    fn segment_codec_roundtrip_and_reserved_bits() {
        let wire = encode_segment(FLAG_SYN | FLAG_ACK, 777);
        let (flags, seq) = decode_segment(&wire).unwrap();
        assert_eq!(flags, FLAG_SYN | FLAG_ACK);
        assert_eq!(seq, 777);
        // Setting a reserved bit breaks the Const constraint.
        let mut bad = wire.clone();
        bad[1] |= 0x01;
        assert!(decode_segment(&bad).is_err());
    }

    #[test]
    fn spec_is_verified_clean_by_the_model_checker() {
        use netdsl_verify::props::check_spec;
        use netdsl_verify::Limits;
        let report = check_spec(&handshake_spec(), Limits::default());
        assert_eq!(report.states, 10);
        assert!(report.all_hold(), "{report:?}");
    }
}
