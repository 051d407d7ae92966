//! A TFTP-like block file-transfer protocol (application layer).
//!
//! Demonstrates the DSL one layer up from transport (the paper's §1.2
//! explicitly includes application-layer protocols in scope): a file is
//! cut into fixed-size blocks, each block stop-and-wait acknowledged by
//! block number, and a short final block marks end-of-file — RFC 1350's
//! structure, with a CRC added (real TFTP leans on UDP's checksum, which
//! our frames don't have underneath them).

use std::sync::OnceLock;

use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl_core::DslError;
use netdsl_netsim::{LinkConfig, TimerToken};
use netdsl_wire::checksum::ChecksumKind;

use crate::driver::{Duplex, Endpoint, Io};

/// Opcode: data block.
pub const OP_DATA: u64 = 3;
/// Opcode: acknowledgement.
pub const OP_ACK: u64 = 4;

/// Maximum payload per block (RFC 1350's 512).
pub const BLOCK_SIZE: usize = 512;

/// The TFTP frame spec, `opcode:16 block:16 chk:16 data:*`, built and
/// validated once for the process.
pub fn tftp_spec() -> &'static PacketSpec {
    static SPEC: OnceLock<PacketSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        PacketSpec::builder("tftp")
            .enumerated("opcode", 16, &[OP_DATA, OP_ACK])
            .uint("block", 16)
            .checksum("chk", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .bytes("data", Len::Rest)
            .build()
            .expect("tftp spec is well-formed")
    })
}

/// A decoded, validated TFTP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TftpFrame {
    /// Data block `block` (1-based, as in RFC 1350).
    Data {
        /// Block number.
        block: u16,
        /// Up to [`BLOCK_SIZE`] bytes; fewer means end of file.
        data: Vec<u8>,
    },
    /// Acknowledgement of `block`.
    Ack {
        /// Block number being acknowledged.
        block: u16,
    },
}

impl TftpFrame {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let spec = tftp_spec();
        let mut v = spec.value();
        match self {
            TftpFrame::Data { block, data } => {
                v.set("opcode", Value::Uint(OP_DATA));
                v.set("block", Value::Uint(u64::from(*block)));
                v.set("data", Value::Bytes(data.clone()));
            }
            TftpFrame::Ack { block } => {
                v.set("opcode", Value::Uint(OP_ACK));
                v.set("block", Value::Uint(u64::from(*block)));
                v.set("data", Value::Bytes(Vec::new()));
            }
        }
        spec.encode(&v).expect("well-typed frame encodes")
    }

    /// Decodes and validates wire bytes.
    ///
    /// # Errors
    ///
    /// Checksum failure, truncation, unknown opcode.
    pub fn decode(frame: &[u8]) -> Result<TftpFrame, DslError> {
        let spec = tftp_spec();
        let checked = spec.decode(frame)?;
        let block = checked.uint("block")? as u16;
        match checked.uint("opcode")? {
            OP_DATA => Ok(TftpFrame::Data {
                block,
                data: checked.bytes("data")?.to_vec(),
            }),
            OP_ACK => Ok(TftpFrame::Ack { block }),
            other => Err(DslError::Wire(netdsl_wire::WireError::InvalidValue {
                field: "opcode",
                value: other,
            })),
        }
    }
}

/// Sending side of a file transfer.
#[derive(Debug)]
pub struct TftpSender {
    blocks: Vec<Vec<u8>>,
    /// Index of the block currently in flight (0-based; wire is 1-based).
    current: usize,
    timeout: u64,
    max_retries: u32,
    retries: u32,
    attempt: u64,
    done: bool,
    failed: bool,
    /// Frames sent including retransmissions.
    pub frames_sent: u64,
}

impl TftpSender {
    /// Cuts `file` into blocks and prepares the transfer. A file whose
    /// size is an exact multiple of [`BLOCK_SIZE`] gets a trailing empty
    /// block, per RFC 1350 semantics.
    pub fn new(file: &[u8], timeout: u64, max_retries: u32) -> Self {
        let mut blocks: Vec<Vec<u8>> = file.chunks(BLOCK_SIZE).map(<[u8]>::to_vec).collect();
        if file.is_empty() || file.len().is_multiple_of(BLOCK_SIZE) {
            blocks.push(Vec::new());
        }
        TftpSender {
            blocks,
            current: 0,
            timeout,
            max_retries,
            retries: 0,
            attempt: 0,
            done: false,
            failed: false,
            frames_sent: 0,
        }
    }

    /// `true` if the whole file was acknowledged.
    pub fn succeeded(&self) -> bool {
        self.done && !self.failed
    }

    fn send_current(&mut self, io: &mut Io<'_>) {
        let frame = TftpFrame::Data {
            block: (self.current + 1) as u16,
            data: self.blocks[self.current].clone(),
        }
        .encode();
        io.send(frame);
        self.frames_sent += 1;
        self.attempt += 1;
        io.set_timer(self.timeout, self.attempt);
    }
}

impl Endpoint for TftpSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.send_current(io);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        if self.done || self.failed {
            return;
        }
        let Ok(TftpFrame::Ack { block }) = TftpFrame::decode(frame) else {
            return;
        };
        if block as usize == self.current + 1 {
            io.cancel_timer(self.attempt);
            self.retries = 0;
            self.current += 1;
            if self.current >= self.blocks.len() {
                self.done = true;
            } else {
                self.send_current(io);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt || self.done || self.failed {
            return;
        }
        self.retries += 1;
        if self.retries > self.max_retries {
            self.failed = true;
            return;
        }
        self.send_current(io);
    }

    fn done(&self) -> bool {
        self.done || self.failed
    }
}

/// Receiving side of a file transfer.
#[derive(Debug, Default)]
pub struct TftpReceiver {
    expected: u16,
    file: Vec<u8>,
    complete: bool,
}

impl TftpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        TftpReceiver {
            expected: 1,
            ..TftpReceiver::default()
        }
    }

    /// The reassembled file (meaningful once [`TftpReceiver::complete`]).
    pub fn file(&self) -> &[u8] {
        &self.file
    }

    /// `true` once the short final block arrived.
    pub fn complete(&self) -> bool {
        self.complete
    }
}

impl Endpoint for TftpReceiver {
    fn start(&mut self, _io: &mut Io<'_>) {}

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        let Ok(TftpFrame::Data { block, data }) = TftpFrame::decode(frame) else {
            return;
        };
        if block == self.expected {
            io.send(TftpFrame::Ack { block }.encode());
            self.file.extend_from_slice(&data);
            if data.len() < BLOCK_SIZE {
                self.complete = true;
            }
            self.expected += 1;
        } else if block + 1 == self.expected {
            // Duplicate of the previous block: re-ack, don't re-append.
            io.send(TftpFrame::Ack { block }.encode());
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {}

    fn done(&self) -> bool {
        self.complete
    }
}

/// Result of [`send_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileOutcome {
    /// Whole file delivered intact?
    pub success: bool,
    /// Ticks consumed.
    pub elapsed: u64,
    /// Data frames sent (with retransmissions).
    pub frames_sent: u64,
    /// The received bytes.
    pub received: Vec<u8>,
}

/// Transfers `file` over a link; the complete quickstart-level API.
pub fn send_file(
    file: &[u8],
    config: LinkConfig,
    seed: u64,
    timeout: u64,
    max_retries: u32,
    deadline: u64,
) -> FileOutcome {
    let mut duplex = Duplex::new(
        seed,
        config,
        TftpSender::new(file, timeout, max_retries),
        TftpReceiver::new(),
    );
    let elapsed = duplex.run(deadline);
    let received = duplex.b().file().to_vec();
    FileOutcome {
        success: duplex.a().succeeded() && duplex.b().complete() && received == file,
        elapsed,
        frames_sent: duplex.a().frames_sent,
        received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn frame_roundtrip() {
        let f = TftpFrame::Data {
            block: 3,
            data: vec![1, 2, 3],
        };
        assert_eq!(TftpFrame::decode(&f.encode()).unwrap(), f);
        let a = TftpFrame::Ack { block: 3 };
        assert_eq!(TftpFrame::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn multi_block_file_reassembles() {
        let data = file(1500); // 3 blocks: 512+512+476
        let out = send_file(&data, LinkConfig::reliable(2), 1, 50, 5, 1_000_000);
        assert!(out.success);
        assert_eq!(out.received, data);
        assert_eq!(out.frames_sent, 3);
    }

    #[test]
    fn exact_multiple_gets_empty_terminator() {
        let data = file(1024); // exactly 2 blocks → 3 frames
        let out = send_file(&data, LinkConfig::reliable(2), 1, 50, 5, 1_000_000);
        assert!(out.success);
        assert_eq!(out.frames_sent, 3, "two full blocks plus empty terminator");
    }

    #[test]
    fn empty_file_transfers() {
        let out = send_file(&[], LinkConfig::reliable(2), 1, 50, 5, 1_000_000);
        assert!(out.success);
        assert_eq!(out.received, Vec::<u8>::new());
        assert_eq!(out.frames_sent, 1);
    }

    #[test]
    fn lossy_link_recovers() {
        let data = file(3000);
        let out = send_file(&data, LinkConfig::lossy(2, 0.25), 7, 60, 30, 10_000_000);
        assert!(out.success);
        assert_eq!(out.received, data);
        assert!(out.frames_sent > 7, "losses must have forced retries");
    }

    #[test]
    fn duplicating_link_does_not_duplicate_file_content() {
        let data = file(1200);
        let out = send_file(
            &data,
            LinkConfig::reliable(2).with_duplicate(0.6),
            3,
            60,
            10,
            10_000_000,
        );
        assert!(out.success);
        assert_eq!(out.received.len(), data.len(), "no double-appended blocks");
    }

    #[test]
    fn corrupting_link_recovers_via_crc() {
        let data = file(2000);
        let out = send_file(
            &data,
            LinkConfig::reliable(2).with_corrupt(0.2),
            5,
            60,
            40,
            10_000_000,
        );
        assert!(out.success);
        assert_eq!(out.received, data, "CRC keeps corrupt blocks out");
    }

    #[test]
    fn dead_link_gives_up() {
        let out = send_file(&file(100), LinkConfig::lossy(1, 1.0), 1, 20, 3, 1_000_000);
        assert!(!out.success);
    }
}
