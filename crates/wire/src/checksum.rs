//! Checksum and CRC algorithms used by protocol definitions.
//!
//! The paper's ARQ example (§3.4) hinges on a `check : Byte → List Byte →
//! Byte` function whose result is embedded in the packet and verified on
//! receipt; [`arq_check`] is that function. The remaining algorithms are the
//! ones real header formats use and that the packet DSL exposes as
//! [`ChecksumKind`] field transforms:
//!
//! * [`internet_checksum`] — RFC 1071 ones'-complement sum (IPv4, UDP, TCP);
//! * [`fletcher16`] / [`fletcher32`] — position-sensitive sums (OSI TP4);
//! * [`adler32`] — zlib's checksum;
//! * [`crc16_ccitt`] / [`crc32_ieee`] — table-driven CRCs (HDLC, Ethernet).

/// Identifies a checksum algorithm in a declarative packet description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ChecksumKind {
    /// The paper's single-byte ARQ checksum ([`arq_check`]).
    Arq,
    /// RFC 1071 16-bit ones'-complement Internet checksum.
    Internet,
    /// Fletcher-16.
    Fletcher16,
    /// Fletcher-32.
    Fletcher32,
    /// Adler-32.
    Adler32,
    /// CRC-16/CCITT (polynomial 0x1021, init 0xFFFF).
    Crc16Ccitt,
    /// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
    Crc32Ieee,
}

impl ChecksumKind {
    /// Width of the checksum value in bits.
    pub fn width_bits(self) -> usize {
        match self {
            ChecksumKind::Arq => 8,
            ChecksumKind::Internet | ChecksumKind::Fletcher16 | ChecksumKind::Crc16Ccitt => 16,
            ChecksumKind::Fletcher32 | ChecksumKind::Adler32 | ChecksumKind::Crc32Ieee => 32,
        }
    }

    /// Computes this checksum over `data`, widened to `u64`.
    pub fn compute(self, data: &[u8]) -> u64 {
        match self {
            ChecksumKind::Arq => u64::from(arq_check(0, data)),
            ChecksumKind::Internet => u64::from(internet_checksum(data)),
            ChecksumKind::Fletcher16 => u64::from(fletcher16(data)),
            ChecksumKind::Fletcher32 => u64::from(fletcher32(data)),
            ChecksumKind::Adler32 => u64::from(adler32(data)),
            ChecksumKind::Crc16Ccitt => u64::from(crc16_ccitt(data)),
            ChecksumKind::Crc32Ieee => u64::from(crc32_ieee(data)),
        }
    }
}

/// Incremental state for any [`ChecksumKind`], fed byte runs in order.
///
/// Produces exactly the value [`ChecksumKind::compute`] yields over the
/// concatenation of everything fed to [`ChecksumEngine::update`] /
/// [`ChecksumEngine::update_zeros`] — including the word-pairing
/// algorithms ([`ChecksumKind::Internet`], [`ChecksumKind::Fletcher32`]),
/// which carry an odd pending byte across run boundaries. This is what
/// lets the compiled codec engine checksum a frame's covered ranges
/// (with the checksum field's own bytes zeroed) without assembling an
/// intermediate buffer.
///
/// ```
/// use netdsl_wire::checksum::{ChecksumEngine, ChecksumKind};
/// let kind = ChecksumKind::Crc32Ieee;
/// let mut e = ChecksumEngine::new(kind);
/// e.update(b"123");
/// e.update(b"456789");
/// assert_eq!(e.finish(), kind.compute(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct ChecksumEngine {
    kind: ChecksumKind,
    /// Accumulators `a`/`b` (meaning depends on the algorithm).
    a: u32,
    b: u32,
    /// High byte of an incomplete 16-bit word, for word-paired sums.
    pending: Option<u8>,
}

impl ChecksumEngine {
    /// Fresh state for `kind` (equivalent to having fed no bytes).
    pub fn new(kind: ChecksumKind) -> Self {
        let (a, b) = match kind {
            ChecksumKind::Adler32 => (1, 0),
            ChecksumKind::Crc16Ccitt => (0xFFFF, 0),
            ChecksumKind::Crc32Ieee => (0xFFFF_FFFF, 0),
            _ => (0, 0),
        };
        ChecksumEngine {
            kind,
            a,
            b,
            pending: None,
        }
    }

    /// Feeds one byte run.
    ///
    /// The dispatch on [`ChecksumKind`] is hoisted out of the byte loop
    /// and the additive algorithms defer their modular reductions to
    /// block boundaries (a standard Fletcher/Adler optimisation that
    /// leaves every result bit-identical — residue arithmetic commutes
    /// with deferred folding); the CRCs run table-driven. Checksumming
    /// is the single largest per-frame cost in a protocol simulation,
    /// so this loop is what campaign throughput (E13) mostly buys.
    pub fn update(&mut self, data: &[u8]) {
        match self.kind {
            ChecksumKind::Arq => {
                // Ones'-complement byte sum: accumulate raw in u32 and
                // fold once per block instead of once per byte.
                let mut sum = self.a;
                for block in data.chunks(1 << 16) {
                    sum += block.iter().map(|&b| u32::from(b)).sum::<u32>();
                    while sum > 0xFF {
                        sum = (sum & 0xFF) + (sum >> 8);
                    }
                }
                self.a = sum;
            }
            ChecksumKind::Internet => {
                let mut data = data;
                if let Some(hi) = self.pending.take() {
                    if let [first, rest @ ..] = data {
                        self.a += u32::from(u16::from_be_bytes([hi, *first]));
                        // Fold here as the reference path does: a long
                        // stream of single-byte updates never reaches
                        // the block loop's fold below, and an unfolded
                        // accumulator would eventually overflow.
                        if self.a >= 0xFFFF_0000 {
                            self.a = (self.a & 0xFFFF) + (self.a >> 16);
                        }
                        data = rest;
                    } else {
                        self.pending = Some(hi);
                        return;
                    }
                }
                // ≤ 32768 words per block keeps the u32 accumulator from
                // overflowing; folding early leaves the final folded sum
                // unchanged (end-around-carry is associative).
                for block in data.chunks(1 << 16) {
                    let mut words = block.chunks_exact(2);
                    for w in &mut words {
                        self.a += u32::from(u16::from_be_bytes([w[0], w[1]]));
                    }
                    self.a = (self.a & 0xFFFF) + (self.a >> 16);
                    if let [last] = words.remainder() {
                        self.pending = Some(*last);
                    }
                }
            }
            ChecksumKind::Fletcher16 => {
                // Block-deferred modulo: with a, b < 255 on entry, 2048
                // bytes grow b by at most 255·2048² ≪ 2³², so one pair
                // of reductions per block suffices.
                for block in data.chunks(2048) {
                    for &byte in block {
                        self.a += u32::from(byte);
                        self.b += self.a;
                    }
                    self.a %= 255;
                    self.b %= 255;
                }
            }
            ChecksumKind::Fletcher32 => {
                let mut data = data;
                if let Some(hi) = self.pending.take() {
                    if let [first, rest @ ..] = data {
                        let w = u32::from(u16::from_be_bytes([hi, *first]));
                        self.a = (self.a + w) % 65535;
                        self.b = (self.b + self.a) % 65535;
                        data = rest;
                    } else {
                        self.pending = Some(hi);
                        return;
                    }
                }
                // 128 words per block bounds b below u32 overflow.
                for block in data.chunks(256) {
                    let mut words = block.chunks_exact(2);
                    for w in &mut words {
                        self.a += u32::from(u16::from_be_bytes([w[0], w[1]]));
                        self.b += self.a;
                    }
                    self.a %= 65535;
                    self.b %= 65535;
                    if let [last] = words.remainder() {
                        self.pending = Some(*last);
                    }
                }
            }
            ChecksumKind::Adler32 => {
                const MOD: u32 = 65521;
                // zlib's NMAX: the longest run that cannot overflow u32
                // between reductions.
                for block in data.chunks(5552) {
                    for &byte in block {
                        self.a += u32::from(byte);
                        self.b += self.a;
                    }
                    self.a %= MOD;
                    self.b %= MOD;
                }
            }
            ChecksumKind::Crc16Ccitt => {
                self.a = u32::from(crc16_update(self.a as u16, data));
            }
            ChecksumKind::Crc32Ieee => {
                let table = crc32_table();
                for &byte in data {
                    self.a = table[usize::from((self.a as u8) ^ byte)] ^ (self.a >> 8);
                }
            }
        }
    }

    /// Feeds `n` zero bytes (the codec engine's "own field zeroed" rule)
    /// without materialising a zero buffer. The additive algorithms use
    /// their closed forms (zero bytes leave `a` fixed and advance `b`
    /// by `n·a`); the CRCs stream a static zero block.
    pub fn update_zeros(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match self.kind {
            ChecksumKind::Arq => {}
            ChecksumKind::Internet => {
                // Only the pairing alignment matters: a dangling high
                // byte pairs with the first zero, zero words add
                // nothing, and an odd leftover zero becomes pending.
                let mut n = n;
                if let Some(hi) = self.pending.take() {
                    self.a += u32::from(u16::from_be_bytes([hi, 0]));
                    if self.a >= 0xFFFF_0000 {
                        self.a = (self.a & 0xFFFF) + (self.a >> 16);
                    }
                    n -= 1;
                }
                if n % 2 == 1 {
                    self.pending = Some(0);
                }
            }
            ChecksumKind::Fletcher16 => {
                self.b = (self.b + (n as u32 % 255) * self.a) % 255;
            }
            ChecksumKind::Fletcher32 => {
                let mut n = n;
                if let Some(hi) = self.pending.take() {
                    let w = u32::from(u16::from_be_bytes([hi, 0]));
                    self.a = (self.a + w) % 65535;
                    self.b = (self.b + self.a) % 65535;
                    n -= 1;
                }
                let words = (n / 2) as u64;
                self.b = ((u64::from(self.b) + words % 65535 * u64::from(self.a)) % 65535) as u32;
                if n % 2 == 1 {
                    self.pending = Some(0);
                }
            }
            ChecksumKind::Adler32 => {
                const MOD: u64 = 65521;
                self.b = ((u64::from(self.b) + n as u64 % MOD * u64::from(self.a)) % MOD) as u32;
            }
            ChecksumKind::Crc16Ccitt | ChecksumKind::Crc32Ieee => {
                const ZEROS: [u8; 256] = [0; 256];
                let mut left = n;
                while left > 0 {
                    let take = left.min(ZEROS.len());
                    self.update(&ZEROS[..take]);
                    left -= take;
                }
            }
        }
    }

    /// Finalises (padding any odd trailing byte with zero, as the
    /// one-shot functions do) and returns the checksum widened to `u64`.
    pub fn finish(mut self) -> u64 {
        if let Some(hi) = self.pending.take() {
            // Word-paired sums zero-pad the dangling byte.
            match self.kind {
                ChecksumKind::Internet => {
                    self.a += u32::from(u16::from_be_bytes([hi, 0]));
                }
                ChecksumKind::Fletcher32 => {
                    let w = u32::from(u16::from_be_bytes([hi, 0]));
                    self.a = (self.a + w) % 65535;
                    self.b = (self.b + self.a) % 65535;
                }
                _ => unreachable!("only word-paired kinds buffer a byte"),
            }
        }
        match self.kind {
            ChecksumKind::Arq => {
                let mut sum = self.a;
                sum = (sum & 0xFF) + (sum >> 8);
                u64::from(!(sum as u8))
            }
            ChecksumKind::Internet => {
                let mut sum = self.a;
                while sum >> 16 != 0 {
                    sum = (sum & 0xFFFF) + (sum >> 16);
                }
                u64::from(!(sum as u16))
            }
            ChecksumKind::Fletcher16 => u64::from(((self.b as u16) << 8) | self.a as u16),
            ChecksumKind::Fletcher32 => u64::from((self.b << 16) | self.a),
            ChecksumKind::Adler32 => u64::from((self.b << 16) | self.a),
            ChecksumKind::Crc16Ccitt => u64::from(self.a as u16),
            ChecksumKind::Crc32Ieee => u64::from(!self.a),
        }
    }
}

/// The paper's ARQ checksum: `check seq data`, a single byte combining the
/// sequence number and payload.
///
/// Defined as the ones'-complement of the byte-wise ones'-complement sum of
/// the sequence number and every payload byte, so single-bit errors and
/// byte reorderings with carry effects are detected while staying cheap
/// enough for the worked example.
pub fn arq_check(seq: u8, data: &[u8]) -> u8 {
    // Deferred end-around-carry: sum raw (bounded per block), fold at
    // block boundaries — identical to folding per byte, because the
    // ones'-complement fold preserves the residue and its canonical
    // nonzero representative.
    let mut sum: u32 = u32::from(seq);
    for block in data.chunks(1 << 16) {
        sum += block.iter().map(|&b| u32::from(b)).sum::<u32>();
        while sum > 0xFF {
            sum = (sum & 0xFF) + (sum >> 8);
        }
    }
    !(sum as u8)
}

/// Verifies the paper's ARQ checksum.
pub fn arq_verify(seq: u8, data: &[u8], carried: u8) -> bool {
    arq_check(seq, data) == carried
}

/// RFC 1071 Internet checksum over `data` (odd trailing byte zero-padded).
///
/// Returns the ones'-complement of the ones'-complement 16-bit sum, i.e.
/// the value actually placed in IPv4/UDP/TCP checksum fields.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// The 16-bit ones'-complement sum *without* the final complement.
///
/// Exposed separately because incremental-update tricks (RFC 1624) and
/// pseudo-header folding need the raw sum.
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        // Early end-around-carry fold: inputs beyond ~128 KiB would
        // otherwise overflow the accumulator; folding early leaves the
        // final folded sum unchanged.
        if sum >= 0xFFFF_0000 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// Fletcher-16 checksum (modulo 255).
pub fn fletcher16(data: &[u8]) -> u16 {
    let (mut a, mut b): (u16, u16) = (0, 0);
    for &byte in data {
        a = (a + u16::from(byte)) % 255;
        b = (b + a) % 255;
    }
    (b << 8) | a
}

/// Fletcher-32 checksum over 16-bit words (odd trailing byte zero-padded).
pub fn fletcher32(data: &[u8]) -> u32 {
    let (mut a, mut b): (u32, u32) = (0, 0);
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        let w = u32::from(u16::from_be_bytes([c[0], c[1]]));
        a = (a + w) % 65535;
        b = (b + a) % 65535;
    }
    if let [last] = chunks.remainder() {
        let w = u32::from(u16::from_be_bytes([*last, 0]));
        a = (a + w) % 65535;
        b = (b + a) % 65535;
    }
    (b << 16) | a
}

/// Adler-32 checksum as used by zlib (RFC 1950).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let (mut a, mut b): (u32, u32) = (1, 0);
    for &byte in data {
        a = (a + u32::from(byte)) % MOD;
        b = (b + a) % MOD;
    }
    (b << 16) | a
}

/// The CRC-16/CCITT slicing tables (non-reflected, polynomial 0x1021),
/// built at first use — shared by the one-shot [`crc16_ccitt`] and the
/// streaming [`ChecksumEngine`]. `TABLES[k][v]` is the raw (zero-state)
/// CRC of byte `v` followed by `k` zero bytes, which is what lets eight
/// input bytes be processed per iteration: by linearity over GF(2) the
/// running state folds into the first two bytes and the rest index
/// independent tables (classic slicing-by-N). CRC-16 runs over every
/// sliding-window frame, so this loop is a first-order term in campaign
/// throughput (E13); the bitwise reference
/// ([`crc16_ccitt_bitwise`]) is kept and proptest-pinned equal.
fn crc16_tables() -> &'static [[u16; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u16; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u16; 256]; 8];
        for (v, entry) in t[0].iter_mut().enumerate() {
            let mut crc = (v as u16) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (v, entry) in rest[0].iter_mut().enumerate() {
                let prev = done[k - 1][v];
                *entry = (prev << 8) ^ done[0][usize::from((prev >> 8) as u8)];
            }
        }
        t
    })
}

/// One slicing step over up to 8 bytes plus the byte-at-a-time tail.
fn crc16_update(mut crc: u16, data: &[u8]) -> u16 {
    let t = crc16_tables();
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = t[7][usize::from(c[0] ^ (crc >> 8) as u8)]
            ^ t[6][usize::from(c[1] ^ (crc & 0xFF) as u8)]
            ^ t[5][usize::from(c[2])]
            ^ t[4][usize::from(c[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc << 8) ^ t[0][usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// CRC-16/CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF, no
/// reflection, no final XOR. Table-driven (slicing-by-8).
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    crc16_update(0xFFFF, data)
}

/// Bit-by-bit CRC-16/CCITT-FALSE reference implementation, kept as the
/// oracle the table-driven [`crc16_ccitt`] is property-tested against.
pub fn crc16_ccitt_bitwise(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The reflected CRC-32 lookup table, built at first use (shared by the
/// one-shot [`crc32_ieee`] and the streaming [`ChecksumEngine`]).
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    })
}

/// CRC-32 (IEEE 802.3): reflected polynomial 0xEDB88320, init and final
/// XOR 0xFFFFFFFF. Table-driven, table built at first use.
pub fn crc32_ieee(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc = table[usize::from((crc as u8) ^ byte)] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CHECK_STR: &[u8] = b"123456789";

    impl ChecksumEngine {
        /// One byte through the reference (pre-optimisation) path: a match
        /// on the kind per byte, bitwise CRCs, per-byte modular reductions
        /// — the engine exactly as originally written, kept as the oracle
        /// the fast path's equivalence proptest pins against.
        fn push_reference(&mut self, byte: u8) {
            match self.kind {
                ChecksumKind::Arq => {
                    let mut sum = self.a + u32::from(byte);
                    sum = (sum & 0xFF) + (sum >> 8);
                    self.a = sum;
                }
                ChecksumKind::Internet => match self.pending.take() {
                    Some(hi) => {
                        self.a += u32::from(u16::from_be_bytes([hi, byte]));
                        if self.a >= 0xFFFF_0000 {
                            self.a = (self.a & 0xFFFF) + (self.a >> 16);
                        }
                    }
                    None => self.pending = Some(byte),
                },
                ChecksumKind::Fletcher16 => {
                    self.a = (self.a + u32::from(byte)) % 255;
                    self.b = (self.b + self.a) % 255;
                }
                ChecksumKind::Fletcher32 => match self.pending.take() {
                    Some(hi) => {
                        let w = u32::from(u16::from_be_bytes([hi, byte]));
                        self.a = (self.a + w) % 65535;
                        self.b = (self.b + self.a) % 65535;
                    }
                    None => self.pending = Some(byte),
                },
                ChecksumKind::Adler32 => {
                    const MOD: u32 = 65521;
                    self.a = (self.a + u32::from(byte)) % MOD;
                    self.b = (self.b + self.a) % MOD;
                }
                ChecksumKind::Crc16Ccitt => {
                    let mut crc = self.a as u16;
                    crc ^= u16::from(byte) << 8;
                    for _ in 0..8 {
                        crc = if crc & 0x8000 != 0 {
                            (crc << 1) ^ 0x1021
                        } else {
                            crc << 1
                        };
                    }
                    self.a = u32::from(crc);
                }
                ChecksumKind::Crc32Ieee => {
                    self.a = crc32_table()[usize::from((self.a as u8) ^ byte)] ^ (self.a >> 8);
                }
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32_ieee(CHECK_STR), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b""), 0);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE check value.
        assert_eq!(crc16_ccitt(CHECK_STR), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn adler32_known_vector() {
        // Adler-32 of "Wikipedia" per the published example.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn fletcher16_known_vectors() {
        assert_eq!(fletcher16(b"abcde"), 0xC8F0);
        assert_eq!(fletcher16(b"abcdef"), 0x2057);
        assert_eq!(fletcher16(b"abcdefgh"), 0x0627);
    }

    #[test]
    fn internet_checksum_rfc1071_example() {
        // The worked example from RFC 1071 §3: words 0x0001 0xf203 0xf4f5
        // 0xf6f7 sum to 0xddf2 before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn internet_checksum_odd_length_pads() {
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn verifying_frame_with_embedded_internet_checksum_yields_zero_sum() {
        // Classic receiver check: sum over data + checksum = 0xFFFF.
        let data = [0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let ck = internet_checksum(&data);
        let mut frame = data.to_vec();
        frame.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(ones_complement_sum(&frame), 0xFFFF);
    }

    #[test]
    fn arq_check_detects_seq_and_payload_changes() {
        let c = arq_check(7, b"hello");
        assert!(arq_verify(7, b"hello", c));
        assert!(!arq_verify(8, b"hello", c));
        assert!(!arq_verify(7, b"hellp", c));
    }

    #[test]
    fn checksum_kind_widths_match_algorithms() {
        assert_eq!(ChecksumKind::Arq.width_bits(), 8);
        assert_eq!(ChecksumKind::Internet.width_bits(), 16);
        assert_eq!(ChecksumKind::Fletcher16.width_bits(), 16);
        assert_eq!(ChecksumKind::Crc16Ccitt.width_bits(), 16);
        assert_eq!(ChecksumKind::Fletcher32.width_bits(), 32);
        assert_eq!(ChecksumKind::Adler32.width_bits(), 32);
        assert_eq!(ChecksumKind::Crc32Ieee.width_bits(), 32);
    }

    #[test]
    fn checksum_kind_compute_fits_declared_width() {
        let kinds = [
            ChecksumKind::Arq,
            ChecksumKind::Internet,
            ChecksumKind::Fletcher16,
            ChecksumKind::Fletcher32,
            ChecksumKind::Adler32,
            ChecksumKind::Crc16Ccitt,
            ChecksumKind::Crc32Ieee,
        ];
        for k in kinds {
            let v = k.compute(CHECK_STR);
            let w = k.width_bits();
            assert!(
                w == 64 || v >> w == 0,
                "{k:?} produced over-wide value {v:#x}"
            );
        }
    }

    const ALL_KINDS: [ChecksumKind; 7] = [
        ChecksumKind::Arq,
        ChecksumKind::Internet,
        ChecksumKind::Fletcher16,
        ChecksumKind::Fletcher32,
        ChecksumKind::Adler32,
        ChecksumKind::Crc16Ccitt,
        ChecksumKind::Crc32Ieee,
    ];

    #[test]
    fn internet_engine_survives_long_single_byte_streams() {
        // Regression: every odd-aligned single-byte update merges the
        // pending byte outside the block loop, so the fold must happen
        // at the merge — 200k bytes of 0xFF would otherwise overflow
        // the accumulator (debug panic / silent wrap in release).
        let n = 200_001;
        let mut e = ChecksumEngine::new(ChecksumKind::Internet);
        for _ in 0..n {
            e.update(&[0xFF]);
        }
        assert_eq!(
            e.finish(),
            ChecksumKind::Internet.compute(&vec![0xFF; n]),
            "byte-at-a-time streaming equals one-shot"
        );
    }

    #[test]
    fn engine_matches_one_shot_on_empty_input() {
        for kind in ALL_KINDS {
            assert_eq!(
                ChecksumEngine::new(kind).finish(),
                kind.compute(b""),
                "{kind:?} empty"
            );
        }
    }

    #[test]
    fn engine_update_zeros_equals_feeding_zero_bytes() {
        for kind in ALL_KINDS {
            let mut by_run = ChecksumEngine::new(kind);
            by_run.update(b"ab");
            by_run.update_zeros(3);
            by_run.update(b"c");
            assert_eq!(
                by_run.finish(),
                kind.compute(b"ab\0\0\0c"),
                "{kind:?} zeros"
            );
        }
    }

    proptest! {
        /// Streaming over arbitrary run boundaries equals the one-shot
        /// computation over the concatenation — the law the compiled
        /// codec's allocation-free checksum path rests on.
        #[test]
        fn engine_matches_one_shot_across_splits(
            data in proptest::collection::vec(any::<u8>(), 0..96),
            cut_a in 0usize..96,
            cut_b in 0usize..96,
        ) {
            let cut_a = cut_a % (data.len() + 1);
            let cut_b = cut_b % (data.len() + 1);
            let (lo, hi) = (cut_a.min(cut_b), cut_a.max(cut_b));
            for kind in ALL_KINDS {
                let mut e = ChecksumEngine::new(kind);
                e.update(&data[..lo]);
                e.update(&data[lo..hi]);
                e.update(&data[hi..]);
                prop_assert_eq!(e.finish(), kind.compute(&data), "{:?}", kind);
            }
        }

        /// The table-driven CRC-16 equals the bitwise reference on
        /// arbitrary input (the table is an optimisation, not a new
        /// algorithm).
        #[test]
        fn crc16_table_matches_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assert_eq!(crc16_ccitt(&data), crc16_ccitt_bitwise(&data));
        }

        /// The sliced/deferred-reduction fast path of the streaming
        /// engine equals its byte-at-a-time reference implementation
        /// over arbitrary run/zero-run interleavings.
        #[test]
        fn engine_fast_path_matches_reference_path(
            runs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..48), 0usize..9),
                0..6,
            ),
        ) {
            for kind in ALL_KINDS {
                let mut fast = ChecksumEngine::new(kind);
                for (data, zeros) in &runs {
                    fast.update(data);
                    fast.update_zeros(*zeros);
                }
                let mut reference = ChecksumEngine::new(kind);
                for &byte in runs
                    .iter()
                    .flat_map(|(data, zeros)| data.iter().chain(std::iter::repeat_n(&0, *zeros)))
                {
                    reference.push_reference(byte);
                }
                prop_assert_eq!(fast.finish(), reference.finish(), "{:?}", kind);
            }
        }

        /// Single-bit flips are always detected by every algorithm.
        #[test]
        fn single_bit_flip_detected(
            data in proptest::collection::vec(any::<u8>(), 1..128),
            byte_idx in 0usize..128,
            bit in 0u8..8,
        ) {
            let byte_idx = byte_idx % data.len();
            let mut corrupt = data.clone();
            corrupt[byte_idx] ^= 1 << bit;
            prop_assert_ne!(crc32_ieee(&data), crc32_ieee(&corrupt));
            prop_assert_ne!(crc16_ccitt(&data), crc16_ccitt(&corrupt));
            prop_assert_ne!(internet_checksum(&data), internet_checksum(&corrupt));
        }

        /// The ARQ verify function accepts exactly what check produced.
        #[test]
        fn arq_check_verify_inverse(seq in any::<u8>(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let c = arq_check(seq, &data);
            prop_assert!(arq_verify(seq, &data, c));
        }

        /// Ones'-complement sum is byte-order-stable under 16-bit word
        /// swaps: reordering whole words leaves the sum unchanged
        /// (documented weakness of the Internet checksum that CRCs fix).
        #[test]
        fn internet_sum_word_reorder_invariant(words in proptest::collection::vec(any::<u16>(), 1..32)) {
            let mut bytes = Vec::new();
            for w in &words {
                bytes.extend_from_slice(&w.to_be_bytes());
            }
            let mut rev = words.clone();
            rev.reverse();
            let mut rev_bytes = Vec::new();
            for w in &rev {
                rev_bytes.extend_from_slice(&w.to_be_bytes());
            }
            prop_assert_eq!(internet_checksum(&bytes), internet_checksum(&rev_bytes));
        }

        /// Fletcher, by contrast, is position sensitive: verify it detects
        /// a swap of two different adjacent words.
        #[test]
        fn fletcher_detects_word_swap(a in any::<u16>(), b in any::<u16>()) {
            prop_assume!(a != b);
            let mut fwd = Vec::new();
            fwd.extend_from_slice(&a.to_be_bytes());
            fwd.extend_from_slice(&b.to_be_bytes());
            let mut rev = Vec::new();
            rev.extend_from_slice(&b.to_be_bytes());
            rev.extend_from_slice(&a.to_be_bytes());
            // Fletcher-32 over distinct word pairs differs unless the words
            // are congruent mod 65535 (e.g. 0x0000 vs 0xFFFF).
            prop_assume!(a % 0xFFFF != b % 0xFFFF);
            prop_assert_ne!(fletcher32(&fwd), fletcher32(&rev));
        }
    }
}
