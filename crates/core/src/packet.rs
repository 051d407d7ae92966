//! Declarative, bit-granular packet descriptions with semantic constraints.
//!
//! A [`PacketSpec`] is the DSL's answer to the paper's item (i): it
//! describes the on-the-wire layout *and* the semantic constraints that
//! purely syntactic notations (ASCII pictures, ABNF, ASN.1 — §2.1 of the
//! paper) cannot express:
//!
//! * [`FieldKind::Const`] — fields that must hold a fixed value (version
//!   numbers, magic bytes);
//! * [`FieldKind::Length`] — fields computed from the sizes of other
//!   fields, auto-filled on encode and *verified* on decode;
//! * [`FieldKind::Checksum`] — checksums over declared coverage, likewise
//!   auto-filled and verified.
//!
//! Because `decode` verifies every constraint before returning, its result
//! is wrapped in a [`Checked`] witness: downstream code can consume packet
//! contents with **no further validation**, which is the paper's
//! `ChkPacket` argument (§3.3: "when a packet has been validated once, it
//! never needs to be validated again").
//!
//! One interpretive walker runs every spec. It resolves each field's span
//! and value into per-thread scratch tables indexed by declaration order,
//! so a warm walk allocates nothing. Hot callers use its borrowed entry
//! points: [`PacketSpec::decode_with`] hands a validated [`FrameFields`]
//! view to a closure, and [`PacketSpec::encode_fields_into`] encodes a
//! [`FieldRef`] slice into a reused buffer. The by-name
//! [`PacketValue`] front door ([`PacketSpec::decode`],
//! [`PacketSpec::encode`]) runs the same walk and copies values in or
//! out.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use netdsl_wire::checksum::ChecksumKind;
use netdsl_wire::{BitReader, BitWriter};

use crate::error::DslError;
use crate::witness::Checked;

/// A value carried by one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer (any field up to 64 bits).
    Uint(u64),
    /// A raw byte string.
    Bytes(Vec<u8>),
}

impl Value {
    /// The integer inside, if this is a `Uint`.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            Value::Bytes(_) => None,
        }
    }

    /// The bytes inside, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            Value::Uint(_) => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Uint(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Self {
        Value::Bytes(b.to_vec())
    }
}

/// How the size of a [`FieldKind::Bytes`] field is determined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Len {
    /// Always exactly this many bytes.
    Fixed(usize),
    /// Derived from an earlier integer field:
    /// `byte_len = value(field) * unit + bias`.
    ///
    /// Example: a UDP-style payload whose `length` field counts header and
    /// payload together uses `unit: 1, bias: -8`.
    Prefixed {
        /// Name of the earlier integer field carrying the length.
        field: String,
        /// Multiplier applied to the field value.
        unit: i64,
        /// Constant added after scaling (may be negative).
        bias: i64,
    },
    /// Everything remaining in the frame. Must be the final field.
    Rest,
}

/// Which bytes of the encoded frame a computed field covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// The whole frame (with the computing field itself zeroed, for
    /// checksums).
    Whole,
    /// The byte extent of the named fields (sub-byte fields cover their
    /// containing bytes; for checksums the checksum field's own bytes are
    /// zeroed if they fall inside the region).
    Fields(Vec<String>),
}

/// The kind (and constraints) of one field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldKind {
    /// A plain unsigned integer of the given bit width.
    Uint {
        /// Width in bits (1..=64).
        bits: usize,
    },
    /// An integer that must always equal `value` (verified on decode,
    /// auto-filled on encode).
    Const {
        /// Width in bits.
        bits: usize,
        /// The required value.
        value: u64,
    },
    /// An integer restricted to an enumerated set (protocol opcodes,
    /// message kinds). Membership is verified on decode **and** encode,
    /// so ill-kinded frames can be neither produced nor consumed.
    Enum {
        /// Width in bits.
        bits: usize,
        /// The allowed values.
        allowed: Vec<u64>,
    },
    /// An integer computed from the byte length of its coverage:
    /// `value = covered_bytes / unit + bias`. Auto-filled on encode,
    /// verified on decode.
    Length {
        /// Width in bits.
        bits: usize,
        /// Coverage whose byte length is measured.
        coverage: Coverage,
        /// Divisor (e.g. 4 for IPv4's IHL). Must be ≥ 1.
        unit: u64,
        /// Constant added after division.
        bias: i64,
    },
    /// A checksum over `coverage`, computed with `kind`. Auto-filled on
    /// encode, verified on decode.
    Checksum {
        /// The checksum algorithm.
        kind: ChecksumKind,
        /// Bytes covered.
        coverage: Coverage,
    },
    /// A raw byte string sized per `len`.
    Bytes {
        /// How many bytes this field spans.
        len: Len,
    },
}

impl FieldKind {
    /// Fixed bit width, or `None` for variable-size (`Bytes`) fields.
    pub fn fixed_bits(&self) -> Option<usize> {
        match self {
            FieldKind::Uint { bits }
            | FieldKind::Const { bits, .. }
            | FieldKind::Enum { bits, .. }
            | FieldKind::Length { bits, .. } => Some(*bits),
            FieldKind::Checksum { kind, .. } => Some(kind.width_bits()),
            FieldKind::Bytes { .. } => None,
        }
    }
}

/// One named field of a packet.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field name, unique within the spec.
    pub name: String,
    /// Kind and constraints.
    pub kind: FieldKind,
}

/// A set of field values keyed by name; the unit that [`PacketSpec`]
/// encodes and decodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketValue {
    fields: BTreeMap<String, Value>,
}

impl PacketValue {
    /// Creates an empty value set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field.
    pub fn set(&mut self, name: &str, value: Value) -> &mut Self {
        self.fields.insert(name.to_string(), value);
        self
    }

    /// Gets a field value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }

    /// Gets an integer field.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] / [`DslError::WrongKind`].
    pub fn uint(&self, name: &str) -> Result<u64, DslError> {
        self.field_ref(name).uint(name)
    }

    /// Gets a byte-string field.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] / [`DslError::WrongKind`].
    pub fn bytes(&self, name: &str) -> Result<&[u8], DslError> {
        self.field_ref(name).bytes(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    fn field_ref(&self, name: &str) -> FieldRef<'_> {
        self.fields
            .get(name)
            .map_or(FieldRef::Absent, FieldRef::from)
    }
}

/// One borrowed field value, the unit of
/// [`PacketSpec::encode_fields_into`]: a slice of these lists a frame's
/// values in declaration order ([`PacketSpec::field_index`]), so no
/// name is looked up per frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FieldRef<'a> {
    /// No value supplied — what computed fields (`Const`, `Length`,
    /// `Checksum`) are normally given; supplied values for them are
    /// ignored.
    #[default]
    Absent,
    /// An unsigned integer.
    Uint(u64),
    /// A borrowed byte string.
    Bytes(&'a [u8]),
}

impl<'a> FieldRef<'a> {
    /// The integer inside, as the value of field `field`.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] for `Absent`, [`DslError::WrongKind`]
    /// for `Bytes`, both naming `field`.
    pub fn uint(self, field: &str) -> Result<u64, DslError> {
        match self {
            FieldRef::Uint(v) => Ok(v),
            FieldRef::Bytes(_) => Err(DslError::WrongKind {
                field: field.to_string(),
            }),
            FieldRef::Absent => Err(DslError::MissingField {
                field: field.to_string(),
            }),
        }
    }

    /// The bytes inside, as the value of field `field`.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] for `Absent`, [`DslError::WrongKind`]
    /// for `Uint`, both naming `field`.
    pub fn bytes(self, field: &str) -> Result<&'a [u8], DslError> {
        match self {
            FieldRef::Bytes(b) => Ok(b),
            FieldRef::Uint(_) => Err(DslError::WrongKind {
                field: field.to_string(),
            }),
            FieldRef::Absent => Err(DslError::MissingField {
                field: field.to_string(),
            }),
        }
    }
}

impl<'a> From<&'a Value> for FieldRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Uint(u) => FieldRef::Uint(*u),
            Value::Bytes(b) => FieldRef::Bytes(b),
        }
    }
}

/// Builder for [`PacketSpec`] (see [`PacketSpec::builder`]).
#[derive(Debug)]
pub struct PacketSpecBuilder {
    name: String,
    fields: Vec<FieldDef>,
}

impl Default for PacketSpecBuilder {
    /// An empty builder for a spec named `"unnamed"` (prefer
    /// [`PacketSpec::builder`], which names the spec up front).
    fn default() -> Self {
        PacketSpec::builder("unnamed")
    }
}

impl PacketSpecBuilder {
    /// Appends a plain integer field.
    #[must_use]
    pub fn uint(mut self, name: &str, bits: usize) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Uint { bits },
        });
        self
    }

    /// Appends a constant field.
    #[must_use]
    pub fn constant(mut self, name: &str, bits: usize, value: u64) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Const { bits, value },
        });
        self
    }

    /// Appends an enumerated field restricted to `allowed` values.
    #[must_use]
    pub fn enumerated(mut self, name: &str, bits: usize, allowed: &[u64]) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Enum {
                bits,
                allowed: allowed.to_vec(),
            },
        });
        self
    }

    /// Appends a computed length field (`unit` = 1, `bias` = 0; use
    /// [`PacketSpecBuilder::length_scaled`] otherwise).
    #[must_use]
    pub fn length(self, name: &str, bits: usize, coverage: Coverage) -> Self {
        self.length_scaled(name, bits, coverage, 1, 0)
    }

    /// Appends a computed length field with scaling:
    /// `value = covered_bytes / unit + bias`.
    #[must_use]
    pub fn length_scaled(
        mut self,
        name: &str,
        bits: usize,
        coverage: Coverage,
        unit: u64,
        bias: i64,
    ) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Length {
                bits,
                coverage,
                unit,
                bias,
            },
        });
        self
    }

    /// Appends a checksum field.
    #[must_use]
    pub fn checksum(mut self, name: &str, kind: ChecksumKind, coverage: Coverage) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Checksum { kind, coverage },
        });
        self
    }

    /// Appends a byte-string field.
    #[must_use]
    pub fn bytes(mut self, name: &str, len: Len) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            kind: FieldKind::Bytes { len },
        });
        self
    }

    /// Validates the field list and produces the spec.
    ///
    /// # Errors
    ///
    /// [`DslError::BadSpec`] when the definition is inconsistent; the
    /// message names the offending field. Checks performed:
    ///
    /// * field names are unique and non-empty;
    /// * integer widths are 1..=64; length/const values fit their width
    ///   cannot be checked statically and are deferred to encode;
    /// * `Len::Rest` appears at most once, on the final field;
    /// * `Len::Prefixed` references an *earlier* integer field;
    /// * every `Coverage::Fields` name resolves;
    /// * byte-string and checksum fields begin on byte boundaries
    ///   (guaranteed because all preceding fixed widths sum to a multiple
    ///   of 8 — variable fields always contribute whole bytes);
    /// * the total fixed width is a whole number of bytes.
    pub fn build(self) -> Result<PacketSpec, DslError> {
        let bad = |reason: String| DslError::BadSpec {
            spec: self.name.clone(),
            reason,
        };
        let mut seen = BTreeMap::new();
        for (i, f) in self.fields.iter().enumerate() {
            if f.name.is_empty() {
                return Err(bad(format!("field #{i} has an empty name")));
            }
            if seen.insert(f.name.clone(), i).is_some() {
                return Err(bad(format!("duplicate field name `{}`", f.name)));
            }
            if let Some(bits) = f.kind.fixed_bits() {
                if bits == 0 || bits > 64 {
                    return Err(bad(format!("field `{}` has invalid width {bits}", f.name)));
                }
            }
            if let FieldKind::Length { unit, .. } = &f.kind {
                if *unit == 0 {
                    return Err(bad(format!("field `{}` has zero unit", f.name)));
                }
            }
            if let FieldKind::Enum { bits, allowed } = &f.kind {
                if allowed.is_empty() {
                    return Err(bad(format!("field `{}` allows no values", f.name)));
                }
                if let Some(v) = allowed.iter().find(|v| *bits < 64 && **v >> bits != 0) {
                    return Err(bad(format!(
                        "field `{}` allows {v:#x}, which does not fit {bits} bits",
                        f.name
                    )));
                }
            }
        }
        // Positional checks.
        let mut bit_mod8 = 0usize;
        for (i, f) in self.fields.iter().enumerate() {
            match &f.kind {
                FieldKind::Bytes { len } => {
                    if bit_mod8 != 0 {
                        return Err(bad(format!(
                            "byte field `{}` does not start on a byte boundary",
                            f.name
                        )));
                    }
                    match len {
                        Len::Rest => {
                            if i != self.fields.len() - 1 {
                                return Err(bad(format!(
                                    "`{}` uses Len::Rest but is not the final field",
                                    f.name
                                )));
                            }
                        }
                        Len::Prefixed { field, unit, .. } => {
                            if *unit == 0 {
                                return Err(bad(format!("`{}` has zero length unit", f.name)));
                            }
                            match seen.get(field) {
                                Some(&j) if j < i => {
                                    let refd = &self.fields[j];
                                    if refd.kind.fixed_bits().is_none() {
                                        return Err(bad(format!(
                                            "`{}` length prefix `{field}` is not an integer field",
                                            f.name
                                        )));
                                    }
                                }
                                _ => {
                                    return Err(bad(format!(
                                        "`{}` references `{field}`, which is not an earlier field",
                                        f.name
                                    )));
                                }
                            }
                        }
                        Len::Fixed(_) => {}
                    }
                }
                FieldKind::Checksum { coverage, kind } => {
                    if bit_mod8 != 0 {
                        return Err(bad(format!(
                            "checksum field `{}` does not start on a byte boundary",
                            f.name
                        )));
                    }
                    if kind.width_bits() % 8 != 0 {
                        return Err(bad(format!(
                            "checksum field `{}` is not a whole number of bytes",
                            f.name
                        )));
                    }
                    self.check_coverage(&f.name, coverage, &seen, &bad)?;
                    bit_mod8 = (bit_mod8 + kind.width_bits()) % 8;
                }
                FieldKind::Length { coverage, bits, .. } => {
                    self.check_coverage(&f.name, coverage, &seen, &bad)?;
                    bit_mod8 = (bit_mod8 + bits) % 8;
                }
                FieldKind::Uint { bits }
                | FieldKind::Const { bits, .. }
                | FieldKind::Enum { bits, .. } => {
                    bit_mod8 = (bit_mod8 + bits) % 8;
                }
            }
        }
        if bit_mod8 != 0 {
            return Err(bad(
                "total fixed width is not a whole number of bytes".into()
            ));
        }
        Ok(PacketSpec {
            name: self.name,
            fields: self.fields,
        })
    }

    fn check_coverage(
        &self,
        owner: &str,
        coverage: &Coverage,
        seen: &BTreeMap<String, usize>,
        bad: &impl Fn(String) -> DslError,
    ) -> Result<(), DslError> {
        if let Coverage::Fields(names) = coverage {
            if names.is_empty() {
                return Err(bad(format!("`{owner}` has empty coverage")));
            }
            for n in names {
                if !seen.contains_key(n) && n != owner {
                    return Err(bad(format!(
                        "`{owner}` coverage references unknown field `{n}`"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Where one decoded field's value lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// An integer field's value.
    Uint(u64),
    /// A byte field's run `(start, len)` in the frame.
    Bytes(usize, usize),
}

/// The walker's per-thread working memory, reused frame after frame so
/// a warm walk allocates nothing. Every table is indexed by declaration
/// order ([`PacketSpec::field_index`]).
#[derive(Debug, Default)]
struct Scratch {
    /// `(bit offset, bit width)` of each field in the frame.
    spans: Vec<(usize, usize)>,
    /// Each field's decoded value (filled by decode only).
    slots: Vec<Slot>,
    /// Merged byte ranges of the coverage last resolved.
    ranges: Vec<(usize, usize)>,
    /// The assembled input of the checksum last computed.
    input: Vec<u8>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Runs `f` with this thread's [`Scratch`]. The scratch is taken out of
/// its cell for the duration, so a walk nested inside `f` (a
/// [`PacketSpec::decode_with`] closure decoding an inner frame) gets a
/// fresh one instead of aliasing the outer walk's tables.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

impl Scratch {
    /// Byte range `[start, end)` covering field `i`'s bits (sub-byte
    /// fields cover their containing bytes).
    fn byte_range(&self, i: usize) -> (usize, usize) {
        let (off, width) = self.spans[i];
        (off / 8, (off + width).div_ceil(8))
    }

    /// Resolves `coverage` against the spans into merged byte ranges
    /// (left in `self.ranges`) and returns their total length.
    fn cover(&mut self, spec: &PacketSpec, coverage: &Coverage, frame_len: usize) -> usize {
        self.ranges.clear();
        match coverage {
            Coverage::Whole => self.ranges.push((0, frame_len)),
            Coverage::Fields(names) => {
                for i in names.iter().filter_map(|n| spec.field_index(n)) {
                    let range = self.byte_range(i);
                    self.ranges.push(range);
                }
                self.ranges.sort_unstable();
                // Merge overlapping/adjacent ranges (sub-byte neighbours
                // share bytes).
                self.ranges.dedup_by(|(s, e), (_, kept_end)| {
                    let overlaps = *s <= *kept_end;
                    if overlaps {
                        *kept_end = (*kept_end).max(*e);
                    }
                    overlaps
                });
            }
        }
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Computes checksum field `i` over its coverage of `frame`, with
    /// the field's own bytes zeroed in the assembled input.
    fn checksum(
        &mut self,
        spec: &PacketSpec,
        i: usize,
        kind: ChecksumKind,
        coverage: &Coverage,
        frame: &[u8],
    ) -> u64 {
        let (own_start, own_end) = self.byte_range(i);
        self.cover(spec, coverage, frame.len());
        self.input.clear();
        for &(s, e) in &self.ranges {
            let base = self.input.len();
            self.input.extend_from_slice(&frame[s..e]);
            let (zero_start, zero_end) = (own_start.max(s), own_end.min(e));
            if zero_start < zero_end {
                self.input[base + zero_start - s..base + zero_end - s].fill(0);
            }
        }
        kind.compute(&self.input)
    }
}

/// The fields of one frame that [`PacketSpec::decode_with`] has fully
/// validated, read by name; byte fields borrow from the frame.
///
/// There is no public constructor: like a [`Checked`] value, holding a
/// `FrameFields` is the certificate that every declared constraint of
/// the frame held.
#[derive(Debug)]
pub struct FrameFields<'s, 'f> {
    spec: &'s PacketSpec,
    frame: &'f [u8],
    slots: &'s [Slot],
}

impl<'s, 'f> FrameFields<'s, 'f> {
    fn field(&self, name: &str) -> FieldRef<'f> {
        match self.spec.field_index(name).and_then(|i| self.slots.get(i)) {
            Some(&Slot::Uint(v)) => FieldRef::Uint(v),
            Some(&Slot::Bytes(start, len)) => FieldRef::Bytes(&self.frame[start..start + len]),
            None => FieldRef::Absent,
        }
    }

    /// Gets an integer field.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] / [`DslError::WrongKind`], as for
    /// [`PacketValue::uint`].
    pub fn uint(&self, name: &str) -> Result<u64, DslError> {
        self.field(name).uint(name)
    }

    /// Gets a byte-string field, borrowed from the frame.
    ///
    /// # Errors
    ///
    /// [`DslError::MissingField`] / [`DslError::WrongKind`], as for
    /// [`PacketValue::bytes`].
    pub fn bytes(&self, name: &str) -> Result<&'f [u8], DslError> {
        self.field(name).bytes(name)
    }

    /// Copies every field into an owned [`PacketValue`].
    fn to_value(&self) -> PacketValue {
        let mut values = PacketValue::new();
        for (f, slot) in self.spec.fields.iter().zip(self.slots) {
            let value = match *slot {
                Slot::Uint(v) => Value::Uint(v),
                Slot::Bytes(start, len) => Value::Bytes(self.frame[start..start + len].to_vec()),
            };
            values.set(&f.name, value);
        }
        values
    }
}

/// Byte length of a `Len::Prefixed` run whose prefix field `field`
/// holds `value`: `value * unit + bias`.
fn prefixed_len(field: &str, value: u64, unit: i64, bias: i64) -> Result<usize, DslError> {
    let n = (value as i64)
        .checked_mul(unit)
        .and_then(|x| x.checked_add(bias))
        .ok_or_else(|| DslError::LengthFieldMismatch {
            field: field.to_string(),
            declared: usize::MAX,
            actual: 0,
        })?;
    if n < 0 {
        return Err(DslError::LengthFieldMismatch {
            field: field.to_string(),
            declared: 0,
            actual: 0,
        });
    }
    Ok(n as usize)
}

/// A validated, declarative packet description.
///
/// Construct with [`PacketSpec::builder`]; see the
/// [crate docs](crate) for a worked example (the paper's ARQ packet).
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpec {
    name: String,
    fields: Vec<FieldDef>,
}

impl PacketSpec {
    /// Starts building a spec with the given name.
    #[must_use]
    pub fn builder(name: &str) -> PacketSpecBuilder {
        PacketSpecBuilder {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered field definitions.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Creates an empty [`PacketValue`] to fill in before encoding.
    pub fn value(&self) -> PacketValue {
        PacketValue::new()
    }

    /// Index of the field named `name` in [`PacketSpec::fields`] order.
    ///
    /// Public because it is the field-resolution routine shared by the
    /// interpretive walker below and the `netdsl-codec` lowering pass
    /// (which turns names into flat indices once, at compile time).
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Resolves a [`Coverage`] to the indices of the fields it names, in
    /// wire order ([`Coverage::Whole`] resolves to every field). Names
    /// that do not resolve are skipped, mirroring the interpretive
    /// walker; `build` guarantees they cannot exist in a built spec.
    pub fn resolve_coverage(&self, coverage: &Coverage) -> Vec<usize> {
        match coverage {
            Coverage::Whole => (0..self.fields.len()).collect(),
            Coverage::Fields(names) => {
                let mut ixs: Vec<usize> =
                    names.iter().filter_map(|n| self.field_index(n)).collect();
                ixs.sort_unstable();
                ixs
            }
        }
    }

    /// Encodes `values` into a wire frame.
    ///
    /// `Const`, `Length` and `Checksum` fields are computed automatically
    /// and must **not** be supplied (supplied values are ignored).
    ///
    /// # Errors
    ///
    /// * [`DslError::MissingField`] / [`DslError::WrongKind`] for absent or
    ///   ill-typed values;
    /// * [`DslError::LengthFieldMismatch`] if a `Prefixed` byte field's
    ///   value disagrees with its prefix field;
    /// * [`DslError::Wire`] if a value overflows its width.
    pub fn encode(&self, values: &PacketValue) -> Result<Vec<u8>, DslError> {
        let mut out = Vec::new();
        with_scratch(|s| self.encode_by(|i| values.field_ref(&self.fields[i].name), s, &mut out))?;
        Ok(out)
    }

    /// Encodes the values of `fields`, listed in declaration order
    /// ([`PacketSpec::field_index`]; entries past the end of the slice
    /// count as [`FieldRef::Absent`]), into `out`. `out` is cleared
    /// first and its allocation reused, so a pooled buffer encodes with
    /// no allocation once warm. Frames are byte-identical to
    /// [`PacketSpec::encode`]'s; on error the contents of `out` are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// As for [`PacketSpec::encode`], identically.
    pub fn encode_fields_into(
        &self,
        fields: &[FieldRef<'_>],
        out: &mut Vec<u8>,
    ) -> Result<(), DslError> {
        with_scratch(|s| self.encode_by(|i| fields.get(i).copied().unwrap_or_default(), s, out))
    }

    /// The one encode body: `value(i)` supplies field `i`'s value.
    /// Pass 1 resolves every field's span (which needs the byte
    /// lengths), pass 2 serialises with `Length` fields computed and
    /// checksums zeroed, pass 3 patches checksums in field order.
    fn encode_by<'v>(
        &self,
        value: impl Fn(usize) -> FieldRef<'v>,
        s: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), DslError> {
        s.spans.clear();
        let mut off = 0;
        for (i, f) in self.fields.iter().enumerate() {
            let width = match &f.kind {
                FieldKind::Bytes { len } => {
                    let b = value(i).bytes(&f.name)?;
                    if let Len::Fixed(n) = len {
                        if b.len() != *n {
                            return Err(DslError::LengthFieldMismatch {
                                field: f.name.clone(),
                                declared: *n,
                                actual: b.len(),
                            });
                        }
                    }
                    b.len() * 8
                }
                k => k.fixed_bits().expect("non-bytes fields are fixed"),
            };
            s.spans.push((off, width));
            off += width;
        }
        let frame_len = off / 8;

        let mut buf = std::mem::take(out);
        buf.clear();
        buf.reserve(frame_len);
        let mut writer = BitWriter::from_vec(buf);
        let written = self.write_fields(&value, s, frame_len, &mut writer);
        *out = writer.into_bytes();
        written?;

        // Byte-aligned by construction (enforced in `build`).
        for (i, f) in self.fields.iter().enumerate() {
            if let FieldKind::Checksum { kind, coverage } = &f.kind {
                let sum = s.checksum(self, i, *kind, coverage, out);
                let (start, end) = s.byte_range(i);
                let be = sum.to_be_bytes();
                out[start..end].copy_from_slice(&be[8 - (end - start)..]);
            }
        }
        Ok(())
    }

    /// Pass 2 of [`PacketSpec::encode_by`] over the spans of pass 1.
    fn write_fields<'v>(
        &self,
        value: &impl Fn(usize) -> FieldRef<'v>,
        s: &mut Scratch,
        frame_len: usize,
        writer: &mut BitWriter,
    ) -> Result<(), DslError> {
        for (i, f) in self.fields.iter().enumerate() {
            match &f.kind {
                FieldKind::Uint { bits } => {
                    writer.write_bits(value(i).uint(&f.name)?, *bits)?;
                }
                FieldKind::Const { bits, value } => {
                    writer.write_bits(*value, *bits)?;
                }
                FieldKind::Enum { bits, allowed } => {
                    let v = value(i).uint(&f.name)?;
                    if !allowed.contains(&v) {
                        return Err(DslError::InvalidEnumValue {
                            field: f.name.clone(),
                            value: v,
                        });
                    }
                    writer.write_bits(v, *bits)?;
                }
                FieldKind::Length {
                    bits,
                    coverage,
                    unit,
                    bias,
                } => {
                    let covered = s.cover(self, coverage, frame_len) as u64;
                    let v = (covered / unit) as i64 + bias;
                    if v < 0 {
                        return Err(DslError::LengthFieldMismatch {
                            field: f.name.clone(),
                            declared: 0,
                            actual: covered as usize,
                        });
                    }
                    writer.write_bits(v as u64, *bits)?;
                }
                FieldKind::Checksum { kind, .. } => {
                    writer.write_bits(0, kind.width_bits())?;
                }
                FieldKind::Bytes { len } => {
                    let b = value(i).bytes(&f.name)?;
                    // A Prefixed byte field must agree with its prefix —
                    // unless the prefix is itself a computed Length field,
                    // in which case it is derived (and decode re-verifies
                    // the relationship from the other side).
                    if let Len::Prefixed { field, unit, bias } = len {
                        let prefix = self.field_index(field);
                        let prefix_is_computed = prefix.is_some_and(|j| {
                            matches!(self.fields[j].kind, FieldKind::Length { .. })
                        });
                        if !prefix_is_computed {
                            let v = prefix.map_or(FieldRef::Absent, value).uint(field)?;
                            let expect = prefixed_len(field, v, *unit, *bias)?;
                            if expect != b.len() {
                                return Err(DslError::LengthFieldMismatch {
                                    field: f.name.clone(),
                                    declared: expect,
                                    actual: b.len(),
                                });
                            }
                        }
                    }
                    writer.write_bytes(b)?;
                }
            }
        }
        Ok(())
    }

    /// Decodes and fully validates a frame, returning a [`Checked`]
    /// witness: constants matched, length fields agreed with the actual
    /// layout, checksums verified.
    ///
    /// # Errors
    ///
    /// * [`DslError::Wire`] on truncated frames;
    /// * [`DslError::ConstMismatch`], [`DslError::LengthFieldMismatch`],
    ///   [`DslError::ChecksumFailed`] when the corresponding constraints
    ///   are violated.
    pub fn decode(&self, frame: &[u8]) -> Result<Checked<PacketValue>, DslError> {
        self.decode_with(frame, |fields| Ok(Checked::assert_valid(fields.to_value())))
    }

    /// Decodes and fully validates a frame exactly as
    /// [`PacketSpec::decode`] does, then — only if every check passed —
    /// hands `read` a borrowed [`FrameFields`] view instead of building
    /// an owned [`PacketValue`]. A warm call allocates nothing itself;
    /// whatever `read` returns is passed through. `read` may itself
    /// decode another frame.
    ///
    /// # Errors
    ///
    /// As for [`PacketSpec::decode`], identically; otherwise whatever
    /// `read` returns.
    pub fn decode_with<'f, R>(
        &self,
        frame: &'f [u8],
        read: impl FnOnce(&FrameFields<'_, 'f>) -> Result<R, DslError>,
    ) -> Result<R, DslError> {
        with_scratch(|s| {
            self.walk(frame, true, s)?;
            read(&FrameFields {
                spec: self,
                frame,
                slots: &s.slots,
            })
        })
    }

    /// Decodes *without* verifying checksums, constants or length fields.
    ///
    /// Exists as the baseline for experiment E2 (cost of re-validation):
    /// protocol code written against `decode_unchecked` must re-verify by
    /// hand before trusting any field, which is exactly the discipline the
    /// witness type makes unnecessary.
    ///
    /// # Errors
    ///
    /// [`DslError::Wire`] if the frame is structurally truncated.
    pub fn decode_unchecked(&self, frame: &[u8]) -> Result<PacketValue, DslError> {
        with_scratch(|s| {
            self.walk(frame, false, s)?;
            Ok(FrameFields {
                spec: self,
                frame,
                slots: &s.slots,
            }
            .to_value())
        })
    }

    /// Runs only the validation phase over an already-decoded value/frame
    /// pair (re-validation baseline for E2).
    ///
    /// # Errors
    ///
    /// As for [`PacketSpec::decode`].
    pub fn verify_frame(&self, frame: &[u8]) -> Result<(), DslError> {
        with_scratch(|s| self.walk(frame, true, s))
    }

    /// The single interpretive frame walker behind [`PacketSpec::decode`],
    /// [`PacketSpec::decode_with`], [`PacketSpec::decode_unchecked`] and
    /// [`PacketSpec::verify_frame`]: one structural pass resolving every
    /// field's span and value into `s`, then (when `validate` is set) one
    /// constraint pass over the resolved spans, in field order. The
    /// `netdsl-codec` lowering pass mirrors exactly this resolution via
    /// [`PacketSpec::field_index`] / [`PacketSpec::resolve_coverage`],
    /// which is what makes the compiled and interpretive paths
    /// verdict-equivalent.
    fn walk(&self, frame: &[u8], validate: bool, s: &mut Scratch) -> Result<(), DslError> {
        s.spans.clear();
        s.slots.clear();
        let mut reader = BitReader::new(frame);
        for f in &self.fields {
            let off = reader.bit_position();
            let (slot, width) = match &f.kind {
                FieldKind::Bytes { len } => {
                    let n = match len {
                        Len::Fixed(n) => *n,
                        Len::Rest => reader.remaining_bits() / 8,
                        Len::Prefixed { field, unit, bias } => {
                            let decoded = FrameFields {
                                spec: self,
                                frame,
                                slots: &s.slots,
                            };
                            prefixed_len(field, decoded.uint(field)?, *unit, *bias)?
                        }
                    };
                    reader.read_bytes(n)?;
                    (Slot::Bytes(off / 8, n), n * 8)
                }
                k => {
                    let bits = k.fixed_bits().expect("non-bytes fields are fixed");
                    (Slot::Uint(reader.read_bits(bits)?), bits)
                }
            };
            s.spans.push((off, width));
            s.slots.push(slot);
        }
        if !reader.is_empty() {
            return Err(DslError::Wire(netdsl_wire::WireError::LengthMismatch {
                declared: reader.bit_position() / 8,
                actual: frame.len(),
            }));
        }
        if !validate {
            return Ok(());
        }
        // Constraint pass, in field order, over the resolved spans.
        for (i, f) in self.fields.iter().enumerate() {
            let Slot::Uint(found) = s.slots[i] else {
                continue;
            };
            match &f.kind {
                FieldKind::Const { value, .. } if found != *value => {
                    return Err(DslError::ConstMismatch {
                        field: f.name.clone(),
                        expected: *value,
                        found,
                    });
                }
                FieldKind::Enum { allowed, .. } if !allowed.contains(&found) => {
                    return Err(DslError::InvalidEnumValue {
                        field: f.name.clone(),
                        value: found,
                    });
                }
                FieldKind::Length {
                    coverage,
                    unit,
                    bias,
                    ..
                } => {
                    let covered = s.cover(self, coverage, frame.len()) as u64;
                    let expect = (covered / unit) as i64 + bias;
                    let found = found as i64;
                    if found != expect {
                        return Err(DslError::LengthFieldMismatch {
                            field: f.name.clone(),
                            declared: found.max(0) as usize,
                            actual: expect.max(0) as usize,
                        });
                    }
                }
                FieldKind::Checksum { kind, coverage }
                    if s.checksum(self, i, *kind, coverage, frame) != found =>
                {
                    return Err(DslError::ChecksumFailed {
                        field: f.name.clone(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renders the fixed-width prefix of the spec as an RFC-style ASCII
    /// picture (the notation of the paper's Figure 1), 32 bits per row.
    ///
    /// Variable-length byte fields are rendered as a single full-width
    /// row. This makes the DSL self-documenting: the canonical visual
    /// notation is *generated from* the executable definition instead of
    /// being maintained alongside it.
    pub fn ascii_art(&self) -> String {
        const ROW_BITS: usize = 32;
        let rule = || {
            let mut s = String::from("+");
            for _ in 0..ROW_BITS {
                s.push_str("-+");
            }
            s.push('\n');
            s
        };
        let mut out = String::new();
        out.push_str(
            " 0                   1                   2                   3\n 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1\n",
        );
        out.push_str(&rule());
        let mut row = String::from("|");
        let mut bits_in_row = 0usize;
        let emit_cell = |row: &mut String,
                         bits_in_row: &mut usize,
                         out: &mut String,
                         name: &str,
                         mut bits: usize| {
            while bits > 0 {
                let take = bits.min(ROW_BITS - *bits_in_row);
                let cell_width = take * 2 - 1;
                let label: String = if name.len() <= cell_width {
                    let pad = cell_width - name.len();
                    let left = pad / 2;
                    format!("{}{}{}", " ".repeat(left), name, " ".repeat(pad - left))
                } else {
                    name.chars().take(cell_width).collect()
                };
                let _ = write!(row, "{label}|");
                *bits_in_row += take;
                bits -= take;
                if *bits_in_row == ROW_BITS {
                    out.push_str(row);
                    out.push('\n');
                    out.push_str(&rule());
                    row.clear();
                    row.push('|');
                    *bits_in_row = 0;
                }
            }
        };
        for f in &self.fields {
            match f.kind.fixed_bits() {
                Some(bits) => emit_cell(&mut row, &mut bits_in_row, &mut out, &f.name, bits),
                None => {
                    if bits_in_row != 0 {
                        let pad = ROW_BITS - bits_in_row;
                        emit_cell(&mut row, &mut bits_in_row, &mut out, "", pad);
                    }
                    emit_cell(
                        &mut row,
                        &mut bits_in_row,
                        &mut out,
                        &format!("{} ...", f.name),
                        ROW_BITS,
                    );
                }
            }
        }
        if bits_in_row != 0 {
            let pad = ROW_BITS - bits_in_row;
            emit_cell(&mut row, &mut bits_in_row, &mut out, "", pad);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_wire::checksum::{arq_check, ChecksumKind};

    /// The paper's §3.4 packet: `Pkt seq chk data`.
    fn arq_spec() -> PacketSpec {
        PacketSpec::builder("arq")
            .uint("seq", 8)
            .checksum(
                "chk",
                ChecksumKind::Arq,
                Coverage::Fields(vec!["seq".into(), "data".into()]),
            )
            .bytes("data", Len::Rest)
            .build()
            .unwrap()
    }

    #[test]
    fn arq_roundtrip_and_checksum_autofill() {
        let spec = arq_spec();
        let mut v = spec.value();
        v.set("seq", Value::Uint(7));
        v.set("data", Value::Bytes(b"hello".to_vec()));
        let frame = spec.encode(&v).unwrap();
        assert_eq!(frame[0], 7);
        assert_eq!(
            frame[1],
            arq_check(7, b"hello"),
            "checksum matches the paper's check(seq, data)"
        );
        assert_eq!(&frame[2..], b"hello");

        let decoded = spec.decode(&frame).unwrap();
        assert_eq!(decoded.uint("seq").unwrap(), 7);
        assert_eq!(decoded.bytes("data").unwrap(), b"hello");
    }

    #[test]
    fn decode_with_nests_and_borrows_from_the_frame() {
        let spec = arq_spec();
        let frame = |seq: u64, data: &[u8]| {
            let mut v = spec.value();
            v.set("seq", Value::Uint(seq));
            v.set("data", Value::from(data));
            spec.encode(&v).unwrap()
        };
        let outer = frame(1, &frame(2, b"in"));
        let read = spec.decode_with(&outer, |fields| {
            let inner = spec.decode_with(fields.bytes("data")?, |inner| {
                Ok((inner.uint("seq")?, inner.bytes("data")?))
            })?;
            // The outer view still reads its own frame after the nested walk.
            Ok((fields.uint("seq")?, inner))
        });
        assert_eq!(read, Ok((1, (2, &b"in"[..]))));
        assert_eq!(
            spec.decode_with(&outer, |fields| fields.uint("ghost")),
            Err(DslError::MissingField {
                field: "ghost".into()
            })
        );
        assert_eq!(
            spec.decode_with(&outer, |fields| fields.uint("data")),
            Err(DslError::WrongKind {
                field: "data".into()
            })
        );
        let mut corrupt = outer.clone();
        corrupt[2] ^= 1;
        assert_eq!(
            spec.decode_with(&corrupt, |_| -> Result<(), _> {
                unreachable!("a rejected frame is never handed to the closure")
            }),
            Err(DslError::ChecksumFailed {
                field: "chk".into()
            })
        );
    }

    #[test]
    fn corrupted_arq_frame_rejected() {
        let spec = arq_spec();
        let mut v = spec.value();
        v.set("seq", Value::Uint(1));
        v.set("data", Value::Bytes(vec![1, 2, 3]));
        let mut frame = spec.encode(&v).unwrap();
        frame[3] ^= 0x40; // flip payload bit
        assert_eq!(
            spec.decode(&frame),
            Err(DslError::ChecksumFailed {
                field: "chk".into()
            })
        );
        // Corrupting the sequence number is caught too (check covers seq).
        let mut frame2 = spec.encode(&v).unwrap();
        frame2[0] ^= 1;
        assert!(spec.decode(&frame2).is_err());
    }

    #[test]
    fn decode_unchecked_accepts_corrupt_frames() {
        let spec = arq_spec();
        let mut v = spec.value();
        v.set("seq", Value::Uint(1));
        v.set("data", Value::Bytes(vec![9]));
        let mut frame = spec.encode(&v).unwrap();
        frame[2] ^= 0xFF;
        assert!(spec.decode_unchecked(&frame).is_ok());
        assert!(spec.verify_frame(&frame).is_err());
    }

    #[test]
    fn const_fields_enforced() {
        let spec = PacketSpec::builder("versioned")
            .constant("version", 4, 4)
            .uint("flags", 4)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("flags", Value::Uint(0xA));
        let frame = spec.encode(&v).unwrap();
        assert_eq!(frame, vec![0x4A]);
        assert!(spec.decode(&frame).is_ok());
        assert_eq!(
            spec.decode(&[0x5A]),
            Err(DslError::ConstMismatch {
                field: "version".into(),
                expected: 4,
                found: 5
            })
        );
    }

    #[test]
    fn length_field_computed_and_verified() {
        let spec = PacketSpec::builder("framed")
            .length("len", 16, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("payload", Value::Bytes(vec![1, 2, 3]));
        let frame = spec.encode(&v).unwrap();
        assert_eq!(frame, vec![0, 5, 1, 2, 3]);
        assert!(spec.decode(&frame).is_ok());
        let bad = vec![0, 6, 1, 2, 3];
        assert!(matches!(
            spec.decode(&bad),
            Err(DslError::LengthFieldMismatch { .. })
        ));
    }

    #[test]
    fn scaled_length_like_ipv4_ihl() {
        // 4-byte header measured in 32-bit words.
        let spec = PacketSpec::builder("words")
            .length_scaled(
                "words",
                8,
                Coverage::Fields(vec!["words".into(), "pad".into()]),
                4,
                0,
            )
            .uint("pad", 24)
            .build()
            .unwrap();
        let frame = spec
            .encode(spec.value().set("pad", Value::Uint(0)))
            .unwrap();
        assert_eq!(frame[0], 1, "4 header bytes = one 32-bit word");
        assert!(spec.decode(&frame).is_ok());
    }

    #[test]
    fn prefixed_bytes_roundtrip_with_bias() {
        // UDP-style: `length` counts a 4-byte pseudo-header plus payload.
        let spec = PacketSpec::builder("udpish")
            .uint("port", 16)
            .length_scaled("length", 16, Coverage::Whole, 1, 0)
            .bytes(
                "payload",
                Len::Prefixed {
                    field: "length".into(),
                    unit: 1,
                    bias: -4,
                },
            )
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("port", Value::Uint(53));
        v.set("payload", Value::Bytes(b"dns".to_vec()));
        let frame = spec.encode(&v).unwrap();
        assert_eq!(frame.len(), 7);
        assert_eq!(u16::from_be_bytes([frame[2], frame[3]]), 7);
        let d = spec.decode(&frame).unwrap();
        assert_eq!(d.bytes("payload").unwrap(), b"dns");
    }

    #[test]
    fn truncated_frames_rejected() {
        let spec = arq_spec();
        assert!(matches!(spec.decode(&[1]), Err(DslError::Wire(_))));
        // Prefixed length beyond frame end:
        let spec2 = PacketSpec::builder("p")
            .uint("len", 8)
            .bytes(
                "data",
                Len::Prefixed {
                    field: "len".into(),
                    unit: 1,
                    bias: 0,
                },
            )
            .build()
            .unwrap();
        assert!(spec2.decode(&[5, 1, 2]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let spec = PacketSpec::builder("fixed")
            .uint("a", 8)
            .bytes("b", Len::Fixed(2))
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("a", Value::Uint(1));
        v.set("b", Value::Bytes(vec![2, 3]));
        let mut frame = spec.encode(&v).unwrap();
        frame.push(0xFF);
        assert!(spec.decode(&frame).is_err());
    }

    #[test]
    fn fixed_bytes_length_enforced_on_encode() {
        let spec = PacketSpec::builder("fixed")
            .bytes("b", Len::Fixed(2))
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("b", Value::Bytes(vec![1, 2, 3]));
        assert!(matches!(
            spec.encode(&v),
            Err(DslError::LengthFieldMismatch { .. })
        ));
    }

    #[test]
    fn builder_rejects_bad_specs() {
        // duplicate name
        assert!(PacketSpec::builder("d")
            .uint("x", 8)
            .uint("x", 8)
            .build()
            .is_err());
        // zero-width field
        assert!(PacketSpec::builder("z").uint("x", 0).build().is_err());
        // 65-bit field
        assert!(PacketSpec::builder("w").uint("x", 65).build().is_err());
        // Rest not last
        assert!(PacketSpec::builder("r")
            .bytes("a", Len::Rest)
            .uint("b", 8)
            .build()
            .is_err());
        // Prefixed references later field
        assert!(PacketSpec::builder("p")
            .bytes(
                "data",
                Len::Prefixed {
                    field: "len".into(),
                    unit: 1,
                    bias: 0
                }
            )
            .uint("len", 8)
            .build()
            .is_err());
        // unaligned bytes field
        assert!(PacketSpec::builder("u")
            .uint("nibble", 4)
            .bytes("data", Len::Rest)
            .build()
            .is_err());
        // unaligned checksum
        assert!(PacketSpec::builder("c")
            .uint("nibble", 4)
            .checksum("ck", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .build()
            .is_err());
        // total width not whole bytes
        assert!(PacketSpec::builder("t").uint("x", 12).build().is_err());
        // coverage names unknown field
        assert!(PacketSpec::builder("cov")
            .checksum(
                "ck",
                ChecksumKind::Crc32Ieee,
                Coverage::Fields(vec!["ghost".into()])
            )
            .build()
            .is_err());
        // zero unit
        assert!(PacketSpec::builder("unit")
            .length_scaled("l", 8, Coverage::Whole, 0, 0)
            .build()
            .is_err());
    }

    #[test]
    fn field_resolution_helpers_are_public() {
        let spec = arq_spec();
        assert_eq!(spec.field_index("seq"), Some(0));
        assert_eq!(spec.field_index("ghost"), None);
        assert_eq!(
            spec.resolve_coverage(&Coverage::Fields(vec!["data".into(), "seq".into()])),
            vec![0, 2],
            "names resolve to indices in wire order"
        );
        assert_eq!(spec.resolve_coverage(&Coverage::Whole), vec![0, 1, 2]);
    }

    #[test]
    fn default_builder_builds_an_unnamed_spec() {
        let spec = PacketSpecBuilder::default().uint("x", 8).build().unwrap();
        assert_eq!(spec.name(), "unnamed");
    }

    #[test]
    fn missing_and_wrong_kind_values_reported() {
        let spec = arq_spec();
        let v = spec.value();
        // Width resolution touches byte fields first, so `data` is the
        // first absence reported.
        assert_eq!(
            spec.encode(&v),
            Err(DslError::MissingField {
                field: "data".into()
            })
        );
        let mut v2 = spec.value();
        v2.set("seq", Value::Bytes(vec![7]));
        v2.set("data", Value::Bytes(vec![]));
        assert_eq!(
            spec.encode(&v2),
            Err(DslError::WrongKind {
                field: "seq".into()
            })
        );
    }

    #[test]
    fn value_overflow_propagates_from_wire() {
        let spec = PacketSpec::builder("small")
            .uint("x", 4)
            .uint("pad", 4)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("x", Value::Uint(16));
        v.set("pad", Value::Uint(0));
        assert!(matches!(spec.encode(&v), Err(DslError::Wire(_))));
    }

    #[test]
    fn checksum_over_whole_frame_zeroes_itself() {
        let spec = PacketSpec::builder("w")
            .uint("a", 8)
            .checksum("ck", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .bytes("data", Len::Rest)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("a", Value::Uint(5));
        v.set("data", Value::Bytes(vec![1, 2]));
        let frame = spec.encode(&v).unwrap();
        assert!(spec.decode(&frame).is_ok());
        // Manually recompute: checksum over frame with its own 2 bytes zeroed.
        let mut zeroed = frame.clone();
        zeroed[1] = 0;
        zeroed[2] = 0;
        let expect = netdsl_wire::checksum::crc16_ccitt(&zeroed);
        assert_eq!(u16::from_be_bytes([frame[1], frame[2]]), expect);
    }

    #[test]
    fn ascii_art_renders_32_bit_rows() {
        let spec = PacketSpec::builder("hdr")
            .constant("version", 4, 4)
            .uint("ihl", 4)
            .uint("tos", 8)
            .uint("total_length", 16)
            .build()
            .unwrap();
        let art = spec.ascii_art();
        assert!(art.contains("version"));
        assert!(art.contains("total_length"));
        // Data rows are 65 chars wide (32 cells of "x|" plus leading '|').
        for line in art.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(line.len(), 65, "row {line:?}");
        }
    }

    #[test]
    fn enum_fields_screen_both_directions() {
        let spec = PacketSpec::builder("kinds")
            .enumerated("kind", 8, &[1, 2])
            .uint("body", 8)
            .build()
            .unwrap();
        // Encode: member passes, non-member refused.
        let mut v = spec.value();
        v.set("kind", Value::Uint(1));
        v.set("body", Value::Uint(0));
        let frame = spec.encode(&v).unwrap();
        assert!(spec.decode(&frame).is_ok());
        v.set("kind", Value::Uint(3));
        assert_eq!(
            spec.encode(&v),
            Err(DslError::InvalidEnumValue {
                field: "kind".into(),
                value: 3
            })
        );
        // Decode: on-the-wire non-member refused.
        assert_eq!(
            spec.decode(&[9, 0]),
            Err(DslError::InvalidEnumValue {
                field: "kind".into(),
                value: 9
            })
        );
    }

    #[test]
    fn enum_builder_validation() {
        // Empty allowed set.
        assert!(PacketSpec::builder("e")
            .enumerated("k", 8, &[])
            .build()
            .is_err());
        // Allowed value wider than the field.
        assert!(PacketSpec::builder("e")
            .enumerated("k", 4, &[16])
            .build()
            .is_err());
        assert!(PacketSpec::builder("e")
            .enumerated("k", 4, &[15])
            .uint("pad", 4)
            .build()
            .is_ok());
    }

    #[test]
    fn sub_byte_coverage_covers_containing_bytes() {
        // Coverage naming a 4-bit field covers its whole byte.
        let spec = PacketSpec::builder("s")
            .uint("hi", 4)
            .uint("lo", 4)
            .checksum("ck", ChecksumKind::Arq, Coverage::Fields(vec!["hi".into()]))
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("hi", Value::Uint(0xA));
        v.set("lo", Value::Uint(0xB));
        let frame = spec.encode(&v).unwrap();
        // Input to the checksum is the full first byte 0xAB.
        assert_eq!(frame[1], ChecksumKind::Arq.compute(&[0xAB]) as u8);
        assert!(spec.decode(&frame).is_ok());
    }
}
