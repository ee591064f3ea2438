//! Real lightweight-compression codecs: PDICT, PFOR and PFOR-DELTA.
//!
//! [`crate::compression::Compression`] predicts physical widths; this module
//! actually produces (and consumes) the bytes.  An [`EncodedColumn`] is one
//! mini-column of one chunk, encoded block-wise with the schemes of the
//! authors' ICDE 2006 compression paper:
//!
//! * **PFOR** — patched frame-of-reference: per block of
//!   [`BLOCK_LEN`] values, a 64-bit base (the block minimum) plus
//!   `bits`-wide packed offsets; values whose offset does not fit are
//!   *exceptions*, stored verbatim in a patch list (position + raw value),
//!   so encoding is lossless for any `i64` data at any configured width.
//! * **PFOR-DELTA** — the same block encoder applied to the wrapping
//!   first-difference of the column, which turns sorted/clustered data
//!   (keys, dates) into tiny offsets.
//! * **PDICT** — dictionary encoding: the distinct values of the column,
//!   followed by bit-packed codes.  The code width is chosen from the
//!   actual dictionary size (never wider than needed, never too narrow to
//!   be lossless); the scheme's `bits` parameter is the *model's* width
//!   prediction, which the tests compare against.
//!
//! Every codec round-trips exactly: `decode(encode(v)) == v` for arbitrary
//! `i64` input, including all-exception blocks (proptested).  Decoding is
//! the CPU cost the paper's Figure 9 trades against I/O volume; the
//! executor verifies a payload's checksums when it pins it and decodes a
//! column when a consumer first touches it, **never under the hub lock** —
//! which [`forbid_decode`] / [`assert_decode_allowed`] lets the threaded
//! executor assert at runtime in debug builds.
//!
//! Encoding writes format version 2 byte for byte (pinned by
//! `encoding_golden_values_pin_the_on_disk_format` and by proptests against
//! the byte-at-a-time reference encoder kept in the tests).  It works a
//! word at a time and allocates its output once at its length (a PFOR body
//! at its length without exceptions, which append past it):
//!
//! * packed fields fill a `u64` that is stored whole (`pack`), not pushed a
//!   byte at a time;
//! * a PFOR block whose range fits the width (its minimum and maximum tell)
//!   packs its offsets untested; any other block tests each value once, as
//!   it packs it; PFOR-DELTA takes its differences a block at a time
//!   instead of copying the column;
//! * PDICT ranks a column that spans fewer integers than it has values in
//!   one pass, through a table indexed by the offset from its minimum, and
//!   sorts a copy of any other column;
//! * a raw column is one bulk little-endian copy.
//!
//! Packed offsets and codes are unpacked eight at a time (`unpack`).
//! Eight `bits`-wide values take exactly `bits` bytes, so every group of
//! eight starts on a byte boundary; `unpack` matches the width once, to a
//! kernel compiled for it, in which a value is one load at a constant byte
//! offset, a constant shift and a mask, written straight into the output
//! vector.  A body's last values go through the same kernel over a
//! zero-padded copy.  Decoding trusts nothing it reads —
//! every length, width and position taken from the body is checked before
//! it sizes an allocation or indexes a slice, so a checksum-valid body from
//! a buggy writer panics (and is contained by the executor as
//! [`crate::StoreError::Corrupted`]) instead of aborting or reading out of
//! bounds.

use crate::compression::Compression;
use crate::segment::ne_bytes;
use std::cell::Cell;

/// Number of values per PFOR/PFOR-DELTA block.  128 keeps the per-block
/// header (base + exception count) under one bit per value.
pub const BLOCK_LEN: usize = 128;

// ---------------------------------------------------------------------
// Decode-under-lock guard.
// ---------------------------------------------------------------------

thread_local! {
    /// Depth of "decoding is forbidden here" scopes on this thread.
    static DECODE_FORBIDDEN: Cell<u32> = const { Cell::new(0) };
}

/// RAII token marking the current thread as *forbidden to decode* (the
/// threaded executor holds one for the lifetime of every hub-lock guard).
/// Dropping it re-allows decoding.
#[derive(Debug)]
pub struct DecodeForbidden(());

impl Drop for DecodeForbidden {
    fn drop(&mut self) {
        DECODE_FORBIDDEN.with(|c| c.set(c.get() - 1));
    }
}

/// Forbids payload decoding on this thread until the returned token drops.
///
/// The executor's invariant "never decode under the hub lock" is enforced
/// by taking a token whenever the lock is held; [`assert_decode_allowed`]
/// fires (in debug builds) if a decode happens inside such a scope.
pub fn forbid_decode() -> DecodeForbidden {
    DECODE_FORBIDDEN.with(|c| c.set(c.get() + 1));
    DecodeForbidden(())
}

/// Whether a [`DecodeForbidden`] token is alive on this thread — for the
/// executor, whether the thread holds its scheduler lock.
pub fn decode_forbidden() -> bool {
    DECODE_FORBIDDEN.with(|c| c.get()) > 0
}

/// Debug-asserts that the current thread is allowed to decode (i.e. it does
/// not hold the executor's hub lock).  Called by every decode entry point.
pub fn assert_decode_allowed() {
    debug_assert!(
        !decode_forbidden(),
        "payload decode attempted while decoding is forbidden on this thread \
         (the executor must never decode under the hub lock)"
    );
}

// ---------------------------------------------------------------------
// Bit packing.
// ---------------------------------------------------------------------

/// Packs `fields`, each `bits` wide (`1..=64`), into `out` in little-endian
/// bit order: field `i` takes bits `i·bits ..` of the stream, which
/// [`unpack`] reads back.  `out` is exactly the fields' [`packed_len`].
/// The fields fill a `u64` that is stored whole each time it is full — one
/// 8-byte store per 64 bits packed — and only the last, partial word is cut
/// to the bytes it covers.
#[inline(always)]
fn pack(out: &mut [u8], bits: u32, fields: impl Iterator<Item = u64>) {
    debug_assert!((1..=64).contains(&bits));
    let (mut word, mut filled, mut at) = (0u64, 0u32, 0usize);
    for field in fields {
        debug_assert!(bits == 64 || field >> bits == 0, "field does not fit");
        word |= field << filled;
        filled += bits;
        if filled >= 64 {
            out[at..at + 8].copy_from_slice(&word.to_le_bytes());
            at += 8;
            filled -= 64;
            // The field's bits that did not fit (none if it ended the word:
            // two shifts, as one by `bits - filled` could be by 64).
            word = field >> 1 >> (bits - filled - 1);
        }
    }
    let rest = &mut out[at..];
    debug_assert_eq!(
        rest.len(),
        filled.div_ceil(8) as usize,
        "out is the packed length"
    );
    rest.copy_from_slice(&word.to_le_bytes()[..rest.len()]);
}

/// A packed width read from an encoded body: `1..=64`, or the body is
/// corrupt (a shift by it would overflow, and 0 bits carry no values).
fn checked_width(byte: u8) -> usize {
    assert!(
        (1..=64).contains(&byte),
        "corrupt encoded column: packed width {byte}"
    );
    byte as usize
}

/// Appends to `out` the first `count` values of `bits` width packed in
/// `bytes` (little-endian bit order, the inverse of [`pack`]), each passed
/// through `map`.  `bytes` starts at the first value and may run on past
/// the last one.  The width is matched once, to the copy of the group
/// kernel ([`unpack_groups`]) compiled for it.
///
/// # Panics
/// Panics if `bytes` is shorter than `count` packed values.
fn unpack(bytes: &[u8], bits: usize, count: usize, out: &mut Vec<i64>, map: impl Fn(u64) -> i64) {
    assert!(
        bytes.len() >= packed_len(count, bits),
        "corrupt encoded column: packed values run past the body"
    );
    macro_rules! by_width {
        ($($b:literal)*) => {
            match bits {
                $($b => unpack_groups::<$b>(bytes, count, out, map),)*
                _ => unreachable!("a packed width is 1..=64"),
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
        62 63 64
    );
}

/// Bytes the loads of a group of eight `b`-bit values span from the
/// group's first byte: its last value starts in byte `7·b / 8`, at bit
/// 0..=7 of it, so a `u64` load holds it up to 56 bits and a `u128` one
/// above.
const fn group_reach(b: usize) -> usize {
    7 * b / 8 + if b <= 56 { 8 } else { 16 }
}

/// [`unpack`] at width `B`.  Eight `B`-bit values take exactly `B` bytes,
/// so every group of eight starts on a byte boundary and decodes the same
/// way: a value is one load at a byte offset fixed at compile time, a
/// constant shift and a mask.  Groups are decoded straight from `bytes`
/// while their loads stay inside it; the rest — fewer than
/// [`group_reach`] bytes — goes through the same kernel over a
/// zero-padded copy, of which a last, partial group keeps the values
/// asked for.  Each value is written to `out` once.
fn unpack_groups<const B: usize>(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<i64>,
    map: impl Fn(u64) -> i64,
) {
    let group = |bytes: &[u8]| -> [i64; 8] {
        let bytes = &bytes[..group_reach(B)];
        let mask = u64::MAX >> (64 - B);
        let mut values = [0i64; 8];
        for (k, v) in values.iter_mut().enumerate() {
            let (at, shift) = (k * B / 8, k * B % 8);
            let value = if B <= 56 {
                u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) >> shift
            } else {
                (u128::from_le_bytes(bytes[at..at + 16].try_into().unwrap()) >> shift) as u64
            };
            *v = map(value & mask);
        }
        values
    };
    // Decodes `n` groups from `bytes`, first cut to their loads' extent so
    // that one bounds check up front covers the loop's.
    let groups = |bytes: &[u8], n: usize, out: &mut Vec<i64>| {
        if n == 0 {
            return;
        }
        let bytes = &bytes[..(n - 1) * B + group_reach(B)];
        for at in (0..n).map(|g| g * B) {
            out.extend_from_slice(&group(&bytes[at..]));
        }
    };
    // Group g loads bytes g·B .. g·B + reach.
    let full = count / 8;
    let direct = match bytes.len().checked_sub(group_reach(B)) {
        Some(last) => (last / B + 1).min(full),
        None => 0,
    };
    groups(bytes, direct, out);
    if direct * 8 < count {
        // Fewer than `reach` bytes are left, and the last group starts
        // among them, so its loads end inside twice that.
        let (from, end) = (direct * B, packed_len(count, B));
        let mut tail = [0u8; 2 * group_reach(64)];
        tail[..end - from].copy_from_slice(&bytes[from..end]);
        groups(&tail, full - direct, out);
        let rest = count % 8;
        if rest > 0 {
            out.extend_from_slice(&group(&tail[(full - direct) * B..])[..rest]);
        }
    }
}

/// Bytes needed to pack `count` values of `bits` width.
fn packed_len(count: usize, bits: usize) -> usize {
    (count * bits).div_ceil(8)
}

// ---------------------------------------------------------------------
// Payload integrity checksum.
// ---------------------------------------------------------------------

/// Independent mixing chains [`checksum64`] runs side by side.
const CHECKSUM_LANES: usize = 8;
/// Bytes per checksum block: one little-endian word for each lane.
const CHECKSUM_BLOCK: usize = 8 * CHECKSUM_LANES;
/// The lanes' starting states (the SHA-512 initial hash values: eight
/// unrelated constants nobody chose for their effect on this function).
const LANE_SEEDS: [u64; CHECKSUM_LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
    0x510E_527F_ADE6_82D1,
    0x9B05_688C_2B3E_6C1F,
    0x1F83_D9AB_FB41_BD6B,
    0x5BE0_CD19_137E_2179,
];

/// One mixing step: absorbs word `w` into state `h`.  For a fixed `w` it is
/// a bijection of `h` (xor, multiplication by an odd constant and a
/// xor-shift are each invertible), and for a fixed `h` a bijection of `w` —
/// the two facts the guarantee of [`checksum64`] rests on.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^ (h >> 29)
}

/// The little-endian word in an exact 8-byte slice.
#[inline(always)]
fn le_word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("exact 8-byte chunk"))
}

/// The little-endian value in an exact 8-byte slice.
#[inline(always)]
fn le_i64(w: &[u8]) -> i64 {
    le_word(w) as i64
}

/// Absorbs `bytes` (fewer than [`CHECKSUM_BLOCK`]) into `h`, one
/// little-endian word at a time, the last one zero-padded.
fn mix_tail(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, le_word(w));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

/// A fast 64-bit integrity checksum over a byte stream (CRC-class error
/// detection at memory bandwidth).  Its value is stored in segment files
/// (extent and directory checksums), so the definition below is part of
/// on-disk format version 2 and pinned by a table of golden values.
///
/// **Definition.**  The input is cut into 64-byte blocks of eight
/// little-endian words.  Word `j` of every block is absorbed into lane `j`
/// — eight chains `h = (h ^ w)·MIX; h ^= h >> 29`, each started from its
/// own seed — so the eight multiplications of a block do not wait for one
/// another (a single chain is bound by the latency of its multiply, a third
/// of memory speed; eight are bound by memory).  The result is one more
/// chain of the same step over, in this order: lane 0 … lane 7, the input
/// length, then the words of the tail shorter than a block (the last word
/// zero-padded).
///
/// **Guarantee.**  The step is a bijection of the state for any word and of
/// the word for any state.  A change confined to one aligned word therefore
/// changes its lane (or, in the tail, the final chain) *with certainty*,
/// every later step of that chain keeps two different states different, and
/// the fold absorbs the lane as a word — so the checksum changes with
/// certainty: every single-bit flip and every burst inside a word is
/// caught.  Anything else (several words, another length, words moved
/// within or across the differently seeded, order-sensitively folded lanes)
/// changes it with probability `1 − 2⁻⁶⁴`.  Not cryptographic: it detects
/// accidents, not adversaries.
///
/// Chosen over a table-driven CRC32 because the load path verifies every
/// byte it reads, and a word-at-a-time mix runs an order of magnitude faster than a
/// byte-wise table walk (the 5% overhead budget of the fault-free path is
/// real).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(CHECKSUM_BLOCK);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(w));
        }
    }
    let folded = lanes.iter().fold(0x9E37_79B9_7F4A_7C15, |h, &l| mix(h, l));
    mix_tail(mix(folded, bytes.len() as u64), blocks.remainder())
}

// ---------------------------------------------------------------------
// Byte-stream helpers.
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` as little-endian words: one bulk copy of their own
/// bytes on a little-endian target, a conversion a word at a time
/// elsewhere (the choice `SegmentWriter` makes for a plain extent).
fn put_i64s(out: &mut Vec<u8>, values: &[i64]) {
    if cfg!(target_endian = "little") {
        out.extend_from_slice(ne_bytes(values));
    } else {
        values.iter().for_each(|&v| put_i64(out, v));
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.bytes[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        v
    }

    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    fn i64(&mut self) -> i64 {
        let v = i64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.rest()[..n];
        self.pos += n;
        s
    }

    /// Everything not yet consumed.
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

// ---------------------------------------------------------------------
// The encoded-column container.
// ---------------------------------------------------------------------

/// Wire codec of an encoded column.  Chosen from the column's
/// [`Compression`] scheme at encode time and stored in the byte stream, so
/// decoding is self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireCodec {
    /// Uncompressed little-endian `i64`s.
    Raw,
    /// Dictionary codes over a sorted distinct-value table.
    Dict,
    /// Patched frame-of-reference blocks.
    Pfor,
    /// PFOR over the wrapping first-difference.
    PforDelta,
}

impl WireCodec {
    fn tag(self) -> u8 {
        match self {
            WireCodec::Raw => 0,
            WireCodec::Dict => 1,
            WireCodec::Pfor => 2,
            WireCodec::PforDelta => 3,
        }
    }

    fn from_tag(tag: u8) -> WireCodec {
        match tag {
            0 => WireCodec::Raw,
            1 => WireCodec::Dict,
            2 => WireCodec::Pfor,
            3 => WireCodec::PforDelta,
            t => panic!("corrupt encoded column: unknown codec tag {t}"),
        }
    }
}

/// One mini-column of one chunk, encoded.
///
/// The container is cheap to clone ([`std::sync::Arc`]d bytes would be
/// cheaper still, but encoded columns are wrapped in
/// [`crate::chunkdata::LazyColumn`]'s `Arc` anyway).  Use
/// [`EncodedColumn::decode`] to materialize the values; decoding asserts
/// [`assert_decode_allowed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedColumn {
    rows: usize,
    bytes: Vec<u8>,
    /// [`checksum64`] of `bytes` as computed at encode time.  Verified at
    /// payload install, before anything is decoded, so a corrupted read
    /// surfaces as a retryable fault instead of a decoder panic.
    checksum: u64,
}

impl EncodedColumn {
    /// Encodes `values` under `scheme`.
    ///
    /// Encoding is total: any `i64` data round-trips under any scheme
    /// (values that do not fit the configured width become exceptions; a
    /// dictionary always holds every distinct value).
    pub fn encode(values: &[i64], scheme: Compression) -> EncodedColumn {
        let bytes = match scheme {
            Compression::None => {
                let mut bytes = Vec::with_capacity(1 + 8 * values.len());
                bytes.push(WireCodec::Raw.tag());
                put_i64s(&mut bytes, values);
                bytes
            }
            Compression::Dictionary { .. } => encode_dict(values),
            Compression::Pfor { bits, .. } => encode_for_blocks(values, clamp_bits(bits), false),
            Compression::PforDelta { bits, .. } => {
                encode_for_blocks(values, clamp_bits(bits), true)
            }
        };
        let checksum = checksum64(&bytes);
        EncodedColumn {
            rows: values.len(),
            bytes,
            checksum,
        }
    }

    /// Reassembles a column from stored parts — the segment-file read path.
    ///
    /// `checksum` is the integrity checksum *recorded at encode time* (a
    /// segment footer carries it alongside the extent), not one recomputed
    /// from `bytes`: a byte damaged on disk or in flight must make
    /// [`EncodedColumn::verify_checksum`] fail at payload install, exactly
    /// as it does for a torn in-memory read.  Returns `None` when the bytes
    /// cannot possibly be an encoded column (empty, or an unknown leading
    /// wire-codec tag) so a reader can map that to a corruption error
    /// instead of panicking inside the decoder.
    pub fn from_parts(rows: usize, bytes: Vec<u8>, checksum: u64) -> Option<EncodedColumn> {
        match bytes.first() {
            Some(&tag) if tag <= WireCodec::PforDelta.tag() => Some(EncodedColumn {
                rows,
                bytes,
                checksum,
            }),
            _ => None,
        }
    }

    /// The encoded byte stream (leading wire-codec tag included) — what a
    /// segment writer persists verbatim.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The wire-codec tag byte (the first encoded byte), for directory
    /// metadata that wants to name the codec without decoding.
    pub fn wire_tag(&self) -> u8 {
        self.bytes[0]
    }

    /// Number of values in the column (known without decoding).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The integrity checksum recorded at encode time.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum of the current bytes and compares it to the
    /// one recorded at encode time.  `false` means the bytes were damaged
    /// in flight (treat as a transient storage fault, not a panic).
    pub fn verify_checksum(&self) -> bool {
        checksum64(&self.bytes) == self.checksum
    }

    /// A copy of this column with one byte flipped and the *original*
    /// checksum kept — a torn read, as a fault injector would produce it.
    /// `selector` picks (deterministically) which byte and which bit.
    pub fn with_flipped_byte(&self, selector: u64) -> EncodedColumn {
        let mut bytes = self.bytes.clone();
        if !bytes.is_empty() {
            let idx = (selector as usize) % bytes.len();
            bytes[idx] ^= 1u8 << ((selector >> 32) % 8);
        }
        EncodedColumn {
            rows: self.rows,
            bytes,
            checksum: self.checksum,
        }
    }

    /// A copy of this column cut to half its bytes under a checksum
    /// *recomputed over the cut* — what a buggy writer leaves behind, and
    /// the fault the checksum cannot see: it verifies, and decoding it
    /// panics (the body ends before its rows do).
    pub fn truncated(&self) -> EncodedColumn {
        let bytes = self.bytes[..self.bytes.len() / 2].to_vec();
        EncodedColumn {
            rows: self.rows,
            checksum: checksum64(&bytes),
            bytes,
        }
    }

    /// Encoded size in bytes (the column's physical I/O volume).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Average encoded width in bits per value (∞-safe: 0 for empty).
    pub fn bits_per_value(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.bytes.len() as f64 * 8.0 / self.rows as f64
        }
    }

    /// Decodes the column back to its values.
    ///
    /// This is the CPU cost that lightweight compression trades against
    /// I/O volume; callers must not hold the executor's hub lock
    /// (debug-asserted via [`assert_decode_allowed`]).
    pub fn decode(&self) -> Vec<i64> {
        assert_decode_allowed();
        let mut out = Vec::with_capacity(self.rows);
        self.decode_into(&mut out);
        out
    }

    /// Decodes into a caller-provided buffer (cleared first).
    pub fn decode_into(&self, out: &mut Vec<i64>) {
        assert_decode_allowed();
        out.clear();
        out.reserve(self.rows);
        let codec = WireCodec::from_tag(self.bytes[0]);
        let body = &self.bytes[1..];
        match codec {
            // One bulk little-endian copy.
            WireCodec::Raw => out.extend(body[..self.rows * 8].chunks_exact(8).map(le_i64)),
            WireCodec::Dict => decode_dict(body, self.rows, out),
            WireCodec::Pfor => decode_for_blocks(body, self.rows, false, out),
            WireCodec::PforDelta => decode_for_blocks(body, self.rows, true, out),
        }
    }
}

/// The packed width actually used for a scheme's `bits` parameter
/// (clamped to `1..=64`; a 0-bit request still needs 1 bit per offset).
fn clamp_bits(bits: u8) -> u32 {
    (bits as u32).clamp(1, 64)
}

// ---------------------------------------------------------------------
// PFOR blocks.
// ---------------------------------------------------------------------

/// Encodes `values` — or, under `delta`, their wrapping first difference
/// (`d[0] = v[0]`) — as the tagged body of patched frame-of-reference
/// blocks of [`BLOCK_LEN`] values: the width byte, then per block `u16 len,
/// i64 base, u16 n_exceptions, packed offsets, exceptions (u16 in-block
/// position + i64 raw value)`.  The differences are taken a block at a
/// time, into a block-sized buffer.  The output is allocated once, at the
/// body's length without exceptions; only exceptions grow it.
fn encode_for_blocks(values: &[i64], bits: u32, delta: bool) -> Vec<u8> {
    let packed = |rows| packed_len(rows, bits as usize);
    let blocks = values.len().div_ceil(BLOCK_LEN);
    let full = values.len() / BLOCK_LEN;
    let mut out = Vec::with_capacity(
        2 + 12 * blocks + full * packed(BLOCK_LEN) + packed(values.len() % BLOCK_LEN),
    );
    let codec = if delta {
        WireCodec::PforDelta
    } else {
        WireCodec::Pfor
    };
    out.extend_from_slice(&[codec.tag(), bits as u8]);
    if delta {
        let (mut deltas, mut prev) = ([0i64; BLOCK_LEN], 0i64);
        for block in values.chunks(BLOCK_LEN) {
            for (d, &v) in deltas.iter_mut().zip(block) {
                *d = v.wrapping_sub(prev);
                prev = v;
            }
            encode_block(&deltas[..block.len()], bits, &mut out);
        }
    } else {
        for block in values.chunks(BLOCK_LEN) {
            encode_block(block, bits, &mut out);
        }
    }
    out
}

/// Appends one PFOR block of [`encode_for_blocks`]' layout.  When the
/// block's range fits the width, which the block's minimum and maximum
/// tell, its offsets are packed untested; otherwise each value's offset is
/// tested once, as it is packed: one that does not fit packs as 0 and is
/// noted as an exception, and the exception count is filled into the
/// header after.
fn encode_block(block: &[i64], bits: u32, out: &mut Vec<u8>) {
    let (base, max) = min_max(block);
    let max_offset = u64::MAX >> (64 - bits);
    let header = out.len();
    let body = header + 12;
    out.resize(body + packed_len(block.len(), bits as usize), 0);
    out[header..header + 2].copy_from_slice(&(block.len() as u16).to_le_bytes());
    out[header + 2..header + 10].copy_from_slice(&base.to_le_bytes());
    if max.wrapping_sub(base) as u64 <= max_offset {
        let offsets = block.iter().map(|&v| v.wrapping_sub(base) as u64);
        pack(&mut out[body..], bits, offsets);
        return;
    }
    let (mut exceptions, mut n_exc) = ([0u16; BLOCK_LEN], 0usize);
    let offsets = block.iter().enumerate().map(|(i, &v)| {
        let offset = v.wrapping_sub(base) as u64;
        let fits = offset <= max_offset;
        exceptions[n_exc] = i as u16;
        n_exc += usize::from(!fits);
        if fits {
            offset
        } else {
            0
        }
    });
    pack(&mut out[body..], bits, offsets);
    out[header + 10..body].copy_from_slice(&(n_exc as u16).to_le_bytes());
    for &i in &exceptions[..n_exc] {
        put_u16(out, i);
        put_i64(out, block[i as usize]);
    }
}

/// The minimum and maximum of non-empty `values`, kept in four lanes so
/// that a compare need not wait for the one before it.
fn min_max(values: &[i64]) -> (i64, i64) {
    debug_assert!(!values.is_empty(), "a minimum needs a value");
    let (mut lo, mut hi) = ([i64::MAX; 4], [i64::MIN; 4]);
    let mut quads = values.chunks_exact(4);
    for quad in &mut quads {
        for k in 0..4 {
            lo[k] = lo[k].min(quad[k]);
            hi[k] = hi[k].max(quad[k]);
        }
    }
    let start = (
        lo.into_iter().fold(i64::MAX, i64::min),
        hi.into_iter().fold(i64::MIN, i64::max),
    );
    quads
        .remainder()
        .iter()
        .fold(start, |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Decodes [`encode_for_blocks`]' output, appending `rows` values to `out`.
/// Each block is unpacked, then patched from its exception list; under
/// `delta` it is then prefix-summed in place (carrying the running value
/// across blocks) while it is still in cache.
fn decode_for_blocks(body: &[u8], rows: usize, delta: bool, out: &mut Vec<i64>) {
    let bits = checked_width(body[0]);
    let mut c = Cursor::new(&body[1..]);
    let end = out.len() + rows;
    let mut acc = 0i64;
    while out.len() < end {
        let len = c.u16() as usize;
        assert!(
            len <= end - out.len(),
            "corrupt encoded column: blocks hold more than {rows} rows"
        );
        let base = c.i64();
        let n_exc = c.u16() as usize;
        let start = out.len();
        // The unpack may load past the block's packed values, into the
        // exception list and the next block, but never past the body.
        unpack(c.rest(), bits, len, out, |off| {
            base.wrapping_add(off as i64)
        });
        c.take(packed_len(len, bits));
        let block = &mut out[start..];
        for _ in 0..n_exc {
            let pos = c.u16() as usize;
            block[pos] = c.i64();
        }
        if delta {
            for v in block {
                acc = acc.wrapping_add(*v);
                *v = acc;
            }
        }
    }
}

// ---------------------------------------------------------------------
// PDICT.
// ---------------------------------------------------------------------

/// Bits needed to address `n` dictionary entries (at least 1).
fn code_width(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Encodes `values` as the tagged body `u32 dict_len, dict (i64 each,
/// sorted), u8 width, packed codes`, where a value's code is its rank in
/// the dictionary.  The dictionary holds every distinct value, so encoding
/// is lossless regardless of the scheme's modelled code width.
///
/// A column whose values span fewer integers than it has values (flags,
/// quantities, discounts: every PDICT column of the lineitem demo table)
/// is ranked in one pass: its values are marked in a table indexed by the
/// offset from its minimum, whose prefix count turns the marks into ranks.
/// Any other column sorts a copy of itself and binary-searches each value.
/// Either way the output is allocated once, at its exact length.
fn encode_dict(values: &[i64]) -> Vec<u8> {
    if values.is_empty() {
        return dict_body(&[], 0, std::iter::empty());
    }
    let (lo, hi) = min_max(values);
    let span = hi.wrapping_sub(lo) as u64;
    if span < values.len() as u64 {
        let mut rank = vec![0u32; span as usize + 1];
        values
            .iter()
            .for_each(|&v| rank[v.wrapping_sub(lo) as usize] = 1);
        let mut dict = Vec::new();
        for (offset, r) in rank.iter_mut().enumerate() {
            if *r != 0 {
                *r = dict.len() as u32;
                dict.push(lo.wrapping_add(offset as i64));
            }
        }
        let codes = values
            .iter()
            .map(|&v| u64::from(rank[v.wrapping_sub(lo) as usize]));
        return dict_body(&dict, values.len(), codes);
    }
    let mut dict = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    let codes = values.iter().map(|v| {
        let rank = dict.binary_search(v);
        rank.expect("every value is in the dictionary") as u64
    });
    dict_body(&dict, values.len(), codes)
}

/// The tagged PDICT body of [`encode_dict`] for `dict` and the `rows`
/// values' `codes`.
fn dict_body(dict: &[i64], rows: usize, codes: impl Iterator<Item = u64>) -> Vec<u8> {
    let width = code_width(dict.len());
    let packed_at = 1 + 4 + 8 * dict.len() + 1;
    let len = packed_at + packed_len(rows, width as usize);
    let mut out = Vec::with_capacity(len);
    out.push(WireCodec::Dict.tag());
    put_u32(&mut out, dict.len() as u32);
    put_i64s(&mut out, dict);
    out.push(width as u8);
    out.resize(len, 0);
    pack(&mut out[packed_at..], width, codes);
    out
}

fn decode_dict(body: &[u8], rows: usize, out: &mut Vec<i64>) {
    let mut c = Cursor::new(body);
    let dict_len = c.u32() as usize;
    // Bound the length by the bytes that are there *before* allocating
    // for it: a failed 32 GiB allocation aborts, which nothing contains.
    assert!(
        dict_len <= c.rest().len() / 8,
        "corrupt encoded column: a {dict_len}-entry dictionary does not fit the body"
    );
    let dict: Vec<i64> = c.take(dict_len * 8).chunks_exact(8).map(le_i64).collect();
    let width = checked_width(c.take(1)[0]);
    unpack(c.rest(), width, rows, out, |code| dict[code as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reader the codecs shipped with: it refills a
    /// `u128` one byte at a time and hands out one value per call.  Kept as
    /// the oracle [`unpack`] is proptested against.
    struct BitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
        acc: u128,
        nbits: u32,
    }

    impl<'a> BitReader<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Self {
                bytes,
                pos: 0,
                acc: 0,
                nbits: 0,
            }
        }

        fn pull(&mut self, bits: u32) -> u64 {
            assert!((1..=64).contains(&bits));
            while self.nbits < bits {
                let byte = self.bytes[self.pos];
                self.pos += 1;
                self.acc |= (byte as u128) << self.nbits;
                self.nbits += 8;
            }
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let v = (self.acc as u64) & mask;
            self.acc >>= bits;
            self.nbits -= bits;
            v
        }
    }

    /// Appends `bits`-wide values to `out`, little-endian bit order: the
    /// byte-at-a-time writer the codecs shipped with, which shifts each
    /// value into a `u128` and pushes the bytes it completes one by one.
    /// Kept as the packer of [`reference_encode`].
    struct BitWriter<'a> {
        out: &'a mut Vec<u8>,
        acc: u128,
        nbits: u32,
    }

    impl<'a> BitWriter<'a> {
        fn new(out: &'a mut Vec<u8>) -> Self {
            Self {
                out,
                acc: 0,
                nbits: 0,
            }
        }

        fn push(&mut self, v: u64, bits: u32) {
            assert!((1..=64).contains(&bits));
            assert!(bits == 64 || v < (1u64 << bits), "value does not fit");
            self.acc |= (v as u128) << self.nbits;
            self.nbits += bits;
            while self.nbits >= 8 {
                self.out.push(self.acc as u8);
                self.acc >>= 8;
                self.nbits -= 8;
            }
        }

        fn finish(self) {
            if self.nbits > 0 {
                self.out.push(self.acc as u8);
            }
        }
    }

    /// The encoder the codecs shipped with, kept as the oracle
    /// [`EncodedColumn::encode`] is checked against byte for byte: a raw
    /// column a `put_i64` per value; PFOR-DELTA over a first-difference
    /// copy of the whole column; PFOR testing each value's fit in a
    /// counting pass, a packing pass and an exception pass; PDICT sorting a
    /// copy of the column and binary-searching every value.
    fn reference_encode(values: &[i64], scheme: Compression) -> Vec<u8> {
        let mut out = Vec::new();
        match scheme {
            Compression::None => {
                out.push(WireCodec::Raw.tag());
                values.iter().for_each(|&v| put_i64(&mut out, v));
            }
            Compression::Dictionary { .. } => {
                out.push(WireCodec::Dict.tag());
                let mut dict = values.to_vec();
                dict.sort_unstable();
                dict.dedup();
                put_u32(&mut out, dict.len() as u32);
                dict.iter().for_each(|&v| put_i64(&mut out, v));
                let width = code_width(dict.len());
                out.push(width as u8);
                let mut w = BitWriter::new(&mut out);
                for &v in values {
                    let code = dict.binary_search(&v).expect("value is in the dictionary");
                    w.push(code as u64, width);
                }
                w.finish();
            }
            Compression::Pfor { bits, .. } => {
                out.push(WireCodec::Pfor.tag());
                reference_for_blocks(values, clamp_bits(bits), &mut out);
            }
            Compression::PforDelta { bits, .. } => {
                out.push(WireCodec::PforDelta.tag());
                let mut prev = 0i64;
                let deltas: Vec<i64> = values
                    .iter()
                    .map(|&v| (v.wrapping_sub(prev), prev = v).0)
                    .collect();
                reference_for_blocks(&deltas, clamp_bits(bits), &mut out);
            }
        }
        out
    }

    /// The PFOR blocks of [`reference_encode`].
    fn reference_for_blocks(values: &[i64], bits: u32, out: &mut Vec<u8>) {
        out.push(bits as u8);
        for block in values.chunks(BLOCK_LEN) {
            let base = block.iter().copied().min().unwrap_or(0);
            put_u16(out, block.len() as u16);
            put_i64(out, base);
            let fits = |v: i64| -> bool {
                let off = v.wrapping_sub(base) as u64;
                bits == 64 || off < (1u64 << bits)
            };
            let n_exc = block.iter().filter(|&&v| !fits(v)).count();
            put_u16(out, n_exc as u16);
            let mut w = BitWriter::new(out);
            for &v in block {
                let off = if fits(v) {
                    v.wrapping_sub(base) as u64
                } else {
                    0
                };
                w.push(off, bits);
            }
            w.finish();
            for (i, &v) in block.iter().enumerate() {
                if !fits(v) {
                    put_u16(out, i as u16);
                    put_i64(out, v);
                }
            }
        }
    }

    /// Column shapes the byte-identity properties draw from.
    const SHAPES: usize = 6;

    /// A `len`-value column of shape `shape` for a `bits`-wide scheme:
    /// offsets that fit the width; blocks whose every value but the
    /// minimum is an exception; full-width noise; one value throughout;
    /// values from `{i64::MIN, i64::MAX, 0, -1, 1}` (so the deltas sit at
    /// both ends of `i64`); a clustered ascending key.
    fn shaped_column(shape: usize, bits: u32, len: usize, state: &mut u64) -> Vec<i64> {
        let mask = u64::MAX >> (64 - bits);
        let base = splitmix(state) as i64;
        let mut key = base;
        (0..len)
            .map(|i| {
                let r = splitmix(state);
                match shape {
                    0 => base.wrapping_add((r & mask) as i64),
                    1 if i % BLOCK_LEN == 0 => i64::MIN,
                    1 => i64::MIN
                        .wrapping_add(mask.wrapping_add(1) as i64)
                        .wrapping_add((r >> 2) as i64),
                    2 => r as i64,
                    3 => base,
                    4 => [i64::MIN, i64::MAX, 0, -1, 1][(r % 5) as usize],
                    _ => {
                        key = key.wrapping_add((r % 4) as i64);
                        key
                    }
                }
            })
            .collect()
    }

    /// Asserts that every scheme (PFOR and PFOR-DELTA at `bits`) encodes
    /// `values` to the reference encoder's bytes and checksum.
    fn assert_reference_bytes(values: &[i64], bits: u8) -> Result<(), TestCaseError> {
        for scheme in [
            Compression::None,
            Compression::Dictionary { bits },
            Compression::Pfor {
                bits,
                exception_rate: 0.0,
            },
            Compression::PforDelta {
                bits,
                exception_rate: 0.0,
            },
        ] {
            let enc = EncodedColumn::encode(values, scheme);
            let want = reference_encode(values, scheme);
            prop_assert_eq!(
                enc.as_bytes(),
                &want[..],
                "{:?}, {} values: {:?}",
                scheme,
                values.len(),
                values
            );
            prop_assert_eq!(enc.checksum(), checksum64(&want));
            prop_assert_eq!(enc.rows(), values.len());
        }
        Ok(())
    }

    /// Every width, every shape, and the lengths at the block edges: empty,
    /// a single value, a block less one, one, and one plus a single-value
    /// block, up to three blocks and a single-value fourth.
    #[test]
    fn encode_writes_the_reference_bytes_at_every_width_and_block_edge() {
        let mut state = 0xB10C_u64;
        let n = BLOCK_LEN;
        for bits in 1..=64u8 {
            for len in [0, 1, 2, n - 1, n, n + 1, 2 * n, 2 * n + 1, 3 * n + 1] {
                for shape in 0..SHAPES {
                    let values = shaped_column(shape, bits as u32, len, &mut state);
                    assert_reference_bytes(&values, bits).unwrap();
                }
            }
        }
    }

    /// A dictionary of 20 000 distinct values, each its own code.
    #[test]
    fn dict_of_all_distinct_values_writes_the_reference_bytes() {
        let mut state = 0xD15_7111C7_u64;
        let values: Vec<i64> = (0..20_000).map(|_| splitmix(&mut state) as i64).collect();
        let enc = EncodedColumn::encode(&values, Compression::Dictionary { bits: 15 });
        assert_eq!(
            enc.as_bytes(),
            reference_encode(&values, Compression::Dictionary { bits: 15 })
        );
        assert_eq!(enc.decode(), values);
    }

    /// Decodes an encoded column the way the parent of the word-at-a-time
    /// unpack did: `BitReader::pull` and `push` per value, exceptions
    /// patched after each block, the prefix sum as a last pass.
    fn oracle_decode(enc: &EncodedColumn) -> Vec<i64> {
        let body = &enc.bytes[1..];
        let mut out = Vec::new();
        match WireCodec::from_tag(enc.bytes[0]) {
            WireCodec::Raw => {
                let mut c = Cursor::new(body);
                out.extend((0..enc.rows).map(|_| c.i64()));
            }
            WireCodec::Dict => {
                let mut c = Cursor::new(body);
                let dict: Vec<i64> = (0..c.u32()).map(|_| c.i64()).collect();
                let width = c.take(1)[0] as u32;
                let mut r = BitReader::new(c.rest());
                out.extend((0..enc.rows).map(|_| dict[r.pull(width) as usize]));
            }
            codec @ (WireCodec::Pfor | WireCodec::PforDelta) => {
                let bits = body[0] as u32;
                let mut c = Cursor::new(&body[1..]);
                while out.len() < enc.rows {
                    let len = c.u16() as usize;
                    let base = c.i64();
                    let n_exc = c.u16() as usize;
                    let mut r = BitReader::new(c.take(packed_len(len, bits as usize)));
                    let start = out.len();
                    for _ in 0..len {
                        out.push(base.wrapping_add(r.pull(bits) as i64));
                    }
                    for _ in 0..n_exc {
                        let pos = c.u16() as usize;
                        out[start + pos] = c.i64();
                    }
                }
                if codec == WireCodec::PforDelta {
                    let mut acc = 0i64;
                    for v in out.iter_mut() {
                        acc = acc.wrapping_add(*v);
                        *v = acc;
                    }
                }
            }
        }
        out
    }

    fn roundtrip(values: &[i64], scheme: Compression) -> EncodedColumn {
        let enc = EncodedColumn::encode(values, scheme);
        assert_eq!(enc.rows(), values.len());
        assert_eq!(enc.decode(), values, "{scheme:?} must round-trip");
        enc
    }

    #[test]
    fn raw_roundtrip_and_size() {
        let values: Vec<i64> = (0..1000).map(|i| i * 37 - 500).collect();
        let enc = roundtrip(&values, Compression::None);
        assert_eq!(enc.encoded_bytes(), 1 + 8 * 1000);
        assert!((enc.bits_per_value() - 64.0).abs() < 0.1);
    }

    #[test]
    fn pfor_roundtrip_no_exceptions() {
        // Offsets fit in 21 bits: no exceptions, ~21 bits/value + headers.
        let values: Vec<i64> = (0..4096)
            .map(|i| 1_000_000 + (i * 511) % (1 << 21))
            .collect();
        let enc = roundtrip(
            &values,
            Compression::Pfor {
                bits: 21,
                exception_rate: 0.0,
            },
        );
        let predicted = 21.0;
        assert!(
            enc.bits_per_value() < predicted + 2.0,
            "got {} bits/value",
            enc.bits_per_value()
        );
    }

    #[test]
    fn pfor_all_exceptions_block() {
        // A width-1 encoding of huge random-ish values: every value except
        // the block minimum is an exception; still lossless.
        let values: Vec<i64> = (0..300)
            .map(|i: i64| i.wrapping_mul(0x9E3779B97F4A7C15u64 as i64) ^ (i << 40))
            .collect();
        let enc = roundtrip(
            &values,
            Compression::Pfor {
                bits: 1,
                exception_rate: 1.0,
            },
        );
        // Exceptions cost ~80 bits each; the encoding must not be silently
        // lossy just because it ended up bigger than raw.
        assert!(enc.bits_per_value() > 64.0);
    }

    #[test]
    fn pfor_delta_on_sorted_data_is_tiny() {
        // A clustered key: ~4 rows per key, strictly non-decreasing.
        let values: Vec<i64> = (0..8192).map(|i| i / 4).collect();
        let enc = roundtrip(
            &values,
            Compression::PforDelta {
                bits: 3,
                exception_rate: 0.0,
            },
        );
        assert!(
            enc.bits_per_value() < 5.0,
            "sorted data must compress hard, got {} bits/value",
            enc.bits_per_value()
        );
    }

    #[test]
    fn pfor_delta_extreme_values_roundtrip() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX];
        roundtrip(
            &values,
            Compression::PforDelta {
                bits: 7,
                exception_rate: 0.0,
            },
        );
    }

    #[test]
    fn dict_roundtrip_and_size() {
        let values: Vec<i64> = (0..10_000).map(|i| [7, -3, 900, 12][i % 4]).collect();
        let enc = roundtrip(&values, Compression::Dictionary { bits: 2 });
        // 4 distinct values -> 2-bit codes; dictionary header amortizes out.
        assert!(
            enc.bits_per_value() < 3.0,
            "got {} bits/value",
            enc.bits_per_value()
        );
    }

    #[test]
    fn dict_single_value_column() {
        let values = vec![42i64; 500];
        let enc = roundtrip(&values, Compression::Dictionary { bits: 0 });
        // One entry still needs 1-bit codes (the clamp of `code_width`).
        assert!(enc.bits_per_value() < 2.0);
    }

    #[test]
    fn empty_column_roundtrips_under_every_scheme() {
        for scheme in [
            Compression::None,
            Compression::Dictionary { bits: 4 },
            Compression::Pfor {
                bits: 13,
                exception_rate: 0.1,
            },
            Compression::PforDelta {
                bits: 3,
                exception_rate: 0.1,
            },
        ] {
            let enc = roundtrip(&[], scheme);
            assert_eq!(enc.rows(), 0);
            assert_eq!(enc.bits_per_value(), 0.0);
        }
    }

    #[test]
    fn zero_bit_schemes_are_clamped_to_one() {
        let values: Vec<i64> = (0..200).map(|i| i % 2).collect();
        roundtrip(
            &values,
            Compression::Pfor {
                bits: 0,
                exception_rate: 0.0,
            },
        );
    }

    #[test]
    fn encoded_size_tracks_the_width_model() {
        // Data manufactured to the model's assumptions: offsets that fit in
        // `bits`, with an `exception_rate` fraction of full-width outliers.
        let bits = 21u8;
        let rate = 0.02f32;
        let n = 64 * 1024;
        let values: Vec<i64> = (0..n)
            .map(|i| {
                if i % 50 == 0 {
                    i64::MAX - i as i64 // outlier -> exception (1 in 50 = 2%)
                } else {
                    (i as i64 * 919) % (1 << 21)
                }
            })
            .collect();
        let scheme = Compression::Pfor {
            bits,
            exception_rate: rate,
        };
        let enc = roundtrip(&values, scheme);
        let predicted = scheme.physical_bits(crate::schema::ColumnType::Int64) as f64;
        // The model charges `bits + rate*64`; the real encoding adds a u16
        // patch position per exception and ~1 bit/value of block headers,
        // so actual lands slightly above the prediction but within a few
        // bits — close enough that the model's I/O volumes are honest.
        let actual = enc.bits_per_value();
        assert!(
            actual >= bits as f64 && actual <= predicted + 4.0,
            "predicted {predicted} bits/value, got {actual}"
        );
    }

    #[test]
    fn clean_columns_verify_and_flips_are_caught() {
        let values: Vec<i64> = (0..2048).map(|i| i * 17 - 9000).collect();
        for scheme in [
            Compression::None,
            Compression::Dictionary { bits: 11 },
            Compression::Pfor {
                bits: 17,
                exception_rate: 0.01,
            },
            Compression::PforDelta {
                bits: 6,
                exception_rate: 0.01,
            },
        ] {
            let enc = EncodedColumn::encode(&values, scheme);
            assert!(enc.verify_checksum(), "{scheme:?}: clean bytes verify");
            // Every deterministic flip position must be detected.
            for selector in [0u64, 1, 3 | (5 << 32), 12345, u64::MAX] {
                let torn = enc.with_flipped_byte(selector);
                assert!(
                    !torn.verify_checksum(),
                    "{scheme:?}: flip {selector:#x} must break the checksum"
                );
                assert_eq!(torn.rows(), enc.rows());
            }
        }
    }

    #[test]
    fn checksum64_is_length_and_content_sensitive() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"\0"), checksum64(b"\0\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
        assert_eq!(checksum64(b"abcdefgh"), checksum64(b"abcdefgh"));
    }

    /// The input the golden table is computed over: byte `i` is `31·i + 7`.
    fn golden_input(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// `checksum64` is stored in segment files.  If this table turns red the
    /// on-disk format changed: bump `SEGMENT_VERSION`, do not edit the
    /// numbers to match.
    #[test]
    fn checksum64_golden_values_pin_the_on_disk_definition() {
        for (len, want) in [
            (0usize, 0x9E0E_5C0F_E96B_2095u64),
            (1, 0x793B_C618_4FC9_CA69),
            (7, 0xA1B5_440D_F5F3_A4C3),
            (8, 0x169A_7162_8A02_2377),
            (63, 0x7541_A125_5CB1_FF1A),
            (64, 0xD01A_185D_1CFD_2316),
            (65, 0xC527_5505_BB2A_4017),
            (4096, 0x2833_636C_6D05_D96B),
        ] {
            let got = checksum64(&golden_input(len));
            assert_eq!(got, want, "{len} bytes: got {got:#018X}");
        }
    }

    /// The column the encoding goldens are computed over: 1 000 values
    /// drawn from seed `0x60_1DE7`, within 700 of 5 000 but for every 29th,
    /// which is a full-width outlier (an exception under PFOR, a jump
    /// under PFOR-DELTA).
    fn golden_column() -> Vec<i64> {
        let mut state = 0x60_1DE7_u64;
        (0..1000)
            .map(|i| {
                let r = splitmix(&mut state);
                if i % 29 == 28 {
                    r as i64
                } else {
                    5_000 + (r % 700) as i64
                }
            })
            .collect()
    }

    /// Encoded columns are stored in segment files, byte for byte.  If this
    /// table turns red the encoder no longer writes format version 2: make
    /// it write the same bytes again, or bump `SEGMENT_VERSION` — do not
    /// edit the numbers to match.
    #[test]
    fn encoding_golden_values_pin_the_on_disk_format() {
        let values = golden_column();
        let schemes = [
            Compression::None,
            Compression::Dictionary { bits: 10 },
            Compression::Pfor {
                bits: 10,
                exception_rate: 0.03,
            },
            Compression::PforDelta {
                bits: 11,
                exception_rate: 0.03,
            },
        ];
        let got: Vec<(usize, u64)> = schemes
            .iter()
            .map(|&scheme| {
                let enc = EncodedColumn::encode(&values, scheme);
                (enc.encoded_bytes(), checksum64(enc.as_bytes()))
            })
            .collect();
        let want: [(usize, u64); 4] = [
            (8001, 0x4069_6AAE_8282_5261),
            (5744, 0xC911_1AD4_9D1F_8752),
            (11268, 0x06EF_F6FC_22C9_70DE),
            (11393, 0x8342_D753_0F77_3896),
        ];
        assert_eq!(
            got, want,
            "(bytes, checksum) under {schemes:?}: got {got:#X?}"
        );
    }

    /// The doc comment of `checksum64`, transcribed word for word with
    /// indices instead of iterators.
    fn checksum64_by_the_book(bytes: &[u8]) -> u64 {
        let word = |at: usize| {
            let mut w = [0u8; 8];
            let end = (at + 8).min(bytes.len());
            w[..end - at].copy_from_slice(&bytes[at..end]);
            u64::from_le_bytes(w)
        };
        let step = |h: u64, w: u64| {
            let h = (h ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D);
            h ^ (h >> 29)
        };
        let blocks = bytes.len() / 64;
        let mut lanes = LANE_SEEDS;
        for block in 0..blocks {
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = step(*lane, word(block * 64 + j * 8));
            }
        }
        let mut h = 0x9E37_79B9_7F4A_7C15;
        for lane in lanes {
            h = step(h, lane);
        }
        h = step(h, bytes.len() as u64);
        for at in (blocks * 64..bytes.len()).step_by(8) {
            h = step(h, word(at));
        }
        h
    }

    #[test]
    fn checksum64_is_what_its_doc_comment_says() {
        let mut state = 0xD0C5_u64;
        for len in checksum_lengths() {
            let bytes = random_bytes(len, &mut state);
            assert_eq!(
                checksum64(&bytes),
                checksum64_by_the_book(&bytes),
                "{len} bytes"
            );
        }
    }

    /// SplitMix64: the deterministic stream the checksum properties draw
    /// contents and positions from.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(len: usize, state: &mut u64) -> Vec<u8> {
        (0..len).map(|_| splitmix(state) as u8).collect()
    }

    /// Every length the properties run over: 0..=300 (the tail on its own
    /// and the first blocks) and 9 either side of every further multiple of
    /// the block size up to 20 blocks.
    fn checksum_lengths() -> Vec<usize> {
        let mut lengths: Vec<usize> = (0..=300).collect();
        for blocks in 5..=20 {
            lengths.extend(blocks * CHECKSUM_BLOCK - 9..=blocks * CHECKSUM_BLOCK + 9);
        }
        lengths
    }

    fn word_at(bytes: &[u8], block: usize, lane: usize) -> [u8; 8] {
        let at = block * CHECKSUM_BLOCK + lane * 8;
        bytes[at..at + 8].try_into().unwrap()
    }

    fn swap_words(bytes: &mut [u8], a: (usize, usize), b: (usize, usize)) {
        let (wa, wb) = (word_at(bytes, a.0, a.1), word_at(bytes, b.0, b.1));
        let (at_a, at_b) = (
            a.0 * CHECKSUM_BLOCK + a.1 * 8,
            b.0 * CHECKSUM_BLOCK + b.1 * 8,
        );
        bytes[at_a..at_a + 8].copy_from_slice(&wb);
        bytes[at_b..at_b + 8].copy_from_slice(&wa);
    }

    #[test]
    fn checksum64_catches_every_single_bit_flip_up_to_300_bytes() {
        let mut state = 0xC0FF_EE00_u64;
        for len in 0..=300usize {
            let clean = random_bytes(len, &mut state);
            let sum = checksum64(&clean);
            assert_eq!(sum, checksum64(&clean.clone()), "equal inputs agree");
            let mut torn = clean.clone();
            for bit in 0..len * 8 {
                torn[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&torn), sum, "len {len}, bit {bit}");
                torn[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// A checksum-valid body as a buggy writer might produce it.
    fn hand_built(rows: usize, bytes: Vec<u8>) -> EncodedColumn {
        let sum = checksum64(&bytes);
        let enc = EncodedColumn::from_parts(rows, bytes, sum).expect("a known codec tag");
        assert!(enc.verify_checksum());
        enc
    }

    fn decode_panics(enc: &EncodedColumn) -> bool {
        decode_panic_message(enc).is_some()
    }

    /// The message `decode` panics with, or `None` if it returns.
    fn decode_panic_message(enc: &EncodedColumn) -> Option<String> {
        let payload = std::panic::catch_unwind(|| enc.decode()).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        Some(
            text.or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
        )
    }

    /// Lengths and widths read from the body are checked before they size
    /// an allocation, a shift or a slice: each malformed body panics (the
    /// failure the executor contains) — none aborts, none reads past the
    /// body, none returns a column of the wrong length.
    #[test]
    fn malformed_bodies_panic_instead_of_aborting_or_overreading() {
        let dict = |dict_len: u32, entries: &[i64], width: u8, codes: &[u8]| {
            let mut b = vec![WireCodec::Dict.tag()];
            put_u32(&mut b, dict_len);
            entries.iter().for_each(|&v| put_i64(&mut b, v));
            b.push(width);
            b.extend_from_slice(codes);
            b
        };
        // The well-formed twin decodes, so the cases below fail for the
        // stated reason and not for a slip in the hand-built layout.
        assert_eq!(
            hand_built(4, dict(2, &[7, 9], 1, &[0b0110])).decode(),
            vec![7, 9, 9, 7]
        );
        // A dictionary length the body cannot hold: 2^32 − 1 entries would
        // be a 32 GiB `with_capacity`.
        assert!(decode_panics(&hand_built(
            4,
            dict(u32::MAX, &[7, 9], 1, &[0b0110])
        )));
        assert!(decode_panics(&hand_built(
            4,
            dict(3, &[7, 9], 1, &[0b0110])
        )));
        // Code widths outside 1..=64.
        for width in [0, 65, 255] {
            assert!(decode_panics(&hand_built(
                4,
                dict(2, &[7, 9], width, &[0b0110; 40])
            )));
        }
        // A code that points past the dictionary; codes that stop early.
        assert!(decode_panics(&hand_built(
            4,
            dict(2, &[7, 9], 2, &[0b1110_0100])
        )));
        assert!(decode_panics(&hand_built(
            64,
            dict(2, &[7, 9], 1, &[0b0110])
        )));

        let pfor = |bits: u8, len: u16, n_exc: u16, rest: &[u8]| {
            let mut b = vec![WireCodec::Pfor.tag(), bits];
            put_u16(&mut b, len);
            put_i64(&mut b, 100);
            put_u16(&mut b, n_exc);
            b.extend_from_slice(rest);
            b
        };
        assert_eq!(
            hand_built(3, pfor(4, 3, 0, &[0x21, 0x03])).decode(),
            vec![101, 102, 103]
        );
        for bits in [0, 65, 255] {
            assert!(decode_panics(&hand_built(3, pfor(bits, 3, 0, &[0x21; 40]))));
        }
        // A block longer than the column, a truncated block, and an
        // exception patched outside its block.
        assert!(decode_panics(&hand_built(
            3,
            pfor(4, 5, 0, &[0x21, 0x03, 0x00])
        )));
        assert!(decode_panics(&hand_built(3, pfor(4, 3, 0, &[0x21]))));
        let mut exception = vec![0x21, 0x03];
        put_u16(&mut exception, 3);
        put_i64(&mut exception, -1);
        assert!(decode_panics(&hand_built(3, pfor(4, 3, 1, &exception))));
        // A raw column shorter than its row count.
        let mut raw = vec![WireCodec::Raw.tag()];
        put_i64(&mut raw, 5);
        assert_eq!(hand_built(1, raw.clone()).decode(), vec![5]);
        assert!(decode_panics(&hand_built(2, raw)));
        // A body cut at each byte of its last group of packed values — at
        // widths of both load sizes, with full and partial last groups —
        // fails the length check before any load could run past it.
        for bits in [1u8, 3, 8, 13, 56, 57, 64] {
            for rows in [1usize, 8, 13, 128, 200] {
                let mut codes = vec![];
                let mut w = BitWriter::new(&mut codes);
                (0..rows).for_each(|i| w.push(i as u64 % 2, bits.into()));
                w.finish();
                // Offsets of 0 and 1, and differences of 0 and 1.
                let flips: Vec<i64> = (0..rows as i64).map(|i| i % 2).collect();
                let steps: Vec<i64> = (0..rows as i64).map(|i| i / 2).collect();
                let pfor = Compression::Pfor {
                    bits,
                    exception_rate: 0.0,
                };
                let delta = Compression::PforDelta {
                    bits,
                    exception_rate: 0.0,
                };
                // No body holds exceptions: each ends at its last packed
                // byte, that of a last block of `rows % BLOCK_LEN` values.
                let last_block = (rows - 1) % BLOCK_LEN + 1;
                for (body, in_last) in [
                    (dict(2, &[7, 9], bits, &codes), rows),
                    (EncodedColumn::encode(&flips, pfor).bytes, last_block),
                    (EncodedColumn::encode(&steps, delta).bytes, last_block),
                ] {
                    assert!(!decode_panics(&hand_built(rows, body.clone())));
                    let packed_at = body.len() - packed_len(in_last, bits.into());
                    let last_group = packed_at + (in_last - 1) / 8 * bits as usize;
                    for cut in last_group..body.len() {
                        let torn = hand_built(rows, body[..cut].to_vec());
                        let msg = decode_panic_message(&torn);
                        assert!(
                            msg.as_deref()
                                .is_some_and(|m| m.contains("packed values run past the body")),
                            "{bits} bits, {rows} rows, cut at {cut} of {}: {msg:?}",
                            body.len()
                        );
                    }
                }
            }
        }
        // `truncated` is that writer on demand, for the executor's tests.
        let values: Vec<i64> = (0..300).map(|i| i % 11).collect();
        for scheme in [
            Compression::None,
            Compression::Dictionary { bits: 4 },
            Compression::Pfor {
                bits: 4,
                exception_rate: 0.0,
            },
            Compression::PforDelta {
                bits: 4,
                exception_rate: 0.0,
            },
        ] {
            let cut = EncodedColumn::encode(&values, scheme).truncated();
            assert!(cut.verify_checksum(), "{scheme:?}");
            assert!(decode_panics(&cut), "{scheme:?}");
        }
    }

    #[test]
    fn decode_forbidden_guard_nests() {
        let values = vec![1i64, 2, 3];
        let enc = EncodedColumn::encode(&values, Compression::None);
        {
            let _a = forbid_decode();
            let _b = forbid_decode();
            // Nested scopes: still forbidden after one drop.
            drop(_b);
            if cfg!(debug_assertions) {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enc.decode()));
                assert!(r.is_err(), "decode under a forbid scope must assert");
            }
        }
        // All scopes dropped: decoding works again.
        assert_eq!(enc.decode(), values);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Over every length of [`checksum_lengths`], with contents and
        /// positions drawn from `seed`: each local change the doc comment
        /// of `checksum64` names changes the sum.
        #[test]
        fn checksum64_changes_with_every_local_change(seed in i64::MIN..i64::MAX) {
            let mut state = seed as u64;
            for len in checksum_lengths() {
                let clean = random_bytes(len, &mut state);
                let sum = checksum64(&clean);
                prop_assert_eq!(sum, checksum64(&clean.clone()), "equal inputs agree");
                let blocks = len / CHECKSUM_BLOCK;
                let mut pick = |n: usize| (splitmix(&mut state) % n as u64) as usize;

                // One flipped bit: in every lane of one block, and in the tail.
                let mut positions: Vec<usize> = Vec::new();
                if blocks > 0 {
                    let block = pick(blocks);
                    positions.extend(
                        (0..CHECKSUM_LANES).map(|lane| block * CHECKSUM_BLOCK + lane * 8 + pick(8)),
                    );
                }
                if len > blocks * CHECKSUM_BLOCK {
                    positions.push(blocks * CHECKSUM_BLOCK + pick(len - blocks * CHECKSUM_BLOCK));
                }
                for at in positions {
                    let mut torn = clean.clone();
                    torn[at] ^= 1 << pick(8);
                    prop_assert_ne!(checksum64(&torn), sum);
                }

                // One aligned word replaced (the last one may be partial).
                if len > 0 {
                    let start = pick(len.div_ceil(8)) * 8;
                    let end = (start + 8).min(len);
                    let mut torn = clean.clone();
                    for b in &mut torn[start..end] {
                        *b = b.wrapping_add(1 + pick(255) as u8);
                    }
                    prop_assert_ne!(checksum64(&torn), sum);
                }

                // Truncated or extended (by zeros, the padding's own value,
                // and by noise) by 1..=8 bytes.
                for by in 1..=8usize {
                    if by <= len {
                        prop_assert_ne!(checksum64(&clean[..len - by]), sum);
                    }
                    let mut longer = clean.clone();
                    longer.resize(len + by, 0);
                    prop_assert_ne!(checksum64(&longer), sum);
                    longer.truncate(len);
                    longer.extend((0..by).map(|_| pick(256) as u8));
                    prop_assert_ne!(checksum64(&longer), sum);
                }

                // Two unequal words swapped within one lane ...
                if blocks >= 2 {
                    let (a, lane) = (pick(blocks), pick(CHECKSUM_LANES));
                    let b = (a + 1 + pick(blocks - 1)) % blocks;
                    if word_at(&clean, a, lane) != word_at(&clean, b, lane) {
                        let mut torn = clean.clone();
                        swap_words(&mut torn, (a, lane), (b, lane));
                        prop_assert_ne!(checksum64(&torn), sum);
                    }
                }
                if blocks >= 1 {
                    // ... and across two lanes, in whichever blocks.
                    let (a, b, lane) = (pick(blocks), pick(blocks), pick(CHECKSUM_LANES));
                    let other = (lane + 1 + pick(CHECKSUM_LANES - 1)) % CHECKSUM_LANES;
                    if word_at(&clean, a, lane) != word_at(&clean, b, other) {
                        let mut torn = clean.clone();
                        swap_words(&mut torn, (a, lane), (b, other));
                        prop_assert_ne!(checksum64(&torn), sum);
                    }
                    // The whole contents of two lanes exchanged.
                    let mut torn = clean.clone();
                    for block in 0..blocks {
                        swap_words(&mut torn, (block, lane), (block, other));
                    }
                    if torn != clean {
                        prop_assert_ne!(checksum64(&torn), sum);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// The group kernel against the byte-at-a-time oracle, for
        /// every width and every length up to 300 (so blocks of every
        /// length, and tails shorter than a word): first on bare packed
        /// fields — alone, and followed by other bytes as inside a body —
        /// then through each codec, without and with exceptions.
        #[test]
        fn unpack_agrees_with_the_byte_at_a_time_reader(seed in i64::MIN..i64::MAX) {
            let mut state = seed as u64;
            for bits in 1..=64usize {
                let mask = u64::MAX >> (64 - bits);
                for len in 0..=300usize {
                    let fields: Vec<u64> = (0..len).map(|_| splitmix(&mut state) & mask).collect();
                    let mut packed = Vec::new();
                    let mut w = BitWriter::new(&mut packed);
                    fields.iter().for_each(|&f| w.push(f, bits as u32));
                    w.finish();
                    prop_assert_eq!(packed.len(), packed_len(len, bits));
                    let mut r = BitReader::new(&packed);
                    let want: Vec<i64> = (0..len).map(|_| r.pull(bits as u32) as i64).collect();
                    let mut got = Vec::new();
                    unpack(&packed, bits, len, &mut got, |v| v as i64);
                    prop_assert_eq!(&got, &want, "{} bits, {} values", bits, len);
                    packed.extend((0..len % 19).map(|_| splitmix(&mut state) as u8));
                    got.clear();
                    unpack(&packed, bits, len, &mut got, |v| v as i64);
                    prop_assert_eq!(&got, &want, "{} bits, {} values, bytes after", bits, len);

                    // Offsets that fit the width, then the same column with
                    // one value in seven moved out of range.
                    let fitting: Vec<i64> =
                        fields.iter().map(|&f| (f >> 1) as i64 - 1_000).collect();
                    let patched: Vec<i64> = fitting
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if i % 7 == 3 { v ^ i64::MIN } else { v })
                        .collect();
                    for values in [&fitting, &patched] {
                        for scheme in [
                            Compression::Pfor { bits: bits as u8, exception_rate: 0.0 },
                            Compression::PforDelta { bits: bits as u8, exception_rate: 0.0 },
                        ] {
                            let enc = EncodedColumn::encode(values, scheme);
                            let decoded = enc.decode();
                            prop_assert_eq!(&decoded, &oracle_decode(&enc), "{:?}", scheme);
                            prop_assert_eq!(&decoded, values, "{:?}", scheme);
                        }
                    }
                }
                // Dictionaries of 1..=2^16 entries give code widths 1..=16;
                // wider codes cannot occur (a chunk has fewer rows).
                if bits <= 16 {
                    let distinct = 1usize << bits;
                    let values: Vec<i64> = (0..distinct + 37)
                        .map(|i| ((i % distinct) as i64).wrapping_mul(0x9E37_79B9))
                        .collect();
                    let enc = EncodedColumn::encode(&values, Compression::Dictionary { bits: 0 });
                    let decoded = enc.decode();
                    prop_assert_eq!(&decoded, &oracle_decode(&enc));
                    prop_assert_eq!(&decoded, &values);
                }
            }
        }

        /// Each decode map — a dictionary's, a PFOR base's, and a PFOR
        /// base's under PFOR-DELTA's prefix sum — against the
        /// byte-at-a-time oracle, at every width and every count up to 200
        /// (every count mod 8; one block, or a full one and a partial one),
        /// on bodies that end at their last packed byte and on the same
        /// bodies with slack after it.  Dictionary codes at widths over 6
        /// index 64 entries; the PFOR offsets fill their width.
        #[test]
        fn every_decode_map_agrees_with_the_oracle_at_every_width_and_count(
            seed in i64::MIN..i64::MAX,
        ) {
            let mut state = seed as u64;
            for bits in 1..=64u8 {
                let mask = u64::MAX >> (64 - bits);
                let entries = 1u64 << bits.min(6);
                let dict: Vec<i64> = (0..entries).map(|_| splitmix(&mut state) as i64).collect();
                for count in 0..=200usize {
                    let fields: Vec<u64> =
                        (0..count).map(|_| splitmix(&mut state) & mask).collect();
                    let mut dict_body = vec![WireCodec::Dict.tag()];
                    put_u32(&mut dict_body, entries as u32);
                    dict.iter().for_each(|&v| put_i64(&mut dict_body, v));
                    dict_body.push(bits);
                    let mut w = BitWriter::new(&mut dict_body);
                    fields.iter().for_each(|&f| w.push(f % entries, bits.into()));
                    w.finish();
                    // Offsets from a random base; under PFOR-DELTA the
                    // fields are the differences of a running sum.
                    let base = splitmix(&mut state) as i64;
                    let offsets: Vec<i64> =
                        fields.iter().map(|&f| base.wrapping_add(f as i64)).collect();
                    let mut sum = 0i64;
                    let sums: Vec<i64> = fields
                        .iter()
                        .map(|&f| (sum = sum.wrapping_add(f as i64), sum).1)
                        .collect();
                    let pfor = Compression::Pfor { bits, exception_rate: 0.0 };
                    let delta = Compression::PforDelta { bits, exception_rate: 0.0 };
                    for (body, values) in [
                        (dict_body, None),
                        (EncodedColumn::encode(&offsets, pfor).bytes, Some(&offsets)),
                        (EncodedColumn::encode(&sums, delta).bytes, Some(&sums)),
                    ] {
                        let slack = (0..1 + splitmix(&mut state) % 24)
                            .map(|_| splitmix(&mut state) as u8);
                        let loose: Vec<u8> = body.iter().copied().chain(slack).collect();
                        for body in [body, loose] {
                            let enc = hand_built(count, body);
                            let decoded = enc.decode();
                            prop_assert_eq!(&decoded, &oracle_decode(&enc), "{} bits", bits);
                            if let Some(values) = values {
                                prop_assert_eq!(&decoded, values, "{} bits", bits);
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The encoder against the reference encoder, byte for byte, at a
        /// random width, length (up to three blocks and a single-value
        /// fourth) and shape.
        #[test]
        fn encode_writes_the_reference_encoders_bytes(
            seed in 0..=u64::MAX,
            bits in 1u8..=64,
            len in 0usize..=3 * BLOCK_LEN + 1,
            shape in 0..SHAPES,
        ) {
            let mut state = seed;
            let values = shaped_column(shape, bits as u32, len, &mut state);
            assert_reference_bytes(&values, bits)?;
        }

        /// Dictionaries of one to thousands of entries: the values spread
        /// over `i64` by an odd multiplier, or packed densely (multiplier
        /// 1) so that a column longer than its span takes the offset
        /// table, with or without `i64::MIN` / `i64::MAX` mixed in.
        #[test]
        fn dict_writes_the_reference_bytes_for_any_dictionary_size(
            seed in 0..=u64::MAX,
            distinct in 1u64..=5_000,
            len in 1usize..=6_000,
            spread in prop_oneof![Just(1u64), 0..=u64::MAX],
            extremes in prop::strategy::any::<bool>(),
        ) {
            let mut state = seed;
            let keys = distinct + 2 * u64::from(extremes);
            let values: Vec<i64> = (0..len)
                .map(|_| match splitmix(&mut state) % keys {
                    k if k == distinct => i64::MIN,
                    k if k == distinct + 1 => i64::MAX,
                    k => k.wrapping_mul(spread | 1) as i64,
                })
                .collect();
            let scheme = Compression::Dictionary { bits: 8 };
            let enc = EncodedColumn::encode(&values, scheme);
            prop_assert_eq!(enc.as_bytes(), &reference_encode(&values, scheme)[..]);
        }
    }

    proptest! {
        #[test]
        fn any_data_roundtrips_under_pfor(
            values in prop::collection::vec(-1_000_000_000i64..1_000_000_000, 0..600),
            bits in 1u8..40,
        ) {
            let scheme = Compression::Pfor { bits, exception_rate: 0.0 };
            let enc = EncodedColumn::encode(&values, scheme);
            prop_assert_eq!(enc.decode(), values);
        }

        #[test]
        fn any_data_roundtrips_under_pfor_delta(
            values in prop::collection::vec(i64::MIN..i64::MAX, 0..600),
            bits in 1u8..64,
        ) {
            let scheme = Compression::PforDelta { bits, exception_rate: 0.0 };
            let enc = EncodedColumn::encode(&values, scheme);
            prop_assert_eq!(enc.decode(), values);
        }

        #[test]
        fn any_data_roundtrips_under_dict(
            values in prop::collection::vec(-5000i64..5000, 0..600),
        ) {
            let enc = EncodedColumn::encode(&values, Compression::Dictionary { bits: 8 });
            prop_assert_eq!(enc.decode(), values);
        }

        #[test]
        fn narrow_widths_force_all_exception_blocks(
            values in prop::collection::vec(1_000_000i64..2_000_000, 1..300),
        ) {
            // bits=1 over million-scale spreads: nearly every value is an
            // exception, exercising the patch list on every block.
            let scheme = Compression::Pfor { bits: 1, exception_rate: 1.0 };
            let enc = EncodedColumn::encode(&values, scheme);
            prop_assert_eq!(enc.decode(), values);
        }
    }
}
