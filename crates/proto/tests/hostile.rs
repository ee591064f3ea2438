//! Hostile `Batch` frames on the client's read path
//! ([`Decoder::read_message`]): a valid batch cut at random, truncated at
//! every offset, and with its length, row count or a value count set to
//! 0, rows ± 1, body ± 1 and `u32::MAX`.  Every case must end in the
//! message the buffering decoder would return, a typed [`ProtoError`] or
//! `UnexpectedEof` — never a panic — and no allocation may exceed the
//! bytes the peer actually sent by more than 1 MiB: a length field buys
//! no memory.
//!
//! The test binary runs under a global allocator that records the largest
//! single allocation each thread makes.

use cscan_proto::{frame, Decoder, Message, ProtoError, ReadError, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, IoSliceMut, Read};

/// How far a decoder may allocate ahead of the bytes it has received.
const AHEAD: usize = 1024 * 1024;

/// Records the largest allocation (or reallocation) size per thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Hands `bytes` out in reads of the sizes in `cuts`, cycled; a cut of 0
/// is an `Interrupted` read.  A vectored read spreads one cut over the
/// buffers, as `readv` on a socket does.
struct Splits<'a> {
    bytes: &'a [u8],
    cuts: Vec<usize>,
    next: usize,
}

impl Read for Splits<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_vectored(&mut [IoSliceMut::new(buf)])
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        let cut = self.cuts[self.next % self.cuts.len()];
        self.next += 1;
        if cut == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let mut n = 0;
        for buf in bufs {
            let take = buf.len().min(cut - n).min(self.bytes.len());
            buf[..take].copy_from_slice(&self.bytes[..take]);
            self.bytes = &self.bytes[take..];
            n += take;
        }
        Ok(n)
    }
}

/// How one input ended.
#[derive(Debug)]
enum Outcome {
    Message(Message),
    Refused(ProtoError),
    Eof,
}

/// Reads the first message of `bytes`, cut by `cuts`, and returns how it
/// ended and the largest allocation made on the way.
fn read_first(bytes: &[u8], cuts: &[usize]) -> (Outcome, usize) {
    let mut cuts = cuts.to_vec();
    cuts.push(1); // every round of cuts delivers a byte
    let mut src = Splits {
        bytes,
        cuts,
        next: 0,
    };
    let mut dec = Decoder::new();
    LARGEST.with(|l| l.set(0));
    let outcome = match dec.read_message(&mut src) {
        Ok(msg) => Outcome::Message(msg),
        Err(ReadError::Proto(e)) => Outcome::Refused(e),
        Err(ReadError::Io(e)) => {
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
            Outcome::Eof
        }
    };
    (outcome, LARGEST.with(Cell::get))
}

/// Checks one input against the buffering decoder, which sees all of it
/// at once, and the allocation bound.
fn check(bytes: &[u8], cuts: &[usize]) -> Result<(), TestCaseError> {
    let mut reference = Decoder::new();
    reference.feed(bytes);
    let expected = reference.next_message();
    let (outcome, largest) = read_first(bytes, cuts);
    prop_assert!(
        largest <= bytes.len() + AHEAD,
        "allocated {} bytes for {} received",
        largest,
        bytes.len()
    );
    match (expected, outcome) {
        (Ok(Some(want)), Outcome::Message(got)) => prop_assert_eq!(got, want),
        (Err(want), Outcome::Refused(got)) => prop_assert_eq!(got, want),
        // The frame is incomplete: the stream ends first, or a check
        // that needs only the bytes that came refuses it.
        (Ok(None), Outcome::Eof | Outcome::Refused(_)) => {}
        (expected, outcome) => {
            prop_assert!(
                false,
                "buffering decoder {:?}, read_message {:?}",
                expected,
                outcome
            )
        }
    }
    Ok(())
}

fn batch(rows: u32, columns: &[u16]) -> Vec<u8> {
    frame(&Message::Batch {
        scan_id: 5,
        chunk: 11,
        rows,
        columns: columns
            .iter()
            .map(|&c| (c, (0..rows as i64).map(|r| r * 31 - c as i64).collect()))
            .collect(),
    })
}

/// Byte offsets of the length, the row count and each value count.
fn fields(bytes: &[u8], rows: u32, columns: usize) -> Vec<usize> {
    let mut at = vec![0, 4 + 1 + 8 + 4];
    let first = 4 + 1 + 8 + 4 + 4 + 2 + 2;
    at.extend((0..columns).map(|i| first + i * (2 + 4 + rows as usize * 8)));
    assert!(at.iter().all(|&a| a + 4 <= bytes.len()));
    at
}

/// The edge values every field is set to.
fn edges(rows: u32, body: u32) -> [u32; 7] {
    [
        0,
        rows.wrapping_sub(1),
        rows + 1,
        body - 1,
        body + 1,
        u32::MAX,
        MAX_FRAME_LEN,
    ]
}

#[test]
fn every_truncation_and_edge_field_ends_typed() {
    let (rows, columns) = (6, [1u16, 3, 8]);
    let good = batch(rows, &columns);
    let body = good.len() as u32 - 4;
    for cuts in [vec![1], vec![5, 0, 2], vec![29], vec![4096]] {
        for cut in 0..=good.len() {
            check(&good[..cut], &cuts).unwrap();
        }
        for at in fields(&good, rows, columns.len()) {
            for v in edges(rows, body) {
                let mut bytes = good.clone();
                bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                check(&bytes, &cuts).unwrap();
            }
        }
    }
}

/// A header that claims the largest legal frame and one column filling
/// it, then 100 KB of values, then the end: the vector may grow only with
/// what arrived.
#[test]
fn a_claimed_length_buys_no_vector() {
    let count = (MAX_FRAME_LEN - (1 + 8 + 4 + 4 + 2 + 2 + 4)) / 8;
    let mut bytes = MAX_FRAME_LEN.to_le_bytes().to_vec();
    bytes.push(4); // Batch
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes()); // rows
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.resize(bytes.len() + 100_000, 0xAB);
    let (outcome, largest) = read_first(&bytes, &[65_536]);
    assert!(matches!(outcome, Outcome::Eof), "{outcome:?}");
    assert!(
        largest <= bytes.len() + AHEAD,
        "allocated {largest} bytes for {} received",
        bytes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A random batch, cut at random, whole or with one field set to an
    /// edge value.
    #[test]
    fn random_batches_cut_at_random_end_typed(
        rows in prop_oneof![0u32..3, 0u32..3_000],
        columns in prop::collection::vec(0u16..64, 0..4),
        cuts in prop::collection::vec(0usize..50_000, 1..10),
        field in 0usize..8,
        edge in 0usize..8,
    ) {
        let mut bytes = batch(rows, &columns);
        let body = bytes.len() as u32 - 4;
        let fields = fields(&bytes, rows, columns.len());
        // One index past either list leaves the batch as it is.
        if let (Some(&at), Some(&v)) = (fields.get(field), edges(rows, body).get(edge)) {
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        check(&bytes, &cuts)?;
    }
}
