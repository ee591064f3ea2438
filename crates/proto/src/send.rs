//! The server's outgoing side: frames queued for a socket, column values
//! by reference.

use crate::{encode_frame, lay_out_batch, put_values, Message};
use cscan_storage::chunkdata::ColumnData;
use cscan_storage::segment::ne_bytes;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::sync::Arc;

/// Where encoded frames go.  A `Vec<u8>` takes them as bytes, copying a
/// batch's values in; a [`SendQueue`] queues the batch's column vectors
/// themselves.  Both lay a batch out with the same encoder, so the bytes
/// that reach the peer are the same.
pub trait FrameSink {
    /// Appends `msg` as one frame.
    fn put_frame(&mut self, msg: &Message);

    /// Appends a `Batch` frame of `columns` (each carrying `rows` values)
    /// and returns the frame's size in bytes.
    fn put_batch(
        &mut self,
        scan_id: u64,
        chunk: u32,
        rows: u32,
        columns: &[(u16, ColumnData)],
    ) -> usize;
}

impl FrameSink for Vec<u8> {
    fn put_frame(&mut self, msg: &Message) {
        encode_frame(self, msg);
    }

    fn put_batch(
        &mut self,
        scan_id: u64,
        chunk: u32,
        rows: u32,
        columns: &[(u16, ColumnData)],
    ) -> usize {
        lay_out_batch(self, scan_id, chunk, rows, columns, |buf, v| {
            put_values(buf, v)
        })
    }
}

/// Most pieces one [`SendQueue::write_to`] hands the writer.
const MAX_SLICES: usize = 64;

/// Sent header bytes the queue keeps before moving the unsent ones down.
const COMPACT_AT: usize = 64 * 1024;

/// One run of queued bytes.
enum Piece {
    /// The next `len` bytes of the queue's header buffer.
    Head(usize),
    /// A column's values, shared with whoever else holds the vector.
    Values(ColumnData),
}

impl Piece {
    fn len(&self) -> usize {
        match self {
            Piece::Head(len) => *len,
            Piece::Values(values) => values.len() * 8,
        }
    }
}

/// Frames waiting for a socket.  Everything but a batch's column values is
/// encoded into one header buffer; the values stay in the column vectors
/// the buffer manager loaded, held by reference count, until the kernel
/// has taken them — so the only copy of a value on the way out is the
/// socket's.  [`SendQueue::write_to`] hands the queue's front to the
/// writer as one vectored write.
///
/// On a big-endian target the values are converted into the header buffer
/// instead (the wire is little-endian); that path is compiled and tested
/// on every target.
pub struct SendQueue {
    /// Header bytes of queued frames, in queue order from `head_at`.
    head: Vec<u8>,
    /// Start of the first queued [`Piece::Head`]'s bytes.
    head_at: usize,
    pieces: VecDeque<Piece>,
    /// Bytes of the front piece already written.
    front_sent: usize,
    unsent: usize,
    /// Whether values are queued by reference (little-endian targets).
    in_place: bool,
}

impl Default for SendQueue {
    fn default() -> Self {
        Self::with_values_in_place(cfg!(target_endian = "little"))
    }
}

impl SendQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_values_in_place(in_place: bool) -> Self {
        SendQueue {
            head: Vec::new(),
            head_at: 0,
            pieces: VecDeque::new(),
            front_sent: 0,
            unsent: 0,
            in_place,
        }
    }

    /// Bytes queued and not yet written.
    pub fn unsent(&self) -> usize {
        self.unsent
    }

    /// One vectored write of the queue's front (up to 64 pieces), and how
    /// many bytes the writer took; those leave the queue.  The writer's
    /// errors come back as they are, with nothing consumed.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        if self.unsent == 0 {
            return Ok(0);
        }
        let mut slices = [IoSlice::new(&[]); MAX_SLICES];
        let mut head_at = self.head_at;
        for (i, (slice, piece)) in slices.iter_mut().zip(&self.pieces).enumerate() {
            let bytes = match piece {
                Piece::Head(len) => {
                    head_at += len;
                    &self.head[head_at - len..head_at]
                }
                Piece::Values(values) => ne_bytes(values),
            };
            let skip = if i == 0 { self.front_sent } else { 0 };
            *slice = IoSlice::new(&bytes[skip..]);
        }
        let n = w.write_vectored(&slices[..self.pieces.len().min(MAX_SLICES)])?;
        self.consume(n);
        Ok(n)
    }

    /// Drops the first `n` unsent bytes.
    fn consume(&mut self, mut n: usize) {
        self.unsent -= n;
        while n > 0 {
            let left = self
                .pieces
                .front()
                .expect("written bytes were queued")
                .len()
                - self.front_sent;
            if n < left {
                self.front_sent += n;
                return;
            }
            n -= left;
            self.front_sent = 0;
            if let Some(Piece::Head(len)) = self.pieces.pop_front() {
                self.head_at += len;
            }
        }
        if self.pieces.is_empty() {
            self.head.clear();
            self.head_at = 0;
        } else if self.head_at > COMPACT_AT {
            self.head.drain(..self.head_at);
            self.head_at = 0;
        }
    }
}

/// Queues the last `len` bytes of the header buffer, joining a header run
/// that is already last in line.
fn push_head(pieces: &mut VecDeque<Piece>, len: usize) {
    match pieces.back_mut() {
        _ if len == 0 => {}
        Some(Piece::Head(run)) => *run += len,
        _ => pieces.push_back(Piece::Head(len)),
    }
}

impl FrameSink for SendQueue {
    fn put_frame(&mut self, msg: &Message) {
        let start = self.head.len();
        encode_frame(&mut self.head, msg);
        push_head(&mut self.pieces, self.head.len() - start);
        self.unsent += self.head.len() - start;
    }

    fn put_batch(
        &mut self,
        scan_id: u64,
        chunk: u32,
        rows: u32,
        columns: &[(u16, ColumnData)],
    ) -> usize {
        let (in_place, pieces) = (self.in_place, &mut self.pieces);
        let mut mark = self.head.len();
        let size = lay_out_batch(&mut self.head, scan_id, chunk, rows, columns, |head, v| {
            if !in_place {
                put_values(head, v);
            } else if !v.is_empty() {
                push_head(pieces, head.len() - mark);
                pieces.push_back(Piece::Values(Arc::clone(v)));
                mark = head.len();
            }
        });
        push_head(&mut self.pieces, self.head.len() - mark);
        self.unsent += size;
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_batch_frame;
    use proptest::prelude::*;

    /// What a writer does with one write call.
    #[derive(Debug, Clone, Copy)]
    enum Turn {
        /// Takes at most this many bytes.
        Take(usize),
        /// Fails with this kind, taking nothing.
        Fail(io::ErrorKind),
    }

    /// A socket that takes short counts and fails now and then, as a
    /// blocking socket with a write timeout does.
    struct Flaky {
        written: Vec<u8>,
        turns: Vec<Turn>,
        next: usize,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let turn = self.turns[self.next % self.turns.len()];
            self.next += 1;
            let mut budget = match turn {
                Turn::Take(n) => n,
                Turn::Fail(kind) => return Err(kind.into()),
            };
            let start = self.written.len();
            for buf in bufs {
                let n = buf.len().min(budget);
                self.written.extend_from_slice(&buf[..n]);
                budget -= n;
            }
            Ok(self.written.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One queued frame.
    #[derive(Debug, Clone)]
    enum Frame {
        Batch { rows: u32, columns: Vec<u16> },
        Done,
        Error(String),
    }

    fn arb_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            (
                prop_oneof![0u32..4, 0u32..3_000],
                prop::collection::vec(0u16..64, 0..4),
            )
                .prop_map(|(rows, columns)| Frame::Batch { rows, columns }),
            Just(Frame::Done),
            (0usize..40).prop_map(|n| Frame::Error("e".repeat(n))),
        ]
    }

    fn arb_turn() -> impl Strategy<Value = Turn> {
        prop_oneof![
            (0usize..40).prop_map(Turn::Take),
            (1usize..200_000).prop_map(Turn::Take),
            Just(Turn::Fail(io::ErrorKind::WouldBlock)),
            Just(Turn::Fail(io::ErrorKind::TimedOut)),
            Just(Turn::Fail(io::ErrorKind::Interrupted)),
        ]
    }

    /// Pushes `frames` into a queue and, as the reference, into bytes
    /// through `encode_frame` / `encode_batch_frame`, writing between
    /// pushes (`writes_between` turns after each) and draining at the end.
    /// Returns what the writer saw and the reference.
    fn drain(
        frames: &[Frame],
        turns: Vec<Turn>,
        writes_between: usize,
        in_place: bool,
    ) -> Result<(Vec<u8>, Vec<u8>), TestCaseError> {
        let mut queue = SendQueue::with_values_in_place(in_place);
        let mut reference = Vec::new();
        let mut sink = Flaky {
            written: Vec::new(),
            turns,
            next: 0,
        };
        let write = |queue: &mut SendQueue, sink: &mut Flaky, reference: &[u8]| {
            let before = queue.unsent();
            match queue.write_to(sink) {
                Ok(n) => prop_assert_eq!(queue.unsent(), before - n),
                Err(_) => prop_assert_eq!(queue.unsent(), before),
            }
            prop_assert_eq!(queue.unsent(), reference.len() - sink.written.len());
            Ok(())
        };
        for (i, frame) in frames.iter().enumerate() {
            let scan_id = i as u64 + 1;
            match frame {
                Frame::Batch { rows, columns } => {
                    let data: Vec<(u16, ColumnData)> = columns
                        .iter()
                        .map(|&c| {
                            let v = (0..*rows as i64).map(|r| r * 977 - c as i64).collect();
                            (c, Arc::new(v))
                        })
                        .collect();
                    let size = queue.put_batch(scan_id, 7, *rows, &data);
                    let slices: Vec<(u16, &[i64])> =
                        data.iter().map(|(c, v)| (*c, v.as_slice())).collect();
                    let n = encode_batch_frame(&mut reference, scan_id, 7, *rows, &slices);
                    prop_assert_eq!(size, n);
                }
                Frame::Done => {
                    let msg = Message::ScanDone { scan_id };
                    queue.put_frame(&msg);
                    encode_frame(&mut reference, &msg);
                }
                Frame::Error(detail) => {
                    let msg = Message::Error {
                        scan_id,
                        code: 203,
                        aux: 0,
                        chunk: crate::NO_CHUNK,
                        detail: detail.clone(),
                    };
                    queue.put_frame(&msg);
                    encode_frame(&mut reference, &msg);
                }
            }
            prop_assert_eq!(queue.unsent(), reference.len() - sink.written.len());
            for _ in 0..writes_between {
                write(&mut queue, &mut sink, &reference)?;
            }
        }
        // Every round of the turns takes at least a byte.
        let mut turns_left = sink.turns.len() * (queue.unsent() + 1);
        while queue.unsent() > 0 {
            write(&mut queue, &mut sink, &reference)?;
            turns_left -= 1;
            prop_assert!(turns_left > 0, "the queue does not drain");
        }
        prop_assert!(queue.pieces.is_empty() && queue.head.is_empty());
        Ok((sink.written, reference))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the writer takes per call and however often it fails,
        /// the bytes that reach it are those of the copying encoders, and
        /// `unsent()` counts exactly what it has not taken.
        #[test]
        fn drained_queue_writes_the_encoders_bytes(
            frames in prop::collection::vec(arb_frame(), 0..12),
            turns in prop::collection::vec(arb_turn(), 1..16),
            writes_between in 0usize..3,
        ) {
            // A writer that never takes a byte cannot drain anything.
            let mut turns = turns;
            turns.push(Turn::Take(1));
            for in_place in [true, false] {
                if in_place && cfg!(target_endian = "big") {
                    continue;
                }
                let (written, reference) =
                    drain(&frames, turns.clone(), writes_between, in_place)?;
                prop_assert!(written == reference, "in_place {}: bytes differ", in_place);
            }
        }
    }

    /// The queue holds a batch's vectors, not copies: the column's
    /// reference count covers the queue until the bytes are written.
    #[test]
    fn queued_values_are_shared_until_written() {
        let values: ColumnData = Arc::new((0..1_000).collect());
        let mut queue = SendQueue::new();
        queue.put_batch(1, 0, 1_000, &[(0, Arc::clone(&values))]);
        if cfg!(target_endian = "little") {
            assert_eq!(Arc::strong_count(&values), 2);
            assert!(queue.head.len() < 64, "only the header was encoded");
        }
        let mut out = Vec::new();
        while queue.unsent() > 0 {
            queue.write_to(&mut out).unwrap();
        }
        assert_eq!(Arc::strong_count(&values), 1);
        let mut reference = Vec::new();
        encode_batch_frame(&mut reference, 1, 0, 1_000, &[(0, &values)]);
        assert_eq!(out, reference);
    }
}
