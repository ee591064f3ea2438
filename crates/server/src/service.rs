//! Per-scan serving state: credits in, `Batch` frames out.
//!
//! A [`ServerScan`] owns the executor handle, the admission [`Permit`]
//! and the client's credit balance.  Pumping never blocks: it polls
//! ([`CScanHandle::poll_next_chunk`]) with the waker its connection gave
//! it ([`ServerScan::set_waker`]), so an idle scan costs nothing until the
//! executor deposits its next chunk and wakes the connection.  A delivered
//! chunk's served columns are taken as shared vectors (a reference count
//! each) and its pin is completed *before* anything is queued — the
//! discipline `SessionSource` follows — so the frame goes back to the
//! buffer before any byte of it waits on the socket.  That is the
//! invariant that keeps a stalled client from wedging the pool: its unsent
//! batches hold vectors the buffer no longer accounts for (a reload
//! allocates fresh ones), never pinned frames.  Where the frame goes is
//! the caller's [`FrameSink`]: the connection's [`cscan_proto::SendQueue`],
//! which writes the vectors to the socket as they are, or a `Vec<u8>`.

use crate::admission::Permit;
use cscan_core::session::ScanError;
use cscan_core::threaded::CScanHandle;
use cscan_core::{CScanPlan, ColSet};
use cscan_obs::{Counter, Registry};
use cscan_proto::{FrameSink, Message};
use cscan_storage::chunkdata::ColumnData;
use cscan_storage::ColumnId;
use std::task::{Context, Poll, Waker};

/// What one pump attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pump {
    /// A batch went into the sink.
    Delivered,
    /// Nothing to do right now: no credit, or the executor has no chunk
    /// ready (I/O still in flight).
    Idle,
    /// The scan completed or failed; its terminal frame (`ScanDone` or
    /// `Error`) is in the sink and the scan should be dropped.
    Closed,
}

/// One open scan on one connection.
pub struct ServerScan {
    /// Connection-scoped id the client addresses this scan by.
    pub id: u64,
    handle: CScanHandle,
    /// Held for the scan's lifetime; dropping the scan frees the slot.
    _permit: Permit,
    /// Resolved output columns as `(wire id, storage id)` pairs.
    columns: Vec<(u16, ColumnId)>,
    credits: u32,
    done: bool,
    /// Woken when a pump that found no chunk ready could find one now.
    waker: Waker,
}

impl ServerScan {
    /// Wraps an admitted, attached scan.  `served` is the table's full
    /// column set; an empty plan column set resolves to all of it.
    pub fn new(
        id: u64,
        handle: CScanHandle,
        permit: Permit,
        served: ColSet,
        plan: &CScanPlan,
    ) -> Self {
        let cols = if plan.columns.is_empty() {
            served
        } else {
            plan.columns
        };
        let columns = cols.iter().map(|c| (c.index(), c)).collect();
        ServerScan {
            id,
            handle,
            _permit: permit,
            columns,
            credits: 0,
            done: false,
            waker: Waker::noop().clone(),
        }
    }

    /// Who to wake when a chunk arrives for a scan whose last
    /// [`ServerScan::pump`] came back [`Pump::Idle`] with credit in hand.
    /// Nobody, until this is called: such a caller has to pump again on
    /// its own schedule.
    pub fn set_waker(&mut self, waker: Waker) {
        self.waker = waker;
    }

    /// Adds client credits (saturating — a hostile peer cannot overflow).
    pub fn add_credits(&mut self, n: u32) {
        self.credits = self.credits.saturating_add(n);
    }

    /// Credits the client has outstanding.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Whether a terminal frame has been emitted for this scan.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Tries to move one batch from the executor into `out`.  Never
    /// blocks; never holds a pin past taking the columns' references.
    ///
    /// At zero credits it returns [`Pump::Idle`] *before* polling the
    /// executor, so the end of the scan is noticed — and `ScanDone` sent —
    /// only once a credit beyond the last batch has arrived: `n` credits
    /// for `n` chunks yield `n` batches and then `Idle`, not `Closed`.
    /// `ScanDone` itself spends no credit.
    pub fn pump(&mut self, out: &mut impl FrameSink, obs: &Registry) -> Pump {
        if self.done {
            return Pump::Closed;
        }
        if self.credits == 0 {
            return Pump::Idle;
        }
        match self
            .handle
            .poll_next_chunk(&mut Context::from_waker(&self.waker))
        {
            Err(error) => {
                self.done = true;
                out.put_frame(&Message::scan_error(self.id, error));
                Pump::Closed
            }
            Ok(Poll::Pending) => Pump::Idle,
            Ok(Poll::Ready(None)) => {
                self.done = true;
                out.put_frame(&Message::ScanDone { scan_id: self.id });
                Pump::Closed
            }
            Ok(Poll::Ready(Some(pin))) => {
                self.credits -= 1;
                let rows = pin.rows() as u32;
                let chunk = pin.chunk().index();
                // A reference to each served column (a compressed column
                // decodes here, at its first touch), then the pin goes.
                let cols: Result<Vec<(u16, ColumnData)>, ScanError> = self
                    .columns
                    .iter()
                    .filter_map(|&(raw, col)| {
                        Some(pin.try_shared_column(col).transpose()?.map(|v| (raw, v)))
                    })
                    .collect();
                pin.complete();
                let cols = match cols {
                    Ok(cols) => cols,
                    Err(error) => {
                        // A column that cannot be decoded ends the scan:
                        // no batch narrower than the plan goes out.
                        self.done = true;
                        out.put_frame(&Message::scan_error(self.id, error));
                        return Pump::Closed;
                    }
                };
                let bytes = out.put_batch(self.id, chunk, rows, &cols);
                obs.inc(Counter::BatchesServed);
                obs.add(Counter::BytesServed, bytes as u64);
                Pump::Delivered
            }
        }
    }

    /// Detaches the scan from the executor (idempotent; also runs on
    /// drop).  The permit is released when the scan is dropped.
    pub fn abort(&mut self) {
        self.done = true;
        self.handle.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableConfig};
    use cscan_core::ColSet;
    use cscan_exec::MemTable;
    use cscan_proto::Decoder;
    use std::time::{Duration, Instant};

    #[test]
    fn pump_respects_credits_and_closes_with_scan_done() {
        let mut cat = Catalog::new();
        cat.add_mem_table(
            "t",
            MemTable::lineitem_demo(2_000, 500),
            TableConfig::default(),
        );
        let obs = cat.observability();
        let entry = cat.get("t").unwrap();
        let plan = CScanPlan::full_table("t", ColSet::first_n(2));
        let (permit, handle) = entry.open_scan(&plan).expect("admitted");
        let mut scan = ServerScan::new(1, handle, permit, entry.served_columns(), &plan);

        let mut out = Vec::new();
        assert_eq!(scan.pump(&mut out, &obs), Pump::Idle, "no credit, no data");
        assert!(out.is_empty());

        scan.add_credits(2);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = 0;
        while delivered < 2 {
            match scan.pump(&mut out, &obs) {
                Pump::Delivered => delivered += 1,
                Pump::Idle => assert!(Instant::now() < deadline, "executor stalled"),
                Pump::Closed => panic!("4 chunks expected, closed after {delivered}"),
            }
        }
        assert_eq!(scan.credits(), 0);
        assert_eq!(scan.pump(&mut out, &obs), Pump::Idle, "credits exhausted");

        scan.add_credits(10);
        loop {
            match scan.pump(&mut out, &obs) {
                Pump::Delivered => {}
                Pump::Closed => break,
                Pump::Idle => assert!(Instant::now() < deadline, "executor stalled"),
            }
        }

        // The byte stream decodes as 4 batches then ScanDone.
        let mut dec = Decoder::new();
        dec.feed(&out);
        let mut batches = 0;
        loop {
            match dec.next_message().expect("well-formed").expect("complete") {
                Message::Batch {
                    scan_id,
                    rows,
                    columns,
                    ..
                } => {
                    assert_eq!(scan_id, 1);
                    assert_eq!(rows, 500);
                    assert_eq!(columns.len(), 2);
                    batches += 1;
                }
                Message::ScanDone { scan_id } => {
                    assert_eq!(scan_id, 1);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(batches, 4);
        drop(scan);
        assert_eq!(
            cat.pinned_frames(),
            0,
            "pins end before the batch is queued"
        );
    }

    /// The credit rule: `n` credits for `n` chunks buy `n` batches and
    /// nothing else; the end of the scan is seen only with a credit beyond
    /// the last batch in hand, and seeing it spends none.
    #[test]
    fn scan_done_needs_a_credit_beyond_the_last_batch() {
        const CHUNKS: u32 = 4;
        let mut cat = Catalog::new();
        cat.add_mem_table(
            "t",
            MemTable::lineitem_demo(2_000, 500),
            TableConfig::default(),
        );
        let obs = cat.observability();
        let entry = cat.get("t").unwrap();
        let plan = CScanPlan::full_table("t", ColSet::first_n(2));
        let (permit, handle) = entry.open_scan(&plan).expect("admitted");
        let mut scan = ServerScan::new(1, handle, permit, entry.served_columns(), &plan);

        let mut out = Vec::new();
        scan.add_credits(CHUNKS);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = 0;
        while delivered < CHUNKS {
            match scan.pump(&mut out, &obs) {
                Pump::Delivered => delivered += 1,
                Pump::Idle => assert!(Instant::now() < deadline, "executor stalled"),
                Pump::Closed => panic!("closed after {delivered} of {CHUNKS} batches"),
            }
        }
        // Every chunk is out and the scan is over, but nobody looks.
        for _ in 0..3 {
            assert_eq!(scan.pump(&mut out, &obs), Pump::Idle);
        }
        assert!(!scan.is_done());
        let sent = out.len();

        scan.add_credits(1);
        assert_eq!(scan.pump(&mut out, &obs), Pump::Closed);
        assert_eq!(scan.credits(), 1, "ScanDone spends no credit");
        let mut dec = Decoder::new();
        dec.feed(&out[sent..]);
        assert_eq!(
            dec.next_message().expect("well-formed"),
            Some(Message::ScanDone { scan_id: 1 })
        );
    }

    /// A column the codec cannot decode closes the served scan with the
    /// scan's error frame; no batch narrower than the plan is sent.
    #[test]
    fn undecodable_column_closes_the_scan_with_an_error_frame() {
        use cscan_core::TableModel;
        use cscan_storage::codec::EncodedColumn;
        use cscan_storage::{
            ChunkData, ChunkId, ChunkPayload, ChunkStore, ColumnChunk, Compression, LazyColumn,
            StoreError,
        };
        use std::sync::Arc;

        /// Column 0 plain, column 1 cut short under a checksum that
        /// matches the cut.
        struct CutShort;
        impl ChunkStore for CutShort {
            fn materialize(
                &self,
                _chunk: ChunkId,
                _cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                let bad = EncodedColumn::encode(&[7; 10], Compression::Dictionary { bits: 1 })
                    .truncated();
                Ok(ChunkData::from_parts(vec![
                    (ColumnId::new(0), ColumnChunk::Plain(Arc::new(vec![1; 10]))),
                    (
                        ColumnId::new(1),
                        ColumnChunk::Compressed(Arc::new(LazyColumn::new(bad))),
                    ),
                ])
                .into())
            }
        }
        let mut cat = Catalog::new();
        cat.add_store(
            "t",
            Arc::new(CutShort),
            TableModel::dsm_uniform(1, 10, &[1, 1]),
            TableConfig::default(),
        );
        let obs = cat.observability();
        let entry = cat.get("t").unwrap();
        let plan = CScanPlan::full_table("t", ColSet::first_n(2));
        let (permit, handle) = entry.open_scan(&plan).expect("admitted");
        let mut scan = ServerScan::new(9, handle, permit, entry.served_columns(), &plan);
        scan.add_credits(4);
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match scan.pump(&mut out, &obs) {
                Pump::Closed => break,
                Pump::Idle => assert!(Instant::now() < deadline, "executor stalled"),
                Pump::Delivered => panic!("a batch went out without its second column"),
            }
        }
        let mut dec = Decoder::new();
        dec.feed(&out);
        match dec.next_message().expect("well-formed").expect("complete") {
            Message::Error { scan_id, code, .. } => {
                assert_eq!(scan_id, 9);
                assert_eq!(code, ScanError::WIRE_CODE);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        drop(scan);
        assert_eq!(cat.pinned_frames(), 0);
        assert_eq!(cat.observability().counter(Counter::UnconsumedDrops), 0);
    }
}
