//! Client for the Cooperative Scans network service.
//!
//! [`ScanClient`] owns one TCP connection speaking the [`cscan_proto`]
//! protocol.  [`ScanClient::open_scan`] sends the same [`CScanPlan`] both
//! local front-ends use and returns a [`RemoteScan`] that pulls
//! [`ColumnBatch`]es with a credit window: the client tops credits up as
//! batches arrive, so the server always has a bounded number of batches
//! in flight and a reader that stops calling [`RemoteScan::next_batch`]
//! stops the stream — backpressure is the default, not an option.
//!
//! The server sends `ScanDone` only to a scan that holds a credit beyond
//! its last batch (see [`Message::NextBatch`]); a hand-written client that
//! grants exactly `num_chunks` credits waits for it until it is shed as
//! stalled.  This client never runs dry while it waits — it tops the window
//! back up to full whenever fewer than half its credits are outstanding —
//! so the rule is invisible here.
//!
//! A batch's values are read from the socket straight into the vectors of
//! the [`ColumnBatch`] it becomes ([`Decoder::read_message`]): apart from
//! the few bytes that arrive in the same read as a column's header, the
//! kernel's copy is the only one.
//!
//! ```no_run
//! use cscan_client::ScanClient;
//! use cscan_core::{CScanPlan, ColSet};
//!
//! let mut client = ScanClient::connect("127.0.0.1:7878")?;
//! let mut scan = client.open_scan("lineitem", CScanPlan::full_table("q1", ColSet::first_n(2)))?;
//! while let Some(batch) = scan.next_batch()? {
//!     let qty = batch.column(1).expect("column 1 requested");
//!     let _sum: i64 = qty.iter().sum();
//! }
//! # Ok::<(), cscan_client::ClientError>(())
//! ```

#![warn(missing_docs)]

use cscan_core::{CScanPlan, ScanError};
use cscan_proto::{encode_frame, Decoder, Message, ProtoError, ReadError, ServeError};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// How many batches the client lets the server keep in flight.  Small
/// enough that a LIMIT-style early stop wastes little work, large enough
/// to keep the pipe full over loopback.
const CREDIT_WINDOW: u32 = 8;

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The socket failed or closed unexpectedly.
    Io(io::Error),
    /// The server's byte stream violated the protocol.
    Proto(ProtoError),
    /// The serving layer refused or tore down the request (admission,
    /// catalog, stall shedding — see [`ServeError`] for the taxonomy).
    Serve(ServeError),
    /// The scan itself failed in the executor (unreadable chunk).
    Scan(ScanError),
    /// A frame arrived that makes no sense in the current state.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Serve(e) => write!(f, "server refused: {e}"),
            ClientError::Scan(e) => write!(f, "{e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => ClientError::Io(e),
            ReadError::Proto(e) => ClientError::Proto(e),
        }
    }
}

impl ClientError {
    /// Whether retrying the request later could succeed (admission
    /// shedding, queue timeouts, server shutdown).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Serve(e) if e.is_retryable())
    }
}

/// One chunk's worth of column data, as delivered over the wire.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// Table-relative chunk index the rows came from (chunks arrive in
    /// scheduler order, not table order).
    pub chunk: u32,
    /// Rows in this batch (every column has exactly this many values).
    pub rows: u32,
    /// `(column id, values)` pairs, ordered by column id.
    pub columns: Vec<(u16, Vec<i64>)>,
}

impl ColumnBatch {
    /// The values of column `id`, if the batch carries it.
    pub fn column(&self, id: u16) -> Option<&[i64]> {
        self.columns
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, v)| v.as_slice())
    }
}

/// One connection to a scan service.
pub struct ScanClient {
    stream: TcpStream,
    dec: Decoder,
    send_buf: Vec<u8>,
    /// A dropped [`RemoteScan`] leaves its tail (in-flight batches up to
    /// `CancelOk`) on the wire; the next operation drains it first.
    pending_drain: Option<u64>,
}

impl ScanClient {
    /// Connects to a scan service.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ScanClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ScanClient {
            stream,
            dec: Decoder::new(),
            send_buf: Vec::new(),
            pending_drain: None,
        })
    }

    fn send(&mut self, msg: &Message) -> Result<(), ClientError> {
        self.send_buf.clear();
        encode_frame(&mut self.send_buf, msg);
        self.stream.write_all(&self.send_buf)?;
        Ok(())
    }

    /// Blocks for the next frame from the server; a batch's values go
    /// from the socket straight into its column vectors.
    fn recv(&mut self) -> Result<Message, ClientError> {
        Ok(self.dec.read_message(&mut self.stream)?)
    }

    /// Consumes leftover frames from an abandoned scan (batches that were
    /// in flight when `Cancel` was sent, then its `CancelOk`).
    fn drain_pending(&mut self) -> Result<(), ClientError> {
        let Some(id) = self.pending_drain else {
            return Ok(());
        };
        loop {
            match self.recv()? {
                Message::Batch { scan_id, .. } | Message::ScanDone { scan_id } if scan_id == id => {
                }
                Message::CancelOk { scan_id } if scan_id == id => break,
                Message::Error { scan_id, .. } if scan_id == id || scan_id == 0 => break,
                _ => return Err(ClientError::Unexpected("frame while draining cancel")),
            }
        }
        self.pending_drain = None;
        Ok(())
    }

    /// Opens a scan of `table` and returns the stream of its batches.
    /// Admission control may queue the request server-side; a shed
    /// request surfaces as a retryable [`ClientError::Serve`].
    pub fn open_scan(
        &mut self,
        table: &str,
        plan: CScanPlan,
    ) -> Result<RemoteScan<'_>, ClientError> {
        self.drain_pending()?;
        self.send(&Message::OpenScan {
            table: table.to_string(),
            plan,
        })?;
        match self.recv()? {
            Message::OpenOk {
                scan_id,
                num_chunks,
            } => Ok(RemoteScan {
                client: self,
                scan_id,
                num_chunks,
                outstanding: 0,
                done: false,
            }),
            Message::Error {
                code,
                aux,
                chunk,
                detail,
                ..
            } => Err(error_from_frame(code, aux, chunk, &detail)),
            _ => Err(ClientError::Unexpected("reply to OpenScan")),
        }
    }

    /// Asks the server to shut down (honored when the server runs with
    /// `exit_on_shutdown`) and waits for the acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.drain_pending()?;
        self.send(&Message::Shutdown)?;
        loop {
            match self.recv()? {
                Message::ShutdownOk => return Ok(()),
                // Late frames from scans torn down by the shutdown.
                Message::Batch { .. }
                | Message::ScanDone { .. }
                | Message::CancelOk { .. }
                | Message::Error { .. } => {}
                _ => return Err(ClientError::Unexpected("reply to Shutdown")),
            }
        }
    }
}

/// Decodes an `Error` frame into the strongest-typed [`ClientError`].
fn error_from_frame(code: u16, aux: u16, chunk: u32, detail: &str) -> ClientError {
    if let Some(scan_error) = Message::as_scan_error(code, aux, chunk) {
        ClientError::Scan(scan_error)
    } else {
        ClientError::Serve(ServeError::from_wire(code, detail))
    }
}

/// An open scan being streamed from the server.
///
/// Dropping it mid-stream sends `Cancel` (best effort) so the server
/// detaches the scan and frees its admission slot promptly; the
/// connection stays usable for the next scan.
pub struct RemoteScan<'a> {
    client: &'a mut ScanClient,
    scan_id: u64,
    num_chunks: u32,
    outstanding: u32,
    done: bool,
}

impl std::fmt::Debug for RemoteScan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteScan")
            .field("scan_id", &self.scan_id)
            .field("num_chunks", &self.num_chunks)
            .field("outstanding", &self.outstanding)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl RemoteScan<'_> {
    /// The server-assigned scan id.
    pub fn scan_id(&self) -> u64 {
        self.scan_id
    }

    /// Chunks the scan will deliver in total.
    pub fn num_chunks(&self) -> u32 {
        self.num_chunks
    }

    /// Pulls the next batch; `Ok(None)` when the scan completed.  Tops up
    /// the server's credit window as batches arrive.
    pub fn next_batch(&mut self) -> Result<Option<ColumnBatch>, ClientError> {
        if self.done {
            return Ok(None);
        }
        if self.outstanding < CREDIT_WINDOW.div_ceil(2) {
            let top_up = CREDIT_WINDOW - self.outstanding;
            self.client.send(&Message::NextBatch {
                scan_id: self.scan_id,
                credits: top_up,
            })?;
            self.outstanding += top_up;
        }
        match self.client.recv()? {
            Message::Batch {
                scan_id,
                chunk,
                rows,
                columns,
            } if scan_id == self.scan_id => {
                self.outstanding = self.outstanding.saturating_sub(1);
                Ok(Some(ColumnBatch {
                    chunk,
                    rows,
                    columns,
                }))
            }
            Message::ScanDone { scan_id } if scan_id == self.scan_id => {
                self.done = true;
                Ok(None)
            }
            Message::Error {
                scan_id,
                code,
                aux,
                chunk,
                detail,
            } if scan_id == self.scan_id || scan_id == 0 => {
                self.done = true;
                Err(error_from_frame(code, aux, chunk, &detail))
            }
            _ => {
                self.done = true;
                Err(ClientError::Unexpected("frame during scan"))
            }
        }
    }

    /// Abandons the scan and waits until the server confirms, leaving the
    /// connection clean for the next request.
    pub fn cancel(mut self) -> Result<(), ClientError> {
        if self.done {
            return Ok(());
        }
        self.client.send(&Message::Cancel {
            scan_id: self.scan_id,
        })?;
        loop {
            match self.client.recv()? {
                Message::Batch { scan_id, .. } | Message::ScanDone { scan_id }
                    if scan_id == self.scan_id => {}
                Message::CancelOk { scan_id } if scan_id == self.scan_id => {
                    self.done = true;
                    return Ok(());
                }
                Message::Error {
                    scan_id,
                    code,
                    aux,
                    chunk,
                    detail,
                } if scan_id == self.scan_id || scan_id == 0 => {
                    self.done = true;
                    return Err(error_from_frame(code, aux, chunk, &detail));
                }
                _ => {
                    self.done = true;
                    return Err(ClientError::Unexpected("reply to Cancel"));
                }
            }
        }
    }
}

impl Drop for RemoteScan<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Fire the cancel but defer the drain: the in-flight tail is
        // consumed lazily by the next operation on the client.
        if self
            .client
            .send(&Message::Cancel {
                scan_id: self.scan_id,
            })
            .is_ok()
        {
            self.client.pending_drain = Some(self.scan_id);
        }
    }
}
