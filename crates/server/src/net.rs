//! The TCP layer: accept loop, per-connection threads, stall shedding and
//! server lifecycle.
//!
//! Nothing here polls.  Each connection runs two threads, and each blocks
//! on exactly what can unblock it.  The *reader* blocks in `read`, decodes
//! frames and hands them over through a bounded inbox — when that is full
//! it waits, so a flooding peer meets TCP back-pressure, not server
//! memory.  The *serving* thread owns the scans, their credits and the
//! send queue, and makes the same pass over and over: take the inbox,
//! act on the frames, pump admitted scans into the send queue
//! (round-robin, credit-gated), write to the socket.  A pass that moved
//! nothing and left nothing unsent ends in a wait on the connection's
//! [`Doorbell`] — the executor's, whose ring is state — which is rung by
//! the reader (a frame, end of stream, a framing error), by the executor
//! through every scan's waker (a chunk was deposited for a scan that found
//! none), and by server stop.  Only a slow peer is timed: a socket write
//! blocks for at most `WRITE_SLICE`, so a `Cancel`, a stop and the stall
//! clock are observed while the peer does not read, and a connection
//! holding scans waits on its doorbell no later than its stall deadline.
//! An idle connection waits for a ring alone.
//!
//! The send queue ([`SendQueue`]) holds a batch's header bytes and, by
//! reference count, the column vectors the buffer manager loaded; one
//! vectored write hands its front to the socket, so the kernel's copy is
//! the only one a value makes on its way out.
//!
//! Two bounds protect the server from a misbehaving peer:
//!
//! * **The output cap** (`OUTBUF_CAP`) — once a connection
//!   has that many queued-but-unsent bytes, pumping stops.  Combined with
//!   the pin discipline of [`crate::service::ServerScan`] (a pin ends
//!   before its batch is queued), a stalled client holds zero pinned
//!   frames — only heap vectors, and a bounded amount of them.
//! * **The stall timeout** ([`ServerConfig::stall_timeout`]) — a
//!   connection that neither sends requests nor drains its socket while
//!   holding open scans (or unsent bytes) is *shed*: its scans detach,
//!   its admission slots free, and it is told why with the stable code
//!   [`ServeError::StalledConsumer`] (203).

use crate::catalog::Catalog;
use crate::service::{Pump, ServerScan};
use cscan_core::threaded::Doorbell;
use cscan_obs::{Counter, Gauge, Registry};
use cscan_proto::{Decoder, FrameSink, Message, ProtoError, SendQueue, ServeError};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Decoded frames the reader may run ahead of the serving thread before
/// it stops reading the socket.
const INBOX_FRAMES: usize = 64;

/// The longest one socket write blocks: the serving thread of a peer that
/// does not read looks at its inbox, the stop flag and the stall clock
/// this often.
const WRITE_SLICE: Duration = Duration::from_millis(50);

/// The pause after a failed `accept` (a peer gone mid-handshake, or no
/// descriptors left), so that a failure that persists cannot spin.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Concurrent open scans allowed per connection.
const MAX_SCANS_PER_CONN: usize = 16;

/// Queued-but-unsent bytes a connection may hold before pumping pauses
/// (the per-connection memory bound).
const OUTBUF_CAP: usize = 8 * 1024 * 1024;

/// Network-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may make no progress (no reads, no write
    /// drain) while holding scans or unsent bytes before being shed.
    pub stall_timeout: Duration,
    /// Whether a client `Shutdown` frame stops the whole server (used by
    /// the CI smoke test and the benches for deterministic teardown).
    pub exit_on_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            stall_timeout: Duration::from_secs(5),
            exit_on_shutdown: true,
        }
    }
}

/// A running scan service.  Dropping the handle does *not* stop the
/// server; call [`ServerHandle::stop`] or let a client send `Shutdown`.
pub struct ServerHandle {
    stop: Arc<Stop>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.stop.listener
    }

    /// Requests shutdown: the accept loop exits and every connection is
    /// told [`ServeError::ServerShutdown`] and closed.
    pub fn stop(&self) {
        self.stop.request();
    }

    /// Blocks until the server has fully stopped (accept loop exited,
    /// every connection's threads joined).
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

/// The server-wide stop request.
struct Stop {
    flag: AtomicBool,
    /// Where the acceptor listens — and blocks, until poked.
    listener: SocketAddr,
}

impl Stop {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Sets the flag and gets the acceptor out of `accept` with a
    /// throw-away connection; the acceptor then rings every connection.
    fn request(&self) {
        self.flag.store(true, Ordering::Release);
        let mut to = self.listener;
        if to.ip().is_unspecified() {
            // Bound to "any address": reach it through loopback.
            to.set_ip(match to {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&to, Duration::from_secs(1));
    }
}

/// Binds `addr` and serves `catalog` until stopped.  Returns once the
/// listener is bound and accepting.
pub fn serve(
    catalog: Arc<Catalog>,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let stop = Arc::new(Stop {
        flag: AtomicBool::new(false),
        listener: listener.local_addr()?,
    });
    let open_conns = Arc::new(AtomicU64::new(0));

    let accept = {
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("cscan-accept".into())
            .spawn(move || {
                let mut conns: Vec<(Arc<Doorbell>, JoinHandle<()>)> = Vec::new();
                loop {
                    let accepted = listener.accept();
                    if stop.is_set() {
                        // The throw-away connection (or a peer that came
                        // too late) is dropped unanswered.
                        break;
                    }
                    match accepted {
                        Ok((stream, _peer)) => {
                            let bell = Arc::new(Doorbell::default());
                            let conn = Connection::new(
                                stream,
                                Arc::clone(&catalog),
                                cfg.clone(),
                                Arc::clone(&stop),
                                Arc::clone(&open_conns),
                                Arc::clone(&bell),
                            );
                            let thread = thread::Builder::new()
                                .name("cscan-conn".into())
                                .spawn(move || conn.run())
                                .expect("spawn connection thread");
                            conns.push((bell, thread));
                            // Opportunistically reap finished threads so a
                            // long-lived server does not accumulate handles.
                            conns.retain(|(_, t)| !t.is_finished());
                        }
                        Err(_) => thread::park_timeout(ACCEPT_PAUSE),
                    }
                }
                for (bell, _) in &conns {
                    bell.ring();
                }
                for (_, t) in conns {
                    let _ = t.join();
                }
            })?
    };

    Ok(ServerHandle {
        stop,
        accept: Some(accept),
    })
}

/// Why the reader stopped.
enum ReadEnd {
    /// The peer closed, or the socket failed.
    Closed,
    /// The byte stream stopped being frames.
    Framing(ProtoError),
}

/// What the reader thread hands the serving thread.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    /// The reader waits here while `frames` is full.
    room: Condvar,
}

#[derive(Default)]
struct InboxState {
    frames: Vec<Message>,
    /// Set once: no frame will follow the ones above.
    end: Option<ReadEnd>,
    /// The serving thread is gone; the reader should go too.
    abandoned: bool,
}

impl Inbox {
    /// Moves everything decoded so far into `frames` (empty on entry).
    fn take(&self, frames: &mut Vec<Message>) -> Option<ReadEnd> {
        let mut st = self.state.lock();
        std::mem::swap(&mut st.frames, frames);
        let end = st.end.take();
        drop(st);
        if frames.len() >= INBOX_FRAMES {
            self.room.notify_one();
        }
        end
    }
}

/// A connection's reader thread: socket → [`Decoder`] → inbox, ringing
/// the doorbell for every frame and for the end of the stream.
fn read_loop(mut stream: TcpStream, inbox: &Inbox, bell: &Doorbell) {
    let mut dec = Decoder::new();
    let end = 'stream: loop {
        loop {
            match dec.next_message() {
                Ok(Some(msg)) => {
                    let mut st = inbox.state.lock();
                    while st.frames.len() >= INBOX_FRAMES && !st.abandoned {
                        inbox.room.wait(&mut st);
                    }
                    if st.abandoned {
                        return;
                    }
                    st.frames.push(msg);
                    drop(st);
                    bell.ring();
                }
                Ok(None) => break,
                Err(e) => break 'stream ReadEnd::Framing(e),
            }
        }
        match dec.read_from(&mut stream) {
            Ok(0) | Err(_) => break ReadEnd::Closed,
            Ok(_) => {}
        }
    };
    inbox.state.lock().end = Some(end);
    bell.ring();
}

/// Why the connection loop ended (drives cleanup, not the peer).
enum Exit {
    /// Peer closed, I/O error, or protocol violation.
    Closed,
    /// Drained a `Shutdown`/stop-flag goodbye; flush already attempted.
    Drained,
    /// Shed for stalling.
    Shed,
}

/// A connection's serving thread: everything but reading the socket.
struct Connection {
    stream: TcpStream,
    catalog: Arc<Catalog>,
    cfg: ServerConfig,
    stop: Arc<Stop>,
    open_conns: Arc<AtomicU64>,
    obs: Arc<Registry>,
    inbox: Arc<Inbox>,
    /// Rung by the reader, by stop, and — as the waker every scan of this
    /// connection is given — by the executor.
    bell: Arc<Doorbell>,
    /// Frames awaiting the socket.
    out: SendQueue,
    scans: Vec<ServerScan>,
    /// Ids are issued in increasing order and never reused, so an id below
    /// this one that is not in `scans` belongs to a scan that reached a
    /// terminal state: late frames addressed to it are ignored
    /// (`NextBatch`) or acked (`Cancel`) instead of erroring, because the
    /// client may race our `ScanDone`.
    next_scan_id: u64,
    /// Index of the next scan to pump (round-robin fairness).
    pump_at: usize,
    last_progress: Instant,
    goodbye_sent: bool,
}

impl Connection {
    fn new(
        stream: TcpStream,
        catalog: Arc<Catalog>,
        cfg: ServerConfig,
        stop: Arc<Stop>,
        open_conns: Arc<AtomicU64>,
        bell: Arc<Doorbell>,
    ) -> Connection {
        let obs = catalog.observability();
        obs.inc(Counter::ConnectionsOpened);
        let now = open_conns.fetch_add(1, Ordering::Relaxed) + 1;
        obs.gauge_set(Gauge::OpenConnections, now);
        Connection {
            stream,
            catalog,
            cfg,
            stop,
            open_conns,
            obs,
            inbox: Arc::new(Inbox::default()),
            bell,
            out: SendQueue::new(),
            scans: Vec::new(),
            next_scan_id: 1,
            pump_at: 0,
            last_progress: Instant::now(),
            goodbye_sent: false,
        }
    }

    fn run(mut self) {
        let _ = self.stream.set_nodelay(true);
        let _ = self.stream.set_write_timeout(Some(WRITE_SLICE));
        let reader = self.stream.try_clone().and_then(|stream| {
            let (inbox, bell) = (Arc::clone(&self.inbox), Arc::clone(&self.bell));
            thread::Builder::new()
                .name("cscan-conn-read".into())
                .spawn(move || read_loop(stream, &inbox, &bell))
        });
        let exit = if reader.is_ok() {
            self.serve_loop()
        } else {
            Exit::Closed
        };
        // Detach every scan; Drop releases the admission permits.
        for scan in &mut self.scans {
            scan.abort();
        }
        self.scans.clear();
        // Get the reader out of wherever it blocks — `read`, or the wait
        // for inbox room — and see it gone: the server's `join` promises
        // that every thread is.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.inbox.state.lock().abandoned = true;
        self.inbox.room.notify_one();
        if let Ok(reader) = reader {
            let _ = reader.join();
        }
        if matches!(exit, Exit::Shed) {
            self.obs.inc(Counter::ConnectionsShed);
        }
        let now = self.open_conns.fetch_sub(1, Ordering::Relaxed) - 1;
        self.obs.gauge_set(Gauge::OpenConnections, now);
    }

    fn serve_loop(&mut self) -> Exit {
        let mut frames = Vec::new();
        loop {
            let mut progressed = false;

            // Server-wide stop: say goodbye once, then drain and close.
            if self.stop.is_set() && !self.goodbye_sent {
                self.goodbye_sent = true;
                for scan in &mut self.scans {
                    scan.abort();
                }
                self.scans.clear();
                self.push(&Message::serve_error(0, &ServeError::ServerShutdown));
            }

            // 1. Take whatever the reader decoded.
            let end = self.inbox.take(&mut frames);

            // 2. Act on the frames.
            for msg in frames.drain(..) {
                progressed = true;
                match self.handle(msg) {
                    Ok(true) => {}
                    Ok(false) => {
                        // Goodbye queued; flush then close below.
                        self.goodbye_sent = true;
                        break;
                    }
                    Err(_) => return Exit::Closed,
                }
            }
            match end {
                None => {}
                Some(ReadEnd::Closed) => return Exit::Closed,
                Some(ReadEnd::Framing(e)) => {
                    // Framing is broken; tell the peer why, best effort,
                    // and drop the connection.
                    self.push(&Message::serve_error(
                        0,
                        &ServeError::BadRequest(e.to_string()),
                    ));
                    self.flush_blocking(Duration::from_millis(250));
                    return Exit::Closed;
                }
            }

            // 3. Pump scans while there is credit, data and buffer room.
            if self.pump_round() {
                progressed = true;
            }

            // 4. Push bytes to the socket.
            match self.write_some() {
                Ok(true) => progressed = true,
                Ok(false) => {}
                Err(_) => return Exit::Closed,
            }

            if self.goodbye_sent && self.unsent() == 0 {
                return Exit::Drained;
            }
            if progressed {
                self.last_progress = Instant::now();
                continue;
            }

            // Stall shedding: no progress in either direction while the
            // peer holds scans or unsent bytes.
            let holding = !self.scans.is_empty() || self.unsent() > 0;
            let stalled = self.last_progress.elapsed();
            if holding && stalled > self.cfg.stall_timeout {
                for scan in &mut self.scans {
                    scan.abort();
                    self.out
                        .put_frame(&Message::serve_error(scan.id, &ServeError::StalledConsumer));
                }
                self.scans.clear();
                if self.unsent() == 0 {
                    self.push(&Message::serve_error(0, &ServeError::StalledConsumer));
                }
                self.flush_blocking(Duration::from_millis(250));
                return Exit::Shed;
            }

            // Nothing moved.  With bytes unsent it is the socket this
            // thread waits for, and the write above just did, for a whole
            // slice; with none, everything else that can happen to this
            // connection rings the doorbell, so wait there — not past the
            // stall deadline, which rings nothing.
            if self.unsent() == 0 {
                let deadline = holding.then(|| self.last_progress + self.cfg.stall_timeout);
                self.bell.wait(deadline);
            }
        }
    }

    /// Applies one request frame.  `Ok(false)` means a goodbye is queued
    /// and the connection should flush and close.
    fn handle(&mut self, msg: Message) -> Result<bool, ()> {
        match msg {
            Message::OpenScan { table, plan } => {
                if self.scans.len() >= MAX_SCANS_PER_CONN {
                    self.push(&Message::serve_error(0, &ServeError::TooManyScans));
                    return Ok(true);
                }
                let Some(entry) = self.catalog.get(&table) else {
                    self.push(&Message::serve_error(0, &ServeError::UnknownTable(table)));
                    return Ok(true);
                };
                let entry = Arc::clone(entry);
                // Flush queued frames first: admission may block this
                // thread for up to the queue timeout, and earlier replies
                // should not be held hostage behind the wait.
                let _ = self.write_some();
                match entry.open_scan(&plan) {
                    Ok((permit, handle)) => {
                        let id = self.next_scan_id;
                        self.next_scan_id += 1;
                        let num_chunks = plan.num_chunks(entry.model());
                        let mut scan =
                            ServerScan::new(id, handle, permit, entry.served_columns(), &plan);
                        scan.set_waker(Waker::from(Arc::clone(&self.bell)));
                        self.scans.push(scan);
                        self.push(&Message::OpenOk {
                            scan_id: id,
                            num_chunks,
                        });
                    }
                    Err(e) => self.push(&Message::serve_error(0, &e)),
                }
                Ok(true)
            }
            Message::NextBatch { scan_id, credits } => {
                if let Some(scan) = self.scans.iter_mut().find(|s| s.id == scan_id) {
                    scan.add_credits(credits);
                } else if !self.was_issued(scan_id) {
                    self.push(&Message::serve_error(0, &ServeError::UnknownScan(scan_id)));
                }
                // Credits racing a ScanDone are silently dropped.
                Ok(true)
            }
            Message::Cancel { scan_id } => {
                if let Some(at) = self.scans.iter().position(|s| s.id == scan_id) {
                    let mut scan = self.scans.remove(at);
                    scan.abort();
                    self.push(&Message::CancelOk { scan_id });
                } else if self.was_issued(scan_id) {
                    // Cancel raced our ScanDone/Error; ack idempotently.
                    self.push(&Message::CancelOk { scan_id });
                } else {
                    self.push(&Message::serve_error(0, &ServeError::UnknownScan(scan_id)));
                }
                Ok(true)
            }
            Message::Shutdown => {
                for scan in &mut self.scans {
                    scan.abort();
                }
                self.scans.clear();
                self.push(&Message::ShutdownOk);
                if self.cfg.exit_on_shutdown {
                    self.stop.request();
                }
                Ok(false)
            }
            // Server-to-client frames arriving here are a protocol abuse.
            _ => {
                self.push(&Message::serve_error(
                    0,
                    &ServeError::BadRequest("unexpected server-side frame".into()),
                ));
                self.flush_blocking(Duration::from_millis(250));
                Err(())
            }
        }
    }

    /// Whether this connection ever opened a scan under `id` (0 is the
    /// connection itself, never a scan).
    fn was_issued(&self, id: u64) -> bool {
        (1..self.next_scan_id).contains(&id)
    }

    /// One fair round over all scans: keep pumping until nobody can make
    /// progress or the send queue reaches its cap.
    fn pump_round(&mut self) -> bool {
        let mut any = false;
        loop {
            if self.scans.is_empty() || self.unsent() >= OUTBUF_CAP {
                return any;
            }
            let mut delivered = false;
            let mut idx = 0;
            while idx < self.scans.len() {
                if self.unsent() >= OUTBUF_CAP {
                    break;
                }
                let at = (self.pump_at + idx) % self.scans.len();
                match self.scans[at].pump(&mut self.out, &self.obs) {
                    Pump::Delivered => {
                        delivered = true;
                        any = true;
                        idx += 1;
                    }
                    Pump::Idle => idx += 1,
                    Pump::Closed => {
                        any = true;
                        self.scans.remove(at);
                        // Restart the round: indices shifted.
                        break;
                    }
                }
            }
            self.pump_at = if self.scans.is_empty() {
                0
            } else {
                (self.pump_at + 1) % self.scans.len()
            };
            if !delivered {
                return any;
            }
        }
    }

    fn unsent(&self) -> usize {
        self.out.unsent()
    }

    fn push(&mut self, msg: &Message) {
        self.out.put_frame(msg);
    }

    /// One vectored write of the queue's front, which blocks until the
    /// socket has taken it or `WRITE_SLICE` has passed; `Ok(true)` if any
    /// bytes drained.
    fn write_some(&mut self) -> Result<bool, ()> {
        if self.unsent() == 0 {
            return Ok(false);
        }
        match self.out.write_to(&mut self.stream) {
            Ok(0) => Err(()),
            Ok(_) => Ok(true),
            // The slice ran out with the socket still full (either kind,
            // by platform), or a signal cut it short.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(_) => Err(()),
        }
    }

    /// Best-effort bounded flush used on goodbye paths (the socket may be
    /// full — that is often *why* we are leaving).
    fn flush_blocking(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        while self.unsent() > 0 && Instant::now() < deadline {
            if self.write_some().is_err() {
                return;
            }
        }
    }
}
