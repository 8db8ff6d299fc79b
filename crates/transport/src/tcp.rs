//! TCP transport: the same [`Network`] contract over real sockets.
//!
//! Frame format on the wire (all integers little-endian):
//!
//! ```text
//! [u32 length][u64 from][u64 to][u16 addr_len][addr utf8][payload]
//! ```
//!
//! `length` counts everything after itself (`16 + 2 + addr_len +
//! payload_len`). `addr` is the sender host's advertised listener address
//! (e.g. `127.0.0.1:41234`); a receiving host learns it and can route
//! replies back without any out-of-band registration — the same trick Java
//! RMI plays by embedding the endpoint in the remote reference.
//!
//! Each host binds one listener and runs **one event-loop thread** over a
//! readiness poller ([`crate::poller`]): the loop accepts connections,
//! reassembles inbound frames from nonblocking reads, and flushes per-link
//! outbound queues with write-interest-driven nonblocking writes. One I/O
//! core therefore drives hundreds of connections — the per-peer
//! reader/writer thread pairs of the original implementation are gone, but
//! the public API, the wire format, and the failure semantics are
//! unchanged. A sent frame waits on its link as header fields beside the
//! caller's payload `Vec`. A small frame first becomes wire bytes in the
//! link's batch buffer, where queued frames coalesce into batched write
//! syscalls. A *bulk* frame, one whose payload is a page or more (the
//! threshold at which [`crate::buffers`] pools buffers), ends its batch:
//! its header joins the batch buffer and its payload is written from its
//! own `Vec` by the same vectored write, so it is never copied in user
//! space. Either way the payload's buffer then goes back to
//! [`crate::buffers`].
//!
//! Reading is the mirror image. A connection's [`FrameReader`] reads into
//! the spare capacity of its reassembly buffer and cuts small frames from
//! it. Once a bulk frame's header is parsed, the rest of its payload is
//! read straight into a buffer from [`crate::buffers`], which is delivered
//! as the [`Datagram`]; the read after it asks for one header only, so the
//! next bulk payload does not pass through the reassembly buffer either.
//!
//! Dead connections reconnect with bounded backoff (rewriting the in-flight
//! batch, trading at-most-once for at-least-once on that boundary), and a
//! peer whose every connect attempt failed is marked broken — which
//! [`Network::endpoint_open`] surfaces so stubs can fail over instead of
//! burning reply timeouts.
//!
//! Outbound queues are unbounded but carry a high-water mark: a link whose
//! queued bytes cross [`LINK_HIGH_WATER_BYTES`] reports backpressure
//! through [`Network::backpressure`] until the queue drains below half the
//! mark. Pipelined callers (open-loop generators, stubs with hundreds of
//! outstanding invocations) use that signal to stop injecting instead of
//! ballooning the queue.
//!
//! This module is the one sanctioned wall-clock domain of the codebase:
//! protocol semantics run on the injected [`erm_sim::Clock`], but socket
//! I/O, reconnect backoff, and readiness waits are real time by nature.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use erm_metrics::{Gauge, MetricsHandle};
use parking_lot::Mutex;
use parking_lot::RwLock;

use crate::buffers;
use crate::endpoint::{Datagram, EndpointId, Mailbox, Network, SendError};
use crate::poller::{read_into, Event, Interest, Poller, Waker};

/// Fixed part of a frame after the length word: `from` + `to` + `addr_len`.
const FRAME_FIXED: usize = 8 + 8 + 2;
/// The event loop coalesces at most this many queued frames per batch.
const MAX_BATCH_FRAMES: usize = 64;
/// ... and at most this many bytes (one frame may exceed it alone).
const MAX_BATCH_BYTES: usize = 64 * 1024;
/// Largest frame the reassembler will accept; longer means a corrupt
/// stream and the connection is dropped.
const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;
/// The most one `read(2)` asks for into a connection's reassembly buffer,
/// and so the most that buffer reserves beyond the bytes that arrived. A
/// bulk payload is read into its own buffer instead, as much as is missing.
const READ_CHUNK: usize = 64 * 1024;
/// Connection attempts per pending batch before the peer is declared broken.
const CONNECT_ATTEMPTS: u32 = 5;
/// Base reconnect backoff, doubled per attempt (wall clock: I/O layer).
const CONNECT_BACKOFF: Duration = Duration::from_millis(1);
/// Ceiling on one blocking connect attempt inside the event loop.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);
/// Poll timeout when nothing is scheduled; wakeups cut it short.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Queued outbound bytes above which a link reports backpressure.
pub const LINK_HIGH_WATER_BYTES: usize = 1 << 20;
/// Backpressure clears once the queue drains below this (half the mark,
/// so the signal doesn't flap at the boundary).
const LINK_LOW_WATER_BYTES: usize = LINK_HIGH_WATER_BYTES / 2;

/// Counters a [`TcpHost`] keeps about its socket activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Frames successfully written to a socket.
    pub frames_sent: u64,
    /// Frames parsed off inbound connections.
    pub frames_received: u64,
    /// Write syscalls issued (each may carry many coalesced frames).
    pub batches: u64,
    /// Connections re-established after an established one died.
    pub reconnects: u64,
    /// Frames dropped after every connect attempt to the peer failed.
    pub frames_dropped: u64,
    /// Write syscalls that accepted only part of the batch.
    pub partial_writes: u64,
    /// Write syscalls refused outright (`EWOULDBLOCK`), re-armed via
    /// write interest.
    pub wouldblock_retries: u64,
    /// Times a link's outbound queue crossed [`LINK_HIGH_WATER_BYTES`].
    pub backpressure_events: u64,
    /// Connections established ahead of first use via
    /// [`TcpHost::preconnect`], before any frame was queued on the link.
    pub preconnects: u64,
}

/// A TCP-backed [`Network`] host.
///
/// Each process runs one `TcpHost`; it owns the local endpoints and a
/// routing table mapping remote endpoint ids to the socket address of the
/// host serving them. Routes are learned three ways: explicitly via
/// [`TcpHost::register_peer`], per host via [`TcpHost::register_host`]
/// (ids embed their host index, so one entry routes every endpoint of a
/// host — including ones that do not exist yet, which is what lets a stub
/// reach members an elastic pool adds later), and automatically from the
/// advertised address carried in every inbound frame.
///
/// Endpoint id allocation is partitioned by `host_index` (ids are
/// `host_index * 2^32 + n`) so ids remain unique and ordered across hosts
/// without coordination.
///
/// # Example
///
/// ```no_run
/// use erm_transport::{Network, TcpHost};
///
/// let host_a = TcpHost::bind("127.0.0.1:0", 0)?;
/// let host_b = TcpHost::bind("127.0.0.1:0", 1)?;
/// let (a, mail_a) = host_a.open_endpoint();
/// let (b, mail_b) = host_b.open_endpoint();
/// host_a.register_peer(b, host_b.local_addr());
/// host_a.send(a, b, b"over tcp".to_vec())?;
/// let got = mail_b.recv()?;
/// assert_eq!(got.payload, b"over tcp");
/// // host_b learned host_a's address from the frame: replies just work.
/// host_b.send(b, a, b"and back".to_vec())?;
/// assert_eq!(mail_a.recv()?.payload, b"and back");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TcpHost {
    inner: Arc<HostInner>,
}

#[derive(Debug)]
struct HostInner {
    local_addr: SocketAddr,
    /// `local_addr` rendered once for embedding in outgoing frames.
    advertised: Vec<u8>,
    host_index: u32,
    next_local: AtomicU64,
    local: RwLock<HashMap<EndpointId, Sender<Datagram>>>,
    peers: RwLock<HashMap<EndpointId, SocketAddr>>,
    /// Fallback routes: host index -> listener address. Covers every
    /// endpoint of that host, present and future.
    host_routes: RwLock<HashMap<u32, SocketAddr>>,
    /// Sender-visible half of each outbound link; the event loop owns the
    /// sockets themselves.
    links: Mutex<HashMap<SocketAddr, Arc<LinkShared>>>,
    /// Nudges the event loop out of its poll when senders queue work.
    waker: Waker,
    /// Set by senders after queueing; cleared by the loop before it
    /// flushes, so bursts collapse into one wakeup per loop pass.
    dirty: AtomicBool,
    shutdown: AtomicBool,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    batches: AtomicU64,
    reconnects: AtomicU64,
    frames_dropped: AtomicU64,
    partial_writes: AtomicU64,
    wouldblock_retries: AtomicU64,
    backpressure_events: AtomicU64,
    preconnects: AtomicU64,
    telemetry: OnceLock<TcpTelemetry>,
}

/// The two live registry gauges [`TcpStats`] has no field for.
#[derive(Debug)]
struct TcpTelemetry {
    queued_bytes: Gauge,
    links_backpressured: Gauge,
}

/// The half of an outbound link both senders and the event loop touch.
#[derive(Debug, Default)]
struct LinkShared {
    /// Frames awaiting the event loop, FIFO per link.
    queue: Mutex<VecDeque<QueuedFrame>>,
    /// Wire size of `queue`, kept outside the lock so `backpressure` checks
    /// stay wait-free. Senders add while they hold the `queue` lock for the
    /// push; the loop subtracts what it popped under that lock, so it never
    /// subtracts bytes that are not yet added.
    queued_bytes: AtomicU64,
    /// Set when a full reconnect cycle failed; cleared on the next
    /// successful connect. `endpoint_open` reads it.
    broken: AtomicBool,
    /// Set when `queued_bytes` crossed the high-water mark; cleared once
    /// the loop drains the queue below the low-water mark.
    backpressured: AtomicBool,
    /// Set by [`TcpHost::preconnect`]: the event loop dials this link even
    /// with an empty queue, so the handshake cost is paid before the first
    /// frame needs it (warm-standby members are connected before they are
    /// routed to). Cleared only when a full dial cycle fails with nothing
    /// pending, so a dead preconnect target can't keep the loop dialing
    /// forever.
    dial_ahead: AtomicBool,
}

impl HostInner {
    fn tel(&self) -> Option<&TcpTelemetry> {
        self.telemetry.get()
    }

    fn count_backpressure(&self) {
        self.backpressure_events.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tel() {
            t.links_backpressured.add(1);
        }
    }

    fn gauge_backpressure_cleared(&self) {
        if let Some(t) = self.tel() {
            t.links_backpressured.add(-1);
        }
    }

    fn gauge_queued(&self, delta: i64) {
        if let Some(t) = self.tel() {
            t.queued_bytes.add(delta);
        }
    }
}

impl TcpHost {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and
    /// starts the event-loop thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind and poller setup errors.
    pub fn bind(addr: &str, host_index: u32) -> std::io::Result<TcpHost> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (poller, waker) = Poller::new()?;
        let inner = Arc::new(HostInner {
            local_addr,
            advertised: local_addr.to_string().into_bytes(),
            host_index,
            next_local: AtomicU64::new(0),
            local: RwLock::new(HashMap::new()),
            peers: RwLock::new(HashMap::new()),
            host_routes: RwLock::new(HashMap::new()),
            links: Mutex::new(HashMap::new()),
            waker,
            dirty: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            frames_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            frames_dropped: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            wouldblock_retries: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
            preconnects: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        });
        let loop_inner = Arc::clone(&inner);
        thread::Builder::new()
            .name(format!("tcp-loop-{local_addr}"))
            .spawn(move || {
                EventLoop {
                    inner: loop_inner,
                    poller,
                    listener,
                    inbound: HashMap::new(),
                    out: HashMap::new(),
                }
                .run();
            })?;
        Ok(TcpHost { inner })
    }

    /// The address peers should use to reach endpoints on this host.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Opens a local endpoint.
    pub fn open_endpoint(&self) -> (EndpointId, Mailbox) {
        let n = self.inner.next_local.fetch_add(1, Ordering::SeqCst);
        let id = EndpointId((u64::from(self.inner.host_index) << 32) | n);
        let (tx, rx) = unbounded();
        self.inner.local.write().insert(id, tx);
        (id, Mailbox::new(id, rx))
    }

    /// Closes a local endpoint.
    pub fn close_endpoint(&self, id: EndpointId) {
        self.inner.local.write().remove(&id);
    }

    /// Teaches this host that endpoint `id` lives on the host at `addr`.
    pub fn register_peer(&self, id: EndpointId, addr: SocketAddr) {
        self.inner.peers.write().insert(id, addr);
    }

    /// Teaches this host that *every* endpoint whose id carries
    /// `host_index` lives on the host at `addr` — the one line of
    /// bootstrap a client needs to reach an elastic pool, since members the
    /// pool adds later share the server's host index.
    pub fn register_host(&self, host_index: u32, addr: SocketAddr) {
        self.inner.host_routes.write().insert(host_index, addr);
    }

    /// Snapshot of the socket counters.
    pub fn stats(&self) -> TcpStats {
        TcpStats {
            frames_sent: self.inner.frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.frames_received.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            frames_dropped: self.inner.frames_dropped.load(Ordering::Relaxed),
            partial_writes: self.inner.partial_writes.load(Ordering::Relaxed),
            wouldblock_retries: self.inner.wouldblock_retries.load(Ordering::Relaxed),
            backpressure_events: self.inner.backpressure_events.load(Ordering::Relaxed),
            preconnects: self.inner.preconnects.load(Ordering::Relaxed),
        }
    }

    /// Registers the live `tcp.outbound.queued_bytes` and
    /// `tcp.links.backpressured` gauges with `metrics`. The counters are
    /// [`TcpHost::stats`]. Later installs on the same host are ignored,
    /// matching the other components' `install_metrics`.
    pub fn install_metrics(&self, metrics: &MetricsHandle) {
        let _ = self.inner.telemetry.set(TcpTelemetry {
            queued_bytes: metrics.gauge("tcp.outbound.queued_bytes"),
            links_backpressured: metrics.gauge("tcp.links.backpressured"),
        });
    }

    /// Asks the event loop to establish the connection to the host serving
    /// `to` *now*, before any frame is queued for it. Returns whether a
    /// route to `to` is known (an unroutable endpoint cannot be dialed).
    ///
    /// The normal path dials lazily on the first `send`, so the first
    /// invocation against a freshly registered member pays the TCP
    /// handshake inside its latency budget. An elastic pool that
    /// pre-announces members (warm standbys, or grants it knows are
    /// coming) calls this when the registration arrives; by the time the
    /// balancer flips routes to the member, the link is already up. Dial
    /// failures follow the usual reconnect machinery — bounded attempts
    /// with doubled backoff, then the link is marked broken (visible via
    /// [`Network::endpoint_open`]) and dial-ahead is disarmed until the
    /// next `preconnect` or real send re-arms it. Successful dial-ahead
    /// connects are counted in [`TcpStats::preconnects`].
    pub fn preconnect(&self, to: EndpointId) -> bool {
        if (to.0 >> 32) as u32 == self.inner.host_index {
            return true; // local delivery needs no socket
        }
        let Some(addr) = self.route(to) else {
            return false;
        };
        let link = {
            let mut links = self.inner.links.lock();
            Arc::clone(links.entry(addr).or_default())
        };
        link.dial_ahead.store(true, Ordering::SeqCst);
        if !self.inner.dirty.swap(true, Ordering::SeqCst) {
            self.inner.waker.wake();
        }
        true
    }

    /// Stops the event loop (best-effort; used on drop paths in examples).
    /// Undelivered queued frames are abandoned.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.waker.wake();
    }

    /// Routes `to` to a listener address, if any route is known.
    fn route(&self, to: EndpointId) -> Option<SocketAddr> {
        if let Some(addr) = self.inner.peers.read().get(&to) {
            return Some(*addr);
        }
        let host = (to.0 >> 32) as u32;
        self.inner.host_routes.read().get(&host).copied()
    }

    /// Queues a frame on the peer's link (created on first use) and nudges
    /// the event loop.
    fn enqueue(&self, addr: SocketAddr, frame: QueuedFrame) {
        let link = {
            let mut links = self.inner.links.lock();
            Arc::clone(links.entry(addr).or_default())
        };
        let len = frame.wire_len() as u64;
        let total = {
            let mut queue = link.queue.lock();
            queue.push_back(frame);
            link.queued_bytes.fetch_add(len, Ordering::SeqCst) + len
        };
        self.inner.gauge_queued(len as i64);
        if total as usize >= LINK_HIGH_WATER_BYTES
            && !link.backpressured.swap(true, Ordering::SeqCst)
        {
            self.inner.count_backpressure();
        }
        if !self.inner.dirty.swap(true, Ordering::SeqCst) {
            self.inner.waker.wake();
        }
    }
}

impl crate::endpoint::Host for TcpHost {
    fn open(&self) -> (EndpointId, Mailbox) {
        self.open_endpoint()
    }

    fn close(&self, id: EndpointId) {
        self.close_endpoint(id);
    }
}

impl Network for TcpHost {
    fn send(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        // Local fast path.
        if let Some(tx) = self.inner.local.read().get(&to) {
            let _ = tx.send(Datagram { from, payload });
            return Ok(());
        }
        let addr = self.route(to).ok_or(SendError::Unreachable(to))?;
        let frame = QueuedFrame::new(from, to, &self.inner.advertised, payload)
            .ok_or(SendError::Unreachable(to))?;
        // Success means "accepted for delivery", like UDP: the event loop
        // owns actual delivery, reconnecting as needed.
        self.enqueue(addr, frame);
        Ok(())
    }

    fn endpoint_open(&self, id: EndpointId) -> bool {
        if (id.0 >> 32) as u32 == self.inner.host_index {
            return self.inner.local.read().contains_key(&id);
        }
        let Some(addr) = self.route(id) else {
            return false;
        };
        match self.inner.links.lock().get(&addr) {
            Some(link) => !link.broken.load(Ordering::SeqCst),
            // No traffic yet: optimistically open.
            None => true,
        }
    }

    fn backpressure(&self, to: EndpointId) -> bool {
        if (to.0 >> 32) as u32 == self.inner.host_index {
            return false;
        }
        let Some(addr) = self.route(to) else {
            return false;
        };
        self.inner
            .links
            .lock()
            .get(&addr)
            .is_some_and(|link| link.backpressured.load(Ordering::SeqCst))
    }
}

/// One outbound frame as it waits on a link: the header fields and the
/// caller's payload `Vec` as handed to `send`. The header's wire bytes exist
/// only in the batch buffer, where [`QueuedFrame::write_header`] puts them;
/// the payload joins them there unless it is bulk.
#[derive(Debug)]
struct QueuedFrame {
    from: EndpointId,
    to: EndpointId,
    /// The frame's length word: everything after itself.
    len: u32,
    payload: Vec<u8>,
}

impl QueuedFrame {
    /// `None` if the frame would exceed the u32 length word.
    fn new(
        from: EndpointId,
        to: EndpointId,
        advertised: &[u8],
        payload: Vec<u8>,
    ) -> Option<QueuedFrame> {
        u16::try_from(advertised.len()).ok()?;
        let len = u32::try_from(FRAME_FIXED + advertised.len() + payload.len()).ok()?;
        Some(QueuedFrame {
            from,
            to,
            len,
            payload,
        })
    }

    /// Bytes this frame occupies on the stream, length word included.
    fn wire_len(&self) -> usize {
        4 + self.len as usize
    }

    /// Whether the payload is written from its own buffer rather than
    /// copied into the batch.
    fn is_bulk(&self) -> bool {
        self.payload.len() >= buffers::MIN_CAPACITY
    }

    /// Appends the frame's header, everything ahead of the payload (see the
    /// module doc), to a batch buffer. `advertised` is the host's, the one
    /// `new` checked and sized `len` for.
    fn write_header(&self, out: &mut Vec<u8>, advertised: &[u8]) {
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.from.0.to_le_bytes());
        out.extend_from_slice(&self.to.0.to_le_bytes());
        out.extend_from_slice(&(advertised.len() as u16).to_le_bytes());
        out.extend_from_slice(advertised);
    }
}

/// One accepted inbound connection and the reader of its frames.
#[derive(Debug)]
struct InboundConn {
    stream: TcpStream,
    reader: FrameReader,
}

/// The advertised address a connection's frames last carried, as bytes and
/// parsed: a connection's peer advertises one address, so it is parsed once.
type Advertised = Option<(Vec<u8>, SocketAddr)>;

/// The event loop's private half of an outbound link: the socket, the
/// batch being written, and the reconnect schedule.
#[derive(Debug)]
struct OutLink {
    shared: Arc<LinkShared>,
    conn: Option<TcpStream>,
    /// Frames peers push back on the outbound socket (unusual but legal);
    /// also where a peer's FIN is observed.
    reader: FrameReader,
    /// The batch currently being written: coalesced frames, then at most
    /// one bulk payload written from its own buffer; a cursor over both;
    /// and per-frame end offsets so `frames_sent` counts a frame exactly
    /// once even across partial writes and whole-batch rewrites.
    scratch: Vec<u8>,
    bulk: Option<Vec<u8>>,
    scratch_off: usize,
    scratch_frames: Vec<usize>,
    scratch_sent: usize,
    attempts: u32,
    ever_connected: bool,
    next_connect_at: Option<Instant>,
    /// Register write interest next poll (a write returned `EWOULDBLOCK`).
    want_write: bool,
}

impl OutLink {
    fn new(shared: Arc<LinkShared>) -> OutLink {
        OutLink {
            shared,
            conn: None,
            reader: FrameReader::default(),
            scratch: Vec::new(),
            bulk: None,
            scratch_off: 0,
            scratch_frames: Vec::new(),
            scratch_sent: 0,
            attempts: 0,
            ever_connected: false,
            next_connect_at: None,
            want_write: false,
        }
    }

    /// Bytes in the batch: the scratch buffer, then the bulk payload.
    fn batch_len(&self) -> usize {
        self.scratch.len() + self.bulk.as_ref().map_or(0, Vec::len)
    }

    /// Anything left to deliver (batch remainder or queued frames)?
    fn has_pending(&self) -> bool {
        self.scratch_off < self.batch_len() || !self.shared.queue.lock().is_empty()
    }

    /// Empties the batch; a bulk payload's buffer goes back to `buffers`.
    fn clear_batch(&mut self) {
        self.scratch.clear();
        if let Some(payload) = self.bulk.take() {
            buffers::recycle(payload);
        }
        self.scratch_frames.clear();
        self.scratch_off = 0;
        self.scratch_sent = 0;
    }

    /// Tears down the connection so the next `drive_connects` pass
    /// redials; the in-flight batch rewinds to its start (at-least-once).
    fn drop_conn(&mut self) {
        self.conn = None;
        self.scratch_off = 0;
        self.want_write = false;
        self.next_connect_at = None;
    }
}

/// Routing target of one ready fd.
#[derive(Debug, Clone, Copy)]
enum Token {
    Listener,
    Inbound(RawFd),
    Out(SocketAddr),
}

/// The single I/O thread behind a [`TcpHost`].
struct EventLoop {
    inner: Arc<HostInner>,
    poller: Poller,
    listener: TcpListener,
    inbound: HashMap<RawFd, InboundConn>,
    out: HashMap<SocketAddr, OutLink>,
}

impl EventLoop {
    fn run(mut self) {
        let mut fds: Vec<(RawFd, Interest)> = Vec::new();
        let mut tokens: HashMap<RawFd, Token> = HashMap::new();
        let mut events: Vec<Event> = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Clear the dirty flag *before* flushing: a sender that queues
            // after this point wakes the poller, so nothing is stranded.
            self.inner.dirty.store(false, Ordering::SeqCst);
            self.adopt_new_links();
            self.drive_connects();
            addrs.clear();
            addrs.extend(self.out.keys());
            for addr in &addrs {
                self.flush(*addr);
            }

            fds.clear();
            tokens.clear();
            let listener_fd = self.listener.as_raw_fd();
            fds.push((listener_fd, Interest::READ));
            tokens.insert(listener_fd, Token::Listener);
            for &fd in self.inbound.keys() {
                fds.push((fd, Interest::READ));
                tokens.insert(fd, Token::Inbound(fd));
            }
            for (addr, link) in &self.out {
                if let Some(conn) = &link.conn {
                    let fd = conn.as_raw_fd();
                    let interest = if link.want_write {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    fds.push((fd, interest));
                    tokens.insert(fd, Token::Out(*addr));
                }
            }

            let timeout = self.next_timeout();
            if self.poller.wait(&fds, Some(timeout), &mut events).is_err() {
                // Poller failure is unrecoverable fd exhaustion; back off
                // rather than spin.
                thread::sleep(Duration::from_millis(10));
                continue;
            }
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            for ev in events.iter().copied() {
                match tokens.get(&ev.fd) {
                    Some(Token::Listener) => self.accept_ready(),
                    Some(Token::Inbound(fd)) => self.inbound_ready(*fd, ev.error),
                    Some(Token::Out(addr)) => self.out_ready(*addr, ev),
                    None => {}
                }
            }
        }
    }

    /// Creates loop-side state for links senders opened since last pass.
    fn adopt_new_links(&mut self) {
        let links = self.inner.links.lock();
        for (addr, shared) in links.iter() {
            if !self.out.contains_key(addr) {
                self.out.insert(*addr, OutLink::new(Arc::clone(shared)));
            }
        }
    }

    /// Dials every disconnected link whose backoff has elapsed and that
    /// either has pending output or was armed for dial-ahead by
    /// [`TcpHost::preconnect`]. Refused connects are instant on loopback;
    /// an unanswered SYN blocks at most [`CONNECT_TIMEOUT`].
    fn drive_connects(&mut self) {
        let inner = Arc::clone(&self.inner);
        let now = Instant::now();
        for (addr, link) in self.out.iter_mut() {
            if link.conn.is_some()
                || !(link.has_pending() || link.shared.dial_ahead.load(Ordering::SeqCst))
            {
                continue;
            }
            if link.next_connect_at.is_some_and(|due| now < due) {
                continue;
            }
            match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    if link.ever_connected {
                        inner.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    if !link.has_pending() {
                        // Nothing queued: this dial happened purely ahead
                        // of use.
                        inner.preconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    link.ever_connected = true;
                    link.shared.broken.store(false, Ordering::SeqCst);
                    link.attempts = 0;
                    link.next_connect_at = None;
                    link.conn = Some(stream);
                }
                Err(_) => {
                    link.attempts += 1;
                    if link.attempts >= CONNECT_ATTEMPTS {
                        give_up(link, &inner);
                        link.attempts = 0;
                        link.next_connect_at = None;
                    } else {
                        let backoff = CONNECT_BACKOFF * 2u32.saturating_pow(link.attempts - 1);
                        link.next_connect_at = Some(now + backoff);
                    }
                }
            }
        }
    }

    /// Writes as much of the link's pending output as the socket accepts:
    /// refills the batch from the queue, issues nonblocking writes, and
    /// re-arms write interest on `EWOULDBLOCK`. A bulk frame ends its batch;
    /// the batch's scratch bytes and its payload go out in one vectored
    /// write.
    fn flush(&mut self, addr: SocketAddr) {
        let inner = Arc::clone(&self.inner);
        let Some(link) = self.out.get_mut(&addr) else {
            return;
        };
        if link.conn.is_none() {
            return;
        }
        loop {
            if link.scratch_off == link.batch_len() {
                link.clear_batch();
                let mut taken = 0usize;
                {
                    let mut queue = link.shared.queue.lock();
                    while link.scratch_frames.len() < MAX_BATCH_FRAMES
                        && link.scratch.len() < MAX_BATCH_BYTES
                    {
                        let Some(frame) = queue.pop_front() else {
                            break;
                        };
                        taken += frame.wire_len();
                        frame.write_header(&mut link.scratch, &inner.advertised);
                        if frame.is_bulk() {
                            link.scratch_frames
                                .push(link.scratch.len() + frame.payload.len());
                            link.bulk = Some(frame.payload);
                            break;
                        }
                        link.scratch.extend_from_slice(&frame.payload);
                        link.scratch_frames.push(link.scratch.len());
                        buffers::recycle(frame.payload);
                    }
                }
                if taken > 0 {
                    let left = link
                        .shared
                        .queued_bytes
                        .fetch_sub(taken as u64, Ordering::SeqCst)
                        - taken as u64;
                    inner.gauge_queued(-(taken as i64));
                    if left as usize <= LINK_LOW_WATER_BYTES
                        && link.shared.backpressured.swap(false, Ordering::SeqCst)
                    {
                        inner.gauge_backpressure_cleared();
                    }
                }
                if link.scratch.is_empty() {
                    link.want_write = false;
                    return;
                }
            }
            let conn = link.conn.as_mut().expect("checked above");
            let written = match &link.bulk {
                None => conn.write(&link.scratch[link.scratch_off..]),
                Some(payload) => {
                    let (head, body) = match link.scratch_off.checked_sub(link.scratch.len()) {
                        Some(into_body) => (&[][..], &payload[into_body..]),
                        None => (&link.scratch[link.scratch_off..], &payload[..]),
                    };
                    conn.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
                }
            };
            match written {
                Ok(0) => {
                    link.drop_conn();
                    return;
                }
                Ok(n) => {
                    inner.batches.fetch_add(1, Ordering::Relaxed);
                    if n < link.batch_len() - link.scratch_off {
                        inner.partial_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    link.scratch_off += n;
                    while link.scratch_sent < link.scratch_frames.len()
                        && link.scratch_frames[link.scratch_sent] <= link.scratch_off
                    {
                        link.scratch_sent += 1;
                        inner.frames_sent.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    inner.wouldblock_retries.fetch_add(1, Ordering::Relaxed);
                    link.want_write = true;
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // The peer closed on us: a partially written frame is torn
                // off by the receiver's framing; rewriting the whole batch
                // on a fresh connection trades at-most-once for
                // at-least-once on this boundary, which the RMI layer's
                // call-id matching already tolerates. `scratch_sent` is
                // kept so rewritten frames aren't counted sent twice.
                Err(_) => {
                    link.drop_conn();
                    return;
                }
            }
        }
    }

    /// Drains the accept queue into `inbound`.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.inbound.insert(
                        stream.as_raw_fd(),
                        InboundConn {
                            stream,
                            reader: FrameReader::default(),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Reads and reassembles frames from one inbound connection; drops the
    /// connection on EOF, I/O error, or a malformed stream.
    fn inbound_ready(&mut self, fd: RawFd, error: bool) {
        let inner = Arc::clone(&self.inner);
        let Some(conn) = self.inbound.get_mut(&fd) else {
            return;
        };
        if !conn.reader.read_from(&conn.stream, &inner) || error {
            self.inbound.remove(&fd);
        }
    }

    /// Handles readiness on an outbound connection: flushes on writable,
    /// reads on readable (frames a peer pushes back, or its FIN), and
    /// tears the socket down on error so the reconnect path takes over.
    fn out_ready(&mut self, addr: SocketAddr, ev: Event) {
        if ev.readable || ev.error {
            let inner = Arc::clone(&self.inner);
            let Some(link) = self.out.get_mut(&addr) else {
                return;
            };
            let Some(conn) = link.conn.as_ref() else {
                return;
            };
            if !link.reader.read_from(conn, &inner) || ev.error {
                link.drop_conn();
                return;
            }
        }
        if ev.writable {
            self.flush(addr);
        }
    }

    /// Poll timeout: the earliest reconnect deadline (pending output or an
    /// armed dial-ahead), else a lazy tick (wakeups cut either short).
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = IDLE_TICK;
        for link in self.out.values() {
            if link.conn.is_none()
                && (link.has_pending() || link.shared.dial_ahead.load(Ordering::SeqCst))
            {
                let due = link.next_connect_at.unwrap_or(now);
                timeout = timeout.min(due.saturating_duration_since(now));
            }
        }
        timeout
    }
}

/// Every connect attempt failed: drop everything pending, mark the link
/// broken (surfaced by `endpoint_open`), and clear backpressure — the
/// datagram contract allows loss, and failing fast is what lets stubs
/// fail over instead of waiting out reply timeouts.
fn give_up(link: &mut OutLink, inner: &HostInner) {
    let unsent_scratch = (link.scratch_frames.len() - link.scratch_sent) as u64;
    // Zeroed under the queue lock, like every other change to it: a sender
    // racing this sees either the cleared queue and counter or neither.
    let (queued, cleared_bytes) = {
        let mut queue = link.shared.queue.lock();
        let n = queue.len() as u64;
        queue.clear();
        (n, link.shared.queued_bytes.swap(0, Ordering::SeqCst))
    };
    inner.gauge_queued(-(cleared_bytes as i64));
    link.clear_batch();
    link.want_write = false;
    if link.shared.backpressured.swap(false, Ordering::SeqCst) {
        inner.gauge_backpressure_cleared();
    }
    link.shared.broken.store(true, Ordering::SeqCst);
    // Disarm dial-ahead: without pending frames nothing else stops the
    // dial loop, and a dead preconnect target must not keep the event loop
    // connect-spinning. The next preconnect or send re-arms the dial.
    link.shared.dial_ahead.store(false, Ordering::SeqCst);
    let dropped = unsent_scratch + queued;
    if dropped > 0 {
        inner.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
    }
}

/// Reassembles the frames of one connection's byte stream and delivers
/// them, learning reply routes from their advertised addresses.
///
/// Small frames are read into `buf` and cut from it. Once a bulk frame's
/// header has arrived, the rest of its payload is read into `body`'s own
/// buffer, which becomes the delivered [`Datagram`]; the bytes of it that
/// came in with the header are the only ones copied. The read after a bulk
/// frame asks for one header only, so a run of bulk frames never passes
/// through `buf`. A bulk payload above `buffers`' largest pooled size is
/// reassembled in `buf` like a small one, so that what a peer announces is
/// not reserved before it arrives.
#[derive(Debug, Default)]
struct FrameReader {
    /// Bytes read and not yet cut into frames.
    buf: Vec<u8>,
    /// The bulk frame being read into its own buffer, if any.
    body: Option<Frame>,
    /// The last header parsed was a bulk frame's: read one header next.
    header_next: bool,
    /// The advertised address the connection's frames last carried.
    advertised: Advertised,
}

/// An inbound frame whose header has been parsed: where it goes, and its
/// payload as far as it has arrived.
#[derive(Debug)]
struct Frame {
    from: EndpointId,
    to: EndpointId,
    /// The header advertised an address to learn the sender's route from.
    learn: bool,
    payload: Vec<u8>,
    len: usize,
}

/// The parsed header of one frame: everything ahead of its payload.
struct Header {
    from: EndpointId,
    to: EndpointId,
    /// Where the advertised address lies in the bytes parsed; the payload
    /// starts where it ends.
    addr: Range<usize>,
    payload_len: usize,
}

impl FrameReader {
    /// Reads whatever the socket has and delivers every frame completed.
    /// Returns whether the connection is still usable: false on EOF, an
    /// I/O error or a malformed stream, after which it must be dropped (a
    /// partly read frame with it).
    fn read_from(&mut self, stream: &TcpStream, inner: &HostInner) -> bool {
        let fd = stream.as_raw_fd();
        loop {
            let (target, want) = match &mut self.body {
                Some(body) => {
                    let missing = body.len - body.payload.len();
                    (&mut body.payload, missing)
                }
                None if self.header_next => {
                    let want = self.header_want();
                    (&mut self.buf, want)
                }
                None => (&mut self.buf, READ_CHUNK),
            };
            match read_into(fd, target, want) {
                Ok(0) => return false,
                Ok(n) => {
                    if self.parse(inner).is_err() {
                        return false;
                    }
                    if n < want {
                        // Short read: the socket is (almost certainly)
                        // drained; anything more re-arms via
                        // level-triggered readiness.
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Bytes still missing from the next frame's header, guessing the
    /// address length from the connection's last one until the header's
    /// own has arrived. At least one, so a read never asks for nothing.
    fn header_want(&self) -> usize {
        let addr_len = match self.buf.get(4 + 16..4 + FRAME_FIXED) {
            Some(raw) => u16::from_le_bytes(raw.try_into().expect("2 bytes")) as usize,
            None => self.advertised.as_ref().map_or(0, |(raw, _)| raw.len()),
        };
        (4 + FRAME_FIXED + addr_len)
            .saturating_sub(self.buf.len())
            .max(1)
    }

    /// Delivers a bulk payload that is complete, then every complete frame
    /// in `buf`; a bulk frame's header moves its payload's bytes so far into
    /// a buffer of its own. Consumed bytes are drained from `buf`.
    ///
    /// # Errors
    ///
    /// A nonsensical length or header means the stream is corrupt beyond
    /// resynchronization; the caller must drop the connection.
    fn parse(&mut self, inner: &HostInner) -> Result<(), ()> {
        if let Some(body) = self.body.take_if(|body| body.payload.len() == body.len) {
            self.deliver(inner, body);
        }
        if self.body.is_some() {
            return Ok(());
        }
        let mut consumed = 0usize;
        let result = loop {
            let Some(header) = parse_header(&self.buf[consumed..]).transpose() else {
                break Ok(()); // header incomplete
            };
            let Ok(header) = header else {
                break Err(()); // malformed frame
            };
            let raw = &self.buf[consumed..][header.addr.clone()];
            let learn = !raw.is_empty();
            if learn
                && self
                    .advertised
                    .as_ref()
                    .is_none_or(|(seen, _)| seen[..] != *raw)
            {
                self.advertised = std::str::from_utf8(raw)
                    .ok()
                    .and_then(|s| s.parse::<SocketAddr>().ok())
                    .map(|addr| (raw.to_vec(), addr));
            }
            let start = consumed + header.addr.end;
            let len = header.payload_len;
            let arrived = (self.buf.len() - start).min(len);
            let bulk = (buffers::MIN_CAPACITY..=buffers::MAX_CAPACITY).contains(&len);
            self.header_next = bulk;
            if !bulk && arrived < len {
                break Ok(()); // small payload incomplete
            }
            let mut payload = buffers::take(len);
            payload.extend_from_slice(&self.buf[start..start + arrived]);
            consumed = start + arrived;
            let frame = Frame {
                from: header.from,
                to: header.to,
                learn,
                payload,
                len,
            };
            if arrived < len {
                self.body = Some(frame); // the rest is read into its buffer
                break Ok(());
            }
            self.deliver(inner, frame);
        };
        if consumed > 0 {
            self.buf.drain(..consumed);
        }
        result
    }

    /// Hands a complete frame's payload to its local mailbox, after
    /// learning the sender's route from the connection's advertised address
    /// (when the frame carried one) so replies route without any
    /// out-of-band registration.
    fn deliver(&self, inner: &HostInner, frame: Frame) {
        let Frame {
            from,
            to,
            learn,
            payload,
            ..
        } = frame;
        // The write locks are taken only to change a route, which after a
        // connection's first frame is almost never.
        if let Some(&(_, addr)) = self.advertised.as_ref().filter(|_| learn) {
            if inner.peers.read().get(&from) != Some(&addr) {
                inner.peers.write().insert(from, addr);
            }
            let sender_host = (from.0 >> 32) as u32;
            if inner.host_routes.read().get(&sender_host) != Some(&addr) {
                inner.host_routes.write().insert(sender_host, addr);
            }
        }
        inner.frames_received.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = inner.local.read().get(&to) {
            let _ = tx.send(Datagram { from, payload });
        }
        // Unknown destination: frame dropped, like a NIC with no listener.
    }
}

/// Parses the header at the front of `bytes`: `Ok(None)` while it is
/// incomplete.
///
/// # Errors
///
/// A length outside the legal frame sizes, or an address longer than the
/// frame.
fn parse_header(bytes: &[u8]) -> Result<Option<Header>, ()> {
    let Some(len) = bytes.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
    if !(FRAME_FIXED..=MAX_FRAME_BYTES).contains(&len) {
        return Err(());
    }
    let Some(fixed) = bytes.get(4..4 + FRAME_FIXED) else {
        return Ok(None);
    };
    let from = EndpointId(u64::from_le_bytes(fixed[0..8].try_into().expect("8 bytes")));
    let to = EndpointId(u64::from_le_bytes(
        fixed[8..16].try_into().expect("8 bytes"),
    ));
    let addr_len = u16::from_le_bytes(fixed[16..18].try_into().expect("2 bytes")) as usize;
    if FRAME_FIXED + addr_len > len {
        return Err(());
    }
    let addr = 4 + FRAME_FIXED..4 + FRAME_FIXED + addr_len;
    if bytes.len() < addr.end {
        return Ok(None);
    }
    Ok(Some(Header {
        from,
        to,
        addr,
        payload_len: len - FRAME_FIXED - addr_len,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{eventually, recv_ready};
    use std::io::Read;

    fn pair() -> (TcpHost, TcpHost) {
        let a = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let b = TcpHost::bind("127.0.0.1:0", 1).unwrap();
        (a, b)
    }

    #[test]
    fn cross_host_roundtrip_learns_reply_route() {
        let (host_a, host_b) = pair();
        let (a, mail_a) = host_a.open_endpoint();
        let (b, mail_b) = host_b.open_endpoint();
        // Only a -> b is registered; b learns a's address from the frame.
        host_a.register_peer(b, host_b.local_addr());

        host_a.send(a, b, b"ping".to_vec()).unwrap();
        let got = recv_ready(&mail_b, "ping at b");
        assert_eq!(got.from, a);
        assert_eq!(got.payload, b"ping");

        host_b.send(b, a, b"pong".to_vec()).unwrap();
        let got = recv_ready(&mail_a, "pong back at a");
        assert_eq!(got.payload, b"pong");
    }

    #[test]
    fn a_frame_restores_routes_overwritten_since_the_connection_learned_them() {
        let (host_a, host_b) = pair();
        let (a, mail_a) = host_a.open_endpoint();
        let (b, mail_b) = host_b.open_endpoint();
        host_a.register_peer(b, host_b.local_addr());
        host_a.send(a, b, b"one".to_vec()).unwrap();
        recv_ready(&mail_b, "first frame");
        // Same connection, same advertised address, but the stored routes
        // changed: the next frame must put them back.
        let nowhere: SocketAddr = "127.0.0.1:9".parse().unwrap();
        host_b.register_peer(a, nowhere);
        host_b.register_host(0, nowhere);
        host_a.send(a, b, b"two".to_vec()).unwrap();
        recv_ready(&mail_b, "second frame");
        assert_eq!(
            host_b.inner.peers.read().get(&a),
            Some(&host_a.local_addr())
        );
        assert_eq!(
            host_b.inner.host_routes.read().get(&0),
            Some(&host_a.local_addr())
        );
        host_b.send(b, a, b"back".to_vec()).unwrap();
        assert_eq!(recv_ready(&mail_a, "reply").payload, b"back");
    }

    #[test]
    fn host_route_reaches_endpoints_opened_later() {
        let (host_a, host_b) = pair();
        let (a, _mail_a) = host_a.open_endpoint();
        host_a.register_host(1, host_b.local_addr());
        // Endpoint opened *after* the route was registered: still reachable,
        // because routing is by host index, not per endpoint.
        let (b, mail_b) = host_b.open_endpoint();
        host_a.send(a, b, b"late".to_vec()).unwrap();
        assert_eq!(recv_ready(&mail_b, "late frame").payload, b"late");
    }

    #[test]
    fn local_delivery_skips_sockets() {
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let (a, _mail_a) = host.open_endpoint();
        let (b, mail_b) = host.open_endpoint();
        host.send(a, b, vec![42]).unwrap();
        assert_eq!(mail_b.recv().unwrap().payload, vec![42]);
        assert_eq!(host.stats().batches, 0, "no socket involved");
    }

    #[test]
    fn unknown_peer_is_unreachable() {
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let (a, _mail) = host.open_endpoint();
        let ghost = EndpointId(u64::MAX);
        assert_eq!(
            host.send(a, ghost, vec![]),
            Err(SendError::Unreachable(ghost))
        );
        assert!(!host.endpoint_open(ghost), "no route, not open");
    }

    #[test]
    fn endpoint_ids_are_partitioned_by_host() {
        let (host_a, host_b) = pair();
        let (a, _ma) = host_a.open_endpoint();
        let (b, _mb) = host_b.open_endpoint();
        assert_ne!(a, b);
        assert!(b > a, "host index orders ids");
    }

    #[test]
    fn endpoint_open_tracks_local_endpoints() {
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let (a, _mail) = host.open_endpoint();
        assert!(host.endpoint_open(a));
        host.close_endpoint(a);
        assert!(!host.endpoint_open(a));
    }

    #[test]
    fn many_messages_preserve_order_per_connection() {
        let (host_a, host_b) = pair();
        let (a, _mail_a) = host_a.open_endpoint();
        let (b, mail_b) = host_b.open_endpoint();
        host_a.register_peer(b, host_b.local_addr());
        for i in 0..200u32 {
            host_a.send(a, b, i.to_le_bytes().to_vec()).unwrap();
        }
        for i in 0..200u32 {
            let got = recv_ready(&mail_b, "ordered frame");
            assert_eq!(got.payload, i.to_le_bytes().to_vec());
        }
        let stats = host_a.stats();
        assert_eq!(stats.frames_sent, 200);
        assert!(
            stats.batches <= stats.frames_sent,
            "writer may coalesce but never splits"
        );
    }

    #[test]
    fn concurrent_senders_never_outrun_the_byte_accounting() {
        // Two senders hammer one link while the loop drains it. Were a frame
        // poppable before its bytes are counted, the loop's `fetch_sub`
        // would underflow: in a debug build that panics the loop thread
        // (nothing more is delivered and the senders die on the poisoned
        // queue lock), in release it skips a backpressure clear.
        const SENDERS: u32 = 2;
        const PER_SENDER: u32 = 150_000;
        let (metrics, registry) = MetricsHandle::shared();
        let (host_a, host_b) = pair();
        host_a.install_metrics(&metrics);
        let (a, _mail_a) = host_a.open_endpoint();
        let (b, mail_b) = host_b.open_endpoint();
        host_a.register_peer(b, host_b.local_addr());
        thread::scope(|scope| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|_| {
                    scope.spawn(|| {
                        for i in 0..PER_SENDER {
                            host_a.send(a, b, i.to_le_bytes().to_vec()).unwrap();
                        }
                    })
                })
                .collect();
            for _ in 0..SENDERS * PER_SENDER {
                recv_ready(&mail_b, "a hammered frame: the loop thread is alive");
            }
            for sender in senders {
                sender.join().expect("sender survived");
            }
        });
        assert_eq!(host_a.stats().frames_sent, u64::from(SENDERS * PER_SENDER));
        let queued_bytes = || {
            let gauges = registry.snapshot(erm_sim::SimTime::ZERO).gauges;
            gauges
                .iter()
                .find(|&&(name, _)| name == "tcp.outbound.queued_bytes")
                .map(|&(_, v)| v)
        };
        eventually("tcp.outbound.queued_bytes back at 0", || {
            queued_bytes() == Some(0)
        });
        assert!(!host_a.backpressure(b));
    }

    #[test]
    fn slow_peer_raises_backpressure_until_drained() {
        // A peer that accepts but never reads: the kernel buffers fill, the
        // link queue grows past the high-water mark, and `backpressure`
        // turns true. Once the peer drains everything, it clears again.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap();
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let (from, _mail) = host.open_endpoint();
        let to = EndpointId(9 << 32);
        host.register_peer(to, peer_addr);

        let frame_payload = vec![0u8; 256 * 1024];
        let frames = 64usize; // 16 MiB total: far beyond any socket buffer
        for _ in 0..frames {
            host.send(from, to, frame_payload.clone()).unwrap();
        }
        eventually("backpressure raised on the stalled link", || {
            host.backpressure(to)
        });
        assert!(host.stats().backpressure_events >= 1, "{:?}", host.stats());
        // The enqueue path raises the signal; give the event loop time to
        // actually hit the full socket buffer before asserting on it.
        eventually("a full socket buffer surfaces as EWOULDBLOCK", || {
            host.stats().wouldblock_retries >= 1
        });

        // Drain: read until every frame arrived, then the signal clears.
        let (mut conn, _) = listener.accept().unwrap();
        let expect =
            frames * (4 + FRAME_FIXED + host.local_addr().to_string().len() + frame_payload.len());
        let mut seen = 0usize;
        let mut sink = vec![0u8; 1 << 20];
        while seen < expect {
            let n = conn.read(&mut sink).unwrap();
            assert!(n > 0, "peer stream ended early at {seen}/{expect}");
            seen += n;
        }
        eventually("backpressure cleared after drain", || {
            !host.backpressure(to)
        });
        eventually("every frame counted sent", || {
            host.stats().frames_sent == frames as u64
        });
    }

    #[test]
    fn preconnect_dials_before_first_send() {
        let (host_a, host_b) = pair();
        let (a, _mail_a) = host_a.open_endpoint();
        let (b, mail_b) = host_b.open_endpoint();
        host_a.register_peer(b, host_b.local_addr());
        assert!(host_a.preconnect(b));
        eventually("link dialed ahead of use", || {
            host_a.stats().preconnects == 1
        });
        assert_eq!(host_a.stats().frames_sent, 0, "no frame was queued yet");
        // The first send rides the already-established connection.
        host_a.send(a, b, b"warm".to_vec()).unwrap();
        assert_eq!(
            recv_ready(&mail_b, "frame over preconnected link").payload,
            b"warm"
        );
        assert_eq!(
            host_a.stats().preconnects,
            1,
            "ordinary sends are not preconnects"
        );
    }

    #[test]
    fn preconnect_to_dead_peer_gives_up_and_marks_broken() {
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        // Reserve a port, then free it so connects are refused. On
        // 127.0.0.2: the hosts of tests running alongside bind 127.0.0.1,
        // where one could be handed the freed port and accept the dial.
        let dead = {
            let reserved = std::net::TcpListener::bind("127.0.0.2:0").unwrap();
            reserved.local_addr().unwrap()
        };
        let to = EndpointId(7 << 32);
        host.register_peer(to, dead);
        assert!(host.preconnect(to), "route is known, dial is attempted");
        eventually("failed dial cycle marks the link broken", || {
            !host.endpoint_open(to)
        });
        assert_eq!(host.stats().preconnects, 0, "no connection was made");
        // With no route there is nothing to dial at all.
        assert!(!host.preconnect(EndpointId(u64::MAX)));
    }

    /// A connection into `host` whose peer sent the header of a frame for
    /// `to` announcing `payload_len` bytes, then `sent` of them; and a
    /// reader that has taken in all of it.
    fn stalled_frame(
        host: &TcpHost,
        to: EndpointId,
        payload_len: usize,
        sent: usize,
    ) -> (TcpStream, TcpStream, FrameReader) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let addr = b"127.0.0.1:9999";
        let mut head = Vec::new();
        head.extend_from_slice(&((FRAME_FIXED + addr.len() + payload_len) as u32).to_le_bytes());
        head.extend_from_slice(&(9u64 << 32).to_le_bytes());
        head.extend_from_slice(&to.0.to_le_bytes());
        head.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        head.extend_from_slice(addr);
        let header = head.len();
        head.resize(header + sent, 7);
        peer.write_all(&head).unwrap();
        let mut reader = FrameReader::default();
        eventually("the reader took in all the peer sent", || {
            assert!(reader.read_from(&stream, &host.inner), "stream is open");
            let arrived = match &reader.body {
                Some(body) => body.payload.len(),
                None => reader.buf.len().saturating_sub(header),
            };
            arrived == sent
        });
        (peer, stream, reader)
    }

    #[test]
    fn an_announced_frame_is_not_reserved_before_it_arrives() {
        // A peer announces the largest legal frame, sends 10 payload bytes
        // and stalls. The reader holds what arrived plus at most one read's
        // worth, as when every frame was reassembled in one buffer. When the
        // peer then closes, the partial frame is dropped, not delivered; so
        // is a bulk frame cut short halfway, read into its own buffer.
        let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
        let (to, mailbox) = host.open_endpoint();
        let huge = MAX_FRAME_BYTES - FRAME_FIXED - "127.0.0.1:9999".len();
        for (payload_len, sent) in [(huge, 10), (100_000, 50_000)] {
            let (peer, stream, mut reader) = stalled_frame(&host, to, payload_len, sent);
            let held = reader.buf.len() + reader.body.as_ref().map_or(0, |b| b.payload.len());
            let reserved =
                reader.buf.capacity() + reader.body.as_ref().map_or(0, |b| b.payload.capacity());
            if payload_len == huge {
                assert!(
                    reserved <= held + READ_CHUNK,
                    "reserved {reserved} bytes for {held} arrived"
                );
            } else {
                assert!(reader.body.is_some(), "a bulk payload has its own buffer");
            }
            drop(peer);
            eventually("the reader sees the close", || {
                !reader.read_from(&stream, &host.inner)
            });
        }
        assert!(mailbox.try_recv().is_err(), "partial frames are dropped");
        assert_eq!(host.stats().frames_received, 0);
    }
}
