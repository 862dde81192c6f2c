//! Network ingest: TCP (and Unix-socket) listeners speaking the frame
//! protocol.
//!
//! Connections are multiplexed over a **fixed pool** of readiness-loop
//! threads instead of one thread per socket: the accept thread makes
//! each accepted stream nonblocking and deals it round-robin to a pool
//! worker, and every worker serves its own connection set — read until
//! `WouldBlock`, dispatch complete frames against the shared
//! [`Daemon`] control handle, buffer replies, flush as the socket
//! allows. The pool is std-only apart from one foreign call, POSIX
//! `poll(2)`; there is no epoll wrapper and no external event library.
//!
//! Each worker blocks in `poll` with no timeout. Its poll set holds
//! every socket it owns plus the read end of a waker, a
//! `UnixStream::pair()`. A socket asks for `POLLIN` while it is open
//! and its queued replies are under the 64 KiB high-water mark, and
//! for `POLLOUT` while replies are queued. After a wake the worker
//! sweeps only the sockets the kernel reported, reading at most about
//! 64 KiB from each, and goes straight back to `poll`. Poll is
//! level-triggered, so it returns at once while anything is still
//! ready, and every pass sees the waker and all the other sockets: one
//! busy client cannot shut out the rest. The accept thread blocks in
//! `poll` too, on the listener and a stop waker, and writes one byte
//! to a worker's waker after dealing it a socket. Closing a waker's
//! write end is the shutdown signal: [`IngestServer::stop`] closes the
//! accept thread's, and the accept thread then closes every worker's.
//! So thousands of quiet sockets cost a handful of blocked threads, a
//! batch is served as soon as it lands, and shutdown waits on no
//! timer. The `poll` call is the crate's one `unsafe` block, in a
//! private module of its own.
//!
//! The daemon's own queues provide backpressure — a full shard queue
//! surfaces as a [`Frame::Rejected`] with `RejectReason::Backpressure`
//! rather than blocking the socket. The Hello-first handshake is
//! enforced per connection exactly as before.
//!
//! Sessions admitted over a connection are drained when it closes
//! (graceful default: bytes already in flight still play out).
//! Protocol violations — bad magic, unknown kinds, truncated or
//! oversized frames — answer with a `Protocol` rejection and close;
//! the decoder is total, so hostile bytes can never panic the daemon.

// Without `poll(2)` the listeners refuse to start, so the connection
// code below them is never reached.
#![cfg_attr(not(unix), allow(dead_code))]

use std::io::{ErrorKind, Read, Write};
use std::net::SocketAddr;
use std::os::raw::c_int;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rts_obs::RejectReason;
use rts_telemetry::Registry;

use crate::daemon::Daemon;
use crate::frame::{encode_frame, Frame, FrameReader, PROTOCOL_VERSION};
use crate::session::SessionId;

/// Default readiness-loop thread count for the ingest pool.
pub const DEFAULT_INGEST_THREADS: usize = 2;

/// Stop reading a connection once this many reply bytes are queued;
/// the flush has to catch up first (per-connection memory bound).
const OUTBUF_HIGH_WATER: usize = 64 * 1024;

/// Read about this many bytes at most from one connection per sweep,
/// so one busy sender cannot keep its worker from the others.
const READ_BUDGET: usize = 64 * 1024;

/// Ingest pool tuning.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Readiness-loop threads sharing all connections (min 1).
    pub threads: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            threads: DEFAULT_INGEST_THREADS,
        }
    }
}

/// Any nonblocking byte stream the pool can drive (TCP or Unix).
trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

type BoxStream = Box<dyn Transport>;

/// A running listener. [`IngestServer::stop`] shuts it down and waits
/// for the drain; dropping it without `stop` shuts it down in the
/// background.
pub struct IngestServer {
    /// Write end of the accept thread's stop waker; closing it is the
    /// stop signal.
    #[cfg(unix)]
    stop_waker: std::os::unix::net::UnixStream,
    accept_join: JoinHandle<()>,
    local_addr: Option<SocketAddr>,
    pool_threads: usize,
}

impl IngestServer {
    /// The bound TCP address (None for Unix sockets); lets tests bind
    /// port 0 and discover the port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Number of readiness-loop threads serving all connections.
    pub fn pool_threads(&self) -> usize {
        self.pool_threads
    }

    /// Stops accepting, has every pool worker say Bye and drain what
    /// its connections admitted, and joins all the threads.
    pub fn stop(self) {
        #[cfg(unix)]
        drop(self.stop_waker);
        let _ = self.accept_join.join();
    }
}

/// Serves the frame protocol on a TCP listener with the default pool.
/// `addr` is a `host:port` pair; port 0 picks a free port (see
/// [`IngestServer::local_addr`]).
pub fn serve_tcp(daemon: Arc<Mutex<Daemon>>, addr: &str) -> std::io::Result<IngestServer> {
    serve_tcp_with(daemon, addr, IngestConfig::default())
}

/// [`serve_tcp`] with explicit pool tuning.
#[cfg(unix)]
pub fn serve_tcp_with(
    daemon: Arc<Mutex<Daemon>>,
    addr: &str,
    cfg: IngestConfig,
) -> std::io::Result<IngestServer> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    pool::serve(daemon, listener, cfg, Some(local_addr), || {})
}

/// [`serve_tcp`] with explicit pool tuning; the pool waits in POSIX
/// `poll(2)`, so on this platform it fails with
/// [`ErrorKind::Unsupported`].
#[cfg(not(unix))]
pub fn serve_tcp_with(
    _daemon: Arc<Mutex<Daemon>>,
    _addr: &str,
    _cfg: IngestConfig,
) -> std::io::Result<IngestServer> {
    Err(std::io::Error::new(
        ErrorKind::Unsupported,
        "the ingest pool needs poll(2), which this platform lacks",
    ))
}

/// The accept thread and the pool workers: everything that waits in
/// `poll(2)`.
#[cfg(unix)]
mod pool {
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;

    use rts_telemetry::Registry;

    use super::{
        encode_frame, flush, release_sessions, sweep_conn, Conn, Frame, IngestConfig, IngestServer,
        Transport, OUTBUF_HIGH_WATER,
    };
    use crate::daemon::Daemon;
    use crate::poll::{self, PollFd, POLLIN, POLLOUT};

    /// A nonblocking listening socket the accept thread polls.
    pub(super) trait Listener: AsRawFd + Send + 'static {
        /// The connection type it accepts.
        type Stream: Transport + AsRawFd + 'static;
        /// Accepts one pending connection.
        fn accept_stream(&self) -> std::io::Result<Self::Stream>;
        /// Readies an accepted connection for the pool.
        fn configure(stream: &Self::Stream) -> std::io::Result<()>;
    }

    impl Listener for TcpListener {
        type Stream = TcpStream;
        fn accept_stream(&self) -> std::io::Result<TcpStream> {
            self.accept().map(|(stream, _peer)| stream)
        }
        fn configure(stream: &TcpStream) -> std::io::Result<()> {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)
        }
    }

    impl Listener for UnixListener {
        type Stream = UnixStream;
        fn accept_stream(&self) -> std::io::Result<UnixStream> {
            self.accept().map(|(stream, _peer)| stream)
        }
        fn configure(stream: &UnixStream) -> std::io::Result<()> {
            stream.set_nonblocking(true)
        }
    }

    /// Spawns the pool and the accept thread on a bound listener;
    /// `on_exit` runs on the accept thread after every worker joined.
    pub(super) fn serve<L: Listener>(
        daemon: Arc<Mutex<Daemon>>,
        listener: L,
        cfg: IngestConfig,
        local_addr: Option<SocketAddr>,
        on_exit: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<IngestServer> {
        let threads = cfg.threads.max(1);
        let (stop_rx, stop_waker) = waker_pair()?;
        // Spawn the pool before returning so the server's thread
        // footprint is complete the moment the bind succeeds —
        // connection load never adds a thread.
        let pool = spawn_pool(&daemon, threads)?;
        let accept_join = std::thread::Builder::new()
            .name("smoothd-accept".into())
            .spawn(move || {
                accept_loop(&listener, &stop_rx, pool);
                on_exit();
            })
            .expect("spawn accept loop");
        Ok(IngestServer {
            stop_waker,
            accept_join,
            local_addr,
            pool_threads: threads,
        })
    }

    /// A `(read end, write end)` pair, both nonblocking: the read end
    /// sits in a poll set, a byte on the write end wakes it, and
    /// closing the write end leaves it readable at EOF for good.
    fn waker_pair() -> std::io::Result<(UnixStream, UnixStream)> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((rx, tx))
    }

    /// Empties a waker's read end; true once its write end is closed
    /// (or the waker failed), which means shut down.
    fn drain_waker(mut waker: &UnixStream) -> bool {
        let mut buf = [0u8; 64];
        loop {
            match waker.read(&mut buf) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    fn accept_loop<L: Listener>(listener: &L, stop: &UnixStream, pool: Vec<Worker>) {
        let mut next = 0usize;
        // An accept error other than WouldBlock stops accepting (the
        // listener would stay readable and spin the loop); the pool
        // keeps serving the connections it has until stop.
        let mut accepting = true;
        loop {
            let listen_fd = if accepting { listener.as_raw_fd() } else { -1 };
            let mut fds = [
                PollFd::new(stop.as_raw_fd(), POLLIN),
                PollFd::new(listen_fd, POLLIN),
            ];
            poll::wait(&mut fds);
            if fds[0].ready() && drain_waker(stop) {
                break;
            }
            while accepting && fds[1].ready() {
                match listener.accept_stream() {
                    Ok(stream) => {
                        if L::configure(&stream).is_err() {
                            continue;
                        }
                        pool[next % pool.len()].deal(stream);
                        next += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => accepting = false,
                }
            }
        }
        // Taking each join handle drops that worker's feed and waker,
        // so every worker sees EOF before the first join blocks.
        let joins: Vec<JoinHandle<()>> = pool.into_iter().map(|worker| worker.join).collect();
        for join in joins {
            let _ = join.join();
        }
    }

    /// The accept thread's handle on one pool worker.
    struct Worker {
        feed: Sender<Conn>,
        waker: UnixStream,
        join: JoinHandle<()>,
    }

    impl Worker {
        /// Hands the worker a connection, then wakes it. A full waker
        /// already holds an unread byte, so a failed write loses no
        /// wake-up.
        fn deal<S: Transport + AsRawFd + 'static>(&self, stream: S) {
            let fd = stream.as_raw_fd();
            if self.feed.send(Conn::new(Box::new(stream), fd)).is_ok() {
                let _ = (&self.waker).write(&[1]);
            }
        }
    }

    fn spawn_pool(daemon: &Arc<Mutex<Daemon>>, threads: usize) -> std::io::Result<Vec<Worker>> {
        // One registry handle per worker: frame-decode timing goes
        // straight to the atomics, without touching the daemon mutex.
        let registry = daemon.lock().expect("daemon mutex poisoned").registry();
        // On an error the workers already spawned see their wakers
        // close and exit.
        (0..threads)
            .map(|i| {
                let (waker_rx, waker) = waker_pair()?;
                let (feed, rx) = mpsc::channel::<Conn>();
                let daemon = Arc::clone(daemon);
                let registry = Arc::clone(&registry);
                let join = std::thread::Builder::new()
                    .name(format!("smoothd-ingest-{i}"))
                    .spawn(move || pool_worker(rx, waker_rx, daemon, registry))
                    .expect("spawn ingest pool worker");
                Ok(Worker { feed, waker, join })
            })
            .collect()
    }

    /// The events a connection waits for: input while it is open and
    /// under the high-water mark, output while replies are queued.
    fn interest(conn: &Conn) -> PollFd {
        let mut events = 0;
        if !conn.closing && conn.outbuf.len() < OUTBUF_HIGH_WATER {
            events |= POLLIN;
        }
        if !conn.outbuf.is_empty() {
            events |= POLLOUT;
        }
        PollFd::new(conn.fd, events)
    }

    fn pool_worker(
        feed: Receiver<Conn>,
        waker: UnixStream,
        daemon: Arc<Mutex<Daemon>>,
        registry: Arc<Registry>,
    ) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut buf = [0u8; 4096];
        // Every pass goes back to poll, so the waker and every socket
        // are looked at between any two sweeps of one connection; poll
        // returns at once while anything is still ready.
        loop {
            fds.clear();
            fds.push(PollFd::new(waker.as_raw_fd(), POLLIN));
            fds.extend(conns.iter().map(interest));
            poll::wait(&mut fds);
            if fds[0].ready() {
                if drain_waker(&waker) {
                    break;
                }
                // Not in this poll set: the next wait covers them, and
                // returns at once if a Hello is already waiting.
                conns.extend(feed.try_iter());
            }
            let mut polled = fds[1..].iter();
            conns.retain_mut(|conn| {
                if !polled.next().is_some_and(PollFd::ready) {
                    return true;
                }
                let keep = sweep_conn(conn, &daemon, &registry, &mut buf);
                if !keep {
                    release_sessions(conn, &daemon);
                }
                keep
            });
        }
        // Shutdown: best-effort Bye, then graceful drain of everything
        // the surviving connections admitted.
        for conn in &mut conns {
            conn.outbuf.extend_from_slice(&encode_frame(&Frame::Bye));
            let _ = flush(conn);
        }
        for conn in &conns {
            release_sessions(conn, &daemon);
        }
    }
}

/// Per-connection state a pool worker sweeps over.
struct Conn {
    stream: BoxStream,
    /// The stream's descriptor, for the worker's poll set.
    fd: c_int,
    reader: FrameReader,
    /// Replies queued behind a socket that would block.
    outbuf: Vec<u8>,
    greeted: bool,
    /// Set when the connection is winding down: no more reads, drop
    /// once `outbuf` is flushed.
    closing: bool,
    my_sessions: Vec<SessionId>,
}

impl Conn {
    fn new(stream: BoxStream, fd: c_int) -> Conn {
        Conn {
            stream,
            fd,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            greeted: false,
            closing: false,
            my_sessions: Vec::new(),
        }
    }
}

/// One readiness sweep over a single connection; false means drop it.
fn sweep_conn(
    conn: &mut Conn,
    daemon: &Mutex<Daemon>,
    registry: &Registry,
    buf: &mut [u8],
) -> bool {
    if !conn.closing {
        // Reads stop at the high-water mark (flush first) and at the
        // budget: a sender that outpaces the worker would never hit
        // `WouldBlock`, and poll reports what it left behind.
        let mut budget = READ_BUDGET;
        while budget > 0 && conn.outbuf.len() < OUTBUF_HIGH_WATER {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.closing = true; // EOF
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    conn.reader.extend(&buf[..n]);
                    if !pump_frames(conn, daemon, registry) {
                        conn.closing = true;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
    if flush(conn).is_err() {
        return false;
    }
    !(conn.closing && conn.outbuf.is_empty())
}

/// Decodes and dispatches every complete frame buffered on `conn`;
/// false means the connection must close (protocol violation or a
/// dispatch that ends the conversation). Replies land in
/// `conn.outbuf`.
fn pump_frames(conn: &mut Conn, daemon: &Mutex<Daemon>, registry: &Registry) -> bool {
    loop {
        let decode_started = std::time::Instant::now();
        let frame = match conn.reader.next_frame() {
            Ok(Some(frame)) => {
                registry
                    .ingest_decode
                    .record(decode_started.elapsed().as_nanos() as u64);
                frame
            }
            Ok(None) => return true,
            Err(_) => {
                // Typed protocol violation: reject and hang up.
                conn.outbuf.extend_from_slice(&encode_frame(&Frame::Rejected {
                    session: 0,
                    reason: RejectReason::Protocol,
                }));
                return false;
            }
        };
        match dispatch(
            frame,
            &mut conn.outbuf,
            daemon,
            &mut conn.greeted,
            &mut conn.my_sessions,
        ) {
            Flow::Continue => {}
            Flow::Close => return false,
        }
    }
}

/// Writes as much queued reply data as the socket accepts right now;
/// `Err` means the peer is gone.
fn flush(conn: &mut Conn) -> Result<(), ()> {
    let mut written = 0;
    while written < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[written..]) {
            Ok(0) => return Err(()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    conn.outbuf.drain(..written);
    Ok(())
}

/// Graceful teardown: whatever this connection admitted drains out.
fn release_sessions(conn: &Conn, daemon: &Mutex<Daemon>) {
    if conn.my_sessions.is_empty() {
        return;
    }
    let mut d = daemon.lock().expect("daemon mutex poisoned");
    for &id in &conn.my_sessions {
        let _ = d.drain(id);
    }
}

enum Flow {
    Continue,
    Close,
}

fn dispatch(
    frame: Frame,
    out: &mut Vec<u8>,
    daemon: &Mutex<Daemon>,
    greeted: &mut bool,
    my_sessions: &mut Vec<SessionId>,
) -> Flow {
    let reply = |out: &mut Vec<u8>, frame: &Frame| out.extend_from_slice(&encode_frame(frame));
    if !*greeted {
        return match frame {
            Frame::Hello { version } if version == PROTOCOL_VERSION => {
                *greeted = true;
                reply(
                    out,
                    &Frame::Welcome {
                        version: PROTOCOL_VERSION,
                    },
                );
                Flow::Continue
            }
            _ => {
                // Wrong version or anything before Hello.
                reply(
                    out,
                    &Frame::Rejected {
                        session: 0,
                        reason: RejectReason::Protocol,
                    },
                );
                Flow::Close
            }
        };
    }
    match frame {
        Frame::Hello { .. } => {
            reply(
                out,
                &Frame::Rejected {
                    session: 0,
                    reason: RejectReason::Protocol,
                },
            );
            Flow::Close
        }
        Frame::Admit(req) => {
            let outcome = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .try_admit(&req);
            match outcome {
                Ok((session, shard)) => {
                    my_sessions.push(session);
                    reply(out, &Frame::Admitted { session, shard });
                }
                Err(reason) => reply(out, &Frame::Rejected { session: 0, reason }),
            }
            Flow::Continue
        }
        Frame::AdmitBatch { count, req } => {
            if count == 0 {
                reply(
                    out,
                    &Frame::Rejected {
                        session: 0,
                        reason: RejectReason::Protocol,
                    },
                );
                return Flow::Close;
            }
            let outcome = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .admit_batch(&req, count as u64);
            match outcome {
                Ok(batch) => {
                    my_sessions.extend(batch.first..batch.first + batch.admitted);
                    reply(
                        out,
                        &Frame::AdmittedBatch {
                            first_session: batch.first,
                            count: batch.admitted as u32,
                        },
                    );
                }
                Err(reason) => reply(out, &Frame::Rejected { session: 0, reason }),
            }
            Flow::Continue
        }
        Frame::Data { session, slices } => {
            // Data is not acked on success; errors come back typed.
            let outcome = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .inject(session, slices);
            if let Err(reason) = outcome {
                reply(out, &Frame::Rejected { session, reason });
            }
            Flow::Continue
        }
        Frame::Drain { session } => {
            let outcome = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .drain(session);
            if let Err(reason) = outcome {
                reply(out, &Frame::Rejected { session, reason });
            } else {
                my_sessions.retain(|&s| s != session);
            }
            Flow::Continue
        }
        Frame::Evict { session } => {
            let outcome = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .evict(session);
            if let Err(reason) = outcome {
                reply(out, &Frame::Rejected { session, reason });
            } else {
                my_sessions.retain(|&s| s != session);
            }
            Flow::Continue
        }
        Frame::Stats => {
            let snapshot = {
                let mut d = daemon.lock().expect("daemon mutex poisoned");
                d.poll();
                d.stats()
            };
            reply(out, &Frame::StatsReply(snapshot));
            Flow::Continue
        }
        Frame::StatsDetail => {
            let detail = {
                let mut d = daemon.lock().expect("daemon mutex poisoned");
                d.poll();
                d.stats_detail()
            };
            reply(out, &Frame::StatsDetailReply(Box::new(detail)));
            Flow::Continue
        }
        Frame::Snapshot => {
            let (sessions, bytes) = daemon
                .lock()
                .expect("daemon mutex poisoned")
                .snapshot();
            let total = bytes.len() as u64;
            for chunk in bytes.chunks(crate::frame::MAX_SNAPSHOT_CHUNK) {
                reply(
                    out,
                    &Frame::SnapshotChunk {
                        data: chunk.to_vec(),
                    },
                );
            }
            reply(
                out,
                &Frame::SnapshotAck {
                    sessions,
                    bytes: total,
                },
            );
            Flow::Continue
        }
        Frame::Goodbye => {
            reply(out, &Frame::Bye);
            Flow::Close
        }
        // Server-to-client frames arriving at the server are protocol
        // violations.
        Frame::Welcome { .. }
        | Frame::Admitted { .. }
        | Frame::AdmittedBatch { .. }
        | Frame::Rejected { .. }
        | Frame::StatsReply(_)
        | Frame::StatsDetailReply(_)
        | Frame::SnapshotChunk { .. }
        | Frame::SnapshotAck { .. }
        | Frame::Bye => {
            reply(
                out,
                &Frame::Rejected {
                    session: 0,
                    reason: RejectReason::Protocol,
                },
            );
            Flow::Close
        }
    }
}

/// Unix-domain-socket listener (same protocol and pool as TCP).
#[cfg(unix)]
pub fn serve_uds(
    daemon: Arc<Mutex<Daemon>>,
    path: &std::path::Path,
) -> std::io::Result<IngestServer> {
    serve_uds_with(daemon, path, IngestConfig::default())
}

/// [`serve_uds`] with explicit pool tuning. The socket file is removed
/// once the server has stopped.
#[cfg(unix)]
pub fn serve_uds_with(
    daemon: Arc<Mutex<Daemon>>,
    path: &std::path::Path,
    cfg: IngestConfig,
) -> std::io::Result<IngestServer> {
    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let path = path.to_path_buf();
    pool::serve(daemon, listener, cfg, None, move || {
        let _ = std::fs::remove_file(&path);
    })
}
