//! The event-driven connection engine behind [`crate::server::Server`]: a
//! `poll(2)`-based reactor owning the listener and every connection
//! socket, so thousands of mostly-idle connections cost file descriptors
//! and buffer space — not a thread each.
//!
//! Layout: `io_threads` poll loops each own a disjoint set of nonblocking
//! sockets, and every loop also polls the shared listener: on readiness a
//! loop accepts at most one connection and adopts it, so a burst spreads
//! across the loops with no hand-off. A connection past `max_connections`
//! is answered with one `overloaded` line and closed. A loop reads whatever
//! the kernel has, frames it into NDJSON request lines, and hands complete
//! lines to a fixed pool of `handlers` threads that call
//! [`SessionManager::handle_line`]; responses travel back through a
//! per-loop completion queue and a wake-socket byte, and are flushed from
//! per-connection write buffers. Requests of one connection are served
//! strictly in arrival order (at most one line of a connection is with the
//! pool at a time), preserving the wire contract of the former
//! thread-per-connection server.
//!
//! Shutdown honors the "answered, never hung up on" contract: when the
//! shutdown flag rises, each loop stops polling the listener and performs
//! one final read sweep per connection — slurping every byte the kernel
//! has already acknowledged, framing and dispatching the complete lines —
//! and then only flushes; a connection closes once its last buffered
//! request has been answered (or the drain deadline forces the issue).

#![cfg(unix)]

use crate::manager::SessionManager;
use crate::proto::Response;
use crate::server::{ServerConfig, ShutdownHandle};
use crate::sys::{poll_fds, PollFd, POLLERR, POLLIN, POLLNVAL, POLLOUT};
use atf_core::metrics::MetricsRegistry;
use atf_core::trace::TraceEvent;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- wakeups --------------------------------------------------------------

/// Self-pipe waker over a socket pair: any thread calls
/// [`wake`](WakePipe::wake) (one nonblocking byte), the owning poll loop
/// has the read end in its set and drains it at the top of every
/// iteration.
pub(crate) struct WakePipe {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakePipe {
    fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakePipe { rx, tx })
    }

    /// Wakes the owning poll loop (idempotent while a byte is pending: a
    /// full buffer fails the write, and the pending bytes already wake).
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(b"!");
    }

    fn drain(&self) {
        let mut scratch = [0u8; 64];
        while matches!((&self.rx).read(&mut scratch), Ok(n) if n > 0) {}
    }

    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

// ---- handler pool ---------------------------------------------------------

/// One framed request line on its way to the handler pool, tagged with the
/// connection token and the poll loop that owns the connection.
struct Job {
    token: u64,
    line: String,
    io: Arc<IoShared>,
}

struct HandlerPool {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
    metrics: Arc<MetricsRegistry>,
}

impl HandlerPool {
    fn push(&self, job: Job) {
        let mut queue = self.queue.lock();
        queue.push_back(job);
        self.metrics.set_reactor_queue_depth(queue.len());
        self.cv.notify_one();
    }

    /// Lets handler threads exit once the queue is empty. Queued jobs are
    /// still served first — only a drain past its deadline leaves work
    /// behind, and those connections are force-closed anyway.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.queue.lock();
        self.cv.notify_all();
    }
}

fn handler_loop(pool: Arc<HandlerPool>, manager: Arc<SessionManager>) {
    loop {
        let job = {
            let mut queue = pool.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    pool.metrics.set_reactor_queue_depth(queue.len());
                    break job;
                }
                if pool.stop.load(Ordering::SeqCst) {
                    return;
                }
                pool.cv.wait(&mut queue);
            }
        };
        pool.metrics.reactor_handler_busy();
        let started = Instant::now();
        let reply = manager.handle_line(&job.line);
        pool.metrics.reactor_handler_idle(started.elapsed());
        let was_empty = {
            let mut done = job.io.completions.lock();
            let was_empty = done.is_empty();
            done.push((job.token, reply));
            was_empty
        };
        // The loop drains its wake pipe *before* taking completions, so
        // one byte per batch suffices: pushes onto a nonempty queue ride
        // the wakeup that is already pending.
        if was_empty {
            job.io.wake.wake();
        }
    }
}

// ---- per-connection state -------------------------------------------------

/// Reads stop once a connection has this many undispatched complete lines
/// (per-connection pipelining backpressure).
const PIPELINE_LIMIT: usize = 64;
/// A connection sending more than this without a newline is cut off.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;
/// Compact the write buffer once this many bytes are already flushed.
const WRITE_COMPACT_BYTES: usize = 64 * 1024;
/// Poll park when nothing is ready (wakeups arrive via the self-pipe).
const POLL_PARK_MS: i32 = 250;

struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Bytes received but not yet framed into complete lines.
    read_buf: Vec<u8>,
    /// How far `read_buf` has been scanned for a newline (avoid rescans).
    scanned: usize,
    /// Complete request lines awaiting dispatch. Serial per connection:
    /// at most one line is with the handler pool at a time, so responses
    /// return in request order.
    pending: VecDeque<String>,
    /// Whether a line of this connection is currently with the pool.
    dispatched: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Peer sent EOF — no more reads; flush, answer, then close.
    peer_closed: bool,
    /// Drain mode: the final read sweep ran; only flushing remains.
    draining: bool,
    /// Socket error — close as soon as the loop sweeps.
    failed: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Self {
        Conn {
            stream,
            fd,
            read_buf: Vec::new(),
            scanned: 0,
            pending: VecDeque::new(),
            dispatched: false,
            write_buf: Vec::new(),
            write_pos: 0,
            peer_closed: false,
            draining: false,
            failed: false,
        }
    }

    fn wants_read(&self) -> bool {
        !self.peer_closed && !self.draining && !self.failed && self.pending.len() < PIPELINE_LIMIT
    }

    fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Whether every received request has been answered and flushed.
    fn idle(&self) -> bool {
        self.pending.is_empty() && !self.dispatched && !self.has_unwritten()
    }

    fn closable(&self) -> bool {
        self.failed || ((self.peer_closed || self.draining) && self.idle())
    }
}

enum SocketRead {
    /// Kernel buffer drained; connection stays open.
    Blocked,
    /// Peer closed its write side.
    Eof,
    /// Hard socket error (or a line over [`MAX_LINE_BYTES`]).
    Error,
}

fn fill_from_socket(conn: &mut Conn, scratch: &mut [u8]) -> SocketRead {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return SocketRead::Eof,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                if conn.read_buf.len() > MAX_LINE_BYTES {
                    return SocketRead::Error;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return SocketRead::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return SocketRead::Error,
        }
    }
}

/// Frames `read_buf` into complete lines, appending nonempty ones to
/// `pending`. Handles `\r\n`, skips blank lines (parity with the old
/// server, which never answered them), tolerates invalid UTF-8 by lossy
/// conversion (the manager answers `bad_request`).
fn frame_lines(conn: &mut Conn) {
    let mut consumed = 0usize;
    loop {
        let from = consumed.max(conn.scanned);
        match conn.read_buf[from..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let end = from + rel;
                let line = String::from_utf8_lossy(&conn.read_buf[consumed..end]);
                let line = line.trim();
                if !line.is_empty() {
                    conn.pending.push_back(line.to_string());
                }
                consumed = end + 1;
                conn.scanned = consumed;
            }
            None => {
                conn.scanned = conn.read_buf.len();
                break;
            }
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
        conn.scanned -= consumed;
    }
}

/// Flushes as much of the write buffer as the socket accepts right now;
/// `false` on a hard error.
fn flush(conn: &mut Conn) -> bool {
    while conn.has_unwritten() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if !conn.has_unwritten() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    } else if conn.write_pos > WRITE_COMPACT_BYTES {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    true
}

/// Sends the connection's oldest undispatched line to the handler pool
/// (no-op while one is already out — serial per connection).
fn dispatch_next(token: u64, conn: &mut Conn, pool: &HandlerPool, shared: &Arc<IoShared>) {
    if conn.dispatched || conn.failed {
        return;
    }
    if let Some(line) = conn.pending.pop_front() {
        conn.dispatched = true;
        pool.push(Job {
            token,
            line,
            io: Arc::clone(shared),
        });
    }
}

/// Reads whatever the kernel has for `conn`, frames it, and hands the
/// oldest complete line to the pool.
fn read_and_dispatch(
    token: u64,
    conn: &mut Conn,
    scratch: &mut [u8],
    pool: &HandlerPool,
    shared: &Arc<IoShared>,
) {
    match fill_from_socket(conn, scratch) {
        SocketRead::Blocked => {}
        SocketRead::Eof => conn.peer_closed = true,
        SocketRead::Error => conn.failed = true,
    }
    frame_lines(conn);
    dispatch_next(token, conn, pool, shared);
}

// ---- the poll loops -------------------------------------------------------

/// State shared between one poll loop, the handlers, and the shutdown
/// handle (which pokes `wake` so a drain starts at once, not after a park).
pub(crate) struct IoShared {
    pub(crate) wake: WakePipe,
    /// `(token, response line)` pairs produced by handler threads.
    completions: Mutex<Vec<(u64, String)>>,
    /// Drain deadline elapsed: close everything and exit.
    force_stop: AtomicBool,
}

/// What every poll loop shares: the listener and its slot accounting, the
/// handler pool, and the shutdown signal.
struct Engine {
    listener: TcpListener,
    max_connections: usize,
    /// Open connections. A loop reserves a slot here before it adopts one.
    active: AtomicUsize,
    /// The first non-transient `accept` error. It shuts the server down
    /// and [`Reactor::stop_and_join`] returns it after the drain.
    accept_error: Mutex<Option<std::io::Error>>,
    pool: Arc<HandlerPool>,
    manager: Arc<SessionManager>,
    shutdown: ShutdownHandle,
}

impl Engine {
    fn close_counters(&self, registered: bool) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.manager.metrics().connections_active.dec();
        if registered {
            self.manager.metrics().reactor_fds.dec();
        }
    }

    /// Takes at most one connection off the listener: adopts it into
    /// `conns` while a slot is free, else answers it `overloaded` and
    /// closes it.
    fn accept(&self, conns: &mut HashMap<u64, Conn>, next_token: &mut u64) {
        let stream = match self.listener.accept() {
            Ok((stream, _peer)) => stream,
            // Another loop took the connection, or a signal cut in.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(e) => {
                // Stop serving; the drain still answers open connections.
                self.accept_error.lock().get_or_insert(e);
                self.shutdown.signal();
                return;
            }
        };
        // Reserve first, check second: concurrent loops never over-admit.
        if self.active.fetch_add(1, Ordering::SeqCst) >= self.max_connections {
            self.active.fetch_sub(1, Ordering::SeqCst);
            reject(stream, &self.manager.shed_connection());
            return;
        }
        self.manager.metrics().connections_active.inc();
        if stream.set_nonblocking(true).is_err() {
            self.close_counters(false);
            return;
        }
        // Replies are whole lines written as soon as they exist; Nagle
        // would hold each behind the peer's delayed ACK of the last.
        stream.set_nodelay(true).ok();
        let fd = stream.as_raw_fd();
        conns.insert(*next_token, Conn::new(stream, fd));
        *next_token += 1;
        self.manager.metrics().reactor_fds.inc();
    }
}

/// The hard-cap answer: one `overloaded` line in a single nonblocking
/// write (a fresh socket's send buffer has room for it), then close — a
/// storm gets answers, not hangs, and never stalls the loop.
fn reject(stream: TcpStream, response: &Response) {
    let Ok(mut line) = serde_json::to_string(response) else {
        return;
    };
    line.push('\n');
    if stream.set_nonblocking(true).is_ok() {
        let _ = (&stream).write(line.as_bytes());
    }
}

fn io_loop(shared: Arc<IoShared>, engine: Arc<Engine>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut poll_tokens: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];

    loop {
        // Order matters: drain the wake pipe *before* taking completions,
        // so a producer that appends afterwards leaves a fresh byte and
        // the next poll returns immediately.
        shared.wake.drain();

        let completed: Vec<(u64, String)> = std::mem::take(&mut *shared.completions.lock());
        for (token, reply) in completed {
            // The connection may have failed and closed while its request
            // was being served; the response is then undeliverable.
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.write_buf.reserve(reply.len() + 1);
            conn.write_buf.extend_from_slice(reply.as_bytes());
            conn.write_buf.push(b'\n');
            conn.dispatched = false;
            dispatch_next(token, conn, &engine.pool, &shared);
            if !flush(conn) {
                conn.failed = true;
            }
        }

        // Shutdown: one final read sweep per connection picks up every
        // request the kernel has already received bytes for — those are
        // answered before the connection closes. Checked every iteration
        // so a connection accepted in the poll that raced the signal is
        // swept too.
        let stopping = engine.shutdown.is_signaled() || shared.force_stop.load(Ordering::SeqCst);
        if stopping {
            for (&token, conn) in conns.iter_mut() {
                if conn.draining {
                    continue;
                }
                if !conn.peer_closed && !conn.failed {
                    read_and_dispatch(token, conn, &mut scratch, &engine.pool, &shared);
                }
                conn.draining = true;
            }
        }

        if shared.force_stop.load(Ordering::SeqCst) {
            for _ in conns.drain() {
                engine.close_counters(true);
            }
        }
        conns.retain(|_, conn| {
            if conn.closable() {
                engine.close_counters(true);
                false
            } else {
                true
            }
        });

        if stopping && conns.is_empty() {
            return;
        }

        // Slot 0 is the wake pipe; slot 1 the listener until shutdown (a
        // draining loop adopts no new connection).
        pollfds.clear();
        poll_tokens.clear();
        pollfds.push(PollFd {
            fd: shared.wake.fd(),
            events: POLLIN,
            revents: 0,
        });
        if !stopping {
            pollfds.push(PollFd {
                fd: engine.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let first_conn = pollfds.len();
        for (&token, conn) in &conns {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.has_unwritten() {
                events |= POLLOUT;
            }
            if events != 0 {
                pollfds.push(PollFd {
                    fd: conn.fd,
                    events,
                    revents: 0,
                });
                poll_tokens.push(token);
            }
        }
        match poll_fds(&mut pollfds, POLL_PARK_MS) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // A failing poll(2) with live fds should not spin hot.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        }

        for (pfd, &token) in pollfds[first_conn..].iter().zip(&poll_tokens) {
            if pfd.revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Read before inspecting error bits: POLLHUP often arrives
            // together with the final data, which must still be framed.
            if pfd.revents & POLLIN != 0 {
                read_and_dispatch(token, conn, &mut scratch, &engine.pool, &shared);
            }
            if pfd.revents & POLLOUT != 0 && !flush(conn) {
                conn.failed = true;
            }
            if pfd.revents & (POLLERR | POLLNVAL) != 0 && conn.idle() {
                conn.failed = true;
            }
        }
        if !stopping && pollfds[1].revents != 0 {
            engine.accept(&mut conns, &mut next_token);
        }
    }
}

// ---- the reactor front ----------------------------------------------------

/// Handle owned by [`Server::run`](crate::server::Server::run): the slot
/// count the drain waits on, and the teardown of the whole engine.
pub(crate) struct Reactor {
    engine: Arc<Engine>,
    loops: Vec<(Arc<IoShared>, std::thread::JoinHandle<()>)>,
    handlers: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the poll loops, which accept from `listener` from then on,
    /// and the handler pool. The shutdown handle's signal wakes every poll
    /// loop immediately (their wake pipes are registered as signal wakers).
    pub(crate) fn start(
        listener: TcpListener,
        manager: &Arc<SessionManager>,
        shutdown: &ShutdownHandle,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        let io_threads = config.resolved_io_threads();
        let handlers = config.resolved_handlers();
        let metrics = Arc::clone(manager.metrics());
        metrics.set_reactor_threads(io_threads, handlers);
        manager
            .trace_sink()
            .emit(&TraceEvent::reactor(io_threads, handlers));
        let pool = Arc::new(HandlerPool {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
        });
        let engine = Arc::new(Engine {
            listener,
            max_connections: config.max_connections,
            active: AtomicUsize::new(0),
            accept_error: Mutex::new(None),
            pool: Arc::clone(&pool),
            manager: Arc::clone(manager),
            shutdown: shutdown.clone(),
        });
        let mut loops = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let shared = Arc::new(IoShared {
                wake: WakePipe::new()?,
                completions: Mutex::new(Vec::new()),
                force_stop: AtomicBool::new(false),
            });
            shutdown.register_waker(Arc::clone(&shared));
            let (loop_shared, loop_engine) = (Arc::clone(&shared), Arc::clone(&engine));
            let handle = std::thread::Builder::new()
                .name(format!("atf-io-{i}"))
                .spawn(move || io_loop(loop_shared, loop_engine))?;
            loops.push((shared, handle));
        }
        let mut handler_handles = Vec::with_capacity(handlers);
        for i in 0..handlers {
            let pool = Arc::clone(&pool);
            let manager = Arc::clone(manager);
            handler_handles.push(
                std::thread::Builder::new()
                    .name(format!("atf-handler-{i}"))
                    .spawn(move || handler_loop(pool, manager))?,
            );
        }
        Ok(Reactor {
            engine,
            loops,
            handlers: handler_handles,
        })
    }

    /// Connections currently owned by the poll loops.
    pub(crate) fn active(&self) -> usize {
        self.engine.active.load(Ordering::SeqCst)
    }

    /// Drain teardown: stop the handler pool (it finishes whatever is
    /// queued), force-close any connection still open, and join every
    /// thread. Called after the drain wait, so within the deadline this
    /// finds the loops already empty. Returns the `accept` error that
    /// ended serving, if one did.
    pub(crate) fn stop_and_join(self) -> std::io::Result<()> {
        self.engine.pool.stop();
        for (shared, _) in &self.loops {
            shared.force_stop.store(true, Ordering::SeqCst);
            shared.wake.wake();
        }
        for (_, handle) in self.loops {
            let _ = handle.join();
        }
        for handle in self.handlers {
            let _ = handle.join();
        }
        match self.engine.accept_error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_from_bytes(bytes: &[u8]) -> Conn {
        // The TcpStream is never touched by framing; a connected pair
        // keeps the constructor honest.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, fd);
        conn.read_buf.extend_from_slice(bytes);
        conn
    }

    #[test]
    fn frames_complete_lines_and_keeps_the_partial_tail() {
        let mut conn = conn_from_bytes(b"{\"cmd\":\"ping\"}\r\n\n  \n{\"cmd\":\"stats\"}\n{\"par");
        frame_lines(&mut conn);
        assert_eq!(conn.pending.len(), 2, "blank lines are skipped");
        assert_eq!(conn.pending[0], "{\"cmd\":\"ping\"}");
        assert_eq!(conn.pending[1], "{\"cmd\":\"stats\"}");
        assert_eq!(conn.read_buf, b"{\"par", "partial line stays buffered");
        // A second call on the same partial tail must not re-frame.
        frame_lines(&mut conn);
        assert_eq!(conn.pending.len(), 2);
        conn.read_buf.extend_from_slice(b"t\"}\n");
        frame_lines(&mut conn);
        assert_eq!(conn.pending.len(), 3);
        assert_eq!(conn.pending[2], "{\"part\"}");
        assert!(conn.read_buf.is_empty());
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let pipe = WakePipe::new().unwrap();
        pipe.wake();
        pipe.wake();
        let mut fds = [PollFd {
            fd: pipe.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 1, "a pending byte must make poll return immediately");
        pipe.drain();
        fds[0].revents = 0;
        let n = poll_fds(&mut fds, 0).unwrap();
        assert_eq!(n, 0, "drained pipe must be quiet");
    }
}
