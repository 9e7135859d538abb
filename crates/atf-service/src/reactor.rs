//! The event-driven connection engine behind [`crate::server::Server`]: a
//! `poll(2)`-based reactor owning every connection socket, so thousands of
//! mostly-idle connections cost file descriptors and buffer space — not a
//! thread each.
//!
//! Layout: `io_threads` poll loops each own a disjoint set of nonblocking
//! sockets (round-robin assignment at accept). A loop reads whatever the
//! kernel has, frames it into NDJSON request lines, and hands complete
//! lines to a fixed pool of `handlers` threads that call
//! [`SessionManager::handle_line`]; responses travel back through a
//! per-loop completion queue and a self-pipe wakeup, and are flushed from
//! per-connection write buffers. Requests of one connection are served
//! strictly in arrival order (at most one line of a connection is with the
//! pool at a time), preserving the wire contract of the former
//! thread-per-connection server.
//!
//! The `poll`/`pipe`/`fcntl` calls are minimal hand-declared FFI in the
//! repo's vendored-only style — the same approach as the self-pipe SIGINT
//! handler that preceded this module.
//!
//! Shutdown honors the "answered, never hung up on" contract: when the
//! shutdown flag rises, each loop performs one final read sweep per
//! connection — slurping every byte the kernel has already acknowledged,
//! framing and dispatching the complete lines — and then only flushes;
//! a connection closes once its last buffered request has been answered
//! (or the drain deadline forces the issue).

#![cfg(unix)]

use crate::manager::SessionManager;
use crate::server::ShutdownHandle;
use atf_core::metrics::MetricsRegistry;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- minimal poll/pipe FFI ------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type Nfds = u64;
#[cfg(not(target_os = "linux"))]
type Nfds = u32;

#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

/// Opens a plain (blocking) pipe; `(read_fd, write_fd)` on success.
pub(crate) fn make_pipe() -> Option<(i32, i32)> {
    let mut fds = [0i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return None;
    }
    Some((fds[0], fds[1]))
}

/// Closes a raw fd (errors ignored — close is best-effort teardown).
pub(crate) fn close_fd(fd: i32) {
    unsafe {
        close(fd);
    }
}

/// Writes one byte to `fd`. Async-signal-safe (a single `write(2)`); a
/// full pipe or closed peer is ignored — a pending byte already wakes.
pub(crate) fn write_byte(fd: i32) {
    unsafe {
        write(fd, b"!".as_ptr(), 1);
    }
}

/// Blocking single-byte read used by the SIGINT watcher; returns the raw
/// `read(2)` result (1 data, 0 EOF, -1 error/EINTR).
pub(crate) fn read_byte(fd: i32, buf: &mut [u8; 1]) -> isize {
    unsafe { read(fd, buf.as_mut_ptr(), 1) }
}

fn set_nonblocking_fd(fd: i32) -> bool {
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    flags >= 0 && unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } >= 0
}

// ---- wakeups --------------------------------------------------------------

/// Self-pipe waker: any thread calls [`wake`](WakePipe::wake) (one
/// nonblocking byte), the owning poll loop has the read end in its set and
/// drains it at the top of every iteration.
pub(crate) struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    fn new() -> std::io::Result<Self> {
        let (read_fd, write_fd) = make_pipe().ok_or_else(std::io::Error::last_os_error)?;
        if !set_nonblocking_fd(read_fd) || !set_nonblocking_fd(write_fd) {
            close_fd(read_fd);
            close_fd(write_fd);
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakePipe { read_fd, write_fd })
    }

    /// Wakes the owning poll loop (idempotent while a byte is pending).
    pub(crate) fn wake(&self) {
        write_byte(self.write_fd);
    }

    fn drain(&self) {
        let mut scratch = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, scratch.as_mut_ptr(), scratch.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        close_fd(self.read_fd);
        close_fd(self.write_fd);
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

// ---- the poll loops -------------------------------------------------------

/// State shared between one poll loop, the accept loop, and the handlers.
pub(crate) struct IoShared {
    wake: WakePipe,
    /// Connections accepted but not yet registered with this loop.
    registrations: Mutex<Vec<TcpStream>>,
    /// `(token, response line)` pairs produced by handler threads.
    completions: Mutex<Vec<(u64, String)>>,
    /// Drain deadline elapsed: close everything and exit.
    force_stop: AtomicBool,
}

struct IoCtx {
    shared: Arc<IoShared>,
    pool: Arc<HandlerPool>,
    shutdown: ShutdownHandle,
    active: Arc<AtomicUsize>,
    metrics: Arc<MetricsRegistry>,
}

impl IoCtx {
    fn close_counters(&self, registered: bool) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.metrics.connections_active.dec();
        if registered {
            self.metrics.reactor_fds.dec();
        }
    }
}

fn io_loop(ctx: IoCtx) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut poll_tokens: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];

    loop {
        // Order matters: drain the wake pipe *before* taking completions
        // and registrations, so a producer that appends afterwards leaves
        // a fresh byte and the next poll returns immediately.
        ctx.shared.wake.drain();

        let arrived: Vec<TcpStream> = std::mem::take(&mut *ctx.shared.registrations.lock());
        for stream in arrived {
            if stream.set_nonblocking(true).is_err() {
                ctx.close_counters(false);
                continue;
            }
            // Replies are whole lines written as soon as they exist; Nagle
            // would hold each behind the peer's delayed ACK of the last.
            stream.set_nodelay(true).ok();
            let fd = stream.as_raw_fd();
            let token = next_token;
            next_token += 1;
            conns.insert(token, Conn::new(stream, fd));
            ctx.metrics.reactor_fds.inc();
        }

        let completed: Vec<(u64, String)> = std::mem::take(&mut *ctx.shared.completions.lock());
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
            dispatch_next(token, conn, &ctx.pool, &ctx.shared);
            if !flush(conn) {
                conn.failed = true;
            }
        }

        // Shutdown: one final read sweep per connection picks up every
        // request the kernel has already received bytes for — those are
        // answered before the connection closes. Checked every iteration
        // so a connection registered *after* the first sweep (accepted
        // just before the signal) is swept too.
        if ctx.shutdown.is_signaled() || ctx.shared.force_stop.load(Ordering::SeqCst) {
            for (&token, conn) in conns.iter_mut() {
                if conn.draining {
                    continue;
                }
                if !conn.peer_closed && !conn.failed {
                    match fill_from_socket(conn, &mut scratch) {
                        SocketRead::Blocked => {}
                        SocketRead::Eof => conn.peer_closed = true,
                        SocketRead::Error => conn.failed = true,
                    }
                    frame_lines(conn);
                    dispatch_next(token, conn, &ctx.pool, &ctx.shared);
                }
                conn.draining = true;
            }
        }

        if ctx.shared.force_stop.load(Ordering::SeqCst) {
            for _ in conns.drain() {
                ctx.close_counters(true);
            }
        }
        conns.retain(|_, conn| {
            if conn.closable() {
                ctx.close_counters(true);
                false
            } else {
                true
            }
        });

        if (ctx.shutdown.is_signaled() || ctx.shared.force_stop.load(Ordering::SeqCst))
            && conns.is_empty()
        {
            return;
        }

        pollfds.clear();
        poll_tokens.clear();
        pollfds.push(PollFd {
            fd: ctx.shared.wake.read_fd,
            events: POLLIN,
            revents: 0,
        });
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
        let n = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as Nfds, POLL_PARK_MS) };
        if n < 0 {
            if std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            // A failing poll(2) with live fds should not spin hot.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }

        for (i, pfd) in pollfds.iter().enumerate().skip(1) {
            if pfd.revents == 0 {
                continue;
            }
            let token = poll_tokens[i - 1];
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Read before inspecting error bits: POLLHUP often arrives
            // together with the final data, which must still be framed.
            if pfd.revents & POLLIN != 0 {
                match fill_from_socket(conn, &mut scratch) {
                    SocketRead::Blocked => {}
                    SocketRead::Eof => conn.peer_closed = true,
                    SocketRead::Error => conn.failed = true,
                }
                frame_lines(conn);
                dispatch_next(token, conn, &ctx.pool, &ctx.shared);
            }
            if pfd.revents & POLLOUT != 0 && !flush(conn) {
                conn.failed = true;
            }
            if pfd.revents & (POLLERR | POLLNVAL) != 0 && conn.idle() {
                conn.failed = true;
            }
        }
    }
}

// ---- the reactor front ----------------------------------------------------

/// Handle owned by the accept loop: dispatches accepted connections to the
/// poll loops and tears the whole engine down at drain end.
pub(crate) struct Reactor {
    io: Vec<Arc<IoShared>>,
    pool: Arc<HandlerPool>,
    io_handles: Vec<std::thread::JoinHandle<()>>,
    handler_handles: Vec<std::thread::JoinHandle<()>>,
    next_io: AtomicUsize,
    active: Arc<AtomicUsize>,
    metrics: Arc<MetricsRegistry>,
}

impl Reactor {
    /// Spawns `io_threads` poll loops and `handlers` handler threads. The
    /// shutdown handle's signal wakes every poll loop immediately (their
    /// wake pipes are registered as signal wakers).
    pub(crate) fn start(
        manager: Arc<SessionManager>,
        shutdown: ShutdownHandle,
        io_threads: usize,
        handlers: usize,
    ) -> std::io::Result<Self> {
        let metrics = Arc::clone(manager.metrics());
        let active = Arc::new(AtomicUsize::new(0));
        let pool = Arc::new(HandlerPool {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics: Arc::clone(&metrics),
        });
        let mut io = Vec::with_capacity(io_threads);
        let mut io_handles = Vec::with_capacity(io_threads);
        for i in 0..io_threads.max(1) {
            let shared = Arc::new(IoShared {
                wake: WakePipe::new()?,
                registrations: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                force_stop: AtomicBool::new(false),
            });
            shutdown.register_waker(Arc::clone(&shared));
            let ctx = IoCtx {
                shared: Arc::clone(&shared),
                pool: Arc::clone(&pool),
                shutdown: shutdown.clone(),
                active: Arc::clone(&active),
                metrics: Arc::clone(&metrics),
            };
            io_handles.push(
                std::thread::Builder::new()
                    .name(format!("atf-io-{i}"))
                    .spawn(move || io_loop(ctx))?,
            );
            io.push(shared);
        }
        let mut handler_handles = Vec::with_capacity(handlers);
        for i in 0..handlers.max(1) {
            let pool = Arc::clone(&pool);
            let manager = Arc::clone(&manager);
            handler_handles.push(
                std::thread::Builder::new()
                    .name(format!("atf-handler-{i}"))
                    .spawn(move || handler_loop(pool, manager))?,
            );
        }
        Ok(Reactor {
            io,
            pool,
            io_handles,
            handler_handles,
            next_io: AtomicUsize::new(0),
            active,
            metrics,
        })
    }

    /// Connections currently owned by the poll loops (the server's slot
    /// accounting for `max_connections`).
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Hands an accepted connection to a poll loop (round-robin). Counts
    /// are bumped here — before the loop even sees the socket — so the
    /// accept loop's slot check can never over-admit.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        self.active.fetch_add(1, Ordering::SeqCst);
        self.metrics.connections_active.inc();
        let i = self.next_io.fetch_add(1, Ordering::Relaxed) % self.io.len();
        self.io[i].registrations.lock().push(stream);
        self.io[i].wake.wake();
    }

    /// Drain teardown: stop the handler pool (it finishes whatever is
    /// queued), force-close any connection still open, and join every
    /// thread. Called after the drain wait, so within the deadline this
    /// finds the loops already empty.
    pub(crate) fn stop_and_join(self) {
        self.pool.stop();
        for shared in &self.io {
            shared.force_stop.store(true, Ordering::SeqCst);
            shared.wake.wake();
        }
        for handle in self.io_handles {
            let _ = handle.join();
        }
        for handle in self.handler_handles {
            let _ = handle.join();
        }
    }
}

/// Signal-waker hookup: the shutdown handle pokes every poll loop's wake
/// pipe so a drain starts within one scheduler slice, not one poll park.
impl IoShared {
    pub(crate) fn wake_for_shutdown(&self) {
        self.wake.wake();
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
            fd: pipe.read_fd,
            events: POLLIN,
            revents: 0,
        }];
        let n = unsafe { poll(fds.as_mut_ptr(), 1, 1000) };
        assert_eq!(n, 1, "a pending byte must make poll return immediately");
        pipe.drain();
        let mut fds = [PollFd {
            fd: pipe.read_fd,
            events: POLLIN,
            revents: 0,
        }];
        let n = unsafe { poll(fds.as_mut_ptr(), 1, 0) };
        assert_eq!(n, 0, "drained pipe must be quiet");
    }
}
