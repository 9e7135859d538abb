//! The TCP front end: a nonblocking accept loop feeding the `poll(2)`
//! reactor in [`crate::reactor`] — a small set of event-loop threads owns
//! every connection socket, and a fixed handler pool serves the framed
//! request lines against one shared [`SessionManager`]. Connection count
//! is bounded by file descriptors, not threads.
//!
//! Shutdown is condvar-signaled, not sleep-polled: the accept loop parks on
//! a [`ShutdownHandle`]'s condition variable between accept attempts, and
//! [`ShutdownHandle::signal`] wakes it immediately — so a programmatic stop
//! (or SIGINT, routed through a self-pipe watcher thread) takes effect with
//! bounded latency instead of "whenever the next poll tick comes around".
//! The signal also pokes every reactor loop's wake pipe, so the graceful
//! drain — final read sweep, answer every buffered request, flush, close —
//! starts at once on every connection.

use crate::manager::SessionManager;
use crate::proto::Response;
use atf_core::trace::TraceEvent;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing and overload-protection settings of a [`Server`]. The defaults
/// keep the historical accept/sweep/drain behavior: 25 ms accept poll, 5 s
/// sweep interval, 5 s drain — with the reactor's far higher default
/// connection ceiling (4096 slots instead of one thread per connection).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Upper bound on how long the accept loop parks when no connection
    /// is waiting (it is woken early by [`ShutdownHandle::signal`]).
    pub accept_poll: Duration,
    /// How often the idle-expiry sweeper runs (idle sessions + stats
    /// snapshots, one batched pass per shard).
    pub sweep_interval: Duration,
    /// Bounded connection slots: at most this many connections are open
    /// concurrently (`None` = bounded only by file descriptors). The
    /// reactor holds idle connections for the price of an fd and two
    /// buffers, so the default is 4096 — far above the old
    /// thread-per-connection comfort zone.
    pub max_connections: Option<usize>,
    /// Accepted connections parked while every slot is taken. Beyond this
    /// the connection is hard-rejected: one `overloaded` response line,
    /// then close. Only meaningful with `max_connections`.
    pub accept_queue: usize,
    /// Graceful-drain deadline: after shutdown is signaled, how long to
    /// wait for open connections to be answered and flushed before
    /// force-closing, checkpointing journals, and exiting anyway.
    pub drain_timeout: Duration,
    /// Retry-after hint (milliseconds) on hard-rejected connections.
    pub reject_retry_after_ms: u64,
    /// Event-loop threads owning the connection sockets. `None` picks a
    /// small automatic count from available parallelism (1–4).
    pub io_threads: Option<usize>,
    /// Handler threads serving framed request lines against the session
    /// manager. `None` sizes the pool from available parallelism (2–16).
    pub handlers: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            accept_poll: Duration::from_millis(25),
            sweep_interval: Duration::from_secs(5),
            max_connections: Some(4096),
            accept_queue: 64,
            drain_timeout: Duration::from_secs(5),
            reject_retry_after_ms: 500,
            io_threads: None,
            handlers: None,
        }
    }
}

impl ServerConfig {
    fn parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The io-thread count actually used (auto: parallelism/4, clamped
    /// to 1–4 — poll loops are cheap, and fewer loops batch better).
    pub fn resolved_io_threads(&self) -> usize {
        self.io_threads
            .unwrap_or_else(|| (Self::parallelism() / 4).clamp(1, 4))
            .max(1)
    }

    /// The handler-pool size actually used (auto: parallelism, clamped
    /// to 2–16 — handlers mostly run short critical sections on the
    /// sharded manager).
    pub fn resolved_handlers(&self) -> usize {
        self.handlers
            .unwrap_or_else(|| Self::parallelism().clamp(2, 16))
            .max(1)
    }
}

struct ShutdownState {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    /// Reactor loops to poke on signal, so a drain starts immediately
    /// instead of after the next poll park. Holding the `Arc` keeps the
    /// wake pipes open for as long as any handle might signal them.
    wakers: Mutex<Vec<Arc<crate::reactor::IoShared>>>,
}

/// A cloneable handle that stops a [`Server::run`] loop.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ShutdownState>,
}

impl ShutdownHandle {
    fn new() -> Self {
        ShutdownHandle {
            state: Arc::new(ShutdownState {
                flag: AtomicBool::new(false),
                lock: Mutex::new(()),
                cv: Condvar::new(),
                wakers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Requests shutdown and wakes the accept loop and every reactor
    /// event loop immediately.
    pub fn signal(&self) {
        self.state.flag.store(true, Ordering::SeqCst);
        {
            let _guard = self.state.lock.lock();
            self.state.cv.notify_all();
        }
        for waker in self.state.wakers.lock().iter() {
            waker.wake_for_shutdown();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_signaled(&self) -> bool {
        self.state.flag.load(Ordering::SeqCst)
    }

    /// Parks until [`signal`](Self::signal) or for at most `timeout`.
    pub(crate) fn wait(&self, timeout: Duration) {
        if self.is_signaled() {
            return;
        }
        let mut guard = self.state.lock.lock();
        // Re-check under the lock: a signal between the check above and
        // acquiring the lock must not be missed.
        if !self.is_signaled() {
            self.state.cv.wait_for(&mut guard, timeout);
        }
    }

    /// Registers a reactor loop for immediate wakeup on signal. If the
    /// signal already fired, the loop is woken right away.
    pub(crate) fn register_waker(&self, waker: Arc<crate::reactor::IoShared>) {
        if self.is_signaled() {
            waker.wake_for_shutdown();
        }
        self.state.wakers.lock().push(waker);
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle")
            .field("signaled", &self.is_signaled())
            .finish()
    }
}

/// A running service endpoint. [`run`](Server::run) blocks until
/// [`shutdown`](Server::shutdown) is called (from another thread) or SIGINT
/// arrives after [`install_sigint`](Server::install_sigint).
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    shutdown: ShutdownHandle,
    config: ServerConfig,
}

impl Server {
    /// Binds the given address (e.g. `127.0.0.1:0` for an ephemeral port)
    /// with default [`ServerConfig`].
    pub fn bind(addr: &str, manager: Arc<SessionManager>) -> std::io::Result<Self> {
        Self::bind_with(addr, manager, ServerConfig::default())
    }

    /// Binds with explicit timing/overload settings.
    pub fn bind_with(
        addr: &str,
        manager: Arc<SessionManager>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            manager,
            shutdown: ShutdownHandle::new(),
            config,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`run`](Server::run) when
    /// [`ShutdownHandle::signal`] is called.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Requests a graceful stop (also callable through a clone of
    /// [`shutdown_handle`](Server::shutdown_handle)).
    pub fn shutdown(&self) {
        self.shutdown.signal();
    }

    /// Routes SIGINT to a graceful stop of this server: the
    /// async-signal-safe handler writes one byte to a pre-opened pipe, and
    /// a watcher thread blocked on that pipe signals the shutdown handle —
    /// which wakes the accept loop immediately. Uses `signal(2)`/`pipe(2)`
    /// directly so no extra dependency is needed. Installing it again (for
    /// another server) reroutes SIGINT to the most recent one and retires
    /// the previous install completely: its pipe fds are closed and its
    /// watcher thread joined, so repeated installs leak nothing.
    pub fn install_sigint(&self) {
        use std::sync::atomic::AtomicI32;

        /// Write end of the self-pipe, shared with the signal handler.
        static SIGNAL_PIPE_WRITE: AtomicI32 = AtomicI32::new(-1);
        /// The previous install's write fd and watcher thread, retired
        /// (fd closed → watcher sees EOF → joined) by the next install.
        /// The lock also serializes concurrent installs.
        static PREVIOUS: std::sync::Mutex<Option<(i32, std::thread::JoinHandle<()>)>> =
            std::sync::Mutex::new(None);

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_sigint(_sig: i32) {
            // Async-signal-safe: a single write(2) on the self-pipe.
            let fd = SIGNAL_PIPE_WRITE.load(Ordering::SeqCst);
            if fd >= 0 {
                crate::reactor::write_byte(fd);
            }
        }

        const SIGINT: i32 = 2;
        let mut previous = match PREVIOUS.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let Some((read_fd, write_fd)) = crate::reactor::make_pipe() else {
            return;
        };
        let handle = self.shutdown_handle();
        let watcher = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            loop {
                let n = crate::reactor::read_byte(read_fd, &mut buf);
                if n > 0 {
                    // Keep watching after a signal: a reinstall retires
                    // this thread via EOF, repeated SIGINTs are idempotent.
                    handle.signal();
                    continue;
                }
                if n == 0 {
                    break; // write end closed (reinstall)
                }
                if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                    break;
                }
            }
            crate::reactor::close_fd(read_fd);
        });
        let stale_write = SIGNAL_PIPE_WRITE.swap(write_fd, Ordering::SeqCst);
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
        if let Some((old_write, old_watcher)) = previous.take() {
            debug_assert_eq!(old_write, stale_write);
            // Closing the stale write end EOFs the old watcher's read(2);
            // it closes its read end and exits, so the join is bounded.
            crate::reactor::close_fd(old_write);
            let _ = old_watcher.join();
        }
        *previous = Some((write_fd, watcher));
    }

    /// Serves until shutdown, then drains gracefully: stop accepting,
    /// answer queued connections with `overloaded`, join the idle-expiry
    /// sweeper (so drain never races a sweep that is removing sessions),
    /// sweep every open connection for requests the kernel has already
    /// received — each one is answered and flushed before its connection
    /// closes — wait up to the drain deadline, checkpoint every live
    /// session's journal to a resumable artifact, and persist the
    /// database.
    pub fn run(self) -> std::io::Result<()> {
        // The idle-expiry sweeper runs in its own thread so a slow sweep
        // (database merges, stats I/O) never stalls the accept loop —
        // and, with configurable intervals, a long sweep period never
        // delays accept-side shutdown latency. It parks on the shutdown
        // condvar, so SIGINT wakes it immediately.
        let sweeper = {
            let manager = Arc::clone(&self.manager);
            let shutdown = self.shutdown.clone();
            let interval = self.config.sweep_interval;
            std::thread::spawn(move || loop {
                shutdown.wait(interval);
                // Checked *after* the park and before each sweep: once
                // shutdown is signaled no new sweep starts, so joining
                // this thread bounds the wait to at most one in-progress
                // sweep. One batched pass takes each shard lock once for
                // both idle expiry and the per-session stats snapshot;
                // stats write failures are swallowed (and logged once per
                // outage) — telemetry trouble must never end the sweep.
                if shutdown.is_signaled() {
                    return;
                }
                manager.sweep();
            })
        };

        let served = self.serve_connections();

        // ---- graceful drain ----
        let drain_started = Instant::now();
        // Join the sweeper before touching journals: once the signal is
        // up no new sweep starts, so this waits out at most one
        // in-progress sweep — drain and the idle-expiry sweeper never
        // operate on the session table at the same time.
        self.shutdown.signal();
        let _ = sweeper.join();
        let (active, within_deadline) = served?;
        debug_assert_eq!(active, 0, "connection engine joined with conns open");
        // Every live session's journal lands as a compact, resumable
        // checkpoint; the sessions themselves stay unfinished so a
        // restart resumes them with `open{resume:true}`.
        let (live, checkpointed) = self.manager.checkpoint_sessions();
        let micros = u64::try_from(drain_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.manager
            .trace_sink()
            .emit(&TraceEvent::drain(live as u64, micros, within_deadline));
        if live > 0 {
            eprintln!(
                "atf-service: drained {live} session(s), {checkpointed} journal(s) checkpointed, \
                 in {:.1} ms{}",
                micros as f64 / 1000.0,
                if within_deadline {
                    ""
                } else {
                    " (drain deadline elapsed with connections still open)"
                }
            );
        }
        self.manager.persist()
    }

    /// The connection engine: accept into the `poll(2)` reactor,
    /// shed past the hard cap, and at shutdown wait out the drain before
    /// tearing the reactor down. Returns `(still_open, within_deadline)`.
    fn serve_connections(&self) -> std::io::Result<(usize, bool)> {
        let io_threads = self.config.resolved_io_threads();
        let handlers = self.config.resolved_handlers();
        let metrics = Arc::clone(self.manager.metrics());
        metrics.set_reactor_threads(io_threads, handlers);
        self.manager
            .trace_sink()
            .emit(&TraceEvent::reactor(io_threads, handlers));
        let reactor = crate::reactor::Reactor::start(
            Arc::clone(&self.manager),
            self.shutdown.clone(),
            io_threads,
            handlers,
        )?;
        let mut queue: VecDeque<TcpStream> = VecDeque::new();
        let mut fatal: Option<std::io::Error> = None;

        while !self.shutdown.is_signaled() {
            // Promote queued connections into freed slots first: FIFO, so
            // a parked client is served before a newly accepted one.
            if let Some(cap) = self.config.max_connections {
                while !queue.is_empty() && reactor.active() < cap {
                    let stream = queue.pop_front().expect("queue nonempty");
                    metrics.set_accept_queue_depth(queue.len());
                    reactor.dispatch(stream);
                }
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => match self.config.max_connections {
                    None => reactor.dispatch(stream),
                    Some(cap) if reactor.active() < cap => reactor.dispatch(stream),
                    Some(_) if queue.len() < self.config.accept_queue => {
                        queue.push_back(stream);
                        metrics.set_accept_queue_depth(queue.len());
                    }
                    // Hard cap: every slot and queue position is taken.
                    // One explicit `overloaded` line, then close — a
                    // storm gets answers, not hangs.
                    Some(_) => self.reject_connection(stream),
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.shutdown.wait(self.config.accept_poll);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Tear the reactor down before surfacing the error —
                    // the drain below still runs so open connections are
                    // answered, not abandoned.
                    self.shutdown.signal();
                    fatal = Some(e);
                    break;
                }
            }
        }

        // Queued-but-never-served connections get an explicit answer
        // instead of a silent close.
        let drain_started = Instant::now();
        for stream in queue.drain(..) {
            self.reject_connection(stream);
        }
        metrics.set_accept_queue_depth(0);
        // The reactor loops were woken by the signal and are running the
        // final read sweep: every request with bytes already in the
        // kernel gets framed, served, and flushed before its connection
        // closes. Wait for that to finish (or the deadline).
        while reactor.active() > 0 && drain_started.elapsed() < self.config.drain_timeout {
            std::thread::sleep(Duration::from_millis(5));
        }
        let within_deadline = reactor.active() == 0;
        reactor.stop_and_join();
        match fatal {
            Some(e) => Err(e),
            None => Ok((0, within_deadline)),
        }
    }

    /// Hard-cap rejection: one `overloaded` response line with the
    /// retry-after hint, then close.
    fn reject_connection(&self, mut stream: TcpStream) {
        let reason = "connection hard cap: every slot and queue position taken";
        self.manager.metrics().rejected_connections.inc();
        self.manager.trace_sink().emit(&TraceEvent::shed(
            "connection",
            reason,
            self.config.reject_retry_after_ms,
        ));
        if let Ok(line) = serde_json::to_string(&Response::overloaded(
            reason,
            self.config.reject_retry_after_ms,
        )) {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = stream.set_nonblocking(false);
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_wakes_a_parked_waiter_immediately() {
        let handle = ShutdownHandle::new();
        let waiter = handle.clone();
        let started = Instant::now();
        let t = std::thread::spawn(move || {
            // Far longer than the test should take: only an early wake
            // lets it finish fast.
            waiter.wait(Duration::from_secs(30));
            waiter.is_signaled()
        });
        std::thread::sleep(Duration::from_millis(20));
        handle.signal();
        assert!(t.join().unwrap());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "signal must wake the waiter, not wait out the timeout"
        );
    }

    #[test]
    fn wait_after_signal_returns_at_once() {
        let handle = ShutdownHandle::new();
        handle.signal();
        let started = Instant::now();
        handle.wait(Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn config_resolves_sane_thread_counts() {
        let config = ServerConfig::default();
        let io = config.resolved_io_threads();
        let handlers = config.resolved_handlers();
        assert!((1..=4).contains(&io));
        assert!((2..=16).contains(&handlers));
        let pinned = ServerConfig {
            io_threads: Some(2),
            handlers: Some(7),
            ..ServerConfig::default()
        };
        assert_eq!(pinned.resolved_io_threads(), 2);
        assert_eq!(pinned.resolved_handlers(), 7);
        let zeroed = ServerConfig {
            io_threads: Some(0),
            handlers: Some(0),
            ..ServerConfig::default()
        };
        assert_eq!(zeroed.resolved_io_threads(), 1, "0 is clamped up");
        assert_eq!(zeroed.resolved_handlers(), 1);
    }
}
