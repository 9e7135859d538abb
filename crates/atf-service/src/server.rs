//! The TCP front end: binds the listener and runs the `poll(2)` reactor in
//! [`crate::reactor`] — a small set of event-loop threads owns the
//! listener and every connection socket, and a fixed handler pool serves
//! the framed request lines against one shared [`SessionManager`].
//! Connection count is bounded by file descriptors, not threads.
//!
//! [`Server::run`] keeps no loop of its own but the idle-expiry sweep: it
//! parks on a [`ShutdownHandle`]'s condition variable between sweeps, and
//! [`ShutdownHandle::signal`] wakes it immediately — so a programmatic
//! stop (or SIGINT, routed through a self-pipe watcher thread) takes
//! effect with bounded latency. The signal also pokes every reactor
//! loop's wake pipe, so the graceful drain — final read sweep, answer
//! every buffered request, flush, close — starts at once on every
//! connection.

use crate::manager::SessionManager;
use atf_core::trace::TraceEvent;
use parking_lot::{Condvar, Mutex};
use std::io::Read;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often `run` sweeps: idle sessions expire and, with a journal
/// directory, per-session stats snapshots are appended.
const SWEEP_INTERVAL: Duration = Duration::from_secs(5);

/// Overload-protection and sizing settings of a [`Server`]. The defaults:
/// 4096 connection slots and a 5 s drain, with automatically sized
/// reactor threads.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bounded connection slots: at most this many connections are open
    /// concurrently; one more is answered with a single `overloaded` line
    /// (carrying the manager's retry-after hint) and closed. The reactor
    /// holds idle connections for the price of an fd and two buffers, so
    /// the default is 4096.
    pub max_connections: usize,
    /// Graceful-drain deadline: after shutdown is signaled, how long to
    /// wait for open connections to be answered and flushed before
    /// force-closing, syncing journals, and exiting anyway.
    pub drain_timeout: Duration,
    /// Event-loop threads owning the listener and the connection sockets.
    /// `None` picks a small automatic count from available parallelism
    /// (1–4).
    pub io_threads: Option<usize>,
    /// Handler threads serving framed request lines against the session
    /// manager. `None` sizes the pool from available parallelism (2–16).
    pub handlers: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 4096,
            drain_timeout: Duration::from_secs(5),
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

    /// Requests shutdown and wakes [`Server::run`] and every reactor
    /// event loop immediately.
    pub fn signal(&self) {
        self.state.flag.store(true, Ordering::SeqCst);
        {
            let _guard = self.state.lock.lock();
            self.state.cv.notify_all();
        }
        for waker in self.state.wakers.lock().iter() {
            waker.wake.wake();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_signaled(&self) -> bool {
        self.state.flag.load(Ordering::SeqCst)
    }

    /// Parks until [`signal`](Self::signal) or for at most `timeout`;
    /// returns whether shutdown has been requested.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        if self.is_signaled() {
            return true;
        }
        let mut guard = self.state.lock.lock();
        // Re-check under the lock: a signal between the check above and
        // acquiring the lock must not be missed.
        if !self.is_signaled() {
            self.state.cv.wait_for(&mut guard, timeout);
        }
        self.is_signaled()
    }

    /// Registers a reactor loop for immediate wakeup on signal. If the
    /// signal already fired, the loop is woken right away.
    pub(crate) fn register_waker(&self, waker: Arc<crate::reactor::IoShared>) {
        if self.is_signaled() {
            waker.wake.wake();
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

    /// Binds with explicit overload/sizing settings.
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
    /// async-signal-safe handler writes one byte to a socket pair, and a
    /// watcher thread blocked on the other end signals the shutdown
    /// handle — which wakes `run` and every reactor loop immediately.
    /// Installing it again (for another server) reroutes SIGINT to the
    /// most recent one and retires the previous install completely: its
    /// socket pair is closed and its watcher thread joined, so repeated
    /// installs leak nothing.
    pub fn install_sigint(&self) {
        /// The current install's write end and watcher thread, retired
        /// (write end closed → watcher sees EOF → joined) by the next
        /// install. The lock also serializes concurrent installs.
        static CURRENT: std::sync::Mutex<Option<(UnixStream, std::thread::JoinHandle<()>)>> =
            std::sync::Mutex::new(None);

        let mut current = CURRENT
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Ok((mut read_end, write_end)) = UnixStream::pair() else {
            return;
        };
        if write_end.set_nonblocking(true).is_err() {
            return;
        }
        let handle = self.shutdown_handle();
        let watcher = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            loop {
                match read_end.read(&mut buf) {
                    // EOF: the write end was closed by a reinstall.
                    Ok(0) => return,
                    // Keep watching after a signal: repeated SIGINTs are
                    // idempotent, and only a reinstall retires this thread.
                    Ok(_) => handle.signal(),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        });
        crate::sys::route_sigint(write_end.as_raw_fd());
        if let Some((old_write, old_watcher)) = current.replace((write_end, watcher)) {
            // SIGINT no longer writes to the old write end; closing it
            // EOFs the old watcher's read, so the join is bounded.
            drop(old_write);
            let _ = old_watcher.join();
        }
    }

    /// Serves until shutdown, sweeping idle sessions every 5 s on this
    /// thread, then drains gracefully: the reactor stops accepting and
    /// sweeps every open connection for requests the kernel has already
    /// received — each one is answered and flushed before its connection
    /// closes — `run` waits up to the drain deadline, fsyncs every live
    /// session's journal so it resumes, and persists (compacts) the
    /// database. A failed `accept` ends serving the same way and is
    /// returned after the drain.
    pub fn run(self) -> std::io::Result<()> {
        let reactor = crate::reactor::Reactor::start(
            self.listener,
            &self.manager,
            &self.shutdown,
            &self.config,
        )?;
        // Sweeps run here, between parks, so the drain below never races
        // one that is removing sessions. One batched pass takes each shard
        // lock once for both idle expiry and the per-session stats
        // snapshot; stats write failures are swallowed (and logged once
        // per outage) — telemetry trouble must never end serving.
        while !self.shutdown.wait(SWEEP_INTERVAL) {
            self.manager.sweep();
        }

        // ---- graceful drain ----
        // The reactor loops were woken by the signal and are running the
        // final read sweep: every request with bytes already in the
        // kernel gets framed, served, and flushed before its connection
        // closes. Wait for that to finish (or the deadline).
        let drain_started = Instant::now();
        while reactor.active() > 0 && drain_started.elapsed() < self.config.drain_timeout {
            std::thread::sleep(Duration::from_millis(5));
        }
        let within_deadline = reactor.active() == 0;
        reactor.stop_and_join()?;
        // Every live session's journal is fsynced; the sessions themselves
        // stay unfinished so a restart resumes them with
        // `open{resume:true}`.
        let (live, synced) = self.manager.sync_sessions();
        let micros = u64::try_from(drain_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.manager
            .trace_sink()
            .emit(&TraceEvent::drain(live as u64, micros, within_deadline));
        if live > 0 {
            eprintln!(
                "atf-service: drained {live} session(s), {synced} journal(s) synced, \
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
