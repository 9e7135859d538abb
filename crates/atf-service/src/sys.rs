//! The service's whole foreign-function surface, declared by hand because
//! the workspace vendors no `libc`: `poll(2)` for the reactor's loops, and
//! `signal(2)` plus the one async-signal-safe `write(2)` of the SIGINT
//! handler. Sockets, wake pipes and the SIGINT self-pipe are std types.

use std::ffi::c_int;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicI32, Ordering};

/// One `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

const SIGINT: c_int = 2;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// Waits up to `timeout_ms` for the events asked of `fds`, filling in
/// their `revents`; returns how many entries have any.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is its length, so the kernel reads and
    // writes only inside it, and it keeps no pointer past the return.
    let n = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
}

/// The fd every SIGINT writes one byte to; -1 before the first route.
static SIGINT_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigint(_signum: c_int) {
    let fd = SIGINT_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: write(2) is async-signal-safe and reads one byte from a
        // static literal. A full or closed fd only fails the call, which
        // is ignored: a byte already pending wakes the reader anyway.
        unsafe { write(fd, b"!".as_ptr(), 1) };
    }
}

/// Routes every later SIGINT to one byte written on `fd`. The caller keeps
/// `fd` open until a later call has routed SIGINT elsewhere, and makes it
/// nonblocking so the handler never blocks.
pub(crate) fn route_sigint(fd: RawFd) {
    SIGINT_FD.store(fd, Ordering::SeqCst);
    // SAFETY: `on_sigint` only loads an atomic and calls write(2), both
    // async-signal-safe, so it may interrupt any thread at any point.
    unsafe { signal(SIGINT, on_sigint) };
}
