//! POSIX `poll(2)`, the one foreign call in this crate.
//!
//! The ingest pool blocks here instead of sleeping: a thread hands the
//! kernel the descriptors it owns and wakes as soon as one of them is
//! readable, writable or hung up. This module holds the crate's only
//! `unsafe` block.

use std::io::ErrorKind;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;

/// Readable, or the peer hung up (a read will not block).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable (a write will not block).
pub(crate) const POLLOUT: c_short = 0x4;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// One `struct pollfd`: the descriptor, the events asked for, and the
/// events the kernel reports (`revents`, which may also carry
/// `POLLERR`/`POLLHUP`/`POLLNVAL` unasked). A negative `fd` is skipped.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything on this descriptor.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until at least one entry of `fds` is ready, with no timeout.
///
/// `EINTR` retries. Any other failure marks every entry ready, so the
/// caller sweeps everything once; a sweep tolerates spurious wake-ups
/// (its reads and writes are nonblocking), and no error panics.
pub(crate) fn wait(fds: &mut [PollFd]) {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` structs laid out as POSIX `struct pollfd`, and
        // `nfds` is its exact length, so the kernel reads and writes
        // only inside it. The pointer is not kept past the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, -1) };
        if n >= 0 {
            return;
        }
        if std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
            for fd in fds.iter_mut() {
                fd.revents = fd.events;
            }
            return;
        }
    }
}
