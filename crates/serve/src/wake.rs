//! Readiness waits for the serving threads.
//!
//! A serving thread with nothing to do blocks in `poll(2)` on the
//! sockets it would act on plus its *wake descriptor*, the read end of a
//! [`UnixStream::pair`]. Whoever hands the thread work that arrives
//! through no socket of its own (a handoff job, a completion, a new
//! connection, a lifecycle change) publishes it and then calls
//! [`Wake::notify`], which writes one byte to the other end, but only
//! when the owner has announced that it is going idle. A busy thread's
//! producers therefore make no system call.
//!
//! The owner's side always takes the same steps:
//!
//! 1. an iteration finds no work;
//! 2. [`Wake::announce`];
//! 3. one more non-blocking pass over every source of work; if it finds
//!    some, [`Wake::cancel`] and carry on;
//! 4. otherwise [`Wake::wait`].
//!
//! No wakeup is lost. A producer publishes its work and then reads the
//! flag; the owner sets the flag and then looks for work. A `SeqCst`
//! fence on each side between its write and its read means at least one
//! of the two sees the other's write: either the pass in step 3 finds
//! the work, or the producer sees the flag and writes the byte that ends
//! the wait.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

/// `poll(2)` interest in readable data (same value on Linux and macOS).
pub(crate) const POLLIN: c_short = 0x1;
/// `poll(2)` interest in room to write.
pub(crate) const POLLOUT: c_short = 0x4;

/// One entry of a `poll(2)` set, laid out as the C `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

mod sys {
    use super::PollFd;
    use std::os::raw::c_int;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type NfdsT = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`:
/// no limit). A timeout is rounded up to whole milliseconds, so a
/// deadline it was computed from has passed when it expires. Errors,
/// such as an interrupting signal, just return early: callers re-check
/// everything anyway.
fn poll(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `struct pollfd`-layout entries and `nfds` is its length, so the
    // kernel reads and writes only memory the slice owns.
    unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, ms) };
}

/// A thread's wake descriptor and going-idle flag. Only the owning
/// thread calls [`announce`](Wake::announce), [`cancel`](Wake::cancel)
/// and [`wait`](Wake::wait); any thread may [`notify`](Wake::notify).
pub(crate) struct Wake {
    /// Set from the owner's announcement until its wait ends or a
    /// notifier claims it.
    idle: AtomicBool,
    /// The end the owner polls and drains.
    rx: UnixStream,
    /// The end notifiers write their byte to.
    tx: UnixStream,
}

impl Wake {
    pub(crate) fn new() -> std::io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        // A full socket already holds a pending wake, so a notifier
        // never needs to block.
        tx.set_nonblocking(true)?;
        Ok(Wake {
            idle: AtomicBool::new(false),
            rx,
            tx,
        })
    }

    /// Owner: the last iteration found no work. Work handed over from
    /// here on brings a wake byte; the caller must still take one more
    /// non-blocking pass before [`Wake::wait`], for work handed over
    /// before this call.
    pub(crate) fn announce(&self) {
        self.idle.store(true, Ordering::SeqCst);
        // Pairs with the fence in `notify`.
        fence(Ordering::SeqCst);
    }

    /// Owner: withdraws the announcement, because the extra pass found
    /// work.
    pub(crate) fn cancel(&self) {
        self.idle.store(false, Ordering::SeqCst);
    }

    /// Owner: blocks until an entry of `fds` or the wake descriptor
    /// (appended to `fds`) is ready, or `timeout` passes; then withdraws
    /// the announcement and drains the wake bytes.
    pub(crate) fn wait(&self, fds: &mut Vec<PollFd>, timeout: Option<Duration>) {
        fds.push(PollFd::new(self.rx.as_raw_fd(), POLLIN));
        poll(fds, timeout);
        self.cancel();
        // A byte that lands after this drain only ends the next wait
        // early.
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Any thread, after publishing work or a state change the owner
    /// acts on: wakes the owner if it has announced. Only the first
    /// notifier after an announcement writes a byte.
    pub(crate) fn notify(&self) {
        // Pairs with the fence in `announce`.
        fence(Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) && self.idle.swap(false, Ordering::SeqCst) {
            // `WouldBlock` means unread bytes already end the wait.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};
    use std::sync::Arc;

    /// Takes the next message the way a serving thread takes work: look,
    /// announce, look again, and only then wait, with no timeout.
    fn recv(wake: &Wake, rx: &Receiver<u32>) -> u32 {
        let mut fds = Vec::new();
        loop {
            if let Ok(m) = rx.try_recv() {
                return m;
            }
            wake.announce();
            if let Ok(m) = rx.try_recv() {
                wake.cancel();
                return m;
            }
            fds.clear();
            wake.wait(&mut fds, None);
        }
    }

    /// Two threads bounce 100 000 messages, each one handed over by a
    /// channel send plus `notify` and taken by `recv`. One lost wakeup
    /// blocks both threads in `poll` for good, and the watchdog fails
    /// the test.
    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u32 = 100_000;
        let wakes = Arc::new([Wake::new().unwrap(), Wake::new().unwrap()]);
        let (to_b, at_b) = mpsc::channel();
        let (to_a, at_a) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let b = {
            let wakes = Arc::clone(&wakes);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    assert_eq!(recv(&wakes[1], &at_b), i);
                    to_a.send(i).unwrap();
                    wakes[0].notify();
                }
            })
        };
        let a = {
            let wakes = Arc::clone(&wakes);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    to_b.send(i).unwrap();
                    wakes[1].notify();
                    assert_eq!(recv(&wakes[0], &at_a), i);
                }
                done_tx.send(()).unwrap();
            })
        };
        let outcome = done_rx.recv_timeout(Duration::from_secs(10));
        assert!(
            !matches!(outcome, Err(mpsc::RecvTimeoutError::Timeout)),
            "ping-pong stalled: a wakeup was lost"
        );
        a.join().unwrap();
        b.join().unwrap();
    }
}
