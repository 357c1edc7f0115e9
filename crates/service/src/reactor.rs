//! A hand-rolled epoll readiness layer (Linux only): the I/O core under
//! the reactor server.
//!
//! The workspace is offline — no tokio, no mio, no libc crate — so this
//! module declares the four syscall entry points it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) as `extern "C"` and builds two
//! small, safe abstractions on top:
//!
//! - [`Poller`]: an epoll instance with token-addressed, level-triggered
//!   registration. Interest is re-armed by the owning state machine on
//!   every transition (read when a frame is wanted, write when bytes are
//!   queued), which gives edge-precise behaviour without the lost-wakeup
//!   hazards of `EPOLLET`.
//! - [`Waker`]: an `eventfd` wakeup token. Any thread can [`Waker::wake`]
//!   a poller parked in [`Poller::wait`]; the poller drains it and
//!   processes whatever message queue the wake advertised. This is how
//!   executor threads complete responses into the reactor and how
//!   shutdown interrupts a parked loop.
//!
//! Everything here is `target_os = "linux"`-gated at the module level;
//! on other platforms the server keeps its thread-per-connection path
//! (see [`crate::server::IoModel`]). Clients, the `fc-cluster`
//! coordinator's node requests included, are blocking and never come
//! here.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Raw syscall surface. Numbers and layouts match the Linux UAPI headers;
/// the symbols resolve from the C runtime Rust already links against.
mod sys {
    /// Mirror of `struct epoll_event`. The kernel ABI packs it on x86-64
    /// (and only there), so the data word straddles an unaligned boundary
    /// exactly like C sees it.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_NONBLOCK: i32 = 0x800;
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or has hung up — a read will observe
    /// EOF or the error).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// A level-triggered epoll instance addressing registrations by token.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if readable {
            events |= sys::EPOLLIN;
        }
        if writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Re-arms `fd`'s interest (level-triggered: the state machine sets
    /// exactly what it currently wants).
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Removes `fd` from the interest set. (Closing the descriptor also
    /// removes it; this exists for descriptors that outlive their
    /// registration, e.g. pooled sockets returned to their owner.)
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for readiness, filling `out` (cleared first). `None` blocks
    /// until an event or a [`Waker::wake`]; `Some(d)` returns empty after
    /// `d` at the latest. EINTR retries internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline doesn't busy-spin at 0ms.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let n = loop {
            let rc = unsafe {
                sys::epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (packed) ABI struct before use.
            let bits = ev.events;
            let token = ev.data;
            let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            out.push(Event {
                token,
                // Hangups and errors surface as readability: the next read
                // observes EOF or the socket error.
                readable: bits & sys::EPOLLIN != 0 || hangup,
                writable: bits & sys::EPOLLOUT != 0 || hangup,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// An `eventfd` wakeup token: cross-thread pokes for a parked [`Poller`].
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd (non-blocking, close-on-exec).
    pub fn new() -> io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The descriptor to register (readable interest) on the poller.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the poller. Safe from any thread; coalesces (a saturated
    /// counter already guarantees a pending wake).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains pending wakes (call when the waker token fires).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { sys::read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

// Waker is a plain fd; writes are atomic at the kernel.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_unblocks_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, true, false).unwrap();
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        waker.drain();
        // Drained: a zero-timeout wait sees nothing.
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
        t.join().unwrap();
    }
}
