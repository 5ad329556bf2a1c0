//! Raw Linux syscall shims for the readiness engine: `epoll` and
//! `eventfd`, invoked through inline-assembly `syscall`/`svc`
//! instructions — no `libc` crate, in the same spirit as the repo's
//! in-tree `rand`/`proptest`/`criterion` shims (the container builds
//! with no network, so external crates are not an option, and `std`
//! exposes neither `epoll` nor `eventfd`).
//!
//! Scope is deliberately tiny: the reactor does all socket I/O through
//! safe `std::net` nonblocking streams; raw syscalls are used only for
//! the readiness *notification* plumbing std cannot express —
//! `epoll_create1` / `epoll_ctl` / `epoll_pwait`, `eventfd2` for the
//! cross-thread waker, and `read`/`write`/`close` on the eventfd
//! itself. Every wrapper checks the return value and maps failures to
//! [`io::Error`], and `EINTR` is retried (or surfaced as an empty
//! poll) so callers never see it.
//!
//! This module is the `net` crate's one `#[allow(unsafe_code)]` island:
//! each `unsafe` block is a single syscall whose argument validity is
//! argued at the call site, and the owned-fd wrappers close on drop so
//! descriptors cannot leak.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

/// `EPOLLIN`: the fd is readable (or EOF is pending).
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, never armed).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported, never armed).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: the peer half-closed its write side.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_CREATE1: usize = 291;
    pub const EVENTFD2: usize = 290;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EVENTFD2: usize = 19;
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("net::sys implements raw syscalls for x86_64 and aarch64 Linux only");

/// One raw syscall with up to six arguments. Returns the kernel's
/// value verbatim: `>= 0` success, `-errno` failure.
///
/// # Safety
/// The caller must uphold the kernel contract of syscall `n`: pointer
/// arguments must be valid for the access the kernel performs for the
/// lengths passed alongside them.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: the `syscall` instruction clobbers rcx/r11 (declared) and
    // returns in rax; argument registers follow the x86_64 Linux ABI.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// One raw syscall with up to six arguments (aarch64 `svc #0` ABI:
/// number in `x8`, arguments in `x0..x5`, result in `x0`).
///
/// # Safety
/// Same contract as the x86_64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: `svc #0` follows the aarch64 Linux syscall ABI.
    unsafe {
        core::arch::asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Converts a raw syscall return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// One `epoll` readiness event, in the kernel's wire layout. On x86_64
/// the kernel declares the struct packed; elsewhere it is naturally
/// aligned — the `cfg_attr` mirrors the UAPI header exactly.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

/// An owned `epoll` instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` lives across the call; DEL ignores the pointer
        // but passing a valid one is always allowed.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arms `fd` with a new interest mask.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// `epoll_pwait` into `events` with a millisecond timeout (`-1`
    /// blocks). Returns the number of events filled in; an `EINTR`
    /// reads as zero events, which callers already treat as a tick.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid writable buffer of the declared
        // length; the null sigmask (arg 5) makes sigsetsize ignored.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                0,
            )
        };
        match check(ret) {
            Ok(n) => Ok(n),
            Err(e) if e.raw_os_error() == Some(EINTR) => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
    }
}

/// An owned nonblocking `eventfd`, the reactor's cross-thread waker:
/// any thread [`signal`](EventFd::signal)s it, the shard's `epoll`
/// reports it readable, and the shard [`drain`](EventFd::drain)s it
/// back to zero. Closed on drop.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd2 takes no pointers.
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd { fd: fd as RawFd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the eventfd counter, waking any `epoll_pwait` watching
    /// it. Best-effort: a full counter (`EAGAIN`) already guarantees a
    /// pending wakeup, and no other failure is actionable here.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live u64.
        let _ = unsafe {
            syscall6(
                nr::WRITE,
                self.fd as usize,
                std::ptr::addr_of!(one) as usize,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Reads the counter back to zero so the next `signal` re-arms the
    /// readable edge. Nonblocking: an already-drained fd is a no-op.
    pub fn drain(&self) {
        let mut sink: u64 = 0;
        loop {
            // SAFETY: reads exactly 8 bytes into a live u64.
            let ret = unsafe {
                syscall6(
                    nr::READ,
                    self.fd as usize,
                    std::ptr::addr_of_mut!(sink) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
            match check(ret) {
                Ok(_) => return, // one 8-byte read empties an eventfd
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) if e.raw_os_error() == Some(EAGAIN) => return,
                Err(_) => return,
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_signal_wakes_epoll_and_drain_rearms() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];

        // Not signalled: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.signal();
        ev.signal(); // coalesces: still one readable edge
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);

        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained fd is quiet");
        ev.signal();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1, "drain re-arms");
    }

    #[test]
    fn epoll_reports_socket_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "idle socket is quiet");

        (&client).write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let flags = events[0].events;
        let token = events[0].data;
        assert_eq!(token, 42);
        assert_ne!(flags & EPOLLIN, 0);

        // MOD to write interest: an empty socket buffer is writable.
        ep.modify(server.as_raw_fd(), EPOLLOUT, 42).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let flags = events[0].events;
        assert_ne!(flags & EPOLLOUT, 0);

        // Peer close shows up as RDHUP/HUP alongside read interest.
        ep.modify(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        drop(client);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let flags = events[0].events;
        assert_ne!(flags & (EPOLLRDHUP | EPOLLHUP | EPOLLIN), 0);
        let mut buf = [0u8; 16];
        assert_eq!(
            (&server).read(&mut buf).unwrap(),
            4,
            "payload still readable"
        );
        assert_eq!((&server).read(&mut buf).unwrap(), 0, "then clean EOF");

        ep.del(server.as_raw_fd()).unwrap();
    }
}
