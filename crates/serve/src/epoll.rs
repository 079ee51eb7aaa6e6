//! Minimal epoll bindings over raw Linux syscalls — no `libc`, keeping
//! the serving stack zero-dependency like the hand-rolled HTTP layer.
//!
//! Only the four syscalls the event front needs are wrapped
//! (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `close`); everything
//! else — non-blocking accept/read/write, fd extraction, the wake
//! socket — goes through `std::net`, which already speaks
//! `WouldBlock`. The wrappers use inline assembly because there is no
//! stable `std` syscall interface; the calling conventions are fixed by
//! the kernel ABI:
//!
//! * x86_64: number in `rax`, args in `rdi rsi rdx r10 r8 r9`,
//!   return in `rax`, `rcx`/`r11` clobbered by `syscall`.
//! * aarch64: number in `x8`, args in `x0..x5`, return in `x0`,
//!   via `svc 0`.
//!
//! Errors come back as `-errno` in the return register and are
//! converted to [`std::io::Error`]. `epoll_pwait` is used on both
//! architectures (aarch64 has no plain `epoll_wait`); passing a null
//! sigmask makes it behave identically.

use std::io;
use std::os::fd::RawFd;

pub const EPOLLIN: u32 = 0x001;
/// Peer shut down its writing half — lets the loop notice half-closed
/// connections without waiting for a read to return 0. (`EPOLLERR` and
/// `EPOLLHUP` need no constants: the kernel reports them unsolicited
/// and the loop's next read surfaces the error either way.)
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CLOEXEC: usize = 0x80000;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;
}

/// The kernel's `struct epoll_event`. On x86_64 the kernel declares it
/// packed (12 bytes); everywhere else it has natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-chosen token, echoed back by `epoll_pwait`.
    pub data: u64,
}

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
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
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// An epoll instance. Level-triggered throughout: a readiness the loop
/// doesn't fully consume is simply reported again, which is the easy
/// semantics to keep correct.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes only a flags word and touches no
        // memory of ours; a failure comes back as a negative errno.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        Ok(Poller {
            epfd: check(ret)? as RawFd,
        })
    }

    /// Watch `fd` for `events`, tagging readiness reports with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some(EpollEvent { events, data: token }))
    }

    /// Stop watching `fd`. The fd stays open — ownership of the socket
    /// never lives here.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // A non-null event pointer keeps pre-2.6.9 kernels happy and
        // costs nothing on current ones.
        self.ctl(EPOLL_CTL_DEL, fd, Some(EpollEvent::default()))
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let ptr = event
            .as_ref()
            .map_or(std::ptr::null(), |e| e as *const EpollEvent);
        // SAFETY: `ptr` is null or points at `event`, laid out as the
        // kernel's `epoll_event` and alive to the end of this function; the
        // kernel only reads it during the call.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.epfd as usize,
                op as usize,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Block until readiness or `timeout_ms` (`-1` = forever). Returns
    /// how many entries of `events` were filled. `EINTR` is retried.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the kernel writes at most `events.len()` entries, laid
            // out as its `epoll_event`, into `events`, which is borrowed
            // mutably for the whole call; the signal mask pointer is null.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // null sigmask: plain epoll_wait behaviour
                    8, // sigsetsize, ignored with a null mask
                )
            };
            match check(ret) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is the descriptor `new` opened; this `Poller` owns
        // it alone and closes it exactly once, here.
        unsafe { syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readable_tcp_data() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().expect("epoll_create1");
        poller
            .add(server_side.as_raw_fd(), 77, EPOLLIN | EPOLLRDHUP)
            .expect("epoll_ctl add");

        let mut events = [EpollEvent::default(); 8];
        // Nothing written yet: a short wait times out empty.
        let n = poller.wait(&mut events, 0).expect("epoll_pwait");
        assert_eq!(n, 0, "no readiness before any bytes are sent");

        client.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, 1000).expect("epoll_pwait");
        assert_eq!(n, 1, "one readable fd");
        let data = events[0].data;
        let ready = events[0].events;
        assert_eq!(data, 77, "token round-trips");
        assert!(ready & EPOLLIN != 0, "readable, got {ready:#x}");

        poller.del(server_side.as_raw_fd()).expect("epoll_ctl del");
        client.write_all(b"more").unwrap();
        let n = poller.wait(&mut events, 0).expect("epoll_pwait");
        assert_eq!(n, 0, "deleted fds report nothing");
    }
}
