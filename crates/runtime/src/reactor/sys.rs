//! The reactor's only foreign-function surface: a worker's readiness set
//! (`epoll` on Linux), the socket pair that wakes it, and the one socket
//! call `std` cannot make without blocking, a connect that returns while
//! it is still in flight. The readiness set is also the connection table's
//! [`Sockets`] in production. No other reactor file uses `unsafe`.

use super::io::{Ready, Sockets};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Token of the worker's own wake socket; connection tokens start above it.
pub(super) const WAKE_TOKEN: u64 = 0;

/// Readiness primitives: one `epoll` instance per worker over hand-declared
/// FFI (the vendored-deps constraint rules out mio and libc), plus a
/// socketpair waker and a non-blocking connect. A descriptor is registered
/// once, level-triggered for reads, and leaves the set when it is closed —
/// the reactor never duplicates a socket, so dropping the stream is the
/// deregistration.
#[cfg(target_os = "linux")]
mod imp {
    use super::{Ready, WAKE_TOKEN};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::c_int;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;
    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    /// As asm-generic numbers it (x86, Arm, RISC-V).
    const EINPROGRESS: i32 = 115;

    /// Events fetched per `epoll_wait`; a larger ready set is served over
    /// successive waits (level-triggered, nothing is lost).
    const BATCH: usize = 256;

    /// `struct epoll_event`, kernel ABI layout (packed on x86 only).
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct sockaddr_in`: port and address in network byte order.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        // `timeout` is in milliseconds.
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// A worker's readiness set.
    pub struct Readiness {
        ep: OwnedFd,
        events: Vec<EpollEvent>,
        ready: usize,
    }

    impl Readiness {
        pub fn new() -> std::io::Result<Self> {
            // SAFETY: no pointer arguments; the result is checked below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Readiness {
                // SAFETY: `fd` is a descriptor this call just opened and
                // nothing else owns.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
                events: vec![EpollEvent { events: 0, data: 0 }; BATCH],
                ready: 0,
            })
        }

        fn ctl(
            &self,
            op: c_int,
            sock: &impl AsRawFd,
            events: u32,
            token: u64,
        ) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live `epoll_event` for the duration of the
            // call (the kernel copies it); both descriptors are open, being
            // borrowed from their owners.
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, sock.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Adds `sock` with read interest; its events carry `token`.
        pub fn register(&mut self, sock: &impl AsRawFd, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, sock, EPOLLIN, token)
        }

        /// Opens a non-blocking IPv4 socket, starts its connect to `addr`
        /// and adds it with read *and* write interest under `token`. The
        /// connect is decided when the token first reports writable:
        /// `TcpStream::take_error` then reads `None` if it succeeded and
        /// the refusal or reset if not.
        pub fn connect(&mut self, addr: SocketAddr, token: u64) -> std::io::Result<TcpStream> {
            let SocketAddr::V4(v4) = addr else {
                return Err(std::io::ErrorKind::Unsupported.into());
            };
            // SAFETY: no pointer arguments; the result is checked below.
            let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            // SAFETY: `fd` is a descriptor this call just opened and
            // nothing else owns.
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            let sa = SockaddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            // SAFETY: `sa` is a live `sockaddr_in` of the length passed (the
            // kernel copies it); the descriptor is open, owned by `stream`.
            let rc = unsafe { connect(stream.as_raw_fd(), &sa, size_of::<SockaddrIn>() as u32) };
            if rc < 0 {
                let err = std::io::Error::last_os_error();
                if err.raw_os_error() != Some(EINPROGRESS) {
                    return Err(err);
                }
            }
            self.ctl(EPOLL_CTL_ADD, &stream, EPOLLIN | EPOLLOUT, token)?;
            Ok(stream)
        }

        /// Sets which of read and write readiness a registered `sock`
        /// reports.
        pub fn set_interest(
            &mut self,
            sock: &impl AsRawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> std::io::Result<()> {
            let events = (read as u32 * EPOLLIN) | (write as u32 * EPOLLOUT);
            self.ctl(EPOLL_CTL_MOD, sock, events, token)
        }

        /// Waits until a registration is ready or `timeout` passes (rounded
        /// up to the millisecond, so a loop parked on a deadline wakes once,
        /// after it). Returns how many [`Readiness::event`]s are ready;
        /// zero on timeout or `EINTR`.
        pub fn wait(&mut self, timeout: Duration) -> usize {
            let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
            // SAFETY: `events` holds `BATCH` initialised entries, the
            // capacity passed; the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    BATCH as c_int,
                    ms,
                )
            };
            self.ready = n.max(0) as usize;
            self.ready
        }

        /// The `i`-th ready registration of the last [`Readiness::wait`].
        pub fn event(&self, i: usize) -> Ready {
            let EpollEvent { events, data } = self.events[..self.ready][i];
            Ready {
                token: data,
                readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            }
        }
    }

    /// The sending half of a worker's wake socket. One byte is in flight at
    /// most (`pending` collapses a burst of wakes into one write).
    pub struct Waker {
        tx: UnixStream,
        pending: Arc<AtomicBool>,
    }

    /// The worker-side half, registered under [`WAKE_TOKEN`].
    pub struct WakeRx {
        rx: UnixStream,
        pending: Arc<AtomicBool>,
    }

    pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let pending = Arc::new(AtomicBool::new(false));
        Ok((
            Waker {
                tx,
                pending: Arc::clone(&pending),
            },
            WakeRx { rx, pending },
        ))
    }

    impl Waker {
        pub fn wake(&self) {
            if !self.pending.swap(true, Ordering::SeqCst) {
                let _ = (&self.tx).write(&[1u8]);
            }
        }
    }

    impl WakeRx {
        pub fn register(&self, ready: &mut Readiness) -> std::io::Result<()> {
            ready.register(&self.rx, WAKE_TOKEN)
        }

        /// Empties the socket, then clears the pending flag, and the caller
        /// swaps the queue after both. A wake racing the drain is never
        /// lost: its message is already queued (push precedes wake), and it
        /// either found the flag still set and wrote nothing, or set it
        /// after the clear and leaves a fresh byte for the next wait.
        /// Clearing first would let the read swallow that byte with the
        /// flag left set, silencing every later wake until the next drain.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
            self.pending.store(false, Ordering::SeqCst);
        }
    }
}

/// Degraded portability mode for targets without `epoll`: a 1 ms tick that
/// reports every token ever registered ready both ways. Handlers are
/// non-blocking and tolerate spurious readiness, and a token whose
/// connection is gone falls through the worker's lookups.
#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Ready;
    use crate::reactor::io::CONNECT_TIMEOUT;
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Default)]
    pub struct Readiness {
        tokens: Vec<u64>,
    }

    impl Readiness {
        pub fn new() -> std::io::Result<Self> {
            Ok(Self::default())
        }
        pub fn register<S>(&mut self, _sock: &S, token: u64) -> std::io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }
        /// A blocking connect behind the same call: the tick reports the
        /// registration writable, and `take_error` reads `None`.
        pub fn connect(&mut self, addr: SocketAddr, token: u64) -> std::io::Result<TcpStream> {
            let timeout = Duration::from_micros(CONNECT_TIMEOUT.as_micros());
            let stream = TcpStream::connect_timeout(&addr, timeout)?;
            stream.set_nonblocking(true)?;
            self.register(&stream, token)?;
            Ok(stream)
        }
        pub fn set_interest<S>(&mut self, _: &S, _: u64, _: bool, _: bool) -> std::io::Result<()> {
            Ok(())
        }
        pub fn wait(&mut self, timeout: Duration) -> usize {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            self.tokens.len()
        }
        pub fn event(&self, i: usize) -> Ready {
            Ready {
                token: self.tokens[i],
                readable: true,
                writable: true,
            }
        }
    }

    pub struct Waker {
        pending: Arc<AtomicBool>,
    }
    pub struct WakeRx {
        pending: Arc<AtomicBool>,
    }

    pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
        let pending = Arc::new(AtomicBool::new(false));
        Ok((
            Waker {
                pending: Arc::clone(&pending),
            },
            WakeRx { pending },
        ))
    }

    impl Waker {
        pub fn wake(&self) {
            self.pending.store(true, Ordering::SeqCst);
        }
    }
    impl WakeRx {
        /// The inbox is drained every tick; nothing to wait on.
        pub fn register(&self, _ready: &mut Readiness) -> std::io::Result<()> {
            Ok(())
        }
        pub fn drain(&self) {
            self.pending.store(false, Ordering::SeqCst);
        }
    }
}

pub(super) use imp::*;

/// The connection table's sockets in production: non-blocking TCP on the
/// worker's readiness set. Dropping a socket closes it, which also takes it
/// out of the set.
impl Sockets for Readiness {
    type Listener = TcpListener;
    type Stream = TcpStream;
    type Addr = SocketAddr;
    fn listen(&mut self, listener: &TcpListener, token: u64) -> std::io::Result<()> {
        let _ = listener.set_nonblocking(true);
        self.register(listener, token)
    }
    fn accepting(&mut self, listener: &TcpListener, token: u64, on: bool) -> std::io::Result<()> {
        self.set_interest(listener, token, on, false)
    }
    fn accept(&mut self, listener: &TcpListener, token: u64) -> std::io::Result<TcpStream> {
        let (stream, _) = listener.accept()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        self.register(&stream, token).map(|()| stream)
    }
    fn connect(&mut self, addr: SocketAddr, token: u64) -> std::io::Result<TcpStream> {
        // The inherent method: the non-blocking connect above.
        let stream = Readiness::connect(self, addr, token)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }
    fn read(&mut self, stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*stream).read(buf)
    }
    fn write(&mut self, stream: &TcpStream, buf: &[u8]) -> std::io::Result<usize> {
        (&*stream).write(buf)
    }
    fn write_interest(&mut self, stream: &TcpStream, token: u64, on: bool) -> std::io::Result<()> {
        self.set_interest(stream, token, true, on)
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::Readiness;
    use std::collections::BTreeSet;
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpListener;
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const SOON: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    #[test]
    fn a_registered_socket_that_becomes_readable_reports_its_token() {
        let mut ready = Readiness::new().expect("epoll");
        let (mut tx, rx) = pair();
        let (_quiet_tx, quiet_rx) = pair();
        ready.register(&rx, 7).expect("register");
        ready.register(&quiet_rx, 8).expect("register");
        assert_eq!(ready.wait(SOON), 0, "nothing written yet");
        tx.write_all(b"x").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        let ev = ready.event(0);
        assert_eq!(ev.token, 7);
        assert!(ev.readable && !ev.writable);
        // Level-triggered: still reported until the byte is read.
        assert_eq!(ready.wait(LONG), 1);
        (&rx).read_exact(&mut [0u8; 1]).expect("read");
        assert_eq!(ready.wait(SOON), 0);
    }

    #[test]
    fn closing_a_registered_descriptor_is_silent() {
        let mut ready = Readiness::new().expect("epoll");
        let (mut tx, rx) = pair();
        ready.register(&rx, 1).expect("register");
        tx.write_all(b"x").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        // Dropped while readable: the registration goes with it.
        drop(rx);
        assert_eq!(ready.wait(SOON), 0);
        // The set still works.
        let (mut tx2, rx2) = pair();
        ready.register(&rx2, 2).expect("register after a close");
        tx2.write_all(b"y").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        assert_eq!(ready.event(0).token, 2);
    }

    #[test]
    fn write_interest_reports_writable_only_while_on() {
        let mut ready = Readiness::new().expect("epoll");
        let (a, _b) = pair();
        ready.register(&a, 3).expect("register");
        assert_eq!(ready.wait(SOON), 0, "an idle writable socket is silent");
        ready.set_interest(&a, 3, true, true).expect("arm");
        assert_eq!(ready.wait(LONG), 1);
        let ev = ready.event(0);
        assert_eq!(ev.token, 3);
        assert!(ev.writable && !ev.readable);
        ready.set_interest(&a, 3, true, false).expect("disarm");
        assert_eq!(ready.wait(SOON), 0);
    }

    #[test]
    fn a_connect_in_flight_is_decided_when_its_socket_turns_writable() {
        let mut ready = Readiness::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let open = listener.local_addr().expect("addr");
        let closed = {
            let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
            gone.local_addr().expect("addr")
        };
        // Both return while the handshake is still in flight.
        let accepted = ready.connect(open, 1).expect("connect started");
        let refused = ready.connect(closed, 2).expect("a refusal arrives later");
        let mut decided = BTreeSet::new();
        while decided.len() < 2 {
            let n = ready.wait(LONG);
            assert!(n > 0, "undecided connects: {decided:?} of 1, 2");
            for i in 0..n {
                let ev = ready.event(i);
                assert!(ev.writable, "a decided connect reads as writable");
                decided.insert(ev.token);
            }
        }
        assert!(accepted.take_error().expect("SO_ERROR").is_none());
        let refusal = refused.take_error().expect("SO_ERROR").map(|e| e.kind());
        assert_eq!(refusal, Some(ErrorKind::ConnectionRefused));
    }

    #[test]
    fn a_ready_set_larger_than_the_event_buffer_is_served_over_successive_waits() {
        const SOCKETS: usize = 300; // the buffer holds 256
        let mut ready = Readiness::new().expect("epoll");
        let pairs: Vec<_> = (0..SOCKETS).map(|_| pair()).collect();
        for (token, (tx, rx)) in pairs.iter().enumerate() {
            ready.register(rx, token as u64).expect("register");
            (&*tx).write_all(b"x").expect("write");
        }
        let mut served = vec![0u32; SOCKETS];
        let mut waits = 0;
        while served.contains(&0) {
            let n = ready.wait(LONG);
            assert!(n > 0, "descriptors left unserved: {served:?}");
            waits += 1;
            for i in 0..n {
                let token = ready.event(i).token as usize;
                (&pairs[token].1)
                    .read_exact(&mut [0u8; 1])
                    .expect("reported readable");
                served[token] += 1;
            }
        }
        assert!(waits >= 2, "300 ready descriptors cannot fit one batch");
        assert!(served.iter().all(|&n| n == 1), "served once each");
        assert_eq!(ready.wait(SOON), 0);
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn pthread_self() -> c_ulong;
        fn pthread_kill(thread: c_ulong, sig: c_int) -> c_int;
    }
    const SIGUSR1: c_int = 10;
    extern "C" fn ignore(_sig: c_int) {}

    #[test]
    fn an_interrupted_wait_reads_as_zero_ready() {
        // SAFETY: installs an async-signal-safe (empty) handler for a
        // signal nothing else in this test binary uses.
        unsafe { signal(SIGUSR1, ignore) };
        let (tid_tx, tid_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut ready = Readiness::new().expect("epoll");
            // SAFETY: no arguments; names the calling thread.
            tid_tx.send(unsafe { pthread_self() }).expect("main alive");
            let start = Instant::now();
            let n = ready.wait(LONG);
            done_tx.send(()).expect("main alive");
            (n, start.elapsed())
        });
        let tid = tid_rx.recv().expect("waiter alive");
        // Keep interrupting until the waiter is out of its wait: a signal
        // that lands before `epoll_wait` is entered interrupts nothing.
        while done_rx.recv_timeout(Duration::from_millis(1)).is_err() {
            // SAFETY: `tid` names a thread that is not joined yet.
            unsafe { pthread_kill(tid, SIGUSR1) };
        }
        let (n, waited) = waiter.join().expect("waiter");
        assert_eq!(n, 0);
        assert!(waited < LONG, "returned on the signal, not the timeout");
    }
}
