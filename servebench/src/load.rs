//! The load generator: one thread driving at most two keep-alive
//! HTTP/1.1 connections over nonblocking sockets, pipelining requests.
//!
//! Open-loop phases send on a seeded exponential schedule regardless of
//! replies and time each request from its *scheduled* send, so a stall
//! is charged to every request it delays. Closed-loop phases keep one
//! request outstanding per connection.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::Traffic;
use crate::rng::Rng;
use crate::trace::Spans;

mod sys {
    use std::os::raw::{c_int, c_long, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
    }
}

/// Asks the kernel to wake this thread on time rather than up to 50 µs
/// late (the default timer slack), so the open-loop schedule holds.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's wake-up slack; no memory is passed.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// Requests not answered this long after their scheduled send count as
/// timeouts.
const TIMEOUT: Duration = Duration::from_secs(10);

/// `Completion::status` of a request whose connection was refused or broke.
pub const REFUSED: u16 = 0;
/// `Completion::status` of a request with no answer within [`TIMEOUT`].
pub const TIMED_OUT: u16 = 1;

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index into `Traffic::requests`.
    pub req: u32,
    pub phase: u8,
    /// Scheduled send, µs after the phase started (NaN for failures).
    pub sched_us: f64,
    /// Scheduled send to last response byte, µs.
    pub latency_us: f64,
    /// How late the request was put on the wire, µs.
    pub lag_us: f64,
    /// HTTP status, or [`REFUSED`] / [`TIMED_OUT`].
    pub status: u16,
    /// Fingerprint of the response body.
    pub body: u64,
}

struct InFlight {
    req: u32,
    phase: u8,
    sched: Instant,
    lag_us: f64,
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    pending: VecDeque<InFlight>,
}

/// What one phase of load did.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    pub sent: u64,
    /// Completions with a 2xx status (bodies are checked later).
    pub ok_2xx: u64,
    pub non_2xx: u64,
    pub timeouts: u64,
    pub refused: u64,
    pub duration_s: f64,
}

impl PhaseStats {
    /// Accumulates another segment of the same phase.
    pub fn add(&mut self, other: &PhaseStats) {
        self.sent += other.sent;
        self.ok_2xx += other.ok_2xx;
        self.non_2xx += other.non_2xx;
        self.timeouts += other.timeouts;
        self.refused += other.refused;
        self.duration_s += other.duration_s;
    }
}

/// The load generator's connections and everything it has recorded.
pub struct Client {
    addr: SocketAddr,
    conns: Vec<Conn>,
    pub completions: Vec<Completion>,
    /// Every request sent, in order, as indices into the traffic.
    pub sent: Vec<u32>,
    pub spans: Option<Spans>,
    epoch: Instant,
    rr: usize,
}

impl Client {
    /// Opens `connections` (at most 2) keep-alive connections.
    pub fn connect(addr: SocketAddr, connections: usize) -> std::io::Result<Self> {
        let mut client = Self {
            addr,
            conns: Vec::new(),
            completions: Vec::new(),
            sent: Vec::new(),
            spans: None,
            epoch: Instant::now(),
            rr: 0,
        };
        for _ in 0..connections.min(2) {
            let stream = client.open()?;
            client.conns.push(Conn {
                stream: Some(stream),
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::with_capacity(1 << 16),
                in_pos: 0,
                pending: VecDeque::new(),
            });
        }
        Ok(client)
    }

    fn open(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Records client-side spans from now on.
    pub fn trace(&mut self, epoch: Instant) {
        self.epoch = epoch;
        self.spans = Some(Spans::default());
    }

    /// Open loop at `rate` requests per second for `seconds`, with
    /// exponential inter-arrivals drawn from `arrivals`.
    pub fn open_loop(
        &mut self,
        traffic: &mut Traffic,
        phase: u8,
        rate: f64,
        seconds: f64,
        arrivals: &mut Rng,
    ) -> PhaseStats {
        let before = self.completions.len();
        let sent_before = self.sent.len();
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(seconds);
        let mut next = start + Duration::from_secs_f64(arrivals.exp(1.0 / rate));
        loop {
            let now = Instant::now();
            while next <= now && next < end {
                let req = traffic.next();
                let c = self.pick_conn();
                self.enqueue(
                    c,
                    req,
                    &traffic.requests[req as usize].wire,
                    phase,
                    next,
                    now,
                );
                next += Duration::from_secs_f64(arrivals.exp(1.0 / rate));
            }
            let done_sending = next >= end;
            if done_sending && self.idle() {
                break;
            }
            let wake = if done_sending {
                now + Duration::from_millis(5)
            } else {
                next
            };
            self.step(wake, start);
        }
        self.stats(before, sent_before, seconds)
    }

    /// Closed loop: each connection keeps one request outstanding for
    /// `seconds`, then the outstanding requests are drained.
    pub fn closed_loop(&mut self, traffic: &mut Traffic, phase: u8, seconds: f64) -> PhaseStats {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        self.closed(traffic, phase, |t| (Instant::now() < end).then(|| t.next()))
    }

    /// Closed loop over a fixed list of requests.
    pub fn run_list(&mut self, traffic: &mut Traffic, phase: u8, list: &[u32]) -> PhaseStats {
        let mut rest = list.iter().copied();
        self.closed(traffic, phase, |_| rest.next())
    }

    /// Keeps one request outstanding per connection, taking requests from
    /// `next` until it returns `None`, and drains what is outstanding.
    fn closed(
        &mut self,
        traffic: &mut Traffic,
        phase: u8,
        mut next: impl FnMut(&mut Traffic) -> Option<u32>,
    ) -> PhaseStats {
        let before = self.completions.len();
        let sent_before = self.sent.len();
        let start = Instant::now();
        let mut exhausted = false;
        loop {
            let now = Instant::now();
            for c in 0..self.conns.len() {
                if exhausted || !self.conns[c].pending.is_empty() {
                    continue;
                }
                match next(traffic) {
                    Some(req) => self.enqueue(
                        c,
                        req,
                        &traffic.requests[req as usize].wire,
                        phase,
                        now,
                        now,
                    ),
                    None => exhausted = true,
                }
            }
            if self.idle() {
                break;
            }
            self.step(now + Duration::from_millis(5), start);
        }
        self.stats(before, sent_before, start.elapsed().as_secs_f64())
    }

    /// Sends one request and waits for its answer; for control-plane
    /// reads (`/v1/metrics`) between phases. Returns status and body.
    pub fn exchange(&mut self, wire: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let c = 0;
        if self.conns[c].stream.is_none() {
            self.conns[c].stream = Some(self.open()?);
        }
        let conn = &mut self.conns[c];
        let stream = conn.stream.as_mut().expect("opened above");
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        let result = (|| {
            stream.write_all(wire)?;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 16384];
            loop {
                if let Some((status, head, len)) = parse_head(&buf) {
                    if buf.len() >= head + len {
                        return Ok((status, buf[head..head + len].to_vec()));
                    }
                }
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "closed"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        })();
        stream.set_nonblocking(true)?;
        result
    }

    fn idle(&self) -> bool {
        self.conns.iter().all(|c| c.pending.is_empty())
    }

    /// The connection with the fewest requests outstanding.
    fn pick_conn(&mut self) -> usize {
        let n = self.conns.len();
        self.rr = (self.rr + 1) % n;
        (0..n)
            .map(|k| (self.rr + k) % n)
            .min_by_key(|&c| self.conns[c].pending.len())
            .expect("at least one connection")
    }

    fn enqueue(
        &mut self,
        c: usize,
        req: u32,
        wire: &[u8],
        phase: u8,
        sched: Instant,
        now: Instant,
    ) {
        self.sent.push(req);
        let lag_us = now.saturating_duration_since(sched).as_secs_f64() * 1e6;
        if self.conns[c].stream.is_none() {
            match self.open() {
                Ok(s) => self.conns[c].stream = Some(s),
                Err(_) => {
                    self.fail(req, phase, sched, lag_us, now, REFUSED);
                    return;
                }
            }
        }
        let conn = &mut self.conns[c];
        conn.out.extend_from_slice(wire);
        conn.pending.push_back(InFlight {
            req,
            phase,
            sched,
            lag_us,
        });
    }

    fn fail(
        &mut self,
        req: u32,
        phase: u8,
        sched: Instant,
        lag_us: f64,
        now: Instant,
        status: u16,
    ) {
        self.completions.push(Completion {
            req,
            phase,
            sched_us: f64::NAN,
            latency_us: now.saturating_duration_since(sched).as_secs_f64() * 1e6,
            lag_us,
            status,
            body: 0,
        });
    }

    /// Writes what it can, waits for readiness until `wake`, reads and
    /// parses what arrived, and expires requests past [`TIMEOUT`].
    fn step(&mut self, wake: Instant, phase_start: Instant) {
        for c in 0..self.conns.len() {
            if self.flush(c).is_err() {
                self.reset(c, Instant::now(), REFUSED);
            }
        }
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(2);
        let mut owners: Vec<usize> = Vec::with_capacity(2);
        for (c, conn) in self.conns.iter().enumerate() {
            if let Some(stream) = &conn.stream {
                use std::os::fd::AsRawFd;
                let mut events = sys::POLLIN;
                if conn.out_pos < conn.out.len() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                owners.push(c);
            }
        }
        let wait = wake.saturating_duration_since(Instant::now());
        let ts = sys::Timespec {
            tv_sec: wait.as_secs() as _,
            tv_nsec: wait.subsec_nanos() as _,
        };
        // SAFETY: `fds` is a live, correctly laid-out `pollfd` array of
        // `fds.len()` entries, `ts` outlives the call, and a null signal
        // mask leaves the mask unchanged.
        let ready = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
        if ready > 0 {
            for (fd, &c) in fds.iter().zip(&owners) {
                if fd.revents != 0 {
                    self.receive(c, phase_start);
                }
            }
        }
        let now = Instant::now();
        for c in 0..self.conns.len() {
            let expired = self.conns[c]
                .pending
                .front()
                .is_some_and(|p| now.saturating_duration_since(p.sched) > TIMEOUT);
            if expired {
                self.reset(c, now, TIMED_OUT);
            }
        }
    }

    fn flush(&mut self, c: usize) -> std::io::Result<()> {
        let conn = &mut self.conns[c];
        let Some(stream) = conn.stream.as_mut() else {
            return Ok(());
        };
        while conn.out_pos < conn.out.len() {
            match stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        Ok(())
    }

    fn receive(&mut self, c: usize, phase_start: Instant) {
        let mut chunk = [0u8; 65536];
        loop {
            let conn = &mut self.conns[c];
            let Some(stream) = conn.stream.as_mut() else {
                return;
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.reset(c, Instant::now(), REFUSED);
                    return;
                }
                Ok(n) => {
                    let now = Instant::now();
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    self.parse_responses(c, now, phase_start);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.reset(c, Instant::now(), REFUSED);
                    return;
                }
            }
        }
    }

    fn parse_responses(&mut self, c: usize, now: Instant, phase_start: Instant) {
        loop {
            let conn = &mut self.conns[c];
            let buf = &conn.inbuf[conn.in_pos..];
            let Some((status, head, len)) = parse_head(buf) else {
                break;
            };
            if buf.len() < head + len {
                break;
            }
            let body = fingerprint(&buf[head..head + len]);
            conn.in_pos += head + len;
            let Some(p) = conn.pending.pop_front() else {
                break;
            };
            let latency_us = now.saturating_duration_since(p.sched).as_secs_f64() * 1e6;
            let sched_us = p.sched.saturating_duration_since(phase_start).as_secs_f64() * 1e6;
            if let Some(spans) = &mut self.spans {
                let id = self.completions.len() as u64;
                let root = spans.record("client.request", p.sched, now, None, id, self.epoch);
                let sent = p.sched + Duration::from_secs_f64(p.lag_us / 1e6);
                spans.record("client.send_lag", p.sched, sent, Some(root), id, self.epoch);
                spans.record("client.wait", sent, now, Some(root), id, self.epoch);
            }
            self.completions.push(Completion {
                req: p.req,
                phase: p.phase,
                sched_us,
                latency_us,
                lag_us: p.lag_us,
                status,
                body,
            });
        }
        let conn = &mut self.conns[c];
        if conn.in_pos == conn.inbuf.len() {
            conn.inbuf.clear();
            conn.in_pos = 0;
        } else if conn.in_pos > (1 << 20) {
            conn.inbuf.drain(..conn.in_pos);
            conn.in_pos = 0;
        }
    }

    /// Drops a broken or stalled connection: everything outstanding on it
    /// fails, and the next request reconnects.
    fn reset(&mut self, c: usize, now: Instant, status: u16) {
        let pending: Vec<InFlight> = self.conns[c].pending.drain(..).collect();
        let conn = &mut self.conns[c];
        conn.stream = None;
        conn.out.clear();
        conn.out_pos = 0;
        conn.inbuf.clear();
        conn.in_pos = 0;
        for p in pending {
            self.fail(p.req, p.phase, p.sched, p.lag_us, now, status);
        }
    }

    fn stats(&self, before: usize, sent_before: usize, seconds: f64) -> PhaseStats {
        let mut s = PhaseStats {
            sent: (self.sent.len() - sent_before) as u64,
            duration_s: seconds,
            ..PhaseStats::default()
        };
        for c in &self.completions[before..] {
            match c.status {
                TIMED_OUT => s.timeouts += 1,
                REFUSED => s.refused += 1,
                200..=299 => s.ok_2xx += 1,
                _ => s.non_2xx += 1,
            }
        }
        s
    }
}

/// Parses a response head at the front of `buf`: status, head length,
/// and `Content-Length`.
fn parse_head(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let len = head
        .split("\r\n")
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())
                .flatten()
        })
        .unwrap_or(0);
    Some((status, end, len))
}

/// A 64-bit fingerprint of a response body, eight bytes at a time.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
    }
    h ^ (h >> 29)
}
