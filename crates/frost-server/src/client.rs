//! A minimal blocking HTTP/1.1 client — enough to talk to `frostd`
//! from the `frost get` subcommand, the loopback tests, the benchmarks
//! and CI scripts.
//!
//! [`Connection`] holds one keep-alive socket and frames responses by
//! `Content-Length`, so a sequence of requests to the same authority
//! reuses a single TCP connection (the serving path this crate's
//! benchmarks measure). [`get_once`] is the one-shot form: it opens a
//! fresh connection, sends `Connection: close`, and tears everything
//! down — the per-request cost keep-alive exists to avoid. It returns
//! the body's exact bytes (the replica's WAL polls and snapshot
//! fetches ride on it); [`http_get`] is its text form.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Bounded exponential backoff for connection establishment, plus a
/// circuit breaker for overloaded servers.
///
/// Connecting (and reconnecting after a server-side close) retries up
/// to `attempts` times, sleeping `base_delay * 2^n` before retry `n`,
/// capped at `max_delay` and scaled by a random jitter factor in
/// `[0.5, 1.0)` so a fleet of clients restarting against a rebooting
/// server does not reconnect in lock-step. Only connection
/// establishment retries — request retransmission stays the caller's
/// decision (and [`Connection::get`] retries idempotent `GET`s once).
///
/// The breaker: `breaker_threshold` consecutive failures (a `503`
/// shed or an exhausted connect) open the circuit for
/// `breaker_cooldown` — or for the server's `Retry-After`, when the
/// shed carried one — during which every request fails fast without
/// touching the network (an overloaded server's best help is absent
/// clients). After the cooldown, one half-open probe goes through:
/// success closes the circuit, another failure re-opens it
/// immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total connection attempts (≥ 1; 1 means no retry).
    pub attempts: u32,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single sleep.
    pub max_delay: Duration,
    /// Consecutive `503`/connect failures that open the breaker;
    /// `0` disables it.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before its half-open
    /// probe, unless the server's `Retry-After` asked for longer.
    pub breaker_cooldown: Duration,
    /// Retry budget: total milliseconds one logical request may spend
    /// across reconnect backoff sleeps (failover across endpoints
    /// included) before giving up with a "retry budget exhausted"
    /// error. `None` = unbounded. The budget caps *waiting*, not the
    /// in-flight exchange itself.
    pub max_total_ms: Option<u64>,
}

impl RetryPolicy {
    /// A single attempt: fail fast, no backoff, no breaker.
    pub const NONE: RetryPolicy = RetryPolicy {
        attempts: 1,
        base_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
        breaker_threshold: 0,
        breaker_cooldown: Duration::ZERO,
        max_total_ms: None,
    };

    /// The sleep before retry number `retry` (0-based), pre-jitter:
    /// `min(base_delay * 2^retry, max_delay)`.
    fn backoff(&self, retry: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32 << retry.min(20))
            .min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(500),
            max_total_ms: None,
        }
    }
}

/// A tiny xorshift64 generator for backoff jitter — decorrelating
/// client retries does not warrant a dependency.
struct Jitter(u64);

impl Jitter {
    fn new() -> Self {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9);
        Self(nanos | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Scales a delay by a factor in `[0.5, 1.0)`.
    fn scale(&mut self, delay: Duration) -> Duration {
        let r = (self.next() % 512) as f64 / 1024.0;
        delay.mul_f64(0.5 + r)
    }
}

/// How long [`get_once`] waits for a connection to be established, so
/// a caller polling a downed server (the replica loop, and shutdown
/// joins behind it) stays responsive.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Splits a plain `http://host:port/path` URL into
/// `(authority, target)`.
pub fn split_url(url: &str) -> Result<(&str, &str), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported url {url:?} (http:// only)"))?;
    Ok(match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    })
}

/// Per-endpoint circuit-breaker bookkeeping: with a failover list,
/// one endpoint being shed or dead must not fail requests to its
/// healthy siblings fast.
#[derive(Debug, Default)]
struct BreakerState {
    /// Consecutive breaker-relevant failures (`503` sheds and
    /// exhausted connects); any successful response resets it.
    consecutive_failures: u32,
    /// `Some(t)` = the circuit is open: requests fail fast until `t`.
    open_until: Option<Instant>,
    /// The request currently going through is the half-open probe: a
    /// single failure re-opens the circuit immediately.
    probing: bool,
}

/// A persistent keep-alive connection to one *active* authority
/// (`host:port`) out of an ordered failover list.
///
/// The server may close the connection at any time (idle timeout,
/// per-connection request cap, `Connection: close` on its final
/// response); [`get`](Self::get) reconnects transparently — once per
/// request — so callers see at most one round of that race.
///
/// Failover: [`open_failover`](Self::open_failover) takes an ordered
/// endpoint list. `GET`s rotate to the next endpoint when the active
/// one is unreachable or its breaker is open; writes go out exactly
/// once, but skip endpoints with open breakers when picking where. A
/// `503` carrying a `Frost-Primary` header (a replica declining a
/// write) re-points the connection at the named primary — adopted
/// into the list if it was not already there — so the caller's retry
/// lands on the node that can take it.
pub struct Connection {
    /// Ordered failover list; `endpoints[active]` serves requests.
    endpoints: Vec<String>,
    active: usize,
    breakers: Vec<BreakerState>,
    stream: Option<TcpStream>,
    /// Read-ahead spill between responses.
    buf: Vec<u8>,
    timeout: Duration,
    retry: RetryPolicy,
    jitter: Jitter,
    /// Deadline of the in-flight logical request's retry budget
    /// (`RetryPolicy::max_total_ms`); backoff sleeps clamp to it.
    budget_deadline: Option<Instant>,
    /// Timing of the most recent successful exchange.
    last_timing: Option<RequestTiming>,
}

/// Client-side timing of one request/response exchange, measured from
/// the first request byte written. Behind `frost get --timing`.
#[derive(Clone, Copy, Debug)]
pub struct RequestTiming {
    /// Whether the request went out on an already-open keep-alive
    /// socket (`false` = a fresh TCP connect preceded it).
    pub reused: bool,
    /// Send-start to the first response byte arriving (time to first
    /// byte). Zero-ish when a pipelined predecessor already left the
    /// response in the read-ahead buffer.
    pub ttfb: Duration,
    /// Send-start to the last body byte parsed.
    pub total: Duration,
}

impl Connection {
    /// Connects to `authority` (`host:port`) with the default
    /// [`RetryPolicy`].
    pub fn open(authority: &str) -> Result<Self, String> {
        Self::open_with_retry(authority, RetryPolicy::default())
    }

    /// Connects with an explicit connect/reconnect [`RetryPolicy`].
    pub fn open_with_retry(authority: &str, retry: RetryPolicy) -> Result<Self, String> {
        Self::open_failover(&[authority.to_string()], retry)
    }

    /// Connects with an ordered failover list: the first reachable
    /// endpoint becomes active; later transport failures, open
    /// breakers and `Frost-Primary` hints move the connection along
    /// the list (see the type-level docs).
    pub fn open_failover(endpoints: &[String], retry: RetryPolicy) -> Result<Self, String> {
        if endpoints.is_empty() {
            return Err("no endpoints to connect to".to_string());
        }
        let mut conn = Self {
            endpoints: endpoints.to_vec(),
            active: 0,
            breakers: endpoints.iter().map(|_| BreakerState::default()).collect(),
            stream: None,
            buf: Vec::new(),
            timeout: Duration::from_secs(30),
            retry,
            jitter: Jitter::new(),
            budget_deadline: None,
            last_timing: None,
        };
        conn.begin_request();
        let mut last = String::new();
        for _ in 0..conn.endpoints.len() {
            match conn.connect() {
                Ok(()) => return Ok(conn),
                Err(e) => {
                    last = e;
                    conn.advance_endpoint();
                }
            }
        }
        Err(last)
    }

    /// The authority (`host:port`) requests currently go to.
    pub fn authority(&self) -> &str {
        &self.endpoints[self.active]
    }

    /// Arms the retry budget for one logical request. Every public
    /// entry point calls this; internal reconnects within the request
    /// then clamp their sleeps to the remaining budget.
    fn begin_request(&mut self) {
        self.budget_deadline = self
            .retry
            .max_total_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
    }

    /// Rotates to the next endpoint in the failover list (a no-op with
    /// a single endpoint), dropping any half-used socket state.
    fn advance_endpoint(&mut self) {
        if self.endpoints.len() <= 1 {
            return;
        }
        self.active = (self.active + 1) % self.endpoints.len();
        self.stream = None;
        self.buf.clear();
    }

    /// Re-points the connection at a `Frost-Primary` hint, adopting
    /// the authority into the failover list when it is new.
    fn follow_hint(&mut self, hint: &str) {
        let idx = match self.endpoints.iter().position(|e| e == hint) {
            Some(idx) => idx,
            None => {
                self.endpoints.push(hint.to_string());
                self.breakers.push(BreakerState::default());
                self.endpoints.len() - 1
            }
        };
        if idx != self.active {
            self.active = idx;
            self.stream = None;
            self.buf.clear();
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        let attempts = self.retry.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut delay = self.jitter.scale(self.retry.backoff(attempt - 1));
                if let Some(deadline) = self.budget_deadline {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        self.note_failure(None);
                        return Err(format!(
                            "connect {}: retry budget of {}ms exhausted after {attempt} attempt(s): {last}",
                            self.endpoints[self.active],
                            self.retry.max_total_ms.unwrap_or(0),
                        ));
                    }
                    delay = delay.min(remaining);
                }
                std::thread::sleep(delay);
            }
            match TcpStream::connect(&self.endpoints[self.active]) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(self.timeout))
                        .map_err(|e| e.to_string())?;
                    self.buf.clear();
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last = e.to_string(),
            }
        }
        self.note_failure(None);
        Err(format!(
            "connect {}: {last} (after {attempts} attempt(s))",
            self.endpoints[self.active]
        ))
    }

    /// Fails fast while the circuit is open; when the cooldown has
    /// elapsed, lets the current request through as the half-open
    /// probe.
    fn breaker_check(&mut self) -> Result<(), String> {
        let state = &mut self.breakers[self.active];
        let Some(until) = state.open_until else {
            return Ok(());
        };
        let now = Instant::now();
        if now < until {
            return Err(format!(
                "circuit open for {}: cooling down another {:?} after {} consecutive failure(s)",
                self.endpoints[self.active],
                until - now,
                state.consecutive_failures
            ));
        }
        state.open_until = None;
        state.probing = true;
        Ok(())
    }

    /// Records a breaker-relevant failure on the active endpoint.
    /// Opens its circuit when the threshold is reached (or instantly
    /// if this was the half-open probe), honoring the server's
    /// `Retry-After` when it asked for a longer pause than the
    /// configured cooldown.
    fn note_failure(&mut self, retry_after: Option<Duration>) {
        if self.retry.breaker_threshold == 0 {
            return;
        }
        let threshold = self.retry.breaker_threshold;
        let cooldown = retry_after
            .unwrap_or(Duration::ZERO)
            .max(self.retry.breaker_cooldown);
        let state = &mut self.breakers[self.active];
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if state.probing || state.consecutive_failures >= threshold {
            state.open_until = Some(Instant::now() + cooldown);
            state.probing = false;
        }
    }

    fn note_success(&mut self) {
        let state = &mut self.breakers[self.active];
        state.consecutive_failures = 0;
        state.open_until = None;
        state.probing = false;
    }

    /// Whether the active endpoint's breaker currently fails requests
    /// fast.
    pub fn breaker_is_open(&self) -> bool {
        self.breakers[self.active]
            .open_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Time until the open breaker's half-open probe (`None` when the
    /// active endpoint's circuit is closed or already probe-ready).
    pub fn breaker_remaining(&self) -> Option<Duration> {
        let until = self.breakers[self.active].open_until?;
        let now = Instant::now();
        (now < until).then(|| until - now)
    }

    /// Whether a socket is currently open (the server may still have
    /// closed its side — the next request finds out).
    pub fn is_open(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends `GET target` on the kept-alive connection and returns
    /// `(status, body)`. With a failover list, an unreachable (or
    /// breaker-open) active endpoint rotates the request to the next
    /// one — `GET`s are idempotent, so trying siblings is safe.
    pub fn get(&mut self, target: &str) -> Result<(u16, String), String> {
        self.begin_request();
        let mut last = String::new();
        for _ in 0..self.endpoints.len() {
            match self.get_active(target) {
                Ok(done) => return Ok(done),
                Err(e) => {
                    last = e;
                    self.advance_endpoint();
                }
            }
        }
        Err(last)
    }

    /// One `GET` against the active endpoint only.
    fn get_active(&mut self, target: &str) -> Result<(u16, String), String> {
        self.breaker_check()?;
        if self.stream.is_none() {
            self.connect()?;
            return self.request(target, false);
        }
        // A reused socket may have been closed server-side since the
        // last response (idle timeout / request cap): retry once on a
        // fresh connection before reporting failure.
        match self.request(target, true) {
            Ok(done) => Ok(done),
            Err(_) => {
                self.connect()?;
                self.request(target, false)
            }
        }
    }

    /// Timing of the most recent successful exchange (cleared when an
    /// exchange fails). See [`RequestTiming`].
    pub fn last_timing(&self) -> Option<RequestTiming> {
        self.last_timing
    }

    /// Sends `POST target` with `body` and returns `(status, body)`.
    ///
    /// POST is not idempotent, so unlike [`get`](Self::get) a failed
    /// exchange is **not** retried: the server may already have applied
    /// the write. Connection *establishment* still backs off per the
    /// [`RetryPolicy`] — no request bytes have been sent at that point.
    pub fn post(&mut self, target: &str, body: &[u8]) -> Result<(u16, String), String> {
        self.send_unretried("POST", target, body)
    }

    /// Sends `DELETE target` and returns `(status, body)`. Not retried,
    /// for the same reason as [`post`](Self::post): a retried delete
    /// that raced the first attempt reports a spurious 404.
    pub fn delete(&mut self, target: &str) -> Result<(u16, String), String> {
        self.send_unretried("DELETE", target, &[])
    }

    fn send_unretried(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, String), String> {
        self.begin_request();
        // The write itself goes out exactly once, but not to an
        // endpoint known to be bad: rotate past open breakers first
        // (at most one full turn of the list).
        for _ in 1..self.endpoints.len() {
            if !self.breaker_is_open() {
                break;
            }
            self.advance_endpoint();
        }
        self.breaker_check()?;
        let reused = self.stream.is_some();
        if !reused {
            self.connect()?;
        }
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.endpoints[self.active],
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        let outcome = self.exchange(&request, reused);
        if outcome.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        outcome
    }

    fn request(&mut self, target: &str, reused: bool) -> Result<(u16, String), String> {
        let request = format!(
            "GET {target} HTTP/1.1\r\nHost: {}\r\n\r\n",
            self.endpoints[self.active]
        );
        let outcome = self.exchange(request.as_bytes(), reused);
        if outcome.is_err() {
            // The socket may have unread bytes of a half-received
            // response: reusing it (or its spill buffer) would pair a
            // stale response with the next request. Drop both — any
            // retry must start on a fresh connection.
            self.stream = None;
            self.buf.clear();
        }
        outcome
    }

    fn exchange(&mut self, request: &[u8], reused: bool) -> Result<(u16, String), String> {
        self.last_timing = None;
        let stream = self.stream.as_mut().ok_or("connection closed")?;
        let start = Instant::now();
        stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        let response = read_response(stream, &mut self.buf, false)?;
        self.last_timing = Some(RequestTiming {
            reused,
            ttfb: response
                .first_byte
                .unwrap_or(start)
                .saturating_duration_since(start),
            total: start.elapsed(),
        });
        if response.close {
            self.stream = None;
            self.buf.clear();
        }
        // Breaker bookkeeping: a 503 is the server shedding load —
        // count it (and honor its Retry-After); anything the server
        // actually answered counts as success.
        if response.status == 503 {
            self.note_failure(response.retry_after.map(Duration::from_secs));
            // A replica declining a write names the primary: re-point
            // the connection there so the caller's retry can land.
            if let Some(hint) = response.frost_primary.clone() {
                self.follow_hint(&hint);
            }
        } else {
            self.note_success();
        }
        Ok((response.status, response.text()))
    }
}

struct Response {
    status: u16,
    head: String,
    body: Vec<u8>,
    close: bool,
    /// Parsed `Retry-After` seconds, when the server sent one.
    retry_after: Option<u64>,
    /// The `Frost-Primary` authority a replica's `503` points writes
    /// at, when present.
    frost_primary: Option<String>,
    /// When the first response byte became available: the instant the
    /// first socket read progressed, or entry time when the read-ahead
    /// buffer already held spill from a pipelined predecessor.
    first_byte: Option<Instant>,
}

impl Response {
    /// The body as text (invalid UTF-8 replaced), for the text
    /// surfaces.
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one `Content-Length`-framed response from a raw socket and
/// returns `(status, head, body)`, using `buf` as the carry-over read
/// buffer (leftover bytes of a pipelined successor stay for the next
/// call). This is the one framing implementation — the keep-alive
/// client, the loopback tests and the throughput benchmarks all read
/// responses through it.
pub fn read_raw_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<(u16, String, String), String> {
    let response = read_response(stream, buf, false)?;
    let body = response.text();
    Ok((response.status, response.head, body))
}

/// See [`read_raw_response`]; additionally derives the `close` flag.
/// With `eof_body_ok` (the one-shot `Connection: close` path only), a
/// response without `Content-Length` is read to EOF instead of
/// rejected — generic servers may close-delimit their bodies; a
/// keep-alive connection must never guess framing that way.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    eof_body_ok: bool,
) -> Result<Response, String> {
    let mut chunk = [0u8; 4096];
    let mut first_byte = (!buf.is_empty()).then(Instant::now);
    // Head.
    let head_end = loop {
        if let Some(end) = find_terminator(buf) {
            break end;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) => return Err(format!("receive: {e}")),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {head:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    let mut retry_after = None;
    let mut frost_primary = None;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad content-length {value:?}"))?,
                );
            }
            "connection" if value.trim().eq_ignore_ascii_case("close") => close = true,
            // Seconds form only (frostd never sends the date form).
            "retry-after" => retry_after = value.trim().parse::<u64>().ok(),
            "frost-primary" => frost_primary = Some(value.trim().to_string()),
            _ => {}
        }
    }
    let length = match content_length {
        Some(length) => length,
        None if eof_body_ok => {
            // Close-delimited body: everything until EOF.
            stream
                .read_to_end(buf)
                .map_err(|e| format!("receive: {e}"))?;
            buf.len() - head_end
        }
        None => return Err("response without content-length framing".to_string()),
    };
    // Body.
    while buf.len() < head_end + length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    let body = buf[head_end..head_end + length].to_vec();
    buf.drain(..head_end + length);
    Ok(Response {
        status,
        head,
        body,
        close,
        retry_after,
        frost_primary,
        first_byte,
    })
}

/// Index just past the first `\r\n\r\n` (or bare `\n\n`) in `buf`.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    for i in 0..buf.len() {
        if buf[i] != b'\n' {
            continue;
        }
        if i >= 1 && buf[i - 1] == b'\n' {
            return Some(i + 1);
        }
        if i >= 3 && buf[i - 1] == b'\r' && buf[i - 2] == b'\n' && buf[i - 3] == b'\r' {
            return Some(i + 1);
        }
    }
    None
}

/// Fetches `url` (plain `http://host:port/path` only) over a one-shot
/// connection and returns `(status, body)` with the body as text. See
/// [`get_once`].
pub fn http_get(url: &str) -> Result<(u16, String), String> {
    let (authority, target) = split_url(url)?;
    let (status, body) = get_once(authority, target, Duration::from_secs(30))?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// `GET target` from `authority` (`host:port`) over a one-shot
/// connection (`Connection: close`) and returns `(status, body)` with
/// the body's exact bytes. Connecting gives up after 5 s per resolved
/// address; each read and write after `timeout`. A response without
/// `Content-Length` is read to EOF (close-delimited), as generic
/// servers may send it.
pub fn get_once(
    authority: &str,
    target: &str,
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let mut last = format!("cannot resolve {authority}");
    let stream = authority
        .to_socket_addrs()
        .map_err(|e| format!("resolve {authority}: {e}"))?
        .find_map(|addr| {
            TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .map_err(|e| last = format!("connect {authority}: {e}"))
                .ok()
        });
    let mut stream = stream.ok_or(last)?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| e.to_string())?;
    let request =
        format!("GET {target} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    let response = read_response(&mut stream, &mut buf, true)?;
    Ok((response.status, response.body))
}

/// A herd of mostly-idle keep-alive connections — the client half of
/// the high-connection-count story. One process opens `n` sockets that
/// just *sit there* (costing the server a poll registration, not a
/// thread), while [`probe`](Self::probe) exercises an arbitrary member
/// to prove the idle mass does not starve the active subset.
///
/// Used by the `frost herd` subcommand, the C10K integration tests and
/// the high-connection benchmark phase.
pub struct IdleHerd {
    streams: Vec<TcpStream>,
    authority: String,
}

impl IdleHerd {
    /// Opens `n` keep-alive connections to `authority`
    /// (`host:port`). Fails on the first connection the OS refuses —
    /// partial herds would silently weaken what the caller is
    /// measuring.
    pub fn open(authority: &str, n: usize) -> Result<Self, String> {
        let mut streams = Vec::with_capacity(n);
        for i in 0..n {
            let stream = TcpStream::connect(authority)
                .map_err(|e| format!("herd connect {authority} ({i} of {n} open): {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            streams.push(stream);
        }
        Ok(Self {
            streams,
            authority: authority.to_string(),
        })
    }

    /// Connections currently held.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the herd holds no connections.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Sends one keep-alive `GET target` on connection `index` and
    /// returns `(status, body)` — the connection stays open and idle
    /// afterwards, still part of the herd.
    pub fn probe(&mut self, index: usize, target: &str) -> Result<(u16, String), String> {
        let authority = self.authority.clone();
        let stream = self
            .streams
            .get_mut(index)
            .ok_or_else(|| format!("herd has no connection {index}"))?;
        let request = format!("GET {target} HTTP/1.1\r\nHost: {authority}\r\n\r\n");
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("herd send: {e}"))?;
        let mut buf = Vec::new();
        let (status, _head, body) = read_raw_response(stream, &mut buf)?;
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(350),
            ..RetryPolicy::NONE
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(100));
        assert_eq!(policy.backoff(1), Duration::from_millis(200));
        assert_eq!(policy.backoff(2), Duration::from_millis(350), "capped");
        assert_eq!(
            policy.backoff(63),
            Duration::from_millis(350),
            "no overflow"
        );
    }

    #[test]
    fn jitter_stays_within_half_to_full() {
        let mut jitter = Jitter(12345);
        let base = Duration::from_millis(1000);
        for _ in 0..1000 {
            let d = jitter.scale(base);
            assert!(d >= base / 2 && d < base, "jittered delay {d:?}");
        }
    }

    #[test]
    fn failed_connects_report_the_attempt_count() {
        // Port 1 on localhost is essentially never listening; NONE
        // keeps the test instant.
        let err = match Connection::open_with_retry("127.0.0.1:1", RetryPolicy::NONE) {
            Ok(_) => panic!("port 1 must refuse connections"),
            Err(e) => e,
        };
        assert!(err.contains("after 1 attempt(s)"), "{err}");
    }

    /// A canned one-response-per-connection server: `plan[i]` is the
    /// status served to connection `i` (with `Retry-After` on 503s);
    /// the plan's last entry repeats forever.
    fn canned_server(plan: Vec<(u16, Option<u64>)>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for i in 0.. {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                let (status, retry_after) = plan[i.min(plan.len() - 1)];
                let mut buf = [0u8; 1024];
                // One small request per connection; an empty
                // (throwaway) connection is the shutdown signal.
                if stream.read(&mut buf).unwrap_or(0) == 0 {
                    break;
                }
                let body = "{}";
                let reason = if status == 200 {
                    "OK"
                } else {
                    "Service Unavailable"
                };
                let retry = match retry_after {
                    Some(secs) => format!("Retry-After: {secs}\r\n"),
                    None => String::new(),
                };
                let response = format!(
                    "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n{retry}\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
                if status == 200 {
                    break; // plans end on their first success
                }
            }
        });
        (authority, handle)
    }

    fn breaker_policy(threshold: u32, cooldown_ms: u64) -> RetryPolicy {
        RetryPolicy {
            breaker_threshold: threshold,
            breaker_cooldown: Duration::from_millis(cooldown_ms),
            ..RetryPolicy::NONE
        }
    }

    /// A one-connection server that answers its one request with the
    /// raw bytes `response`, then closes.
    fn raw_server(response: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(&response);
        });
        (authority, handle)
    }

    /// Every byte value, up then down: not UTF-8.
    fn binary_body() -> Vec<u8> {
        (0..=255u8).chain((0..=255u8).rev()).collect()
    }

    #[test]
    fn a_content_length_body_comes_through_byte_exact() {
        let body = binary_body();
        let mut response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        response.extend_from_slice(&body);
        // Trailing bytes past Content-Length are not body.
        response.extend_from_slice(b"junk");
        let (authority, server) = raw_server(response);
        let (status, got) = get_once(&authority, "/bin", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(got, body);
        server.join().unwrap();
    }

    #[test]
    fn a_close_delimited_body_comes_through_byte_exact() {
        let body = binary_body();
        let mut response = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n".to_vec();
        response.extend_from_slice(&body);
        let (authority, server) = raw_server(response);
        let (status, got) = get_once(&authority, "/bin", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(got, body);
        server.join().unwrap();
    }

    #[test]
    fn breaker_opens_after_consecutive_503s_and_honors_retry_after() {
        let (authority, server) = canned_server(vec![(503, Some(2)), (503, Some(2)), (200, None)]);
        let mut conn = Connection::open_with_retry(&authority, breaker_policy(2, 10)).unwrap();
        for _ in 0..2 {
            let (status, _) = conn.get("/datasets").unwrap();
            assert_eq!(status, 503);
        }
        assert!(conn.breaker_is_open(), "threshold of 2 reached");
        // The server's Retry-After (2s) outranks the 10ms cooldown.
        let remaining = conn.breaker_remaining().expect("cooling down");
        assert!(
            remaining > Duration::from_secs(1),
            "Retry-After must set the cooldown, got {remaining:?}"
        );
        // Fast-fail without touching the network.
        let err = conn.get("/datasets").unwrap_err();
        assert!(err.contains("circuit open"), "{err}");
        drop(conn);
        let _ = TcpStream::connect(&authority); // unblock accept
        let _ = server.join();
    }

    #[test]
    fn breaker_half_open_probe_closes_the_circuit_on_success() {
        let (authority, server) = canned_server(vec![(503, None), (503, None), (200, None)]);
        let mut conn = Connection::open_with_retry(&authority, breaker_policy(2, 10)).unwrap();
        for _ in 0..2 {
            let (status, _) = conn.get("/datasets").unwrap();
            assert_eq!(status, 503);
        }
        assert!(conn.breaker_is_open());
        std::thread::sleep(Duration::from_millis(20));
        // Cooldown over: this is the half-open probe, and it succeeds.
        let (status, _) = conn.get("/datasets").unwrap();
        assert_eq!(status, 200);
        assert!(!conn.breaker_is_open(), "success closes the circuit");
        assert_eq!(conn.breakers[conn.active].consecutive_failures, 0);
        let _ = server.join();
    }

    #[test]
    fn a_failed_half_open_probe_reopens_immediately() {
        let (authority, server) = canned_server(vec![(503, None)]);
        let mut conn = Connection::open_with_retry(&authority, breaker_policy(2, 10)).unwrap();
        for _ in 0..2 {
            let (status, _) = conn.get("/datasets").unwrap();
            assert_eq!(status, 503);
        }
        assert!(conn.breaker_is_open());
        std::thread::sleep(Duration::from_millis(20));
        // The probe 503s: one failure re-opens the circuit (no need
        // to accumulate a fresh threshold's worth).
        let (status, _) = conn.get("/datasets").unwrap();
        assert_eq!(status, 503);
        assert!(conn.breaker_is_open(), "failed probe re-opens");
        drop(conn);
        let _ = TcpStream::connect(&authority);
        let _ = server.join();
    }

    #[test]
    fn retry_budget_caps_total_backoff_time() {
        // 50 attempts × ≥20ms jittered sleeps would take over a
        // second; a 150ms budget must cut it off long before that.
        let policy = RetryPolicy {
            attempts: 50,
            base_delay: Duration::from_millis(40),
            max_delay: Duration::from_millis(40),
            max_total_ms: Some(150),
            ..RetryPolicy::NONE
        };
        let start = Instant::now();
        let err = match Connection::open_with_retry("127.0.0.1:1", policy) {
            Ok(_) => panic!("port 1 must refuse connections"),
            Err(e) => e,
        };
        assert!(err.contains("retry budget of 150ms exhausted"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "budget must bound the wait, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn get_fails_over_to_the_next_endpoint_when_the_first_is_down() {
        let (live, server) = canned_server(vec![(200, None)]);
        let endpoints = vec!["127.0.0.1:1".to_string(), live.clone()];
        let mut conn = Connection::open_failover(&endpoints, RetryPolicy::NONE).unwrap();
        assert_eq!(
            conn.authority(),
            live,
            "initial connect must skip the dead endpoint"
        );
        let (status, _) = conn.get("/datasets").unwrap();
        assert_eq!(status, 200);
        let _ = server.join();
    }

    /// A one-connection server that 503s every request with a
    /// `Frost-Primary` hint naming `primary` — a replica's write
    /// rejection in miniature.
    fn hinting_replica(primary: String) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut buf = [0u8; 1024];
            if stream.read(&mut buf).unwrap_or(0) == 0 {
                return;
            }
            let body = "{}";
            let response = format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Length: {}\r\n\
                 Frost-Primary: {primary}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        });
        (authority, handle)
    }

    #[test]
    fn a_503_with_a_frost_primary_hint_repoints_the_connection() {
        let (primary, primary_srv) = canned_server(vec![(200, None)]);
        let (replica, replica_srv) = hinting_replica(primary.clone());
        let mut conn = Connection::open_with_retry(&replica, RetryPolicy::NONE).unwrap();
        // The write is declined, but the hint re-points the connection
        // at the primary — adopted into the list even though the
        // caller never configured it.
        let (status, _) = conn.post("/experiments", b"{}").unwrap();
        assert_eq!(status, 503);
        assert_eq!(conn.authority(), primary, "hint must become active");
        let (status, _) = conn.get("/datasets").unwrap();
        assert_eq!(status, 200, "the retry lands on the primary");
        let _ = primary_srv.join();
        let _ = replica_srv.join();
    }
}
