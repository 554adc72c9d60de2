//! The readiness-based connection multiplexer: a small number of
//! event threads own *every* connection's socket (non-blocking), and
//! the worker pool only ever sees complete parsed requests that the
//! response cache could not answer.
//!
//! Each event loop polls its connections with the vendored
//! [`polling`] shim and assembles request heads incrementally with
//! [`RequestBuffer`]. A complete cacheable `GET` is probed once, right
//! here ([`route::serve_hit`]): a response-tier hit is written back on
//! the spot — no queue slot, no worker, no wake-up round trip. Every
//! other [`ParsedRequest`] (a miss, a bad parameter, a non-GET,
//! anything during a drain) goes with its
//! absolute deadline to the shared dispatch queue. The worker's
//! verdict comes back as a [`Completion`] through the loop's
//! [`Waker`], and the loop writes the response under write-readiness
//! — so 10k mostly-idle keep-alive connections cost file descriptors,
//! not threads.
//!
//! Ordering: a connection has at most one request in flight — while
//! it is [`Phase::Dispatched`] its socket is not polled for reads, so
//! pipelined successors wait buffered (in the parser or the kernel)
//! and responses go out strictly in request order. Pipelined hits are
//! answered in a loop, each once its predecessor is in the socket.
//!
//! Overload semantics are the worker-pool contract, relocated:
//!
//! * the *parse-time* deadline check runs before anything else —
//!   including the 405 method check and the cache probe — so a request
//!   past expiry is never evaluated (and never answered per-method);
//! * a hit is counted as admitted but takes no queue slot, so a full
//!   dispatch queue never sheds it;
//! * a full dispatch queue sheds a miss with the canned queue-full
//!   `503`;
//! * mid-head timers race the head timeout (`400`, a protocol fault)
//!   against the request deadline (`503`, an overload signal), head
//!   timeout first on ties;
//! * sheds written before the request bytes were drained half-close
//!   and linger (`Phase::Lingering`) so the `503` survives the unread
//!   bytes instead of being RST-destroyed.
//!
//! Loop 0 also owns the listening socket: it polls it beside its
//! waker, accepts a bounded batch per readiness event, and deals the
//! connections round-robin through every loop's mailbox (its own
//! included). Adoption is the admission pre-screen: while the server
//! drains, or while the dispatch queue is full, a new connection is
//! answered with the canned `503` and lingers before a byte of it is
//! read — the same non-blocking path as every other shed, so a client
//! that never reads its reject stalls nobody.

use crate::http::{ServeOptions, ServerState};
use crate::overload::ShedReason;
use crate::request::{Parsed, ParsedRequest, RequestBuffer};
use crate::response::{close_variant_bytes, error_body, json_response, shed_bytes, CachedResponse};
use crate::route::{self, Endpoint, Route};
use crate::telemetry::{OpenConnGuard, Stage, Trace};
use polling::{PollFd, Source, Waker, POLLIN, POLLOUT};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a lingering (half-closed) shed connection is drained
/// before the socket is dropped: a well-behaved client reads its `503`
/// and closes within a round trip, and one that never does costs a
/// poll slot for this long, not a stalled loop.
const LINGER_MS: u64 = 150;

/// Connections loop 0 accepts per listener readiness event; the rest
/// wait in the kernel backlog for the next poll round (level-triggered
/// poll re-fires), so an accept flood cannot starve live connections.
const ACCEPT_BATCH: usize = 64;

/// Per-readiness-event read budget: one ready connection may consume
/// at most this many bytes per poll round, so a flooding client
/// cannot starve its loop-mates (level-triggered poll re-fires).
const READ_BUDGET: usize = 64 * 1024;

/// How long a draining loop waits for in-flight work to resolve
/// before cutting the stragglers.
const DRAIN_CAP: Duration = Duration::from_secs(5);

/// A complete parsed request queued for the worker pool, stamped with
/// its route, its absolute deadline and its return address (loop,
/// slot, generation).
pub(crate) struct Work {
    pub request: ParsedRequest,
    pub route: Route,
    pub deadline: Option<Instant>,
    pub loop_id: usize,
    pub token: usize,
    pub generation: u64,
    /// The request's lifecycle trace, riding along to be stamped by
    /// the worker (`None` when telemetry is disabled).
    pub trace: Option<Box<Trace>>,
}

/// A worker's verdict on one request.
pub(crate) enum Done {
    Response(CachedResponse),
    Shed(ShedReason),
    Panicked,
}

/// A [`Done`] routed back to the connection that asked.
pub(crate) struct Completion {
    pub token: usize,
    pub generation: u64,
    pub done: Done,
    /// The trace from the [`Work`], coming home to be finished when
    /// the response's last byte goes out.
    pub trace: Option<Box<Trace>>,
}

/// The mailbox half of one event loop: loop 0 pushes the connections
/// it accepts (into its own mailbox too), workers push completions,
/// shutdown pushes flags — every push wakes the loop out of its poll.
pub(crate) struct LoopShared {
    incoming: Mutex<Vec<(TcpStream, Instant)>>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    drain: AtomicBool,
    kill: AtomicBool,
}

impl LoopShared {
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            drain: AtomicBool::new(false),
            kill: AtomicBool::new(false),
        })
    }

    /// Hands a freshly accepted connection to this loop.
    pub fn adopt(&self, stream: TcpStream, admitted: Instant) {
        self.incoming
            .lock()
            .expect("event loop incoming lock")
            .push((stream, admitted));
        self.waker.wake();
    }

    /// Routes a worker's verdict back to this loop.
    pub fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("event loop completion lock")
            .push(completion);
        self.waker.wake();
    }

    /// Graceful: finish in-flight requests, close idle connections,
    /// then exit (dropping the loop's queue sender). Sent to loop 0,
    /// which drops its listener and passes the drain on to every loop.
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Hard stop: drop every connection and exit now.
    pub fn kill(&self) {
        self.kill.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// Loop 0's listening socket (non-blocking) and the loops it deals
/// new connections to.
pub(crate) struct Acceptor {
    pub listener: TcpListener,
    pub loops: Arc<[Arc<LoopShared>]>,
    /// The round-robin cursor.
    pub next: usize,
}

impl Acceptor {
    /// Accepts up to [`ACCEPT_BATCH`] pending connections, counts each,
    /// and hands them round-robin to the loops' mailboxes.
    fn accept_batch(&mut self, state: &ServerState) {
        for _ in 0..ACCEPT_BATCH {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    state.note_connection();
                    self.loops[self.next % self.loops.len()].adopt(stream, Instant::now());
                    self.next = self.next.wrapping_add(1);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // backlog empty (or a transient accept error)
            }
        }
    }
}

/// What a connection is waiting for.
enum Phase {
    /// Poll for readability; assemble the next request head.
    Reading,
    /// One request is with the worker pool; the socket is unpolled
    /// (backpressure: pipelined successors wait their turn).
    Dispatched,
    /// Poll for writability; flush `out`, then do `After`.
    Writing(After),
    /// Response written and send side half-closed; drain reads until
    /// the client closes or the linger deadline cuts it.
    Lingering(Instant),
}

/// What happens once the in-progress write completes.
#[derive(Clone, Copy)]
enum After {
    KeepAlive,
    Close,
    /// Half-close and drain: the response must survive unread request
    /// bytes in the socket (see [`Phase::Lingering`]).
    Linger,
}

/// The bytes being written: shared cached responses avoid a copy on
/// the hot path.
enum OutBuf {
    Empty,
    Shared(Arc<[u8]>),
    Owned(Vec<u8>),
    Canned(&'static [u8]),
}

impl OutBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutBuf::Empty => &[],
            OutBuf::Shared(b) => b,
            OutBuf::Owned(b) => b,
            OutBuf::Canned(b) => b,
        }
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Guards stale completions after this slot is reused.
    generation: u64,
    parser: RequestBuffer,
    phase: Phase,
    out: OutBuf,
    out_pos: usize,
    /// Responses served (the `max_requests` clock).
    served: usize,
    /// The first request's deadline clock: admission time, so queue
    /// wait at accept counts. Cleared once the first request parses;
    /// later requests clock from their first buffered byte.
    first_clock: Option<Instant>,
    /// The in-flight response must be the connection's last.
    pending_close: bool,
    idle_since: Instant,
    /// First byte of the currently assembling request head: the
    /// whole-head (slow-loris) deadline.
    head_started: Option<Instant>,
    write_since: Instant,
    /// The client half-closed its send side.
    eof: bool,
    /// The trace of the response currently being written (taken and
    /// finished when its last byte enters the socket).
    trace: Option<Box<Trace>>,
    /// Holds the `open_connections` gauge up for this connection's
    /// lifetime — every exit path drops the `Conn` and with it this.
    _open: OpenConnGuard,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, admitted: Instant, open: OpenConnGuard) -> Self {
        Self {
            stream,
            generation,
            parser: RequestBuffer::new(),
            phase: Phase::Reading,
            out: OutBuf::Empty,
            out_pos: 0,
            served: 0,
            first_clock: Some(admitted),
            pending_close: false,
            idle_since: Instant::now(),
            head_started: None,
            write_since: Instant::now(),
            eof: false,
            trace: None,
            _open: open,
        }
    }
}

/// Everything the per-connection state machine needs from its loop.
struct LoopEnv<'a> {
    loop_id: usize,
    tx: &'a Sender<Work>,
    state: &'a ServerState,
    options: &'a ServeOptions,
}

/// The event loop body: one per `--event-threads`, run on its own
/// thread by `serve_with` until shut down. Loop 0 gets the `acceptor`.
pub(crate) fn run(
    loop_id: usize,
    shared: Arc<LoopShared>,
    mut acceptor: Option<Acceptor>,
    tx: Sender<Work>,
    state: Arc<ServerState>,
    options: ServeOptions,
) {
    let env = LoopEnv {
        loop_id,
        tx: &tx,
        state: &state,
        options: &options,
    };
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut generation: u64 = 0;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();
    let mut drain_since: Option<Instant> = None;
    loop {
        if shared.kill.load(Ordering::Acquire) {
            return;
        }
        // Adopt fresh connections.
        let fresh: Vec<(TcpStream, Instant)> = {
            let mut incoming = shared.incoming.lock().expect("event loop incoming lock");
            std::mem::take(&mut *incoming)
        };
        // Events handled this wake (adoptions + verdicts + readiness
        // firings): the dispatch-batch histogram.
        let mut batch = fresh.len();
        for (stream, admitted) in fresh {
            // Nagle off (responses are single whole writes) and
            // non-blocking (the whole point); a socket that refuses
            // either is already dead.
            if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = match conns.iter().position(Option::is_none) {
                Some(i) => i,
                None => {
                    conns.push(None);
                    conns.len() - 1
                }
            };
            generation += 1;
            let open = OpenConnGuard::new(state.telemetry());
            let mut conn = Conn::new(stream, generation, admitted, open);
            // The admission pre-screen, before any byte is read: a
            // draining server or a full dispatch queue answers the
            // canned 503 — no parsing, no evaluation, no worker time.
            let shed = if state.is_draining() {
                Some(ShedReason::Draining)
            } else {
                let full = state.overload().queue_depth() >= options.max_queued.max(1) as u64;
                full.then_some(ShedReason::QueueFull)
            };
            if let Some(reason) = shed {
                if !write_shed(&mut conn, token, &env, reason, After::Linger) {
                    continue;
                }
            }
            conns[token] = Some(conn);
        }
        // Apply worker verdicts.
        let done: Vec<Completion> = {
            let mut completions = shared
                .completions
                .lock()
                .expect("event loop completion lock");
            std::mem::take(&mut *completions)
        };
        batch += done.len();
        for completion in done {
            let token = completion.token;
            let keep = match conns.get_mut(token).and_then(Option::as_mut) {
                Some(conn) if conn.generation == completion.generation => {
                    conn.trace = completion.trace;
                    apply_completion(conn, token, &env, completion.done)
                }
                _ => continue, // slot reused or closed: stale verdict
            };
            if !keep {
                conns[token] = None;
            }
        }
        // Graceful drain: idle connections close now; dispatched and
        // writing ones finish (workers stay alive until every loop
        // has exited, so their completions still arrive).
        if shared.drain.load(Ordering::Acquire) {
            // Stop accepting, then pass the drain on: every connection
            // loop 0 accepted is in a mailbox by now, so no loop exits
            // with one unadopted.
            if let Some(acceptor) = acceptor.take() {
                for other in acceptor.loops.iter() {
                    other.begin_drain();
                }
            }
            let now = Instant::now();
            let since = *drain_since.get_or_insert(now);
            for slot in conns.iter_mut() {
                if matches!(slot.as_ref().map(|c| &c.phase), Some(Phase::Reading)) {
                    *slot = None;
                }
            }
            let active = conns.iter().any(Option::is_some);
            let mailbox_empty = shared.incoming.lock().expect("lock").is_empty()
                && shared.completions.lock().expect("lock").is_empty();
            if (!active && mailbox_empty) || now.duration_since(since) > DRAIN_CAP {
                return;
            }
        }
        // Register interest + find the nearest timer.
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        tokens.push(usize::MAX);
        if let Some(acceptor) = &acceptor {
            fds.push(PollFd::new(acceptor.listener.raw_fd(), POLLIN));
            tokens.push(usize::MAX);
        }
        let mut next_deadline: Option<Instant> = None;
        for (token, slot) in conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let interest = match conn.phase {
                Phase::Reading => Some(POLLIN),
                Phase::Dispatched => None,
                Phase::Writing(_) => Some(POLLOUT),
                Phase::Lingering(_) => Some(POLLIN),
            };
            if let Some(events) = interest {
                fds.push(PollFd::new(conn.stream.raw_fd(), events));
                tokens.push(token);
            }
            if let Some(deadline) = conn_deadline(conn, &options) {
                next_deadline = Some(match next_deadline {
                    Some(d) => d.min(deadline),
                    None => deadline,
                });
            }
        }
        let timeout = next_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        // On targets without poll(2) this degrades to a 1 ms tick that
        // treats every registered socket as ready — harmless, because
        // the sockets are non-blocking.
        let telemetry_on = state.telemetry().enabled();
        let poll_started = telemetry_on.then(Instant::now);
        let all_ready = polling::poll(&mut fds, timeout).is_err();
        if let Some(started) = poll_started {
            state.telemetry().note_poll_dwell(started.elapsed());
        }
        if all_ready {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.waker.drain();
        // Accept: the connections land in the mailboxes and are adopted
        // (and counted in the batch) on the next wake.
        if let Some(acceptor) = acceptor.as_mut() {
            if all_ready || fds[1].readable() {
                acceptor.accept_batch(&state);
            }
        }
        // Serve readiness.
        for (i, fd) in fds.iter().enumerate().skip(1) {
            let token = tokens[i];
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let keep = match conn.phase {
                Phase::Reading if all_ready || fd.readable() => {
                    batch += 1;
                    on_readable(conn, token, &env)
                }
                Phase::Writing(_) if all_ready || fd.writable() => {
                    batch += 1;
                    drive_write(conn, token, &env)
                }
                Phase::Lingering(_) if all_ready || fd.readable() => {
                    batch += 1;
                    drain_linger(conn)
                }
                _ => true,
            };
            if !keep {
                conns[token] = None;
            }
        }
        if telemetry_on && batch > 0 {
            state.telemetry().note_dispatch_batch(batch as u64);
        }
        // Fire timers.
        let now = Instant::now();
        for (token, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            if !sweep_timer(conn, token, &env, now) {
                *slot = None;
            }
        }
    }
}

/// The per-connection timer: when it fires, what happens is decided
/// by the phase (and, mid-head, by which clock ran out).
fn conn_deadline(conn: &Conn, options: &ServeOptions) -> Option<Instant> {
    match conn.phase {
        Phase::Reading => {
            if conn.parser.pending() > 0 {
                let head = conn.head_started.map(|s| s + options.idle_timeout);
                let request = options.request_deadline.map(|limit| {
                    let clock = conn
                        .first_clock
                        .or_else(|| conn.parser.pending_arrival())
                        .unwrap_or_else(Instant::now);
                    clock + limit
                });
                match (head, request) {
                    (Some(h), Some(r)) => Some(h.min(r)),
                    (h, r) => h.or(r),
                }
            } else {
                Some(conn.idle_since + options.idle_timeout)
            }
        }
        Phase::Dispatched => None,
        Phase::Writing(_) => Some(conn.write_since + options.idle_timeout),
        Phase::Lingering(until) => Some(until),
    }
}

/// Fires an expired connection timer. Returns whether the connection
/// survives.
fn sweep_timer(conn: &mut Conn, token: usize, env: &LoopEnv, now: Instant) -> bool {
    let Some(deadline) = conn_deadline(conn, env.options) else {
        return true;
    };
    if now < deadline {
        return true;
    }
    match conn.phase {
        Phase::Reading if conn.parser.pending() > 0 => {
            // The head timeout is a protocol fault (400) and wins
            // ties; the request deadline is an overload signal (503
            // shed) and lingers so the reject survives the unread
            // request bytes.
            let head_expired = conn
                .head_started
                .is_some_and(|s| now >= s + env.options.idle_timeout);
            if head_expired {
                let payload = json_response(400, error_body("request head timeout"));
                start_response(conn, token, env, &payload, After::Close)
            } else {
                write_shed(conn, token, env, ShedReason::Deadline, After::Linger)
            }
        }
        Phase::Reading => false,      // idle timeout: silent close
        Phase::Writing(_) => false,   // client stopped reading
        Phase::Lingering(_) => false, // linger deadline
        Phase::Dispatched => true,
    }
}

/// Reads everything available (bounded per round), then resumes the
/// parse. Returns whether the connection survives.
fn on_readable(conn: &mut Conn, token: usize, env: &LoopEnv) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut budget = READ_BUDGET;
    while budget > 0 {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.parser.extend_at(&chunk[..n], Instant::now());
                budget = budget.saturating_sub(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    process_buffer(conn, token, env)
}

/// Drives the parser over the buffered bytes. Response-tier hits are
/// answered inline, one after another while each drains straight into
/// the socket (a loop, not recursion: a client may pipeline thousands
/// of them into one read). Anything else dispatches at most one
/// request (order is preserved by the one-in-flight rule) or settles
/// into `Reading`. Returns whether the connection survives.
fn process_buffer(conn: &mut Conn, token: usize, env: &LoopEnv) -> bool {
    loop {
        let hit = match conn.parser.next_request() {
            Parsed::Request(request) => match admit(conn, token, env, request) {
                Admitted::Hit(payload) => payload,
                Admitted::Settled(keep) => return keep,
            },
            Parsed::Error(message) => {
                // One diagnostic, then close: the byte stream is not
                // trustworthy beyond this point.
                if env.state.telemetry().enabled() {
                    let trace = Trace::begin("", "", Endpoint::Other, Instant::now());
                    trace.set_status(400);
                    conn.trace = Some(trace);
                }
                let payload = json_response(400, error_body(message));
                return start_response(conn, token, env, &payload, After::Close);
            }
            Parsed::Incomplete => {
                if conn.parser.pending() > 0 {
                    if conn.eof {
                        return false; // half-closed mid-head: unfinishable
                    }
                    if conn.head_started.is_none() {
                        conn.head_started = conn
                            .parser
                            .pending_arrival()
                            .or_else(|| Some(Instant::now()));
                    }
                } else {
                    conn.head_started = None;
                    conn.idle_since = Instant::now();
                    if conn.eof {
                        return false; // clean close between requests
                    }
                }
                conn.phase = Phase::Reading;
                return true;
            }
        };
        let after = if conn.pending_close {
            After::Close
        } else {
            After::KeepAlive
        };
        queue_write(conn, response_out(&hit, after), after);
        match flush(conn, env) {
            Flushed::Idle => continue,
            Flushed::Blocked => return true,
            Flushed::Closed => return false,
        }
    }
}

/// What [`admit`] made of one parsed request.
enum Admitted {
    /// A response-tier hit, for the caller to write.
    Hit(CachedResponse),
    /// Answered, shed or dispatched: whether the connection survives.
    Settled(bool),
}

/// Admits one parsed request: the deadline and method checks, then the
/// response-tier probe, and on a miss the hand-off to the workers.
fn admit(conn: &mut Conn, token: usize, env: &LoopEnv, request: ParsedRequest) -> Admitted {
    conn.head_started = None;
    conn.served += 1;
    // Deadline clock: admission for the first request (queue wait
    // counts), the head's first *buffered* byte for later pipelined
    // ones — a successor that sat buffered behind its predecessor's
    // response has been waiting all along.
    let clock = conn
        .first_clock
        .take()
        .or_else(|| conn.parser.last_arrival())
        .unwrap_or_else(Instant::now);
    let deadline = env.options.request_deadline.map(|limit| clock + limit);
    // The one routing decision: the probe and the worker answer from
    // it and the trace is labelled with it.
    let route = route::resolve(&request.method, &request.target);
    // The trace's `accepted` stamp is the same clock the deadline runs
    // on, so queue wait is visible in it.
    let trace = env.state.telemetry().enabled().then(|| {
        let trace = Trace::begin(&request.method, &request.target, route.endpoint(), clock);
        trace.stamp(Stage::HeadComplete);
        trace
    });
    // The admission contract outranks everything, including method
    // validation: a request past its deadline is never evaluated — not
    // even to a 405.
    if deadline.is_some_and(|d| Instant::now() > d) {
        conn.trace = trace;
        return Admitted::Settled(write_shed(
            conn,
            token,
            env,
            ShedReason::Deadline,
            After::Close,
        ));
    }
    if !matches!(request.method.as_str(), "GET" | "POST" | "DELETE") {
        env.state.overload().note_method_not_allowed();
        if let Some(trace) = &trace {
            trace.set_status(405);
        }
        conn.trace = trace;
        let payload = json_response(405, error_body("only GET, POST and DELETE are supported"));
        return Admitted::Settled(start_response(conn, token, env, &payload, After::Close));
    }
    conn.pending_close =
        !request.keep_alive || conn.served >= env.options.max_requests || env.state.is_draining();
    if let Some(trace) = &trace {
        trace.stamp(Stage::Admitted);
    }
    if let Some(hit) = route::serve_hit(&route, &request, env.state, trace.as_deref()) {
        conn.trace = trace;
        return Admitted::Hit(hit);
    }
    // Reserve the queue slot and count the admission before the
    // hand-off: a worker may dequeue and answer (even a `/stats`
    // reporting the count) before `send` returns here. The reservation
    // is the queue's one bound; the channel itself is unbounded.
    if !env.state.overload().try_enqueue(env.options.max_queued) {
        conn.trace = trace;
        return Admitted::Settled(write_shed(
            conn,
            token,
            env,
            ShedReason::QueueFull,
            After::Linger,
        ));
    }
    env.state.overload().note_admitted();
    conn.phase = Phase::Dispatched;
    // Workers exit only after every loop has dropped its sender, so
    // this cannot fail while the loop runs.
    let sent = env.tx.send(Work {
        request,
        route,
        deadline,
        loop_id: env.loop_id,
        token,
        generation: conn.generation,
        trace,
    });
    Admitted::Settled(sent.is_ok())
}

/// A worker verdict lands: write the response (or the shed) back.
fn apply_completion(conn: &mut Conn, token: usize, env: &LoopEnv, done: Done) -> bool {
    match done {
        Done::Response(payload) => {
            let close = conn.pending_close || env.state.is_draining();
            let after = if close {
                After::Close
            } else {
                After::KeepAlive
            };
            start_response(conn, token, env, &payload, after)
        }
        Done::Shed(reason) => write_shed(conn, token, env, reason, After::Close),
        Done::Panicked => {
            let payload =
                json_response(500, error_body("internal error: request handler panicked"));
            start_response(conn, token, env, &payload, After::Close)
        }
    }
}

/// Queues `payload` for writing and attempts the write immediately —
/// the common case drains the whole response into the socket buffer
/// without another poll.
fn start_response(
    conn: &mut Conn,
    token: usize,
    env: &LoopEnv,
    payload: &CachedResponse,
    after: After,
) -> bool {
    queue_write(conn, response_out(payload, after), after);
    drive_write(conn, token, env)
}

/// The bytes `payload` goes out as: the keep-alive form shares the
/// cached bytes, the closing form re-frames the head (keeping the
/// `ETag`).
fn response_out(payload: &CachedResponse, after: After) -> OutBuf {
    match after {
        After::KeepAlive => OutBuf::Shared(payload.shared_bytes()),
        After::Close | After::Linger => OutBuf::Owned(close_variant_bytes(payload)),
    }
}

/// The one shed path, whichever side decided it (admission, a timer,
/// or a worker's verdict): count the reason, mark the connection's
/// trace `503`, and write the pre-serialized canned response.
fn write_shed(
    conn: &mut Conn,
    token: usize,
    env: &LoopEnv,
    reason: ShedReason,
    after: After,
) -> bool {
    env.state.overload().shed(reason, conn.trace.as_deref());
    queue_write(conn, OutBuf::Canned(shed_bytes(reason)), after);
    drive_write(conn, token, env)
}

fn queue_write(conn: &mut Conn, out: OutBuf, after: After) {
    conn.out = out;
    conn.out_pos = 0;
    conn.write_since = Instant::now();
    conn.phase = Phase::Writing(after);
}

/// Where a [`flush`] left the connection.
enum Flushed {
    /// The socket is full (or the response lingers): wait for a poll.
    Blocked,
    /// Keep-alive response written: back to `Reading`, and the parser
    /// may already hold the next request.
    Idle,
    /// Closed, or the socket failed.
    Closed,
}

/// Writes as much of `out` as the socket accepts, then resumes
/// reading: keep-alive re-enters the parser (a buffered pipelined
/// successor is served without waiting for another poll). Returns
/// whether the connection survives.
fn drive_write(conn: &mut Conn, token: usize, env: &LoopEnv) -> bool {
    match flush(conn, env) {
        Flushed::Blocked => true,
        Flushed::Idle => process_buffer(conn, token, env),
        Flushed::Closed => false,
    }
}

/// Writes as much of `out` as the socket accepts. On completion the
/// `After` decides: keep-alive goes back to `Reading`, close drops the
/// socket, linger half-closes and drains.
fn flush(conn: &mut Conn, env: &LoopEnv) -> Flushed {
    let Phase::Writing(after) = conn.phase else {
        return Flushed::Blocked;
    };
    loop {
        let len = conn.out.as_slice().len();
        if conn.out_pos >= len {
            break;
        }
        let n = {
            let buf = conn.out.as_slice();
            conn.stream.write(&buf[conn.out_pos..])
        };
        match n {
            Ok(0) => return Flushed::Closed,
            Ok(n) => {
                if conn.out_pos == 0 {
                    if let Some(trace) = &conn.trace {
                        trace.stamp(Stage::FirstByte);
                    }
                }
                conn.out_pos += n;
                conn.write_since = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flushed::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Flushed::Closed,
        }
    }
    conn.out = OutBuf::Empty;
    conn.out_pos = 0;
    // The whole response is in the socket buffer: finish the trace
    // (stamps are first-wins, so `first_byte` keeps its earlier stamp
    // when the response needed more than one write).
    if let Some(trace) = conn.trace.take() {
        let now = Instant::now();
        trace.stamp_at(Stage::FirstByte, now);
        trace.stamp_at(Stage::LastByte, now);
        env.state.telemetry().finish(trace);
    }
    match after {
        After::KeepAlive => {
            conn.phase = Phase::Reading;
            conn.idle_since = Instant::now();
            Flushed::Idle
        }
        After::Close => Flushed::Closed,
        After::Linger => {
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.phase = Phase::Lingering(Instant::now() + Duration::from_millis(LINGER_MS));
            Flushed::Blocked
        }
    }
}

/// Discards whatever the lingering client still sends; the connection
/// ends when the client closes (or the linger timer fires).
fn drain_linger(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 4096];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}
