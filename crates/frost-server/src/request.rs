//! Request parsing: an incremental HTTP/1.1 head buffer that the
//! event loop feeds raw socket reads and drains complete requests
//! from.
//!
//! Reads may split a request head at any byte boundary, and one read
//! may carry several pipelined requests back-to-back; both land in
//! [`RequestBuffer`], which buffers and re-scans incrementally. A head
//! that can never become a valid request is a [`Parsed::Error`]: the
//! event loop answers it `400` and closes the connection.

use std::time::Instant;

/// Request head size cap.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Request body size cap (CSV imports).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request: the head plus (for `POST`/`DELETE`) its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path + query, undecoded).
    pub target: String,
    /// Whether the client wants the connection kept open afterwards:
    /// HTTP/1.1 unless `Connection: close`; HTTP/1.0 never (we do not
    /// implement 1.0-style opt-in keep-alive).
    pub keep_alive: bool,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// The `If-None-Match` header, verbatim, when present — drives
    /// `304 Not Modified` revalidation against cached entity tags.
    pub if_none_match: Option<String>,
    /// The request body (`content_length` bytes, filled in by
    /// [`RequestBuffer::next_request`] once fully buffered).
    pub body: Vec<u8>,
}

/// One step of incremental parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete request head was consumed from the buffer.
    Request(ParsedRequest),
    /// No complete head is buffered yet — read more bytes.
    Incomplete,
    /// The buffered bytes can never become a valid request; respond
    /// `400` (message attached) and close the connection.
    Error(&'static str),
}

/// An incremental HTTP/1.1 request-head buffer: bytes arrive in
/// arbitrary splits ([`extend`](Self::extend)), complete heads are
/// consumed in arrival order ([`next_request`](Self::next_request)) —
/// one read may carry a fraction of a head or several pipelined heads,
/// and both sides of that spectrum land in the same code path.
///
/// The scan for the head terminator resumes where the previous call
/// stopped, so re-parsing after a tiny read is `O(new bytes)`, not
/// `O(buffered bytes)`.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// Bytes before this offset were consumed by earlier requests.
    consumed: usize,
    /// Terminator scan position (always ≥ `consumed`).
    scan: usize,
    /// Head terminator already located for a request whose body has
    /// not fully arrived yet, so re-parsing after each body read is
    /// `O(1)`, not a rescan of the head.
    head_end: Option<usize>,
    /// Arrival timestamps keyed by buffer offset: `(start, when)`
    /// records that bytes at `start..` (up to the next entry) arrived
    /// at `when`. A pipelined request's deadline clocks from the
    /// arrival of *its own first byte*, not from whenever its
    /// predecessor's response finished writing.
    arrivals: std::collections::VecDeque<(usize, Instant)>,
    /// Arrival of the first byte of the most recently consumed head.
    last_arrival: Option<Instant>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.extend_at(bytes, Instant::now());
    }

    /// [`extend`](Self::extend) with an explicit arrival timestamp for
    /// the appended bytes.
    pub fn extend_at(&mut self, bytes: &[u8], arrived: Instant) {
        self.prune_arrivals();
        // Reclaim consumed space before growing: a long-lived
        // keep-alive connection must not accumulate every head it ever
        // parsed.
        if self.consumed > 0 && (self.consumed == self.buf.len() || self.consumed >= 4096) {
            self.buf.drain(..self.consumed);
            self.scan -= self.consumed;
            if let Some(e) = &mut self.head_end {
                *e -= self.consumed;
            }
            for (start, _) in &mut self.arrivals {
                *start = start.saturating_sub(self.consumed);
            }
            self.consumed = 0;
        }
        if !bytes.is_empty() {
            self.arrivals.push_back((self.buf.len(), arrived));
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Drops arrival entries wholly behind the consumed frontier,
    /// keeping the latest such entry as the floor for offsets between
    /// it and the next one.
    fn prune_arrivals(&mut self) {
        while self.arrivals.len() >= 2 && self.arrivals[1].0 <= self.consumed {
            self.arrivals.pop_front();
        }
    }

    /// Arrival time of the read that delivered the byte at `offset`.
    fn arrival_at(&self, offset: usize) -> Option<Instant> {
        self.arrivals
            .iter()
            .rev()
            .find(|(start, _)| *start <= offset)
            .map(|&(_, at)| at)
    }

    /// When the first *unconsumed* byte arrived (`None` when nothing
    /// is pending) — the deadline clock for a buffered pipelined head.
    pub fn pending_arrival(&self) -> Option<Instant> {
        if self.pending() == 0 {
            return None;
        }
        self.arrival_at(self.consumed)
    }

    /// When the first byte of the most recently consumed request
    /// arrived — its deadline clock.
    pub fn last_arrival(&self) -> Option<Instant> {
        self.last_arrival
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Tries to consume the next complete request (head, plus its body
    /// when a `Content-Length` is declared).
    pub fn next_request(&mut self) -> Parsed {
        let head_start = self.consumed;
        let end = match self.head_end {
            Some(e) => e,
            None => match self.find_head_end() {
                Some(e) => e,
                None => {
                    if self.pending() > MAX_REQUEST_BYTES {
                        return Parsed::Error("request head too large");
                    }
                    return Parsed::Incomplete;
                }
            },
        };
        if end - self.consumed > MAX_REQUEST_BYTES {
            return Parsed::Error("request head too large");
        }
        let head = &self.buf[self.consumed..end];
        let parsed = parse_head(head);
        if let Parsed::Request(mut request) = parsed {
            if request.content_length > MAX_BODY_BYTES {
                return Parsed::Error("request body too large");
            }
            let body_end = end + request.content_length;
            if self.buf.len() < body_end {
                // Remember the located head so the next call (after
                // more body bytes arrive) skips the terminator scan.
                self.head_end = Some(end);
                return Parsed::Incomplete;
            }
            request.body = self.buf[end..body_end].to_vec();
            self.head_end = None;
            self.last_arrival = self.arrival_at(head_start);
            self.consumed = body_end;
            self.scan = body_end;
            return Parsed::Request(request);
        }
        self.head_end = None;
        self.consumed = end;
        self.scan = end;
        parsed
    }

    /// Finds the exclusive end offset of the first complete head
    /// (`\r\n\r\n` or bare `\n\n`), resuming from the previous scan.
    fn find_head_end(&mut self) -> Option<usize> {
        // Back up over a possibly split terminator at the old read
        // boundary, but never into a previously consumed head.
        let from = self.scan.saturating_sub(3).max(self.consumed);
        for i in from..self.buf.len() {
            if self.buf[i] != b'\n' {
                continue;
            }
            if i > self.consumed && self.buf[i - 1] == b'\n' {
                return Some(i + 1);
            }
            if i >= self.consumed + 3
                && self.buf[i - 1] == b'\r'
                && self.buf[i - 2] == b'\n'
                && self.buf[i - 3] == b'\r'
            {
                return Some(i + 1);
            }
        }
        self.scan = self.buf.len();
        None
    }
}

/// Parses one complete request head (request line + headers, including
/// the trailing blank line).
fn parse_head(head: &[u8]) -> Parsed {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let Some(request_line) = lines.next().filter(|l| !l.trim().is_empty()) else {
        return Parsed::Error("empty request line");
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Parsed::Error("malformed request line");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Parsed::Error("unsupported protocol version");
    }
    let http10 = version == "HTTP/1.0";
    let mut keep_alive = !http10;
    let mut content_length = 0usize;
    let mut if_none_match = None;
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error("malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                // Token list; "close" wins over anything else.
                let tokens = value.split(',').map(|t| t.trim().to_ascii_lowercase());
                for token in tokens {
                    match token.as_str() {
                        "close" => keep_alive = false,
                        // 1.0-style opt-in keep-alive is not
                        // implemented: the response would need an
                        // explicit Connection: keep-alive echo the
                        // cached rendering does not carry.
                        "keep-alive" if http10 => keep_alive = false,
                        _ => {}
                    }
                }
            }
            "content-length" => match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return Parsed::Error("bad Content-Length"),
            },
            "transfer-encoding" => {
                return Parsed::Error("chunked request bodies are not supported");
            }
            "if-none-match" => if_none_match = Some(value.to_string()),
            _ => {}
        }
    }
    // Bodies belong to the write methods; a GET carrying one is
    // either a confused client or request smuggling — refuse it.
    if method == "GET" && content_length > 0 {
        return Parsed::Error("request bodies are not supported on GET");
    }
    Parsed::Request(ParsedRequest {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
        content_length,
        if_none_match,
        body: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Vec<Parsed> {
        let mut buffer = RequestBuffer::new();
        buffer.extend(bytes);
        let mut out = Vec::new();
        loop {
            match buffer.next_request() {
                Parsed::Incomplete => break,
                done @ Parsed::Error(_) => {
                    out.push(done);
                    break;
                }
                request => out.push(request),
            }
        }
        out
    }

    fn get_request(target: &str, keep_alive: bool) -> ParsedRequest {
        ParsedRequest {
            method: "GET".into(),
            target: target.into(),
            keep_alive,
            content_length: 0,
            if_none_match: None,
            body: Vec::new(),
        }
    }

    #[test]
    fn parses_single_and_pipelined_heads() {
        let got = parse_all(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(
            got,
            vec![
                Parsed::Request(get_request("/a", true)),
                Parsed::Request(get_request("/b", true)),
            ]
        );
    }

    #[test]
    fn post_bodies_are_consumed_and_split_safely() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            b"POST /experiments?dataset=d&name=n HTTP/1.1\r\nContent-Length: 12\r\n\r\nid1,",
        );
        // Head complete, body partial: not a request yet.
        assert_eq!(buffer.next_request(), Parsed::Incomplete);
        assert_eq!(
            buffer.next_request(),
            Parsed::Incomplete,
            "stable while waiting"
        );
        buffer.extend(b"id2\na,");
        assert_eq!(buffer.next_request(), Parsed::Incomplete);
        // Final body bytes plus a pipelined GET behind them.
        buffer.extend(b"b\nGET /datasets HTTP/1.1\r\n\r\n");
        let Parsed::Request(post) = buffer.next_request() else {
            panic!("complete POST must parse")
        };
        assert_eq!(post.method, "POST");
        assert_eq!(post.content_length, 12);
        assert_eq!(post.body, b"id1,id2\na,b\n".to_vec());
        let Parsed::Request(get) = buffer.next_request() else {
            panic!("pipelined GET must parse")
        };
        assert_eq!(get.target, "/datasets");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            format!(
                "POST /experiments HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert!(matches!(buffer.next_request(), Parsed::Error(_)));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let close = parse_all(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
        assert_eq!(close, vec![Parsed::Request(get_request("/", false))]);
        let old = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(matches!(
            &old[0],
            Parsed::Request(r) if !r.keep_alive
        ));
        let old_ka = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(
            matches!(&old_ka[0], Parsed::Request(r) if !r.keep_alive),
            "1.0 opt-in keep-alive is not implemented and must close"
        );
    }

    #[test]
    fn bare_lf_terminators_parse() {
        let got = parse_all(b"GET /x HTTP/1.1\nHost: y\n\n");
        assert!(matches!(&got[0], Parsed::Request(r) if r.target == "/x"));
    }

    #[test]
    fn malformed_heads_are_errors() {
        assert!(matches!(parse_all(b"GARBAGE\r\n\r\n")[0], Parsed::Error(_)));
        assert!(matches!(parse_all(b"\r\n\r\n")[0], Parsed::Error(_)));
        assert!(matches!(
            parse_all(b"GET / SPDY/3\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")[0],
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")[0],
            Parsed::Error(_)
        ));
    }

    #[test]
    fn oversized_head_is_rejected_before_completion() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(b"GET /");
        buffer.extend(&vec![b'a'; MAX_REQUEST_BYTES + 1]);
        assert!(matches!(buffer.next_request(), Parsed::Error(_)));
    }

    #[test]
    fn buffer_compacts_consumed_heads() {
        let mut buffer = RequestBuffer::new();
        let request = b"GET /loop HTTP/1.1\r\n\r\n";
        for _ in 0..1_000 {
            buffer.extend(request);
            assert!(matches!(buffer.next_request(), Parsed::Request(_)));
        }
        assert!(
            buffer.buf.capacity() < 64 * 1024,
            "buffer must not grow with served request count (capacity {})",
            buffer.buf.capacity()
        );
    }
}
