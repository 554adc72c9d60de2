//! Response encoding: the one place a response head is rendered.
//!
//! Every answer the server writes is a [`CachedResponse`] framed by
//! `encode` in its keep-alive form, or re-framed by
//! `close_variant_bytes` with `Connection: close` for the last
//! response on a connection. Cacheable `200`s carry a content-derived
//! strong `ETag` (`entity_tag`), and `revalidate` turns a matching
//! `If-None-Match` into a bodyless `304`. The four canned sheds are
//! the same encoder's output, rendered once (`shed_bytes`).

use crate::overload::{ShedReason, RETRY_AFTER_SECS};
use crate::request::ParsedRequest;
use frost_storage::cache::CacheWeight;
use serde_json::Value;
use std::sync::{Arc, OnceLock};

/// The default response content type (every JSON endpoint).
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";

/// The Prometheus text exposition format version `/metrics` serves.
pub(crate) const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// The replication stream content type (`/replication/wal` and
/// `/replication/snapshot` bodies are binary: preamble + raw bytes).
pub(crate) const CONTENT_TYPE_BINARY: &str = "application/octet-stream";

/// A fully serialized HTTP response: the keep-alive rendering (status
/// line + headers + body, no `Connection` header — HTTP/1.1 defaults
/// to persistent) plus the offset where the body starts, so the
/// closing variant can reuse the body bytes without re-rendering.
#[derive(Clone)]
pub struct CachedResponse {
    status: u16,
    bytes: Arc<[u8]>,
    body_start: usize,
    /// The `Content-Type` this response was framed with — the closing
    /// variant re-frames the head and must preserve it.
    pub(crate) content_type: &'static str,
    /// Strong validator (quoted FNV-1a of the body), present only on
    /// cached `200`s — the revalidation (`If-None-Match` → `304`)
    /// surface.
    etag: Option<Arc<str>>,
    /// Extra pre-rendered header lines (`Name: value\r\n`), carried so
    /// the closing variant re-emits them — the replica's
    /// `Frost-Primary` redirect hint rides here.
    extra: Option<Arc<str>>,
}

impl CachedResponse {
    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The serialized keep-alive response.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The serialized keep-alive response, by shared handle (the
    /// event loop queues it for writing without a copy).
    pub(crate) fn shared_bytes(&self) -> Arc<[u8]> {
        Arc::clone(&self.bytes)
    }

    /// The response body (shared with [`bytes`](Self::bytes)).
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_start..]
    }

    /// The entity tag, when this response carries one.
    pub fn etag(&self) -> Option<&str> {
        self.etag.as_deref()
    }
}

impl CacheWeight for CachedResponse {
    fn weight(&self) -> usize {
        self.bytes.len()
    }
}

/// Frames `body` behind the one response head both framings share:
/// status line, `Content-Type`, `Content-Length`, then the `ETag` and
/// any extra pre-rendered header lines when given. The closing variant
/// only adds `Connection: close` (HTTP/1.1 defaults to persistent, so
/// the keep-alive form carries none).
fn frame(
    status: u16,
    content_type: &str,
    etag: Option<&str>,
    extra: Option<&str>,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let etag = etag
        .map(|tag| format!("ETag: {tag}\r\n"))
        .unwrap_or_default();
    let extra = extra.unwrap_or("");
    let connection = if close { "Connection: close\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{etag}{extra}{connection}\r\n",
        body.len()
    );
    let mut bytes = Vec::with_capacity(head.len() + body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// The one response encoder: frames `body` in its keep-alive form.
/// `extra` carries pre-rendered header lines (`Name: value\r\n`),
/// such as a replica write rejection's `Frost-Primary` hint.
/// [`close_variant_bytes`] re-frames the same fields with
/// `Connection: close`.
pub(crate) fn encode(
    status: u16,
    body: impl AsRef<[u8]>,
    content_type: &'static str,
    etag: Option<Arc<str>>,
    extra: Option<Arc<str>>,
) -> CachedResponse {
    let body = body.as_ref();
    let bytes = frame(
        status,
        content_type,
        etag.as_deref(),
        extra.as_deref(),
        body,
        false,
    );
    CachedResponse {
        status,
        body_start: bytes.len() - body.len(),
        bytes: bytes.into(),
        content_type,
        etag,
        extra,
    }
}

/// The strong entity tag of a cacheable body: its quoted FNV-1a 64-bit
/// hash — cheap, dependency-free, and stable across runs, which is all
/// an entity tag needs.
pub(crate) fn entity_tag(body: &[u8]) -> Arc<str> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("\"{hash:016x}\"").into()
}

/// Re-frames a response with `Connection: close`, sharing nothing —
/// used for the final response on a closing connection.
pub(crate) fn close_variant_bytes(payload: &CachedResponse) -> Vec<u8> {
    frame(
        payload.status,
        payload.content_type,
        payload.etag(),
        payload.extra.as_deref(),
        payload.body(),
        true,
    )
}

/// The `{"error": message}` body every error response carries.
pub(crate) fn error_body(message: &str) -> String {
    serde_json::to_string(&Value::object([(
        "error".to_string(),
        Value::from(message),
    )]))
}

/// An untagged JSON response: every API answer that is not a cached
/// read, and every error the server writes.
pub(crate) fn json_response(status: u16, body: impl AsRef<[u8]>) -> CachedResponse {
    encode(status, body, CONTENT_TYPE_JSON, None, None)
}

/// `ETag` revalidation on the response cache: when a `200` carries
/// an entity tag and the request's `If-None-Match` matches it, the
/// body is replaced by a `304 Not Modified` — the client's cached copy
/// is current, so only headers go over the wire.
pub(crate) fn revalidate(payload: CachedResponse, request: &ParsedRequest) -> CachedResponse {
    let (Some(etag), Some(candidates)) =
        (payload.etag.as_deref(), request.if_none_match.as_deref())
    else {
        return payload;
    };
    if payload.status == 200 && etag_matches(candidates, etag) {
        // Bodyless (`Content-Length: 0` keeps the in-repo client's
        // framing exact), echoing the tag it validated.
        encode(304, [], CONTENT_TYPE_JSON, Some(etag.into()), None)
    } else {
        payload
    }
}

/// Whether an `If-None-Match` header value matches `etag`: a
/// comma-separated list of (possibly `W/`-prefixed) quoted tags, or
/// `*`. Weak comparison — revalidation only decides whether bytes
/// must be resent.
fn etag_matches(candidates: &str, etag: &str) -> bool {
    candidates.split(',').any(|candidate| {
        let candidate = candidate.trim();
        candidate == "*" || candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

/// The canned shed response for `reason`: a `503` with `Retry-After`
/// and `Connection: close`, rendered once so the reject path
/// allocates and formats nothing.
pub(crate) fn shed_bytes(reason: ShedReason) -> &'static [u8] {
    static CANNED: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    let canned = CANNED.get_or_init(|| {
        let retry_after: Arc<str> = format!("Retry-After: {RETRY_AFTER_SECS}\r\n").into();
        ShedReason::ALL.map(|r| {
            let body = error_body(r.message());
            close_variant_bytes(&encode(
                503,
                body,
                CONTENT_TYPE_JSON,
                None,
                Some(Arc::clone(&retry_after)),
            ))
        })
    });
    &canned[reason as usize]
}
