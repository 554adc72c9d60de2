//! # frost-server
//!
//! The serving layer of the Frost reproduction: a long-lived,
//! concurrent HTTP/1.1 query server (`frostd`) over the
//! [`BenchmarkStore`](frost_storage::BenchmarkStore).
//!
//! Snowman's front-end speaks a REST API that exposes the back-end's
//! full feature set (Appendix A.4); `frost_storage::api` reproduces
//! that surface as a library. This crate puts it on the wire:
//!
//! * [`http`] — a std-only server (no async runtime, no external
//!   dependencies) serving persistent HTTP/1.1 connections with
//!   request pipelining, exposing every
//!   [`Request`](frost_storage::api::Request) variant as a JSON `GET`
//!   endpoint. Connections live on a readiness-based event loop (a
//!   vendored `poll(2)` shim — idle connections cost a poll slot, not
//!   a thread); only complete parsed requests reach the fixed worker
//!   pool. One generation-stamped cache ([`frost_storage::cache`])
//!   holds fully serialized response bytes, served by a single
//!   `write_all` on the hot path, with content-derived `ETag`
//!   revalidation (`304`) on top.
//! * [`request`] — the incremental request-head parser
//!   ([`RequestBuffer`](request::RequestBuffer)): split reads,
//!   pipelined heads, and the size caps.
//! * [`response`] — the one response encoder: keep-alive and
//!   `Connection: close` framing, `ETag` revalidation, error bodies and
//!   the four canned `503` sheds.
//! * [`overload`] — the overload policy: the dispatch-queue and
//!   shed counters, the per-class concurrency gates, request deadlines
//!   and the `/readyz` answer.
//! * [`route`] — the route table: each request is resolved to one
//!   [`Endpoint`](route::Endpoint) when its head completes, and that
//!   endpoint names its handler, cost class, telemetry label and cache
//!   scopes.
//! * [`json`] — the canonical JSON rendering of
//!   [`Response`](frost_storage::api::Response) values. Tests pin the
//!   HTTP bodies byte-for-byte against this in-process rendering.
//! * [`client`] — a minimal blocking HTTP client with keep-alive
//!   connection reuse (the `frost get` subcommand and the loopback
//!   tests), with per-request timing capture behind `frost get
//!   --timing`.
//! * [`telemetry`] — the observability layer: per-request lifecycle
//!   traces (`GET /debug/traces`, `--slow-request-ms`), lock-free
//!   latency histograms keyed by endpoint × cost class, and the
//!   Prometheus text exposition behind `GET /metrics`.
//! * [`replication`] — WAL-shipping primary/replica roles: the
//!   primary serves its FROSTB snapshot and a long-poll tail of its
//!   FROSTW WAL, replicas bootstrap from the one and apply the other
//!   and serve the full read surface; `POST /replication/promote`
//!   flips a replica into a primary.
//!
//! Start-up pairs with the `FROSTB` snapshot format
//! ([`frost_storage::snapshot`]): `frostd` accepts either a CSV store
//! directory or a snapshot file and serves either; snapshots load in
//! one sequential read.

pub mod client;
mod event_loop;
pub mod http;
pub mod json;
pub mod overload;
pub mod replication;
pub mod request;
pub mod response;
pub mod route;
pub mod telemetry;

pub use http::{run_daemon, serve, serve_with, ServeOptions, ServerHandle, ServerState};
