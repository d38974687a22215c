//! # dynaddr-query
//!
//! Concurrent, cache-backed query serving over a `dataset.store` file —
//! the serving layer between the batch reproduction and the future
//! `dynaddrd` daemon.
//!
//! A [`QueryEngine`] opens a store file **once**: the footer index is
//! parsed into per-table segment lists, the meta rows are kept,
//! secondary indexes (probe → AS, probe → country, per-probe activity
//! stats) are built in one streaming pass over the connection table, and
//! an optional `truth.store` is loaded beside it. After open, every query
//! is answered without re-reading the footer. A probe's log rows go
//! through a sharded LRU cache of *per-probe rows*
//! ([`cache::ShardedLru`]) under a configurable byte budget; a miss
//! decodes only that probe's rows out of each segment, through the
//! segment's in-memory key directory ([`dynaddr_store::KeyDirectory`]).
//!
//! Queries are typed ([`Request`]/[`Response`]) and answered from any
//! number of threads concurrently through `&self`. Every query is a pure
//! function of the file contents: responses are **byte-identical at any
//! thread count and any cache state** (cold, warm, or thrashing under a
//! tiny budget) — pinned by the crate's determinism tests.
//!
//! The same enum pair crosses process boundaries as a length-prefixed
//! binary codec (see [`proto`]) over a Unix socket: `queryd` is the
//! accept-loop server binary, `queryc` the batch client, and
//! [`server::QueryClient`] the in-process client half. A
//! [`local::LocalAnswerer`] answers the same requests from a batch-loaded
//! [`dynaddr_atlas::AtlasDataset`] without touching the store reader or the
//! cache — the independent oracle the tests and the CI smoke diff against.
//!
//! Cache hits/misses/evictions and per-query latency flow into the
//! `dynaddr-obs` metrics registry (`query.cache.*`, `query.latency_us`)
//! and from there into the `--trace` JSONL sidecar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod index;
pub mod local;
pub mod proto;
#[cfg(unix)]
pub mod server;
pub mod workload;

pub use cache::{CacheConfig, CacheStats, ShardedLru};
pub use engine::{records_reply, series_reply, EngineOptions, QueryEngine, TruthIndex};
pub use index::StatsIndex;
pub use local::LocalAnswerer;
pub use proto::{Request, Response};
#[cfg(unix)]
pub use server::{serve, Answerer, QueryClient, Server, ServerHandle};
pub use workload::Workload;
