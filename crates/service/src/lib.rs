//! `caz-service`: a concurrent batch/network evaluation subsystem over
//! the certain-answers engine.
//!
//! The paper's measures are #P-hard already for a single unary foreign
//! key (Proposition 5/6), so a deployment lives or dies on amortizing
//! repeated exponential work. This crate layers four pieces over the
//! engine crates, all std-only:
//!
//! * [`session`] — the REPL command language, factored into a parsed
//!   [`session::Request`] layer so the same commands run locally, over
//!   TCP, and in batch mode;
//! * [`pool`] — a bounded worker pool with per-job panic isolation;
//! * [`cache`] — an isomorphism-invariant LRU result cache keyed by the
//!   canonical form of the database (two databases differing only by a
//!   renaming of nulls share one entry), sharded by the high bits of
//!   the canonical hash so concurrent sessions don't contend on one
//!   lock;
//! * [`server`] — a line-oriented protocol served by a single
//!   epoll-based reactor thread (`reactor`, private) multiplexing every
//!   connection over `std::net::TcpListener`, plus an offline batch
//!   driver, with a [`metrics`] registry exposed through the `stats`
//!   command;
//! * [`http`] — std-only HTTP/1.1 framing (incremental parser, router,
//!   chunked encoding) the reactor serves on the same port, sniffed
//!   per connection from the first bytes, so standard tooling can reach
//!   the same command surface;
//! * `flush` (private) — a write-behind thread feeding fresh cache
//!   entries to a crash-safe persistent [`caz_store::Store`]
//!   (snapshot + checksummed WAL) when the server is configured with a
//!   cache path, so a restart warm-starts instead of recomputing;
//! * [`replication`] — the narrow seam the `caz-cluster` crate plugs
//!   into: a [`replication::Role`] on the config, a
//!   [`replication::ReplicationSink`] the flusher reports successful
//!   store writes to (leader side), and a
//!   [`replication::ReplicaHandle`] that feeds replicated entries and
//!   readiness into a running read replica.
//!
//! `unsafe` is denied crate-wide and allowed only in the reactor's
//! syscall-binding submodule (raw `epoll`/`pipe2` FFI — the workspace
//! is std-only, so those few calls are declared directly).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod flush;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod proto;
mod reactor;
pub mod replication;
pub mod server;
pub mod session;

pub use cache::{CacheKey, ResultCache, ShardedCache};
pub use caz_store::FsyncPolicy;
pub use metrics::Metrics;
pub use pool::WorkerPool;
pub use replication::{MissPolicy, ReplicaHandle, ReplicationSink, Role};
pub use server::{run_batch, Server, ServerConfig, ShutdownHandle};
pub use session::{EvalKind, EvalRequest, PlanReport, Reply, Request, Session};
