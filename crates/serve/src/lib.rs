//! # cbsp-serve — the simulation-point query daemon
//!
//! The pipeline's cost profile begs for a resident process: a cold CLI
//! invocation pays process start, store open, and (on first touch)
//! full stage execution, while the artifacts themselves are
//! content-addressed and immutable — perfect to keep warm. This crate
//! serves the cross-binary pipeline from long-lived state: one
//! [`ArtifactStore`](cbsp_store::ArtifactStore) handle, each
//! benchmark's compiled binaries and their digests, one bounded cache
//! of completed runs and their CPI estimates, one metrics registry,
//! shared by every request.
//!
//! Built entirely on `std` networking — the workspace vendors its
//! dependencies and takes no async runtime.
//!
//! ## Wire surface
//!
//! * **NDJSON over TCP** — one JSON request per line, one response per
//!   line ([`protocol`], spec in `docs/PROTOCOL.md`). Methods:
//!   `ping`, `pipeline.run`, `simpoints.get`, `estimate.cpi`,
//!   `store.stats`, `trace.snapshot`, `server.shutdown`.
//! * **HTTP/1.1 adapter** — `GET /healthz` and `GET /metrics` on the
//!   same port, for probes and scrapers that don't speak the NDJSON
//!   protocol.
//!
//! ## Admission
//!
//! Each request runs on the thread of the connection that sent it.
//! Admission is bounded with typed backpressure (`overloaded`),
//! single-flight deduplication is keyed on the store's content digests
//! (two concurrent identical queries execute once), requests take turns
//! in arrival order, and deadlines are enforced at stage boundaries. A
//! graceful drain (`server.shutdown`) answers every frame read before
//! [`Server::wait`] returns.
//!
//! ## Example
//!
//! ```no_run
//! use cbsp_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeConfig::default()
//! })
//! .expect("server starts");
//! println!("listening on {}", server.addr());
//! server.wait().expect("clean drain"); // returns after server.shutdown
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod engine;
pub mod metrics;
pub mod protocol;
mod server;

pub use server::{ServeConfig, Server};
