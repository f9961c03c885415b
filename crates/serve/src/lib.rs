#![warn(missing_docs)]

//! `nwo-serve` — simulation-as-a-service on the cached sweep substrate.
//!
//! PRs 3–7 made repeated simulations cheap (a memoizing worker pool, a
//! disk result cache, shared warm checkpoints, a lockstep oracle, span
//! profiling) but left it all behind a one-shot CLI: every sweep paid a
//! cold process start, a cold memo cache and a cold warm-checkpoint
//! slot. This crate keeps one warm process resident and puts the whole
//! substrate on a socket:
//!
//! * [`wire`] — a length-prefixed, versioned frame codec over
//!   `std::net` TCP (magic `NWOS`, u16 version, u32 length, JSON
//!   payload);
//! * [`proto`] — request kinds `sweep`, `status`, `cancel`, `shutdown`
//!   and the response frames, all flat JSON objects with the repo's
//!   usual `"t"` discriminator;
//! * [`server`] — bounded admission onto the shared
//!   [`nwo_bench::runner`] pool, per-request `NWO_WATCHDOG_SECS`
//!   watchdog, cancel flags, progress streaming and graceful drain;
//! * [`metrics`] — `serve.*` counters (accepted/rejected/active and the
//!   cache-hit tiers) through the obs registry;
//! * [`client`] — the blocking client used by `nwo client`, the tests
//!   and the benchmark, with typed [`ClientError`]s (a dead daemon
//!   reads differently from a dropped connection); it never retries;
//! * [`chaos`] — a seeded structure-aware wire fuzzer
//!   ([`chaos::FrameFuzzer`]) with campaigns against the decoder and a
//!   live daemon, proving hostile input only ever meets typed errors.
//!
//! The whole crate is zero-dependency like the rest of the workspace:
//! sockets are `std::net` and JSON is `nwo_obs::json`.
//!
//! The determinism contract extends onto the wire: `result` frames
//! carry only the bench table (no ids, no cache tier), so N concurrent
//! clients issuing the same sweep read byte-identical results whether
//! each was answered by a fresh simulation, the in-process memo, or
//! the `NWO_CACHE_DIR` disk cache. See `docs/serving.md` for the frame
//! format and worked examples.

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, SweepOutcome};
pub use metrics::{serve_snapshot, ServeMetrics};
pub use proto::Request;
pub use server::{
    DrainReport, ServeOptions, Server, ServerState, DEFAULT_ADDR, DEFAULT_QUEUE_DEPTH,
};
pub use wire::{read_frame, write_frame, Frame, WireError, MAX_FRAME_LEN, WIRE_VERSION};
