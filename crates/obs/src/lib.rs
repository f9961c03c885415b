#![warn(missing_docs)]

//! `nwo-obs` — zero-dependency observability layer for the nwo stack.
//!
//! Four pieces, all usable independently:
//!
//! - [`metrics`]: a named-metric [`Registry`] (counters, gauges,
//!   [`Log2Histogram`]s) that subsystems fill through the
//!   [`MetricSource`] trait and that serializes to JSON as a
//!   [`Snapshot`] — the payload behind `nwo sim --json`.
//! - [`trace`]: a streaming [`TraceSink`] for per-instruction pipeline
//!   events. [`NullSink`] costs nothing, [`RingSink`] keeps a bounded
//!   in-memory window (`nwo sim --trace`/`--pipeview`), and
//!   [`JsonlSink`] streams one JSON event per line so arbitrarily long
//!   runs trace in O(1) resident memory (`nwo sim --trace-out`).
//! - [`stall`]: per-cycle lost-commit-slot attribution
//!   ([`StallBreakdown`]), conserving
//!   `sum(slots) == commit_width * cycles - committed` exactly.
//! - [`pipeview`]: a Konata-style text pipeline diagram rendered from
//!   retained commit records (`nwo sim --pipeview`).
//! - [`span`] + [`profile`]: hierarchical wall-time phase profiling.
//!   RAII [`span::SpanGuard`]s aggregate into a [`profile::ProfileAgg`]
//!   and export as a human tree or Chrome Trace Event JSON
//!   ([`profile::ProfileReport`]) — the machinery behind
//!   `nwo sim --profile` / `--profile-out`. Off by default; every
//!   instrumented call site costs one relaxed atomic load until
//!   [`span::enable`] is called.
//!
//! The crate deliberately depends on nothing — not even other nwo
//! crates — so every subsystem can register metrics without dependency
//! cycles; trace events therefore carry raw instruction encodings,
//! decoded by consumers that know the ISA. JSON is hand-rolled
//! ([`json`]) per the workspace's no-external-deps rule, and the same
//! module provides a small parser so tests can prove emitted output is
//! really parseable.

pub mod json;
pub mod metrics;
pub mod pipeview;
pub mod profile;
pub mod span;
pub mod stall;
pub mod trace;

pub use metrics::{Log2Histogram, MetricSource, MetricValue, Registry, Snapshot};
pub use profile::{ProfileAgg, ProfileReport, SpanEvent, SpanStat};
pub use span::SpanGuard;
pub use stall::{StallBreakdown, StallCause};
pub use trace::{CommitRecord, JsonlSink, NullSink, RingSink, TeeSink, TraceEvent, TraceSink};
