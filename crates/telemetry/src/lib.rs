//! Zero-interference observability for the Mosaic reproduction.
//!
//! The stack's instrumentation layer: monotonic [`Counter`]s,
//! last-writer-wins [`Gauge`]s and fixed-bucket duration
//! [`Histogram`]s behind a [`Recorder`] handle, plus a [`Span`] API
//! for the epoch pipeline phases (train / score / commit / migrate)
//! and two exporters — a JSONL event stream and a Prometheus-style
//! text [`Snapshot`].
//!
//! The design invariant: telemetry must never perturb results. The
//! default handle is [`Recorder::disabled`], whose vended handles are
//! all inert — the hot path pays exactly one branch. When enabled,
//! updates are relaxed atomics on pre-registered cells, clocks are
//! only read inside `is_enabled` guards, and the JSONL sink is
//! best-effort (write errors are swallowed). Result CSVs are
//! byte-identical with telemetry on or off at any worker count; CI
//! enforces this.
//!
//! ```
//! use mosaic_telemetry::Recorder;
//! use std::time::Duration;
//!
//! let recorder = Recorder::enabled();
//! let txs = recorder.counter("core.txs_ingested"); // cold: cache it
//! txs.add(128); // hot: one relaxed fetch_add
//! {
//!     let _span = recorder.span("epoch.commit"); // records on drop
//! }
//! recorder.record("epoch.score", Duration::from_micros(40));
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counters[0], ("core.txs_ingested".into(), 128));
//! println!("{}", snapshot.prometheus());
//! ```
//!
//! There is no process-wide recorder: a recorder is handed explicitly
//! to what it observes (`AllocationCore::set_recorder`,
//! `WorkerPool::with_recorder`, a simulation's `telemetry=jsonl:`
//! observer, a node's per-session registry), so two runs or two
//! servers in one process never count into each other.

#![deny(missing_docs)]

mod export;
mod recorder;
mod stats;

pub use export::{json_f64, HistogramSnapshot, Snapshot};
pub use recorder::{Counter, Gauge, Histogram, Recorder, Span};
pub use stats::{DurationHistogram, DurationStats, BUCKETS, BUCKET_BOUNDS_NS};
