//! Structured tracing and metrics for the DOD system (`dod-obs`).
//!
//! Every layer of the pipeline — the MapReduce substrate, the detectors,
//! the DOD pipeline itself, and the CLI/bench front-ends — reports what
//! it does as typed [`Event`]s through an [`Obs`] handle:
//!
//! * **spans** — timed scopes ([`ObsScope`], RAII) or externally measured
//!   durations ([`Obs::record_duration`]): per-task wall times, pipeline
//!   phases;
//! * **counters** — monotonic increments ([`Obs::counter`]): distance
//!   evaluations, shuffle records, retries;
//! * **observations** — histogram samples ([`Obs::observe`]): per-reducer
//!   shuffle bytes, simulated makespans;
//! * **marks** — point events ([`Obs::mark`]): plan decisions, locality
//!   outcomes.
//!
//! Events flow into a pluggable [`Recorder`]. Shipped sinks:
//!
//! * the disabled default (`Obs::null()`): every emit method is an
//!   `#[inline]` check of an `Option` that is `None` — no allocation, no
//!   locking, no I/O;
//! * [`MemoryRecorder`]: buffers events for queries from tests and
//!   benches;
//! * [`JsonlRecorder`]: one JSON object per line, consumable by external
//!   tools and replayable via [`replay`];
//! * [`MetricsRecorder`]: serving-grade aggregation — counters plus
//!   mergeable log-linear [`Histogram`]s with p50/p95/p99/p999
//!   snapshots, renderable as a Prometheus text exposition ([`prom`]);
//! * [`FlightRecorder`]: a bounded, non-blocking ring of the most
//!   recent events, dumped as replayable JSONL when a request fails.
//!
//! The workspace builds offline, so all JSON is hand-rolled; the shared
//! writing primitives (escaping, non-finite-as-`null`) live in [`json`]
//! and are used by the trace writer here and by `dod serve`.
//!
//! The event taxonomy used by the workspace is documented in
//! `DESIGN.md` (§Observability); [`render::render_summary`] folds any
//! event stream into the human-readable table behind `dod --profile`.

pub mod atomic;
mod decimal;
mod event;
mod flight;
mod hist;
pub mod json;
mod jsonl;
mod memory;
mod metrics;
pub mod names;
mod obs;
pub mod prom;
mod recorder;
pub mod render;
pub mod replay;
pub mod sync;

pub use atomic::write_atomic;
pub use event::{Event, EventKind, Value};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{Histogram, HistogramSummary};
pub use jsonl::{event_to_json, JsonlRecorder};
pub use memory::MemoryRecorder;
pub use metrics::{MetricsRecorder, MetricsSnapshot};
pub use obs::{Obs, ObsScope};
pub use recorder::{FanoutRecorder, NullRecorder, Recorder};
