//! # hbat-obs — zero-overhead-when-off instrumentation
//!
//! The paper's whole argument (Section 2) is an attribution claim:
//! translation *bandwidth*, not raw TLB capacity, is what stalls a
//! multiple-issue pipeline. This crate gives the simulator the
//! observability to show that attribution per run instead of only
//! end-of-run totals:
//!
//! * a [`Recorder`] trait the timing engine is generic over, with a
//!   statically-dispatched [`NullRecorder`] whose probes compile to
//!   nothing — the engine hot loop stays allocation-free and
//!   bit-identical when observability is off;
//! * a [`TraceRecorder`] that collects the cycle-stamped
//!   stall-attribution taxonomy ([`StallCause`]), bounded-bucket
//!   occupancy histograms ([`Histogram`]), port-conflict counts, and a
//!   bounded buffer of cycle-stamped [`Event`]s renderable as JSONL;
//! * an [`IntervalRecorder`] that buckets the same probe stream into
//!   fixed-width cycle windows — IPC, hit rates, the stall mix, and
//!   occupancy means over *time* instead of end-of-run totals — with
//!   [`Tee`] to run it alongside a [`TraceRecorder`];
//! * a scoped wall-clock self-profiler ([`prof`]) for the simulator's
//!   own phases (trace build, warm restore, detailed run),
//!   `HBAT_PROF`-gated and off by default.
//!
//! The determinism contract: enabling a recorder never changes the
//! simulation. Probes only *read* engine state; `RunMetrics` and sweep
//! journal entries are bit-identical under [`NullRecorder`] and
//! [`TraceRecorder`] (asserted by tests in `hbat-cpu` and
//! `hbat-bench`). DESIGN.md §10 documents the taxonomy and the
//! overhead budget.
//!
//! The crate is dependency-free so every layer of the stack (core,
//! mem, cpu, bench, the CLI) can use it without coupling.

pub mod histogram;
pub mod interval;
pub mod prof;
pub mod recorder;
pub mod trace;

pub use histogram::Histogram;
pub use interval::{IntervalRecord, IntervalRecorder, INTERVAL_SCHEMA_VERSION};
pub use recorder::{NullRecorder, OccupancySample, PortResource, Recorder, StallCause, Tee};
pub use trace::{Event, TraceRecorder, EVENT_SCHEMA_VERSION};
