//! # lsv-serve — the model-level serving harness
//!
//! The paper's evaluation stops at layers and whole-model training steps;
//! this crate asks the production question on top of the same simulator:
//! *given this chip and these kernels, how should a model server batch
//! requests under load?*
//!
//! Pieces:
//!
//! * [`arrivals`] — deterministic-seeded arrival processes (Poisson and
//!   on/off bursty) on a simulated clock.
//! * [`queue`] — the dynamic batching queue (fixed-batch, timeout-batch,
//!   adaptive) and its event-driven single-server simulation.
//! * [`latency`] — whole-model service-time tables per engine per batch
//!   size: every cell is one [`lsv_conv::ModelRunner`] plan, priced by the
//!   engine's per-layer cost hook (a fixed direct algorithm, the
//!   empirically tuned best, or the vednn baseline), all through the layer
//!   store.
//! * [`stats`] — nearest-rank latency percentiles (p50/p95/p99) and
//!   per-load summaries.
//! * [`sweep`] — the offered-load sweep producing the `serving.csv` /
//!   `BENCH_serving.json` artifacts and the best-(policy, engine)-per-load
//!   verdicts.
//! * [`trace`] — request-lifecycle traces of one cell: the analyzable
//!   `serving_trace.json` span tree (with per-layer plan breakdowns and a
//!   bit-exact reconciliation record) and the Perfetto timeline.
//! * [`timeseries`] — queue depth, batch occupancy, rolling p99 and SLO
//!   burn sampled on the simulated clock (`serving_timeseries.csv`).
//!
//! The interesting output is the *crossover*: at low load the adaptive
//! policy wins (small batches, no waiting — lowest p99), while near
//! saturation the batch-building policies win (full batches amortize the
//! per-image cost, which is the only way to keep up with the offered
//! rate) — the model-level analogue of the paper's per-layer
//! minibatch-scaling story.

pub mod arrivals;
pub mod latency;
pub mod queue;
pub mod stats;
pub mod sweep;
pub mod timeseries;
pub mod trace;

pub use arrivals::{ArrivalProcess, ArrivalShape, SplitMix64};
pub use latency::{resnet_specs, LatencyTable, ServeEngine};
pub use queue::{simulate, BatchPolicy, Dispatch, DispatchReason, RequestRecord, SimOutcome};
pub use stats::{percentile, summarize, LoadStats};
pub use sweep::{
    best_by_load, cell_outcome, csv_header, csv_row, reference_capacity_rps, run_sweep,
    run_timeseries, serving_json, BestPick, SweepConfig, SweepMeta, SweepRow, TimeseriesCell,
    TimeseriesSection,
};
pub use timeseries::{
    sample_outcome, summarize_cell, timeseries_csv_header, timeseries_csv_row, CellSummary,
    TimePoint, ROLLING_WINDOW, SAMPLES_PER_CELL,
};
pub use trace::{
    collect_plans, perfetto_trace_json, serving_trace_json, Reconciliation, TraceMeta,
};
