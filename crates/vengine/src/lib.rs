//! # lsv-vengine — functional + timing simulator of a long-SIMD vector core
//!
//! This crate is the stand-in for the paper's hardware platform (NEC
//! SX-Aurora TSUBASA): an in-order vector core with
//!
//! * dynamic vector length (`vl = min(C, N_vlen)`, Section 4.2),
//! * vector FMA with an implicitly broadcast *scalar* multiplicand
//!   (Algorithm 2 line 17),
//! * unit-stride vector load/store,
//! * coarse-grain block gather/scatter (Section 6.3's "2-dimensional vector
//!   load/stores, which emulate vector gather/scatters at the granularity of
//!   an entire 128-byte cache line"),
//! * `N_fma` FMA ports with `L_fma`-deep pipelines processing
//!   `lanes_per_port` elements per cycle, and
//! * a scalar pipeline whose loads go through the `lsv-cache` hierarchy.
//!
//! Execution is simultaneously **functional** (the f32 arithmetic really
//! happens, so kernels are validated against a scalar reference) and
//! **timed** (an issue-order scoreboard models decode bandwidth, FMA port
//! occupancy and latency, cache hit/miss latencies and LLC gather bank
//! serialization). [`ExecutionMode::TimingOnly`] skips the arithmetic for
//! large benchmark sweeps; an untimed core ([`VCore::new_untimed`]) skips
//! the timing for correctness checks (see [`core`] for the core kinds).
//!
//! ## Timing model (summary — see DESIGN.md for the calibration rationale)
//!
//! * The in-order frontend issues `scalar_issue_width` instructions per
//!   cycle; an instruction whose operands are not ready blocks the frontend
//!   until they are (scoreboarded loads do not block until first use).
//! * A vector FMA of length `vl` occupies one of `n_fma` ports for
//!   `ceil(vl / lanes_per_port)` cycles and its destination register becomes
//!   ready `occupancy + l_fma` cycles after it starts (pipeline depth; NEC
//!   chaining is modelled by allowing the *next* instruction to start
//!   immediately on a different register).
//! * Scalar loads return their value with the serviced level's latency;
//!   vector loads charge the worst line's latency once (streaming).
//! * Block gathers/scatters are serviced by the LLC with the banking model of
//!   `lsv-cache::banks`.

pub mod arena;
pub mod core;
pub mod profile;

pub use crate::core::{
    CoreStats, ExecutionMode, InstCounters, ScalarValue, TraceEvent, VCore, STALL_LABELS,
};
pub use arena::{Arena, Region, PAGE_BYTES};
pub use profile::{RegionPath, RegionProfile, RegionStats, SpanEvent, MAX_SPAN_EVENTS};
