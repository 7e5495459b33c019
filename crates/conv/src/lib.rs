//! # lsv-conv — efficient direct convolution using long SIMD instructions
//!
//! The paper's primary contribution: the state-of-the-art SIMD direct
//! convolution adapted to long-SIMD machines (**DC**, Section 4 /
//! Algorithm 2), the **Bounded Direct Convolution** (**BDC**, Section 6.2),
//! and the **Multi-Block Direct Convolution** (**MBDC**, Section 6.3 /
//! Algorithm 4), together with:
//!
//! * the dynamic micro-kernel footprint **auto-tuner** (Section 6.1 /
//!   Algorithm 3) with its *loop resizing* and *loop reordering* strategies,
//! * the register-blocking policies driven by the analytical model
//!   (Formulas 2 and 4),
//! * a oneDNN-style two-step **primitive API** (Section 6.5): declare a
//!   [`ConvDesc`], create a [`ConvPrimitive`] (the "code generation" step
//!   that fixes layouts, blocking factors and the micro-kernel program),
//!   then execute it on the simulated vector engine,
//! * a **multi-core scheduler** replicating the paper's parallelization
//!   strategy (minibatch across cores; smallest feature-map dimension for
//!   the backward-weights pass — Section 4.3),
//! * a scalar **naive reference** for all three directions and validation
//!   helpers (the artifact's `validate.sh` equivalent),
//! * an **execution-backend seam** ([`backend::ExecBackend`]): one frozen
//!   kernel plan, two targets — the cycle-level simulator ([`SimBackend`])
//!   and a native host lowering ([`NativeBackend`]) with bit-identical
//!   functional output at a measured ~20× simulator speedup on the fuzz
//!   corpus.
//!
//! All three training directions are supported: forward data (`fwdd`),
//! backward data (`bwdd`) and backward weights (`bwdw`).

pub mod analysis;
pub mod backend;
pub mod footprint;
pub mod fuzz;
pub mod kernels;
pub mod multicore;
pub mod naive;
mod native;
pub mod par;
pub mod pass;
pub mod perf;
pub mod primitive;
pub mod problem;
pub mod reorder;
pub mod runner;
pub mod store;
pub mod tuning;
pub mod verify;

pub use analysis::{scalar_stream_profile, ScalarStreamProfile};
pub use backend::{BackendKind, ExecBackend, NativeBackend, SimBackend};
pub use multicore::{execute_multicore, MulticoreReport};
pub use pass::PassRoles;
pub use perf::{
    bench_config, bench_layer, bench_layer_native, bench_layer_profiled, chip_ms, LayerPerf,
    NativePerf,
};
pub use primitive::{ConvDesc, ConvPrimitive, ConvTensors, UnsupportedReason};
pub use problem::{Algorithm, ConvProblem, Direction, Operand};
pub use runner::{CostFn, Kernel, LayerCost, LayerSpec, ModelPlan, ModelRunner, Pass, PlanEntry};
pub use store::{stats_metrics_json, LayerStore, StoreConfig, StoreStats};
pub use tuning::{
    autotune_microkernel, tune_empirical, KernelConfig, MicroTile, RegisterBlocking, TuneReport,
};
pub use verify::{validate, validate_with_backend, ValidationReport};

/// Execution mode re-export (functional vs timing-only).
pub use lsv_vengine::ExecutionMode;
