//! # lsvconv — efficient direct convolution using long SIMD instructions
//!
//! Facade crate for the PPoPP 2023 reproduction. Re-exports every workspace
//! crate under a stable path so examples and downstream users need a single
//! dependency:
//!
//! ```
//! use lsvconv::arch::presets::sx_aurora;
//! let arch = sx_aurora();
//! assert_eq!(arch.n_vlen(), 512);
//! ```
//!
//! See the crate-level docs of each module for the subsystem inventory:
//!
//! * [`arch`] — architecture parameters + analytical model (Formulas 1-4).
//! * [`cache`] — set-associative cache hierarchy simulator with conflict-miss
//!   classification and a banked LLC.
//! * [`vengine`] — functional + timing simulator of a long-SIMD vector core.
//! * [`tensor`] — rank-4 tensors and blocked memory layouts.
//! * [`conv`] — the paper's contribution: DC, BDC, MBDC, the auto-tuner and
//!   the oneDNN-style primitive API.
//! * [`analyze`] — static kernel verifier + lint framework (Formula 3/4
//!   lints, layout contracts, recorded-stream proofs).
//! * [`obs`] — profile exporters for the region profiler (Perfetto traces,
//!   folded flamegraph stacks, schema-validated `profile.json`).
//! * [`vednn`] — the baseline proprietary-library stand-in.
//! * [`models`] — ResNet workloads (Table 3 layer suite, model frequencies).
//! * [`serve`] — the model-level serving harness: whole-network runner glue,
//!   arrival processes, dynamic batching queues, latency/SLO sweeps.

pub use lsv_analyze as analyze;
pub use lsv_arch as arch;
pub use lsv_cache as cache;
pub use lsv_conv as conv;
pub use lsv_models as models;
pub use lsv_obs as obs;
pub use lsv_serve as serve;
pub use lsv_tensor as tensor;
pub use lsv_vednn as vednn;
pub use lsv_vengine as vengine;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use lsv_arch::{presets::sx_aurora, ArchParams};
    pub use lsv_conv::{
        naive, Algorithm, ConvDesc, ConvPrimitive, ConvProblem, Direction, ExecutionMode,
    };
    pub use lsv_models::{resnet_layers, ResNetModel};
    pub use lsv_tensor::{ActTensor, ActivationLayout, WeiTensor, WeightLayout};
}
