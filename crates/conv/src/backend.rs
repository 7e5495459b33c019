//! Execution backends: one frozen kernel plan, two targets.
//!
//! A created [`ConvPrimitive`] freezes the kernel plan — the
//! `(KernelConfig, ConvProblem, Direction)` triple plus the arena/tensor
//! layouts. [`ExecBackend`] is the seam that separates that plan from the
//! machine executing it. Every backend runs a range of the pass's Section
//! 4.3 parallel loop ([`ConvPrimitive::work_items`]: images, or `RB_c`
//! blocks on backward weights), the same range
//! [`ConvPrimitive::execute_core`] takes:
//!
//! * [`SimBackend`] replays the generated instruction stream on the
//!   cycle-level [`VCore`] (Functional / TimingOnly / introspection modes
//!   unchanged — the golden-cycles tests pin that this is a pure refactor).
//! * [`NativeBackend`] lowers the same blocked loop nest to host Rust
//!   (see [`crate::native`]) and runs it directly on the arena at host
//!   speed (a measured ~20× over the functional simulator on the
//!   fuzz-corpus shapes). It preserves blocking, data
//!   movement and the exact accumulation order — functional output is
//!   bit-identical to `SimBackend` Functional — and drops everything
//!   timing: cycles, caches, stalls are reported as zero.

use crate::multicore::{self, partition_ranges, MulticoreReport};
use crate::native;
use crate::primitive::{ConvPrimitive, ConvTensors};
use crate::problem::Direction;
use lsv_arch::ArchParams;
use lsv_vengine::{Arena, CoreStats, ExecutionMode, InstCounters, VCore};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// A machine that can execute a frozen kernel plan.
///
/// Object-safe so callers (CLI, fuzz harness, benches) can select a backend
/// at runtime; all methods take the primitive plus already-allocated arena
/// tensors, so operand import/readback stays backend-independent (see
/// [`ConvTensors::import_operands`] / [`ConvTensors::read_output`]).
pub trait ExecBackend {
    /// Short identifier (`"sim"` / `"native"`), used in reports and errors.
    fn name(&self) -> &'static str;

    /// Whether the backend produces meaningful cycle/cache statistics.
    /// `false` means only functional output and data-op instruction counts
    /// are valid in its reports.
    fn models_time(&self) -> bool;

    /// Execute a slice of the work on one core's worth of state.
    ///
    /// `work` indexes the Section 4.3 parallel loop, as in
    /// [`ConvPrimitive::execute_core`]: images on the data passes, `RB_c`
    /// blocks on backward weights; `0..prim.work_items()` is the whole
    /// problem.
    fn execute_slice(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) -> CoreStats;

    /// Execute the whole problem with the Section 4.3 work partitioning
    /// across the chip's cores.
    fn execute_multicore(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
    ) -> MulticoreReport;
}

/// The cycle-level simulator backend (the default): every instruction of the
/// generated kernel is replayed on a [`VCore`] in the given execution mode.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    /// Functional (compute values + time) or TimingOnly (time alone).
    pub mode: ExecutionMode,
}

impl SimBackend {
    /// A simulator backend that computes functional results.
    pub fn functional() -> Self {
        Self {
            mode: ExecutionMode::Functional,
        }
    }

    /// Construct the single-core [`VCore`] this backend executes on — the
    /// one place (outside the shared-LLC multicore path) where the conv
    /// crate instantiates a simulated core.
    pub fn make_core(&self, arch: &ArchParams) -> VCore {
        VCore::new(arch, self.mode)
    }
}

impl ExecBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn models_time(&self) -> bool {
        true
    }

    fn execute_slice(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) -> CoreStats {
        let mut core = self.make_core(prim.arch());
        prim.execute_core(&mut core, arena, t, work);
        core.drain()
    }

    fn execute_multicore(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
    ) -> MulticoreReport {
        multicore::execute_multicore(prim, arena, t, self.mode)
    }
}

/// The native host backend: the frozen plan lowered to plain Rust loops
/// (see [`crate::native`]), always functional, never timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl NativeBackend {
    fn run(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) -> CoreStats {
        let cfg = prim.cfg();
        let p = &prim.desc().problem;
        let mut insts = InstCounters::default();
        if prim.desc().direction == Direction::BwdWeights {
            native::run_bwd_weights(cfg, p, arena, t, work, &mut insts)
        } else {
            native::run_data(cfg, p, arena, t, work, &mut insts)
        }
        CoreStats {
            insts,
            ..CoreStats::default()
        }
    }
}

impl ExecBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn models_time(&self) -> bool {
        false
    }

    fn execute_slice(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) -> CoreStats {
        self.run(prim, arena, t, work)
    }

    fn execute_multicore(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
    ) -> MulticoreReport {
        // Same Section 4.3 partitioning as the simulator; cores run
        // sequentially on the host, so the result is deterministic and
        // identical to a single-core run (the slices write disjoint output).
        let per_core = partition_ranges(prim.work_items(), prim.arch().cores)
            .into_iter()
            .map(|r| self.run(prim, arena, t, r))
            .collect();
        MulticoreReport {
            wall_cycles: 0,
            per_core,
            llc: Default::default(),
        }
    }
}

/// The user-selectable backends, as seen by the CLI's `--backend` flag and
/// the fuzz harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cycle-level simulator ([`SimBackend`], functional mode).
    Sim,
    /// Native host execution ([`NativeBackend`]).
    Native,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    /// Instantiate the backend (simulator backends in Functional mode —
    /// callers that want TimingOnly construct [`SimBackend`] directly).
    pub fn create(self) -> Box<dyn ExecBackend> {
        match self {
            BackendKind::Sim => Box::new(SimBackend::functional()),
            BackendKind::Native => Box::new(NativeBackend),
        }
    }

    /// Whether the backend produces meaningful cycle/cache statistics.
    pub fn models_time(self) -> bool {
        matches!(self, BackendKind::Sim)
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" | "simulator" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!(
                "unknown backend '{other}' (expected 'sim' or 'native')"
            )),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_rejects() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!(
            "simulator".parse::<BackendKind>().unwrap(),
            BackendKind::Sim
        );
        assert_eq!(
            "native".parse::<BackendKind>().unwrap(),
            BackendKind::Native
        );
        let err = "cuda".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("cuda") && err.contains("expected"));
    }

    #[test]
    fn backend_names_round_trip() {
        for kind in BackendKind::ALL {
            let b = kind.create();
            assert_eq!(b.name(), kind.to_string());
            assert_eq!(b.models_time(), kind.models_time());
            assert_eq!(b.name().parse::<BackendKind>().unwrap(), kind);
        }
    }
}
