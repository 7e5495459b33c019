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
//! * [`SimBackend`] replays the generated instruction stream on a
//!   [`VCore`]: timed ([`SimBackend::functional`], the cycle-level core
//!   every simulated number comes from) or untimed
//!   ([`SimBackend::untimed`]: the same registers, arena contents and
//!   instruction counters with no cache walk and no scoreboard, for
//!   callers that read only outputs — validation and `lsvconv verify`).
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

/// The simulator backend: every instruction of the generated kernel is
/// replayed on a [`VCore`] in the given execution mode, timed or not.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    /// Functional (compute values) or TimingOnly (no data).
    pub mode: ExecutionMode,
    /// Whether the core times the stream (cycles, caches, stalls); an
    /// untimed core only counts and, when functional, computes.
    pub timed: bool,
}

impl SimBackend {
    /// A timed simulator backend that computes functional results.
    pub fn functional() -> Self {
        Self {
            mode: ExecutionMode::Functional,
            timed: true,
        }
    }

    /// An untimed simulator backend that computes functional results
    /// ([`VCore::new_untimed`]): outputs and instruction counters equal
    /// [`SimBackend::functional`]'s, every cycle and cache counter is 0.
    pub fn untimed() -> Self {
        Self {
            mode: ExecutionMode::Functional,
            timed: false,
        }
    }

    /// Construct the single-core [`VCore`] this backend executes on — the
    /// one place (outside the shared-LLC multicore path) where the conv
    /// crate instantiates a simulated core.
    pub fn make_core(&self, arch: &ArchParams) -> VCore {
        if self.timed {
            VCore::new(arch, self.mode)
        } else {
            VCore::new_untimed(arch, self.mode)
        }
    }
}

impl ExecBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn models_time(&self) -> bool {
        self.timed
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
        if self.timed {
            multicore::execute_multicore(prim, arena, t, self.mode)
        } else {
            untimed_multicore(prim, |r| self.execute_slice(prim, arena, t, r))
        }
    }
}

/// The Section 4.3 partitioning for a backend that keeps no time: the
/// cores' slices run one after another on the host, so the result is
/// deterministic and identical to a single-core run (the slices write
/// disjoint output), and the report holds each core's counters and no wall
/// time.
fn untimed_multicore(
    prim: &ConvPrimitive,
    run: impl FnMut(Range<usize>) -> CoreStats,
) -> MulticoreReport {
    MulticoreReport {
        wall_cycles: 0,
        per_core: partition_ranges(prim.work_items(), prim.arch().cores)
            .into_iter()
            .map(run)
            .collect(),
        llc: Default::default(),
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
        untimed_multicore(prim, |r| self.run(prim, arena, t, r))
    }
}

/// The user-selectable backends, as seen by the CLI's `--backend` flag and
/// the fuzz harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The simulator ([`SimBackend::untimed`]: functional, untimed).
    Sim,
    /// Native host execution ([`NativeBackend`]).
    Native,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    /// Instantiate the backend to check outputs with: the simulator
    /// untimed and functional, as `lsvconv verify` runs it. Callers that
    /// read cycles construct a timed [`SimBackend`] directly.
    pub fn create(self) -> Box<dyn ExecBackend> {
        match self {
            BackendKind::Sim => Box::new(SimBackend::untimed()),
            BackendKind::Native => Box::new(NativeBackend),
        }
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
    use crate::primitive::ConvDesc;
    use rand::{Rng, SeedableRng};

    /// The instruction counters the native backend mirrors (frontend
    /// filler `scalar_ops` is simulator-specific).
    fn data_ops(c: &InstCounters) -> [u64; 7] {
        [
            c.scalar_loads,
            c.vloads,
            c.vstores,
            c.gathers,
            c.scatters,
            c.vfmas,
            c.fma_elems,
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Over the fuzz seed corpus the untimed simulator computes the timed
    /// one's output and the native backend's, bit for bit, on one core and
    /// across the chip's cores; it counts every instruction the timed core
    /// counts and reports no cycle, stall or cache access.
    #[test]
    fn untimed_sim_matches_timed_sim_and_native_on_the_seed_corpus() {
        let mut checked = 0;
        for (i, case) in crate::fuzz::seed_corpus().iter().enumerate() {
            let arch = lsv_arch::presets::aurora_with_vlen_bits(case.vlen_bits);
            let p = case.problem;
            let Ok(prim) = ConvDesc::new(p, case.direction, case.algorithm).create(&arch, 1) else {
                continue;
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            let mut draw =
                |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
            let src = draw(p.n * p.ic * p.ih * p.iw);
            let wei = draw(p.oc * p.ic * p.kh * p.kw);
            let dst = draw(p.n * p.oc * p.oh() * p.ow());
            let run = |b: &dyn ExecBackend| prim.run_with_backend(b, &src, &wei, &dst);
            let (timed, t) = run(&SimBackend::functional());
            let (untimed, u) = run(&SimBackend::untimed());
            let (native, n) = run(&NativeBackend);
            assert_eq!(bits(&untimed), bits(&timed), "{case}: untimed vs timed");
            assert_eq!(bits(&untimed), bits(&native), "{case}: untimed vs native");
            let zero_time = CoreStats {
                insts: t.insts,
                ..CoreStats::default()
            };
            assert_eq!(u, zero_time, "{case}: untimed stats");
            assert_eq!(data_ops(&u.insts), data_ops(&n.insts), "{case}: data ops");

            let mut arena = Arena::new();
            let tensors = prim.alloc_tensors(&mut arena);
            prim.import_operands(&mut arena, &tensors, &src, &wei, &dst);
            let chip = SimBackend::untimed().execute_multicore(&prim, &mut arena, &tensors);
            assert_eq!(chip.wall_cycles, 0, "{case}");
            assert_eq!(
                bits(&prim.read_output(&arena, &tensors)),
                bits(&timed),
                "{case}: untimed multicore"
            );
            checked += 1;
        }
        assert!(checked > 0, "every corpus case was skipped");
    }

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
            assert!(!b.models_time(), "{kind}: created backends check outputs");
            assert_eq!(b.name().parse::<BackendKind>().unwrap(), kind);
        }
    }
}
