//! The one place a layer is measured: the multi-core performance model
//! behind every figure of the evaluation.
//!
//! The paper runs each layer on all 8 SX-Aurora cores with OpenMP
//! (Section 7). We simulate **one representative core's slice** of the
//! parallel loop and derive chip wall-time from it:
//!
//! * Minibatch-parallel kernels — the direct forward / backward-data passes
//!   (Section 4.3) and every vednn kernel, whose library splits the
//!   minibatch in every direction. The representative core executes up to
//!   two images — the first cold, the second in steady state — and the
//!   remaining `images_per_core - 2` images are charged at the steady-state
//!   cost (every image of a layer executes the identical instruction stream
//!   over a warmed weight working set). [`bench_images`] is that routine for
//!   any [`SliceKernel`].
//! * Direct backward-weights: the smaller feature-map dimension is the
//!   parallel loop. The core executes its block share over a 1-image and a
//!   2-image reduction; the marginal cost of the second image is the
//!   steady-state per-image sweep, charged for the remaining `N - 1` images.
//!   Up to 2 images the core's own reduction is the whole cost, and the
//!   1-image reduction is not run.
//!
//! Chip wall-time is the representative core's total (cores are symmetric;
//! idle cores when `N < cores` show up as reduced GFLOP/s exactly as on the
//! real machine — Figure 6's scaling behaviour).
//!
//! [`bench_config`] measures a given effective [`KernelConfig`]: the
//! tuner's candidates and the ablation's overrides call it directly, and
//! [`bench_layer`] and its profiled variants measure the configuration
//! [`ConvDesc::create`] generates. Every slice is served through the layer
//! store's one memo ([`store::LayerStore::memo`]).
//!
//! One `ChipFormula` turns the kept run into chip cycles, and
//! [`chip_cycles_lower_bound`] pushes an instruction count of that same run
//! through it: the tuner's proof that a candidate cannot win without
//! simulating it.

use crate::backend::{ExecBackend, NativeBackend, SimBackend};
use crate::primitive::{ConvDesc, ConvPrimitive, ConvTensors};
use crate::problem::{Algorithm, ConvProblem, Direction, Operand};
use crate::store::{self, Record, Stored};
use crate::tuning::KernelConfig;
use lsv_arch::ArchParams;
use lsv_vengine::{Arena, CoreStats, ExecutionMode, InstCounters, RegionProfile, VCore};
use std::ops::Range;

/// Performance of one (layer, direction, algorithm) under the multi-core
/// model.
#[derive(Debug, Clone)]
pub struct LayerPerf {
    /// Chip wall-clock cycles for the whole minibatch.
    pub cycles: u64,
    /// Wall time in milliseconds.
    pub time_ms: f64,
    /// Throughput in GFLOP/s (the Figure 4 y-axis).
    pub gflops: f64,
    /// Fraction of the chip's theoretical peak (Figure 4's right-hand axis).
    pub efficiency: f64,
    /// L1 misses per kilo-instruction on the measured core (the Section 8
    /// hardware-counter study).
    pub mpki_l1: f64,
    /// Fraction of L1 misses classified as conflict misses.
    pub conflict_fraction: f64,
    /// Whether Formula 3 predicted conflicts for this configuration.
    pub conflicts_predicted: bool,
    /// Raw statistics of the measured core slice.
    pub report: CoreStats,
}

impl LayerPerf {
    /// The measurement of a layer whose whole minibatch takes `chip_cycles`
    /// on the chip, from its measured core slice: the one place chip cycles
    /// become wall time, throughput, efficiency and cache rates, for the
    /// direct algorithms and the vednn baseline alike.
    pub fn new(
        arch: &ArchParams,
        problem: &ConvProblem,
        chip_cycles: u64,
        report: CoreStats,
        conflicts_predicted: bool,
    ) -> Self {
        let cycles = chip_cycles.max(1);
        let gflops = problem.flops() as f64 / chip_secs(arch, cycles) / 1e9;
        let insts = report.insts.total();
        let l1 = report.cache.l1;
        LayerPerf {
            cycles,
            time_ms: chip_ms(arch, cycles),
            gflops,
            efficiency: gflops * 1e9 / arch.peak_flops(),
            mpki_l1: l1.mpki(insts),
            conflict_fraction: if l1.misses == 0 {
                0.0
            } else {
                l1.conflict_misses as f64 / l1.misses as f64
            },
            conflicts_predicted,
            report,
        }
    }
}

/// Chip wall time of `cycles` in seconds.
fn chip_secs(arch: &ArchParams, cycles: u64) -> f64 {
    cycles as f64 / (arch.freq_ghz * 1e9)
}

/// Chip wall time of `cycles` in milliseconds: the one cycles-to-time
/// conversion behind [`LayerPerf::time_ms`] and every model-plan entry.
pub fn chip_ms(arch: &ArchParams, cycles: u64) -> f64 {
    chip_secs(arch, cycles) * 1e3
}

/// Simulate one layer under the paper's 8-core execution model.
///
/// `problem.n` is the minibatch. `mode` selects functional or timing-only
/// simulation (results are identical; functional additionally computes the
/// data).
pub fn bench_layer(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: ExecutionMode,
) -> LayerPerf {
    let cfg = generated_config(arch, problem, direction, algorithm);
    bench_config(arch, problem, &cfg, mode)
}

/// [`bench_layer`] with the measured core's region profiler enabled.
///
/// The profiled core executes the *identical* instruction stream (profiling
/// is cycle-neutral), so the returned [`LayerPerf`] matches a plain
/// [`bench_layer`] exactly; the [`RegionProfile`] attributes the measured
/// slice's cycles, stalls, instructions, and cache events to kernel regions,
/// and its totals equal the slice's `report` counters.
pub fn bench_layer_profiled(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: ExecutionMode,
) -> (LayerPerf, RegionProfile) {
    let cfg = generated_config(arch, problem, direction, algorithm);
    let (perf, profile) = measure(arch, problem, &cfg, mode, ProfileMode::Required);
    (perf, profile.expect("profiler enabled"))
}

/// [`bench_layer_profiled`] that serves from the layer store when possible.
///
/// On a store hit the returned profile is `None` — a cached slice carries no
/// region breakdown — but the [`LayerPerf`] is identical to a profiled run's
/// (profiling is cycle-neutral and the store is content-addressed). On a
/// miss the slice is simulated with the profiler enabled, exactly like
/// [`bench_layer_profiled`].
pub fn bench_layer_profiled_cached(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: ExecutionMode,
) -> (LayerPerf, Option<RegionProfile>) {
    let cfg = generated_config(arch, problem, direction, algorithm);
    measure(arch, problem, &cfg, mode, ProfileMode::IfSimulated)
}

/// Simulate one layer running the effective configuration `cfg`, which
/// carries the direction and algorithm, under the paper's 8-core execution
/// model. `cfg` is used as given (an override must fit the register file);
/// its Formula 3 verdict is the reported `conflicts_predicted`.
pub fn bench_config(
    arch: &ArchParams,
    problem: &ConvProblem,
    cfg: &KernelConfig,
    mode: ExecutionMode,
) -> LayerPerf {
    measure(arch, problem, cfg, mode, ProfileMode::Off).0
}

/// The configuration [`ConvDesc::create`] generates for a layer that runs
/// on all of the chip's cores.
fn generated_config(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
) -> KernelConfig {
    *ConvDesc::new(*problem, direction, algorithm)
        .create(arch, arch.cores.max(1))
        .expect("primitive creation")
        .cfg()
}

/// How a bench call interacts with the region profiler and the layer store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    /// No profiler; store hits allowed.
    Off,
    /// Profiler required: always simulate (the profile cannot be cached);
    /// the result still populates the store.
    Required,
    /// Store hits allowed (profile comes back `None`); simulate with the
    /// profiler enabled on a miss.
    IfSimulated,
}

fn measure(
    arch: &ArchParams,
    problem: &ConvProblem,
    cfg: &KernelConfig,
    mode: ExecutionMode,
    pmode: ProfileMode,
) -> (LayerPerf, Option<RegionProfile>) {
    let kernel = kept_primitive(arch, problem, cfg);
    if cfg.direction != Direction::BwdWeights {
        return measure_images(arch, problem, &kernel, mode, pmode);
    }
    // Marginal-image cost from a 1-image and a 2-image reduction over the
    // core's block share. Only the second (kept) run is profiled, and the
    // first is run only where the formula reads it.
    let formula = ChipFormula::of(arch, problem, cfg.direction);
    let c1 = formula
        .reads_first_reduction()
        .then(|| one_image_reduction(arch, problem, cfg, mode));
    let s = reduction(arch, &kernel, mode, pmode);
    let chip_cycles = formula.chip(s.cold, c1.unwrap_or(s.cold));
    let perf = LayerPerf::new(
        arch,
        problem,
        chip_cycles,
        s.report,
        cfg.conflicts_predicted,
    );
    (perf, s.profile)
}

/// A lower bound on the chip cycles [`bench_config`] reports for `cfg`,
/// from *counting* the run it keeps instead of simulating it.
///
/// The counting core ([`VCore::new_counting`]) executes exactly the kept
/// run of [`bench_config`] — same primitive, images and bwd-weights block
/// share, over a data-free arena with no fill and no LLC warm-up — and its
/// instruction count bounds that run's cycles through the issue-slot
/// invariant ([`lsv_vengine::InstCounters::issue_cycles_lower_bound`]). The
/// bound then goes through the same `ChipFormula`:
///
/// * fwd/bwd-data with at most 2 images per core: chip cycles are the kept
///   run's own (one cold image, or the cold + steady pair);
/// * fwd/bwd-data with 3 or more: `cold + steady·(ipc−1)` subtracts the
///   cold image, which no count bounds — `None`;
/// * bwd-weights: non-decreasing in the kept run's cycles, so for `N > 2`
///   the 1-image reduction is simulated (through the store, as
///   [`bench_config`] does) and the count's bound is pushed through it.
pub fn chip_cycles_lower_bound(
    arch: &ArchParams,
    problem: &ConvProblem,
    cfg: &KernelConfig,
    mode: ExecutionMode,
) -> Option<u64> {
    let formula = ChipFormula::of(arch, problem, cfg.direction);
    if let ChipFormula::Images { ipc } = formula {
        if ipc > 2 {
            return None;
        }
    }
    let run = count_insts(arch, problem, cfg).issue_cycles_lower_bound(arch.scalar_issue_width);
    // Otherwise the formula reads only the kept run: it is the core's one
    // image, or the cold image cancels.
    let first = if formula.reads_first_reduction() {
        one_image_reduction(arch, problem, cfg, mode)
    } else {
        run
    };
    Some(formula.chip(run, first))
}

/// The instructions of the run [`bench_config`] keeps for `cfg` (its
/// `report.insts`), counted on a counting core without simulating.
pub fn count_insts(arch: &ArchParams, problem: &ConvProblem, cfg: &KernelConfig) -> InstCounters {
    let kernel = kept_primitive(arch, problem, cfg);
    let s = match cfg.direction {
        Direction::BwdWeights => reduction_run(arch, &kernel, Core::Count),
        _ => image_pair(arch, &kernel, Core::Count),
    };
    s.report.insts
}

/// `cfg`'s primitive for `images` images of `problem`, on all of the chip's
/// cores.
fn primitive(
    arch: &ArchParams,
    problem: &ConvProblem,
    cfg: &KernelConfig,
    images: usize,
) -> ConvPrimitive {
    ConvDesc::new(problem.with_minibatch(images), cfg.direction, cfg.algorithm).create_with_config(
        arch,
        *cfg,
        arch.cores.max(1),
    )
}

/// Cycles of `cfg`'s 1-image bwd-weights reduction, through the store: the
/// base of the marginal image.
fn one_image_reduction(
    arch: &ArchParams,
    problem: &ConvProblem,
    cfg: &KernelConfig,
    mode: ExecutionMode,
) -> u64 {
    let prim = primitive(arch, problem, cfg, 1);
    reduction(arch, &prim, mode, ProfileMode::Off).cold
}

/// The problem of the run [`measure`] keeps (its report, and the cycles
/// [`ChipFormula`] scales), which also keys its store entry: the
/// representative core's slice images (fwd/bwd-data) or the `min(N, 2)`-image
/// reduction (bwd-weights).
pub(crate) fn kept_problem(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
) -> ConvProblem {
    match direction {
        Direction::BwdWeights => problem.with_minibatch(problem.n.min(2)),
        _ => slice_problem(arch, problem),
    }
}

/// The primitive of the kept run.
fn kept_primitive(arch: &ArchParams, problem: &ConvProblem, cfg: &KernelConfig) -> ConvPrimitive {
    primitive(
        arch,
        problem,
        cfg,
        kept_problem(arch, problem, cfg.direction).n,
    )
}

/// How the representative core's kept run becomes chip cycles for the whole
/// minibatch: the one chip formula behind [`bench_config`],
/// [`bench_images`] and [`chip_cycles_lower_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChipFormula {
    /// A minibatch-parallel layer, `ipc` images per core: the kept run is
    /// the cold image and, for `ipc >= 2`, the steady one after it; the
    /// remaining images are charged at the steady cost.
    Images {
        /// Images each core owns.
        ipc: u64,
    },
    /// Direct backward-weights over `n` images: the kept run is the
    /// `min(n, 2)`-image reduction; beyond 2 images each further image
    /// costs its marginal over the 1-image reduction.
    Reduction {
        /// The minibatch.
        n: u64,
    },
}

impl ChipFormula {
    /// The formula of the direct primitive for `problem` in `direction`.
    pub(crate) fn of(arch: &ArchParams, problem: &ConvProblem, direction: Direction) -> Self {
        match direction {
            Direction::BwdWeights => ChipFormula::Reduction {
                n: problem.n as u64,
            },
            _ => Self::images(arch, problem),
        }
    }

    /// The formula of a minibatch-parallel kernel (every vednn kernel
    /// splits the minibatch, bwd-weights included).
    fn images(arch: &ArchParams, problem: &ConvProblem) -> Self {
        ChipFormula::Images {
            ipc: images_per_core(arch, problem) as u64,
        }
    }

    /// Whether [`ChipFormula::chip`] reads a separate 1-image bwd-weights
    /// reduction: only beyond 2 images, where each further image costs its
    /// marginal over it.
    pub(crate) fn reads_first_reduction(self) -> bool {
        matches!(self, ChipFormula::Reduction { n } if n > 2)
    }

    /// Chip cycles from the kept run's cycles `run` and `first`: that run's
    /// cold image (minibatch-parallel) or the 1-image reduction's cycles
    /// (bwd-weights). Non-decreasing in `run` for a fixed `first`.
    pub(crate) fn chip(self, run: u64, first: u64) -> u64 {
        match self {
            ChipFormula::Images { ipc } => first + (run - first) * (ipc - 1),
            ChipFormula::Reduction { n } if n <= 2 => run,
            ChipFormula::Reduction { n } => run + run.saturating_sub(first).max(1) * (n - 2),
        }
    }
}

/// A kernel the representative core runs: the direct primitive and every
/// vednn kernel. It supplies its operand allocation and its per-image run;
/// the warm-up, the cold/steady image pair and the store key are shared.
pub trait SliceKernel {
    /// The operand tensors, plus any kernel-private scratch.
    type Tensors: AsRef<ConvTensors>;
    /// The slice problem the kernel was built for.
    fn problem(&self) -> &ConvProblem;
    /// The pass it computes.
    fn direction(&self) -> Direction;
    /// Its store engine tag and, for a generated kernel, its effective
    /// configuration (which also carries Formula 3's verdict).
    fn identity(&self) -> (&'static str, Option<&KernelConfig>);
    /// Allocate the operands (and scratch) in their layouts.
    fn alloc(&self, arena: &mut Arena) -> Self::Tensors;
    /// Execute `images` of the slice problem on `core`.
    fn run_images(
        &self,
        core: &mut VCore,
        arena: &mut Arena,
        t: &Self::Tensors,
        images: Range<usize>,
    );
}

impl SliceKernel for ConvPrimitive {
    type Tensors = ConvTensors;

    fn problem(&self) -> &ConvProblem {
        &self.desc().problem
    }

    fn direction(&self) -> Direction {
        self.desc().direction
    }

    fn identity(&self) -> (&'static str, Option<&KernelConfig>) {
        ("direct", Some(self.cfg()))
    }

    fn alloc(&self, arena: &mut Arena) -> ConvTensors {
        self.alloc_tensors(arena)
    }

    fn run_images(
        &self,
        core: &mut VCore,
        arena: &mut Arena,
        t: &ConvTensors,
        images: Range<usize>,
    ) {
        self.execute_core(core, arena, t, images);
    }
}

/// Images each core owns when a minibatch-parallel layer is split.
fn images_per_core(arch: &ArchParams, problem: &ConvProblem) -> usize {
    problem.n.div_ceil(arch.cores.max(1)).max(1)
}

/// The problem the representative core of a minibatch-parallel layer
/// simulates: its first one or two images.
pub fn slice_problem(arch: &ArchParams, problem: &ConvProblem) -> ConvProblem {
    problem.with_minibatch(images_per_core(arch, problem).min(2))
}

/// Simulate a minibatch-parallel layer of `problem.n` images from the
/// representative core's share. `kernel`, built for [`slice_problem`], runs
/// the core's first image cold and, when the core owns more, its second in
/// steady state; the remaining images are charged at the steady cost.
pub fn bench_images<K: SliceKernel>(
    arch: &ArchParams,
    problem: &ConvProblem,
    kernel: &K,
    mode: ExecutionMode,
) -> LayerPerf {
    measure_images(arch, problem, kernel, mode, ProfileMode::Off).0
}

fn measure_images<K: SliceKernel>(
    arch: &ArchParams,
    problem: &ConvProblem,
    kernel: &K,
    mode: ExecutionMode,
    pmode: ProfileMode,
) -> (LayerPerf, Option<RegionProfile>) {
    assert_eq!(
        *kernel.problem(),
        slice_problem(arch, problem),
        "the kernel must be built for the representative core's images"
    );
    let s = via_store(arch, kernel, mode, pmode, |profiled| {
        image_pair(arch, kernel, Core::Sim { mode, profiled })
    });
    let chip_cycles = ChipFormula::images(arch, problem).chip(s.report.cycles, s.cold);
    let conflicts_predicted = kernel.identity().1.is_some_and(|c| c.conflicts_predicted);
    let perf = LayerPerf::new(arch, problem, chip_cycles, s.report, conflicts_predicted);
    (perf, s.profile)
}

/// One simulated slice: the representative core's raw measurement before
/// any chip-cycle derivation (the unit the layer store records).
struct Slice {
    /// Cold-image cycles, or the whole reduction run's (bwd-weights).
    cold: u64,
    /// Steady-image cycles (`cold` again for a one-image slice); 0 for a
    /// reduction run.
    steady: u64,
    report: CoreStats,
    profile: Option<RegionProfile>,
}

impl Stored for Slice {
    fn to_record(&self) -> Record {
        Record::Slice {
            a: self.cold,
            b: self.steady,
            report: self.report,
        }
    }

    fn from_record(rec: Record) -> Option<Self> {
        match rec {
            Record::Slice { a, b, report } => Some(Slice {
                cold: a,
                steady: b,
                report,
                profile: None,
            }),
            _ => None,
        }
    }
}

/// Serve `kernel`'s slice through the store's memo, or simulate it with
/// `sim(profiled)`. A [`ProfileMode::Required`] call always simulates — a
/// region profile cannot be cached — but still records the slice. The key
/// names the effective config: ablation overrides individual variables and
/// `create` shrinks blocks under register pressure, so two calls share an
/// entry iff the kernel that actually runs is identical.
fn via_store<K: SliceKernel>(
    arch: &ArchParams,
    kernel: &K,
    mode: ExecutionMode,
    pmode: ProfileMode,
    sim: impl Fn(bool) -> Slice,
) -> Slice {
    let (engine, cfg) = kernel.identity();
    let key = store::slice_key(
        arch,
        kernel.problem(),
        kernel.direction(),
        engine,
        arch.cores.max(1),
        mode,
        cfg,
    );
    let st = store::store();
    if pmode == ProfileMode::Required {
        let s = sim(true);
        st.put(&key, s.to_record());
        return s;
    }
    st.memo(&key, || sim(pmode == ProfileMode::IfSimulated))
}

/// The core a run executes on.
#[derive(Debug, Clone, Copy)]
enum Core {
    /// A simulated core in `mode`, its region profiler on when `profiled`.
    Sim { mode: ExecutionMode, profiled: bool },
    /// A counting core ([`VCore::new_counting`]): no timing, no data.
    Count,
}

/// The representative core ready to run `kernel`: operands allocated (and
/// filled, in functional mode), the profiler on when asked, and the LLC
/// warmed with the pass's input activations. A counting core gets a
/// data-free arena and no warm-up: neither changes an instruction.
fn prepare<K: SliceKernel>(
    arch: &ArchParams,
    kernel: &K,
    core: Core,
) -> (VCore, Arena, K::Tensors) {
    let Core::Sim { mode, profiled } = core else {
        let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
        let t = kernel.alloc(&mut arena);
        return (VCore::new_counting(arch), arena, t);
    };
    let mut arena = Arena::for_mode(mode);
    let t = kernel.alloc(&mut arena);
    if mode.is_functional() {
        fill_operands(&mut arena, t.as_ref());
    }
    let mut core = SimBackend { mode, timed: true }.make_core(arch);
    if profiled {
        core.enable_profiler();
    }
    warm_inputs(&mut core, t.as_ref(), kernel.direction());
    (core, arena, t)
}

/// Deterministic pseudo-random operands (simulated timing never depends on
/// them).
fn fill_operands(arena: &mut Arena, t: &ConvTensors) {
    t.src.fill_random(arena, 11);
    t.dst.fill_random(arena, 13);
    t.wei.fill_random(arena, 17);
}

/// Warm the LLC with the pass's input *activations*: in a training step the
/// activations were just produced by the adjacent layer and are LLC-resident
/// when the convolution starts. The weights are NOT warmed — a ResNet-scale
/// model's weights (~170 MB for ResNet-101) vastly exceed the LLC, so each
/// layer's weights stream in from memory once per step; that cost amortizes
/// over the minibatch, which is the scaling mechanism of Figure 6.
fn warm_inputs(core: &mut VCore, t: &ConvTensors, direction: Direction) {
    for (operand, a) in [(Operand::Src, &t.src), (Operand::Dst, &t.dst)] {
        if operand != direction.output() {
            core.warm_llc(a.base, (a.elems_padded() * 4) as u64);
        }
    }
}

/// The cold/steady image pair on the representative core.
fn image_pair<K: SliceKernel>(arch: &ArchParams, kernel: &K, core: Core) -> Slice {
    let (mut core, mut arena, t) = prepare(arch, kernel, core);
    // Image 0: warm LLC (benchdnn-style repeated iterations), cold L1/L2.
    kernel.run_images(&mut core, &mut arena, &t, 0..1);
    let cold = core.drain().cycles;
    let (steady, report) = if kernel.problem().n > 1 {
        kernel.run_images(&mut core, &mut arena, &t, 1..2);
        let s = core.drain();
        (s.cycles - cold, s)
    } else {
        (cold, core.drain())
    };
    Slice {
        cold,
        steady,
        report,
        profile: core.take_profile(),
    }
}

/// One backward-weights reduction over all of `prim`'s images and the
/// representative core's share of the `RB_c` blocks, served through the
/// store.
fn reduction(
    arch: &ArchParams,
    prim: &ConvPrimitive,
    mode: ExecutionMode,
    pmode: ProfileMode,
) -> Slice {
    via_store(arch, prim, mode, pmode, |profiled| {
        reduction_run(arch, prim, Core::Sim { mode, profiled })
    })
}

/// The reduction run itself on a fresh `core`.
fn reduction_run(arch: &ArchParams, prim: &ConvPrimitive, core: Core) -> Slice {
    let blocks = prim.work_items().div_ceil(arch.cores.max(1)).max(1);
    let (mut core, mut arena, t) = prepare(arch, prim, core);
    prim.execute_core(&mut core, &mut arena, &t, 0..blocks);
    let report = core.drain();
    Slice {
        cold: report.cycles,
        steady: 0,
        report,
        profile: core.take_profile(),
    }
}

/// Host-side performance of the native backend on one layer: what the
/// simulator-free functional path actually costs on this machine.
#[derive(Debug, Clone, Copy)]
pub struct NativePerf {
    /// Host wall time for the full minibatch, in seconds.
    pub host_secs: f64,
    /// Host throughput in GFLOP/s (`problem.flops() / host_secs`).
    pub host_gflops: f64,
    /// Data-movement instruction counters of the lowered kernel (identical
    /// to the simulated stream's data ops).
    pub insts: lsv_vengine::InstCounters,
}

/// Execute one layer's full minibatch on the [`NativeBackend`] and measure
/// host wall time (the `BENCH_native.json` numbers). Operands are filled
/// with deterministic pseudo-random data; the work is executed single-core
/// on the host, exactly as `run_with_backend` would.
pub fn bench_layer_native(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
) -> NativePerf {
    let prim = ConvDesc::new(*problem, direction, algorithm)
        .create(arch, arch.cores.max(1))
        .expect("primitive creation");
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    fill_operands(&mut arena, &t);
    let backend = NativeBackend;
    let start = std::time::Instant::now();
    let report = backend.execute_slice(&prim, &mut arena, &t, 0..prim.work_items());
    let host_secs = start.elapsed().as_secs_f64().max(1e-9);
    NativePerf {
        host_secs,
        host_gflops: problem.flops() as f64 / host_secs / 1e9,
        insts: report.insts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    #[test]
    fn bench_layer_produces_sane_numbers() {
        let arch = sx_aurora();
        let p = ConvProblem::new(32, 64, 64, 14, 14, 3, 3, 1, 1);
        let perf = bench_layer(
            &arch,
            &p,
            Direction::Fwd,
            Algorithm::Bdc,
            ExecutionMode::TimingOnly,
        );
        assert!(perf.gflops > 0.0);
        assert!(
            perf.efficiency > 0.0 && perf.efficiency <= 1.0,
            "eff {}",
            perf.efficiency
        );
        assert!(perf.time_ms > 0.0);
    }

    #[test]
    fn larger_minibatch_does_not_reduce_throughput() {
        let arch = sx_aurora();
        let base = ConvProblem::new(8, 128, 128, 14, 14, 3, 3, 1, 1);
        let small = bench_layer(
            &arch,
            &base,
            Direction::Fwd,
            Algorithm::Bdc,
            ExecutionMode::TimingOnly,
        );
        let big = bench_layer(
            &arch,
            &base.with_minibatch(64),
            Direction::Fwd,
            Algorithm::Bdc,
            ExecutionMode::TimingOnly,
        );
        assert!(
            big.gflops >= small.gflops * 0.95,
            "scaling: {} vs {}",
            big.gflops,
            small.gflops
        );
    }

    #[test]
    fn bwdw_bench_runs() {
        let arch = sx_aurora();
        let p = ConvProblem::new(16, 64, 128, 14, 14, 1, 1, 1, 0);
        let perf = bench_layer(
            &arch,
            &p,
            Direction::BwdWeights,
            Algorithm::Dc,
            ExecutionMode::TimingOnly,
        );
        assert!(perf.gflops > 0.0 && perf.efficiency <= 1.0);
    }
}
