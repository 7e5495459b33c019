//! The multi-core performance model used by every figure of the evaluation.
//!
//! The paper runs each layer on all 8 SX-Aurora cores with OpenMP
//! (Section 7). We simulate **one representative core's slice** of the
//! parallel loop and derive chip wall-time from it:
//!
//! * Forward / backward-data: the minibatch is the parallel loop
//!   (Section 4.3). The representative core executes up to two images — the
//!   first cold, the second in steady state — and the remaining
//!   `images_per_core - 2` images are charged at the steady-state cost
//!   (every image of a layer executes the identical instruction stream over
//!   a warmed weight working set).
//! * Backward-weights: the smaller feature-map dimension is the parallel
//!   loop. The core executes its block share over a 1-image and a 2-image
//!   reduction; the marginal cost of the second image is the steady-state
//!   per-image sweep, charged for the remaining `N - 1` images.
//!
//! Chip wall-time is the representative core's total (cores are symmetric;
//! idle cores when `N < cores` show up as reduced GFLOP/s exactly as on the
//! real machine — Figure 6's scaling behaviour).

use crate::backend::{ExecBackend, NativeBackend, SimBackend};
use crate::primitive::{ConvDesc, ConvPrimitive, ExecReport};
use crate::problem::{Algorithm, ConvProblem, Direction};
use crate::store;
use lsv_arch::ArchParams;
use lsv_vengine::{Arena, ExecutionMode, RegionProfile, VCore};

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
    pub report: ExecReport,
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
        report: ExecReport,
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
    bench_layer_impl(arch, problem, direction, algorithm, mode, ProfileMode::Off).0
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
    let (perf, profile) = bench_layer_impl(
        arch,
        problem,
        direction,
        algorithm,
        mode,
        ProfileMode::Required,
    );
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
    bench_layer_impl(
        arch,
        problem,
        direction,
        algorithm,
        mode,
        ProfileMode::IfSimulated,
    )
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

fn bench_layer_impl(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: ExecutionMode,
    pmode: ProfileMode,
) -> (LayerPerf, Option<RegionProfile>) {
    let cores = arch.cores.max(1);
    let (slice, profile) = match direction {
        Direction::Fwd | Direction::BwdData => {
            let make_prim = |p_sim: ConvProblem| {
                ConvDesc::new(p_sim, direction, algorithm)
                    .create(arch, cores)
                    .expect("primitive creation")
            };
            bench_minibatch_parallel_impl(arch, problem, direction, mode, cores, &make_prim, pmode)
        }
        Direction::BwdWeights => bench_bwdw_parallel(arch, problem, algorithm, mode, cores, pmode),
    };
    (finish(arch, problem, direction, algorithm, slice), profile)
}

/// Warm the LLC with the pass's input *activations*: in a training step the
/// activations were just produced by the adjacent layer and are LLC-resident
/// when the convolution starts. The weights are NOT warmed — a ResNet-scale
/// model's weights (~170 MB for ResNet-101) vastly exceed the LLC, so each
/// layer's weights stream in from memory once per step; that cost amortizes
/// over the minibatch, which is the scaling mechanism of Figure 6.
fn warm_inputs(core: &mut VCore, t: &crate::primitive::ConvTensors, direction: Direction) {
    let warm_act = |core: &mut VCore, a: &lsv_tensor::ActTensor| {
        core.warm_llc(a.base, (a.elems_padded() * 4) as u64);
    };
    match direction {
        Direction::Fwd => warm_act(core, &t.src),
        Direction::BwdData => warm_act(core, &t.dst),
        Direction::BwdWeights => {
            warm_act(core, &t.src);
            warm_act(core, &t.dst);
        }
    }
}

/// Measured core slice plus derived chip cycles.
pub struct SliceResult {
    /// Chip wall-clock cycles for the whole minibatch.
    pub chip_cycles: u64,
    /// Raw statistics of the measured core slice.
    pub report: ExecReport,
}

impl SliceResult {
    /// Convert a slice into a [`LayerPerf`] for a problem (ablation-bench
    /// helper; [`bench_layer`] does this internally).
    pub fn into_layer_perf(
        self,
        arch: &ArchParams,
        problem: &ConvProblem,
        direction: Direction,
        algorithm: Algorithm,
    ) -> LayerPerf {
        finish(arch, problem, direction, algorithm, self)
    }
}

/// Like [`bench_layer`] for the minibatch-parallel directions but with an
/// arbitrary primitive factory — the hook the ablation benches use to sweep
/// individual optimization variables.
pub fn bench_minibatch_parallel_with(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    mode: ExecutionMode,
    cores: usize,
    make_prim: &dyn Fn(ConvProblem) -> ConvPrimitive,
) -> SliceResult {
    bench_minibatch_parallel_impl(
        arch,
        problem,
        direction,
        mode,
        cores,
        make_prim,
        ProfileMode::Off,
    )
    .0
}

/// One simulated slice: the representative core's raw measurement before any
/// chip-cycle derivation (the unit the layer store caches).
struct SliceSim {
    /// Cold-image cycles (fwd/bwd-data) or the whole reduction run's cycles
    /// (bwd-weights).
    cold: u64,
    /// Steady-image cycles (fwd/bwd-data with `n_sim > 1`); 0 for
    /// bwd-weights runs.
    steady: u64,
    report: ExecReport,
    profile: Option<RegionProfile>,
}

/// Serve a slice from the layer store, or simulate it (and insert). A
/// [`ProfileMode::Required`] call always simulates — a region profile cannot
/// be cached — but still populates the store. Paranoid mode re-simulates a
/// deterministic sample of hits and asserts bit-equality.
fn slice_via_store(
    key: &store::Key,
    pmode: ProfileMode,
    sim: impl Fn(bool) -> SliceSim,
) -> SliceSim {
    let st = store::store();
    let profile_on_sim = pmode != ProfileMode::Off;
    if !st.enabled() || pmode == ProfileMode::Required {
        let s = sim(profile_on_sim);
        st.put_slice(key, s.cold, s.steady, &s.report);
        return s;
    }
    if let Some((cold, steady, report)) = st.get_slice(key) {
        if st.paranoid_sample(key) {
            let s = sim(false);
            assert_eq!(
                (s.cold, s.steady, s.report),
                (cold, steady, report),
                "paranoid store recheck diverged for key {}",
                key.canonical()
            );
            st.note_paranoid_recheck();
        }
        return SliceSim {
            cold,
            steady,
            report,
            profile: None,
        };
    }
    let s = sim(profile_on_sim);
    st.put_slice(key, s.cold, s.steady, &s.report);
    s
}

fn simulate_minibatch_slice(
    arch: &ArchParams,
    prim: &ConvPrimitive,
    direction: Direction,
    mode: ExecutionMode,
    n_sim: usize,
    profiled: bool,
) -> SliceSim {
    let mut arena = Arena::for_mode(mode);
    let t = prim.alloc_tensors(&mut arena);
    if mode.is_functional() {
        t.src.fill_random(&mut arena, 11);
        t.dst.fill_random(&mut arena, 13);
        t.wei.fill_random(&mut arena, 17);
    }
    let mut core = SimBackend { mode }.make_core(arch);
    if profiled {
        core.enable_profiler();
    }
    warm_inputs(&mut core, &t, direction);
    // Image 0: warm LLC (benchdnn-style repeated iterations), cold L1/L2.
    prim.execute_core(&mut core, &mut arena, &t, 0..1, 0..0);
    let cold = core.drain().cycles;
    let (steady, report) = if n_sim > 1 {
        prim.execute_core(&mut core, &mut arena, &t, 1..2, 0..0);
        let s = core.drain();
        (s.cycles - cold, ExecReport::from(s))
    } else {
        let s = core.drain();
        (cold, ExecReport::from(s))
    };
    let profile = core.take_profile();
    SliceSim {
        cold,
        steady,
        report,
        profile,
    }
}

fn bench_minibatch_parallel_impl(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    mode: ExecutionMode,
    cores: usize,
    make_prim: &dyn Fn(ConvProblem) -> ConvPrimitive,
    pmode: ProfileMode,
) -> (SliceResult, Option<RegionProfile>) {
    let images_per_core = problem.n.div_ceil(cores).max(1);
    let n_sim = images_per_core.min(2);
    let p_sim = problem.with_minibatch(n_sim);
    let prim = make_prim(p_sim);
    // Keyed on the *effective* config of the created primitive: ablation
    // sweeps override individual variables and `create` shrinks blocks under
    // register pressure, so two calls share an entry iff the kernel that
    // actually runs is identical.
    let key = store::slice_key(
        arch,
        &p_sim,
        direction,
        "direct",
        cores,
        mode,
        Some(prim.cfg()),
    );
    let s = slice_via_store(&key, pmode, |profiled| {
        simulate_minibatch_slice(arch, &prim, direction, mode, n_sim, profiled)
    });
    let chip_cycles = s.cold + s.steady * (images_per_core as u64 - 1);
    (
        SliceResult {
            chip_cycles,
            report: s.report,
        },
        s.profile,
    )
}

fn simulate_bwdw_run(
    arch: &ArchParams,
    prim: &ConvPrimitive,
    mode: ExecutionMode,
    cores: usize,
    profiled: bool,
) -> SliceSim {
    let n_sim = prim.desc().problem.n;
    let blocks_per_core = prim.bwdw_small_blocks().div_ceil(cores).max(1);
    let mut arena = Arena::for_mode(mode);
    let t = prim.alloc_tensors(&mut arena);
    if mode.is_functional() {
        t.src.fill_random(&mut arena, 19);
        t.dst.fill_random(&mut arena, 23);
    }
    let mut core = SimBackend { mode }.make_core(arch);
    if profiled {
        core.enable_profiler();
    }
    warm_inputs(&mut core, &t, Direction::BwdWeights);
    prim.execute_core(&mut core, &mut arena, &t, 0..n_sim, 0..blocks_per_core);
    let s = core.drain();
    let profile = core.take_profile();
    SliceSim {
        cold: s.cycles,
        steady: 0,
        report: ExecReport::from(s),
        profile,
    }
}

/// Like [`bench_minibatch_parallel_with`] for the backward-weights pass:
/// the 1-image/2-image reduction pair with an arbitrary primitive factory
/// (the hook the empirical tuner uses to sweep `RB_c`).
pub fn bench_bwdw_parallel_with(
    arch: &ArchParams,
    problem: &ConvProblem,
    mode: ExecutionMode,
    cores: usize,
    make_prim: &dyn Fn(ConvProblem) -> ConvPrimitive,
) -> SliceResult {
    bench_bwdw_parallel_impl(arch, problem, mode, cores, make_prim, ProfileMode::Off).0
}

fn bench_bwdw_parallel(
    arch: &ArchParams,
    problem: &ConvProblem,
    algorithm: Algorithm,
    mode: ExecutionMode,
    cores: usize,
    pmode: ProfileMode,
) -> (SliceResult, Option<RegionProfile>) {
    let make_prim = |p_sim: ConvProblem| {
        ConvDesc::new(p_sim, Direction::BwdWeights, algorithm)
            .create(arch, cores)
            .expect("primitive creation")
    };
    bench_bwdw_parallel_impl(arch, problem, mode, cores, &make_prim, pmode)
}

fn bench_bwdw_parallel_impl(
    arch: &ArchParams,
    problem: &ConvProblem,
    mode: ExecutionMode,
    cores: usize,
    make_prim: &dyn Fn(ConvProblem) -> ConvPrimitive,
    pmode: ProfileMode,
) -> (SliceResult, Option<RegionProfile>) {
    // Marginal-image cost from a 1-image and a 2-image reduction over the
    // core's block share. Only the second (reported) run is profiled.
    let run = |n_sim: usize, pmode: ProfileMode| -> (u64, ExecReport, Option<RegionProfile>) {
        let p_sim = problem.with_minibatch(n_sim);
        let prim = make_prim(p_sim);
        let key = store::slice_key(
            arch,
            &p_sim,
            Direction::BwdWeights,
            "direct",
            cores,
            mode,
            Some(prim.cfg()),
        );
        let s = slice_via_store(&key, pmode, |profiled| {
            simulate_bwdw_run(arch, &prim, mode, cores, profiled)
        });
        (s.cold, s.report, s.profile)
    };
    let (c1, _, _) = run(1, ProfileMode::Off);
    let (c2, report, profile) = run(2.min(problem.n), pmode);
    let marginal = c2.saturating_sub(c1).max(1);
    let chip_cycles = if problem.n <= 2 {
        c2
    } else {
        c2 + marginal * (problem.n as u64 - 2)
    };
    (
        SliceResult {
            chip_cycles,
            report,
        },
        profile,
    )
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
    t.src.fill_random(&mut arena, 11);
    t.dst.fill_random(&mut arena, 13);
    t.wei.fill_random(&mut arena, 17);
    let backend = NativeBackend;
    let start = std::time::Instant::now();
    let report = backend.execute_slice(
        &prim,
        &mut arena,
        &t,
        0..problem.n,
        0..prim.bwdw_small_blocks(),
    );
    let host_secs = start.elapsed().as_secs_f64().max(1e-9);
    NativePerf {
        host_secs,
        host_gflops: problem.flops() as f64 / host_secs / 1e9,
        insts: report.insts,
    }
}

fn finish(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    slice: SliceResult,
) -> LayerPerf {
    let cfg = crate::tuning::kernel_config(arch, problem, direction, algorithm, arch.cores);
    LayerPerf::new(
        arch,
        problem,
        slice.chip_cycles,
        slice.report,
        cfg.conflicts_predicted,
    )
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
