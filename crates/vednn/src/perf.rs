//! Multi-core performance model for the baseline library, mirroring
//! `lsv_conv::perf::bench_layer` so Figure 4/6 can compare vednn against
//! the direct algorithms on identical terms.
//!
//! The library parallelizes the minibatch across cores in every direction
//! (TensorFlow-VE's data-parallel execution); the backward-weights gradient
//! reduction across cores is not charged (it is negligible next to the
//! per-core GEMM work).

use crate::{VednnAlgo, VednnConv};
use lsv_arch::ArchParams;
use lsv_conv::perf::LayerPerf;
use lsv_conv::{store, ConvProblem, Direction, ExecReport, ExecutionMode};
use lsv_vengine::{Arena, VCore};

/// Simulate the representative core's slice: one cold image and (if
/// `n_sim > 1`) one steady-state image.
fn simulate_slice(
    arch: &ArchParams,
    conv: &VednnConv,
    direction: Direction,
    mode: ExecutionMode,
    n_sim: usize,
) -> (u64, u64, ExecReport) {
    let mut arena = Arena::for_mode(mode);
    let t = conv.alloc_tensors(&mut arena);
    if mode.is_functional() {
        t.src.fill_random(&mut arena, 31);
        t.dst.fill_random(&mut arena, 37);
        t.wei.fill_random(&mut arena, 41);
    }
    let mut core = VCore::new(arch, mode);
    // Warm the LLC with the input activations (just produced by the
    // adjacent layer); weights stream from memory once per step, exactly as
    // for the direct algorithms (see lsv_conv::perf::warm_inputs).
    match direction {
        Direction::Fwd => {
            core.warm_llc(t.src.base, (t.src.elems_padded() * 4) as u64);
        }
        Direction::BwdData => {
            core.warm_llc(t.dst.base, (t.dst.elems_padded() * 4) as u64);
        }
        Direction::BwdWeights => {
            core.warm_llc(t.src.base, (t.src.elems_padded() * 4) as u64);
            core.warm_llc(t.dst.base, (t.dst.elems_padded() * 4) as u64);
        }
    }
    conv.execute_core(&mut core, &mut arena, &t, 0..1);
    let cold = core.drain().cycles;
    if n_sim > 1 {
        conv.execute_core(&mut core, &mut arena, &t, 1..2);
        let s = core.drain();
        (cold, s.cycles - cold, ExecReport::from(s))
    } else {
        let s = core.drain();
        (cold, cold, ExecReport::from(s))
    }
}

/// Simulate one layer under the 8-core execution model with the library's
/// best kernel for the problem. The representative slice is served from the
/// layer store (keyed on the chosen kernel family) when available.
pub fn bench_layer_vednn(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    mode: ExecutionMode,
) -> LayerPerf {
    let cores = arch.cores.max(1);
    let images_per_core = problem.n.div_ceil(cores).max(1);
    let n_sim = images_per_core.min(2);
    let p_sim = problem.with_minibatch(n_sim);
    let conv = VednnConv::best(arch, p_sim, direction);
    let engine = match conv.algo() {
        VednnAlgo::DirectSpatial => "vednn:spatial",
        VednnAlgo::Im2colGemm => "vednn:gemm",
    };
    let key = store::slice_key(arch, &p_sim, direction, engine, cores, mode, None);
    let st = store::store();
    let sim = || simulate_slice(arch, &conv, direction, mode, n_sim);
    let (cold, steady, report) = if let Some((c, s, r)) = st.get_slice(&key) {
        if st.paranoid_sample(&key) {
            assert_eq!(
                sim(),
                (c, s, r),
                "paranoid store recheck diverged for key {}",
                key.canonical()
            );
            st.note_paranoid_recheck();
        }
        (c, s, r)
    } else {
        let v = sim();
        st.put_slice(&key, v.0, v.1, &v.2);
        v
    };
    let chip_cycles = cold + steady * (images_per_core as u64 - 1);
    LayerPerf::new(arch, problem, chip_cycles, report, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    #[test]
    fn vednn_bench_produces_sane_numbers() {
        let arch = sx_aurora();
        let p = ConvProblem::new(16, 32, 32, 28, 28, 3, 3, 1, 1);
        let perf = bench_layer_vednn(&arch, &p, Direction::Fwd, ExecutionMode::TimingOnly);
        assert!(perf.gflops > 0.0);
        assert!(perf.efficiency > 0.0 && perf.efficiency <= 1.0);
    }

    #[test]
    fn vednn_prefers_large_spatial_unit_stride() {
        // The library's qualitative profile: better efficiency on a large
        // 56x56 unit-stride layer than on a 7x7 one.
        let arch = sx_aurora();
        let big = bench_layer_vednn(
            &arch,
            &ConvProblem::new(16, 64, 64, 56, 56, 3, 3, 1, 1),
            Direction::Fwd,
            ExecutionMode::TimingOnly,
        );
        let tiny = bench_layer_vednn(
            &arch,
            &ConvProblem::new(16, 512, 512, 7, 7, 3, 3, 1, 1),
            Direction::Fwd,
            ExecutionMode::TimingOnly,
        );
        assert!(
            big.efficiency > tiny.efficiency,
            "56x56 {} should beat 7x7 {}",
            big.efficiency,
            tiny.efficiency
        );
    }
}
