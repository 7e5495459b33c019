//! The baseline library under the direct algorithms' 8-core methodology, so
//! Figure 4/6 compare vednn against DC, BDC and MBDC on identical terms:
//! the chosen kernel is a [`SliceKernel`] measured by
//! [`lsv_conv::perf::bench_images`], the same representative-core slice,
//! warm-up and layer-store memo as `lsv_conv::perf::bench_layer`.
//!
//! The library parallelizes the minibatch across cores in every direction
//! (TensorFlow-VE's data-parallel execution); the backward-weights gradient
//! reduction across cores is not charged (it is negligible next to the
//! per-core GEMM work).

use crate::{VednnAlgo, VednnConv, VednnTensors};
use lsv_arch::ArchParams;
use lsv_conv::perf::{self, LayerPerf, SliceKernel};
use lsv_conv::{ConvProblem, Direction, ExecutionMode, KernelConfig};
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

impl SliceKernel for VednnConv {
    type Tensors = VednnTensors;

    fn problem(&self) -> &ConvProblem {
        &self.problem
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn identity(&self) -> (&'static str, Option<&KernelConfig>) {
        let engine = match self.algo {
            VednnAlgo::DirectSpatial => "vednn:spatial",
            VednnAlgo::Im2colGemm => "vednn:gemm",
        };
        (engine, None)
    }

    fn alloc(&self, arena: &mut Arena) -> VednnTensors {
        self.alloc_tensors(arena)
    }

    fn run_images(
        &self,
        core: &mut VCore,
        arena: &mut Arena,
        t: &VednnTensors,
        images: Range<usize>,
    ) {
        self.execute_core(core, arena, t, images);
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
    let conv = VednnConv::best(arch, perf::slice_problem(arch, problem), direction);
    perf::bench_images(arch, problem, &conv, mode)
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

    /// vednn splits the minibatch in every direction, bwd-weights included,
    /// so each image past the core's first costs the same steady amount:
    /// chip cycles at 1, 2 and 3 images per core are evenly spaced.
    #[test]
    fn vednn_charges_steady_images_in_every_direction() {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 16, 16, 8, 8, 3, 3, 1, 1);
        for dir in Direction::ALL {
            let chip = |ipc: usize| {
                let p = p.with_minibatch(ipc * arch.cores);
                bench_layer_vednn(&arch, &p, dir, ExecutionMode::TimingOnly).cycles
            };
            let (one, two, three) = (chip(1), chip(2), chip(3));
            assert_eq!(three - two, two - one, "{dir}");
        }
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
