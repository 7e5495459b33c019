//! Detailed multi-core simulation: every core of the chip is simulated
//! against one physically **shared LLC** (Section 7: "a 2-dimensional mesh
//! NoC connects the cores to a shared 16 MB LLC"), so cross-core weight
//! reuse — "sharing the weights tensor data from the LLC" (Section 4.3) —
//! is modelled for real rather than approximated.
//!
//! This is the slow, high-fidelity counterpart of the representative-core
//! model in [`crate::perf`]: per-core L1/L2 are private, all vector and
//! scalar misses walk into the same LLC instance, and chip wall-time is the
//! maximum per-core cycle count. Cores are *executed* sequentially on the
//! host (deterministic); the temporal interleaving of their LLC accesses is
//! therefore approximate — contention is under-, sharing over-estimated —
//! which is documented in DESIGN.md and quantified by the
//! `detailed_vs_representative` test.
//!
//! The cores split one range, the pass's parallel loop
//! ([`ConvPrimitive::work_items`]), whatever the direction: images on the
//! data passes, `RB_c` blocks on backward weights.

use crate::primitive::ConvPrimitive;
use lsv_cache::{shared_llc, LevelStats};
use lsv_vengine::{Arena, CoreStats, ExecutionMode, VCore};

/// Result of a detailed multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreReport {
    /// Chip wall-clock cycles (slowest core).
    pub wall_cycles: u64,
    /// Per-core statistics in core order.
    pub per_core: Vec<CoreStats>,
    /// Shared-LLC counters (all cores combined).
    pub llc: LevelStats,
}

impl MulticoreReport {
    /// Aggregate instruction counters over all cores.
    pub fn insts(&self) -> lsv_vengine::InstCounters {
        let mut total = lsv_vengine::InstCounters::default();
        for c in &self.per_core {
            total.merge(&c.insts);
        }
        total
    }

    /// Aggregate cache-hierarchy counters over all cores (private L1/L2 plus
    /// each core's view of the shared LLC), invariants checked.
    pub fn cache(&self) -> lsv_cache::HierarchyStats {
        let mut total = lsv_cache::HierarchyStats::default();
        for c in &self.per_core {
            total.merge(&c.cache);
        }
        total.assert_invariants();
        total
    }

    /// Total dynamic instructions over all cores.
    pub fn total_insts(&self) -> u64 {
        self.insts().total()
    }

    /// Aggregate GFLOP/s for a given flop count and clock.
    pub fn gflops(&self, flops: u64, freq_ghz: f64) -> f64 {
        let secs = self.wall_cycles.max(1) as f64 / (freq_ghz * 1e9);
        flops as f64 / secs / 1e9
    }
}

/// The contiguous per-core work ranges the multicore executor uses: `total`
/// parallel-loop items ([`ConvPrimitive::work_items`]: minibatch images for
/// fwd/bwd-data, `RB_c` blocks for bwd-weights) split into `ceil(total/cores)`-sized chunks, empty tails
/// dropped. This is the *single* definition of the Section 4.3 partitioning —
/// [`execute_multicore`] executes it and the `lsv-analyze` static race
/// detector reasons about it, so they can never drift apart.
pub fn partition_ranges(total: usize, cores: usize) -> Vec<std::ops::Range<usize>> {
    let cores = cores.max(1);
    let per = total.div_ceil(cores).max(1);
    (0..cores)
        .map(|c| (c * per).min(total)..((c + 1) * per).min(total))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Simulate every core of the chip executing its slice of `prim`'s work
/// against a shared LLC. Tensors must already be allocated and filled in
/// `arena`.
///
/// Work partitioning follows Section 4.3 ([`ConvPrimitive::work_items`]):
/// the minibatch for the forward and backward-data passes, the smaller
/// feature-map dimension's `RB_c` blocks for backward-weights (each core
/// then reduces over the whole minibatch).
pub fn execute_multicore(
    prim: &ConvPrimitive,
    arena: &mut Arena,
    tensors: &crate::primitive::ConvTensors,
    mode: ExecutionMode,
) -> MulticoreReport {
    let arch = prim.arch().clone();
    let llc = shared_llc(&arch);
    let mut per_core = Vec::with_capacity(arch.cores.max(1));
    let mut wall = 0u64;
    for r in partition_ranges(prim.work_items(), arch.cores) {
        let mut core = VCore::new_with_shared_llc(&arch, mode, llc.clone());
        prim.execute_core(&mut core, arena, tensors, r);
        let s = core.drain();
        wall = wall.max(s.cycles);
        per_core.push(s);
    }
    let llc_stats = llc.borrow().stats();
    MulticoreReport {
        wall_cycles: wall,
        per_core,
        llc: llc_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Algorithm, ConvProblem, Direction};
    use crate::ConvDesc;
    use lsv_arch::presets::sx_aurora;

    fn small_problem(n: usize) -> ConvProblem {
        ConvProblem::new(n, 32, 32, 10, 10, 3, 3, 1, 1)
    }

    #[test]
    fn partition_ranges_cover_disjointly() {
        for (total, cores) in [(8, 8), (7, 8), (16, 8), (3, 8), (1, 1), (100, 7), (0, 4)] {
            let ranges = partition_ranges(total, cores);
            assert!(ranges.len() <= cores);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous, no gap ({total}/{cores})");
                assert!(r.end > r.start, "no empty ranges survive");
                next = r.end;
            }
            assert_eq!(next, total, "ranges cover exactly [0, total)");
        }
        assert!(partition_ranges(0, 4).is_empty());
        // cores = 0 is clamped, not a panic.
        assert_eq!(partition_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn multicore_functional_matches_reference() {
        use rand::{Rng, SeedableRng};
        let arch = sx_aurora();
        let p = small_problem(8); // one image per core
        let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Bdc)
            .create(&arch, arch.cores)
            .unwrap();
        let mut arena = Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        t.src.store_nchw(&mut arena, &src);
        t.store_weights(&mut arena, &wei);
        let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::Functional);
        assert_eq!(report.per_core.len(), 8, "all eight cores got an image");
        let got = t.dst.load_nchw(&arena);
        let want = crate::naive::forward(&p, &src, &wei);
        let err = crate::naive::max_abs_diff(&got, &want);
        assert!(err < 1e-3, "multicore result wrong: {err}");
        assert!(report.wall_cycles > 0);
    }

    #[test]
    fn shared_llc_sees_cross_core_weight_reuse() {
        let arch = sx_aurora();
        let p = small_problem(8);
        let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Dc)
            .create(&arch, arch.cores)
            .unwrap();
        let mut arena = Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::TimingOnly);
        // The weights are read by all 8 cores but fetched from memory once:
        // the shared LLC must show far fewer misses than 8x the W lines.
        let w_lines = (t.wei.elems_padded() * 4).div_ceil(128) as u64;
        assert!(
            report.llc.misses < 8 * w_lines,
            "LLC misses {} should reflect shared W ({} lines)",
            report.llc.misses,
            w_lines
        );
        assert!(report.total_insts() > 0);
    }

    #[test]
    fn bwdw_blocks_partition_across_cores() {
        let arch = sx_aurora();
        let p = ConvProblem::new(4, 64, 48, 8, 8, 1, 1, 1, 0);
        let prim = ConvDesc::new(p, Direction::BwdWeights, Algorithm::Dc)
            .create(&arch, arch.cores)
            .unwrap();
        let blocks = prim.work_items();
        let mut arena = Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::TimingOnly);
        assert!(report.per_core.len() <= arch.cores);
        assert!(report.per_core.len() >= blocks.min(arch.cores));
    }

    #[test]
    fn wall_time_close_to_representative_model_per_image() {
        // The detailed simulation and the representative-core extrapolation
        // must agree within a reasonable band on a uniform workload.
        let arch = sx_aurora();
        let p = small_problem(16); // 2 images per core
        let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Bdc)
            .create(&arch, arch.cores)
            .unwrap();
        let mut arena = Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let detailed = execute_multicore(&prim, &mut arena, &t, ExecutionMode::TimingOnly);
        let repr = crate::perf::bench_layer(
            &arch,
            &p,
            Direction::Fwd,
            Algorithm::Bdc,
            ExecutionMode::TimingOnly,
        );
        let ratio = detailed.wall_cycles as f64 / repr.cycles.max(1) as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "detailed {} vs representative {} (ratio {ratio:.2})",
            detailed.wall_cycles,
            repr.cycles
        );
    }
}
