//! The two-step primitive API of Section 6.5 (modelled on oneDNN):
//!
//! 1. **Problem declaration** — a [`ConvDesc`] (problem + direction +
//!    algorithm) is *created* against an architecture: the auto-tuner and
//!    blocking policies run once, producing a [`ConvPrimitive`] whose
//!    [`crate::KernelConfig`] plays the role of the data structure handed to
//!    the paper's code-generation engine.
//! 2. **Kernel execution** — the primitive allocates its blocked tensors,
//!    imports operands, and replays the generated instruction stream on one
//!    or more simulated cores.

use crate::kernels;
use crate::problem::{Algorithm, ConvProblem, Direction};
use crate::tuning::{kernel_config, KernelConfig};
use lsv_arch::ArchParams;
use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, CoreStats, VCore};
use std::fmt;
use std::ops::Range;

/// Why a primitive could not be created for a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsupportedReason {
    /// The register file cannot hold even a minimal accumulator block plus
    /// the weight double-buffer.
    RegisterPressure {
        /// Registers the configuration wanted.
        needed: usize,
        /// Registers the architecture has.
        available: usize,
    },
    /// An external validator (e.g. the `lsv-analyze` linter) rejected the
    /// tuner's configuration.
    Rejected {
        /// The validator's explanation.
        why: String,
    },
}

impl fmt::Display for UnsupportedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedReason::RegisterPressure { needed, available } => write!(
                f,
                "register pressure: configuration needs {needed} vector registers, \
                 architecture has {available}"
            ),
            UnsupportedReason::Rejected { why } => {
                write!(f, "configuration rejected by validator: {why}")
            }
        }
    }
}

impl std::error::Error for UnsupportedReason {}

/// The operand tensors of one convolution execution, in their blocked
/// layouts. Which tensor is the *output* depends on the direction:
/// `dst` for forward, `src` for backward-data, `wei` for backward-weights.
#[derive(Debug, Clone, Copy)]
pub struct ConvTensors {
    /// Source activations `S` (or `S_diff` on the backward-data pass).
    pub src: ActTensor,
    /// Weights `W` (or `W_diff` on the backward-weights pass). Role-swapped
    /// storage when the config vectorizes over `IC`.
    pub wei: WeiTensor,
    /// Destination activations `D` (`D_diff` on the backward passes).
    pub dst: ActTensor,
}

impl AsRef<ConvTensors> for ConvTensors {
    fn as_ref(&self) -> &ConvTensors {
        self
    }
}

/// A convolution problem declaration (step 1 of the two-step API).
///
/// ```
/// use lsv_arch::presets::sx_aurora;
/// use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction};
///
/// let arch = sx_aurora();
/// let p = ConvProblem::new(1, 64, 64, 14, 14, 3, 3, 1, 1);
/// let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Bdc)
///     .create(&arch, 1)
///     .unwrap();
/// // The generated kernel respects the Formula 4 conflict bound:
/// assert!(!prim.cfg().conflicts_predicted);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvDesc {
    /// The convolution geometry.
    pub problem: ConvProblem,
    /// The training pass.
    pub direction: Direction,
    /// The algorithm to generate code for.
    pub algorithm: Algorithm,
}

impl ConvDesc {
    /// Convenience constructor.
    pub fn new(problem: ConvProblem, direction: Direction, algorithm: Algorithm) -> Self {
        Self {
            problem,
            direction,
            algorithm,
        }
    }

    /// Create the primitive: run the blocking policies and the auto-tuner
    /// (the "code generation" step). `threads` is the number of cores that
    /// will execute concurrently (feeds the tuner's shared-cache correction).
    pub fn create(
        &self,
        arch: &ArchParams,
        threads: usize,
    ) -> Result<ConvPrimitive, UnsupportedReason> {
        let mut cfg = kernel_config(arch, &self.problem, self.direction, self.algorithm, threads);
        // Register-pressure fallback: shrink the register block until the
        // accumulators plus the weight buffers fit the register file.
        let budget = arch.n_vregs;
        let acc = |c: &KernelConfig| match self.direction {
            Direction::BwdWeights => c.rb_c + c.wbuf.max(2),
            _ => c.rb.combined() + c.wbuf,
        };
        while acc(&cfg) > budget {
            match self.direction {
                Direction::BwdWeights if cfg.rb_c > 1 => cfg.rb_c -= 1,
                Direction::BwdWeights => {
                    return Err(UnsupportedReason::RegisterPressure {
                        needed: acc(&cfg),
                        available: budget,
                    })
                }
                _ => {
                    if cfg.rb.rb_h > 1 {
                        cfg.rb.rb_h -= 1;
                    } else if cfg.rb.rb_w > 1 {
                        cfg.rb.rb_w -= 1;
                    } else {
                        return Err(UnsupportedReason::RegisterPressure {
                            needed: acc(&cfg),
                            available: budget,
                        });
                    }
                }
            }
        }
        Ok(ConvPrimitive {
            arch: arch.clone(),
            desc: *self,
            cfg,
            threads: threads.max(1),
        })
    }

    /// Like [`ConvDesc::create`], additionally passing the tuned
    /// configuration through an external `validator` before committing to
    /// it. A validator error becomes [`UnsupportedReason::Rejected`], so a
    /// caller can treat "the linter denies this kernel" exactly like any
    /// other unsupported-primitive condition.
    ///
    /// The validator hook keeps the dependency arrow pointing one way:
    /// `lsv-analyze` depends on this crate and supplies the closure; this
    /// crate never needs to know the linter exists.
    pub fn create_validated(
        &self,
        arch: &ArchParams,
        threads: usize,
        validator: &dyn Fn(&ArchParams, &ConvProblem, &KernelConfig) -> Result<(), String>,
    ) -> Result<ConvPrimitive, UnsupportedReason> {
        let prim = self.create(arch, threads)?;
        validator(arch, &self.problem, &prim.cfg)
            .map_err(|why| UnsupportedReason::Rejected { why })?;
        Ok(prim)
    }

    /// Create a primitive with an explicit configuration, bypassing the
    /// tuner (used by the ablation benches to sweep individual optimization
    /// variables).
    ///
    /// # Panics
    /// Panics if the configuration exceeds the register file.
    pub fn create_with_config(
        &self,
        arch: &ArchParams,
        cfg: KernelConfig,
        threads: usize,
    ) -> ConvPrimitive {
        let needed = match self.direction {
            Direction::BwdWeights => cfg.rb_c + cfg.wbuf.max(2),
            _ => cfg.rb.combined() + cfg.wbuf,
        };
        assert!(
            needed <= arch.n_vregs,
            "override config needs {needed} registers, architecture has {}",
            arch.n_vregs
        );
        ConvPrimitive {
            arch: arch.clone(),
            desc: *self,
            cfg,
            threads: threads.max(1),
        }
    }
}

/// A created convolution primitive (step 2 of the two-step API): layouts and
/// blocking are frozen; `execute_core` replays the generated kernel.
#[derive(Debug, Clone)]
pub struct ConvPrimitive {
    arch: ArchParams,
    desc: ConvDesc,
    cfg: KernelConfig,
    threads: usize,
}

impl ConvPrimitive {
    /// The frozen kernel configuration.
    pub fn cfg(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The descriptor this primitive was created from.
    pub fn desc(&self) -> &ConvDesc {
        &self.desc
    }

    /// The architecture the kernel was generated for.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// The concurrency the primitive was tuned for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of `RB_c` blocks of the smaller feature-map dimension
    /// (the parallel loop of the backward-weights pass).
    pub fn bwdw_small_blocks(&self) -> usize {
        let p = &self.desc.problem;
        let small = if self.cfg.vec_over_ic { p.oc } else { p.ic };
        small.div_ceil(self.cfg.rb_c.max(1))
    }

    /// Allocate the operand tensors in their blocked layouts.
    pub fn alloc_tensors(&self, arena: &mut Arena) -> ConvTensors {
        let p = &self.desc.problem;
        let src = ActTensor::alloc(arena, p.n, p.ic, p.ih, p.iw, self.cfg.src_layout);
        let dst = ActTensor::alloc(arena, p.n, p.oc, p.oh(), p.ow(), self.cfg.dst_layout);
        let wei = if self.cfg.wei_swapped {
            WeiTensor::alloc(arena, p.ic, p.oc, p.kh, p.kw, self.cfg.wei_layout)
        } else {
            WeiTensor::alloc(arena, p.oc, p.ic, p.kh, p.kw, self.cfg.wei_layout)
        };
        ConvTensors { src, wei, dst }
    }

    /// Import a logical OIHW weights buffer into the (possibly role-swapped)
    /// blocked tensor.
    pub fn store_weights(&self, arena: &mut Arena, t: &ConvTensors, oihw: &[f32]) {
        let p = &self.desc.problem;
        assert_eq!(oihw.len(), p.oc * p.ic * p.kh * p.kw);
        if self.cfg.wei_swapped {
            // Stored as (ic-major): transpose the logical view.
            let mut swapped = vec![0.0f32; oihw.len()];
            for oc in 0..p.oc {
                for ic in 0..p.ic {
                    for kh in 0..p.kh {
                        for kw in 0..p.kw {
                            swapped[((ic * p.oc + oc) * p.kh + kh) * p.kw + kw] =
                                oihw[((oc * p.ic + ic) * p.kh + kh) * p.kw + kw];
                        }
                    }
                }
            }
            t.wei.store_oihw(arena, &swapped);
        } else {
            t.wei.store_oihw(arena, oihw);
        }
    }

    /// Export the blocked weights tensor to a logical OIHW buffer.
    pub fn load_weights(&self, arena: &Arena, t: &ConvTensors) -> Vec<f32> {
        let p = &self.desc.problem;
        let raw = t.wei.load_oihw(arena);
        if self.cfg.wei_swapped {
            let mut out = vec![0.0f32; raw.len()];
            for ic in 0..p.ic {
                for oc in 0..p.oc {
                    for kh in 0..p.kh {
                        for kw in 0..p.kw {
                            out[((oc * p.ic + ic) * p.kh + kh) * p.kw + kw] =
                                raw[((ic * p.oc + oc) * p.kh + kh) * p.kw + kw];
                        }
                    }
                }
            }
            out
        } else {
            raw
        }
    }

    /// Execute the kernel for a slice of the work on one simulated core.
    ///
    /// * Forward / backward-data: `n_range` selects the images
    ///   (the minibatch is the parallel loop, Section 4.3).
    /// * Backward-weights: `small_blocks` selects the `RB_c` blocks of the
    ///   smaller feature-map dimension (that loop is parallel); `n_range`
    ///   selects the reduction slice (full range for exact results).
    pub fn execute_core(
        &self,
        core: &mut VCore,
        arena: &mut Arena,
        t: &ConvTensors,
        n_range: Range<usize>,
        small_blocks: Range<usize>,
    ) {
        let p = &self.desc.problem;
        match self.desc.direction {
            Direction::Fwd | Direction::BwdData => {
                kernels::data::run(&self.cfg, p, core, arena, t, n_range)
            }
            Direction::BwdWeights => {
                kernels::bwd_weights::run(&self.cfg, p, core, arena, t, small_blocks, n_range)
            }
        }
    }

    /// Import the direction's *input* operands from logical NCHW/OIHW
    /// buffers into the blocked arena tensors: `src` + `wei` for forward,
    /// `dst` + `wei` for backward-data, `src` + `dst` for backward-weights.
    /// The direction's output operand is left untouched. This is the single
    /// definition of the per-direction operand-import match — every backend,
    /// the fuzz harness and the tests go through it.
    pub fn import_operands(
        &self,
        arena: &mut Arena,
        t: &ConvTensors,
        src_nchw: &[f32],
        wei_oihw: &[f32],
        dst_nchw: &[f32],
    ) {
        match self.desc.direction {
            Direction::Fwd => {
                t.src.store_nchw(arena, src_nchw);
                self.store_weights(arena, t, wei_oihw);
            }
            Direction::BwdData => {
                t.dst.store_nchw(arena, dst_nchw);
                self.store_weights(arena, t, wei_oihw);
            }
            Direction::BwdWeights => {
                t.src.store_nchw(arena, src_nchw);
                t.dst.store_nchw(arena, dst_nchw);
            }
        }
    }

    /// Read the direction's *output* operand back as a logical buffer
    /// (NCHW for the data passes, OIHW for backward-weights) — the readback
    /// counterpart of [`ConvPrimitive::import_operands`].
    pub fn read_output(&self, arena: &Arena, t: &ConvTensors) -> Vec<f32> {
        match self.desc.direction {
            Direction::Fwd => t.dst.load_nchw(arena),
            Direction::BwdData => t.src.load_nchw(arena),
            Direction::BwdWeights => self.load_weights(arena, t),
        }
    }

    /// Single-shot run of the whole problem on an arbitrary backend:
    /// allocates tensors, imports the given operands, executes the full work
    /// range on one core's worth of state, and reads the output back.
    /// Operands are logical NCHW/OIHW buffers.
    pub fn run_with_backend(
        &self,
        backend: &dyn crate::backend::ExecBackend,
        src_nchw: &[f32],
        wei_oihw: &[f32],
        dst_nchw: &[f32],
    ) -> (Vec<f32>, CoreStats) {
        let p = &self.desc.problem;
        let mut arena = Arena::new();
        let t = self.alloc_tensors(&mut arena);
        self.import_operands(&mut arena, &t, src_nchw, wei_oihw, dst_nchw);
        let report =
            backend.execute_slice(self, &mut arena, &t, 0..p.n, 0..self.bwdw_small_blocks());
        (self.read_output(&arena, &t), report)
    }

    /// Convenience single-core functional run over the whole problem on the
    /// simulator backend ([`crate::backend::SimBackend`] in Functional
    /// mode). Operands are logical NCHW/OIHW buffers.
    pub fn run_functional(
        &self,
        src_nchw: &[f32],
        wei_oihw: &[f32],
        dst_nchw: &[f32],
    ) -> (Vec<f32>, CoreStats) {
        self.run_with_backend(
            &crate::backend::SimBackend::functional(),
            src_nchw,
            wei_oihw,
            dst_nchw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    fn problem() -> ConvProblem {
        ConvProblem::new(2, 12, 20, 8, 8, 3, 3, 1, 1)
    }

    #[test]
    fn two_step_api_creates_and_describes() {
        let arch = sx_aurora();
        let desc = ConvDesc::new(problem(), Direction::Fwd, Algorithm::Bdc);
        let prim = desc.create(&arch, 4).unwrap();
        assert_eq!(prim.desc(), &desc);
        assert_eq!(prim.threads(), 4);
        assert_eq!(prim.arch().name, arch.name);
        assert!(prim.cfg().vl <= arch.n_vlen());
    }

    #[test]
    fn alloc_tensors_use_configured_layouts() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            let prim = ConvDesc::new(problem(), Direction::Fwd, alg)
                .create(&arch, 1)
                .unwrap();
            let mut arena = lsv_vengine::Arena::new();
            let t = prim.alloc_tensors(&mut arena);
            assert_eq!(t.src.layout, prim.cfg().src_layout, "{alg}");
            assert_eq!(t.dst.layout, prim.cfg().dst_layout, "{alg}");
            assert_eq!(t.wei.layout, prim.cfg().wei_layout, "{alg}");
        }
    }

    #[test]
    fn swapped_weights_roundtrip() {
        // BwdData stores weights role-swapped; store + load must be the
        // identity on the logical OIHW view.
        let arch = sx_aurora();
        let p = problem();
        let prim = ConvDesc::new(p, Direction::BwdData, Algorithm::Dc)
            .create(&arch, 1)
            .unwrap();
        assert!(prim.cfg().wei_swapped);
        let mut arena = lsv_vengine::Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let oihw: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw).map(|i| i as f32).collect();
        prim.store_weights(&mut arena, &t, &oihw);
        assert_eq!(prim.load_weights(&arena, &t), oihw);
        // The swapped tensor's dimensions are transposed.
        assert_eq!(t.wei.oc, p.ic);
        assert_eq!(t.wei.ic, p.oc);
    }

    #[test]
    fn bwdw_small_blocks_partition_smaller_dim() {
        let arch = sx_aurora();
        // OC(20) < IC? no: IC=12 < OC=20 -> vectorize OC, small dim = IC.
        let prim = ConvDesc::new(problem(), Direction::BwdWeights, Algorithm::Dc)
            .create(&arch, 1)
            .unwrap();
        assert!(!prim.cfg().vec_over_ic);
        let blocks = prim.bwdw_small_blocks();
        assert_eq!(blocks, 12usize.div_ceil(prim.cfg().rb_c));
    }

    #[test]
    fn unsupported_reason_is_displayable() {
        let e = UnsupportedReason::RegisterPressure {
            needed: 99,
            available: 64,
        };
        let s = format!("{e}");
        assert!(s.contains("99") && s.contains("64"));
    }

    #[test]
    #[should_panic(expected = "register")]
    fn create_with_config_rejects_register_overflow() {
        let arch = sx_aurora();
        let desc = ConvDesc::new(problem(), Direction::Fwd, Algorithm::Dc);
        let mut cfg = *desc.create(&arch, 1).unwrap().cfg();
        cfg.rb.rb_w = 60;
        cfg.rb.rb_h = 2;
        desc.create_with_config(&arch, cfg, 1);
    }

    #[test]
    fn run_functional_all_directions_produce_output() {
        let arch = sx_aurora();
        let p = problem();
        let src = vec![0.5f32; p.n * p.ic * p.ih * p.iw];
        let wei = vec![0.25f32; p.oc * p.ic * p.kh * p.kw];
        let dst = vec![1.0f32; p.n * p.oc * p.oh() * p.ow()];
        for dir in Direction::ALL {
            let prim = ConvDesc::new(p, dir, Algorithm::Mbdc)
                .create(&arch, 1)
                .unwrap();
            let (out, report) = prim.run_functional(&src, &wei, &dst);
            let expected_len = match dir {
                Direction::Fwd => dst.len(),
                Direction::BwdData => src.len(),
                Direction::BwdWeights => wei.len(),
            };
            assert_eq!(out.len(), expected_len, "{dir}");
            assert!(report.cycles > 0 && report.insts.vfmas > 0, "{dir}");
        }
    }
}
