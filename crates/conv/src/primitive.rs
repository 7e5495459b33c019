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
//!
//! The pass's [`PassRoles`] decide the tensors' shapes and the weights'
//! role swap; [`Direction::output`] which operands are imported and which
//! one is read back; and the Section 4.3 parallel loop
//! ([`ConvPrimitive::work_items`]) is the one work range every executor
//! hands to [`ConvPrimitive::execute_core`].

use crate::kernels;
use crate::pass::PassRoles;
use crate::problem::{Algorithm, ConvProblem, Direction, Operand};
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
/// layouts. Which tensor is the *output* depends on the direction
/// ([`Direction::output`]): `dst` for forward, `src` for backward-data, `wei`
/// for backward-weights.
#[derive(Debug, Clone, Copy)]
pub struct ConvTensors {
    /// Source activations `S` (or `S_diff` on the backward-data pass).
    pub src: ActTensor,
    /// Weights `W` (or `W_diff` on the backward-weights pass).
    pub wei: WeiTensor,
    /// Destination activations `D` (`D_diff` on the backward passes).
    pub dst: ActTensor,
    /// `wei` is stored role-swapped, `IC`-major (an `IC`-vectorized pass of
    /// the direct kernels): its logical OIHW view is transposed on import
    /// and readback.
    pub wei_swapped: bool,
}

impl AsRef<ConvTensors> for ConvTensors {
    fn as_ref(&self) -> &ConvTensors {
        self
    }
}

impl ConvTensors {
    /// Import `direction`'s *input* operands from logical NCHW/OIHW buffers:
    /// `src` + `wei` for forward, `dst` + `wei` for backward-data, `src` +
    /// `dst` for backward-weights. The output operand is left untouched (its
    /// buffer is not read and may be empty). This is the single definition
    /// of operand import — every backend, vednn, the fuzz harness and the
    /// tests go through it.
    pub fn import_operands(
        &self,
        arena: &mut Arena,
        direction: Direction,
        src_nchw: &[f32],
        wei_oihw: &[f32],
        dst_nchw: &[f32],
    ) {
        let output = direction.output();
        if output != Operand::Src {
            self.src.store_nchw(arena, src_nchw);
        }
        if output != Operand::Wei {
            self.store_weights(arena, wei_oihw);
        }
        if output != Operand::Dst {
            self.dst.store_nchw(arena, dst_nchw);
        }
    }

    /// Read `direction`'s *output* operand back as a logical buffer (NCHW
    /// for the data passes, OIHW for backward-weights) — the readback
    /// counterpart of [`ConvTensors::import_operands`].
    pub fn read_output(&self, arena: &Arena, direction: Direction) -> Vec<f32> {
        match direction.output() {
            Operand::Src => self.src.load_nchw(arena),
            Operand::Wei => self.load_weights(arena),
            Operand::Dst => self.dst.load_nchw(arena),
        }
    }

    /// Import a logical OIHW weights buffer into the (possibly role-swapped)
    /// weights tensor; the swap is folded into the layout copy.
    pub fn store_weights(&self, arena: &mut Arena, oihw: &[f32]) {
        if self.wei_swapped {
            self.wei.store_iohw(arena, oihw);
        } else {
            self.wei.store_oihw(arena, oihw);
        }
    }

    /// Export the weights tensor to a logical OIHW buffer.
    pub fn load_weights(&self, arena: &Arena) -> Vec<f32> {
        if self.wei_swapped {
            self.wei.load_iohw(arena)
        } else {
            self.wei.load_oihw(arena)
        }
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
        // accumulators plus the operand buffers fit the register file.
        while cfg.registers() > arch.n_vregs {
            if !cfg.shrink_block() {
                return Err(UnsupportedReason::RegisterPressure {
                    needed: cfg.registers(),
                    available: arch.n_vregs,
                });
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
        assert!(
            cfg.registers() <= arch.n_vregs,
            "override config needs {} registers, architecture has {}",
            cfg.registers(),
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

    /// The roles of the primitive's pass.
    pub(crate) fn roles(&self) -> PassRoles {
        self.cfg.roles(&self.desc.problem)
    }

    /// Items of the Section 4.3 parallel loop ([`PassRoles::work_items`]):
    /// the images of a data pass, the `RB_c` blocks of backward weights.
    /// [`ConvPrimitive::execute_core`]'s work range indexes them.
    pub fn work_items(&self) -> usize {
        self.roles().work_items(self.cfg.rb_c)
    }

    /// Allocate the operand tensors in their blocked layouts, the weights
    /// with the vectorized channels as rows. The arena order — `S`, `D`,
    /// then `W` — fixes every tensor's address, and so the simulated cache
    /// behaviour.
    pub fn alloc_tensors(&self, arena: &mut Arena) -> ConvTensors {
        let p = &self.desc.problem;
        let roles = self.roles();
        let src = ActTensor::alloc(arena, p.n, p.ic, p.ih, p.iw, self.cfg.src_layout);
        let dst = ActTensor::alloc(arena, p.n, p.oc, p.oh(), p.ow(), self.cfg.dst_layout);
        let (rows, cols) = (roles.c_vec, roles.c_sum);
        let wei = WeiTensor::alloc(arena, rows, cols, p.kh, p.kw, self.cfg.wei_layout);
        ConvTensors {
            src,
            wei,
            dst,
            wei_swapped: roles.vec_over_ic,
        }
    }

    /// Execute the kernel for the parallel-loop items `work` of
    /// [`ConvPrimitive::work_items`] on one simulated core: images on the
    /// data passes, `RB_c` blocks of the scalar-stream channels on backward
    /// weights, each of which reduces over the whole minibatch.
    pub fn execute_core(
        &self,
        core: &mut VCore,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) {
        let p = &self.desc.problem;
        if self.desc.direction == Direction::BwdWeights {
            kernels::bwd_weights::run(&self.cfg, p, core, arena, t, work)
        } else {
            kernels::data::run(&self.cfg, p, core, arena, t, work)
        }
    }

    /// Import the pass's input operands ([`ConvTensors::import_operands`]).
    pub fn import_operands(
        &self,
        arena: &mut Arena,
        t: &ConvTensors,
        src_nchw: &[f32],
        wei_oihw: &[f32],
        dst_nchw: &[f32],
    ) {
        t.import_operands(arena, self.desc.direction, src_nchw, wei_oihw, dst_nchw);
    }

    /// Read the pass's output operand back ([`ConvTensors::read_output`]).
    pub fn read_output(&self, arena: &Arena, t: &ConvTensors) -> Vec<f32> {
        t.read_output(arena, self.desc.direction)
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
        let mut arena = Arena::new();
        let t = self.alloc_tensors(&mut arena);
        self.import_operands(&mut arena, &t, src_nchw, wei_oihw, dst_nchw);
        let report = backend.execute_slice(self, &mut arena, &t, 0..self.work_items());
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
        assert!(prim.cfg().vec_over_ic);
        let mut arena = lsv_vengine::Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let oihw: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw).map(|i| i as f32).collect();
        t.store_weights(&mut arena, &oihw);
        assert_eq!(t.load_weights(&arena), oihw);
        // The swapped tensor's dimensions are transposed.
        assert_eq!(t.wei.oc, p.ic);
        assert_eq!(t.wei.ic, p.oc);
    }

    #[test]
    fn bwdw_work_items_partition_smaller_dim() {
        let arch = sx_aurora();
        // IC=12 < OC=20 -> vectorize OC, the RB_c blocks partition IC.
        let prim = ConvDesc::new(problem(), Direction::BwdWeights, Algorithm::Dc)
            .create(&arch, 1)
            .unwrap();
        assert!(!prim.cfg().vec_over_ic);
        assert_eq!(prim.work_items(), 12usize.div_ceil(prim.cfg().rb_c));
        let fwd = ConvDesc::new(problem(), Direction::Fwd, Algorithm::Dc)
            .create(&arch, 1)
            .unwrap();
        assert_eq!(fwd.work_items(), problem().n);
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
