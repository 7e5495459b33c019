//! Optimization-variable selection: register blocking policies (Sections
//! 4.1, 6.2), the micro-kernel footprint auto-tuner (Section 6.1 /
//! Algorithm 3), and the per-algorithm kernel configuration that the
//! "code generation" step of the primitive API consumes (Section 6.5,
//! summarized by Table 2).
//!
//! The pass's [`PassRoles`] fix the vector length, the Table 2 layouts and
//! the scalar stream, so configuration generation chooses only the register
//! block and the micro-kernel tile. A configuration's register budget is
//! [`KernelConfig::registers`], the one definition that creation, the
//! empirical tuner's candidates, overrides and the linter hold against the
//! register file.

use crate::pass::PassRoles;
use crate::problem::{Algorithm, ConvProblem, Direction};
use crate::store;
use lsv_arch::{
    bdc_register_block_range, formula2_rb_min, formula3_predicts_conflicts, ArchParams,
};
use lsv_tensor::{ActivationLayout, WeightLayout};
use std::cell::Cell;
use std::collections::HashSet;

/// Spatial register blocking factors (`RB_w`, `RB_h` of Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterBlocking {
    /// Output-width blocking factor.
    pub rb_w: usize,
    /// Output-height blocking factor.
    pub rb_h: usize,
}

impl RegisterBlocking {
    /// Combined factor `RB_w * RB_h` — the quantity Formulas 2-4 constrain.
    #[inline]
    pub fn combined(&self) -> usize {
        self.rb_w * self.rb_h
    }
}

/// Split a combined register-block target into `(RB_w, RB_h)` for a given
/// output shape: fill the width first (unit-stride direction), then add
/// rows. The combined factor may *exceed* the target by a partial row —
/// appropriate when the target is a lower bound (Formula 2).
pub fn split_register_block(target: usize, ow: usize, oh: usize) -> RegisterBlocking {
    let target = target.max(1);
    let rb_w = ow.min(target).max(1);
    let rb_h = oh.min(target.div_ceil(rb_w)).max(1);
    RegisterBlocking { rb_w, rb_h }
}

/// Like [`split_register_block`] but never exceeding the target —
/// appropriate when the target is an upper bound (BDC's Formula 4 conflict
/// bound).
pub fn split_register_block_capped(target: usize, ow: usize, oh: usize) -> RegisterBlocking {
    let target = target.max(1);
    let rb_w = ow.min(target).max(1);
    let rb_h = oh.min((target / rb_w).max(1));
    RegisterBlocking { rb_w, rb_h }
}

/// Micro-kernel loop sizes chosen by the auto-tuner (Algorithm 3's
/// `kh_i`, `kw_i`, `ic_i` outputs). For the backward-data pass `c_i` is the
/// grain of the scalar-summed `OC` loop; the paper's `ic_i` name is kept for
/// the forward orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroTile {
    /// Kernel-height iterations inside the micro-kernel (`kh_i`).
    pub kh_i: usize,
    /// Kernel-width iterations inside the micro-kernel (`kw_i`).
    pub kw_i: usize,
    /// Scalar-summed channel iterations inside the micro-kernel (`ic_i`).
    pub c_i: usize,
}

/// Algorithm 3: shrink the micro-kernel working set until it fits the LLC,
/// preferring *loop resizing* (halve `ic_i`, floor `2*N_cline`) over *loop
/// reordering* (hoist `KH`, then `KW`, out of the micro-kernel).
///
/// `c_sum` is the scalar-summed channel extent (IC forward, OC backward-
/// data); `c_vec` the vectorized one. `threads` multiplies the activation
/// footprints as prescribed for shared caches (Section 6.1's closing note).
///
/// Beyond the paper: after both reordering steps the loop could still
/// exceed the LLC with `ic_i = IC`; we keep halving down to `N_cline` and
/// then stop unconditionally, guaranteeing termination.
#[allow(clippy::too_many_arguments)]
pub fn autotune_microkernel(
    arch: &ArchParams,
    kh: usize,
    kw: usize,
    c_sum: usize,
    c_vec: usize,
    ih: usize,
    iw: usize,
    rb: RegisterBlocking,
    threads: usize,
) -> MicroTile {
    let ncline = arch.n_cline();
    let cvb = c_vec.min(arch.n_vlen()).max(1);
    let llc_bytes = arch.llc.size;
    let threads = threads.max(1);
    let (mut kh_i, mut kw_i, mut c_i) = (kh, kw, c_sum);
    loop {
        let nih = ih.min(rb.rb_h + kh_i - 1);
        let niw = iw.min(rb.rb_w + kw_i - 1);
        let w_mem = cvb * c_i * kh_i * kw_i;
        let d_mem = cvb * rb.rb_h * rb.rb_w * threads;
        let s_mem = c_i * nih * niw * threads;
        if (w_mem + d_mem + s_mem) * arch.elem_bytes() <= llc_bytes {
            break;
        }
        if c_i > 2 * ncline {
            c_i /= 2;
        } else if kh_i > 1 {
            kh_i = 1;
            c_i = c_sum;
        } else if kw_i > 1 {
            kw_i = 1;
            c_i = c_sum;
        } else if c_i > ncline {
            c_i = (c_i / 2).max(ncline);
        } else {
            break;
        }
    }
    MicroTile { kh_i, kw_i, c_i }
}

/// Complete kernel configuration produced at primitive-creation time — the
/// structure the paper's code-generation engine consumes (Section 6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Which algorithm this configuration implements.
    pub algorithm: Algorithm,
    /// Which pass it computes.
    pub direction: Direction,
    /// Working SIMD length of all vector instructions
    /// (`vl = min(C_vec, N_vlen)`, Algorithm 2 line 5).
    pub vl: usize,
    /// Spatial register blocking (fwd / bwd-data).
    pub rb: RegisterBlocking,
    /// Channel register blocking for the backward-weights pass (`RB_c`).
    pub rb_c: usize,
    /// Micro-kernel loop grains from the auto-tuner.
    pub tile: MicroTile,
    /// Layout of the `S` tensor.
    pub src_layout: ActivationLayout,
    /// Layout of the `D` tensor.
    pub dst_layout: ActivationLayout,
    /// Layout of the `W` tensor (stored role-swapped when
    /// [`KernelConfig::vec_over_ic`], so the vector dimension stays
    /// innermost).
    pub wei_layout: WeightLayout,
    /// The pass vectorizes `IC` instead of `OC` ([`PassRoles::vec_over_ic`]):
    /// the weights are stored with the OC/IC roles swapped.
    pub vec_over_ic: bool,
    /// Number of weight-vector double-buffer registers the generated
    /// micro-kernel rotates through to hide the LLC vector-load latency.
    pub wbuf: usize,
    /// Formula 3 evaluated for this configuration (reported in the CSVs and
    /// validated against measured conflict misses in the tests).
    pub conflicts_predicted: bool,
}

impl KernelConfig {
    /// The roles of this configuration's pass on `p`.
    pub(crate) fn roles(&self, p: &ConvProblem) -> PassRoles {
        let roles = PassRoles::new(p, self.direction);
        debug_assert_eq!(
            roles.vec_over_ic, self.vec_over_ic,
            "configuration generated for another problem"
        );
        roles
    }

    /// The combined register block the inner loop rotates its accumulators
    /// through — `RB_w * RB_h` on a data pass, `RB_c` on backward weights:
    /// the quantity Formulas 2-4 constrain.
    pub fn block(&self) -> usize {
        match self.direction {
            Direction::BwdWeights => self.rb_c,
            _ => self.rb.combined(),
        }
    }

    /// Operand-buffer registers the micro-kernel rotates after its
    /// accumulators: `wbuf` weight vectors on a data pass, at least two
    /// activation vectors on backward weights.
    pub fn buffers(&self) -> usize {
        match self.direction {
            Direction::BwdWeights => self.wbuf.max(2),
            _ => self.wbuf,
        }
    }

    /// Vector registers the micro-kernel needs: accumulators plus operand
    /// buffers — the one register budget that creation, the tuner, overrides
    /// and the linter hold against the architecture.
    pub fn registers(&self) -> usize {
        self.block() + self.buffers()
    }

    /// Channel block `A_b` of the scalar-stream tensor.
    pub(crate) fn stream_block(&self) -> usize {
        if self.vec_over_ic {
            self.dst_layout.cb
        } else {
            self.src_layout.cb
        }
    }

    /// Formula 3 for this configuration's scalar stream under `roles`.
    fn predicts_conflicts(&self, arch: &ArchParams, roles: &PassRoles) -> bool {
        formula3_predicts_conflicts(arch, self.stream_block(), self.block(), roles.stream_stride)
    }

    /// Shrink the register block by one step (`RB_h` first, then `RB_w`;
    /// `RB_c`, which the tile's channel grain follows, on backward weights).
    /// Returns false when the block is already minimal.
    pub(crate) fn shrink_block(&mut self) -> bool {
        if self.direction == Direction::BwdWeights {
            if self.rb_c <= 1 {
                return false;
            }
            self.rb_c -= 1;
            self.tile.c_i = self.rb_c;
        } else if self.rb.rb_h > 1 {
            self.rb.rb_h -= 1;
        } else if self.rb.rb_w > 1 {
            self.rb.rb_w -= 1;
        } else {
            return false;
        }
        true
    }

    /// The weight-buffer depth the generator picks for the current block:
    /// enough vectors in flight to hide the LLC vector-load latency on a
    /// data pass, four activation vectors on backward weights.
    fn pick_wbuf(&mut self, arch: &ArchParams) {
        self.wbuf = match self.direction {
            Direction::BwdWeights => 4,
            _ => wbuf_depth(arch, self.vl, self.rb.combined()),
        };
    }
}

/// Weight-buffer depth needed to hide the LLC vector-load latency behind
/// `rb_combined` FMAs of `B_seq` instructions each.
fn wbuf_depth(arch: &ArchParams, vl: usize, rb_combined: usize) -> usize {
    // One inner iteration issues rb * B_seq instructions through a
    // `scalar_issue_width`-wide frontend.
    let per_iter =
        ((rb_combined * arch.b_seq).max(1) as u64).div_ceil(arch.scalar_issue_width as u64);
    let lat = arch.lat.llc + arch.vector_occupancy(vl);
    (lat.div_ceil(per_iter.max(1)) as usize + 1).clamp(2, 12)
}

/// Choose the combined register-block target for an algorithm given the
/// scalar-stream parameters (`ab_elems`, effective stride).
fn rb_target(arch: &ArchParams, algorithm: Algorithm, ab_elems: usize, c_str_eff: usize) -> usize {
    match algorithm {
        // State of the art: Formula 2 (met with equality: using more
        // registers buys nothing once the pipelines are full).
        Algorithm::Dc => formula2_rb_min(arch),
        // BDC: Formula 4 range.
        Algorithm::Bdc => bdc_register_block_range(arch, ab_elems, c_str_eff).pick(),
        // MBDC eliminates the conflict bound via the layout, so the
        // dependency bound of Formula 2 is the only constraint.
        Algorithm::Mbdc => formula2_rb_min(arch),
    }
}

/// Build the full kernel configuration for (`arch`, `problem`, `direction`,
/// `algorithm`). `threads` feeds the auto-tuner's shared-cache correction.
///
/// The pass's [`PassRoles`] fix the vector length, the Table 2 layouts and
/// the scalar stream; the two arms only choose the register block.
pub fn kernel_config(
    arch: &ArchParams,
    p: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    threads: usize,
) -> KernelConfig {
    let roles = PassRoles::new(p, direction);
    let (src_layout, dst_layout, wei_layout) = roles.layouts(arch, algorithm);
    let mut cfg = KernelConfig {
        algorithm,
        direction,
        vl: roles.c_vec.min(arch.n_vlen()),
        rb: RegisterBlocking { rb_w: 1, rb_h: 1 },
        rb_c: 0,
        tile: MicroTile {
            kh_i: p.kh,
            kw_i: p.kw,
            c_i: roles.c_sum.min(arch.n_vlen()),
        },
        src_layout,
        dst_layout,
        wei_layout,
        vec_over_ic: roles.vec_over_ic,
        wbuf: 0,
        conflicts_predicted: false,
    };
    if direction == Direction::BwdWeights {
        // Register-block the scalar-stream channels with RB_c (Section
        // 4.1). The Formula 4 range targets the spatial register blocking
        // of the data passes; Section 8 observes that fine-tuning the
        // register block "is not as effective in this direction", so every
        // algorithm keeps the Formula 2 target here.
        cfg.rb_c = roles.c_sum.min(formula2_rb_min(arch)).max(1);
        cfg.tile.c_i = cfg.rb_c;
    } else {
        let target = rb_target(arch, algorithm, cfg.stream_block(), roles.stream_stride);
        let (h, w) = roles.plane;
        cfg.rb = match algorithm {
            // Formula 4's value is a conflict *upper* bound, additionally
            // capped by the register file.
            Algorithm::Bdc => split_register_block_capped(
                target.min(arch.n_vregs.saturating_sub(12)).max(1),
                w,
                h,
            ),
            _ => split_register_block(target, w, h),
        };
        if algorithm != Algorithm::Dc {
            let (ih, iw) = roles.tapped;
            cfg.tile = autotune_microkernel(
                arch,
                p.kh,
                p.kw,
                roles.c_sum,
                roles.c_vec,
                ih,
                iw,
                cfg.rb,
                threads,
            );
        }
    }
    cfg.pick_wbuf(arch);
    cfg.conflicts_predicted = cfg.predicts_conflicts(arch, &roles);
    cfg
}

/// Outcome of the empirical register-block search (`lsvconv tune`).
///
/// `generated` raw candidate targets normalize (clamping to the output
/// shape, the register file, and the weight-buffer depth rule) down to
/// `unique` distinct effective configurations — the dedupe that keeps the
/// tuner from simulating the same kernel twice. The search simulates only
/// the candidates whose instruction-count bound could still beat the best
/// so far (`bounded` counts the rest), and the decision itself is stored,
/// so `store_hits + simulated` counts the slice evaluations a call issued,
/// not one per unique candidate.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Raw candidate targets enumerated.
    pub generated: usize,
    /// Distinct effective configurations after key normalization.
    pub unique: usize,
    /// Slice evaluations served by the layer store.
    pub store_hits: u64,
    /// Slice evaluations actually simulated.
    pub simulated: u64,
    /// Candidates this call's search settled by their instruction-count
    /// bound, without simulating them (0 when a stored decision is used
    /// without a paranoid re-check).
    pub bounded: usize,
    /// Chip cycles of the analytic (Formula-driven) configuration.
    pub analytic_cycles: u64,
    /// Best configuration found (ties keep the earlier candidate, so the
    /// analytic pick wins a tie).
    pub best_cfg: KernelConfig,
    /// Chip cycles of the best configuration.
    pub best_cycles: u64,
}

impl TuneReport {
    /// Publish this search's counters into a metrics registry under the
    /// `tuner.` namespace.
    pub fn publish_metrics(&self, reg: &lsv_obs::MetricsRegistry) {
        reg.counter_add("tuner.sweeps", 1);
        reg.counter_add("tuner.generated", self.generated as u64);
        reg.counter_add("tuner.unique", self.unique as u64);
        reg.counter_add("tuner.store_hits", self.store_hits);
        reg.counter_add("tuner.simulated", self.simulated);
        reg.counter_add("tuner.bounded", self.bounded as u64);
    }
}

/// Names the candidate enumeration in the stored decision's key: a decision
/// is an index into the unique list, so a change to candidate generation,
/// order or dedupe must change this tag.
const CANDIDATES: &str = "rb-sweep-1";

/// Pick the register block of one (problem, direction, algorithm)
/// empirically: enumerate every combined target the register file admits,
/// normalize each to its effective [`KernelConfig`], dedupe candidates whose
/// canonical store key coincides, and find the fastest survivor with an
/// exact best-first search. The winner's index is stored
/// under a [`store::choice_key`] covering everything the chip formula reads
/// (shape, images per core or minibatch, algorithm, mode), so warm replays
/// and other minibatches with the same formula skip the search.
pub fn tune_empirical(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: lsv_vengine::ExecutionMode,
) -> Result<TuneReport, crate::primitive::UnsupportedReason> {
    let (generated, cands) = candidates(arch, problem, direction, algorithm, mode)?;
    let evals = Evals {
        arch,
        problem,
        mode,
        issued: Cell::new(0),
        hits: Cell::new(0),
    };
    let bounded = Cell::new(0);
    let search = || {
        let (winner, settled) = best_first(&evals, &cands);
        bounded.set(settled);
        Decision(winner)
    };
    let key = decision_key(arch, problem, direction, algorithm, mode);
    // An index past the list can only come from a damaged entry.
    let in_list = |d: &Decision| {
        if d.0 < cands.len() {
            Ok(())
        } else {
            Err(format!("choice {} past {} candidates", d.0, cands.len()))
        }
    };
    let Decision(winner) = store::store().memo_checked(&key, search, in_list);
    let analytic_cycles = evals.cycles(&cands[0]);
    let best_cycles = if winner == 0 {
        analytic_cycles
    } else {
        evals.cycles(&cands[winner])
    };
    Ok(TuneReport {
        generated,
        unique: cands.len(),
        store_hits: evals.hits.get(),
        simulated: evals.issued.get().saturating_sub(evals.hits.get()),
        bounded: bounded.get(),
        analytic_cycles,
        best_cfg: cands[winner],
        best_cycles,
    })
}

/// The register-block candidates of one (problem, direction, algorithm):
/// every combined target the register file could admit, normalized exactly
/// like `create` would, deduped on the key their evaluation is cached
/// under. Returns the number generated and the unique list, analytic
/// configuration first.
fn candidates(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: lsv_vengine::ExecutionMode,
) -> Result<(usize, Vec<KernelConfig>), crate::primitive::UnsupportedReason> {
    use crate::primitive::ConvDesc;

    let cores = arch.cores.max(1);
    let base = *ConvDesc::new(*problem, direction, algorithm)
        .create(arch, cores)?
        .cfg();
    let roles = base.roles(problem);

    let mut generated = 0usize;
    let mut seen = HashSet::new();
    let mut unique_cfgs: Vec<KernelConfig> = Vec::new();
    // The key a candidate's evaluation will be cached under (the principal
    // simulated slice): dedupe on the same canonical string.
    let p_key = crate::perf::kept_problem(arch, problem, direction);
    let mut admit = |cfg: KernelConfig, unique_cfgs: &mut Vec<KernelConfig>| {
        let key = store::slice_key(arch, &p_key, direction, "direct", cores, mode, Some(&cfg));
        if seen.insert(key.canonical().to_string()) {
            unique_cfgs.push(cfg);
        }
    };
    // The analytic configuration is always a candidate (and comes first,
    // so ties keep it).
    admit(base, &mut unique_cfgs);
    let (h, w) = roles.plane;
    for target in 1..=arch.n_vregs.saturating_sub(2) {
        generated += 1;
        let mut cfg = base;
        if direction == Direction::BwdWeights {
            cfg.rb_c = roles.c_sum.min(target).max(1);
            cfg.tile.c_i = cfg.rb_c;
        } else {
            cfg.rb = split_register_block_capped(target, w, h);
        }
        cfg.pick_wbuf(arch);
        // Register-pressure clamp. Unlike `ConvDesc::create`, which shrinks
        // the block under the analytic `wbuf`, this re-derives `wbuf` after
        // every shrink step.
        while cfg.registers() > arch.n_vregs && cfg.shrink_block() {
            cfg.pick_wbuf(arch);
        }
        if cfg.registers() > arch.n_vregs {
            continue;
        }
        cfg.conflicts_predicted = cfg.predicts_conflicts(arch, &roles);
        admit(cfg, &mut unique_cfgs);
    }

    Ok((generated, unique_cfgs))
}

/// One tuner call's slice evaluations through the layer meter: how many it
/// issued and how many the store served.
struct Evals<'a> {
    arch: &'a ArchParams,
    problem: &'a ConvProblem,
    mode: lsv_vengine::ExecutionMode,
    issued: Cell<u64>,
    hits: Cell<u64>,
}

impl Evals<'_> {
    /// Run `f`, which evaluates `slices` slices through the store.
    fn track<R>(&self, slices: u64, f: impl FnOnce() -> R) -> R {
        let st = store::store();
        let before = st.stats();
        let r = f();
        self.issued.set(self.issued.get() + slices);
        self.hits
            .set(self.hits.get() + st.stats().delta(&before).hits());
        r
    }

    /// Whether evaluating `cfg` needs its 1-image bwd-weights reduction.
    fn first_reduction(&self, cfg: &KernelConfig) -> bool {
        crate::perf::ChipFormula::of(self.arch, self.problem, cfg.direction).reads_first_reduction()
    }

    /// `cfg`'s chip cycles ([`crate::perf::bench_config`]: one slice, plus
    /// the 1-image reduction of bwd-weights beyond 2 images).
    fn cycles(&self, cfg: &KernelConfig) -> u64 {
        let slices = 1 + self.first_reduction(cfg) as u64;
        self.track(slices, || {
            crate::perf::bench_config(self.arch, self.problem, cfg, self.mode).cycles
        })
    }

    /// `cfg`'s chip-cycle lower bound ([`crate::perf::chip_cycles_lower_bound`]:
    /// counted, plus the simulated 1-image reduction of bwd-weights beyond
    /// 2 images).
    fn bound(&self, cfg: &KernelConfig) -> Option<u64> {
        let slices = self.first_reduction(cfg) as u64;
        self.track(slices, || {
            crate::perf::chip_cycles_lower_bound(self.arch, self.problem, cfg, self.mode)
        })
    }
}

/// Exact best-first search over `cands`, analytic first: the index of the
/// fewest chip cycles, ties to the lower index — the winner of simulating
/// every candidate in order and keeping each strictly smaller one — plus
/// how many candidates the bound settled without a simulation.
///
/// The analytic candidate is simulated first. The others are visited in
/// (lower bound, index) order; once the next one's pair exceeds the best's
/// (cycles, index), its cycles could at best tie with a later index, and so
/// could every candidate after it. A candidate without a bound sorts first
/// and is always simulated.
fn best_first(evals: &Evals, cands: &[KernelConfig]) -> (usize, usize) {
    let mut best = (evals.cycles(&cands[0]), 0);
    let mut order: Vec<(u64, usize)> = cands
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, cfg)| (evals.bound(cfg).unwrap_or(0), i))
        .collect();
    order.sort_unstable();
    for (k, &(bound, i)) in order.iter().enumerate() {
        if (bound, i) > best {
            return (best.1, order.len() - k);
        }
        best = best.min((evals.cycles(&cands[i]), i));
    }
    (best.1, 0)
}

/// The tuner's decision as the layer store records it: the winner's index
/// in the deterministic unique candidate list.
struct Decision(usize);

impl store::Stored for Decision {
    fn to_record(&self) -> store::Record {
        store::Record::Choice(u8::try_from(self.0).expect("fewer than 256 candidates"))
    }

    fn from_record(rec: store::Record) -> Option<Self> {
        match rec {
            store::Record::Choice(i) => Some(Decision(i as usize)),
            _ => None,
        }
    }
}

/// Key of the tuner's decision: everything the chip formula reads — the
/// shape, the images per core (fwd/bwd-data) or the minibatch
/// (bwd-weights), the algorithm and the mode — plus the candidate
/// enumeration's tag.
pub fn decision_key(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    mode: lsv_vengine::ExecutionMode,
) -> store::Key {
    let multiplier = match crate::perf::ChipFormula::of(arch, problem, direction) {
        crate::perf::ChipFormula::Images { ipc } => format!("ipc{ipc}"),
        crate::perf::ChipFormula::Reduction { n } => format!("n{n}"),
    };
    let what = format!(
        "tuned-{}-{}-{multiplier}-{CANDIDATES}",
        algorithm.short_name(),
        store::mode_tag(mode)
    );
    store::choice_key(arch, &problem.with_minibatch(1), direction, &what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    fn layer(ic: usize, oc: usize, hw: usize, k: usize, s: usize, p: usize) -> ConvProblem {
        ConvProblem::new(256, ic, oc, hw, hw, k, k, s, p)
    }

    #[test]
    fn split_register_block_shapes() {
        let rb = split_register_block(24, 56, 56);
        assert_eq!((rb.rb_w, rb.rb_h), (24, 1));
        let rb = split_register_block(24, 14, 14);
        assert_eq!((rb.rb_w, rb.rb_h), (14, 2));
        let rb = split_register_block(24, 7, 7);
        assert_eq!((rb.rb_w, rb.rb_h), (7, 4));
        let rb = split_register_block(8, 56, 56);
        assert_eq!((rb.rb_w, rb.rb_h), (8, 1));
        // degenerate shapes clamp
        let rb = split_register_block(24, 2, 1);
        assert_eq!((rb.rb_w, rb.rb_h), (2, 1));
    }

    #[test]
    fn dc_conflict_predictions_match_paper_fwdd() {
        // Section 8: conflicts predicted for layers 4,5,8-10,13-18 (fwdd).
        let arch = sx_aurora();
        let layers = crate::tuning::tests::table3();
        let expected = [
            false, false, false, false, true, true, false, false, true, true, true, false, false,
            true, true, true, true, true, true,
        ];
        for (i, l) in layers.iter().enumerate() {
            let cfg = kernel_config(&arch, l, Direction::Fwd, Algorithm::Dc, 8);
            assert_eq!(
                cfg.conflicts_predicted, expected[i],
                "layer {i} fwdd conflict prediction"
            );
        }
    }

    #[test]
    fn dc_conflict_predictions_match_paper_bwdd() {
        // Section 8: conflicts predicted for layers 4,7,9,12,14-18 (bwdd).
        let arch = sx_aurora();
        let layers = table3();
        let expected = [
            false, false, false, false, true, false, false, true, false, true, false, false, true,
            false, true, true, true, true, true,
        ];
        for (i, l) in layers.iter().enumerate() {
            let cfg = kernel_config(&arch, l, Direction::BwdData, Algorithm::Dc, 8);
            assert_eq!(
                cfg.conflicts_predicted, expected[i],
                "layer {i} bwdd conflict prediction"
            );
        }
    }

    #[test]
    fn bdc_rarely_predicts_conflicts() {
        let arch = sx_aurora();
        for (i, l) in table3().iter().enumerate() {
            for dir in [Direction::Fwd, Direction::BwdData] {
                let cfg = kernel_config(&arch, l, dir, Algorithm::Bdc, 8);
                // BDC's RB choice is conflict-free wherever Formula 4 has a
                // non-empty range; only the strided 512-channel layers are
                // borderline.
                if cfg.conflicts_predicted {
                    assert!(
                        l.stride_w > 1,
                        "layer {i} {dir}: BDC conflicts only acceptable on strided layers"
                    );
                }
            }
        }
    }

    #[test]
    fn mbdc_never_predicts_conflicts() {
        let arch = sx_aurora();
        for (i, l) in table3().iter().enumerate() {
            for dir in Direction::ALL {
                let cfg = kernel_config(&arch, l, dir, Algorithm::Mbdc, 8);
                assert!(
                    !cfg.conflicts_predicted,
                    "layer {i} {dir}: MBDC layout must eliminate conflicts"
                );
            }
        }
    }

    #[test]
    fn mbdc_uses_cline_blocked_activations() {
        let arch = sx_aurora();
        let cfg = kernel_config(
            &arch,
            &layer(256, 512, 28, 1, 1, 0),
            Direction::Fwd,
            Algorithm::Mbdc,
            8,
        );
        assert_eq!(cfg.src_layout.cb, 32);
        assert_eq!(cfg.dst_layout.cb, 32);
        assert_eq!(
            cfg.wei_layout.ocb, 512,
            "weights keep the vector dim contiguous"
        );
        assert_eq!(cfg.wei_layout.icb, 32);
    }

    #[test]
    fn dc_uses_vlen_blocked_activations() {
        let arch = sx_aurora();
        let cfg = kernel_config(
            &arch,
            &layer(256, 512, 28, 1, 1, 0),
            Direction::Fwd,
            Algorithm::Dc,
            8,
        );
        assert_eq!(cfg.src_layout.cb, 256, "dynamic C_b = min(IC, N_vlen)");
        assert_eq!(cfg.dst_layout.cb, 512);
        assert_eq!(cfg.vl, 512);
    }

    #[test]
    fn bdc_register_block_respects_formula4_where_dc_conflicts() {
        let arch = sx_aurora();
        let p = layer(512, 512, 28, 1, 1, 0);
        let dc = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 8);
        let bdc = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 8);
        assert_eq!(dc.rb.combined(), 24);
        // Formula 4 on A_b = 512, stride 1: largest conflict-free block 16.
        assert_eq!(bdc.rb.combined(), 16);
        assert!(dc.conflicts_predicted);
        assert!(!bdc.conflicts_predicted);
    }

    #[test]
    fn autotuner_resizes_large_3x3_kernels() {
        // Layer 16-like shape at full vlen blocking would put a 9.4 MB W
        // sub-tensor plus 8 threads of activations in a 16 MB LLC.
        let arch = sx_aurora();
        let rb = RegisterBlocking { rb_w: 7, rb_h: 2 };
        let tile = autotune_microkernel(&arch, 3, 3, 512, 512, 7, 7, rb, 8);
        let w_bytes = 512.min(arch.n_vlen()) * tile.c_i * tile.kh_i * tile.kw_i * 4;
        assert!(w_bytes <= arch.llc.size, "tuned W sub-tensor fits the LLC");
        assert!(
            tile.c_i >= arch.n_cline(),
            "loop resize floor is N_cline-ish"
        );
    }

    #[test]
    fn autotuner_keeps_small_kernels_whole() {
        let arch = sx_aurora();
        let rb = RegisterBlocking { rb_w: 24, rb_h: 1 };
        let tile = autotune_microkernel(&arch, 1, 1, 64, 64, 56, 56, rb, 8);
        assert_eq!(
            tile,
            MicroTile {
                kh_i: 1,
                kw_i: 1,
                c_i: 64
            }
        );
    }

    #[test]
    fn autotuner_terminates_on_adversarial_input() {
        // A pathological shape that cannot fit even after every strategy.
        let arch = sx_aurora();
        let rb = RegisterBlocking { rb_w: 56, rb_h: 1 };
        let tile = autotune_microkernel(&arch, 7, 7, 1 << 20, 1 << 20, 4096, 4096, rb, 64);
        assert!(tile.c_i >= 1, "terminated with a sane tile: {tile:?}");
    }

    #[test]
    fn bwdw_vectorizes_larger_dim() {
        let arch = sx_aurora();
        // OC > IC -> vectorize OC, register-block IC.
        let cfg = kernel_config(
            &arch,
            &layer(64, 256, 56, 1, 1, 0),
            Direction::BwdWeights,
            Algorithm::Dc,
            8,
        );
        assert!(!cfg.vec_over_ic);
        assert_eq!(cfg.vl, 256);
        assert_eq!(cfg.rb_c, 24);
        // IC > OC -> vectorize IC.
        let cfg = kernel_config(
            &arch,
            &layer(256, 64, 56, 1, 1, 0),
            Direction::BwdWeights,
            Algorithm::Dc,
            8,
        );
        assert!(cfg.vec_over_ic);
        assert_eq!(cfg.vl, 256);
        assert_eq!(cfg.rb_c, 24);
    }

    #[test]
    fn wbuf_deepens_for_small_register_blocks() {
        let arch = sx_aurora();
        let small = wbuf_depth(&arch, 512, 8);
        let large = wbuf_depth(&arch, 512, 24);
        assert!(small >= large, "{small} >= {large}");
        assert!(small <= 8 && large >= 2);
    }

    /// The exhaustive reference the best-first search must agree with:
    /// simulate every unique candidate in enumeration order and keep each
    /// strictly faster one. Returns (best config, best cycles, analytic
    /// cycles, generated, unique).
    pub(crate) fn exhaustive(
        arch: &ArchParams,
        p: &ConvProblem,
        dir: Direction,
        alg: Algorithm,
        mode: lsv_vengine::ExecutionMode,
    ) -> (KernelConfig, u64, u64, usize, usize) {
        let (generated, cands) = candidates(arch, p, dir, alg, mode).expect("creatable");
        let cycles = |cfg: &KernelConfig| crate::perf::bench_config(arch, p, cfg, mode).cycles;
        let analytic = cycles(&cands[0]);
        let mut best = (analytic, cands[0]);
        for cfg in &cands[1..] {
            let c = cycles(cfg);
            if c < best.0 {
                best = (c, *cfg);
            }
        }
        (best.1, best.0, analytic, generated, cands.len())
    }

    /// The tuner picks exactly the exhaustive sweep's winner, prices it with
    /// the layer meter (its analytic candidate is `bench_layer`'s kernel and
    /// its winner re-measures to the cycles it reported), and a warm call
    /// replays the same decision. The minibatches span 1, 2 and 3+ images
    /// per core and bwd-weights at N <= 2 and N > 2.
    #[test]
    fn tuner_cycles_agree_with_the_layer_meter() {
        use crate::perf::{bench_config, bench_layer};
        let arch = sx_aurora();
        let mode = lsv_vengine::ExecutionMode::TimingOnly;
        for (p, minibatches) in [
            (
                ConvProblem::new(8, 32, 32, 10, 10, 3, 3, 1, 1),
                &[1, 2, 8, 9, 16, 17, 32][..],
            ),
            (ConvProblem::new(8, 64, 16, 8, 8, 1, 1, 2, 0), &[8, 17][..]),
        ] {
            for &n in minibatches {
                let p = p.with_minibatch(n);
                for dir in Direction::ALL {
                    for alg in Algorithm::ALL {
                        let r = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
                        let got = (
                            r.best_cfg,
                            r.best_cycles,
                            r.analytic_cycles,
                            r.generated,
                            r.unique,
                        );
                        assert_eq!(
                            got,
                            exhaustive(&arch, &p, dir, alg, mode),
                            "{p} {dir} {alg}"
                        );
                        let analytic = bench_layer(&arch, &p, dir, alg, mode).cycles;
                        assert_eq!(r.analytic_cycles, analytic, "{p} {dir} {alg}: analytic");
                        let best = bench_config(&arch, &p, &r.best_cfg, mode).cycles;
                        assert_eq!(r.best_cycles, best, "{p} {dir} {alg}: best");
                        let warm = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
                        let again = (
                            warm.best_cfg,
                            warm.best_cycles,
                            warm.analytic_cycles,
                            warm.generated,
                            warm.unique,
                        );
                        assert_eq!(again, got, "{p} {dir} {alg}: warm replay");
                    }
                }
            }
        }
    }

    /// Top-1 agreement with the exhaustive sweep on all 19 Table 3 layers x
    /// 3 directions x 3 algorithms, at N=8 (1 image per core: every
    /// direction bounded) and at N=256 (fwd/bwd-data exhaustive, bwd-weights
    /// bounded after its 1-image reduction). Minutes of simulation, so it
    /// runs on demand:
    /// `cargo test --release -p lsv-conv --lib -- --ignored table3`.
    #[test]
    #[ignore = "minutes of simulation; run on demand"]
    fn tuner_matches_the_exhaustive_oracle_on_table3() {
        let arch = sx_aurora();
        let mode = lsv_vengine::ExecutionMode::TimingOnly;
        let mut items = Vec::new();
        for n in [8, 256] {
            for (layer, p) in table3().into_iter().enumerate() {
                for dir in Direction::ALL {
                    for alg in Algorithm::ALL {
                        items.push((layer, p.with_minibatch(n), dir, alg));
                    }
                }
            }
        }
        let disagreements: Vec<String> = crate::par::par_map(items, |(layer, p, dir, alg)| {
            let r = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
            let got = (
                r.best_cfg,
                r.best_cycles,
                r.analytic_cycles,
                r.generated,
                r.unique,
            );
            let want = exhaustive(&arch, &p, dir, alg, mode);
            (got != want).then(|| format!("layer {layer} N={} {dir} {alg}", p.n))
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(disagreements.is_empty(), "{disagreements:#?}");
    }

    /// The Table 3 layer suite at minibatch 256 (duplicated in `lsv-models`;
    /// kept here so `lsv-conv` tests do not depend on a higher crate).
    pub(crate) fn table3() -> Vec<ConvProblem> {
        let rows: [(usize, usize, usize, usize, usize, usize, usize); 19] = [
            (64, 256, 56, 56, 1, 1, 0),
            (64, 64, 56, 56, 1, 1, 0),
            (64, 64, 56, 56, 3, 1, 1),
            (256, 64, 56, 56, 1, 1, 0),
            (256, 512, 56, 28, 1, 2, 0),
            (256, 128, 56, 28, 1, 2, 0),
            (128, 128, 28, 28, 3, 1, 1),
            (128, 512, 28, 28, 1, 1, 0),
            (512, 128, 28, 28, 1, 1, 0),
            (512, 1024, 28, 14, 1, 2, 0),
            (512, 256, 28, 14, 1, 2, 0),
            (256, 256, 14, 14, 3, 1, 1),
            (256, 1024, 14, 14, 1, 1, 0),
            (1024, 256, 14, 14, 1, 1, 0),
            (1024, 2048, 14, 7, 1, 2, 0),
            (1024, 512, 14, 7, 1, 2, 0),
            (512, 512, 7, 7, 3, 1, 1),
            (512, 2048, 7, 7, 1, 1, 0),
            (2048, 512, 7, 7, 1, 1, 0),
        ];
        rows.iter()
            .map(|&(ic, oc, ihw, _ohw, k, s, pad)| {
                ConvProblem::new(256, ic, oc, ihw, ihw, k, k, s, pad)
            })
            .collect()
    }
}
