//! The data-pass micro-kernel: forward data (Algorithm 2 for DC/BDC,
//! Algorithm 4 for MBDC) and backward data (Section 4.1/4.3), one kernel
//! driven by one `TileWalk`.
//!
//! Both passes accumulate a register block of one activation tensor,
//! vectorized over its channels, from a scalar stream over the other one
//! times weight vectors. Forward data accumulates `D` from `S`. Backward
//! data accumulates `S_diff` from `D_diff`, with the weights stored
//! role-swapped — `(IC/IC_b, OC/grain, KH, KW, grain, IC_b)` — so the
//! vectorized `IC` dimension stays innermost and weight vectors remain
//! unit-stride. The only other difference is which scalar-stream points a
//! kernel tap reaches: the walk's per-axis tap map. DC/BDC and MBDC differ
//! only in blocking parameters and in whether the accumulated tensor moves
//! via unit-stride vector ops or coarse-grain gather/scatter, which the
//! shared activation-vector access helpers dispatch on.

use super::walk::{Tile, TileWalk};
use super::{act_vec_lanes, load_act_vec, store_act_vec};
use crate::primitive::ConvTensors;
use crate::problem::{ConvProblem, Direction};
use crate::tuning::KernelConfig;
use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Run the forward- or backward-data pass for `images` on one simulated
/// core.
///
/// The tensors must use `cfg`'s layouts; on the backward-data pass `t.wei`
/// is the role-swapped tensor, filled through
/// [`crate::primitive::ConvPrimitive::store_weights`].
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &ConvTensors,
    images: Range<usize>,
) {
    let fwd = cfg.direction == Direction::Fwd;
    debug_assert_eq!(cfg.wei_swapped, !fwd);
    let walk = TileWalk::new(cfg, p, images);
    let (acc, sca) = walk.roles(t);
    let k = MicroKernel {
        walk: &walk,
        acc,
        sca,
        wei: &t.wei,
        // The weight double-buffer registers follow the accumulators.
        wslot0: walk.block_regs(),
        wbuf: cfg.wbuf,
    };
    core.region_enter(if fwd { "fwd" } else { "bwd_data" });
    for tile in walk.tiles() {
        core.scalar_ops(tile.outer_ops);
        if tile.khkw_open {
            core.region_enter("khkw_tile");
        }
        core.scalar_ops(tile.inner_ops);
        if tile.edge {
            core.region_enter("edge");
        }
        k.run(core, arena, &tile);
        if tile.edge {
            core.region_exit();
        }
        if tile.khkw_close {
            core.region_exit();
        }
    }
    core.region_exit();
}

/// What every micro-kernel invocation of one pass shares.
struct MicroKernel<'a> {
    walk: &'a TileWalk,
    acc: &'a ActTensor,
    sca: &'a ActTensor,
    wei: &'a WeiTensor,
    wslot0: usize,
    wbuf: usize,
}

impl MicroKernel<'_> {
    /// One invocation: `rbh * rbw` accumulator registers, the
    /// `(kh, kw, c_i)` inner loop with software-pipelined weight loads, and
    /// the closing accumulator stores (Algorithm 2 lines 11-19).
    fn run(&self, core: &mut VCore, arena: &mut Arena, t: &Tile) {
        let (acc, sca, wei) = (self.acc, self.sca, self.wei);
        let (wslot0, wbuf) = (self.wslot0, self.wbuf);

        // --- accumulator init: zero on the first accumulation pass,
        //     otherwise reload the partial sums.
        core.region_enter("acc_init");
        let lanes = act_vec_lanes(acc, t.vl);
        for h in 0..t.rbh {
            for w in 0..t.rbw {
                let reg = h * t.rbw + w;
                if t.first_pass {
                    core.vbroadcast_zero(reg, lanes);
                } else {
                    load_act_vec(core, arena, acc, t.n, t.c0, t.y0 + h, t.x0 + w, t.vl, reg);
                }
            }
        }
        core.region_exit();

        // --- inner loop over (kh, kw, c_i), flattened for weight prefetch.
        core.region_enter("inner_loop");
        let total = t.kh_cnt * t.kw_cnt * t.r_cnt;
        let lookahead = (wbuf - 1).min(total);
        let w_addr = |j: usize| -> u64 {
            let i = j % t.r_cnt;
            let r = j / t.r_cnt;
            wei.oc_vector_at(t.vb, t.r0 + i, t.kh0 + r / t.kw_cnt, t.kw0 + r % t.kw_cnt)
        };
        for j in 0..lookahead {
            core.scalar_op();
            core.vload(arena, wslot0 + j % wbuf, w_addr(j), t.vl);
        }
        for j in 0..total {
            if j + lookahead < total {
                core.scalar_op(); // weight pointer bump
                core.vload(
                    arena,
                    wslot0 + (j + lookahead) % wbuf,
                    w_addr(j + lookahead),
                    t.vl,
                );
            }
            let wreg = wslot0 + j % wbuf;
            let c = t.r0 + j % t.r_cnt;
            let r = j / t.r_cnt;
            let rows = self.walk.rows.reach(t.y0, t.rbh, t.kh0 + r / t.kw_cnt);
            let cols = self.walk.cols.reach(t.x0, t.rbw, t.kw0 + r % t.kw_cnt);
            // Taps the map does not reach read zero padding (forward) or
            // no output (backward): the JIT emits no code for them.
            for (h, y) in rows.iter() {
                for (w, x) in cols.iter() {
                    core.scalar_op(); // scalar pointer update (B_seq filler #1)
                    let sv = core.scalar_load(arena, sca.at(t.n, c, y, x)); // B_seq filler #2
                    core.vfma_bcast(h * t.rbw + w, wreg, sv, t.vl);
                }
            }
        }
        core.region_exit(); // inner_loop

        // --- write the partial sums back (Algorithm 2 line 19).
        core.region_enter("acc_store");
        for h in 0..t.rbh {
            for w in 0..t.rbw {
                let reg = h * t.rbw + w;
                store_act_vec(core, arena, acc, t.n, t.c0, t.y0 + h, t.x0 + w, t.vl, reg);
            }
        }
        core.region_exit();
    }
}
