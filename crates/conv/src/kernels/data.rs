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
//!
//! Like the JIT'd kernel, whose `B_seq` fillers are pointer bumps, the
//! interpreter forms addresses once per kernel tap, not per instruction:
//! every channel's offset in the scalar-stream tensor and in the weights
//! once per pass, each tap's weight base once per invocation, and each
//! tap's reached `(accumulator, spatial offset)` list once per tap. A
//! channel then has one scalar base address and issues its triples as one
//! [`VCore::fma_bcast_group`]; no division is left on that path.

use super::walk::{Tile, TileWalk};
use super::{act_vec_lanes, load_act_vec, next_slot, store_act_vec};
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
/// [`crate::primitive::ConvTensors::store_weights`].
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &ConvTensors,
    images: Range<usize>,
) {
    let walk = TileWalk::new(cfg, p, images);
    let (acc, sca) = walk.roles.activations(t);
    let c_sum = walk.roles.c_sum;
    let mut k = MicroKernel {
        walk: &walk,
        acc,
        sca,
        wei: &t.wei,
        // The weight double-buffer registers follow the accumulators.
        wslot0: cfg.block(),
        wbuf: cfg.buffers(),
        sca_chan: (0..c_sum).map(|c| sca.channel_offset(c)).collect(),
        wei_chan: (0..c_sum).map(|c| t.wei.ic_offset(c)).collect(),
        wtaps: Vec::with_capacity(cfg.tile.kh_i * cfg.tile.kw_i),
        group: Vec::with_capacity(core.arch().n_vregs),
    };
    core.region_enter(if cfg.direction == Direction::Fwd {
        "fwd"
    } else {
        "bwd_data"
    });
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

/// What every micro-kernel invocation of one pass shares: the operands, the
/// per-channel address offsets (computed once per pass) and the per-tap
/// buffers (sized once, reused by every invocation).
struct MicroKernel<'a> {
    walk: &'a TileWalk,
    acc: &'a ActTensor,
    sca: &'a ActTensor,
    wei: &'a WeiTensor,
    wslot0: usize,
    wbuf: usize,
    /// Byte offset of each scalar-summed channel in the scalar-stream
    /// tensor ([`ActTensor::channel_offset`]).
    sca_chan: Vec<u64>,
    /// Byte offset of each scalar-summed channel's weight vector
    /// ([`WeiTensor::ic_offset`]).
    wei_chan: Vec<u64>,
    /// The invocation's weight-vector base per kernel tap, in tap order.
    wtaps: Vec<u64>,
    /// One tap's reached `(accumulator, spatial byte offset)` pairs.
    group: Vec<(usize, u64)>,
}

impl MicroKernel<'_> {
    /// One invocation: `rbh * rbw` accumulator registers, the
    /// `(kh, kw, c_i)` inner loop with software-pipelined weight loads, and
    /// the closing accumulator stores (Algorithm 2 lines 11-19).
    fn run(&mut self, core: &mut VCore, arena: &mut Arena, t: &Tile) {
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
        //     Addresses are formed once per tap, not per instruction: a
        //     weight vector sits at its tap's base plus its channel's
        //     offset, a scalar at its channel's base plus the reached
        //     point's offset.
        core.region_enter("inner_loop");
        let kh_taps = t.kh0..t.kh0 + t.kh_cnt;
        let kw_taps = t.kw0..t.kw0 + t.kw_cnt;
        self.wtaps.clear();
        for kh in kh_taps.clone() {
            for kw in kw_taps.clone() {
                self.wtaps.push(wei.oc_tap_at(t.vb, kh, kw));
            }
        }
        let wei_chan = &self.wei_chan[t.r0..t.r0 + t.r_cnt];
        let sca_chan = &self.sca_chan[t.r0..t.r0 + t.r_cnt];
        let total = self.wtaps.len() * t.r_cnt;
        let lookahead = (wbuf - 1).min(total);
        // The weight loads run `lookahead` vectors ahead of the FMAs, in
        // the same flattened (tap, channel) order.
        let mut ahead = self
            .wtaps
            .iter()
            .flat_map(|&tap| wei_chan.iter().map(move |&off| tap + off));
        let mut ahead_slot = 0;
        let mut prefetch = |core: &mut VCore| {
            if let Some(addr) = ahead.next() {
                core.scalar_op(); // weight pointer bump
                core.vload(arena, wslot0 + ahead_slot, addr, t.vl);
                ahead_slot = next_slot(ahead_slot, wbuf);
            }
        };
        for _ in 0..lookahead {
            prefetch(core);
        }
        let image = sca.block_at(t.n, 0, 0, 0);
        let mut slot = 0;
        for kh in kh_taps {
            let rows = self.walk.roles.rows.reach(t.y0, t.rbh, kh);
            for kw in kw_taps.clone() {
                let cols = self.walk.roles.cols.reach(t.x0, t.rbw, kw);
                // Taps the map does not reach read zero padding (forward)
                // or no output (backward): the JIT emits no code for them.
                self.group.clear();
                for (h, y) in rows.iter() {
                    for (w, x) in cols.iter() {
                        self.group.push((h * t.rbw + w, sca.point_offset(y, x)));
                    }
                }
                for &chan in sca_chan {
                    prefetch(core);
                    // B_seq fillers #1 and #2 (pointer update, scalar load)
                    // and the FMA, per reached point.
                    core.fma_bcast_group(arena, wslot0 + slot, t.vl, image + chan, &self.group);
                    slot = next_slot(slot, wbuf);
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
