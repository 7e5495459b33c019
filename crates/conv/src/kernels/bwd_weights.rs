//! The backward-weights micro-kernel (Section 4.1/4.3): the output tensor is
//! `W_diff`; the computation vectorizes the larger feature-map dimension and
//! register-blocks the smaller one (`RB_c` accumulator chains). The
//! accumulators live across the whole `(n, oh, ow)` reduction sweep, so each
//! `W_diff` vector is stored exactly once.
//!
//! Per spatial step the kernel issues one feature-map vector load of the
//! vectorized activation tensor (a coarse-grain gather under the MBDC
//! layout — this is why Section 8 observes that "the vector gather/scatter
//! operations are more frequent" in this pass) followed by `RB_c` scalar
//! loads + FMAs on the other tensor. Their addresses are formed per tap,
//! not per instruction: the `RB_c` channel offsets once per tap, one base
//! address per point, and the triples go out as one
//! [`VCore::fma_bcast_group`].

use super::walk::{WeightTap, WeightWalk};
use super::{act_vec_lanes, load_act_vec, next_slot};
use crate::primitive::ConvTensors;
use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_tensor::ActTensor;
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Run the backward-weights pass on one simulated core.
///
/// * `t.wei` — the output gradients `W_diff`; role-swapped when
///   `cfg.vec_over_ic`.
/// * `small_blocks` — the range of `RB_c`-sized blocks of the *smaller*
///   feature-map dimension this core owns (the paper parallelizes this loop
///   across cores, Section 4.3); each block reduces over the whole
///   minibatch of `p` (`perf` simulates a reduced minibatch and scales).
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &ConvTensors,
    small_blocks: Range<usize>,
) {
    core.region_enter("bwd_weights");
    let walk = WeightWalk::new(cfg, p, small_blocks);
    // The vectorized activation tensor (vector loads) and the scalar one.
    let (vec_t, sca_t) = walk.roles.activations(t);
    let rb_c = cfg.rb_c;
    let vbuf0 = rb_c; // rotating activation-vector registers
    let vbuf = cfg.buffers();

    // One tap's `(accumulator, channel byte offset)` pairs of the scalar
    // tensor: accumulator `j` reduces the block's channel `cs0 + j`.
    let mut group: Vec<(usize, u64)> = Vec::with_capacity(core.arch().n_vregs);
    for tap in walk.taps() {
        core.scalar_ops(tap.outer_ops);
        core.region_enter("khkw_tile");
        core.scalar_ops(tap.inner_ops);
        group.clear();
        group.extend((0..tap.rb_cur).map(|j| (j, sca_t.channel_offset(tap.cs0 + j))));
        // Accumulators for this (kh, kw) tap, zeroed once and reduced over
        // the whole (n, oh, ow) domain.
        core.region_enter("acc_init");
        let lanes = act_vec_lanes(vec_t, tap.vl);
        for j in 0..tap.rb_cur {
            core.vbroadcast_zero(j, lanes);
        }
        core.region_exit();
        core.region_enter("inner_loop");
        for n in 0..p.n {
            core.scalar_ops(2);
            sweep_spatial(
                cfg.vec_over_ic,
                core,
                arena,
                (vec_t, sca_t),
                n,
                (&tap, &group),
                (vbuf0, vbuf),
            );
        }
        core.region_exit(); // inner_loop

        // Store the finished W_diff vectors (one store per accumulator for
        // the whole reduction).
        core.region_enter("acc_store");
        for j in 0..tap.rb_cur {
            let addr = t.wei.oc_vector_at(tap.vb, tap.cs0 + j, tap.kh, tap.kw);
            core.vstore(arena, j, addr, tap.vl);
        }
        core.region_exit();
        core.region_exit(); // khkw_tile
    }
    core.region_exit(); // bwd_weights
}

/// The spatial reduction sweep for one tap of one image: per valid output
/// point of the tap's rectangle, row-major, one vector load of the
/// vectorized activations (software-pipelined one point ahead; the JIT
/// peels padding rows) and the tap's `rb_cur` scalar-load + FMA triples,
/// whose addresses are the point's one base plus the tap's channel offsets.
fn sweep_spatial(
    vec_over_ic: bool,
    core: &mut VCore,
    arena: &mut Arena,
    (vec_t, sca_t): (&ActTensor, &ActTensor),
    n: usize,
    (tap, group): (&WeightTap, &[(usize, u64)]),
    (vbuf0, vbuf): (usize, usize),
) {
    let (rows, cols) = (tap.rows, tap.cols);
    let points = rows.count * cols.count;
    // Every point as `(oy, ox, ih, iw)`, row-major.
    let grid = || {
        (0..rows.count).flat_map(move |r| {
            (0..cols.count).map(move |c| {
                (
                    rows.first + r,
                    cols.first + c,
                    rows.coord + r * rows.coord_step,
                    cols.coord + c * cols.coord_step,
                )
            })
        })
    };
    // The vector loads run `lookahead` points ahead of the FMAs. S is
    // vectorized: index by (ih, iw); else D_diff, by (oy, ox).
    let mut ahead = grid().map(|(oy, ox, ih, iw)| if vec_over_ic { (ih, iw) } else { (oy, ox) });
    let mut ahead_slot = 0;
    let mut prefetch = |core: &mut VCore| {
        if let Some((y, x)) = ahead.next() {
            core.scalar_op();
            load_act_vec(
                core,
                arena,
                vec_t,
                n,
                tap.c0,
                y,
                x,
                tap.vl,
                vbuf0 + ahead_slot,
            );
            ahead_slot = next_slot(ahead_slot, vbuf);
        }
    };
    for _ in 0..(vbuf - 1).min(points) {
        prefetch(core);
    }
    let image = sca_t.block_at(n, 0, 0, 0);
    let mut slot = 0;
    for (oy, ox, ih, iw) in grid() {
        prefetch(core);
        // Scalar coordinates on the non-vectorized tensor.
        let (sy, sx) = if vec_over_ic { (oy, ox) } else { (ih, iw) };
        let point = image + sca_t.point_offset(sy, sx);
        // Per accumulator: scalar pointer bump, scalar load, FMA.
        core.fma_bcast_group(arena, vbuf0 + slot, tap.vl, point, group);
        slot = next_slot(slot, vbuf);
    }
}
