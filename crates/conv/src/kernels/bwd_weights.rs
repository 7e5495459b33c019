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
//! loads + FMAs on the other tensor.

use super::walk::{WeightTap, WeightWalk};
use super::{act_vec_lanes, load_act_vec};
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
///   across cores, Section 4.3).
/// * `images` — minibatch slice to reduce over (each core reduces over the
///   full minibatch in the real scheme; the scheduler passes a slice and
///   scales, see `perf`).
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &ConvTensors,
    small_blocks: Range<usize>,
    images: Range<usize>,
) {
    core.region_enter("bwd_weights");
    let walk = WeightWalk::new(cfg, p, small_blocks);
    // The vectorized activation tensor (vector loads) and the scalar one.
    let (vec_t, sca_t) = walk.roles(t);
    let rb_c = cfg.rb_c;
    let vbuf0 = rb_c; // rotating activation-vector registers
    let vbuf = cfg.wbuf.max(2);

    for tap in walk.taps() {
        core.scalar_ops(tap.outer_ops);
        core.region_enter("khkw_tile");
        core.scalar_ops(tap.inner_ops);
        // Accumulators for this (kh, kw) tap, zeroed once and reduced over
        // the whole (n, oh, ow) domain.
        core.region_enter("acc_init");
        let lanes = act_vec_lanes(vec_t, tap.vl);
        for j in 0..tap.rb_cur {
            core.vbroadcast_zero(j, lanes);
        }
        core.region_exit();
        core.region_enter("inner_loop");
        for n in images.clone() {
            core.scalar_ops(2);
            sweep_spatial(
                cfg.vec_over_ic,
                core,
                arena,
                (vec_t, sca_t),
                n,
                &tap,
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
/// peels padding rows) and `rb_cur` scalar-load + FMA pairs.
fn sweep_spatial(
    vec_over_ic: bool,
    core: &mut VCore,
    arena: &mut Arena,
    (vec_t, sca_t): (&ActTensor, &ActTensor),
    n: usize,
    tap: &WeightTap,
    (vbuf0, vbuf): (usize, usize),
) {
    let (rows, cols) = (tap.rows, tap.cols);
    let points = rows.count * cols.count;
    // Point `j` as `(oy, ox, ih, iw)`.
    let point = |j: usize| {
        let (r, c) = (j / cols.count, j % cols.count);
        (
            rows.first + r,
            cols.first + c,
            rows.coord + r * rows.coord_step,
            cols.coord + c * cols.coord_step,
        )
    };
    // S is vectorized: index by (ih, iw); else D_diff, by (oy, ox).
    let vec_coord = |(oy, ox, ih, iw)| if vec_over_ic { (ih, iw) } else { (oy, ox) };
    let lookahead = (vbuf - 1).min(points);
    for j in 0..lookahead {
        let (y, x) = vec_coord(point(j));
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
            vbuf0 + j % vbuf,
        );
    }
    for j in 0..points {
        if j + lookahead < points {
            let (y, x) = vec_coord(point(j + lookahead));
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
                vbuf0 + (j + lookahead) % vbuf,
            );
        }
        let vreg = vbuf0 + j % vbuf;
        let (oy, ox, ih, iw) = point(j);
        // Scalar coordinates on the non-vectorized tensor.
        let (sy, sx) = if vec_over_ic { (oy, ox) } else { (ih, iw) };
        for c in 0..tap.rb_cur {
            core.scalar_op(); // scalar pointer bump
            let sv = core.scalar_load(arena, sca_t.at(n, tap.cs0 + c, sy, sx));
            core.vfma_bcast(c, vreg, sv, tap.vl);
        }
    }
}
