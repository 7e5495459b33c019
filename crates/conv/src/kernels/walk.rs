//! The scheduling loops of the generated kernels, written once.
//!
//! The paper's §6.5 design is one JIT'd micro-kernel driven by a few
//! scheduling loops. This module is those loops, as values: a [`TileWalk`]
//! enumerates every micro-kernel invocation of a forward- or backward-data
//! pass, a [`WeightWalk`] every `(kh, kw)` tap of a backward-weights pass.
//! The simulator kernels ([`super::data`], [`super::bwd_weights`]) and the
//! native host lowering both interpret these values, so the two backends
//! walk the same tiles in the same order by construction.
//!
//! Which outputs a kernel tap reaches along one axis comes from one range
//! function, [`crate::problem::taps`]; an [`AxisMap`] applies it to a
//! register block in either direction.

use crate::pass::PassRoles;
use crate::problem::{taps, ConvProblem, Direction};
use crate::tuning::{KernelConfig, MicroTile};
use std::ops::Range;

/// How the register-blocked axis of a data pass meets the same axis of the
/// scalar-stream tensor through a kernel tap.
#[derive(Debug, Clone, Copy)]
pub struct AxisMap {
    stride: usize,
    pad: usize,
    /// Extent of the scalar-stream tensor along this axis.
    len: usize,
    /// Backward data blocks the input axis and streams the output: an input
    /// `i` meets the output `o` with `o * stride + k - pad == i`.
    inverse: bool,
}

/// The points of one register-block axis that a kernel tap reaches: block
/// offsets `first + j * step` meet scalar-stream coordinates
/// `coord + j * coord_step`, for `j` in `0..count`, in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisTaps {
    /// Block offset of the first reached point.
    pub first: usize,
    /// Block-offset step between reached points.
    pub step: usize,
    /// Scalar-stream coordinate of the first reached point.
    pub coord: usize,
    /// Scalar-stream coordinate step between reached points.
    pub coord_step: usize,
    /// Number of reached points.
    pub count: usize,
}

impl AxisTaps {
    /// The reached `(block offset, scalar-stream coordinate)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.count).map(move |j| (self.first + j * self.step, self.coord + j * self.coord_step))
    }
}

impl AxisMap {
    /// The map of one axis: the block runs over outputs and the stream over
    /// an input axis of extent `len`, or, `inverse`, the block over inputs
    /// and the stream over an output axis of extent `len`.
    pub fn new(stride: usize, pad: usize, len: usize, inverse: bool) -> Self {
        AxisMap {
            stride,
            pad,
            len,
            inverse,
        }
    }

    /// The points of block `b0..b0 + cnt` that kernel tap `k` reaches.
    pub fn reach(&self, b0: usize, cnt: usize, k: usize) -> AxisTaps {
        let (s, pad) = (self.stride, self.pad);
        if self.inverse {
            // The outputs whose input `o * s + k - pad` lands in the block.
            let o = taps(self.len, s, k, pad + b0, cnt);
            AxisTaps {
                first: o.start * s + k - pad - b0,
                step: s,
                coord: o.start,
                coord_step: 1,
                count: o.len(),
            }
        } else {
            // The block offsets `d` whose input `(b0 + d) * s + k - pad` is
            // in the image.
            let d = taps(cnt, s, b0 * s + k, pad, self.len);
            AxisTaps {
                first: d.start,
                step: 1,
                coord: (b0 + d.start) * s + k - pad,
                coord_step: s,
                count: d.len(),
            }
        }
    }
}

/// A mixed-radix counter over a loop nest, outermost loop first. Each item
/// is the index vector plus the outermost loop that advanced to reach it
/// (`0` for the first item): the loops from that one inwards start a new
/// body there.
struct Nest<const L: usize> {
    idx: [usize; L],
    counts: [usize; L],
    lead: usize,
    done: bool,
}

impl<const L: usize> Nest<L> {
    fn new(counts: [usize; L]) -> Self {
        Nest {
            idx: [0; L],
            counts,
            lead: 0,
            done: counts.contains(&0),
        }
    }
}

impl<const L: usize> Iterator for Nest<L> {
    type Item = ([usize; L], usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = (self.idx, self.lead);
        self.done = true;
        for l in (0..L).rev() {
            self.idx[l] += 1;
            if self.idx[l] < self.counts[l] {
                self.lead = l;
                self.done = false;
                break;
            }
            self.idx[l] = 0;
        }
        Some(item)
    }
}

/// The scheduling loops of a forward- or backward-data pass: images, vector
/// blocks of the vectorized channels, `c_i` chunks of the scalar-summed
/// channels, `kh_i x kw_i` kernel blocks, then `RB_h x RB_w` register blocks
/// over the accumulated plane, outermost first (Algorithm 2).
///
/// Which tensor is accumulated, which one streams scalars, over which plane
/// and through which tap map are the pass's [`PassRoles`]: forward data
/// accumulates `D` over the output plane from a scalar stream over `S`,
/// backward data `S_diff` over the input plane from one over `D_diff`.
#[derive(Debug, Clone)]
pub struct TileWalk {
    images: Range<usize>,
    vl_max: usize,
    tile: MicroTile,
    kh: usize,
    kw: usize,
    rb: (usize, usize),
    /// The pass's roles.
    pub roles: PassRoles,
}

/// One micro-kernel invocation of a [`TileWalk`], with the loop-head scalar
/// work and profiling-region boundaries the simulator charges around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Image.
    pub n: usize,
    /// Vector block of the vectorized channels.
    pub vb: usize,
    /// First channel of the vector block.
    pub c0: usize,
    /// Working vector length (short on the last block).
    pub vl: usize,
    /// First scalar-summed channel of the chunk.
    pub r0: usize,
    /// Channels in the chunk.
    pub r_cnt: usize,
    /// First kernel row of the kernel block.
    pub kh0: usize,
    /// Kernel rows in the block.
    pub kh_cnt: usize,
    /// First kernel column of the kernel block.
    pub kw0: usize,
    /// Kernel columns in the block.
    pub kw_cnt: usize,
    /// First row of the register block in the accumulated plane.
    pub y0: usize,
    /// Rows in the register block.
    pub rbh: usize,
    /// First column of the register block.
    pub x0: usize,
    /// Columns in the register block.
    pub rbw: usize,
    /// First accumulation pass: the accumulators start from zero instead of
    /// reloading partial sums.
    pub first_pass: bool,
    /// A partial register block or a short vector (profiled as `edge`).
    pub edge: bool,
    /// Loop-head scalar ops of the image, vector-block and chunk loops that
    /// start at this tile, charged before the `khkw_tile` region opens.
    pub outer_ops: usize,
    /// This tile opens its kernel block's `khkw_tile` region.
    pub khkw_open: bool,
    /// Loop-head scalar ops of the kernel-block and register-block-row
    /// loops, charged inside the region.
    pub inner_ops: usize,
    /// This tile closes its kernel block's region.
    pub khkw_close: bool,
}

impl TileWalk {
    /// The walk of `cfg`'s data pass over `images`.
    pub fn new(cfg: &KernelConfig, p: &ConvProblem, images: Range<usize>) -> Self {
        assert_ne!(
            cfg.direction,
            Direction::BwdWeights,
            "the backward-weights pass walks a WeightWalk"
        );
        TileWalk {
            images,
            vl_max: cfg.vl,
            tile: cfg.tile,
            kh: p.kh,
            kw: p.kw,
            rb: (cfg.rb.rb_h, cfg.rb.rb_w),
            roles: cfg.roles(p),
        }
    }

    /// Every micro-kernel invocation, in execution order.
    pub fn tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        let (rb_h, rb_w) = self.rb;
        let t = self.tile;
        let PassRoles {
            c_vec,
            c_sum,
            plane,
            ..
        } = self.roles;
        let counts = [
            self.images.len(),
            c_vec.div_ceil(self.vl_max),
            c_sum.div_ceil(t.c_i),
            self.kh.div_ceil(t.kh_i),
            self.kw.div_ceil(t.kw_i),
            plane.0.div_ceil(rb_h),
            plane.1.div_ceil(rb_w),
        ];
        Nest::new(counts).map(move |([n, vb, rc, khb, kwb, row, col], lead)| {
            let (c0, r0) = (vb * self.vl_max, rc * t.c_i);
            let (kh0, kw0) = (khb * t.kh_i, kwb * t.kw_i);
            let (y0, x0) = (row * rb_h, col * rb_w);
            let vl = self.vl_max.min(c_vec - c0);
            let (rbh, rbw) = (rb_h.min(plane.0 - y0), rb_w.min(plane.1 - x0));
            Tile {
                n: self.images.start + n,
                vb,
                c0,
                vl,
                r0,
                r_cnt: t.c_i.min(c_sum - r0),
                kh0,
                kh_cnt: t.kh_i.min(self.kh - kh0),
                kw0,
                kw_cnt: t.kw_i.min(self.kw - kw0),
                y0,
                rbh,
                x0,
                rbw,
                first_pass: rc == 0 && khb == 0 && kwb == 0,
                edge: rbh < rb_h || rbw < rb_w || vl < self.vl_max,
                // Image, vector-block and chunk heads: 2 ops each.
                outer_ops: 2 * 3usize.saturating_sub(lead),
                khkw_open: lead <= 4,
                // Kernel-block head: 2 ops; register-block-row head: 1.
                inner_ops: if lead <= 4 { 2 } else { 0 } + usize::from(lead <= 5),
                khkw_close: row + 1 == counts[5] && col + 1 == counts[6],
            }
        })
    }
}

/// The scheduling loops of a backward-weights pass: vector blocks of the
/// vectorized channel dimension, the owned `RB_c` blocks of the other one,
/// then every `(kh, kw)` tap, whose accumulators reduce over the whole
/// `(n, oh, ow)` domain (Section 4.1/4.3).
#[derive(Debug, Clone)]
pub struct WeightWalk {
    vl_max: usize,
    rb_c: usize,
    small_blocks: Range<usize>,
    kh: usize,
    kw: usize,
    /// The pass's roles.
    pub roles: PassRoles,
}

/// One `(kh, kw)` tap of a [`WeightWalk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightTap {
    /// Vector block of the vectorized channel dimension.
    pub vb: usize,
    /// First channel of the vector block.
    pub c0: usize,
    /// Working vector length (short on the last block).
    pub vl: usize,
    /// First channel of the `RB_c` block of the other dimension.
    pub cs0: usize,
    /// Channels in that block (short on the last one).
    pub rb_cur: usize,
    /// Kernel row.
    pub kh: usize,
    /// Kernel column.
    pub kw: usize,
    /// Valid output rows (block offsets) with their input rows.
    pub rows: AxisTaps,
    /// Valid output columns with their input columns.
    pub cols: AxisTaps,
    /// Loop-head scalar ops of the vector-block loop when this tap starts a
    /// vector block, charged before the `khkw_tile` region opens.
    pub outer_ops: usize,
    /// Loop-head scalar ops of the tap, charged inside the region.
    pub inner_ops: usize,
}

impl WeightWalk {
    /// The walk of `cfg`'s backward-weights pass over the `RB_c` blocks
    /// `small_blocks` (clamped to the blocks that exist). A core that owns
    /// no block walks no tap and charges no loop-head work.
    pub fn new(cfg: &KernelConfig, p: &ConvProblem, small_blocks: Range<usize>) -> Self {
        let roles = cfg.roles(p);
        let blocks = roles.work_items(cfg.rb_c);
        WeightWalk {
            vl_max: cfg.vl,
            rb_c: cfg.rb_c,
            small_blocks: small_blocks.start.min(blocks)..small_blocks.end.min(blocks),
            kh: p.kh,
            kw: p.kw,
            roles,
        }
    }

    /// Every tap, in execution order.
    pub fn taps(&self) -> impl Iterator<Item = WeightTap> + '_ {
        let PassRoles {
            c_vec,
            c_sum,
            plane,
            rows,
            cols,
            ..
        } = self.roles;
        let counts = [
            c_vec.div_ceil(self.vl_max),
            self.small_blocks.len(),
            self.kh,
            self.kw,
        ];
        Nest::new(counts).map(move |([vb, sb, kh, kw], lead)| {
            let c0 = vb * self.vl_max;
            let cs0 = (self.small_blocks.start + sb) * self.rb_c;
            WeightTap {
                vb,
                c0,
                vl: self.vl_max.min(c_vec - c0),
                cs0,
                rb_cur: self.rb_c.min(c_sum - cs0),
                kh,
                kw,
                rows: rows.reach(0, plane.0, kh),
                cols: cols.reach(0, plane.1, kw),
                outer_ops: if lead == 0 { 2 } else { 0 },
                inner_ops: 2,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-point brute force: `(offset, coord)` pairs of block `b0..b0+cnt`
    /// that tap `k` reaches under the forward or the inverse map.
    fn brute(
        inverse: bool,
        (stride, pad, len): (usize, usize, usize),
        (b0, cnt, k): (usize, usize, usize),
    ) -> Vec<(usize, usize)> {
        (0..cnt)
            .filter_map(|d| {
                let b = b0 + d;
                if inverse {
                    let t = (b + pad).checked_sub(k)?;
                    (t % stride == 0 && t / stride < len).then_some((d, t / stride))
                } else {
                    let i = (b * stride + k).checked_sub(pad)?;
                    (i < len).then_some((d, i))
                }
            })
            .collect()
    }

    #[test]
    fn reach_matches_the_per_point_check_in_both_directions() {
        for inverse in [false, true] {
            for stride in 1..4 {
                for pad in 0..4 {
                    for len in 1..7 {
                        for k in 0..6 {
                            for b0 in 0..6 {
                                for cnt in 1..5 {
                                    let axis = (stride, pad, len);
                                    let map = AxisMap::new(stride, pad, len, inverse);
                                    let got: Vec<_> = map.reach(b0, cnt, k).iter().collect();
                                    assert_eq!(
                                        got,
                                        brute(inverse, axis, (b0, cnt, k)),
                                        "inverse={inverse} axis={axis:?} b0={b0} cnt={cnt} k={k}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The output coordinate the inverse map pairs with input `i` through
    /// tap `k` (`i = o * stride + k - pad`), if any.
    fn producer(i: usize, k: usize, pad: usize, stride: usize, olen: usize) -> Option<usize> {
        let r = AxisMap::new(stride, pad, olen, true).reach(i, 1, k);
        (r.count == 1).then_some(r.coord)
    }

    #[test]
    fn producer_unit_stride() {
        // i = o + k - pad  <=>  o = i + pad - k.
        assert_eq!(producer(0, 0, 0, 1, 8), Some(0));
        assert_eq!(producer(5, 2, 1, 1, 8), Some(4));
        assert_eq!(producer(0, 2, 1, 1, 8), None, "would be negative");
        assert_eq!(producer(9, 0, 0, 1, 8), None, "past the output");
    }

    #[test]
    fn producer_stride_two_parity() {
        assert_eq!(producer(4, 0, 0, 2, 8), Some(2));
        assert_eq!(producer(5, 0, 0, 2, 8), None, "odd offset unreachable");
        assert_eq!(producer(5, 1, 0, 2, 8), Some(2));
    }

    #[test]
    fn nest_reports_the_loops_that_restart() {
        let items: Vec<_> = Nest::new([2, 1, 2]).collect();
        assert_eq!(
            items,
            vec![
                ([0, 0, 0], 0),
                ([0, 0, 1], 2),
                ([1, 0, 0], 0),
                ([1, 0, 1], 2)
            ]
        );
        assert_eq!(Nest::new([3, 0]).count(), 0, "an empty loop runs nothing");
    }
}
