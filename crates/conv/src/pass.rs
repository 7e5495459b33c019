//! One pass description: the role every tensor plays in a training pass,
//! derived once (Sections 4.1 and 4.3, Table 2).
//!
//! The paper's three passes are one algorithm under a role swap. Forward
//! data vectorizes `OC`, streams `S` as scalars over the summed `IC`
//! channels and accumulates `D` over the output plane. Backward data swaps
//! the roles: it vectorizes `IC`, streams `D_diff` over the summed `OC`
//! channels and accumulates `S_diff` over the input plane, with the weights
//! stored role-swapped so the vectorized channels stay innermost. Backward
//! weights vectorizes the larger channel dimension, register-blocks the
//! other (`RB_c`) and reduces over the output plane; when `IC > OC` it takes
//! the backward-data roles.
//!
//! [`PassRoles`] starts from that one flag — does the pass vectorize `IC`?
//! — and derives what configuration generation, the tuner, the scalar-stream
//! analysis, both tile walks and the executors read: the channel extents,
//! the scalar-stream tensor and its effective stride, the walked plane and
//! its tap direction, the Table 2 layouts and the Section 4.3 parallel
//! loop. Which operands a pass reads and writes is
//! [`Direction::output`]'s; the register budget of a configuration is
//! [`crate::KernelConfig::registers`].

use crate::kernels::walk::AxisMap;
use crate::primitive::ConvTensors;
use crate::problem::{Algorithm, ConvProblem, Direction};
use lsv_arch::ArchParams;
use lsv_tensor::{ActTensor, ActivationLayout, WeightLayout};

/// The roles of one training pass over one problem.
#[derive(Debug, Clone, Copy)]
pub struct PassRoles {
    /// The training pass.
    pub direction: Direction,
    /// The pass vectorizes `IC` instead of `OC`: always on backward data,
    /// iff `IC > OC` on backward weights (Section 4.1). The weights are then
    /// stored role-swapped and the scalar stream walks `D` instead of `S`.
    pub vec_over_ic: bool,
    /// Channels of the vectorized activation tensor.
    pub c_vec: usize,
    /// Channels of the scalar-stream tensor: summed by the data passes,
    /// register-blocked in `RB_c` blocks by backward weights.
    pub c_sum: usize,
    /// Effective stride of the scalar stream (Formula 3's `C_str`): the
    /// convolution stride where it walks `S`, 1 where it walks `D` at unit
    /// spatial steps.
    pub stream_stride: usize,
    /// `(height, width)` of the plane the walk visits: the accumulated plane
    /// of a data pass (output forward, input backward data), the output
    /// plane a backward-weights tap reduces over.
    pub plane: (usize, usize),
    /// `(height, width)` of the plane a kernel tap reaches from `plane`.
    pub tapped: (usize, usize),
    /// The minibatch.
    pub images: usize,
    /// Tap map of the walked plane's rows.
    pub(crate) rows: AxisMap,
    /// Tap map of the walked plane's columns.
    pub(crate) cols: AxisMap,
}

impl PassRoles {
    /// The roles of `direction` on `p`.
    pub fn new(p: &ConvProblem, direction: Direction) -> Self {
        let vec_over_ic = match direction {
            Direction::Fwd => false,
            Direction::BwdData => true,
            Direction::BwdWeights => p.ic > p.oc,
        };
        let (c_vec, c_sum) = if vec_over_ic {
            (p.ic, p.oc)
        } else {
            (p.oc, p.ic)
        };
        // Backward data visits the input plane and reaches the outputs that
        // read each input; every other pass visits the output plane.
        let inverse = direction == Direction::BwdData;
        let (outputs, inputs) = ((p.oh(), p.ow()), (p.ih, p.iw));
        let (plane, tapped) = if inverse {
            (inputs, outputs)
        } else {
            (outputs, inputs)
        };
        PassRoles {
            direction,
            vec_over_ic,
            c_vec,
            c_sum,
            stream_stride: if vec_over_ic { 1 } else { p.stride_w },
            plane,
            tapped,
            images: p.n,
            rows: AxisMap::new(p.stride_h, p.pad_h, tapped.0, inverse),
            cols: AxisMap::new(p.stride_w, p.pad_w, tapped.1, inverse),
        }
    }

    /// The vectorized activation tensor and the scalar-stream one: `D` and
    /// `S`, swapped when the pass vectorizes `IC`. A data pass accumulates
    /// into the vectorized one.
    pub fn activations<'t>(&self, t: &'t ConvTensors) -> (&'t ActTensor, &'t ActTensor) {
        if self.vec_over_ic {
            (&t.src, &t.dst)
        } else {
            (&t.dst, &t.src)
        }
    }

    /// Table 2's `(S, D, W)` layouts under `algorithm`: activations blocked
    /// by `min(C, N_vlen)` (DC, BDC) or `min(C, N_cline)` (MBDC); weights
    /// with the vectorized channels innermost, the summed ones blocked by the
    /// vector length (DC) or, after loop resizing, by the cache line (BDC,
    /// MBDC).
    pub fn layouts(
        &self,
        arch: &ArchParams,
        algorithm: Algorithm,
    ) -> (ActivationLayout, ActivationLayout, WeightLayout) {
        let (n_vlen, n_cline) = (arch.n_vlen(), arch.n_cline());
        let act = |c| match algorithm {
            Algorithm::Dc | Algorithm::Bdc => ActivationLayout::vlen_blocked(c, n_vlen),
            Algorithm::Mbdc => ActivationLayout::cline_blocked(c, n_cline),
        };
        let wei = match algorithm {
            Algorithm::Dc => WeightLayout::vlen_blocked(self.c_sum, self.c_vec, n_vlen),
            Algorithm::Bdc | Algorithm::Mbdc => {
                WeightLayout::loop_resized(self.c_sum, self.c_vec, n_vlen, n_cline)
            }
        };
        let (vec, stream) = (act(self.c_vec), act(self.c_sum));
        if self.vec_over_ic {
            (vec, stream, wei)
        } else {
            (stream, vec, wei)
        }
    }

    /// Items of the Section 4.3 parallel loop under channel block `rb_c`:
    /// the images of a data pass, or the `RB_c` blocks of the scalar-stream
    /// channels on backward weights (each reduces over the whole minibatch).
    pub fn work_items(&self, rb_c: usize) -> usize {
        if self.direction == Direction::BwdWeights {
            self.c_sum.div_ceil(rb_c.max(1))
        } else {
            self.images
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_data_and_wide_backward_weights_swap_roles() {
        let p = ConvProblem::new(2, 12, 20, 9, 9, 3, 3, 2, 1);
        let fwd = PassRoles::new(&p, Direction::Fwd);
        assert!(!fwd.vec_over_ic);
        assert_eq!((fwd.c_vec, fwd.c_sum, fwd.stream_stride), (20, 12, 2));
        assert_eq!((fwd.plane, fwd.tapped), ((5, 5), (9, 9)));
        let bwdd = PassRoles::new(&p, Direction::BwdData);
        assert!(bwdd.vec_over_ic);
        assert_eq!((bwdd.c_vec, bwdd.c_sum, bwdd.stream_stride), (12, 20, 1));
        assert_eq!((bwdd.plane, bwdd.tapped), ((9, 9), (5, 5)));
        // OC > IC: backward weights keeps the forward roles...
        let bwdw = PassRoles::new(&p, Direction::BwdWeights);
        assert!(!bwdw.vec_over_ic);
        assert_eq!((bwdw.c_vec, bwdw.c_sum, bwdw.stream_stride), (20, 12, 2));
        // ...and swaps them when IC > OC, streaming D at unit steps over the
        // same output plane.
        let wide = ConvProblem::new(2, 20, 12, 9, 9, 3, 3, 2, 1);
        let bwdw = PassRoles::new(&wide, Direction::BwdWeights);
        assert!(bwdw.vec_over_ic);
        assert_eq!((bwdw.c_vec, bwdw.c_sum, bwdw.stream_stride), (20, 12, 1));
        assert_eq!((bwdw.plane, bwdw.tapped), ((5, 5), (9, 9)));
    }
}
