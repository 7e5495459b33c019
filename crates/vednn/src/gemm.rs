//! Explicit im2col + GEMM convolution (the library's fallback for strided
//! convolutions and the backward-weights pass), including the implicit-GEMM
//! shortcut for 1x1/stride-1 problems where the NCHW image *is* already the
//! `K x M` column matrix.
//!
//! The column matrix is `col[k, m]` with `k = (ic, kh, kw)` and
//! `m = oy * OW + ox`, stored row-major (`M` contiguous per `k` row) in the
//! library scratch buffer. The im2col transform runs on the vector engine
//! and is charged in full — the memory overhead the paper contrasts the
//! direct algorithms against (Section 2.2).
//!
//! The OIHW weights are the row-major `OC x K` matrix `WeiRows`. The
//! forward and backward-data products broadcast its scalars: one group of
//! `B_seq` triples per `k` (forward: one weight row per accumulator) or per
//! `oc` (backward data: one column per accumulator), from one base address
//! and fixed offsets.

use crate::direct::{copy_chunked, strided_group, zero_chunked};
use crate::VednnTensors;
use lsv_arch::ArchParams;
use lsv_conv::ConvProblem;
use lsv_vengine::{Arena, ScalarValue, VCore};
use std::ops::Range;

/// Accumulator rows of the GEMM micro-kernel (bounded by the register file;
/// 16 chains hide the FMA latency at typical vector lengths).
const RB_GEMM: usize = 16;
/// Rotating vector registers for the streamed operand.
const VBUFS: usize = 3;
/// Deep software-pipeline depth for the load-bound backward-weights GEMM
/// (one column load per FMA: the LLC latency needs ~20 iterations of cover).
const VBUFS_BWDW: usize = 24;

/// Where the column matrix for the current image lives.
#[derive(Debug, Clone, Copy)]
struct ColRef {
    base: u64,
    /// `K x M` dimensions.
    k: usize,
    m: usize,
}

impl ColRef {
    #[inline]
    fn row(&self, k: usize) -> u64 {
        self.base + ((k * self.m) * 4) as u64
    }
}

/// The OIHW weights as the GEMM's row-major `OC x K` matrix: `W[oc, k]`,
/// `k = (ic, kh, kw)`, sits at `row(oc) + 4k`. The `B_seq` groups address
/// it with one base per tap and fixed per-accumulator offsets.
#[derive(Debug, Clone, Copy)]
struct WeiRows {
    base: u64,
    /// `K` (elements per row).
    k: usize,
}

impl WeiRows {
    fn of(t: &VednnTensors) -> Self {
        let w = &t.ops.wei;
        debug_assert_eq!(
            (w.layout.icb, w.layout.ocb),
            (1, 1),
            "vednn keeps plain OIHW weights"
        );
        Self {
            base: w.base,
            k: w.ic * w.kh * w.kw,
        }
    }

    #[inline]
    fn row_bytes(&self) -> u64 {
        (self.k * 4) as u64
    }

    #[inline]
    fn row(&self, oc: usize) -> u64 {
        self.base + oc as u64 * self.row_bytes()
    }
}

/// Valid output-x range `[x0, x1)` of one (kw, row) tap, i.e. the `x` with
/// `0 <= x*stride_w + kw - pad_w < IW`.
fn valid_x_range(p: &ConvProblem, kw: usize) -> (usize, usize) {
    let ow = p.ow();
    let lo = p.pad_w.saturating_sub(kw).div_ceil(p.stride_w);
    let hi_num = p.iw + p.pad_w;
    let hi = if hi_num > kw {
        ((hi_num - kw - 1) / p.stride_w + 1).min(ow)
    } else {
        0
    };
    (lo.min(ow), hi.max(lo.min(ow)))
}

/// Build (or alias) the column matrix for image `n`. Returns the reference;
/// `zreg` must hold zeros.
fn im2col(
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n: usize,
    zreg: usize,
    creg: usize,
) -> ColRef {
    let (oh, ow) = (p.oh(), p.ow());
    let m = oh * ow;
    let k_total = p.ic * p.kh * p.kw;
    if p.kh == 1 && p.kw == 1 && p.stride_h == 1 && p.stride_w == 1 && p.pad_h == 0 && p.pad_w == 0
    {
        // Implicit GEMM: the flattened NCHW image is the column matrix.
        return ColRef {
            base: t.ops.src.at(n, 0, 0, 0),
            k: k_total,
            m,
        };
    }
    let col = ColRef {
        base: t.col_buf,
        k: k_total,
        m,
    };
    let nvlen = core.arch().n_vlen();
    for ic in 0..p.ic {
        for kh in 0..p.kh {
            for kw in 0..p.kw {
                let k = (ic * p.kh + kh) * p.kw + kw;
                let (x0, x1) = valid_x_range(p, kw);
                for oy in 0..oh {
                    let dst_row = col.row(k) + ((oy * ow) * 4) as u64;
                    let ihy = (oy * p.stride_h + kh) as isize - p.pad_h as isize;
                    if ihy < 0 || ihy >= p.ih as isize {
                        zero_chunked(core, arena, dst_row, ow, zreg);
                        continue;
                    }
                    let ihy = ihy as usize;
                    if x0 > 0 {
                        zero_chunked(core, arena, dst_row, x0, zreg);
                    }
                    if x1 > x0 {
                        let iw0 = x0 * p.stride_w + kw - p.pad_w;
                        let from = t.ops.src.at(n, ic, ihy, iw0);
                        if p.stride_w == 1 {
                            copy_chunked(
                                core,
                                arena,
                                from,
                                dst_row + (x0 * 4) as u64,
                                x1 - x0,
                                creg,
                            );
                        } else {
                            // Strided row: gather with a strided vector load.
                            let mut off = 0usize;
                            while off < x1 - x0 {
                                let c = nvlen.min(x1 - x0 - off);
                                core.scalar_op();
                                core.vload_strided(
                                    arena,
                                    creg,
                                    from + ((off * p.stride_w) * 4) as u64,
                                    (p.stride_w * 4) as u64,
                                    c,
                                );
                                core.vstore(arena, creg, dst_row + ((x0 + off) * 4) as u64, c);
                                off += c;
                            }
                        }
                    }
                    if x1 < ow {
                        zero_chunked(core, arena, dst_row + (x1 * 4) as u64, ow - x1, zreg);
                    }
                }
            }
        }
    }
    col
}

/// `D[oc, m] = sum_k W[oc, k] * col[k, m]` — vectorize `m`, `RB_GEMM`
/// output-channel accumulators, software-pipelined column loads.
fn gemm_fwd_image(
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    col: ColRef,
    n: usize,
) {
    let nvlen = core.arch().n_vlen();
    let vl_max = col.m.min(nvlen);
    let vin0 = RB_GEMM;
    // Accumulator `j` reads output channel `ocb + j`'s weight row.
    let wei = WeiRows::of(t);
    let group = strided_group(RB_GEMM.min(p.oc), wei.row_bytes());
    let mut mb = 0;
    while mb < col.m {
        let vl = vl_max.min(col.m - mb);
        let mut ocb = 0;
        while ocb < p.oc {
            let u = RB_GEMM.min(p.oc - ocb);
            for j in 0..u {
                core.vbroadcast_zero(j, vl);
            }
            let lookahead = (VBUFS - 1).min(col.k);
            for kk in 0..lookahead {
                core.scalar_op();
                core.vload(arena, vin0 + kk % VBUFS, col.row(kk) + (mb * 4) as u64, vl);
            }
            let row = wei.row(ocb);
            for k in 0..col.k {
                if k + lookahead < col.k {
                    core.scalar_op();
                    core.vload(
                        arena,
                        vin0 + (k + lookahead) % VBUFS,
                        col.row(k + lookahead) + (mb * 4) as u64,
                        vl,
                    );
                }
                let vin = vin0 + k % VBUFS;
                core.fma_bcast_group(arena, vin, vl, row + (k * 4) as u64, &group[..u]);
            }
            for j in 0..u {
                let out = t.ops.dst.at(n, ocb + j, 0, 0) + (mb * 4) as u64;
                core.vstore(arena, j, out, vl);
            }
            ocb += RB_GEMM;
        }
        mb += vl_max;
    }
}

/// Forward pass via im2col + GEMM.
pub fn run_fwd(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    let _ = arch;
    let zreg = RB_GEMM + VBUFS;
    let creg = zreg + 1;
    core.vbroadcast_zero(zreg, core.arch().n_vlen());
    for n in n_range {
        core.scalar_ops(2);
        let col = im2col(p, core, arena, t, n, zreg, creg);
        gemm_fwd_image(p, core, arena, t, col, n);
    }
}

/// Backward data via GEMM: `col_diff = W^T x D_diff`, then col2im
/// scatter-add into `S_diff`.
pub fn run_bwd_data(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let m = oh * ow;
    let k_total = p.ic * p.kh * p.kw;
    let nvlen = core.arch().n_vlen();
    let vl_max = m.min(nvlen);
    let vin0 = RB_GEMM;
    let zreg = RB_GEMM + VBUFS;
    let creg = zreg + 1;
    let areg = creg + 1;
    core.vbroadcast_zero(zreg, nvlen);
    let col = ColRef {
        base: t.col_buf,
        k: k_total,
        m,
    };
    // Accumulator `j` reads column `kb + j` of each weight row.
    let wei = WeiRows::of(t);
    let group = strided_group(RB_GEMM.min(k_total), 4);
    for n in n_range {
        core.scalar_ops(2);
        // --- col_diff[k, m] = sum_oc W[oc, k] * D[oc, m]
        let mut mb = 0;
        while mb < m {
            let vl = vl_max.min(m - mb);
            let mut kb = 0;
            while kb < k_total {
                let u = RB_GEMM.min(k_total - kb);
                for j in 0..u {
                    core.vbroadcast_zero(j, vl);
                }
                let lookahead = (VBUFS - 1).min(p.oc);
                let d_row = |oc: usize| t.ops.dst.at(n, oc, 0, 0) + (mb * 4) as u64;
                for oc in 0..lookahead {
                    core.scalar_op();
                    core.vload(arena, vin0 + oc % VBUFS, d_row(oc), vl);
                }
                for oc in 0..p.oc {
                    if oc + lookahead < p.oc {
                        core.scalar_op();
                        core.vload(
                            arena,
                            vin0 + (oc + lookahead) % VBUFS,
                            d_row(oc + lookahead),
                            vl,
                        );
                    }
                    let vin = vin0 + oc % VBUFS;
                    let taps = wei.row(oc) + (kb * 4) as u64;
                    core.fma_bcast_group(arena, vin, vl, taps, &group[..u]);
                }
                for j in 0..u {
                    core.vstore(arena, j, col.row(kb + j) + (mb * 4) as u64, vl);
                }
                kb += RB_GEMM;
            }
            mb += vl_max;
        }
        // --- zero S_diff[n], then col2im scatter-add.
        let img = t.ops.src.at(n, 0, 0, 0);
        zero_chunked(core, arena, img, p.ic * p.ih * p.iw, zreg);
        for ic in 0..p.ic {
            for kh in 0..p.kh {
                for kw in 0..p.kw {
                    let k = (ic * p.kh + kh) * p.kw + kw;
                    let (x0, x1) = valid_x_range(p, kw);
                    if x1 <= x0 {
                        continue;
                    }
                    for oy in 0..oh {
                        let ihy = (oy * p.stride_h + kh) as isize - p.pad_h as isize;
                        if ihy < 0 || ihy >= p.ih as isize {
                            continue;
                        }
                        let ihy = ihy as usize;
                        let col_row = col.row(k) + ((oy * ow + x0) * 4) as u64;
                        let iw0 = x0 * p.stride_w + kw - p.pad_w;
                        let s_row = t.ops.src.at(n, ic, ihy, iw0);
                        let seg = x1 - x0;
                        let mut off = 0usize;
                        while off < seg {
                            let c = nvlen.min(seg - off);
                            core.scalar_op();
                            core.vload(arena, creg, col_row + (off * 4) as u64, c);
                            if p.stride_w == 1 {
                                core.vload(arena, areg, s_row + (off * 4) as u64, c);
                                core.vfma_bcast(areg, creg, ScalarValue::constant(1.0), c);
                                core.vstore(arena, areg, s_row + (off * 4) as u64, c);
                            } else {
                                let stride_b = (p.stride_w * 4) as u64;
                                let base = s_row + ((off * p.stride_w) * 4) as u64;
                                core.vload_strided(arena, areg, base, stride_b, c);
                                core.vfma_bcast(areg, creg, ScalarValue::constant(1.0), c);
                                core.vstore_strided(arena, areg, base, stride_b, c);
                            }
                            off += c;
                        }
                    }
                }
            }
        }
    }
}

/// Backward weights via GEMM: `W_diff[oc, k] = sum_{n,m} D[oc, m] * col[k, m]`
/// — vector-vector FMAs over `m` chunks with a horizontal reduction per
/// output element, accumulated across the minibatch with scalar
/// read-modify-writes.
pub fn run_bwd_weights(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let m = oh * ow;
    let k_total = p.ic * p.kh * p.kw;
    let nvlen = core.arch().n_vlen();
    let vl_max = m.min(nvlen);
    let wei = WeiRows::of(t);
    let dreg = RB_GEMM; // streamed D row chunk
    let creg0 = RB_GEMM + 1; // column-row buffers (VBUFS_BWDW of them)
    let zreg = creg0 + VBUFS_BWDW; // zero register
    core.vbroadcast_zero(zreg, nvlen);
    // Zero the output gradient tensor so the per-image RMW accumulation
    // starts clean (and the kernel stays idempotent per invocation).
    zero_chunked(core, arena, t.ops.wei.base, t.ops.wei.elems_padded(), zreg);
    for n in n_range {
        core.scalar_ops(2);
        let col = im2col(p, core, arena, t, n, zreg, creg0);
        for oc in 0..p.oc {
            let mut kb = 0;
            while kb < k_total {
                let u = RB_GEMM.min(k_total - kb);
                for j in 0..u {
                    core.vbroadcast_zero(j, vl_max);
                }
                // Flatten the (mb, j) iteration space so the column loads
                // can be pipelined VBUFS_BWDW-deep across chunk boundaries.
                let m_chunks = m.div_ceil(vl_max);
                let total = m_chunks * u;
                let coord = |i: usize| -> (usize, usize, usize) {
                    let mbi = i / u;
                    let j = i % u;
                    let mb = mbi * vl_max;
                    (mb, vl_max.min(m - mb), j)
                };
                let lookahead = (VBUFS_BWDW - 1).min(total);
                for i in 0..lookahead {
                    let (mb, vl, j) = coord(i);
                    core.scalar_op();
                    core.vload(
                        arena,
                        creg0 + i % VBUFS_BWDW,
                        col.row(kb + j) + (mb * 4) as u64,
                        vl,
                    );
                }
                for i in 0..total {
                    if i + lookahead < total {
                        let (mb, vl, j) = coord(i + lookahead);
                        core.scalar_op();
                        core.vload(
                            arena,
                            creg0 + (i + lookahead) % VBUFS_BWDW,
                            col.row(kb + j) + (mb * 4) as u64,
                            vl,
                        );
                    }
                    let (mb, vl, j) = coord(i);
                    if j == 0 {
                        core.scalar_op();
                        core.vload(arena, dreg, t.ops.dst.at(n, oc, 0, 0) + (mb * 4) as u64, vl);
                    }
                    core.vfma_vv(j, dreg, creg0 + i % VBUFS_BWDW, vl);
                }
                for j in 0..u {
                    let k = kb + j;
                    let sum = core.vreduce_sum(j, vl_max);
                    let addr = wei.row(oc) + (k * 4) as u64;
                    let old = core.scalar_load(arena, addr);
                    core.scalar_op();
                    core.scalar_store(arena, addr, old.value + sum.value);
                }
                kb += RB_GEMM;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(iw: usize, k: usize, s: usize, pad: usize) -> ConvProblem {
        ConvProblem::new(1, 1, 1, iw, iw, k, k, s, pad)
    }

    #[test]
    fn valid_x_range_unit_stride_no_pad() {
        // 1x1, stride 1, no pad: every output column is valid.
        let pr = p(8, 1, 1, 0);
        assert_eq!(valid_x_range(&pr, 0), (0, 8));
    }

    #[test]
    fn valid_x_range_padded_3x3() {
        // 3x3 pad 1: kw=0 loses the first column, kw=2 the last.
        let pr = p(8, 3, 1, 1);
        assert_eq!(valid_x_range(&pr, 0), (1, 8));
        assert_eq!(valid_x_range(&pr, 1), (0, 8));
        assert_eq!(valid_x_range(&pr, 2), (0, 7));
    }

    #[test]
    fn valid_x_range_strided() {
        // stride 2, pad 1, k 3: iw_idx = 2x + kw - 1 must be in [0, 9).
        let pr = p(9, 3, 2, 1);
        let (oh, ow) = (pr.oh(), pr.ow());
        assert_eq!((oh, ow), (5, 5));
        // kw = 0: 2x - 1 >= 0 -> x >= 1 (ceil(1/2)=1); 2x - 1 <= 8 -> x <= 4.
        assert_eq!(valid_x_range(&pr, 0), (1, 5));
        // kw = 2: 2x + 1 <= 8 -> x <= 3.
        assert_eq!(valid_x_range(&pr, 2), (0, 4));
    }

    #[test]
    fn valid_x_range_never_exceeds_ow() {
        for k in 1..=3 {
            for s in 1..=2 {
                for pad in 0..k {
                    let pr = p(10, k, s, pad);
                    for kw in 0..k {
                        let (x0, x1) = valid_x_range(&pr, kw);
                        assert!(
                            x0 <= x1 && x1 <= pr.ow(),
                            "k{k} s{s} p{pad} kw{kw}: {x0}..{x1}"
                        );
                        // Every x in range must index inside the image.
                        for x in x0..x1 {
                            let iw = (x * s + kw) as isize - pad as isize;
                            assert!((0..pr.iw as isize).contains(&iw));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn colref_row_addressing() {
        let c = ColRef {
            base: 4096,
            k: 4,
            m: 100,
        };
        assert_eq!(c.row(0), 4096);
        assert_eq!(c.row(1), 4096 + 400);
        assert_eq!(c.row(3), 4096 + 1200);
    }
}
