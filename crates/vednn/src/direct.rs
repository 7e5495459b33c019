//! Spatial-domain vectorized direct kernels (unit stride), the style of
//! vednn's tuned convolution routines: plain NCHW tensors, a physically
//! zero-padded source image, and 2-D vector loads that pack several complete
//! output rows into one long vector register.
//!
//! Vector utilization is `rows * OW / N_vlen`: near-full on 56x56 images
//! (9 rows x 56 = 504 of 512 lanes) but only 49/512 lanes on the 7x7 layers
//! — the efficiency cliff the paper's Figure 4 shows for vednn on layer ids
//! 14-18.
//!
//! Each tap broadcasts `UNROLL_C` output channels' weights into their
//! accumulators: one `B_seq` group from the tap's weight address, the
//! channels a fixed stride apart.

use crate::VednnTensors;
use lsv_arch::ArchParams;
use lsv_conv::ConvProblem;
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Output-channel unroll: independent accumulator chains that share each
/// loaded source vector (hides the FMA latency like the paper's register
/// blocking does for the channel-blocked kernels).
const UNROLL_C: usize = 8;
/// Rotating source-vector registers for software pipelining.
const VIN_BUFS: usize = 3;

/// Copy `len` contiguous elements via chunked vector load/store (library
/// pack routine).
pub(crate) fn copy_chunked(
    core: &mut VCore,
    arena: &mut Arena,
    from: u64,
    to: u64,
    len: usize,
    reg: usize,
) {
    let nvlen = core.arch().n_vlen();
    let mut off = 0usize;
    while off < len {
        let c = nvlen.min(len - off);
        core.scalar_op();
        core.vload(arena, reg, from + (off * 4) as u64, c);
        core.vstore(arena, reg, to + (off * 4) as u64, c);
        off += c;
    }
}

/// The `(accumulator, offset)` list of a `B_seq` group whose `n`
/// accumulators read scalars `stride` bytes apart: issued from one base
/// address per tap through [`VCore::fma_bcast_group`].
pub(crate) fn strided_group(n: usize, stride: u64) -> Vec<(usize, u64)> {
    (0..n).map(|j| (j, j as u64 * stride)).collect()
}

/// Zero `len` contiguous elements using a pre-zeroed register.
pub(crate) fn zero_chunked(core: &mut VCore, arena: &mut Arena, to: u64, len: usize, zreg: usize) {
    let nvlen = core.arch().n_vlen();
    let mut off = 0usize;
    while off < len {
        let c = nvlen.min(len - off);
        core.scalar_op();
        core.vstore(arena, zreg, to + (off * 4) as u64, c);
        off += c;
    }
}

/// Pack one image `(C, H, W)` read through `src_at` into the zero-bordered
/// scratch buffer with padding `pb` (borders stay zero: the arena is
/// zero-initialized and only the interior is ever written).
#[allow(clippy::too_many_arguments)]
fn pack_image(
    core: &mut VCore,
    arena: &mut Arena,
    src_at: &dyn Fn(usize, usize, usize) -> u64,
    c: usize,
    h: usize,
    w: usize,
    pad_buf: u64,
    pb: usize,
    reg: usize,
) {
    let pw = w + 2 * pb;
    for ch in 0..c {
        for y in 0..h {
            let from = src_at(ch, y, 0);
            let to = pad_buf + (((ch * (h + 2 * pb) + y + pb) * pw + pb) * 4) as u64;
            copy_chunked(core, arena, from, to, w, reg);
        }
    }
}

/// Address inside the padded scratch image.
#[inline]
fn pad_at(pad_buf: u64, h_pad: usize, w_pad: usize, c: usize, y: usize, x: usize) -> u64 {
    pad_buf + (((c * h_pad + y) * w_pad + x) * 4) as u64
}

/// The shared spatial kernel: output `(C_out, OH, OW)`, reduction over
/// `(C_in, KH, KW)` taps of a padded input image, `UNROLL_C` output-channel
/// accumulators. `wei_tap(ci, kh, kw)` supplies output channel 0's scalar
/// weight address at a tap, and output channel `co`'s lies `co *
/// wei_co_stride` bytes after it (the bwd-data caller rotates the kernel
/// and swaps roles here). Each tap's scalars are one `B_seq` group from one
/// base address.
#[allow(clippy::too_many_arguments)]
fn spatial_conv_image(
    core: &mut VCore,
    arena: &mut Arena,
    c_out: usize,
    c_in: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    in_buf: u64,
    in_h: usize,
    in_w: usize,
    wei_tap: &dyn Fn(usize, usize, usize) -> u64,
    wei_co_stride: u64,
    out_at: &dyn Fn(usize, usize, usize) -> u64,
) {
    let nvlen = core.arch().n_vlen();
    let cols = ow.min(nvlen);
    let rows = if ow <= nvlen {
        (nvlen / ow).max(1).min(oh)
    } else {
        1
    };
    let taps = c_in * kh * kw;
    let lookahead = (VIN_BUFS - 1).min(taps);
    let vin0 = UNROLL_C;
    let group = strided_group(UNROLL_C.min(c_out), wei_co_stride);

    let mut ocb = 0;
    while ocb < c_out {
        let uo = UNROLL_C.min(c_out - ocb);
        let mut rg = 0;
        while rg < oh {
            let rcur = rows.min(oh - rg);
            let mut cg = 0;
            while cg < ow {
                let ccur = cols.min(ow - cg);
                let vl = rcur * ccur;
                for u in 0..uo {
                    core.vbroadcast_zero(u, vl);
                }
                let tap_addr = |j: usize| -> (usize, usize, usize, u64) {
                    let ci = j / (kh * kw);
                    let r = j % (kh * kw);
                    let ky = r / kw;
                    let kx = r % kw;
                    let a = pad_at(in_buf, in_h, in_w, ci, rg + ky, cg + kx);
                    (ci, ky, kx, a)
                };
                for j in 0..lookahead {
                    let (_, _, _, a) = tap_addr(j);
                    core.scalar_op();
                    core.vload_rows(arena, vin0 + j % VIN_BUFS, a, ccur, (in_w * 4) as u64, rcur);
                }
                for j in 0..taps {
                    if j + lookahead < taps {
                        let (_, _, _, a) = tap_addr(j + lookahead);
                        core.scalar_op();
                        core.vload_rows(
                            arena,
                            vin0 + (j + lookahead) % VIN_BUFS,
                            a,
                            ccur,
                            (in_w * 4) as u64,
                            rcur,
                        );
                    }
                    let vin = vin0 + j % VIN_BUFS;
                    let (ci, ky, kx, _) = tap_addr(j);
                    let wbase = wei_tap(ci, ky, kx) + ocb as u64 * wei_co_stride;
                    core.fma_bcast_group(arena, vin, vl, wbase, &group[..uo]);
                }
                for u in 0..uo {
                    core.vstore_rows(
                        arena,
                        u,
                        out_at(ocb + u, rg, cg),
                        ccur,
                        (ow * 4) as u64,
                        rcur,
                    );
                }
                cg += cols;
            }
            rg += rows;
        }
        ocb += UNROLL_C;
    }
}

/// Forward pass, unit stride: `D = conv(S, W)`.
pub fn run_fwd(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    assert!(
        p.stride_h == 1 && p.stride_w == 1,
        "direct spatial kernel is unit-stride only"
    );
    assert_eq!(p.pad_h, p.pad_w, "pack_image pads both axes equally");
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let pb = p.pad_h;
    let (in_h, in_w) = (p.ih + 2 * pb, p.iw + 2 * pb);
    let reg_pack = UNROLL_C + VIN_BUFS; // scratch register for packing
    for n in n_range {
        core.scalar_ops(2);
        let src = t.ops.src;
        let (in_buf, ih_eff, iw_eff);
        if pb > 0 {
            pack_image(
                core,
                arena,
                &|c, y, x| src.at(n, c, y, x),
                p.ic,
                p.ih,
                p.iw,
                t.pad_buf,
                pb,
                reg_pack,
            );
            in_buf = t.pad_buf;
            ih_eff = in_h;
            iw_eff = in_w;
        } else {
            // No padding: read the NCHW image in place.
            in_buf = src.at(n, 0, 0, 0);
            ih_eff = p.ih;
            iw_eff = p.iw;
        }
        let wei = t.ops.wei;
        let dst = t.ops.dst;
        spatial_conv_image(
            core,
            arena,
            p.oc,
            p.ic,
            oh,
            ow,
            p.kh,
            p.kw,
            in_buf,
            ih_eff,
            iw_eff,
            &|ci, ky, kx| wei.at(0, ci, ky, kx),
            (p.ic * p.kh * p.kw * 4) as u64,
            &|co, y, x| dst.at(n, co, y, x),
        );
    }
}

/// Backward data, unit stride: `S_diff = full_corr(D_diff padded by K-1-pad,
/// rot180(W))` with the channel roles swapped.
pub fn run_bwd_data(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    assert!(p.stride_h == 1 && p.stride_w == 1);
    assert!(p.pad_h < p.kh && p.pad_w < p.kw, "full-correlation padding");
    assert_eq!(
        p.kh - 1 - p.pad_h,
        p.kw - 1 - p.pad_w,
        "pack_image pads both axes equally"
    );
    let pb = p.kh - 1 - p.pad_h;
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let (in_h, in_w) = (oh + 2 * pb, ow + 2 * pb);
    let reg_pack = UNROLL_C + VIN_BUFS;
    for n in n_range {
        core.scalar_ops(2);
        let dstg = t.ops.dst;
        let (in_buf, ih_eff, iw_eff);
        if pb > 0 {
            pack_image(
                core,
                arena,
                &|c, y, x| dstg.at(n, c, y, x),
                p.oc,
                oh,
                ow,
                t.pad_buf,
                pb,
                reg_pack,
            );
            in_buf = t.pad_buf;
            ih_eff = in_h;
            iw_eff = in_w;
        } else {
            in_buf = dstg.at(n, 0, 0, 0);
            ih_eff = oh;
            iw_eff = ow;
        }
        let wei = t.ops.wei;
        let src = t.ops.src;
        let (kh, kw) = (p.kh, p.kw);
        spatial_conv_image(
            core,
            arena,
            p.ic,
            p.oc,
            p.ih,
            p.iw,
            kh,
            kw,
            in_buf,
            ih_eff,
            iw_eff,
            // rotated kernel, swapped channel roles
            &|co_in, ky, kx| wei.at(co_in, 0, kh - 1 - ky, kw - 1 - kx),
            (kh * kw * 4) as u64,
            &|ci_out, y, x| src.at(n, ci_out, y, x),
        );
    }
}
