//! The naive reference convolution (Algorithm 1) for all three training
//! directions, operating on host NCHW / OIHW buffers.
//!
//! Used as the correctness oracle for every simulated kernel (the artifact's
//! `validate.sh` role), through [`reference`].
//!
//! # Summation-order contract
//!
//! Every output element receives its f32 products in exactly Algorithm 1's
//! order, as separate multiplies and adds (never a fused multiply-add):
//!
//! - **forward:** each `D[n,oc,oh,ow]` sums from `0.0` over `(ic, kh, kw)`
//!   ascending;
//! - **backward-data:** each `S_diff[n,ic,ih,iw]` sums from `0.0` over `oc`
//!   ascending, then over the covering output points `(oh, ow)` ascending,
//!   which is `(kh, kw)` descending;
//! - **backward-weights:** per image `n` ascending, each `(oc, ic, kh, kw)`
//!   sums from `0.0` over `(oh, ow)` ascending, and that partial sum is then
//!   added into `W_diff`.
//!
//! Out-of-image taps are skipped, not added as zero. The kernels below
//! reorder the loops so that a channel dimension runs innermost over
//! channels-last scratch, which the compiler vectorizes, but no element's
//! sequence of additions changes. The outputs are therefore bit-identical
//! to the literal seven-deep nest, and that is what keeps
//! `results/validate.csv` and every golden `rel_err` bit pattern fixed.
//! Scratch is one image's channels-last activation plus one per-channel
//! weight slab; the weight tensor is never copied whole.

use crate::problem::{taps, ConvProblem, Direction};

/// The reference output of `dir` and its f32 reduction length (the number of
/// products summed into each output element, which scales the validation
/// tolerance).
///
/// Operands are the logical NCHW `src` / `dst` and OIHW `wei` buffers; the
/// direction reads the two it needs (the third may be empty).
pub fn reference(
    p: &ConvProblem,
    dir: Direction,
    src: &[f32],
    wei: &[f32],
    dst: &[f32],
) -> (Vec<f32>, usize) {
    let out = match dir {
        Direction::Fwd => forward(p, src, wei),
        Direction::BwdData => backward_data(p, dst, wei),
        Direction::BwdWeights => backward_weights(p, src, dst),
    };
    (out, reduction_len(p, dir))
}

/// Number of products summed into each output element of `dir`.
pub(crate) fn reduction_len(p: &ConvProblem, dir: Direction) -> usize {
    match dir {
        Direction::Fwd => p.ic * p.kh * p.kw,
        Direction::BwdData => p.oc * p.kh * p.kw,
        Direction::BwdWeights => p.n * p.oh() * p.ow(),
    }
}

/// `acc[c] += s * w[c]`: one multiply, then one add, per channel.
#[inline]
fn axpy(acc: &mut [f32], s: f32, w: &[f32]) {
    for (a, &w) in acc.iter_mut().zip(w) {
        *a += s * w;
    }
}

/// Channels-last `(plane, c)` scratch back to channel-major `(c, plane)`.
fn to_channel_major(cl: &[f32], c: usize, out: &mut [f32]) {
    let plane = out.len() / c;
    for (ch, row) in out.chunks_exact_mut(plane).enumerate() {
        for (o, v) in row.iter_mut().zip(cl[ch..].iter().step_by(c)) {
            *o = *v;
        }
    }
}

/// The `(kh, kw, c)` slab of weights for one fixed channel of the other
/// axis: `slab[(kh*KW + kw)*C + c] = W[at(c) .. at(c) + KH*KW]`.
fn weight_slab(wei: &[f32], kk: usize, c: usize, at: impl Fn(usize) -> usize, slab: &mut [f32]) {
    for ch in 0..c {
        for (t, &w) in wei[at(ch)..][..kk].iter().enumerate() {
            slab[t * c + ch] = w;
        }
    }
}

/// Forward data: `D[n,oc,oh,ow] = sum_{ic,kh,kw} S[n,ic,ih,iw] * W[oc,ic,kh,kw]`
/// with `ih = oh*stride + kh - pad` (Algorithm 1).
///
/// `src` is NCHW `(N, IC, IH, IW)`, `wei` is OIHW `(OC, IC, KH, KW)`;
/// returns NCHW `(N, OC, OH, OW)`. Loop order `n, ic, kh, kw, oh, ow | oc`
/// over a per-`ic` weight slab `(kh, kw, oc)`.
///
/// ```
/// use lsv_conv::{naive, ConvProblem};
/// // 2x2 box filter over a 3x3 ramp, no padding.
/// let p = ConvProblem::new(1, 1, 1, 3, 3, 2, 2, 1, 0);
/// let src: Vec<f32> = (0..9).map(|i| i as f32).collect();
/// let dst = naive::forward(&p, &src, &[1.0; 4]);
/// assert_eq!(dst, vec![8.0, 12.0, 20.0, 24.0]);
/// ```
pub fn forward(p: &ConvProblem, src: &[f32], wei: &[f32]) -> Vec<f32> {
    assert_eq!(src.len(), p.n * p.ic * p.ih * p.iw, "src shape");
    assert_eq!(wei.len(), p.oc * p.ic * p.kh * p.kw, "wei shape");
    let (oh, ow, kk, oc) = (p.oh(), p.ow(), p.kh * p.kw, p.oc);
    let mut dst = vec![0.0f32; p.n * oc * oh * ow];
    let mut acc = vec![0.0f32; oh * ow * oc];
    let mut slab = vec![0.0f32; kk * oc];
    for (n, dst_img) in dst.chunks_exact_mut(oc * oh * ow).enumerate() {
        acc.fill(0.0);
        for ic in 0..p.ic {
            weight_slab(wei, kk, oc, |o| (o * p.ic + ic) * kk, &mut slab);
            let s_img = &src[(n * p.ic + ic) * p.ih * p.iw..][..p.ih * p.iw];
            for kh in 0..p.kh {
                for kw in 0..p.kw {
                    let w = &slab[(kh * p.kw + kw) * oc..][..oc];
                    for y in taps(oh, p.stride_h, kh, p.pad_h, p.ih) {
                        let s_row = &s_img[(y * p.stride_h + kh - p.pad_h) * p.iw..][..p.iw];
                        for x in taps(ow, p.stride_w, kw, p.pad_w, p.iw) {
                            let s = s_row[x * p.stride_w + kw - p.pad_w];
                            axpy(&mut acc[(y * ow + x) * oc..][..oc], s, w);
                        }
                    }
                }
            }
        }
        to_channel_major(&acc, oc, dst_img);
    }
    dst
}

/// Backward data: `S_diff[n,ic,ih,iw] = sum_{oc,kh,kw} D_diff[n,oc,oh,ow] * W[oc,ic,kh,kw]`
/// where `(oh, ow)` are the output points whose receptive field covers
/// `(ih, iw)` at offset `(kh, kw)`.
///
/// `dst_diff` is NCHW `(N, OC, OH, OW)`, `wei` is OIHW; returns NCHW
/// `(N, IC, IH, IW)`. Loop order `n, oc, kh↓, kw↓, oh, ow | ic` over a
/// per-`oc` weight slab `(kh, kw, ic)`.
pub fn backward_data(p: &ConvProblem, dst_diff: &[f32], wei: &[f32]) -> Vec<f32> {
    let (oh, ow, kk, ic) = (p.oh(), p.ow(), p.kh * p.kw, p.ic);
    assert_eq!(dst_diff.len(), p.n * p.oc * oh * ow, "dst_diff shape");
    assert_eq!(wei.len(), p.oc * ic * kk, "wei shape");
    let mut src_diff = vec![0.0f32; p.n * ic * p.ih * p.iw];
    let mut acc = vec![0.0f32; p.ih * p.iw * ic];
    let mut slab = vec![0.0f32; kk * ic];
    for (n, sd_img) in src_diff.chunks_exact_mut(ic * p.ih * p.iw).enumerate() {
        acc.fill(0.0);
        for oc in 0..p.oc {
            weight_slab(wei, kk, ic, |i| (oc * ic + i) * kk, &mut slab);
            let d_img = &dst_diff[(n * p.oc + oc) * oh * ow..][..oh * ow];
            for kh in (0..p.kh).rev() {
                for kw in (0..p.kw).rev() {
                    let w = &slab[(kh * p.kw + kw) * ic..][..ic];
                    for y in taps(oh, p.stride_h, kh, p.pad_h, p.ih) {
                        let ih = y * p.stride_h + kh - p.pad_h;
                        for x in taps(ow, p.stride_w, kw, p.pad_w, p.iw) {
                            let iw = x * p.stride_w + kw - p.pad_w;
                            axpy(
                                &mut acc[(ih * p.iw + iw) * ic..][..ic],
                                d_img[y * ow + x],
                                w,
                            );
                        }
                    }
                }
            }
        }
        to_channel_major(&acc, ic, sd_img);
    }
    src_diff
}

/// Backward weights:
/// `W_diff[oc,ic,kh,kw] = sum_{n,oh,ow} D_diff[n,oc,oh,ow] * S[n,ic,ih,iw]`.
///
/// `src` is NCHW `(N, IC, IH, IW)`, `dst_diff` is NCHW `(N, OC, OH, OW)`;
/// returns OIHW `(OC, IC, KH, KW)`. Loop order `n, oc, kh, kw, oh, ow | ic`
/// over a per-image `(ih, iw, ic)` copy of `S`; each per-image partial
/// IC-vector is then added into `W_diff` at stride `KH*KW`.
pub fn backward_weights(p: &ConvProblem, src: &[f32], dst_diff: &[f32]) -> Vec<f32> {
    let (oh, ow, kk, ic) = (p.oh(), p.ow(), p.kh * p.kw, p.ic);
    assert_eq!(src.len(), p.n * ic * p.ih * p.iw, "src shape");
    assert_eq!(dst_diff.len(), p.n * p.oc * oh * ow, "dst_diff shape");
    let mut wd = vec![0.0f32; p.oc * ic * kk];
    let plane = p.ih * p.iw;
    let mut s_cl = vec![0.0f32; plane * ic];
    let mut part = vec![0.0f32; ic];
    for n in 0..p.n {
        let s_img = &src[n * ic * plane..][..ic * plane];
        for (c, row) in s_img.chunks_exact(plane).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                s_cl[i * ic + c] = v;
            }
        }
        for oc in 0..p.oc {
            let d_img = &dst_diff[(n * p.oc + oc) * oh * ow..][..oh * ow];
            for kh in 0..p.kh {
                for kw in 0..p.kw {
                    part.fill(0.0);
                    for y in taps(oh, p.stride_h, kh, p.pad_h, p.ih) {
                        let ih = y * p.stride_h + kh - p.pad_h;
                        for x in taps(ow, p.stride_w, kw, p.pad_w, p.iw) {
                            let iw = x * p.stride_w + kw - p.pad_w;
                            axpy(
                                &mut part,
                                d_img[y * ow + x],
                                &s_cl[(ih * p.iw + iw) * ic..][..ic],
                            );
                        }
                    }
                    let wd_oc = &mut wd[oc * ic * kk + kh * p.kw + kw..];
                    for (w, &v) in wd_oc.iter_mut().step_by(kk).zip(&part) {
                        *w += v;
                    }
                }
            }
        }
    }
    wd
}

/// Largest error of a sequence, with a NaN error counted as infinite (so it
/// fails every tolerance instead of being dropped by `f32::max`).
fn worst(errs: impl Iterator<Item = f32>) -> f32 {
    errs.fold(
        0.0,
        |m, e| if e.is_nan() { f32::INFINITY } else { m.max(e) },
    )
}

/// Maximum absolute elementwise difference between two buffers; a NaN in
/// either buffer yields infinity.
///
/// # Panics
/// Panics when lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "buffer length mismatch");
    worst(a.iter().zip(b).map(|(x, y)| (x - y).abs()))
}

/// Largest per-element relative error `|got - ref| / max(|ref|, 1)`
/// (benchdnn's criterion); a NaN in either buffer yields infinity.
///
/// # Panics
/// Panics when lengths differ.
pub(crate) fn max_rel_err(got: &[f32], reference: &[f32]) -> f32 {
    assert_eq!(got.len(), reference.len(), "buffer length mismatch");
    worst(
        got.iter()
            .zip(reference)
            .map(|(g, r)| (g - r).abs() / r.abs().max(1.0)),
    )
}

/// Norm-wise relative error `max|got - ref| / max(max|ref|, 1)`, the
/// looser criterion the vednn baseline is held to; a NaN in either buffer
/// yields infinity.
///
/// # Panics
/// Panics when lengths differ.
pub fn normwise_rel_err(got: &[f32], reference: &[f32]) -> f32 {
    let scale = reference
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(1.0);
    max_abs_diff(got, reference) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn identity_1x1_kernel() {
        // 1x1 conv with identity weights over IC=OC copies the input.
        let p = ConvProblem::new(1, 2, 2, 4, 4, 1, 1, 1, 0);
        let src = rand_vec(p.n * p.ic * p.ih * p.iw, 1);
        let mut wei = vec![0.0; 4];
        wei[0] = 1.0; // W[0,0]
        wei[3] = 1.0; // W[1,1]
        let dst = forward(&p, &src, &wei);
        assert_eq!(dst, src);
    }

    #[test]
    fn forward_3x3_hand_computed() {
        // 3x3 all-ones kernel, 3x3 all-ones input, pad 1: center output = 9.
        let p = ConvProblem::new(1, 1, 1, 3, 3, 3, 3, 1, 1);
        let src = vec![1.0; 9];
        let wei = vec![1.0; 9];
        let dst = forward(&p, &src, &wei);
        assert_eq!(dst[4], 9.0, "center sees all 9 taps");
        assert_eq!(dst[0], 4.0, "corner sees 4 taps");
        assert_eq!(dst[1], 6.0, "edge sees 6 taps");
    }

    #[test]
    fn strided_forward_shape_and_values() {
        let p = ConvProblem::new(1, 1, 1, 4, 4, 1, 1, 2, 0);
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let dst = forward(&p, &src, &[1.0]);
        assert_eq!(dst, vec![0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn backward_data_is_adjoint_of_forward() {
        // <conv(S, W), D> == <S, conv*(D, W)> — the defining adjoint
        // property of the data gradient.
        let p = ConvProblem::new(2, 3, 4, 6, 6, 3, 3, 1, 1);
        let s = rand_vec(p.n * p.ic * p.ih * p.iw, 2);
        let w = rand_vec(p.oc * p.ic * p.kh * p.kw, 3);
        let d = rand_vec(p.n * p.oc * p.oh() * p.ow(), 4);
        let fwd = forward(&p, &s, &w);
        let bwd = backward_data(&p, &d, &w);
        let lhs: f64 = fwd
            .iter()
            .zip(&d)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = s
            .iter()
            .zip(&bwd)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn backward_weights_is_adjoint_in_w() {
        // <conv(S, W), D> == <W, conv_w*(S, D)>.
        let p = ConvProblem::new(2, 3, 4, 6, 6, 3, 3, 2, 1);
        let s = rand_vec(p.n * p.ic * p.ih * p.iw, 5);
        let w = rand_vec(p.oc * p.ic * p.kh * p.kw, 6);
        let d = rand_vec(p.n * p.oc * p.oh() * p.ow(), 7);
        let fwd = forward(&p, &s, &w);
        let wd = backward_weights(&p, &s, &d);
        let lhs: f64 = fwd
            .iter()
            .zip(&d)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = w
            .iter()
            .zip(&wd)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }
}
