//! The naive reference against the literal Algorithm 1 loops, bit for bit,
//! and NaN-poisoned outputs against every validation entry point.
//!
//! `lsv_conv::naive` runs loop-reordered kernels with a channel dimension
//! innermost. Its contract is that every output element still receives its
//! f32 additions in Algorithm 1's order, so the results must equal the
//! seven-deep nests below under `f32::to_bits`, not merely within a
//! tolerance. The nests are the oracle only; they never run outside tests.

use lsvconv::conv::{
    naive, verify, Algorithm, ConvPrimitive, ConvProblem, ConvTensors, Direction, ExecBackend,
    MulticoreReport, NativeBackend,
};
use lsvconv::models::resnet_layer;
use lsvconv::prelude::sx_aurora;
use lsvconv::vengine::{Arena, CoreStats};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Algorithm 1, forward: per output element, `(ic, kh, kw)` ascending.
fn oracle_forward(p: &ConvProblem, src: &[f32], wei: &[f32]) -> Vec<f32> {
    let (oh, ow) = (p.oh(), p.ow());
    let mut dst = vec![0.0f32; p.n * p.oc * oh * ow];
    for n in 0..p.n {
        for oc in 0..p.oc {
            for ic in 0..p.ic {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = dst[((n * p.oc + oc) * oh + y) * ow + x];
                        for kh in 0..p.kh {
                            let ih = (y * p.stride_h + kh) as isize - p.pad_h as isize;
                            if ih < 0 || ih >= p.ih as isize {
                                continue;
                            }
                            for kw in 0..p.kw {
                                let iw = (x * p.stride_w + kw) as isize - p.pad_w as isize;
                                if iw < 0 || iw >= p.iw as isize {
                                    continue;
                                }
                                let s = src
                                    [((n * p.ic + ic) * p.ih + ih as usize) * p.iw + iw as usize];
                                let w = wei[((oc * p.ic + ic) * p.kh + kh) * p.kw + kw];
                                acc += s * w;
                            }
                        }
                        dst[((n * p.oc + oc) * oh + y) * ow + x] = acc;
                    }
                }
            }
        }
    }
    dst
}

/// Algorithm 1, backward data: per input element, `oc` ascending, then the
/// covering output points `(oh, ow)` ascending.
fn oracle_backward_data(p: &ConvProblem, dst_diff: &[f32], wei: &[f32]) -> Vec<f32> {
    let (oh, ow) = (p.oh(), p.ow());
    let mut src_diff = vec![0.0f32; p.n * p.ic * p.ih * p.iw];
    for n in 0..p.n {
        for oc in 0..p.oc {
            for ic in 0..p.ic {
                for y in 0..oh {
                    for x in 0..ow {
                        let d = dst_diff[((n * p.oc + oc) * oh + y) * ow + x];
                        for kh in 0..p.kh {
                            let ih = (y * p.stride_h + kh) as isize - p.pad_h as isize;
                            if ih < 0 || ih >= p.ih as isize {
                                continue;
                            }
                            for kw in 0..p.kw {
                                let iw = (x * p.stride_w + kw) as isize - p.pad_w as isize;
                                if iw < 0 || iw >= p.iw as isize {
                                    continue;
                                }
                                let w = wei[((oc * p.ic + ic) * p.kh + kh) * p.kw + kw];
                                src_diff[((n * p.ic + ic) * p.ih + ih as usize) * p.iw
                                    + iw as usize] += d * w;
                            }
                        }
                    }
                }
            }
        }
    }
    src_diff
}

/// Algorithm 1, backward weights: per image, each weight sums from `0.0`
/// over `(oh, ow)` ascending, then adds into `W_diff`.
fn oracle_backward_weights(p: &ConvProblem, src: &[f32], dst_diff: &[f32]) -> Vec<f32> {
    let (oh, ow) = (p.oh(), p.ow());
    let mut wd = vec![0.0f32; p.oc * p.ic * p.kh * p.kw];
    for n in 0..p.n {
        for oc in 0..p.oc {
            for ic in 0..p.ic {
                for kh in 0..p.kh {
                    for kw in 0..p.kw {
                        let mut acc = 0.0f32;
                        for y in 0..oh {
                            let ih = (y * p.stride_h + kh) as isize - p.pad_h as isize;
                            if ih < 0 || ih >= p.ih as isize {
                                continue;
                            }
                            for x in 0..ow {
                                let iw = (x * p.stride_w + kw) as isize - p.pad_w as isize;
                                if iw < 0 || iw >= p.iw as isize {
                                    continue;
                                }
                                acc += dst_diff[((n * p.oc + oc) * oh + y) * ow + x]
                                    * src[((n * p.ic + ic) * p.ih + ih as usize) * p.iw
                                        + iw as usize];
                            }
                        }
                        wd[((oc * p.ic + ic) * p.kh + kh) * p.kw + kw] += acc;
                    }
                }
            }
        }
    }
    wd
}

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Index of the first element whose bit pattern differs, if any.
fn first_bit_mismatch(got: &[f32], want: &[f32]) -> Option<usize> {
    assert_eq!(got.len(), want.len(), "output length");
    (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits())
}

/// Every direction of `p` on seeded operands, new kernels against the
/// oracle; `Err` names the first differing element.
fn check_bit_identical(p: &ConvProblem, seed: u64) -> Result<(), String> {
    let src = rand_vec(p.n * p.ic * p.ih * p.iw, seed);
    let wei = rand_vec(p.oc * p.ic * p.kh * p.kw, seed ^ 0xbeef);
    let dst = rand_vec(p.n * p.oc * p.oh() * p.ow(), seed ^ 0xcafe);
    for dir in Direction::ALL {
        let (got, _) = naive::reference(p, dir, &src, &wei, &dst);
        let want = match dir {
            Direction::Fwd => oracle_forward(p, &src, &wei),
            Direction::BwdData => oracle_backward_data(p, &dst, &wei),
            Direction::BwdWeights => oracle_backward_weights(p, &src, &dst),
        };
        if let Some(i) = first_bit_mismatch(&got, &want) {
            return Err(format!(
                "{p} {dir}: element {i} is {:?}, Algorithm 1 gives {:?}",
                got[i], want[i]
            ));
        }
    }
    Ok(())
}

/// Irregular geometries: N 1–3, channels 1–40 (mostly not a multiple of any
/// SIMD width), rectangular kernels 1–4, per-axis stride 1–3 (so stride
/// exceeds the kernel on 1-wide axes) and padding from 0 up to the kernel.
fn arb_problem() -> impl Strategy<Value = ConvProblem> {
    (
        (1usize..4, 1usize..41, 1usize..41, 1usize..9, 1usize..9),
        (1usize..5, 1usize..5, 1usize..4, 1usize..4),
        (0usize..5, 0usize..5),
    )
        .prop_filter_map(
            "padding up to the kernel, kernel fits the padded input",
            |((n, ic, oc, ih, iw), (kh, kw, sh, sw), (ph, pw))| {
                (ph <= kh && pw <= kw && ih + 2 * ph >= kh && iw + 2 * pw >= kw)
                    .then(|| ConvProblem::new_asym(n, ic, oc, ih, iw, kh, kw, sh, sw, ph, pw))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn reference_is_bit_identical_to_algorithm_1(p in arb_problem(), seed in 0u64..1 << 32) {
        let verdict = check_bit_identical(&p, seed);
        prop_assert!(verdict.is_ok(), "{}", verdict.err().unwrap_or_default());
    }
}

#[test]
fn reference_is_bit_identical_on_table3_strided_1x1() {
    // Layer 15: 1024 -> 512 channels, 14x14 -> 7x7, 1x1 stride 2.
    check_bit_identical(&resnet_layer(15, 1), 15).unwrap();
}

#[test]
fn reference_is_bit_identical_on_table3_padded_3x3() {
    // Layer 16: 512 -> 512 channels on 7x7, 3x3 pad 1.
    check_bit_identical(&resnet_layer(16, 1), 16).unwrap();
}

#[test]
fn reduction_len_counts_the_products_per_element() {
    // Stride 1, so some input element is covered by every kernel tap.
    let p = ConvProblem::new_asym(3, 5, 7, 9, 8, 3, 2, 1, 1, 1, 0);
    let ops = |len| vec![1.0f32; len];
    let src = ops(p.n * p.ic * p.ih * p.iw);
    let wei = ops(p.oc * p.ic * p.kh * p.kw);
    let dst = ops(p.n * p.oc * p.oh() * p.ow());
    for dir in Direction::ALL {
        // With all-ones operands an element is its count of in-image taps,
        // which reaches the full reduction length somewhere.
        let (out, len) = naive::reference(&p, dir, &src, &wei, &dst);
        let most = out.iter().fold(0.0f32, |m, &v| m.max(v));
        assert_eq!(most, len as f32, "{dir}");
    }
}

#[test]
fn max_abs_diff_fails_a_nan_output() {
    assert_eq!(
        naive::max_abs_diff(&[f32::NAN, 1.0], &[0.5, 1.0]),
        f32::INFINITY
    );
    assert_eq!(
        naive::max_abs_diff(&[1.0, f32::NAN], &[1.0, 1.0]),
        f32::INFINITY
    );
}

#[test]
fn normwise_rel_err_fails_a_nan_output() {
    // The vednn rows of the `validate` experiment pass when this is below 1e-2.
    let rel = naive::normwise_rel_err(&[f32::NAN, 1.0], &[0.5, 1.0]);
    assert!(rel >= 1e-2, "NaN output passed with rel_err {rel}");
    assert_eq!(naive::normwise_rel_err(&[0.5, 3.0], &[0.5, 2.0]), 0.5);
}

#[test]
fn compare_fails_a_nan_output() {
    // The per-element check shared by `validate` and the fuzz harness.
    let r = verify::compare(&[f32::NAN, 1.0], &[0.5, 1.0], 1);
    assert!(!r.passed);
    assert_eq!(r.rel_err, f32::INFINITY);
    assert_eq!(r.max_abs_err, f32::INFINITY);
    let clean = verify::compare(&[0.5, 1.0], &[0.5, 1.0], 1);
    assert!(clean.passed && clean.rel_err == 0.0);
}

/// The native backend with the first forward output element overwritten by
/// NaN after each single-core execution (the path `validate_with_backend`
/// takes).
struct NanPoisoned;

impl ExecBackend for NanPoisoned {
    fn name(&self) -> &'static str {
        "nan-poisoned"
    }

    fn models_time(&self) -> bool {
        false
    }

    fn execute_slice(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
        work: Range<usize>,
    ) -> CoreStats {
        let r = NativeBackend.execute_slice(prim, arena, t, work);
        let mut out = t.dst.load_nchw(arena);
        out[0] = f32::NAN;
        t.dst.store_nchw(arena, &out);
        r
    }

    fn execute_multicore(
        &self,
        prim: &ConvPrimitive,
        arena: &mut Arena,
        t: &ConvTensors,
    ) -> MulticoreReport {
        NativeBackend.execute_multicore(prim, arena, t)
    }
}

#[test]
fn validate_with_backend_fails_a_nan_output() {
    let arch = sx_aurora();
    let p = ConvProblem::new(1, 8, 16, 6, 6, 3, 3, 1, 1);
    let clean =
        verify::validate_with_backend(&arch, &p, Direction::Fwd, Algorithm::Bdc, &NativeBackend);
    assert!(clean.passed, "unpoisoned run must pass: {clean:?}");
    let r = verify::validate_with_backend(&arch, &p, Direction::Fwd, Algorithm::Bdc, &NanPoisoned);
    assert!(!r.passed, "NaN output passed: {r:?}");
    assert_eq!(r.rel_err, f32::INFINITY);
}
