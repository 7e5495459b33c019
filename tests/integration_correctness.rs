//! Cross-crate integration: every algorithm (DC, BDC, MBDC and the vednn
//! baseline) computes the same results as the naive reference on scaled
//! versions of every Table 3 layer shape, for all three training directions.
//!
//! Layers are scaled down (channels / 8, spatial / 2, clamped) so the
//! functional simulation stays fast in debug builds while preserving every
//! structural feature: strides, padding, kernel sizes, channel asymmetries
//! and the conflict-relevant C/spatial ratios. The full-size suite runs via
//! `lsvconv-cli run validate`.

use lsvconv::conv::{naive, validate, Algorithm, ConvProblem, Direction};
use lsvconv::models::TABLE3;
use lsvconv::prelude::sx_aurora;
use lsvconv::vednn::VednnConv;
use rand::{Rng, SeedableRng};

/// Scale a Table 3 row down for debug-mode functional simulation.
fn scaled_layer(id: usize) -> ConvProblem {
    let (ic, oc, ihw, _ohw, k, s, pad) = TABLE3[id];
    let c_scale = 8;
    let sp_scale = 2;
    let ic = (ic / c_scale).max(4);
    let oc = (oc / c_scale).max(4);
    let hw = (ihw / sp_scale).max(k + s);
    ConvProblem::new(2, ic, oc, hw, hw, k, k, s, pad)
}

#[test]
fn direct_algorithms_match_reference_on_all_layer_shapes() {
    let arch = sx_aurora();
    for id in 0..TABLE3.len() {
        let p = scaled_layer(id);
        for dir in Direction::ALL {
            for alg in Algorithm::ALL {
                let r = validate(&arch, &p, dir, alg);
                assert!(
                    r.passed,
                    "layer {id} ({p}) {dir} {alg}: rel err {:.3e}",
                    r.rel_err
                );
            }
        }
    }
}

#[test]
fn vednn_matches_reference_on_all_layer_shapes() {
    let arch = sx_aurora();
    for id in 0..TABLE3.len() {
        let p = scaled_layer(id);
        let mut rng = rand::rngs::StdRng::seed_from_u64(id as u64);
        let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let dst: Vec<f32> = (0..p.n * p.oc * p.oh() * p.ow())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        for dir in Direction::ALL {
            let conv = VednnConv::best(&arch, p, dir);
            let (got, _) = conv.run_functional(&src, &wei, &dst);
            let (want, _) = naive::reference(&p, dir, &src, &wei, &dst);
            let rel = naive::normwise_rel_err(&got, &want);
            assert!(
                rel < 1e-2,
                "layer {id} ({p}) {dir} vednn({:?}): rel err {rel:.3e}",
                conv.algo()
            );
        }
    }
}

#[test]
fn direct_algorithms_match_on_short_simd_machine() {
    // The same kernels must be correct when the maximum SIMD length shrinks
    // (the Figure 5 sweep re-generates kernels per vector length).
    let arch = sx_aurora().with_max_vlen_bits(512);
    for id in [0usize, 2, 4, 16] {
        let p = scaled_layer(id);
        for dir in Direction::ALL {
            for alg in Algorithm::ALL {
                let r = validate(&arch, &p, dir, alg);
                assert!(
                    r.passed,
                    "512-bit layer {id} {dir} {alg}: rel err {:.3e}",
                    r.rel_err
                );
            }
        }
    }
}

#[test]
#[ignore = "full-size layer: run with --ignored in release builds"]
fn full_size_layer_16_all_directions() {
    let arch = sx_aurora();
    let p = ConvProblem::new(1, 512, 512, 7, 7, 3, 3, 1, 1);
    for dir in Direction::ALL {
        for alg in Algorithm::ALL {
            let r = validate(&arch, &p, dir, alg);
            assert!(r.passed, "{dir} {alg}: rel err {:.3e}", r.rel_err);
        }
    }
}
