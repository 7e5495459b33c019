//! Integration: the detailed shared-LLC multi-core simulation computes
//! correct results for the backward passes too, and its cross-core weight
//! sharing shows up in the shared LLC's counters.

use lsvconv::conv::{execute_multicore, naive, Algorithm, ConvDesc, ConvProblem, Direction};
use lsvconv::prelude::sx_aurora;
use lsvconv::vengine::{Arena, ExecutionMode};
use rand::{Rng, SeedableRng};

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn multicore_backward_data_matches_reference() {
    let arch = sx_aurora();
    let p = ConvProblem::new(8, 24, 16, 9, 9, 3, 3, 1, 1);
    let prim = ConvDesc::new(p, Direction::BwdData, Algorithm::Mbdc)
        .create(&arch, arch.cores)
        .unwrap();
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let dst = rand_vec(p.n * p.oc * p.oh() * p.ow(), 1);
    let wei = rand_vec(p.oc * p.ic * p.kh * p.kw, 2);
    t.dst.store_nchw(&mut arena, &dst);
    t.store_weights(&mut arena, &wei);
    let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::Functional);
    let got = t.src.load_nchw(&arena);
    let want = naive::backward_data(&p, &dst, &wei);
    let err = naive::max_abs_diff(&got, &want);
    assert!(err < 1e-3, "multicore bwdd wrong: {err}");
    assert!(report.wall_cycles > 0);
    assert_eq!(report.per_core.len(), arch.cores);
}

#[test]
fn multicore_backward_weights_matches_reference() {
    let arch = sx_aurora();
    // Vectorize OC (96), register-block IC (64): rb_c = 24 gives three
    // IC blocks, so several cores get work.
    let p = ConvProblem::new(4, 64, 96, 8, 8, 1, 1, 1, 0);
    let prim = ConvDesc::new(p, Direction::BwdWeights, Algorithm::Bdc)
        .create(&arch, arch.cores)
        .unwrap();
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let src = rand_vec(p.n * p.ic * p.ih * p.iw, 3);
    let dst = rand_vec(p.n * p.oc * p.oh() * p.ow(), 4);
    t.src.store_nchw(&mut arena, &src);
    t.dst.store_nchw(&mut arena, &dst);
    let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::Functional);
    let got = t.load_weights(&arena);
    let want = naive::backward_weights(&p, &src, &dst);
    let err = naive::max_abs_diff(&got, &want);
    assert!(err < 1e-3, "multicore bwdw wrong: {err}");
    assert!(report.per_core.len() > 1, "blocks spread over cores");
}

#[test]
fn wall_time_is_max_core_time() {
    let arch = sx_aurora();
    let p = ConvProblem::new(8, 16, 16, 8, 8, 3, 3, 1, 1);
    let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Dc)
        .create(&arch, arch.cores)
        .unwrap();
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let report = execute_multicore(&prim, &mut arena, &t, ExecutionMode::TimingOnly);
    let max = report.per_core.iter().map(|c| c.cycles).max().unwrap();
    assert_eq!(report.wall_cycles, max);
}
