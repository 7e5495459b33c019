//! Backend equivalence: one frozen kernel plan, two execution targets.
//!
//! Three-way agreement over the differential-fuzzing seed corpus and a
//! randomized sweep, for all three training directions:
//!
//! * the **naive reference** (within the f32 reassociation tolerance),
//! * **`SimBackend`** in Functional mode (the cycle-level simulator),
//! * **`NativeBackend`** (host lowering of the same blocked loop nest),
//!
//! where sim-vs-native is held to *bit-exact* output equality — the native
//! lowering replays the exact accumulation order — plus equality of the
//! mirrored data-op instruction counts (loads, stores, gathers, scatters,
//! FMAs and FMA element totals). A multicore section checks the same
//! through `ExecBackend::execute_multicore`, where the native backend
//! reuses the Section 4.3 work partitioning.
//!
//! The randomized count is modest so debug-mode tier-1 stays fast; override
//! with `LSV_EQUIV_CASES` for a deeper release-mode sweep.

use lsvconv::arch::presets::aurora_with_vlen_bits;
use lsvconv::conv::fuzz::{seed_corpus, FuzzCase};
use lsvconv::conv::{
    naive, Algorithm, ConvDesc, ConvPrimitive, ConvProblem, Direction, ExecBackend, NativeBackend,
    SimBackend,
};
use lsvconv::prelude::sx_aurora;
use lsvconv::vengine::{Arena, InstCounters};
use rand::{Rng, SeedableRng};

/// Relative tolerance for accumulation-order differences vs the naive
/// reference (mirrors `lsv_conv::verify`).
fn tolerance(reduction_len: usize) -> f32 {
    1e-6 * (reduction_len as f32).sqrt().max(1.0) * 8.0
}

/// The instruction-counter subset both backends must agree on exactly.
/// Frontend filler (`scalar_ops`) is simulator-specific and excluded.
fn data_ops(c: &InstCounters) -> [u64; 7] {
    [
        c.scalar_loads,
        c.vloads,
        c.vstores,
        c.gathers,
        c.scatters,
        c.vfmas,
        c.fma_elems,
    ]
}

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn operands(p: &ConvProblem, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    (
        rand_vec(p.n * p.ic * p.ih * p.iw, seed),
        rand_vec(p.oc * p.ic * p.kh * p.kw, seed ^ 0xbeef),
        rand_vec(p.n * p.oc * p.oh() * p.ow(), seed ^ 0xcafe),
    )
}

/// Run one case on both backends and check the three-way agreement.
/// Returns `false` when the primitive legitimately declines the geometry
/// (register pressure on a narrow arch) — checked, not failed.
fn check_three_way(case: &FuzzCase, seed: u64) -> bool {
    let arch = aurora_with_vlen_bits(case.vlen_bits);
    let p = case.problem;
    let Ok(prim) = ConvDesc::new(p, case.direction, case.algorithm).create(&arch, 1) else {
        return false;
    };
    let (src, wei, dst) = operands(&p, seed);

    let (sim_out, sim_report) = prim.run_with_backend(&SimBackend::functional(), &src, &wei, &dst);
    let (nat_out, nat_report) = prim.run_with_backend(&NativeBackend, &src, &wei, &dst);

    // Sim vs native: bit-exact (plain f32 `!=`, so -0.0 == 0.0 passes).
    assert_eq!(sim_out.len(), nat_out.len(), "{case}: output length");
    for (i, (s, n)) in sim_out.iter().zip(&nat_out).enumerate() {
        assert!(
            s == n,
            "{case}: sim-vs-native mismatch at element {i}: sim {s:?} native {n:?}"
        );
    }
    assert_eq!(
        data_ops(&sim_report.insts),
        data_ops(&nat_report.insts),
        "{case}: data-op instruction drift"
    );

    // Both vs the naive reference, within the reassociation tolerance.
    let (reference, reduction_len) = naive::reference(&p, case.direction, &src, &wei, &dst);
    let tol = tolerance(reduction_len);
    for (i, (g, r)) in sim_out.iter().zip(&reference).enumerate() {
        let rel = (g - r).abs() / r.abs().max(1.0);
        assert!(
            rel <= tol,
            "{case}: naive disagreement at element {i}: got {g} want {r} (rel {rel:.3e} > {tol:.3e})"
        );
    }
    true
}

#[test]
fn seed_corpus_three_way_agreement() {
    let mut checked = 0;
    for (i, case) in seed_corpus().iter().enumerate() {
        if check_three_way(case, 0x90_0d ^ i as u64) {
            checked += 1;
        }
    }
    assert!(checked > 0, "every corpus case was skipped");
}

#[test]
fn randomized_three_way_agreement() {
    let cases: usize = std::env::var("LSV_EQUIV_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xe90_3b15);
    let vlens = [512usize, 1024, 2048, 4096, 16384];
    let mut checked = 0;
    let mut tried = 0;
    while checked < cases && tried < cases * 4 {
        tried += 1;
        let (kh, kw) = (rng.gen_range(1..6), rng.gen_range(1..6));
        let (ph, pw) = (rng.gen_range(0..4), rng.gen_range(0..4));
        let (ih, iw) = (rng.gen_range(1..12), rng.gen_range(1..12));
        if ih + 2 * ph < kh || iw + 2 * pw < kw {
            continue;
        }
        let case = FuzzCase {
            problem: ConvProblem::new_asym(
                rng.gen_range(1..3),
                rng.gen_range(1..36),
                rng.gen_range(1..36),
                ih,
                iw,
                kh,
                kw,
                rng.gen_range(1..4),
                rng.gen_range(1..4),
                ph,
                pw,
            ),
            vlen_bits: vlens[rng.gen_range(0..vlens.len())],
            direction: Direction::ALL[tried % 3],
            algorithm: Algorithm::ALL[(tried / 3) % 3],
        };
        if check_three_way(&case, 0x5eed ^ tried as u64) {
            checked += 1;
        }
    }
    assert!(
        checked >= cases / 2,
        "too many skips: {checked} checked of {tried} tried"
    );
}

/// Execute a primitive's whole problem through `ExecBackend::execute_multicore`
/// and read back the logical output, plus the summed per-core data-ops.
fn run_multicore(
    prim: &ConvPrimitive,
    backend: &dyn ExecBackend,
    src: &[f32],
    wei: &[f32],
    dst: &[f32],
) -> (Vec<f32>, [u64; 7], u64) {
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    prim.import_operands(&mut arena, &t, src, wei, dst);
    let report = backend.execute_multicore(prim, &mut arena, &t);
    let mut totals = [0u64; 7];
    for cs in &report.per_core {
        for (acc, v) in totals.iter_mut().zip(data_ops(&cs.insts)) {
            *acc += v;
        }
    }
    (prim.read_output(&arena, &t), totals, report.wall_cycles)
}

#[test]
fn multicore_native_matches_sim_functional() {
    let arch = sx_aurora();
    // Fwd partitions the minibatch across cores; BwdWeights partitions the
    // RB_c blocks of the smaller feature-map dimension (Section 4.3) —
    // exercise both partitioning axes.
    let cases = [
        (
            ConvProblem::new(8, 12, 16, 7, 7, 3, 3, 1, 1),
            Direction::Fwd,
            Algorithm::Bdc,
        ),
        (
            ConvProblem::new(4, 24, 8, 6, 6, 3, 3, 1, 1),
            Direction::BwdWeights,
            Algorithm::Mbdc,
        ),
    ];
    for (p, dir, alg) in cases {
        let prim = ConvDesc::new(p, dir, alg)
            .create(&arch, arch.cores)
            .unwrap();
        let (src, wei, dst) = operands(&p, 0x111);

        let (sim_out, sim_ops, sim_cycles) =
            run_multicore(&prim, &SimBackend::functional(), &src, &wei, &dst);
        let (nat_out, nat_ops, nat_cycles) = run_multicore(&prim, &NativeBackend, &src, &wei, &dst);

        for (i, (s, n)) in sim_out.iter().zip(&nat_out).enumerate() {
            assert!(
                s == n,
                "{p} {dir} {alg} multicore: mismatch at element {i}: sim {s:?} native {n:?}"
            );
        }
        assert_eq!(sim_ops, nat_ops, "{p} {dir} {alg}: per-core data-op drift");
        assert!(sim_cycles > 0, "simulator must model time");
        assert_eq!(nat_cycles, 0, "native backend reports no timing");

        // And both agree with the naive reference.
        let (reference, reduction_len) = naive::reference(&p, dir, &src, &wei, &dst);
        let tol = tolerance(reduction_len);
        for (g, r) in nat_out.iter().zip(&reference) {
            assert!((g - r).abs() / r.abs().max(1.0) <= tol, "{p} {dir} {alg}");
        }
    }
}
