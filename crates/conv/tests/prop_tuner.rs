//! Property tests for the Section 6.1 auto-tuner (Algorithm 3) and the
//! register-blocking policies: postconditions that must hold for *any*
//! problem geometry, plus the empirical tuner's instruction-count bound
//! over the fuzz seed corpus.

use lsv_arch::formula3_predicts_conflicts;
use lsv_arch::presets::{aurora_with_vlen_bits, sx_aurora};
use lsv_conv::perf::{bench_config, chip_cycles_lower_bound, count_insts};
use lsv_conv::tuning::{
    autotune_microkernel, kernel_config, split_register_block, split_register_block_capped,
    RegisterBlocking,
};
use lsv_conv::{fuzz, Algorithm, ConvDesc, ConvProblem, Direction, ExecutionMode};
use proptest::prelude::*;

/// The tuner may skip a candidate only on a bound that cannot exceed its
/// measured chip cycles. Over every seed-corpus case (geometries x
/// directions x algorithms x swept vector lengths), at its own minibatch and
/// at 9 and 17 (2 and 3 images per core; bwd-weights beyond 2 images), the
/// counting core sees exactly the kept run's instructions and the bound
/// stays at or below `bench_config`'s cycles.
#[test]
fn instruction_bound_never_exceeds_the_layer_meter_on_the_seed_corpus() {
    let mode = ExecutionMode::TimingOnly;
    let mut bounded = 0;
    for case in fuzz::seed_corpus() {
        let arch = aurora_with_vlen_bits(case.vlen_bits);
        for n in [case.problem.n, 9, 17] {
            let p = case.problem.with_minibatch(n);
            let Ok(prim) =
                ConvDesc::new(p, case.direction, case.algorithm).create(&arch, arch.cores)
            else {
                continue;
            };
            let cfg = prim.cfg();
            let perf = bench_config(&arch, &p, cfg, mode);
            assert_eq!(
                count_insts(&arch, &p, cfg),
                perf.report.insts,
                "{case} n={n}"
            );
            if let Some(bound) = chip_cycles_lower_bound(&arch, &p, cfg, mode) {
                assert!(
                    bound <= perf.cycles,
                    "{case} n={n}: {bound} > {}",
                    perf.cycles
                );
                bounded += 1;
            }
        }
    }
    assert!(
        bounded > 100,
        "the bound applies to most cases, got {bounded}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuner_output_is_a_valid_tile(
        kh in 1usize..8,
        kw in 1usize..8,
        c_sum in 1usize..3000,
        c_vec in 1usize..3000,
        hw in 1usize..300,
        rb_w in 1usize..32,
        rb_h in 1usize..8,
        threads in 1usize..16,
    ) {
        let arch = sx_aurora();
        let rb = RegisterBlocking { rb_w, rb_h };
        let t = autotune_microkernel(&arch, kh, kw, c_sum, c_vec, hw, hw, rb, threads);
        prop_assert!(t.kh_i >= 1 && t.kh_i <= kh);
        prop_assert!(t.kw_i >= 1 && t.kw_i <= kw);
        prop_assert!(t.c_i >= 1 && t.c_i <= c_sum);
    }

    #[test]
    fn tuner_shrinks_the_weights_subtensor_into_the_llc(
        k in 1usize..6,
        c in 32usize..4097,
    ) {
        // Whenever the tuner *can* fit the W sub-tensor (it always can:
        // c_i can drop to N_cline and kh_i/kw_i to 1), it must.
        let arch = sx_aurora();
        let rb = RegisterBlocking { rb_w: 14, rb_h: 2 };
        let t = autotune_microkernel(&arch, k, k, c, c, 64, 64, rb, 1);
        let cvb = c.min(arch.n_vlen());
        let w_bytes = cvb * t.c_i * t.kh_i * t.kw_i * 4;
        let floor_bytes = cvb * arch.n_cline() * 4;
        prop_assert!(
            w_bytes <= arch.llc.size || w_bytes <= floor_bytes,
            "w_bytes {w_bytes} exceeds LLC with room to shrink"
        );
    }

    #[test]
    fn split_register_block_respects_shape(target in 1usize..200, ow in 1usize..80, oh in 1usize..80) {
        let rb = split_register_block(target, ow, oh);
        prop_assert!(rb.rb_w >= 1 && rb.rb_w <= ow);
        prop_assert!(rb.rb_h >= 1 && rb.rb_h <= oh);
        // the lower-bound split reaches the target unless the shape is smaller
        prop_assert!(rb.combined() >= target.min(ow * oh) || rb.combined() == ow * oh);
    }

    #[test]
    fn capped_split_never_exceeds_target(target in 1usize..200, ow in 1usize..80, oh in 1usize..80) {
        let rb = split_register_block_capped(target, ow, oh);
        prop_assert!(rb.combined() <= target.max(1) || rb.rb_w == ow.min(target).max(1) && rb.rb_h == 1);
        prop_assert!(rb.combined() >= 1);
    }

    #[test]
    fn bdc_configs_never_predict_conflicts_on_unit_stride(
        ic in 1usize..2049,
        oc in 1usize..2049,
        hw in 7usize..57,
    ) {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, ic, oc, hw, hw, 1, 1, 1, 0);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 8);
        prop_assert!(
            !formula3_predicts_conflicts(&arch, cfg.src_layout.cb, cfg.rb.combined(), 1),
            "BDC chose rb {} with A_b {}",
            cfg.rb.combined(),
            cfg.src_layout.cb
        );
    }

    #[test]
    fn mbdc_activation_blocks_are_cache_line_sized(
        ic in 1usize..2049,
        oc in 1usize..2049,
        vlen_pow in 4u32..10, // 512..16384 bits
    ) {
        let arch = aurora_with_vlen_bits(1 << vlen_pow << 5);
        let p = ConvProblem::new(8, ic, oc, 14, 14, 3, 3, 1, 1);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Mbdc, 8);
        prop_assert!(cfg.src_layout.cb <= arch.n_cline());
        prop_assert!(cfg.dst_layout.cb <= arch.n_cline());
    }

    #[test]
    fn primitive_creation_never_panics_and_fits_registers(
        ic in 1usize..1025,
        oc in 1usize..1025,
        hw in 3usize..30,
        k in 1usize..4,
        s in 1usize..3,
        alg_idx in 0usize..3,
        dir_idx in 0usize..3,
    ) {
        let arch = sx_aurora();
        let pad = if k > 1 { 1 } else { 0 };
        prop_assume!(hw + 2 * pad >= k);
        let p = ConvProblem::new(4, ic, oc, hw, hw, k, k, s, pad);
        let prim = ConvDesc::new(p, Direction::ALL[dir_idx], Algorithm::ALL[alg_idx])
            .create(&arch, 8);
        let prim = prim.expect("creation should always succeed on this machine");
        let cfg = prim.cfg();
        let regs = match Direction::ALL[dir_idx] {
            Direction::BwdWeights => cfg.rb_c + cfg.wbuf.max(2),
            _ => cfg.rb.combined() + cfg.wbuf,
        };
        prop_assert!(regs <= arch.n_vregs, "register overflow: {regs}");
    }
}
