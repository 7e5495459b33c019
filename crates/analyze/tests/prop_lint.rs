//! Property tests for the linter: the tuner's output must always replay
//! clean under the dynamic sanitizers, and targeted corruptions must always
//! be caught by the rule that owns the broken invariant.

use lsv_analyze::{analyze_kernel, RuleId};
use lsv_arch::presets::sx_aurora;
use lsv_conv::tuning::kernel_config;
use lsv_conv::{Algorithm, ConvProblem, Direction};
use proptest::prelude::*;

/// Strategy-space problem: small enough that a full traced replay per case
/// stays cheap, rich enough to hit padding, strides, channel tails and
/// rectangular images.
fn problem(
    ic: usize,
    oc: usize,
    ih: usize,
    iw: usize,
    k: usize,
    stride: usize,
) -> Option<ConvProblem> {
    let pad = k / 2;
    // keep the output non-empty
    if ih + 2 * pad < k || iw + 2 * pad < k {
        return None;
    }
    Some(ConvProblem::new(2, ic, oc, ih, iw, k, k, stride, pad))
}

fn alg(i: usize) -> Algorithm {
    Algorithm::ALL[i % 3]
}

fn dir(i: usize) -> Direction {
    Direction::ALL[i % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The bounds sanitizer never fires on a tuner-produced kernel: every
    // address of the traced replay stays inside its tensor, for any
    // geometry, algorithm and direction. (The acceptance property of the
    // `OOB-ADDR` rule.)
    #[test]
    fn tuner_configs_replay_with_zero_oob(
        ic in 1usize..48,
        oc in 1usize..48,
        ih in 3usize..18,
        iw in 3usize..18,
        k in 1usize..4,
        stride in 1usize..3,
        ai in 0usize..3,
        di in 0usize..3,
    ) {
        let arch = sx_aurora();
        prop_assume!(problem(ic, oc, ih, iw, k, stride).is_some());
        let p = problem(ic, oc, ih, iw, k, stride).unwrap();
        let cfg = kernel_config(&arch, &p, dir(di), alg(ai), 1);
        let r = analyze_kernel(&arch, &p, &cfg);
        prop_assert!(!r.fired(RuleId::OobAddr), "{p} {}: {r:?}", alg(ai));
        prop_assert!(!r.fired(RuleId::AccClobber), "{p} {}: {r:?}", alg(ai));
        prop_assert!(!r.has_deny(), "{p} {}: {r:?}", alg(ai));
    }

    // Each targeted corruption of a valid tuner config is caught by the
    // rule owning the broken invariant.
    #[test]
    fn corrupted_configs_are_always_caught(
        ic in 33usize..128,
        oc in 1usize..64,
        hw in 6usize..20,
        ai in 0usize..3,
        di in 0usize..3,
        corruption in 0usize..4,
    ) {
        let arch = sx_aurora();
        let p = ConvProblem::new(1, ic, oc, hw, hw, 1, 1, 1, 0);
        let mut cfg = kernel_config(&arch, &p, dir(di), alg(ai), 1);
        let expect = match corruption {
            0 => {
                // Register-file overflow: more accumulators than registers.
                cfg.rb.rb_w = arch.n_vregs + 40;
                cfg.rb.rb_h = 1;
                cfg.rb_c = arch.n_vregs + 40;
                RuleId::RegPressure
            }
            1 => {
                // Weights vector block decoupled from the vector length.
                cfg.wei_layout.ocb = cfg.vl + 1;
                RuleId::LayoutDivide
            }
            2 => {
                // Zero-length vectors.
                cfg.vl = 0;
                RuleId::LayoutDivide
            }
            _ => {
                // MBDC line-straddling channel block (IC >= 33 guarantees
                // cb = 20 is neither a divisor of N_cline = 32 nor == IC).
                cfg.algorithm = Algorithm::Mbdc;
                cfg.src_layout.cb = 20;
                RuleId::LayoutDivide
            }
        };
        let r = lsv_analyze::analyze_config(&arch, &p, &cfg);
        prop_assert!(r.fired(expect), "expected {expect} for corruption {corruption}: {r:?}");
        prop_assert!(r.has_deny(), "{r:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The satellite property on the real workload: for any Table 3 layer,
    // algorithm and direction, the tuner's configuration replays with zero
    // `OOB-ADDR` findings (the lint-kernels experiment sweeps all 171
    // exhaustively; this samples the space on every test run).
    #[test]
    fn table3_tuner_configs_have_zero_oob(
        layer in 0usize..19,
        ai in 0usize..3,
        di in 0usize..3,
    ) {
        let arch = sx_aurora();
        let p = lsv_models::resnet_layers(256)[layer];
        let cfg = kernel_config(&arch, &p, dir(di), alg(ai), 8);
        let r = analyze_kernel(&arch, &p, &cfg);
        prop_assert!(
            !r.fired(RuleId::OobAddr),
            "layer {layer} {p} {} {}: {r:?}", alg(ai), dir(di)
        );
    }
}
