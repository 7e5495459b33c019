//! Tables 1-3 of the paper.

use super::{Ctx, Outcome};
use crate::profiling::{profile_meta, write_profile_artifacts};
use lsv_arch::presets::{skylake_avx512, sx_aurora};
use lsv_arch::{bdc_register_block_range, formula1_required_independent_elems, formula2_rb_min};
use lsv_conv::par::par_map;
use lsv_conv::tuning::kernel_config;
use lsv_conv::{bench_layer_profiled, Algorithm, ConvDesc, ConvProblem, Direction, ExecutionMode};
use lsv_models::{resnet_layers, TABLE3};
use std::fmt::Write as _;

/// Table 1: the architecture analytical model applied to SIMD CPUs —
/// `N_vlen`, `N_fma`, `L_fma` and the independent-computation requirement
/// `E` (Formula 1) for Intel Skylake and NEC SX-Aurora.
pub fn table1(_: &Ctx) -> Outcome {
    let mut out = String::from("architecture,n_vlen,n_fma,l_fma,E,rb_min\n");
    for arch in [skylake_avx512(), sx_aurora()] {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            arch.name,
            arch.n_vlen(),
            arch.n_fma,
            arch.l_fma,
            formula1_required_independent_elems(&arch),
            formula2_rb_min(&arch),
        )?;
    }
    out.push_str("\n# Paper Table 1: skylake E=160, sx-aurora E=12288.\n");
    Ok(vec![out])
}

/// Table 2: summary of the convolution algorithms — the activation and
/// weight blocking factors, schedule grain, and register-block policy each
/// algorithm actually instantiates. Regenerated from the real kernel
/// configurations on a representative layer (ample channels so no `min(C,.)`
/// clamping hides the policy).
pub fn table2(_: &Ctx) -> Outcome {
    let arch = sx_aurora();
    // A wide layer: IC = OC = 1024 >= N_vlen so the blocking policies are
    // visible unclamped.
    let p = ConvProblem::new(256, 1024, 1024, 14, 14, 3, 3, 1, 1);
    let mut out = String::from(
        "algorithm,act_block(IC_b/OC_b),wei_block(icb,ocb),schedule_grain,register_block,rb_range\n",
    );
    for alg in Algorithm::ALL {
        let prim = ConvDesc::new(p, Direction::Fwd, alg).create(&arch, 8)?;
        let cfg = prim.cfg();
        let range = match alg {
            Algorithm::Dc => format!(">= {}", formula2_rb_min(&arch)),
            Algorithm::Bdc => {
                let r = bdc_register_block_range(&arch, cfg.src_layout.cb, p.stride_w);
                format!("[{}, {}]", r.min, r.max)
            }
            Algorithm::Mbdc => format!(">= {}", formula2_rb_min(&arch)),
        };
        writeln!(
            out,
            "{},{}/{},({},{}),{},{}x{}={},{}",
            alg.short_name(),
            cfg.src_layout.cb,
            cfg.dst_layout.cb,
            cfg.wei_layout.icb,
            cfg.wei_layout.ocb,
            cfg.tile.c_i.min(cfg.wei_layout.icb), // micro-kernel IC grain floor
            cfg.rb.rb_w,
            cfg.rb.rb_h,
            cfg.rb.combined(),
            range,
        )?;
    }
    out.push_str(
        "\n# Paper Table 2: DC blocks activations by min(C, N_vlen) and schedules at IC_b;\n\
         # BDC keeps the activation layout but loop-resizes the weights to N_cline and\n\
         # bounds RB by Formula 4; MBDC re-blocks activations by N_cline.\n",
    );
    Ok(vec![out])
}

/// Table 3: the ResNet convolution layer suite, with derived per-layer
/// properties (flop counts and the Formula 3 conflict predictions that
/// Section 8 references).
///
/// With `--profile` it also runs a profiled forward DC pass per layer
/// (minibatch 8), writes the artifacts under `<out>/profile/table3/`, and
/// appends comment lines naming each layer's hottest region — the measured
/// counterpart of the analytic conflict predictions.
pub fn table3(ctx: &Ctx) -> Outcome {
    let arch = sx_aurora();
    let layers = resnet_layers(256);
    let mut out = String::from(
        "id,IC,OC,IH/IW,OH/OW,KH/KW,stride,pad,gflops_n256,dc_conflict_fwdd,dc_conflict_bwdd\n",
    );
    for (id, p) in layers.iter().enumerate() {
        let (_, _, _, ohw, ..) = TABLE3[id];
        let f = kernel_config(&arch, p, Direction::Fwd, Algorithm::Dc, 8);
        let b = kernel_config(&arch, p, Direction::BwdData, Algorithm::Dc, 8);
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{:.2},{},{}",
            id,
            p.ic,
            p.oc,
            p.ih,
            ohw,
            p.kh,
            p.stride_w,
            p.pad_w,
            p.flops() as f64 / 1e9,
            f.conflicts_predicted,
            b.conflicts_predicted,
        )?;
    }
    out.push_str(
        "\n# Paper Section 8: conflicts predicted fwdd on 4,5,8-10,13-18; bwdd on 4,7,9,12,14-18.\n",
    );

    if ctx.profile {
        let out_dir = ctx.out_dir.join("profile/table3");
        let small = resnet_layers(8);
        let summaries: Vec<String> = par_map((0..small.len()).collect::<Vec<_>>(), |id| {
            let p = &small[id];
            let (_, region_profile) = bench_layer_profiled(
                &arch,
                p,
                Direction::Fwd,
                Algorithm::Dc,
                ExecutionMode::TimingOnly,
            );
            let meta = profile_meta(&arch, p, Direction::Fwd, "DC", &region_profile);
            write_profile_artifacts(&out_dir, &format!("l{id}_fwdd_DC"), &region_profile, &meta)
                .unwrap_or_else(|e| panic!("profile artifacts for layer {id}: {e}"));
            let total = region_profile.total.cycles.max(1) as f64;
            let hottest = (0..region_profile.regions.len() as u32)
                .max_by_key(|&r| region_profile.regions[r as usize].cycles)
                .unwrap_or(0);
            format!(
                "# profile l{id}: hottest {} ({:.1}% self), L1 MPKI {:.2}\n",
                region_profile.full_name(hottest),
                region_profile.regions[hottest as usize].cycles as f64 / total * 100.0,
                region_profile.regions[hottest as usize].mpki_l1()
            )
        });
        out.push('\n');
        out.extend(summaries);
        writeln!(
            out,
            "# profile artifacts written under {}",
            out_dir.display()
        )?;
    }
    Ok(vec![out])
}
