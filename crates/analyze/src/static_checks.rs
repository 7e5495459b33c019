//! Static verification of a `KernelConfig` against an architecture and a
//! problem: the analyzable half of the paper's model (Formulas 2-4) plus the
//! layout contracts the MBDC algorithm relies on. No kernel is executed —
//! everything here is derived from the configuration alone (the reorder
//! round-trip check runs a miniature functional probe, the cheapest way to
//! exercise the real layout arithmetic).

use crate::diagnostics::{Report, RuleId, Severity};
use lsv_arch::{formula2_rb_min, ArchParams};
use lsv_conv::analysis::set_pressure_histogram;
use lsv_conv::reorder::{reorder_activations, reorder_activations_back};
use lsv_conv::{scalar_stream_profile, Algorithm, ConvProblem, Direction, KernelConfig};
use lsv_tensor::{ActTensor, ActivationLayout};
use lsv_vengine::{Arena, ExecutionMode, VCore};

/// Formula 3 conflict-miss lint, generalized to all three directions via the
/// scalar-stream profile, with a set-pressure explanation of *which* L1 sets
/// thrash.
///
/// Severity depends on whether the algorithm *promises* conflict-freedom for
/// the direction: DC never does (Table 3's motivating observation), and BDC
/// deliberately skips the Formula 4 cap on the backward-weights pass (the
/// paper's Section 8: register-block fine-tuning "is not as effective in this
/// direction") — both get a `Warn`. BDC on the spatially-blocked passes and
/// MBDC everywhere (line-grain layout) claim conflict-freedom by
/// construction, so a conflicting configuration broke its contract and is
/// denied.
fn check_l1_conflicts(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig, report: &mut Report) {
    let prof = scalar_stream_profile(arch, cfg, p);
    if !prof.thrashes {
        return;
    }
    let hist = set_pressure_histogram(arch, cfg, p);
    let ways = arch.l1d.ways;
    let overloaded: Vec<usize> = hist
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c as usize > ways)
        .map(|(s, _)| s)
        .collect();
    let worst = hist.iter().copied().max().unwrap_or(0);
    let severity = match (cfg.algorithm, cfg.direction) {
        (Algorithm::Dc, _) => Severity::Warn,
        (Algorithm::Bdc, Direction::BwdWeights) => Severity::Warn,
        (Algorithm::Bdc, _) | (Algorithm::Mbdc, _) => Severity::Deny,
    };
    report.push(
        RuleId::L1Conflict,
        severity,
        format!(
            "scalar stream thrashes the L1 (Formula 3): one register-block sweep \
             touches {} lines at stride {} B but maps into only {} sets x {} ways \
             = {} line slots; {} of {} sets are overloaded (worst set holds {} \
             lines) and every line is re-fetched each channel iteration",
            prof.footprint_lines,
            prof.stride_bytes,
            prof.distinct_sets,
            ways,
            prof.capacity_lines,
            overloaded.len(),
            arch.l1d.sets(),
            worst,
        ),
    );
}

/// Formula 4 range lint: `N_fma*L_fma/B_seq <= RB < L1/(A_b*C_str)`.
///
/// Both bounds are performance advice rather than correctness contracts
/// (`Warn`): a small block under-subscribes the FMA pipelines, a large one
/// re-enters the conflict regime that [`check_l1_conflicts`] measures.
fn check_bseq_range(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig, report: &mut Report) {
    let rb = cfg.block();
    let lower = formula2_rb_min(arch).div_ceil(arch.b_seq.max(1));
    if rb < lower {
        report.push(
            RuleId::BseqLower,
            Severity::Warn,
            format!(
                "register block {rb} is below the Formula 4 lower bound \
                 ceil(N_fma*L_fma/B_seq) = ceil({}*{}/{}) = {lower}: even with \
                 B_seq scalar instructions between FMAs the {}-deep pipelines \
                 cannot stay subscribed",
                arch.n_fma, arch.l_fma, arch.b_seq, arch.l_fma,
            ),
        );
    }
    // The conflict-free upper bound, via the same scalar-stream parameters
    // the profile uses: stride_bytes = A_b * C_str_eff * 4.
    let prof = scalar_stream_profile(arch, cfg, p);
    if let Some(upper) = (arch.l1d.size as u64).checked_div(prof.stride_bytes) {
        let upper = upper as usize;
        if rb > upper {
            report.push(
                RuleId::BseqUpper,
                Severity::Warn,
                format!(
                    "register block {rb} exceeds the Formula 4 conflict-free upper \
                     bound L1/(A_b*C_str*4) = {}/{} = {upper}: the scalar stream's \
                     sweep no longer fits the L1 sets it maps to",
                    arch.l1d.size, prof.stride_bytes,
                ),
            );
        }
    }
}

/// Register-pressure contract: accumulators + weight buffers must fit the
/// architected vector register file. A violating kernel would index past the
/// register file — denied.
fn check_register_pressure(arch: &ArchParams, cfg: &KernelConfig, report: &mut Report) {
    let needed = cfg.registers();
    if needed > arch.n_vregs {
        report.push(
            RuleId::RegPressure,
            Severity::Deny,
            format!(
                "configuration needs {needed} vector registers ({} accumulators + \
                 {} weight buffers) but the architecture has {}",
                cfg.block(),
                cfg.buffers(),
                arch.n_vregs,
            ),
        );
    }
}

/// Layout contracts.
///
/// * Every algorithm: `1 <= vl <= N_vlen`, and the weights tensor's vector
///   block must equal the working vector length (the kernels load weight
///   vectors of `vl` elements unit-stride).
/// * MBDC additionally promises line-grain blocks: the activation channel
///   blocks must divide `N_cline` exactly, otherwise gather/scatter blocks
///   straddle cache lines and the banking model (and a real machine's
///   2-D vector accesses) no longer sees one line per block. A miniature
///   functional reorder round-trip validates the layout arithmetic end to
///   end.
fn check_layout_contracts(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
    report: &mut Report,
) {
    let n_vlen = arch.n_vlen();
    if cfg.vl == 0 || cfg.vl > n_vlen {
        report.push(
            RuleId::LayoutDivide,
            Severity::Deny,
            format!(
                "working vector length {} outside the architected range [1, {n_vlen}]",
                cfg.vl
            ),
        );
        return; // the remaining checks presume a sane vl
    }
    if cfg.wei_layout.ocb != cfg.vl {
        report.push(
            RuleId::LayoutDivide,
            Severity::Deny,
            format!(
                "weights vector block OC_b = {} must equal the working vector \
                 length vl = {}: the kernel loads weight vectors unit-stride",
                cfg.wei_layout.ocb, cfg.vl
            ),
        );
    }
    if cfg.algorithm == Algorithm::Mbdc {
        let ncline = arch.n_cline();
        for (name, cb, c) in [
            ("S", cfg.src_layout.cb, p.ic),
            ("D", cfg.dst_layout.cb, p.oc),
        ] {
            // A block covering the whole channel extent (C < N_cline) is one
            // block total — nothing to straddle; otherwise blocks must tile
            // the cache line exactly.
            if cb == 0 || (!ncline.is_multiple_of(cb) && cb != c) {
                report.push(
                    RuleId::LayoutDivide,
                    Severity::Deny,
                    format!(
                        "MBDC {name} channel block C_b = {cb} does not divide \
                         N_cline = {ncline}: multi-blocks would straddle cache \
                         lines, defeating the line-grain gather/scatter layout"
                    ),
                );
            }
        }
        // Reorder round-trip probe on a miniature tensor with the real
        // channel blocking (covers tail blocks when C % C_b != 0).
        for (name, cb, c) in [
            ("S", cfg.src_layout.cb, p.ic),
            ("D", cfg.dst_layout.cb, p.oc),
        ] {
            if cb == 0 {
                continue; // already denied above
            }
            let c_probe = c.min(2 * cb + cb / 2).max(1);
            let mut arena = Arena::new();
            let mut core = VCore::new(arch, ExecutionMode::Functional);
            let nchw = ActTensor::alloc(&mut arena, 1, c_probe, 2, 2, ActivationLayout::nchw());
            let blocked = ActTensor::alloc(&mut arena, 1, c_probe, 2, 2, ActivationLayout { cb });
            let back = ActTensor::alloc(&mut arena, 1, c_probe, 2, 2, ActivationLayout::nchw());
            let data: Vec<f32> = (0..nchw.elems()).map(|i| i as f32 + 0.5).collect();
            nchw.store_nchw(&mut arena, &data);
            reorder_activations(&mut core, &mut arena, &nchw, &blocked);
            reorder_activations_back(&mut core, &mut arena, &blocked, &back);
            if back.load_nchw(&arena) != data {
                report.push(
                    RuleId::LayoutDivide,
                    Severity::Deny,
                    format!(
                        "MBDC {name} layout (C_b = {cb}) fails the reorder \
                         round-trip: a {c_probe}-channel probe tensor does not \
                         survive blocked-and-back conversion"
                    ),
                );
            }
        }
    }
}

/// Run every static check of a configuration triple, returning the combined
/// report. This is the configuration half of the linter;
/// [`crate::analyze_kernel`] adds the checks over the kernel's recorded
/// stream.
pub fn analyze_config(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    let mut report = Report::new();
    check_register_pressure(arch, cfg, &mut report);
    check_layout_contracts(arch, p, cfg, &mut report);
    check_bseq_range(arch, p, cfg, &mut report);
    check_l1_conflicts(arch, p, cfg, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_conv::tuning::kernel_config;

    fn conflict_layer() -> ConvProblem {
        // Table 3 layer 8 shape: IC = 512 at 28x28 — the canonical DC
        // conflict case of Section 5.2.
        ConvProblem::new(1, 512, 128, 28, 28, 1, 1, 1, 0)
    }

    #[test]
    fn dc_conflict_layer_warns_but_is_not_denied() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 1);
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::L1Conflict), "{r:?}");
        assert!(r.fired(RuleId::BseqUpper), "{r:?}");
        assert!(
            !r.has_deny(),
            "DC conflicts are expected, not contract breaks"
        );
    }

    #[test]
    fn bdc_on_conflict_layer_is_clean() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 1);
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.diagnostics.is_empty(), "{r:?}");
    }

    #[test]
    fn forced_bdc_conflict_is_denied() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 1);
        // Corrupt the register block past the Formula 4 upper bound (16).
        cfg.rb.rb_w = 24;
        cfg.rb.rb_h = 1;
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::L1Conflict) && r.has_deny(), "{r:?}");
    }

    #[test]
    fn undersized_register_block_fires_bseq_lower() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 1);
        cfg.rb.rb_w = 2;
        cfg.rb.rb_h = 1;
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::BseqLower), "{r:?}");
        assert_eq!(r.count(Severity::Deny), 0);
    }

    #[test]
    fn register_overflow_is_denied() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 1);
        cfg.rb.rb_w = 28;
        cfg.rb.rb_h = 3;
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::RegPressure) && r.has_deny(), "{r:?}");
    }

    #[test]
    fn misaligned_mbdc_block_is_denied() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Mbdc, 1);
        cfg.src_layout.cb = 20; // does not divide N_cline = 32
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::LayoutDivide) && r.has_deny(), "{r:?}");
    }

    #[test]
    fn mismatched_weights_vector_block_is_denied() {
        let arch = sx_aurora();
        let p = conflict_layer();
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 1);
        cfg.wei_layout.ocb = cfg.vl / 2;
        let r = analyze_config(&arch, &p, &cfg);
        assert!(r.fired(RuleId::LayoutDivide) && r.has_deny(), "{r:?}");
    }

    #[test]
    fn bwdw_configs_analyze_via_rb_c() {
        let arch = sx_aurora();
        let p = ConvProblem::new(1, 64, 256, 56, 56, 1, 1, 1, 0);
        for alg in Algorithm::ALL {
            let cfg = kernel_config(&arch, &p, Direction::BwdWeights, alg, 1);
            let r = analyze_config(&arch, &p, &cfg);
            assert!(!r.has_deny(), "{alg}: {r:?}");
        }
    }
}
