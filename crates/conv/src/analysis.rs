//! Static analysis of a kernel configuration's scalar access stream — the
//! machinery behind the paper's Figure 3 and Formula 3 reasoning, exposed
//! as a library API so users can inspect *why* a configuration will (or
//! won't) thrash the L1 before running the simulator.
//!
//! The stream's tensor, channel block and effective stride are the pass's
//! ([`crate::PassRoles`]), the ones Formula 3 is evaluated on, so the two
//! agree in every direction.

use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_arch::ArchParams;

/// Static profile of the micro-kernel's scalar access stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarStreamProfile {
    /// Byte stride between consecutive scalar accesses (`A_b * C_str * 4`).
    pub stride_bytes: u64,
    /// Number of scalar accesses per inner-loop sweep (the combined
    /// register block).
    pub sweep_len: usize,
    /// Distinct L1 sets one sweep visits.
    pub distinct_sets: usize,
    /// Line slots available to the sweep (`distinct_sets * ways`).
    pub capacity_lines: usize,
    /// Lines one sweep touches (one per register-block point when the
    /// stride is at least a line).
    pub footprint_lines: usize,
    /// The sweep's lines exceed the sets it maps to: reuse across the
    /// channel loop will conflict-miss (the measurable form of Formula 3).
    pub thrashes: bool,
}

/// Profile the scalar stream of a configuration for problem `p` on an
/// architecture.
///
/// The stream walks the pass's scalar-stream tensor ([`crate::PassRoles`]):
/// it strides by that tensor's channel block (`A_b`, the configuration's
/// [`KernelConfig::stream_block`]) times the stream's effective stride (the
/// convolution stride where it walks `S`, 1 where it walks `D`). Each of the
/// combined register block's points — `RB_h * RB_w` spatially, `RB_c`
/// channels on backward weights — contributes one access per inner-loop
/// iteration, and the *same lines* are revisited on the next channel
/// iteration, so the sweep must fit the sets it maps to (Section 5.2).
pub fn scalar_stream_profile(
    arch: &ArchParams,
    cfg: &KernelConfig,
    p: &ConvProblem,
) -> ScalarStreamProfile {
    let sweep_len = cfg.block();
    let stride_bytes = (cfg.stream_block() * cfg.roles(p).stream_stride * arch.elem_bytes()) as u64;
    let line = arch.l1d.line as u64;
    let sets = arch.l1d.sets();
    let mut visited: Vec<usize> = (0..sweep_len as u64)
        .map(|i| arch.l1d.set_of(i * stride_bytes))
        .collect();
    visited.sort_unstable();
    visited.dedup();
    let distinct_sets = visited.len();
    let capacity_lines = distinct_sets * arch.l1d.ways;
    // Lines touched per sweep: points can share a line when the stride is
    // sub-line.
    let footprint_lines = if stride_bytes >= line {
        sweep_len
    } else {
        (((sweep_len as u64) * stride_bytes).div_ceil(line)) as usize
    };
    ScalarStreamProfile {
        stride_bytes,
        sweep_len,
        distinct_sets: distinct_sets.min(sets),
        capacity_lines,
        footprint_lines,
        thrashes: footprint_lines > capacity_lines,
    }
}

/// Per-set access counts of one register-block sweep of the scalar stream —
/// the data behind a Figure 3-style visualization. Index = L1 set, value =
/// lines of the sweep mapping there.
pub fn set_pressure_histogram(arch: &ArchParams, cfg: &KernelConfig, p: &ConvProblem) -> Vec<u32> {
    let prof = scalar_stream_profile(arch, cfg, p);
    let mut hist = vec![0u32; arch.l1d.sets()];
    let line = arch.l1d.line as u64;
    let mut last_line = u64::MAX;
    for i in 0..prof.sweep_len as u64 {
        let addr = i * prof.stride_bytes;
        let la = addr & !(line - 1);
        if la != last_line {
            hist[arch.l1d.set_of(addr)] += 1;
            last_line = la;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Algorithm, Direction};
    use crate::tuning::kernel_config;
    use lsv_arch::presets::sx_aurora;

    #[test]
    fn histogram_concentrates_for_dc_and_spreads_for_mbdc() {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 512, 512, 28, 28, 1, 1, 1, 0);
        let dc = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 8);
        let mbdc = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Mbdc, 8);
        let h_dc = set_pressure_histogram(&arch, &dc, &p);
        let h_mb = set_pressure_histogram(&arch, &mbdc, &p);
        let nonzero = |h: &[u32]| h.iter().filter(|&&c| c > 0).count();
        assert!(nonzero(&h_dc) < nonzero(&h_mb), "DC stresses fewer sets");
        let max_dc = *h_dc.iter().max().unwrap();
        assert!(
            max_dc as usize > arch.l1d.ways,
            "DC overloads some set beyond its ways: {max_dc}"
        );
        assert!(*h_mb.iter().max().unwrap() <= 2, "MBDC spreads evenly");
    }

    #[test]
    fn histogram_total_counts_sweep_lines() {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 256, 256, 14, 14, 1, 1, 1, 0);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 8);
        let prof = scalar_stream_profile(&arch, &cfg, &p);
        let h = set_pressure_histogram(&arch, &cfg, &p);
        assert_eq!(h.iter().sum::<u32>() as usize, prof.footprint_lines);
    }

    #[test]
    fn dc_conflict_layer_profile_thrashes() {
        // Layer 8: IC = 512 -> stride 2 KB, RB = 24 -> 24 lines over
        // 8 sets x 2 ways = 16 slots: thrash.
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 512, 128, 28, 28, 1, 1, 1, 0);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 8);
        let prof = scalar_stream_profile(&arch, &cfg, &p);
        assert_eq!(prof.stride_bytes, 2048);
        assert_eq!(prof.sweep_len, 24);
        assert_eq!(prof.distinct_sets, 8);
        assert_eq!(prof.capacity_lines, 16);
        assert!(prof.thrashes);
    }

    #[test]
    fn bdc_profile_fits() {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 512, 128, 28, 28, 1, 1, 1, 0);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 8);
        let prof = scalar_stream_profile(&arch, &cfg, &p);
        assert!(!prof.thrashes, "{prof:?}");
        assert!(prof.footprint_lines <= prof.capacity_lines);
    }

    #[test]
    fn mbdc_profile_spreads_over_all_sets() {
        let arch = sx_aurora();
        let p = ConvProblem::new(8, 512, 512, 28, 28, 1, 1, 1, 0);
        let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Mbdc, 8);
        let prof = scalar_stream_profile(&arch, &cfg, &p);
        assert_eq!(prof.stride_bytes, 128, "one line per point");
        assert!(!prof.thrashes);
        assert_eq!(prof.distinct_sets, prof.sweep_len.min(arch.l1d.sets()));
    }

    #[test]
    fn profile_agrees_with_formula3_on_table3() {
        // The static profile and Formula 3 must tell the same story across
        // the whole layer suite, in every direction, for every algorithm and
        // at every vector width of the fuzz sweep (they are two
        // formalizations of one claim).
        let mut disagree = Vec::new();
        for bits in crate::fuzz::VLEN_SWEEP_BITS {
            let arch = lsv_arch::presets::aurora_with_vlen_bits(bits);
            for (layer, &(ic, oc, ihw, _, k, s, pad)) in lsv_models_table3().iter().enumerate() {
                let p = ConvProblem::new(8, ic, oc, ihw, ihw, k, k, s, pad);
                for dir in Direction::ALL {
                    for alg in Algorithm::ALL {
                        let cfg = kernel_config(&arch, &p, dir, alg, 8);
                        let prof = scalar_stream_profile(&arch, &cfg, &p);
                        if prof.thrashes != cfg.conflicts_predicted {
                            disagree.push(format!(
                                "{bits} bits layer {layer} {dir} {alg}: profile {prof:?} vs \
                                 formula {}",
                                cfg.conflicts_predicted
                            ));
                        }
                    }
                }
            }
        }
        assert!(disagree.is_empty(), "{disagree:#?}");
    }

    /// Local copy of the Table 3 rows (lsv-models depends on this crate).
    fn lsv_models_table3() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
        vec![
            (64, 256, 56, 56, 1, 1, 0),
            (64, 64, 56, 56, 1, 1, 0),
            (64, 64, 56, 56, 3, 1, 1),
            (256, 64, 56, 56, 1, 1, 0),
            (256, 512, 56, 28, 1, 2, 0),
            (256, 128, 56, 28, 1, 2, 0),
            (128, 128, 28, 28, 3, 1, 1),
            (128, 512, 28, 28, 1, 1, 0),
            (512, 128, 28, 28, 1, 1, 0),
            (512, 1024, 28, 14, 1, 2, 0),
            (512, 256, 28, 14, 1, 2, 0),
            (256, 256, 14, 14, 3, 1, 1),
            (256, 1024, 14, 14, 1, 1, 0),
            (1024, 256, 14, 14, 1, 1, 0),
            (1024, 2048, 14, 7, 1, 2, 0),
            (1024, 512, 14, 7, 1, 2, 0),
            (512, 512, 7, 7, 3, 1, 1),
            (512, 2048, 7, 7, 1, 1, 0),
            (2048, 512, 7, 7, 1, 1, 0),
        ]
    }
}
