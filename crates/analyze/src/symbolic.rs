//! Symbolic lift of a generated kernel: recover every memory access of the
//! instruction stream as an affine expression over the minibatch index and
//! prove bounds for **all** images at once, without simulating anything.
//!
//! The key structural fact (DESIGN.md §13) is that the generated kernels are
//! *minibatch-affine*: the instruction stream for image `n` is the stream for
//! image 0 with every activation address shifted by `n · stride_image`, where
//! `stride_image` equals the per-image slab size of the activation tensor.
//! Weight addresses do not depend on `n` at all. So one *recorded* stream at
//! `N = 1` (captured with [`lsv_vengine::VCore::new_introspect`], which
//! executes nothing) plus the per-region affine model
//! `addr(n) = base + offset + n · n_coeff` is a complete symbolic summary of
//! the kernel for every minibatch size — and because an activation region's
//! per-image stride equals its slab size, the for-all-`n` bounds proof
//! reduces to the single inequality `offset + span ≤ bytes_image`.
//!
//! [`check_stream`] evaluates three rules over that model:
//!
//! * `OOB-ADDR` — an access (at some minibatch index) falls outside every
//!   modelled region, proved rather than observed.
//! * `REGION-OVERLAP` — an access overruns its region *into another live
//!   region* (silent corruption the traced sanitizer can only catch when the
//!   victim region happens to be mapped); reported separately because the
//!   fix is different (layout/stride bug, not a loop-bound bug).
//! * `VL-EXCEEDS` — a vector instruction's operating length exceeds the
//!   architected `n_vlen` (or is zero). The `lint-kernels` experiment
//!   checks it over the whole `{512..16384}` bit arch family.

use crate::diagnostics::{CappedRule, Report, RuleId, Severity};
use lsv_arch::ArchParams;
use lsv_conv::multicore::partition_ranges;
use lsv_conv::{ConvDesc, ConvProblem, Direction, KernelConfig};
use lsv_vengine::{Arena, ExecutionMode, TraceEvent, VCore};
use std::ops::Range;

/// Affine model of one arena region: an access recorded at offset `o` with
/// span `s` touches `[base + o + n·n_coeff, base + o + s + n·n_coeff)` for
/// every minibatch index `n < n_full`.
#[derive(Debug, Clone)]
pub struct RegionModel {
    /// Position in [`Arena::regions`] order (trace events carry this index).
    pub index: usize,
    /// Human-readable allocation label (`"act src ..."`, `"wei ..."`).
    pub label: String,
    /// First byte of the region in the recording arena.
    pub base: u64,
    /// Extent of the region *in the recording arena* (one image for
    /// activation tensors, the full tensor for weights).
    pub bytes_image: u64,
    /// Per-minibatch-index address stride: the activation slab size for
    /// n-dependent regions, 0 for weights and other shared data.
    pub n_coeff: u64,
    /// Extent of the region at the full minibatch
    /// (`bytes_image + (n_full − 1) · n_coeff`).
    pub bytes_full: u64,
}

impl RegionModel {
    /// Model for a minibatch-scaled activation region: per-image slab of
    /// `bytes_image` bytes, images laid out contiguously.
    pub fn minibatch_scaled(
        index: usize,
        label: &str,
        base: u64,
        bytes_image: u64,
        n_full: usize,
    ) -> Self {
        RegionModel {
            index,
            label: label.to_string(),
            base,
            bytes_image,
            n_coeff: bytes_image,
            bytes_full: bytes_image * n_full.max(1) as u64,
        }
    }

    /// Model for an n-independent (shared) region such as the weights.
    pub fn shared(index: usize, label: &str, base: u64, bytes: u64) -> Self {
        RegionModel {
            index,
            label: label.to_string(),
            base,
            bytes_image: bytes,
            n_coeff: 0,
            bytes_full: bytes,
        }
    }

    /// End of the region in the recording arena.
    pub fn end_image(&self) -> u64 {
        self.base + self.bytes_image
    }
}

/// Which work partitioning the multicore executor applies to this kernel —
/// mirrors [`lsv_conv::execute_multicore`] exactly because both sides call
/// [`partition_ranges`].
#[derive(Debug, Clone)]
pub enum PartitionModel {
    /// Fwd / BwdData: minibatch images split across cores; every core runs
    /// the same stream shifted by its image range.
    Minibatch(Vec<Range<usize>>),
    /// BwdWeights: the small feature-map dimension's blocks split across
    /// cores; every core walks the whole minibatch.
    SmallBlocks(Vec<Range<usize>>),
}

/// A symbolic summary of one generated kernel: the recorded instruction
/// stream(s), the per-region affine models, and the multicore partitioning.
#[derive(Debug)]
pub struct KernelLift {
    /// Region models in arena order (`regions[i].index == i`).
    pub regions: Vec<RegionModel>,
    /// Recorded instruction streams. One stream for Minibatch-partitioned
    /// kernels (all cores execute it, shifted); one per core range for
    /// SmallBlocks kernels (each core executes a different block slice).
    pub streams: Vec<Vec<TraceEvent>>,
    /// The multicore work split the race detector reasons about.
    pub partition: PartitionModel,
    /// Full minibatch of the original problem (the recording uses `N = 1`).
    pub n_full: usize,
}

/// Memory footprint of one event relative to the region models: returns
/// `(what, region_index, addr, span, is_write)` for memory events in-bounds
/// of *some* region; events with `region: None` are handled by the caller.
pub(crate) fn footprint(ev: &TraceEvent) -> Option<(&'static str, Option<usize>, u64, u64, bool)> {
    let (what, region, addr, span, write) = match *ev {
        TraceEvent::ScalarLoad { addr, region } => ("scalar load", region, addr, 4, false),
        TraceEvent::ScalarStore { addr, region } => ("scalar store", region, addr, 4, true),
        TraceEvent::VLoad {
            addr, span, region, ..
        } => ("vector load", region, addr, span, false),
        TraceEvent::VStore {
            addr, span, region, ..
        } => ("vector store", region, addr, span, true),
        TraceEvent::VGather {
            addr, span, region, ..
        } => ("vector gather", region, addr, span, false),
        TraceEvent::VScatter {
            addr, span, region, ..
        } => ("vector scatter", region, addr, span, true),
        _ => return None,
    };
    Some((what, region.map(|r| r as usize), addr, span, write))
}

/// Operating vector length of a vector event, `None` for scalar events.
pub(crate) fn vector_length(ev: &TraceEvent) -> Option<usize> {
    match *ev {
        TraceEvent::VLoad { vl, .. }
        | TraceEvent::VStore { vl, .. }
        | TraceEvent::VZero { vl, .. }
        | TraceEvent::VFma { vl, .. }
        | TraceEvent::VReduce { vl, .. }
        | TraceEvent::VGather { vl, .. }
        | TraceEvent::VScatter { vl, .. } => Some(vl),
        _ => None,
    }
}

/// Prove the bounds and vector-length rules over one recorded stream.
///
/// `regions` must be indexed by arena order ([`RegionModel::index`] equal to
/// the vector position); `n_full` is the minibatch the proof quantifies
/// over; `n_vlen` the architected maximum vector length in elements.
pub fn check_stream(
    stream: &[TraceEvent],
    regions: &[RegionModel],
    n_full: usize,
    n_vlen: usize,
) -> Report {
    let mut report = Report::new();
    let mut oob = CappedRule::new(RuleId::OobAddr);
    let mut overlap = CappedRule::new(RuleId::RegionOverlap);
    let mut vl_rule = CappedRule::new(RuleId::VlExceeds);

    for (i, ev) in stream.iter().enumerate() {
        if let Some(vl) = vector_length(ev) {
            if vl == 0 || vl > n_vlen {
                vl_rule.push(
                    &mut report,
                    format!(
                        "instruction #{i}: vector length {vl} outside the architected \
                         range [1, {n_vlen}] — illegal on this arch for every input"
                    ),
                );
            }
        }
        let Some((what, region, addr, span, _)) = footprint(ev) else {
            continue;
        };
        let Some(region) = region else {
            oob.push(
                &mut report,
                format!(
                    "instruction #{i}: {what} of {span} bytes at {addr:#x} hits no \
                     allocation (proved for every minibatch index)"
                ),
            );
            continue;
        };
        let Some(m) = regions.get(region) else {
            // Past the model list: `region_models` models every arena
            // region, so only a hand-built list gets here.
            continue;
        };
        debug_assert_eq!(m.index, region);
        let offset = addr.saturating_sub(m.base);
        // Affine bound for all n: offset + span + n·n_coeff ≤ bytes_image +
        // n·n_coeff  ⇔  offset + span ≤ bytes_image (the per-image slab IS
        // the stride for n-scaled regions, the whole region for shared ones).
        if offset + span <= m.bytes_image {
            continue;
        }
        let spill_lo = m.end_image();
        let spill_hi = addr + span;
        let victim = regions
            .iter()
            .find(|o| o.index != m.index && o.base < spill_hi && spill_lo < o.base + o.bytes_image);
        let for_all = if m.n_coeff != 0 && n_full > 1 {
            format!(
                " (affine lift: offset + n·{}, proved for all {n_full} images)",
                m.n_coeff
            )
        } else {
            String::new()
        };
        match victim {
            Some(v) => overlap.push(
                &mut report,
                format!(
                    "instruction #{i}: {what} of {span} bytes at offset {offset:#x} of \
                     region `{}` overruns into live region `{}`{for_all}",
                    m.label, v.label
                ),
            ),
            None => oob.push(
                &mut report,
                format!(
                    "instruction #{i}: {what} of {span} bytes at offset {offset:#x} \
                     overruns region `{}` ({} bytes) by {} bytes{for_all}",
                    m.label,
                    m.bytes_image,
                    offset + span - m.bytes_image
                ),
            ),
        }
    }
    oob.finish(&mut report);
    overlap.finish(&mut report);
    vl_rule.finish(&mut report);
    report
}

/// Build the per-region affine models for a kernel's tensors: activation
/// regions scale with the minibatch index, the weights region is shared.
/// An arena region that is none of `src`/`dst`/`wei` is modelled as shared
/// and denied under `OOB-ADDR`: the affine lift has no model of how its
/// accesses scale, so it cannot prove them in bounds.
pub fn region_models(
    arena: &Arena,
    t: &lsv_conv::ConvTensors,
    n_full: usize,
) -> (Vec<RegionModel>, Report) {
    let mut report = Report::new();
    let mut unattributed = CappedRule::new(RuleId::OobAddr);
    let models = arena
        .regions()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if r.base == t.src.base || r.base == t.dst.base {
                RegionModel::minibatch_scaled(i, &r.label, r.base, r.bytes, n_full)
            } else {
                if r.base != t.wei.base {
                    unattributed.push(
                        &mut report,
                        format!(
                            "arena region `{}` is none of the kernel's src/dst/wei \
                             tensors: the affine lift cannot bound accesses to it",
                            r.label
                        ),
                    );
                }
                RegionModel::shared(i, &r.label, r.base, r.bytes)
            }
        })
        .collect();
    unattributed.finish(&mut report);
    (models, report)
}

/// Record a kernel's instruction stream(s) without executing them and build
/// the symbolic model: introspection-mode "run" at `N = 1` (no functional
/// state, no timing, no cache — just the generator's emitted stream), plus
/// region models and the multicore partition.
///
/// For Minibatch-partitioned kernels one stream summarizes every core and
/// image; for the bwd-weights SmallBlocks split each core range is recorded
/// separately because cores execute *different* block slices. The report
/// holds the lift's own findings (see [`region_models`]).
pub fn lift_kernel(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> (KernelLift, Report) {
    let cores = arch.cores.max(1);
    let p1 = p.with_minibatch(1);
    let desc = ConvDesc::new(p1, cfg.direction, cfg.algorithm);
    let prim = desc.create_with_config(arch, *cfg, 1);
    // Introspection cores run timing-only and never move data.
    let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
    let t = prim.alloc_tensors(&mut arena);
    let (regions, findings) = region_models(&arena, &t, p.n);

    // At N = 1 the one image is the data passes' one core range; the
    // bwd-weights ranges are the cores' RB_c block slices.
    let ranges = partition_ranges(prim.work_items(), cores);
    let mut core = VCore::new_introspect(arch);
    let streams = ranges
        .iter()
        .map(|r| {
            prim.execute_core(&mut core, &mut arena, &t, r.clone());
            core.take_trace().expect("introspect cores always trace")
        })
        .collect();
    let partition = if cfg.direction == Direction::BwdWeights {
        PartitionModel::SmallBlocks(ranges)
    } else {
        PartitionModel::Minibatch(partition_ranges(p.n, cores))
    };
    (
        KernelLift {
            regions,
            streams,
            partition,
            n_full: p.n,
        },
        findings,
    )
}

/// True when `report` carries a `Deny` finding for `rule`.
pub fn denies(report: &Report, rule: RuleId) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.rule == rule && d.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions_fixture() -> Vec<RegionModel> {
        vec![
            // act src: 4096-byte image slab, 4 images.
            RegionModel::minibatch_scaled(0, "act src", 0x1000, 4096, 4),
            // act dst: adjacent slab.
            RegionModel::minibatch_scaled(1, "act dst", 0x2000, 4096, 4),
            // weights: shared, far away.
            RegionModel::shared(2, "wei", 0x10000, 8192),
        ]
    }

    fn vload(addr: u64, span: u64, region: Option<u32>, vl: usize) -> TraceEvent {
        TraceEvent::VLoad {
            vr: 0,
            addr,
            span,
            region,
            vl,
        }
    }

    #[test]
    fn in_slab_accesses_are_clean_for_all_images() {
        let regions = regions_fixture();
        let stream = vec![
            vload(0x1000, 4096, Some(0), 64),
            TraceEvent::VStore {
                vr: 1,
                addr: 0x2000 + 4000,
                span: 96,
                region: Some(1),
                vl: 24,
            },
            vload(0x10000 + 8000, 192, Some(2), 48),
        ];
        let r = check_stream(&stream, &regions, 4, 64);
        assert!(r.diagnostics.is_empty(), "{r:?}");
    }

    #[test]
    fn slab_overrun_into_neighbor_is_region_overlap() {
        let regions = regions_fixture();
        // Crosses from the last bytes of src's image slab into dst.
        let stream = vec![vload(0x1000 + 4090, 16, Some(0), 4)];
        let r = check_stream(&stream, &regions, 4, 64);
        assert!(denies(&r, RuleId::RegionOverlap), "{r:?}");
        assert!(!r.fired(RuleId::OobAddr));
        let msg = r.diagnostics[0].to_string();
        assert!(msg.contains("act src") && msg.contains("act dst"), "{msg}");
        assert!(msg.contains("all 4 images"), "{msg}");
    }

    #[test]
    fn overrun_into_unmapped_space_is_oob() {
        let regions = regions_fixture();
        // Overruns the weights region into nothing.
        let stream = vec![vload(0x10000 + 8190, 64, Some(2), 16)];
        let r = check_stream(&stream, &regions, 4, 64);
        assert!(denies(&r, RuleId::OobAddr), "{r:?}");
        assert!(!r.fired(RuleId::RegionOverlap));
    }

    #[test]
    fn unmapped_address_is_oob_for_every_image() {
        let regions = regions_fixture();
        let stream = vec![vload(0x9999_0000, 256, None, 64)];
        let r = check_stream(&stream, &regions, 4, 64);
        assert!(denies(&r, RuleId::OobAddr), "{r:?}");
        assert!(
            r.diagnostics[0]
                .to_string()
                .contains("every minibatch index"),
            "{:?}",
            r.diagnostics[0]
        );
    }

    #[test]
    fn vl_exceeds_fires_on_overlong_and_zero_lengths() {
        let regions = regions_fixture();
        let stream = vec![
            vload(0x1000, 256, Some(0), 65),
            TraceEvent::VZero { vr: 0, vl: 0 },
        ];
        let r = check_stream(&stream, &regions, 1, 64);
        assert!(denies(&r, RuleId::VlExceeds), "{r:?}");
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.rule == RuleId::VlExceeds)
                .count(),
            2
        );
        // Legal lengths stay clean.
        let clean = check_stream(&[vload(0x1000, 256, Some(0), 64)], &regions, 1, 64);
        assert!(!clean.fired(RuleId::VlExceeds));
    }
}
