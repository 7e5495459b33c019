//! Static multicore race detector: prove the Section 4.3 work partitioning
//! write-disjoint across cores from the symbolic lift alone.
//!
//! [`lsv_conv::execute_multicore`] splits work with
//! [`lsv_conv::multicore::partition_ranges`] — the minibatch for fwd /
//! bwd-data, the small feature-map dimension's blocks for bwd-weights. The
//! lift ([`crate::symbolic::KernelLift`]) records the same partitioning, so
//! the detector and the executor can never drift apart.
//!
//! * **Minibatch** kernels: every core executes the *same* stream shifted by
//!   its image range. Cross-core write disjointness therefore reduces to two
//!   per-event facts: a write must target an n-scaled region (a write to a
//!   shared region is executed by every core → `RACE-WRITE-OVERLAP`), and it
//!   must stay inside its image slab (a slab-crossing write lands in a
//!   neighboring core's image at every partition boundary → deny).
//!   `FALSE-SHARING` warns when the write hull of image `k−1` ends in the
//!   same cache line where image `k`'s hull begins across a core boundary —
//!   exact because arena bases are page-aligned and the line divides the page.
//! * **SmallBlocks** kernels: cores execute *different* streams (their block
//!   slices), recorded separately. Per-core write-interval sets are merged
//!   and compared pairwise: overlap across cores → `RACE-WRITE-OVERLAP`
//!   deny; disjoint but same-cache-line adjacency → `FALSE-SHARING` warn.

use crate::diagnostics::{CappedRule, Report, RuleId, Severity};
use crate::symbolic::{footprint, KernelLift, PartitionModel};
use lsv_arch::ArchParams;

/// Merge sorted-in-place raw intervals into a disjoint sorted list.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in iv {
        match merged.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// Merged, sorted write intervals per region (indexed like `regions`) that
/// one stream makes — a single pass over the stream.
pub(crate) fn write_intervals(
    stream: &[lsv_vengine::TraceEvent],
    n_regions: usize,
) -> Vec<Vec<(u64, u64)>> {
    let mut raw: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_regions];
    for ev in stream {
        if let Some((_, Some(r), addr, span, true)) = footprint(ev) {
            if r < n_regions {
                raw[r].push((addr, addr + span));
            }
        }
    }
    raw.into_iter().map(merge_intervals).collect()
}

/// Check the multicore partitioning of a lifted kernel for write-set races
/// and false sharing. Clean by construction when at most one core gets work.
pub fn check_races(lift: &KernelLift, arch: &ArchParams) -> Report {
    let line = arch.llc.line.max(1) as u64;
    match &lift.partition {
        PartitionModel::Minibatch(ranges) => check_minibatch(lift, ranges.len(), line),
        PartitionModel::SmallBlocks(_) => check_small_blocks(lift, line),
    }
}

fn check_minibatch(lift: &KernelLift, active_cores: usize, line: u64) -> Report {
    let mut report = Report::new();
    if active_cores <= 1 {
        return report;
    }
    let mut race = CappedRule::new(RuleId::RaceWriteOverlap);
    let mut fs = CappedRule::with_severity(RuleId::FalseSharing, Severity::Warn);
    // (lo, hi) write hull per region, in-slab writes only.
    let mut hulls: Vec<Option<(u64, u64)>> = vec![None; lift.regions.len()];

    let stream = lift.streams.first().map_or(&[][..], |s| &s[..]);
    for (i, ev) in stream.iter().enumerate() {
        let Some((what, Some(region), addr, span, true)) = footprint(ev) else {
            continue;
        };
        let Some(m) = lift.regions.get(region) else {
            continue;
        };
        let offset = addr.saturating_sub(m.base);
        if m.n_coeff == 0 {
            race.push(
                &mut report,
                format!(
                    "instruction #{i}: {what} to shared region `{}` at offset {offset:#x} \
                     is executed by all {active_cores} cores — overlapping write sets",
                    m.label
                ),
            );
            continue;
        }
        if offset + span > m.bytes_image {
            race.push(
                &mut report,
                format!(
                    "instruction #{i}: {what} at offset {offset:#x}+{span} crosses the \
                     image slab of `{}` ({} bytes) — it lands in the neighboring \
                     core's image at every partition boundary",
                    m.label, m.bytes_image
                ),
            );
            continue;
        }
        let h = &mut hulls[region];
        *h = Some(match *h {
            Some((lo, hi)) => (lo.min(offset), hi.max(offset + span)),
            None => (offset, offset + span),
        });
    }

    for (region, hull) in hulls.iter().enumerate() {
        let Some((wlo, whi)) = *hull else { continue };
        let m = &lift.regions[region];
        let s = m.n_coeff;
        // Partition boundaries are the starts of ranges 1.. — but the hull
        // adjacency predicate only depends on the boundary image index k, and
        // every k in 1..n_full is a boundary for *some* legal core count, so
        // evaluating the recorded boundaries keeps the warning honest for
        // this run's partitioning.
        if let PartitionModel::Minibatch(ranges) = &lift.partition {
            for r in ranges.iter().skip(1) {
                let k = r.start as u64;
                let last_line = (m.base + (k - 1) * s + whi - 1) / line;
                let first_line = (m.base + k * s + wlo) / line;
                if last_line == first_line {
                    fs.push(
                        &mut report,
                        format!(
                            "cores sharing cache line {first_line:#x}: image {} of `{}` \
                             ends its write hull in the line where image {k} begins \
                             ({}-byte lines)",
                            k - 1,
                            m.label,
                            line
                        ),
                    );
                }
            }
        }
    }
    race.finish(&mut report);
    fs.finish(&mut report);
    report
}

fn check_small_blocks(lift: &KernelLift, line: u64) -> Report {
    let mut report = Report::new();
    if lift.streams.len() <= 1 {
        return report;
    }
    let mut race = CappedRule::new(RuleId::RaceWriteOverlap);
    let mut fs = CappedRule::with_severity(RuleId::FalseSharing, Severity::Warn);

    // One pass per stream: per-region merged interval lists, tagged by core.
    let per_core: Vec<Vec<Vec<(u64, u64)>>> = lift
        .streams
        .iter()
        .map(|s| write_intervals(s, lift.regions.len()))
        .collect();
    for m in &lift.regions {
        // All write intervals to this region, tagged with the writing core.
        let mut tagged: Vec<(u64, u64, usize)> = Vec::new();
        for (core, intervals) in per_core.iter().enumerate() {
            for &(lo, hi) in &intervals[m.index] {
                tagged.push((lo, hi, core));
            }
        }
        if tagged.len() < 2 {
            continue;
        }
        tagged.sort_unstable();
        let (mut prev_hi, mut prev_core) = (tagged[0].1, tagged[0].2);
        for &(lo, hi, core) in &tagged[1..] {
            if lo < prev_hi {
                if core != prev_core {
                    race.push(
                        &mut report,
                        format!(
                            "cores {prev_core} and {core} both write \
                             [{:#x}, {:#x}) of `{}` — overlapping write sets \
                             under the small-block split",
                            lo,
                            prev_hi.min(hi),
                            m.label
                        ),
                    );
                }
            } else if core != prev_core && (prev_hi - 1) / line == lo / line {
                fs.push(
                    &mut report,
                    format!(
                        "cores {prev_core} and {core} write disjoint ranges of `{}` \
                         inside the same {line}-byte cache line (boundary at {lo:#x})",
                        m.label
                    ),
                );
            }
            if hi > prev_hi {
                prev_hi = hi;
                prev_core = core;
            }
        }
    }
    race.finish(&mut report);
    fs.finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{denies, RegionModel};
    use lsv_arch::sx_aurora;
    use lsv_vengine::TraceEvent;

    fn vstore(addr: u64, span: u64, region: u32) -> TraceEvent {
        TraceEvent::VStore {
            vr: 0,
            addr,
            span,
            region: Some(region),
            vl: (span / 4) as usize,
        }
    }

    fn minibatch_lift(stream: Vec<TraceEvent>, n: usize, cores: usize) -> KernelLift {
        KernelLift {
            regions: vec![
                RegionModel::minibatch_scaled(0, "act src", 0x1000, 4096, n),
                RegionModel::minibatch_scaled(1, "act dst", 0x10_000, 4096, n),
                RegionModel::shared(2, "wei", 0x100_000, 8192),
            ],
            streams: vec![stream],
            partition: PartitionModel::Minibatch(lsv_conv::multicore::partition_ranges(n, cores)),
            n_full: n,
        }
    }

    #[test]
    fn in_slab_writes_are_race_free() {
        let arch = sx_aurora();
        let lift = minibatch_lift(vec![vstore(0x10_000, 4096, 1)], 8, 8);
        let r = check_races(&lift, &arch);
        // Full-slab writes touch the boundary line, so a false-sharing note
        // is acceptable; a race is not.
        assert!(!r.fired(RuleId::RaceWriteOverlap), "{r:?}");
        assert!(!r.has_deny(), "{r:?}");
    }

    #[test]
    fn shared_region_write_is_a_race_under_minibatch_split() {
        let arch = sx_aurora();
        let lift = minibatch_lift(vec![vstore(0x100_000, 256, 2)], 8, 8);
        let r = check_races(&lift, &arch);
        assert!(denies(&r, RuleId::RaceWriteOverlap), "{r:?}");
        assert!(r.diagnostics[0].to_string().contains("all 8 cores"));
        // Same write with a single core is not a race.
        let solo = minibatch_lift(vec![vstore(0x100_000, 256, 2)], 1, 1);
        assert!(check_races(&solo, &arch).diagnostics.is_empty());
    }

    #[test]
    fn slab_crossing_write_is_a_race() {
        let arch = sx_aurora();
        let lift = minibatch_lift(vec![vstore(0x10_000 + 4000, 256, 1)], 8, 8);
        let r = check_races(&lift, &arch);
        assert!(denies(&r, RuleId::RaceWriteOverlap), "{r:?}");
        assert!(r.diagnostics[0].to_string().contains("partition boundary"));
    }

    #[test]
    fn boundary_line_sharing_warns_but_does_not_deny() {
        let arch = sx_aurora();
        let line = arch.llc.line as u64;
        // Write hull ends exactly at the slab end and the next image's hull
        // begins at offset 0 → same cache line iff slab size is not
        // line-aligned. Use a 4096-byte slab (line-aligned) with a hull that
        // ends mid-line: [4096-line/2 .. 4096) and starts at 0. Image k
        // starts at k*4096 which is line-aligned, so the hull *start* shares
        // no line with the previous end... instead craft a hull covering
        // [0, 4096): end line == start line of next image iff 4096 % line != 0.
        // With line=128 | 4096 the aligned case is clean:
        let clean = minibatch_lift(vec![vstore(0x10_000, 4096, 1)], 8, 8);
        let rc = check_races(&clean, &arch);
        assert!(!rc.fired(RuleId::FalseSharing), "{rc:?}");
        // A hull that stops short of the slab end but within the last line
        // of image k−1 cannot share with image k (aligned slabs). To get a
        // genuine shared line, shrink the modelled slab below line size:
        let mut lift = minibatch_lift(vec![], 8, 8);
        lift.regions[1] = RegionModel::minibatch_scaled(1, "act dst", 0x10_000, 64, 8);
        lift.streams[0] = vec![vstore(0x10_000, 64, 1)];
        let r = check_races(&lift, &arch);
        assert!(r.fired(RuleId::FalseSharing), "{r:?}");
        assert!(!r.has_deny(), "{r:?}");
        assert_eq!(line, 128, "test assumes 128-byte LLC lines");
    }

    fn small_blocks_lift(streams: Vec<Vec<TraceEvent>>) -> KernelLift {
        let n_ranges = streams.len();
        KernelLift {
            regions: vec![RegionModel::shared(0, "wei diff", 0x1000, 1 << 20)],
            streams,
            partition: PartitionModel::SmallBlocks(lsv_conv::multicore::partition_ranges(
                n_ranges,
                n_ranges.max(1),
            )),
            n_full: 4,
        }
    }

    #[test]
    fn disjoint_small_block_writes_are_clean() {
        let arch = sx_aurora();
        // Two cores, line-aligned disjoint slices of W_diff.
        let lift = small_blocks_lift(vec![
            vec![vstore(0x1000, 4096, 0)],
            vec![vstore(0x2000, 4096, 0)],
        ]);
        let r = check_races(&lift, &arch);
        assert!(r.diagnostics.is_empty(), "{r:?}");
    }

    #[test]
    fn overlapping_small_block_writes_are_denied() {
        let arch = sx_aurora();
        let lift = small_blocks_lift(vec![
            vec![vstore(0x1000, 4096, 0)],
            vec![vstore(0x1000 + 2048, 4096, 0)],
        ]);
        let r = check_races(&lift, &arch);
        assert!(denies(&r, RuleId::RaceWriteOverlap), "{r:?}");
        assert!(r.diagnostics[0].to_string().contains("cores 0 and 1"));
    }

    #[test]
    fn same_line_adjacency_across_cores_warns() {
        let arch = sx_aurora();
        // Core 0 ends at 0x1020, core 1 begins there: same 128-byte line.
        let lift = small_blocks_lift(vec![
            vec![vstore(0x1000, 32, 0)],
            vec![vstore(0x1020, 32, 0)],
        ]);
        let r = check_races(&lift, &arch);
        assert!(r.fired(RuleId::FalseSharing), "{r:?}");
        assert!(!r.has_deny(), "{r:?}");
        // Line-aligned split: clean.
        let aligned = small_blocks_lift(vec![
            vec![vstore(0x1000, 128, 0)],
            vec![vstore(0x1080, 128, 0)],
        ]);
        assert!(check_races(&aligned, &arch).diagnostics.is_empty());
    }

    #[test]
    fn intervals_merge_per_core_before_comparison() {
        // Same core writing overlapping chunks is not a race with itself.
        let stream = vec![vstore(0x1000, 256, 0), vstore(0x1100, 256, 0)];
        let merged = write_intervals(&stream, 1);
        assert_eq!(merged[0], vec![(0x1000, 0x1200)]);
        let arch = sx_aurora();
        let lift = small_blocks_lift(vec![stream, vec![vstore(0x2000, 256, 0)]]);
        let r = check_races(&lift, &arch);
        assert!(!r.fired(RuleId::RaceWriteOverlap), "{r:?}");
    }
}
