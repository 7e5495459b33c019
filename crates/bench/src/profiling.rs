//! Shared plumbing for the profiled bench paths: metadata assembly, the
//! reconciliation + schema gates, and artifact emission.
//!
//! Every consumer (`lsvconv profile`, the `--profile` flag of the
//! `table3`/`performance` experiments, CI's smoke gate) goes through
//! [`write_profile_artifacts`], so a profile that fails cycle
//! reconciliation or schema validation can never be written to disk as if
//! it were trustworthy.

use crate::artifact::{write_artifacts, Artifact};
use lsv_arch::ArchParams;
use lsv_conv::{ConvProblem, Direction};
use lsv_obs::{
    folded_stacks, perfetto_trace_json, profile_report_json, validate_profile_json, ProfileMeta,
};
use lsv_vengine::RegionProfile;
use std::io;
use std::path::{Path, PathBuf};

/// Assemble the report metadata for one profiled layer run.
pub fn profile_meta(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: &str,
    profile: &RegionProfile,
) -> ProfileMeta {
    ProfileMeta {
        label: format!("{problem} {} {algorithm}", direction.short_name()),
        arch: arch.name.clone(),
        direction: direction.short_name().to_string(),
        algorithm: algorithm.to_string(),
        freq_ghz: arch.freq_ghz,
        // Useful work actually performed by the profiled slice.
        flops: profile.total.insts.fma_elems * 2,
        peak_flops_per_cycle: arch.peak_flops_per_cycle(),
        line_bytes: arch.l1d.line as u64,
        // Streaming memory slope: one line per `mem_line_cycles`.
        mem_bytes_per_cycle: arch.l1d.line as f64 / arch.mem_line_cycles.max(1) as f64,
    }
}

/// Paths of the three artifacts one profiled run produces.
#[derive(Debug, Clone)]
pub struct ProfileArtifacts {
    /// The machine-readable report (`<stem>.json`), schema-validated.
    pub report: PathBuf,
    /// The Perfetto/Chrome trace (`<stem>.trace.json`).
    pub trace: PathBuf,
    /// The folded flamegraph stacks (`<stem>.folded`).
    pub folded: PathBuf,
}

/// Validate a profile and write its three artifacts under `dir`.
///
/// Hard gates, both fatal: the per-region accounting must reconcile exactly
/// with the whole-run counters (`PROFILE-UNRECONCILED`), and the emitted
/// report must validate against `schemas/profile.schema.json`.
pub fn write_profile_artifacts(
    dir: &Path,
    stem: &str,
    profile: &RegionProfile,
    meta: &ProfileMeta,
) -> io::Result<ProfileArtifacts> {
    let reconciliation = lsv_analyze::check_profile_reconciliation(profile, &profile.total);
    if reconciliation.has_deny() {
        let findings: Vec<String> = reconciliation
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect();
        return Err(io::Error::other(format!(
            "profile accounting does not reconcile:\n  {}",
            findings.join("\n  ")
        )));
    }

    let artifacts = ProfileArtifacts {
        report: dir.join(format!("{stem}.json")),
        trace: dir.join(format!("{stem}.trace.json")),
        folded: dir.join(format!("{stem}.folded")),
    };
    write_artifacts(&[
        Artifact {
            path: artifacts.report.clone(),
            body: profile_report_json(profile, meta),
            validate: Some(validate_profile_json),
        },
        Artifact::new(artifacts.trace.clone(), perfetto_trace_json(profile)),
        Artifact::new(artifacts.folded.clone(), folded_stacks(profile)),
    ])?;
    Ok(artifacts)
}

/// Print the human summary of a profile: totals, reconciliation status, and
/// the regions ranked by self cycles.
pub fn print_profile_summary(profile: &RegionProfile, top: usize) {
    let total = profile.total.cycles.max(1) as f64;
    println!(
        "profiled {} cycles, {} instructions, {} region paths, {} spans{}",
        profile.total.cycles,
        profile.total.insts.total(),
        profile.paths.len(),
        profile.spans.len(),
        if profile.dropped_spans > 0 {
            format!(" ({} dropped)", profile.dropped_spans)
        } else {
            String::new()
        }
    );
    let stalls = profile
        .total
        .stall_breakdown()
        .map(|(label, c)| format!("{label} {:.1}%", c as f64 / total * 100.0))
        .join(" | ");
    println!("stalls: {stalls}");
    println!(
        "reconciliation: per-region self cycles sum to {} of {} total ({})",
        profile.self_cycles_total(),
        profile.total.cycles,
        if profile.self_cycles_total() == profile.total.cycles {
            "exact"
        } else {
            "MISMATCH"
        }
    );
    println!();
    println!(
        "{:<42} {:>8} {:>14} {:>6} {:>14} {:>8}",
        "region", "enters", "self_cycles", "self%", "incl_cycles", "mpki_l1"
    );
    let mut ids: Vec<u32> = (0..profile.regions.len() as u32).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(profile.regions[id as usize].cycles));
    for &id in ids.iter().take(top) {
        let r = &profile.regions[id as usize];
        if r.cycles == 0 && r.enters == 0 {
            continue;
        }
        println!(
            "{:<42} {:>8} {:>14} {:>5.1}% {:>14} {:>8.2}",
            profile.full_name(id),
            r.enters,
            r.cycles,
            r.cycles as f64 / total * 100.0,
            profile.inclusive_cycles(id),
            r.mpki_l1()
        );
    }
}
