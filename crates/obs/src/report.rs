//! The machine-readable `profile.json` report.
//!
//! One self-contained document per profiled run: run metadata, whole-run
//! totals, the per-region table (self/inclusive cycles, stall breakdown,
//! instruction mix, per-level cache counters, MPKI), an explicit
//! cycle-reconciliation record, and a roofline summary. The shape is pinned
//! by `schemas/profile.schema.json` ([`PROFILE_SCHEMA`]) and CI validates
//! every emitted document against it via [`validate_profile_json`].

use crate::{escape_json, json_f64, parse_json, validate_schema};
use lsv_cache::{HierarchyStats, LevelStats};
use lsv_vengine::{InstCounters, RegionProfile};

/// The checked-in JSON schema `profile.json` must conform to.
pub const PROFILE_SCHEMA: &str = include_str!("../schemas/profile.schema.json");

/// The checked-in JSON schema `results/lint.json` (emitted by the
/// `lint-kernels` experiment) must conform to. The rule and severity enums pin
/// the diagnostics wire format: adding a lint rule without extending the
/// schema fails the gate, which is the point.
pub const LINT_SCHEMA: &str = include_str!("../schemas/lint.schema.json");

/// The checked-in JSON schema `results/BENCH_serving.json` (emitted by the
/// `bench-serving` experiment and `lsvconv serve`) must conform to. The arrival
/// and pass enums pin the serving sweep's wire format.
pub const SERVING_SCHEMA: &str = include_str!("../schemas/serving.schema.json");

/// The checked-in JSON schema every [`crate::MetricsRegistry`] document
/// (`metrics.json`, the per-bin `*.store.json` dumps) must conform to —
/// one wire format for every metrics publisher.
pub const METRICS_SCHEMA: &str = include_str!("../schemas/metrics.schema.json");

/// The checked-in JSON schema `serving_trace.json` (emitted by
/// `lsvconv serve --trace`) must conform to. The dispatch-reason and
/// direction enums pin the trace wire format.
pub const SERVING_TRACE_SCHEMA: &str = include_str!("../schemas/serving_trace.schema.json");

/// Run metadata and machine constants the report embeds; everything the
/// exporter cannot read off the [`RegionProfile`] itself.
#[derive(Debug, Clone)]
pub struct ProfileMeta {
    /// Human label for the run, e.g. `"conv3_4 fwdd bdc"`.
    pub label: String,
    /// Architecture preset name.
    pub arch: String,
    /// Pass direction (`fwdd` / `bwdd` / `bwdw`).
    pub direction: String,
    /// Algorithm/engine name.
    pub algorithm: String,
    /// Core frequency in GHz (cycle → time conversion).
    pub freq_ghz: f64,
    /// Useful FLOPs performed by the *profiled slice* (2 per FMA element).
    pub flops: u64,
    /// Peak FLOPs per cycle of one core (roofline ceiling).
    pub peak_flops_per_cycle: f64,
    /// Cache line size in bytes (memory traffic = `mem_fetches × line`).
    pub line_bytes: u64,
    /// Sustained memory bytes per cycle per core (roofline slope).
    pub mem_bytes_per_cycle: f64,
}

fn level_json(l: &LevelStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"conflict_misses\":{},\"writebacks\":{}}}",
        l.hits, l.misses, l.conflict_misses, l.writebacks
    )
}

fn cache_json(c: &HierarchyStats) -> String {
    format!(
        "{{\"l1\":{},\"l2\":{},\"llc\":{},\"mem_fetches\":{}}}",
        level_json(&c.l1),
        level_json(&c.l2),
        level_json(&c.llc),
        c.mem_fetches
    )
}

fn insts_json(i: &InstCounters) -> String {
    format!(
        "{{\"scalar_loads\":{},\"scalar_ops\":{},\"vloads\":{},\"vstores\":{},\
         \"vfmas\":{},\"gathers\":{},\"scatters\":{},\"fma_elems\":{}}}",
        i.scalar_loads,
        i.scalar_ops,
        i.vloads,
        i.vstores,
        i.vfmas,
        i.gathers,
        i.scatters,
        i.fma_elems
    )
}

fn stalls_json(breakdown: &[(&'static str, u64); 4]) -> String {
    let parts: Vec<String> = breakdown
        .iter()
        .map(|(label, cycles)| format!("\"{label}\":{cycles}"))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Emit the `profile.json` document. Deterministic byte-for-byte for a given
/// (profile, meta) — golden tests rely on that.
pub fn profile_report_json(profile: &RegionProfile, meta: &ProfileMeta) -> String {
    let total = &profile.total;
    let mut out = String::with_capacity(2048 + profile.regions.len() * 512);

    out.push_str("{\n\"version\":1,\n");
    out.push_str(&format!(
        "\"meta\":{{\"label\":\"{}\",\"arch\":\"{}\",\"direction\":\"{}\",\
         \"algorithm\":\"{}\",\"freq_ghz\":{}}},\n",
        escape_json(&meta.label),
        escape_json(&meta.arch),
        escape_json(&meta.direction),
        escape_json(&meta.algorithm),
        json_f64(meta.freq_ghz)
    ));

    let total_insts = total.insts.total();
    out.push_str(&format!(
        "\"total\":{{\"cycles\":{},\"instructions\":{},\"stalls\":{},\"insts\":{},\
         \"cache\":{},\"mpki_l1\":{}}},\n",
        total.cycles,
        total_insts,
        stalls_json(&total.stall_breakdown()),
        insts_json(&total.insts),
        cache_json(&total.cache),
        json_f64(total.cache.l1.mpki(total_insts))
    ));

    out.push_str("\"regions\":[\n");
    for (id, (path, stats)) in profile.paths.iter().zip(&profile.regions).enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = match path.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"path\":\"{}\",\"parent\":{},\"depth\":{},\
             \"enters\":{},\"self_cycles\":{},\"inclusive_cycles\":{},\"instructions\":{},\
             \"mpki_l1\":{},\"stalls\":{},\"insts\":{},\"cache\":{}}}",
            id,
            escape_json(path.name),
            escape_json(&profile.full_name(id as u32)),
            parent,
            path.depth,
            stats.enters,
            stats.cycles,
            profile.inclusive_cycles(id as u32),
            stats.insts.total(),
            json_f64(stats.mpki_l1()),
            stalls_json(&stats.stall_breakdown()),
            insts_json(&stats.insts),
            cache_json(&stats.cache)
        ));
    }
    out.push_str("\n],\n");

    let self_sum = profile.self_cycles_total();
    out.push_str(&format!(
        "\"reconciliation\":{{\"self_cycles_sum\":{},\"total_cycles\":{},\"exact\":{}}},\n",
        self_sum,
        total.cycles,
        self_sum == total.cycles
    ));

    // Roofline: attained FLOPs/cycle against the compute ceiling and the
    // memory slope. The ridge point is the arithmetic intensity where the
    // two bounds meet; below it the kernel is memory-bound.
    let cycles = total.cycles.max(1);
    let flops_per_cycle = meta.flops as f64 / cycles as f64;
    let mem_bytes = total.cache.mem_fetches * meta.line_bytes;
    let intensity = if mem_bytes == 0 {
        f64::INFINITY
    } else {
        meta.flops as f64 / mem_bytes as f64
    };
    let ridge = if meta.mem_bytes_per_cycle > 0.0 {
        meta.peak_flops_per_cycle / meta.mem_bytes_per_cycle
    } else {
        0.0
    };
    let memory_bound = intensity < ridge;
    out.push_str(&format!(
        "\"roofline\":{{\"flops\":{},\"cycles\":{},\"flops_per_cycle\":{},\
         \"peak_flops_per_cycle\":{},\"efficiency\":{},\"mem_bytes\":{},\
         \"arithmetic_intensity\":{},\"ridge_intensity\":{},\"memory_bound\":{}}},\n",
        meta.flops,
        total.cycles,
        json_f64(flops_per_cycle),
        json_f64(meta.peak_flops_per_cycle),
        json_f64(flops_per_cycle / meta.peak_flops_per_cycle.max(f64::MIN_POSITIVE)),
        mem_bytes,
        json_f64(if intensity.is_finite() {
            intensity
        } else {
            0.0
        }),
        json_f64(ridge),
        memory_bound
    ));

    out.push_str(&format!(
        "\"spans\":{},\n\"dropped_spans\":{}\n}}",
        profile.spans.len(),
        profile.dropped_spans
    ));
    out
}

/// Validate the document `text` (named `doc_name` in errors) against a
/// checked-in schema. Returns a single aggregated error message on
/// failure; CI treats any `Err` as a hard failure.
fn validate_against(
    schema: &str,
    schema_name: &str,
    doc_name: &str,
    text: &str,
) -> Result<(), String> {
    let schema = parse_json(schema)
        .map_err(|e| format!("internal error: {schema_name} unparseable: {e}"))?;
    let doc = parse_json(text).map_err(|e| format!("{doc_name} is not valid JSON: {e}"))?;
    validate_schema(&doc, &schema).map_err(|errors| {
        format!(
            "{doc_name} violates schema ({} error(s)):\n  {}",
            errors.len(),
            errors.join("\n  ")
        )
    })
}

/// Parse a `profile.json` document and validate it against
/// [`PROFILE_SCHEMA`].
pub fn validate_profile_json(text: &str) -> Result<(), String> {
    validate_against(PROFILE_SCHEMA, "profile.schema.json", "profile.json", text)
}

/// Parse a `lint.json` document and validate it against [`LINT_SCHEMA`].
/// The artifact writer validates `lint.json` through this before writing,
/// so schema drift fails the run that introduced it.
pub fn validate_lint_json(text: &str) -> Result<(), String> {
    validate_against(LINT_SCHEMA, "lint.schema.json", "lint.json", text)
}

/// Parse a `BENCH_serving.json` document and validate it against
/// [`SERVING_SCHEMA`]. The artifact writer validates `BENCH_serving.json`
/// through this before writing, so schema drift fails the run that
/// introduced it.
pub fn validate_serving_json(text: &str) -> Result<(), String> {
    validate_against(
        SERVING_SCHEMA,
        "serving.schema.json",
        "BENCH_serving.json",
        text,
    )
}

/// Parse a metrics-registry document (`metrics.json`, `*.store.json`) and
/// validate it against [`METRICS_SCHEMA`].
pub fn validate_metrics_json(text: &str) -> Result<(), String> {
    validate_against(METRICS_SCHEMA, "metrics.schema.json", "metrics.json", text)
}

/// Parse a `serving_trace.json` document and validate it against
/// [`SERVING_TRACE_SCHEMA`]. The artifact writer validates
/// `lsvconv serve --trace`'s output through this before writing, so schema
/// drift fails the run that introduced it.
pub fn validate_serving_trace_json(text: &str) -> Result<(), String> {
    validate_against(
        SERVING_TRACE_SCHEMA,
        "serving_trace.schema.json",
        "serving_trace.json",
        text,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_vengine::{ExecutionMode, VCore};

    fn sample() -> (RegionProfile, ProfileMeta) {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
        core.enable_profiler();
        core.region_enter("fwd");
        core.scalar_ops(5);
        core.region_enter("inner_loop");
        for reg in 0..4 {
            core.vbroadcast_zero(reg, 256);
        }
        core.region_exit();
        core.region_exit();
        let profile = core.take_profile().unwrap();
        let meta = ProfileMeta {
            label: "unit test".to_string(),
            arch: arch.name.clone(),
            direction: "fwdd".to_string(),
            algorithm: "bdc".to_string(),
            freq_ghz: arch.freq_ghz,
            flops: 1000,
            peak_flops_per_cycle: arch.peak_flops_per_cycle(),
            line_bytes: arch.l1d.line as u64,
            mem_bytes_per_cycle: arch.l1d.line as f64 / arch.mem_line_cycles.max(1) as f64,
        };
        (profile, meta)
    }

    #[test]
    fn report_is_schema_valid_and_reconciles() {
        let (profile, meta) = sample();
        let text = profile_report_json(&profile, &meta);
        validate_profile_json(&text).expect("schema-valid");

        let doc = parse_json(&text).unwrap();
        let rec = doc.get("reconciliation").unwrap();
        assert_eq!(rec.get("exact"), Some(&crate::JsonValue::Bool(true)));
        let total = doc.get("total").unwrap();
        assert_eq!(
            total.get("cycles"),
            Some(&crate::JsonValue::Num(profile.total.cycles as f64))
        );
    }

    #[test]
    fn validator_rejects_mutilated_documents() {
        let (profile, meta) = sample();
        let text = profile_report_json(&profile, &meta);
        let broken = text.replace("\"version\":1", "\"version\":\"one\"");
        assert!(validate_profile_json(&broken).is_err());
        let missing = text.replace("\"reconciliation\"", "\"reconciliatoin\"");
        assert!(validate_profile_json(&missing).is_err());
    }

    #[test]
    fn lint_schema_accepts_entries_and_catches_drift() {
        let good = r#"[
          {"layer": 0, "problem": "8x64x64x28x28 k3 s1 p1", "direction": "fwdd",
           "algorithm": "DC", "vlen_bits": 16384,
           "deny": 0, "warn": 1, "note": 0,
           "diagnostics": [
             {"rule": "DEAD-WRITE", "severity": "warn", "message": "x"}
           ]}
        ]"#;
        validate_lint_json(good).expect("schema-valid");

        // An unknown rule string is drift: the enum pins the wire format.
        let drifted = good.replace("DEAD-WRITE", "DEAD-WRITES");
        assert!(validate_lint_json(&drifted).is_err());
        // Dropping a required member is drift too.
        let missing = good.replace("\"vlen_bits\": 16384,", "");
        assert!(validate_lint_json(&missing).is_err());
        assert!(validate_lint_json("[{]").is_err());
    }

    #[test]
    fn serving_schema_accepts_documents_and_catches_drift() {
        let good = r#"{
          "version": 1, "tool": "bench-serving", "arch": "sx-aurora",
          "model": "resnet-50", "pass": "infer", "mode": "timing-only",
          "seed": 42, "requests": 200, "max_batch": 8, "slo_ms": 120.5,
          "reference_capacity_rps": 150.0,
          "engines": ["BDC", "vednn"], "policies": ["adaptive8", "fixed8"],
          "utilizations": [0.25, 0.9],
          "rows": [
            {"arrival": "poisson", "policy": "adaptive8", "engine": "BDC",
             "offered_rps": 37.5, "utilization": 0.25, "completed": 200,
             "dispatches": 180, "mean_batch": 1.11, "p50_ms": 20.0,
             "p95_ms": 31.0, "p99_ms": 35.5, "mean_ms": 21.2,
             "throughput_rps": 37.1, "slo_attainment": 1.0}
          ],
          "best_by_load": [
            {"arrival": "poisson", "offered_rps": 37.5,
             "policy": "adaptive8", "engine": "BDC"}
          ],
          "timeseries": {
            "engine": "BDC", "samples_per_cell": 120,
            "cells": [
              {"arrival": "poisson", "policy": "adaptive8", "utilization": 0.25,
               "peak_queue_depth": 3, "mean_queue_depth": 0.4,
               "mean_utilization": 0.31, "max_slo_burn": 0.0,
               "final_p99_ms": 35.5}
            ]
          }
        }"#;
        validate_serving_json(good).expect("schema-valid");

        // An unknown arrival process is drift: the enum pins the wire format.
        let drifted = good.replace("\"poisson\"", "\"uniform\"");
        assert!(validate_serving_json(&drifted).is_err());
        // Dropping a required member is drift too.
        let missing = good.replace("\"slo_ms\": 120.5,", "");
        assert!(validate_serving_json(&missing).is_err());
        // A negative percentile violates the minimum.
        let negative = good.replace("\"p99_ms\": 35.5", "\"p99_ms\": -1.0");
        assert!(validate_serving_json(&negative).is_err());
        // The time-series summary is required, and an undefined rolling p99
        // is spelled null (never a fake zero — the json_f64 contract).
        let no_ts = good.replace("\"timeseries\"", "\"timeserie\"");
        assert!(validate_serving_json(&no_ts).is_err());
        let null_p99 = good.replace("\"final_p99_ms\": 35.5", "\"final_p99_ms\": null");
        validate_serving_json(&null_p99).expect("null p99 is schema-permitted");
        assert!(validate_serving_json("{]").is_err());
    }

    #[test]
    fn stall_keys_come_from_the_shared_labels() {
        let (profile, meta) = sample();
        let text = profile_report_json(&profile, &meta);
        for label in lsv_vengine::STALL_LABELS {
            assert!(text.contains(&format!("\"{label}\":")), "missing {label}");
        }
    }
}
