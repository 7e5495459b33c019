//! # lsv-obs — profile exporters for the region profiler
//!
//! [`lsv_vengine::RegionProfile`] is the raw per-region accounting the
//! simulated core produces (see `lsv-vengine/src/profile.rs`). This crate
//! turns one into the three artifacts the observability workflow consumes:
//!
//! * [`perfetto_trace_json`] — a Chrome-trace/Perfetto JSON document of the
//!   recorded region spans (load it at <https://ui.perfetto.dev>). One trace
//!   microsecond corresponds to one simulated cycle.
//! * [`folded_stacks`] — folded flamegraph text (`root;fwd;inner 1234`, one
//!   line per region path weighted by *self* cycles), the input format of
//!   `flamegraph.pl` / `inferno-flamegraph`.
//! * [`profile_report_json`] — the machine-readable `profile.json`: the full
//!   per-region table (cycles, stall breakdown, instruction mix, per-level
//!   cache counters, MPKI) plus a cycle-reconciliation record and a roofline
//!   summary. Its shape is pinned by the checked-in JSON schema
//!   ([`PROFILE_SCHEMA`], `schemas/profile.schema.json`) and
//!   [`validate_profile_json`] checks a document against it — CI runs that
//!   validation as a hard gate.
//!
//! The crate is dependency-light on purpose: everything is hand-emitted JSON
//! over the profiler's public types, and [`json`] is a minimal parser plus
//! the schema-subset validator the gate needs (the build environment has no
//! registry access, so no serde).

pub mod folded;
pub mod json;
pub mod metrics;
pub mod report;
pub mod timeline;

pub use folded::folded_stacks;
pub use json::{parse_json, validate_schema, JsonValue};
pub use metrics::{registry, HistogramSummary, MetricsRegistry};
pub use report::{
    profile_report_json, validate_lint_json, validate_metrics_json, validate_profile_json,
    validate_serving_json, validate_serving_trace_json, ProfileMeta, LINT_SCHEMA, METRICS_SCHEMA,
    PROFILE_SCHEMA, SERVING_SCHEMA, SERVING_TRACE_SCHEMA,
};
pub use timeline::{perfetto_trace_json, TimelineBuilder};

/// Escape a string for inclusion in a JSON document (without the quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number. Non-finite values become `null` —
/// JSON has no NaN/Inf literal, and clamping them to `0` would let an
/// undefined percentile masquerade as a real measurement in a committed
/// artifact. Schemas permit the fields where this can occur via
/// `"type": ["number", "null"]`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integral floats without a dot; keep them numbers anyway
        // (valid JSON either way) but normalize -0.
        if s == "-0" {
            "0".to_string()
        } else {
            s
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn f64_formatting_is_json_safe() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(-0.0), "0");
        assert_eq!(json_f64(3.0), "3");
    }

    #[test]
    fn non_finite_f64_becomes_null_not_zero() {
        // A NaN percentile must never masquerade as a real zero in a
        // committed artifact; `null` is the schema-permitted spelling.
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }
}
