//! The one Chrome-trace/Perfetto emitter: a multi-track timeline builder.
//!
//! [`TimelineBuilder`] emits the Chrome Trace Event JSON object format
//! (`"ph": "M"` metadata, `"ph": "X"` complete spans, `"ph": "C"` counters)
//! that both `chrome://tracing` and <https://ui.perfetto.dev> load directly.
//! Its users: [`perfetto_trace_json`] (one core's region spans on a single
//! track), the serving-plane trace (a server track with batch spans, one
//! lane per concurrent request, counter tracks for queue depth and batch
//! occupancy) and the benchmark's host-time trace.
//!
//! Timestamps are caller-defined `f64`s in whatever unit the caller uses
//! (region profiles use **one trace microsecond per simulated cycle**, the
//! serving trace one per simulated millisecond); the builder passes them
//! through [`crate::json_f64`] untouched — no scaling, no rounding.

use crate::{escape_json, json_f64};
use lsv_vengine::RegionProfile;

/// Incremental builder for a multi-track trace document. Events are emitted
/// in call order, so a fixed build sequence yields byte-identical documents.
pub struct TimelineBuilder {
    events: Vec<String>,
    spans: usize,
}

impl TimelineBuilder {
    /// An empty timeline.
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            spans: 0,
        }
    }

    /// Name the process `pid` (one `"ph": "M"` process_name record).
    pub fn process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Name the track `(pid, tid)` (one `"ph": "M"` thread_name record).
    pub fn track(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// One complete (`"ph": "X"`) span on track `(pid, tid)`. `args` is a
    /// list of pre-rendered `(key, json_value)` pairs (values must already
    /// be valid JSON fragments — quoted strings, numbers, ...).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        pid: u32,
        tid: u32,
        cat: &str,
        name: &str,
        ts: f64,
        dur: f64,
        args: &[(&str, String)],
    ) {
        let rendered: Vec<String> = args
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape_json(k)))
            .collect();
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            escape_json(cat),
            escape_json(name),
            json_f64(ts),
            json_f64(dur),
            rendered.join(",")
        ));
        self.spans += 1;
    }

    /// One counter (`"ph": "C"`) sample: the named counter track of `pid`
    /// takes `value` at `ts`.
    pub fn counter(&mut self, pid: u32, name: &str, ts: f64, value: f64) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"name\":\"{}\",\"ts\":{},\
             \"args\":{{\"value\":{}}}}}",
            escape_json(name),
            json_f64(ts),
            json_f64(value)
        ));
    }

    /// Spans emitted so far.
    pub fn span_count(&self) -> usize {
        self.spans
    }

    /// Render the finished document. `timebase` documents the caller's time
    /// unit in `otherData`; `other` appends extra pre-rendered
    /// `(key, json_value)` metadata pairs.
    pub fn finish(self, timebase: &str, other: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        out.push_str(&self.events.join(","));
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timebase\":\"{}\"",
            escape_json(timebase)
        ));
        for (k, v) in other {
            out.push_str(&format!(",\"{}\":{v}", escape_json(k)));
        }
        out.push_str("}}");
        out
    }
}

impl Default for TimelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Render a region profile's span log as a Chrome-trace JSON document.
///
/// The simulator has no wall clock, so one trace microsecond is one
/// simulated cycle. Every recorded span becomes one complete event on a
/// single track; nesting is reconstructed by the viewer from the
/// timestamps. The event `args` carry the full `root;...` path so
/// flamegraph-style queries work inside Perfetto.
pub fn perfetto_trace_json(profile: &RegionProfile) -> String {
    let mut tl = TimelineBuilder::new();
    tl.process(0, "lsv-vengine core");
    for span in &profile.spans {
        let path = format!("\"{}\"", escape_json(&profile.full_name(span.path)));
        tl.span(
            0,
            0,
            "region",
            profile.paths[span.path as usize].name,
            span.start as f64,
            (span.end - span.start) as f64,
            &[("path", path)],
        );
    }
    tl.finish(
        "1us = 1 cycle",
        &[
            ("total_cycles", format!("\"{}\"", profile.total.cycles)),
            ("dropped_spans", format!("\"{}\"", profile.dropped_spans)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_json, JsonValue};

    #[test]
    fn builds_a_valid_multi_track_document() {
        let mut tl = TimelineBuilder::new();
        tl.process(0, "server");
        tl.track(0, 0, "batches");
        tl.track(0, 1, "request lane 0");
        tl.span(
            0,
            0,
            "batch",
            "batch 0",
            0.0,
            5.0,
            &[("k", "2".to_string())],
        );
        tl.span(
            0,
            1,
            "request",
            "r0 wait",
            0.0,
            1.5,
            &[("id", "0".to_string()), ("why", "\"queued\"".to_string())],
        );
        tl.counter(0, "queue_depth", 0.0, 1.0);
        tl.counter(0, "queue_depth", 1.5, 0.0);
        assert_eq!(tl.span_count(), 2);
        let doc = tl.finish("1us = 1ms", &[("requests", "1".to_string())]);
        let v = parse_json(&doc).expect("valid JSON");
        let JsonValue::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), 7);
        let phases: Vec<&JsonValue> = events.iter().filter_map(|e| e.get("ph")).collect();
        assert!(phases.contains(&&JsonValue::Str("M".into())));
        assert!(phases.contains(&&JsonValue::Str("X".into())));
        assert!(phases.contains(&&JsonValue::Str("C".into())));
        let other = v.get("otherData").unwrap();
        assert_eq!(other.get("requests"), Some(&JsonValue::Num(1.0)));
    }

    #[test]
    fn profile_trace_has_one_event_per_span() {
        use lsv_arch::presets::sx_aurora;
        use lsv_vengine::{ExecutionMode, VCore};
        let mut core = VCore::new(&sx_aurora(), ExecutionMode::TimingOnly);
        core.enable_profiler();
        core.region_enter("outer");
        core.scalar_ops(4);
        core.region_enter("inner");
        core.scalar_ops(8);
        core.region_exit();
        core.region_exit();
        let profile = core.take_profile().expect("profiler enabled");
        let doc = parse_json(&perfetto_trace_json(&profile)).expect("valid JSON");
        let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        // One metadata record plus one "X" event per recorded span.
        assert_eq!(events.len(), 1 + profile.spans.len());
        assert_eq!(events[1].get("ph"), Some(&JsonValue::Str("X".into())));
        assert!(events[1].get("dur").is_some());
    }

    #[test]
    fn same_build_sequence_is_byte_identical() {
        let build = || {
            let mut tl = TimelineBuilder::new();
            tl.process(0, "p");
            tl.span(0, 0, "c", "s", 1.0, 2.0, &[]);
            tl.finish("1us = 1ms", &[])
        };
        assert_eq!(build(), build());
    }
}
