//! Negative-case suite for the schema validators: mutated and truncated
//! `serving_trace.json`, `metrics.json` and `BENCH_serving.json` documents
//! must be rejected with a *pointed* error (naming the violating path), not
//! pass silently. The positive fixtures here are minimal conforming
//! documents; every mutation flips exactly one thing.

use lsv_obs::{validate_metrics_json, validate_serving_json, validate_serving_trace_json};

const METRICS_GOOD: &str = r#"{
  "version": 1,
  "tool": "layer-store",
  "counters": [
    {"name": "store.mem_hits", "value": 12},
    {"name": "store.misses", "value": 3}
  ],
  "gauges": [
    {"name": "store.disk_bytes", "value": 4096}
  ],
  "histograms": [
    {"name": "queue.wait_ms", "count": 2, "sum": 3.5, "min": 1.0, "max": 2.5}
  ]
}"#;

const TRACE_GOOD: &str = r#"{
  "version": 1,
  "tool": "lsvconv serve",
  "meta": {
    "arch": "sx-aurora", "model": "resnet-50", "pass": "infer",
    "engine": "BDC", "arrival": "poisson", "policy": "adaptive4",
    "utilization": 0.9, "offered_rps": 120.5, "seed": 42,
    "slo_ms": 60.0, "max_batch": 4
  },
  "reconciliation": {
    "requests": 2, "batches": 1, "wait_sum_ms": 1.5, "ride_sum_ms": 20.0,
    "service_sum_ms": 10.0, "layer_sum_ms": 10.0, "exact": true
  },
  "requests": [
    {"id": 0, "arrival_ms": 0.0, "dispatch_ms": 1.0, "done_ms": 11.0,
     "batch": 2, "depth_at_arrival": 0, "reason": "full"},
    {"id": 1, "arrival_ms": 0.5, "dispatch_ms": 1.0, "done_ms": 11.0,
     "batch": 2, "depth_at_arrival": 1, "reason": "full"}
  ],
  "batches": [
    {"seq": 0, "at_ms": 1.0, "service_ms": 10.0, "batch": 2, "reason": "full"}
  ],
  "plans": [
    {"batch": 2, "store_hits": 19, "simulated": 0, "total_ms": 10.0,
     "layers": [
       {"layer": 0, "direction": "fwdd", "algorithm": "BDC", "count": 1,
        "time_ms": 10.0, "cycles": 16000}
     ]}
  ]
}"#;

const SERVING_GOOD: &str = r#"{
  "version": 1, "tool": "bench-serving", "arch": "sx-aurora",
  "model": "resnet-50", "pass": "infer", "mode": "timing-only",
  "seed": 42, "requests": 200, "max_batch": 8, "slo_ms": 120.5,
  "reference_capacity_rps": 150.0,
  "engines": ["BDC"], "policies": ["adaptive8"], "utilizations": [0.9],
  "rows": [
    {"arrival": "poisson", "policy": "adaptive8", "engine": "BDC",
     "offered_rps": 135.0, "utilization": 0.9, "completed": 200,
     "dispatches": 60, "mean_batch": 3.3, "p50_ms": 20.0,
     "p95_ms": 31.0, "p99_ms": 35.5, "mean_ms": 21.2,
     "throughput_rps": 133.0, "slo_attainment": 0.99}
  ],
  "best_by_load": [
    {"arrival": "poisson", "offered_rps": 135.0,
     "policy": "adaptive8", "engine": "BDC"}
  ],
  "timeseries": {
    "engine": "BDC", "samples_per_cell": 120,
    "cells": [
      {"arrival": "poisson", "policy": "adaptive8", "utilization": 0.9,
       "peak_queue_depth": 7, "mean_queue_depth": 1.9,
       "mean_utilization": 0.88, "max_slo_burn": 0.05,
       "final_p99_ms": 35.5}
    ]
  }
}"#;

/// Assert the validator rejects `text` and that the error mentions every
/// `hint` (a pointed message, not a generic failure).
fn assert_rejected(result: Result<(), String>, hints: &[&str]) {
    let err = result.expect_err("mutated document must be rejected");
    for hint in hints {
        assert!(err.contains(hint), "error not pointed enough: {err}");
    }
}

#[test]
fn good_fixtures_are_accepted() {
    validate_metrics_json(METRICS_GOOD).expect("metrics fixture");
    validate_serving_trace_json(TRACE_GOOD).expect("trace fixture");
    validate_serving_json(SERVING_GOOD).expect("serving fixture");
}

#[test]
fn metrics_mutations_are_rejected_with_pointed_errors() {
    // Counter value becomes a string.
    assert_rejected(
        validate_metrics_json(&METRICS_GOOD.replace("\"value\": 12", "\"value\": \"12\"")),
        &["$.counters[0].value", "expected type"],
    );
    // Negative counter violates the minimum.
    assert_rejected(
        validate_metrics_json(&METRICS_GOOD.replace("\"value\": 3", "\"value\": -3")),
        &["$.counters[1].value", "below minimum"],
    );
    // A required top-level section disappears.
    assert_rejected(
        validate_metrics_json(&METRICS_GOOD.replace("\"histograms\"", "\"histogram\"")),
        &["missing required member \"histograms\""],
    );
    // Histogram count must be an integer.
    assert_rejected(
        validate_metrics_json(&METRICS_GOOD.replace("\"count\": 2", "\"count\": 2.5")),
        &["$.histograms[0].count"],
    );
}

#[test]
fn trace_mutations_are_rejected_with_pointed_errors() {
    // An unknown dispatch reason is wire-format drift.
    assert_rejected(
        validate_serving_trace_json(
            &TRACE_GOOD.replace("\"reason\": \"full\"", "\"reason\": \"whim\""),
        ),
        &["reason", "not in enum"],
    );
    // Dropping the reconciliation block kills the conservation gate's input.
    assert_rejected(
        validate_serving_trace_json(&TRACE_GOOD.replace("\"reconciliation\"", "\"reconciled\"")),
        &["missing required member \"reconciliation\""],
    );
    // A request id cannot be negative.
    assert_rejected(
        validate_serving_trace_json(&TRACE_GOOD.replace("{\"id\": 0,", "{\"id\": -1,")),
        &["$.requests[0].id", "below minimum"],
    );
    // An unknown direction in a plan layer is drift.
    assert_rejected(
        validate_serving_trace_json(&TRACE_GOOD.replace("\"fwdd\"", "\"sideways\"")),
        &["$.plans[0].layers[0].direction", "not in enum"],
    );
    // `exact` must stay a boolean, not a stringly truth.
    assert_rejected(
        validate_serving_trace_json(&TRACE_GOOD.replace("\"exact\": true", "\"exact\": \"yes\"")),
        &["$.reconciliation.exact", "expected type"],
    );
    // Every engine's trace carries per-layer plans: no null layer sum.
    assert_rejected(
        validate_serving_trace_json(
            &TRACE_GOOD.replace("\"layer_sum_ms\": 10.0", "\"layer_sum_ms\": null"),
        ),
        &["$.reconciliation.layer_sum_ms", "expected type"],
    );
}

#[test]
fn serving_mutations_are_rejected_with_pointed_errors() {
    // Dropping the time-series summary is drift.
    assert_rejected(
        validate_serving_json(&SERVING_GOOD.replace("\"timeseries\"", "\"ts\"")),
        &["missing required member \"timeseries\""],
    );
    // A cell with a negative burn rate violates the minimum.
    assert_rejected(
        validate_serving_json(
            &SERVING_GOOD.replace("\"max_slo_burn\": 0.05", "\"max_slo_burn\": -0.05"),
        ),
        &["$.timeseries.cells[0].max_slo_burn", "below minimum"],
    );
    // peak_queue_depth must be an integer.
    assert_rejected(
        validate_serving_json(
            &SERVING_GOOD.replace("\"peak_queue_depth\": 7", "\"peak_queue_depth\": 7.2"),
        ),
        &["$.timeseries.cells[0].peak_queue_depth"],
    );
}

#[test]
fn truncated_documents_are_parse_errors_not_passes() {
    for cut in [10, 50, 200] {
        let truncated = &TRACE_GOOD[..cut.min(TRACE_GOOD.len() - 1)];
        assert!(
            validate_serving_trace_json(truncated).is_err(),
            "truncated at {cut} must fail"
        );
    }
    let half = &METRICS_GOOD[..METRICS_GOOD.len() / 2];
    assert_rejected(validate_metrics_json(half), &["not valid JSON"]);
    let half = &SERVING_GOOD[..SERVING_GOOD.len() / 2];
    assert_rejected(validate_serving_json(half), &["not valid JSON"]);
}
