//! Tier-1 conservation gate for the serving trace: the span tree rendered
//! into `serving_trace.json` must reconcile **bit-for-bit** with the queue
//! simulator's `RequestRecord` timestamps, the per-dispatch layer breakdown
//! must tile each service span exactly, and the metrics registry must agree
//! with the raw counters it was fed — on a synthetic model small enough for
//! a debug build, for a direct engine and the vednn baseline alike.

use lsv_arch::presets::sx_aurora;
use lsv_conv::{Algorithm, ConvProblem, ExecutionMode, LayerSpec, ModelPlan, Pass};
use lsv_serve::{
    cell_outcome, collect_plans, perfetto_trace_json, run_timeseries, serving_trace_json,
    ArrivalShape, BatchPolicy, LatencyTable, Reconciliation, ServeEngine, SweepConfig, TraceMeta,
};

const MAX_BATCH: usize = 3;

fn specs(batch: usize) -> Vec<LayerSpec> {
    vec![
        LayerSpec::new(ConvProblem::new(batch, 32, 32, 10, 10, 3, 3, 1, 1), 2),
        LayerSpec::new(ConvProblem::new(batch, 64, 16, 8, 8, 1, 1, 1, 0), 1),
    ]
}

const BDC: ServeEngine = ServeEngine::Fixed(Algorithm::Bdc);

/// The per-layer breakdown for one batch size — the exact plan the latency
/// table below uses, so the trace's plans are bit-identical to the service
/// times by construction.
fn plan_for(engine: ServeEngine, batch: usize) -> ModelPlan {
    engine.plan(
        &sx_aurora(),
        specs(batch),
        Pass::Inference,
        ExecutionMode::TimingOnly,
    )
}

fn tiny_table(engine: ServeEngine) -> LatencyTable {
    LatencyTable {
        engines: vec![engine],
        max_batch: MAX_BATCH,
        ms: vec![(1..=MAX_BATCH)
            .map(|b| plan_for(engine, b).total_time_ms())
            .collect()],
    }
}

fn tiny_cfg(slo_ms: f64) -> SweepConfig {
    SweepConfig {
        shapes: vec![ArrivalShape::Poisson],
        policies: vec![BatchPolicy::Adaptive {
            max_batch: MAX_BATCH,
        }],
        utilizations: vec![0.9],
        requests: 60,
        seed: 7,
        slo_ms,
    }
}

fn meta(engine: ServeEngine, offered_rps: f64, slo_ms: f64) -> TraceMeta {
    TraceMeta {
        arch: "sx-aurora".to_string(),
        model: "synthetic-2layer".to_string(),
        pass: "infer".to_string(),
        engine: engine.name().to_string(),
        arrival: "poisson",
        policy: BatchPolicy::Adaptive {
            max_batch: MAX_BATCH,
        }
        .name(),
        utilization: 0.9,
        offered_rps,
        seed: 7,
        slo_ms,
        max_batch: MAX_BATCH,
    }
}

/// Trace one adaptive cell of `engine`'s tiny table and check every
/// bit-identity; returns the rendered `serving_trace.json`.
fn traced_cell_reconciles_exactly(engine: ServeEngine) -> String {
    let table = tiny_table(engine);
    let slo_ms = 2.0 * table.best(MAX_BATCH).1;
    let cfg = tiny_cfg(slo_ms);
    let (offered_rps, outcome) = cell_outcome(&cfg, &table, 0, 0, cfg.policies[0], 0);
    assert_eq!(outcome.records.len(), cfg.requests);

    let plans = collect_plans(&outcome, &|b| plan_for(engine, b));
    assert!(
        !plans.is_empty(),
        "adaptive at 0.9 utilization dispatches at least one batch size"
    );
    let recon = Reconciliation::compute(&outcome, &plans);
    assert!(
        recon.exact,
        "span tree must reconcile bit-for-bit: {recon:?}"
    );
    assert_eq!(recon.requests, cfg.requests);
    assert_eq!(recon.batches, outcome.dispatches.len());
    // The layer breakdown tiles the service spans exactly (same-order sums).
    assert_eq!(recon.layer_sum_ms.to_bits(), recon.service_sum_ms.to_bits());

    let m = meta(engine, offered_rps, slo_ms);
    let doc = serving_trace_json(&m, &outcome, &plans, &recon);
    lsv_obs::validate_serving_trace_json(&doc).expect("serving_trace.json is schema-valid");

    // Determinism: a fixed outcome renders byte-identically — the property
    // the CI cold/warm byte-compare rests on.
    let again = serving_trace_json(&m, &outcome, &plans, &recon);
    assert_eq!(doc, again);
    let p1 = perfetto_trace_json(&m, &outcome, &plans);
    let p2 = perfetto_trace_json(&m, &outcome, &plans);
    assert_eq!(p1, p2);
    lsv_obs::parse_json(&p1).expect("perfetto timeline is valid JSON");
    doc
}

#[test]
fn trace_reconciles_bit_exactly_and_validates() {
    let doc = traced_cell_reconciles_exactly(BDC);
    assert!(doc.contains("\"algorithm\": \"BDC\""));
}

#[test]
fn vednn_traces_carry_layer_plans_and_reconcile_exactly() {
    let doc = traced_cell_reconciles_exactly(ServeEngine::Vednn);
    assert!(doc.contains("\"algorithm\": \"vednn\""));
    assert!(!doc.contains("null"), "every number is present");
}

#[test]
fn registry_totals_agree_with_the_raw_counters() {
    let table = tiny_table(BDC);
    let slo_ms = 2.0 * table.best(MAX_BATCH).1;
    let cfg = tiny_cfg(slo_ms);
    let (_, outcome) = cell_outcome(&cfg, &table, 0, 0, cfg.policies[0], 0);
    let plans = collect_plans(&outcome, &|b| plan_for(BDC, b));

    let reg = lsv_obs::MetricsRegistry::new();
    outcome.publish_metrics(&reg);
    for (_, p) in &plans {
        p.publish_metrics(&reg);
    }
    let doc = reg.to_json("trace-reconcile-test");
    lsv_obs::validate_metrics_json(&doc).expect("registry document is schema-valid");

    let counter = |name: &str| -> u64 {
        let parsed = lsv_obs::parse_json(&doc).unwrap();
        let Some(lsv_obs::JsonValue::Arr(cs)) = parsed.get("counters") else {
            panic!("counters array")
        };
        cs.iter()
            .find(|c| matches!(c.get("name"), Some(lsv_obs::JsonValue::Str(n)) if n == name))
            .and_then(|c| c.get("value"))
            .map(|v| match v {
                lsv_obs::JsonValue::Num(x) => *x as u64,
                _ => panic!("numeric counter"),
            })
            .unwrap_or(0)
    };
    assert_eq!(counter("queue.requests"), cfg.requests as u64);
    assert_eq!(counter("queue.dispatches"), outcome.dispatches.len() as u64);
    // Per-reason dispatch counters partition the dispatch count.
    let by_reason: u64 = ["full", "timeout", "adaptive", "drain"]
        .iter()
        .map(|r| counter(&format!("queue.dispatch.{r}")))
        .sum();
    assert_eq!(by_reason, outcome.dispatches.len() as u64);
    // Runner counters total exactly what the plans carried.
    let hits: u64 = plans.iter().map(|(_, p)| p.store_hits).sum();
    let sim: u64 = plans.iter().map(|(_, p)| p.simulated).sum();
    assert_eq!(counter("runner.plans"), plans.len() as u64);
    assert_eq!(counter("runner.store_hits"), hits);
    assert_eq!(counter("runner.simulated"), sim);
}

#[test]
fn timeseries_csv_is_deterministic() {
    let table = tiny_table(BDC);
    let slo_ms = 2.0 * table.best(MAX_BATCH).1;
    let cfg = tiny_cfg(slo_ms);
    let (s1, csv1) = run_timeseries(&cfg, &table, 0);
    let (s2, csv2) = run_timeseries(&cfg, &table, 0);
    assert_eq!(
        csv1, csv2,
        "warm replay must reproduce the CSV byte-for-byte"
    );
    assert_eq!(s1.cells.len(), 1);
    assert_eq!(
        s1.cells[0].summary.peak_queue_depth,
        s2.cells[0].summary.peak_queue_depth
    );
    let lines: Vec<&str> = csv1.lines().collect();
    assert_eq!(lines[0], lsv_serve::timeseries_csv_header());
    assert_eq!(lines.len(), 1 + lsv_serve::SAMPLES_PER_CELL);
}
