//! The serving load sweep (beyond the paper).

use super::{Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::{Algorithm, ExecutionMode, Pass};
use lsv_models::ResNetModel;
use lsv_serve::{
    best_by_load, csv_header, csv_row, run_sweep, run_timeseries, serving_json, ArrivalShape,
    BatchPolicy, LatencyTable, ServeEngine, SweepConfig, SweepMeta,
};
use std::fmt::Write as _;

/// (arrival shape x offered load x batching policy x engine) over
/// ResNet-50 inference on the simulated chip, 3000 requests per cell
/// (200 under `--smoke`), arrival seed 42. Writes `serving.csv`,
/// `BENCH_serving.json` (schema-validated) and `serving_timeseries.csv`:
/// the sampled queue-depth / occupancy / rolling-p99 / SLO-burn series for
/// every (arrival, load, policy) cell on the fixed-BDC engine, summarized
/// per cell in the JSON's `timeseries` section.
///
/// Every service time comes from the `ModelRunner` / vednn latency tables
/// through the layer store: a warm store replays the whole sweep without
/// simulating a single slice (the queue simulation itself is host-side
/// arithmetic on the simulated clock).
pub fn bench_serving(ctx: &Ctx) -> Outcome {
    let smoke = ctx.smoke;
    let (model, pass) = (ResNetModel::R50, Pass::Inference);
    let arch = sx_aurora();
    let max_batch = if smoke { 4 } else { 16 };
    let engines: Vec<ServeEngine> = if smoke {
        vec![ServeEngine::Fixed(Algorithm::Bdc)]
    } else {
        vec![
            ServeEngine::Vednn,
            ServeEngine::Fixed(Algorithm::Bdc),
            ServeEngine::Tuned,
        ]
    };

    eprintln!(
        "building latency tables: {} {} on {}, batches 1..={max_batch}, {} engine(s)...",
        model.name(),
        pass.name(),
        arch.name,
        engines.len()
    );
    let table = LatencyTable::build(
        &arch,
        model,
        pass,
        &engines,
        max_batch,
        ExecutionMode::TimingOnly,
    );
    for (ei, e) in table.engines.iter().enumerate() {
        eprintln!(
            "  {:>6}: b1 {:.2} ms .. b{max_batch} {:.2} ms",
            e.name(),
            table.latency_ms(ei, 1),
            table.latency_ms(ei, max_batch)
        );
    }

    // SLO: twice the fastest engine's full-batch service time — generous
    // enough that a well-batched server meets it, tight enough that queueing
    // pathologies (idle waiting at low load, saturation at high load) fail
    // it. Derived from simulated latencies only, so the artifact stays
    // deterministic.
    let slo_ms = 2.0 * table.best(max_batch).1;
    let timeout_ms = slo_ms / 4.0;
    let cfg = SweepConfig {
        shapes: if smoke {
            vec![ArrivalShape::Poisson]
        } else {
            vec![
                ArrivalShape::Poisson,
                ArrivalShape::Bursty {
                    burst: 4.0,
                    period_ms: 8.0 * slo_ms,
                },
            ]
        },
        policies: vec![
            BatchPolicy::Adaptive { max_batch },
            BatchPolicy::Fixed { batch: max_batch },
            BatchPolicy::Timeout {
                max_batch,
                timeout_ms,
            },
        ],
        utilizations: if smoke {
            vec![0.3, 0.9]
        } else {
            vec![0.15, 0.4, 0.7, 0.9, 1.1]
        },
        requests: if smoke { 200 } else { 3000 },
        seed: 42,
        slo_ms,
    };

    let rows = run_sweep(&cfg, &table);
    let best = best_by_load(&rows);
    for b in &best {
        eprintln!(
            "best @ {} {:.0} rps: {} + {}",
            b.arrival, b.offered_rps, b.policy, b.engine
        );
    }

    // Time-series telemetry rides on one engine: the fixed BDC engine (it
    // is in every engine list, smoke and full).
    let ts_engine = table
        .engines
        .iter()
        .position(|e| matches!(e, ServeEngine::Fixed(Algorithm::Bdc)))
        .unwrap_or(0);
    let (ts, ts_csv) = run_timeseries(&cfg, &table, ts_engine);

    let mut csv = format!("{}\n", csv_header());
    for r in &rows {
        writeln!(csv, "{}", csv_row(r, cfg.requests, cfg.slo_ms))?;
    }
    let meta = SweepMeta {
        arch: arch.name.clone(),
        model: model.name().to_string(),
        pass: pass.name().to_string(),
        mode: "timing-only".to_string(),
        max_batch,
    };
    let json = serving_json(&meta, &cfg, &table, &rows, &best, &ts);
    Ok(vec![csv, json, ts_csv])
}
