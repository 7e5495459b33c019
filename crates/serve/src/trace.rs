//! Request-lifecycle traces of one serving cell.
//!
//! One queue simulation ([`SimOutcome`]) becomes two artifacts:
//!
//! * **`serving_trace.json`** — the span tree in analyzable form: every
//!   request's arrival → queue wait → batch ride → completion, every batch
//!   dispatch (with its [`DispatchReason`]), and the per-batch-size
//!   [`ModelPlan`] breakdowns the batch spans link to — per-(layer,
//!   direction) time plus store-hit/simulated provenance. Validated against
//!   `serving_trace.schema.json`.
//! * **`serving_trace.perfetto.json`** — the same run as a multi-track
//!   Chrome-trace timeline (<https://ui.perfetto.dev>): a server track whose
//!   batch spans nest per-layer sub-spans, one lane per concurrent request,
//!   and queue-depth / batch-occupancy counter tracks.
//!
//! Both carry a **reconciliation** record, the conservation gate of the
//! trace: the wait/ride span durations must sum (bit-for-bit, same order)
//! to the [`RequestRecord`]-derived sums, and the per-layer breakdown summed
//! over the dispatch log must be bit-identical to the queue simulator's
//! service-time total — the serving plane and the simulator plane agree on
//! where every millisecond went, for every engine, the vednn baseline
//! included.
//!
//! Timebase: one trace microsecond per simulated millisecond — raw `f64`
//! passthrough, no scaling, so Perfetto durations read as milliseconds.

use crate::queue::{RequestRecord, SimOutcome};
use lsv_conv::ModelPlan;
use lsv_obs::{escape_json, json_f64, TimelineBuilder};

/// Fixed facts about the traced cell, recorded in both artifacts.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// Architecture name (e.g. `sx-aurora`).
    pub arch: String,
    /// Model name (e.g. `resnet-50`).
    pub model: String,
    /// Pass name (`infer` / `train`).
    pub pass: String,
    /// Engine name that served every batch of this cell.
    pub engine: String,
    /// Arrival shape name (`poisson` / `bursty`).
    pub arrival: &'static str,
    /// Policy name, parameters included.
    pub policy: String,
    /// Offered load as a fraction of the reference capacity.
    pub utilization: f64,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Arrival-stream seed of this cell.
    pub seed: u64,
    /// The latency SLO in milliseconds.
    pub slo_ms: f64,
    /// The policy's batch-size cap.
    pub max_batch: usize,
}

/// The conservation record: independently recomputed span-duration sums and
/// whether they reconcile bit-for-bit with the queue simulator's totals.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// Requests in the trace.
    pub requests: usize,
    /// Batches in the trace.
    pub batches: usize,
    /// Σ (dispatch − arrival) over requests, id order.
    pub wait_sum_ms: f64,
    /// Σ (done − dispatch) over requests, id order.
    pub ride_sum_ms: f64,
    /// Σ service time over dispatches, time order.
    pub service_sum_ms: f64,
    /// Σ plan(batch) layer-breakdown total over dispatches, time order.
    pub layer_sum_ms: f64,
    /// Every bit-identity below held: each dispatch's layer breakdown totals
    /// exactly its service time (`layer_sum_ms == service_sum_ms` summed in
    /// the same order), and each request's ride span exactly spans its
    /// batch (done == dispatch + service with no drift).
    pub exact: bool,
}

impl Reconciliation {
    /// Recompute every sum from the outcome and check the bit-identities.
    ///
    /// `plans` holds the per-layer breakdown for each distinct dispatched
    /// batch size (see [`collect_plans`]).
    ///
    /// # Panics
    /// If a dispatched batch size has no plan.
    pub fn compute(outcome: &SimOutcome, plans: &[(usize, ModelPlan)]) -> Reconciliation {
        let wait_sum_ms: f64 = outcome
            .records
            .iter()
            .map(|r| r.dispatch_ms - r.arrival_ms)
            .sum();
        let ride_sum_ms: f64 = outcome
            .records
            .iter()
            .map(|r| r.done_ms - r.dispatch_ms)
            .sum();
        let service_sum_ms: f64 = outcome.dispatches.iter().map(|d| d.service_ms).sum();
        let plan_ms = |batch: usize| {
            plans
                .iter()
                .find(|(b, _)| *b == batch)
                .expect("a plan exists for every dispatched batch size")
                .1
                .total_time_ms()
        };
        let layer_sum_ms: f64 = outcome.dispatches.iter().map(|d| plan_ms(d.batch)).sum();
        // Bit-identity 1: each dispatch's per-layer breakdown tiles its
        // service span exactly — the simulator's latency-table cell *is*
        // the plan total, so any drift means the trace lies about where
        // time went.
        let layers_exact = outcome
            .dispatches
            .iter()
            .all(|d| plan_ms(d.batch).to_bits() == d.service_ms.to_bits());
        // Bit-identity 2: every request completes exactly when its batch
        // does (`done == dispatch + service`, the simulator's own update).
        let mut by_time: Vec<&RequestRecord> = outcome.records.iter().collect();
        by_time.sort_by(|a, b| a.dispatch_ms.partial_cmp(&b.dispatch_ms).unwrap());
        let mut di = 0usize;
        let rides_exact = by_time.iter().all(|r| {
            while outcome.dispatches[di].at_ms.to_bits() != r.dispatch_ms.to_bits() {
                di += 1;
            }
            let d = &outcome.dispatches[di];
            r.done_ms.to_bits() == (d.at_ms + d.service_ms).to_bits() && r.batch == d.batch
        });
        let sums_exact = layer_sum_ms.to_bits() == service_sum_ms.to_bits();
        Reconciliation {
            requests: outcome.records.len(),
            batches: outcome.dispatches.len(),
            wait_sum_ms,
            ride_sum_ms,
            service_sum_ms,
            layer_sum_ms,
            exact: layers_exact && rides_exact && sums_exact,
        }
    }
}

/// Build one [`ModelPlan`] per *distinct dispatched batch size* (ascending);
/// `plan_for` maps a batch size to its plan.
pub fn collect_plans(
    outcome: &SimOutcome,
    plan_for: &dyn Fn(usize) -> ModelPlan,
) -> Vec<(usize, ModelPlan)> {
    let mut sizes: Vec<usize> = outcome.dispatches.iter().map(|d| d.batch).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes.into_iter().map(|b| (b, plan_for(b))).collect()
}

/// Render the analyzable `serving_trace.json` document (schema:
/// `serving_trace.schema.json`). Deterministic: a fixed outcome renders
/// byte-identically.
pub fn serving_trace_json(
    meta: &TraceMeta,
    outcome: &SimOutcome,
    plans: &[(usize, ModelPlan)],
    recon: &Reconciliation,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str("  \"tool\": \"lsvconv serve\",\n");
    out.push_str(&format!(
        "  \"meta\": {{\"arch\": \"{}\", \"model\": \"{}\", \"pass\": \"{}\", \
         \"engine\": \"{}\", \"arrival\": \"{}\", \"policy\": \"{}\", \
         \"utilization\": {}, \"offered_rps\": {}, \"seed\": {}, \
         \"slo_ms\": {}, \"max_batch\": {}}},\n",
        escape_json(&meta.arch),
        escape_json(&meta.model),
        escape_json(&meta.pass),
        escape_json(&meta.engine),
        meta.arrival,
        escape_json(&meta.policy),
        json_f64(meta.utilization),
        json_f64(meta.offered_rps),
        meta.seed,
        json_f64(meta.slo_ms),
        meta.max_batch,
    ));
    out.push_str(&format!(
        "  \"reconciliation\": {{\"requests\": {}, \"batches\": {}, \
         \"wait_sum_ms\": {}, \"ride_sum_ms\": {}, \"service_sum_ms\": {}, \
         \"layer_sum_ms\": {}, \"exact\": {}}},\n",
        recon.requests,
        recon.batches,
        json_f64(recon.wait_sum_ms),
        json_f64(recon.ride_sum_ms),
        json_f64(recon.service_sum_ms),
        json_f64(recon.layer_sum_ms),
        recon.exact,
    ));
    out.push_str("  \"requests\": [\n");
    for (i, r) in outcome.records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"arrival_ms\": {}, \"dispatch_ms\": {}, \
             \"done_ms\": {}, \"batch\": {}, \"depth_at_arrival\": {}, \
             \"reason\": \"{}\"}}{}\n",
            r.id,
            json_f64(r.arrival_ms),
            json_f64(r.dispatch_ms),
            json_f64(r.done_ms),
            r.batch,
            r.depth_at_arrival,
            r.reason.name(),
            if i + 1 == outcome.records.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"batches\": [\n");
    for (i, d) in outcome.dispatches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seq\": {}, \"at_ms\": {}, \"service_ms\": {}, \
             \"batch\": {}, \"reason\": \"{}\"}}{}\n",
            i,
            json_f64(d.at_ms),
            json_f64(d.service_ms),
            d.batch,
            d.reason.name(),
            if i + 1 == outcome.dispatches.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"plans\": [\n");
    for (i, (batch, plan)) in plans.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch\": {}, \"store_hits\": {}, \"simulated\": {}, \
             \"total_ms\": {}, \"layers\": [\n",
            batch,
            plan.store_hits,
            plan.simulated,
            json_f64(plan.total_time_ms()),
        ));
        for (j, e) in plan.entries.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"layer\": {}, \"direction\": \"{}\", \"algorithm\": \"{}\", \
                 \"count\": {}, \"time_ms\": {}, \"cycles\": {}}}{}\n",
                e.layer,
                e.direction.short_name(),
                e.kernel.name(),
                e.count,
                json_f64(e.time_ms),
                e.cycles,
                if j + 1 == plan.entries.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == plans.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the Perfetto timeline (`serving_trace.perfetto.json`).
///
/// Track layout (process 0, "lsv serving"):
/// * **tid 0 — server**: one span per batch (`batch <seq> (k=N)`), nested
///   per-(layer, direction) sub-spans tiling the batch's service interval in
///   plan-entry order (span length = `time_ms × count`).
/// * **tid 1+lane — request lanes**: two spans per request — `wait`
///   (arrival → dispatch) and `ride` (dispatch → done) — packed greedily
///   into the lowest lane whose previous request has completed.
/// * **counters**: `queue_depth` (arrivals up, dispatches down; arrivals
///   first at ties) and `batch_occupancy` (batch size while the chip is
///   busy, 0 when it goes idle).
pub fn perfetto_trace_json(
    meta: &TraceMeta,
    outcome: &SimOutcome,
    plans: &[(usize, ModelPlan)],
) -> String {
    let mut tl = TimelineBuilder::new();
    tl.process(0, "lsv serving");
    tl.track(0, 0, "server");

    // Request lanes: greedy reuse — a lane is free once its last occupant
    // is done by the new request's arrival.
    let mut lane_free_at: Vec<f64> = Vec::new();
    let mut lane_of: Vec<usize> = Vec::with_capacity(outcome.records.len());
    for r in &outcome.records {
        let lane = match lane_free_at.iter().position(|&f| f <= r.arrival_ms) {
            Some(l) => l,
            None => {
                lane_free_at.push(0.0);
                lane_free_at.len() - 1
            }
        };
        lane_free_at[lane] = r.done_ms;
        lane_of.push(lane);
    }
    for lane in 0..lane_free_at.len() {
        tl.track(0, 1 + lane as u32, &format!("request lane {lane}"));
    }

    // Server track: batch spans with nested per-layer sub-spans.
    let plan_for = |batch: usize| plans.iter().find(|(b, _)| *b == batch).map(|(_, p)| p);
    for (seq, d) in outcome.dispatches.iter().enumerate() {
        tl.span(
            0,
            0,
            "batch",
            &format!("batch {seq} (k={})", d.batch),
            d.at_ms,
            d.service_ms,
            &[
                ("batch", d.batch.to_string()),
                ("reason", format!("\"{}\"", d.reason.name())),
                ("engine", format!("\"{}\"", escape_json(&meta.engine))),
            ],
        );
        if let Some(plan) = plan_for(d.batch) {
            let mut t = d.at_ms;
            for e in &plan.entries {
                let dur = e.time_ms * e.count as f64;
                tl.span(
                    0,
                    0,
                    "layer",
                    &format!("L{} {} {}", e.layer, e.direction.short_name(), e.kernel),
                    t,
                    dur,
                    &[
                        ("count", e.count.to_string()),
                        ("cycles", e.cycles.to_string()),
                    ],
                );
                t += dur;
            }
        }
    }

    // Request lanes: wait + ride spans, emitted in id order.
    for (r, &lane) in outcome.records.iter().zip(&lane_of) {
        let tid = 1 + lane as u32;
        let args = [
            ("id", r.id.to_string()),
            ("batch", r.batch.to_string()),
            ("depth_at_arrival", r.depth_at_arrival.to_string()),
            ("reason", format!("\"{}\"", r.reason.name())),
        ];
        tl.span(
            0,
            tid,
            "wait",
            &format!("r{} wait", r.id),
            r.arrival_ms,
            r.dispatch_ms - r.arrival_ms,
            &args,
        );
        tl.span(
            0,
            tid,
            "ride",
            &format!("r{} ride (k={})", r.id, r.batch),
            r.dispatch_ms,
            r.done_ms - r.dispatch_ms,
            &args,
        );
    }

    // Queue-depth counter: +1 per arrival, −k per dispatch; at a shared
    // timestamp the arrival lands first (the request *was* momentarily
    // queued).
    let mut events: Vec<(f64, u8, i64)> = Vec::new();
    for r in &outcome.records {
        events.push((r.arrival_ms, 0, 1));
    }
    for d in &outcome.dispatches {
        events.push((d.at_ms, 1, -(d.batch as i64)));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut depth = 0i64;
    for (t, _, delta) in events {
        depth += delta;
        tl.counter(0, "queue_depth", t, depth as f64);
    }

    // Batch-occupancy counter: k while the chip runs a batch, 0 when it
    // goes idle (a back-to-back dispatch at the idle instant wins the tie).
    let mut occ: Vec<(f64, u8, f64)> = Vec::new();
    for d in &outcome.dispatches {
        occ.push((d.at_ms + d.service_ms, 0, 0.0));
        occ.push((d.at_ms, 1, d.batch as f64));
    }
    occ.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    for (t, _, v) in occ {
        tl.counter(0, "batch_occupancy", t, v);
    }

    tl.finish(
        "1 trace us = 1 simulated ms",
        &[
            ("engine", format!("\"{}\"", escape_json(&meta.engine))),
            ("arrival", format!("\"{}\"", meta.arrival)),
            ("policy", format!("\"{}\"", escape_json(&meta.policy))),
            ("utilization", json_f64(meta.utilization)),
            ("seed", meta.seed.to_string()),
            ("requests", outcome.records.len().to_string()),
            ("batches", outcome.dispatches.len().to_string()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{simulate, BatchPolicy};
    use lsv_conv::{Direction, Kernel, PlanEntry};
    use lsv_obs::{parse_json, validate_serving_trace_json, JsonValue};

    fn meta() -> TraceMeta {
        TraceMeta {
            arch: "sx-aurora".into(),
            model: "resnet-50".into(),
            pass: "infer".into(),
            engine: "BDC".into(),
            arrival: "poisson",
            policy: "adaptive4".into(),
            utilization: 0.9,
            offered_rps: 120.0,
            seed: 42,
            slo_ms: 60.0,
            max_batch: 4,
        }
    }

    /// One single-entry plan per dispatched batch size whose total is that
    /// batch's service time.
    fn one_entry_plans(out: &SimOutcome) -> Vec<(usize, ModelPlan)> {
        collect_plans(out, &|batch| {
            let d = out.dispatches.iter().find(|d| d.batch == batch).unwrap();
            ModelPlan {
                entries: vec![PlanEntry {
                    layer: 0,
                    direction: Direction::Fwd,
                    kernel: Kernel::Library("unit"),
                    count: 1,
                    cycles: 1,
                    time_ms: d.service_ms,
                    analytic_cycles: 1,
                }],
                store_hits: 0,
                simulated: 0,
            }
        })
    }

    #[test]
    fn trace_json_is_schema_valid_and_reconciles() {
        let out = simulate(
            &[0.0, 1.0, 2.0, 15.0],
            BatchPolicy::Adaptive { max_batch: 4 },
            &|_k| (0, 10.0),
        );
        let plans = one_entry_plans(&out);
        let recon = Reconciliation::compute(&out, &plans);
        assert!(recon.exact, "plans equal to the service times reconcile");
        assert_eq!(recon.requests, 4);
        assert_eq!(recon.layer_sum_ms.to_bits(), recon.service_sum_ms.to_bits());
        let doc = serving_trace_json(&meta(), &out, &plans, &recon);
        validate_serving_trace_json(&doc).expect("schema-valid trace");
        assert!(doc.contains("\"algorithm\": \"unit\""));
    }

    #[test]
    fn perfetto_doc_is_valid_json_with_all_tracks() {
        let out = simulate(
            &[0.0, 1.0, 2.0],
            BatchPolicy::Adaptive { max_batch: 8 },
            &|_k| (0, 10.0),
        );
        let doc = perfetto_trace_json(&meta(), &out, &[]);
        let v = parse_json(&doc).expect("valid JSON");
        let JsonValue::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        // 2 spans per request + 1 per batch; counters: 3 arrivals +
        // 2 dispatches (queue_depth) + 4 occupancy samples.
        let spans = events
            .iter()
            .filter(|e| e.get("ph") == Some(&JsonValue::Str("X".into())))
            .count();
        assert_eq!(spans, 3 * 2 + 2);
        let counters = events
            .iter()
            .filter(|e| e.get("ph") == Some(&JsonValue::Str("C".into())))
            .count();
        assert_eq!(counters, 5 + 4);
        // Requests 1 and 2 both overlap request 0's service (and each
        // other, riding one batch) → three lanes, no more.
        assert!(doc.contains("request lane 2"));
        assert!(!doc.contains("request lane 3"));
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let build = || {
            let out = simulate(
                &[0.0, 3.0, 7.0, 8.0],
                BatchPolicy::Timeout {
                    max_batch: 2,
                    timeout_ms: 5.0,
                },
                &|k| (0, 4.0 + k as f64),
            );
            let plans = one_entry_plans(&out);
            let recon = Reconciliation::compute(&out, &plans);
            (
                serving_trace_json(&meta(), &out, &plans, &recon),
                perfetto_trace_json(&meta(), &out, &[]),
            )
        };
        assert_eq!(build(), build());
    }
}
