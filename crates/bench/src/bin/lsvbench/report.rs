//! Metrics from a [`RunResult`]: the end-to-end metrics of an untraced run,
//! the per-layer metrics of a traced run (from span self-times and the
//! call arguments the workers recorded), and their text, JSON and Perfetto
//! renderings.

use crate::run::RunResult;
use crate::trace::{ITEM, PROBE};
use lsv_obs::{escape_json, json_f64, TimelineBuilder};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten items beyond it, from the
/// ladder p50, p51, ..., p99, p99.9 (p50 when there are too few items).
pub fn tail_pct(n: usize) -> f64 {
    let ladder = (50..100).map(f64::from).chain([99.9]);
    ladder
        .rev()
        .find(|p| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// Python's `statistics.quantiles(data, n=4)` (the default "exclusive"
/// method): the three quartile cut points. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// End-to-end metrics (every timing measured with tracing off), plus the
/// tail percentile used.
pub fn end_to_end(r: &RunResult) -> (Vec<Metric>, f64) {
    let mut ms: Vec<f64> = r.items.iter().map(|i| i.ms).collect();
    ms.sort_by(f64::total_cmp);
    let tail = tail_pct(ms.len());
    let rss_kb: Vec<f64> = r.rss_kb.iter().map(|&k| k as f64).collect();
    (
        vec![
            m("setup_s", "s", median(&r.setup_s)),
            m(
                "items_per_s",
                "items/s",
                ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
            ),
            m("item_ms_p50", "ms", median(&ms)),
            m(
                "item_ms_tail",
                "ms",
                if ms.is_empty() {
                    0.0
                } else {
                    lsv_serve::percentile(&ms, tail)
                },
            ),
            m("peak_rss_mb", "MB", median(&rss_kb) / 1024.0),
        ],
        tail,
    )
}

/// Span bookkeeping shared by the per-layer metrics.
struct Tree<'a> {
    r: &'a RunResult,
    self_ns: Vec<u64>,
    in_probe: Vec<bool>,
}

impl<'a> Tree<'a> {
    fn new(r: &'a RunResult) -> Self {
        let n = r.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut in_probe = vec![false; n];
        for (i, s) in r.spans.iter().enumerate() {
            if let Some(p) = s.span.parent {
                child_ns[p] += s.span.dur_ns;
                in_probe[i] = in_probe[p] || r.spans[p].span.cat == PROBE;
            }
        }
        let self_ns = r
            .spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.span.dur_ns.saturating_sub(*c))
            .collect();
        Tree {
            r,
            self_ns,
            in_probe,
        }
    }

    /// Library-call spans of one layer (outside probes).
    fn calls(&self, layer: &str) -> Vec<usize> {
        (0..self.r.spans.len())
            .filter(|&i| {
                let s = &self.r.spans[i].span;
                s.cat == crate::trace::CALL && s.layer() == layer && !self.in_probe[i]
            })
            .collect()
    }

    fn dur_s(&self, ids: &[usize]) -> f64 {
        ids.iter()
            .map(|&i| self.r.spans[i].span.dur_ns as f64)
            .sum::<f64>()
            / 1e9
    }

    fn self_s(&self, ids: &[usize]) -> f64 {
        ids.iter().map(|&i| self.self_ns[i] as f64).sum::<f64>() / 1e9
    }

    fn arg_sum(&self, ids: &[usize], key: &str) -> f64 {
        ids.iter()
            .filter_map(|&i| self.r.spans[i].span.arg(key))
            .sum()
    }

    fn of_cat(&self, cat: &str) -> Vec<usize> {
        (0..self.r.spans.len())
            .filter(|&i| self.r.spans[i].span.cat == cat)
            .collect()
    }

    /// Traced item time without probes, in seconds.
    fn item_s(&self) -> f64 {
        self.dur_s(&self.of_cat(ITEM)) - self.dur_s(&self.top_probes())
    }

    fn top_probes(&self) -> Vec<usize> {
        (0..self.r.spans.len())
            .filter(|&i| self.r.spans[i].span.cat == PROBE && !self.in_probe[i])
            .collect()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Extra host time per item when traced, as a fraction of the untraced
/// reference (same items, probes excluded).
fn overhead_frac(r: &RunResult) -> f64 {
    let traced: BTreeMap<&str, f64> = r.items.iter().map(|i| (i.key.as_str(), i.ms)).collect();
    let (mut t, mut u) = (0.0, 0.0);
    for it in &r.reference {
        if let Some(ms) = traced.get(it.key.as_str()) {
            t += ms;
            u += it.ms;
        }
    }
    ratio(t, u) - 1.0
}

/// Per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let t = Tree::new(r);
    let items_s = t.item_s();
    let share = |layer: &str| ratio(t.self_s(&t.calls(layer)), items_s);
    let perf = t.calls("perf");
    let (miss, hit): (Vec<usize>, Vec<usize>) = perf
        .iter()
        .partition(|&&i| r.spans[i].span.arg("sim") == Some(1.0));
    let mean_arg = |ids: &[usize], key: &str| ratio(t.arg_sum(ids, key), ids.len() as f64);
    let calls: Vec<usize> = (0..r.spans.len())
        .filter(|&i| r.spans[i].span.cat == crate::trace::CALL && !t.in_probe[i])
        .collect();
    let lookups = t.arg_sum(&calls, "lookups");
    let tuner = t.calls("tuner");
    let verify = t.calls("verify");
    let fuzz = t.calls("fuzz");
    let analyze = t.calls("analyze");
    let serve = t.calls("serve");
    let sweeps: Vec<usize> = serve
        .iter()
        .copied()
        .filter(|&i| r.spans[i].span.name == "serve.run_sweep")
        .collect();
    // Validations of the (layer, direction) groups the naive probe ran on:
    // a group is its item keys (`layer.dir.alg`) without the algorithm.
    let group = |i: usize| {
        let item = r.spans[i].span.parent.map_or(i, |p| p);
        let key = &r.spans[item].span.name;
        key.rsplit_once('.')
            .map_or(key.as_str(), |(g, _)| g)
            .to_string()
    };
    let probed: std::collections::BTreeSet<String> = (0..r.spans.len())
        .filter(|&i| r.spans[i].span.name == "naive.probe")
        .map(group)
        .collect();
    let probed_verify: Vec<usize> = verify
        .iter()
        .copied()
        .filter(|&i| probed.contains(&group(i)))
        .collect();
    let naive_s: f64 = (0..r.spans.len())
        .filter(|&i| r.spans[i].span.layer() == "naive" && r.spans[i].span.cat != PROBE)
        .map(|i| r.spans[i].span.dur_ns as f64 / 1e9)
        .sum();
    let prim: Vec<usize> = t
        .top_probes()
        .into_iter()
        .filter(|&i| r.spans[i].span.layer() == "primitive")
        .collect();
    let prim_us: Vec<f64> = prim
        .iter()
        .map(|&i| r.spans[i].span.dur_ns as f64 / 1e3)
        .collect();
    let item_self_us: Vec<f64> = t
        .of_cat(ITEM)
        .iter()
        .map(|&i| t.self_ns[i] as f64 / 1e3)
        .collect();
    let proc_ms: Vec<f64> = r
        .children
        .iter()
        .map(|c| c.wall_ns.saturating_sub(c.internal_ns) as f64 / 1e6)
        .collect();
    let n = |ids: &[usize]| ids.len() as f64;
    vec![
        m("trace.overhead_frac", "fraction", overhead_frac(r)),
        m("trace.item_self_us_p50", "us", median(&item_self_us)),
        m("proc.overhead_ms_p50", "ms", median(&proc_ms)),
        m("perf.calls", "count", n(&perf)),
        m("perf.share", "fraction", share("perf")),
        m(
            "perf.miss_calls_per_s",
            "1/s",
            ratio(n(&miss), t.dur_s(&miss)),
        ),
        m("perf.hit_calls_per_s", "1/s", ratio(n(&hit), t.dur_s(&hit))),
        m("vengine.sim_insts", "count", t.arg_sum(&miss, "insts")),
        m(
            "vengine.sim_cycles",
            "count",
            t.arg_sum(&miss, "slice_cycles"),
        ),
        m(
            "vengine.insts_per_host_s",
            "1/s",
            ratio(t.arg_sum(&miss, "insts"), t.dur_s(&miss)),
        ),
        m(
            "vengine.cycles_per_host_s",
            "1/s",
            ratio(t.arg_sum(&miss, "slice_cycles"), t.dur_s(&miss)),
        ),
        m("cache.l1_mpki_mean", "mpki", mean_arg(&miss, "l1_mpki")),
        m(
            "cache.conflict_frac_mean",
            "fraction",
            mean_arg(&miss, "conflict_frac"),
        ),
        m("store.lookups", "count", lookups),
        m("store.hits", "count", t.arg_sum(&calls, "hits")),
        m("store.misses", "count", t.arg_sum(&calls, "misses")),
        m("store.inserts", "count", t.arg_sum(&calls, "inserts")),
        m(
            "store.hit_ratio",
            "fraction",
            ratio(t.arg_sum(&calls, "hits"), lookups),
        ),
        m(
            "store.disk_bytes",
            "bytes",
            r.children.iter().map(|c| c.disk_bytes).max().unwrap_or(0) as f64,
        ),
        m("tuner.calls", "count", n(&tuner)),
        m("tuner.generated", "count", t.arg_sum(&tuner, "generated")),
        m("tuner.unique", "count", t.arg_sum(&tuner, "unique")),
        m("tuner.simulated", "count", t.arg_sum(&tuner, "simulated")),
        m(
            "tuner.sims_per_call",
            "count",
            mean_arg(&tuner, "simulated"),
        ),
        m(
            "tuner.improved_frac",
            "fraction",
            mean_arg(&tuner, "improved"),
        ),
        m("tuner.share", "fraction", share("tuner")),
        m(
            "tuner.calls_per_s",
            "1/s",
            ratio(n(&tuner), t.dur_s(&tuner)),
        ),
        m("primitive.create_us_p50", "us", median(&prim_us)),
        m("primitive.busy_s", "s", t.dur_s(&prim)),
        m("verify.calls", "count", n(&verify)),
        m(
            "verify.failed",
            "count",
            n(&verify) - t.arg_sum(&verify, "passed"),
        ),
        m("verify.share", "fraction", share("verify")),
        m(
            "verify.calls_per_s",
            "1/s",
            ratio(n(&verify), t.dur_s(&verify)),
        ),
        m(
            "naive.share",
            "fraction",
            ratio(naive_s, t.dur_s(&probed_verify)),
        ),
        m("fuzz.cases", "count", t.arg_sum(&fuzz, "cases")),
        m("fuzz.skipped", "count", t.arg_sum(&fuzz, "skipped")),
        m("fuzz.failures", "count", t.arg_sum(&fuzz, "failures")),
        m(
            "fuzz.exec_share",
            "fraction",
            ratio(t.arg_sum(&fuzz, "exec_ns") / 1e9, t.dur_s(&fuzz)),
        ),
        m("fuzz.share", "fraction", share("fuzz")),
        m("analyze.lint_calls", "count", n(&analyze)),
        m("analyze.share", "fraction", share("analyze")),
        m(
            "analyze.lints_per_s",
            "1/s",
            ratio(n(&analyze), t.dur_s(&analyze)),
        ),
        m("serve.share", "fraction", share("serve")),
        m(
            "serve.requests_per_host_s",
            "1/s",
            ratio(t.arg_sum(&sweeps, "requests"), t.dur_s(&sweeps)),
        ),
        m(
            "sim.chip_cycles",
            "count",
            t.arg_sum(&perf, "cycles") + t.arg_sum(&tuner, "cycles"),
        ),
    ]
}

/// Span-tree conservation of a traced run: every span's self time plus
/// its children's durations is its duration, so the self times of all
/// spans in the item trees sum to the item spans' total exactly; that
/// total is set against the traced workers' wall time.
pub fn reconciliation(r: &RunResult) -> String {
    let t = Tree::new(r);
    let items_ns: u64 = t.of_cat(ITEM).iter().map(|&i| r.spans[i].span.dur_ns).sum();
    let self_ns: u64 = t.self_ns.iter().sum();
    // Wall time of the traced workers only (span pids are worker numbers).
    let traced: std::collections::BTreeSet<u32> = r.spans.iter().map(|s| s.pid).collect();
    let wall_ns: u64 = traced
        .iter()
        .filter_map(|&pid| r.children.get(pid as usize - 1))
        .map(|c| c.wall_ns)
        .sum();
    format!(
        "{{\"item_spans\": {}, \"item_time_s\": {}, \"self_time_sum_s\": {}, \
         \"worker_wall_s\": {}, \"probe_s\": {}, \"exact\": {}}}",
        t.of_cat(ITEM).len(),
        json_f64(items_ns as f64 / 1e9),
        json_f64(self_ns as f64 / 1e9),
        json_f64(wall_ns as f64 / 1e9),
        json_f64(t.dur_s(&t.top_probes())),
        items_ns == self_ns
    )
}

/// The result object of one run: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_json(r: &RunResult, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failures.is_empty() && r.failed() == 0 && r.attempted > 0,
        r.attempted,
        r.failed(),
        metrics_json(metrics)
    )
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape_json(x.name),
                json_f64(x.value),
                escape_json(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The traced run as a Chrome-trace/Perfetto document: one process per
/// worker, item spans with their call and probe spans nested by time.
pub fn perfetto_json(workload: &str, r: &RunResult) -> String {
    let mut tl = TimelineBuilder::new();
    let mut named = std::collections::BTreeSet::new();
    for s in &r.spans {
        if named.insert(s.pid) {
            tl.process(s.pid, &format!("{workload} worker {}", s.pid));
            tl.track(s.pid, 0, "items");
        }
        tl.span(
            s.pid,
            0,
            &s.span.cat,
            &s.span.name,
            s.ts_ns as f64 / 1e3,
            s.span.dur_ns as f64 / 1e3,
            &s.span
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect::<Vec<_>>(),
        );
    }
    tl.finish(
        "1us = 1us of host time",
        &[("workload", format!("\"{}\"", escape_json(workload)))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Item;

    #[test]
    fn tail_rule_keeps_ten_items_beyond() {
        assert_eq!(tail_pct(228), 95.0);
        assert_eq!(tail_pct(72), 86.0);
        assert_eq!(tail_pct(171), 94.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(16000), 99.9);
        assert_eq!(tail_pct(5), 50.0);
        for n in [20usize, 72, 171, 228, 999, 2000, 16000] {
            let p = tail_pct(n);
            let beyond = n - (p / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_json_parses_with_the_repo_parser() {
        let r = RunResult {
            attempted: 3,
            items: (0..3)
                .map(|i| Item {
                    key: format!("k{i}"),
                    ok: true,
                    ms: 1.5,
                    golden: Vec::new(),
                    row: None,
                    note: String::new(),
                })
                .collect(),
            ..RunResult::default()
        };
        let doc = result_json(&r, &[m("item_ms_p50", "ms", 1.2034)]);
        let v = lsv_obs::parse_json(&doc).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&lsv_obs::JsonValue::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&lsv_obs::JsonValue::Num(3.0)));
        let p50 = v.get("metrics").and_then(|x| x.get("item_ms_p50")).unwrap();
        assert_eq!(p50.get("value"), Some(&lsv_obs::JsonValue::Num(1.2034)));
        assert_eq!(p50.get("unit"), Some(&lsv_obs::JsonValue::Str("ms".into())));
    }
}
