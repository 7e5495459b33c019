//! Host-performance meters: how fast the host produces simulated results
//! (`bench-simulator`) and how fast the native backend executes kernels
//! (`bench-native`).

use super::{Ctx, Outcome};
use crate::{bench_engine, Engine};
use lsv_arch::presets::sx_aurora;
use lsv_conv::fuzz;
use lsv_conv::{
    bench_layer_native, Algorithm, BackendKind, ConvDesc, Direction, ExecBackend, ExecutionMode,
    NativeBackend, SimBackend,
};
use lsv_models::resnet_layer;
use lsv_vengine::Arena;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run one named batch of layer simulations: its `BENCH_simulator.json`
/// `sweeps` entry (wall time, simulated cycles and their ratio).
fn run_sweep(
    name: &str,
    layers: &[usize],
    minibatch: usize,
    directions: &[Direction],
    mode: ExecutionMode,
) -> String {
    let arch = sx_aurora();
    let engines = [
        Engine::Direct(Algorithm::Dc),
        Engine::Direct(Algorithm::Bdc),
        Engine::Direct(Algorithm::Mbdc),
    ];
    let t0 = Instant::now();
    let mut sim_cycles = 0u64;
    for &id in layers {
        let p = resnet_layer(id, minibatch);
        for &dir in directions {
            for &e in &engines {
                sim_cycles += bench_engine(&arch, &p, dir, e, mode).cycles;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let rate = sim_cycles as f64 / wall_s.max(1e-9);
    format!(
        "    {{\"name\": \"{name}\", \"wall_s\": {wall_s:.3}, \"sim_cycles\": {sim_cycles}, \
         \"sim_cycles_per_host_s\": {rate:.3e}}}"
    )
}

/// Parse `<name> <ms>ms ...` lines (the harness's `regen_times.txt`
/// format) into `(name, ms)` pairs, ignoring lines that don't match.
fn parse_timings(path: &Path) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?;
            let ms = it.next()?.strip_suffix("ms")?.parse::<u64>().ok()?;
            Some((name.to_string(), ms))
        })
        .collect())
}

fn timings_json(pairs: &[(String, u64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(name, ms)| format!("\"{name}\": {ms}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Collect every `<name>.store.json` metrics document a regen run left in
/// `dir` (the `metrics.schema.json` shape: `store.*` counters plus the
/// `store.disk_bytes` gauge), sorted by name. Each is re-rendered as a
/// compact one-line counter object, plus a tally of the counters across
/// all of them.
fn store_stats_json(dir: &Path) -> String {
    // (name, [(short counter name, value)]) — `store.mem_hits` → `mem_hits`.
    let mut per_bin: Vec<(String, Vec<(String, u64)>)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let Some(bin) = name.strip_suffix(".store.json") else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(e.path()) else {
                continue;
            };
            let Ok(doc) = lsv_obs::parse_json(&text) else {
                continue;
            };
            let mut fields: Vec<(String, u64)> = Vec::new();
            if let Some(lsv_obs::JsonValue::Arr(counters)) = doc.get("counters") {
                for c in counters {
                    let (Some(lsv_obs::JsonValue::Str(cname)), Some(lsv_obs::JsonValue::Num(v))) =
                        (c.get("name"), c.get("value"))
                    else {
                        continue;
                    };
                    let short = cname.strip_prefix("store.").unwrap_or(cname);
                    fields.push((short.to_string(), *v as u64));
                }
            }
            per_bin.push((bin.to_string(), fields));
        }
    }
    per_bin.sort();
    let field_total = |key: &str| -> u64 {
        per_bin
            .iter()
            .flat_map(|(_, fields)| fields.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let mut s = String::from("{\n      \"per_bin\": {");
    for (i, (bin, fields)) in per_bin.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n        \"{bin}\": {}", timings_json(fields));
    }
    s.push_str("\n      },\n");
    let hits = field_total("mem_hits") + field_total("disk_hits");
    let misses = field_total("misses");
    let _ = writeln!(s, "      \"total_hits\": {hits},");
    let _ = writeln!(s, "      \"total_misses\": {misses},");
    let _ = writeln!(
        s,
        "      \"hit_rate\": {:.3},",
        hits as f64 / ((hits + misses) as f64).max(1.0)
    );
    let _ = writeln!(
        s,
        "      \"total_paranoid_rechecks\": {}",
        field_total("paranoid_rechecks")
    );
    s.push_str("    }");
    s
}

/// Host-performance meter for the simulator itself: runs representative
/// sweeps in-process and reports wall time, total *simulated* cycles and
/// the headline "simulated cycles per host second" ratio
/// (`BENCH_simulator.json`). `--smoke` shrinks every sweep to seconds.
///
/// Simulated cycle counts are pinned bit-identical by the golden fixture in
/// `tests/golden_cycles.rs`; this only tracks how fast the host produces
/// them. The optional regen logs (`--regen-before`/`--regen-after`/
/// `--regen-warm`: `regen_times.txt` files of earlier `run --all` passes;
/// `--store-stats`: their log directory) are embedded so the committed JSON
/// carries the end-to-end regeneration times and per-experiment store
/// counters.
pub fn bench_simulator(ctx: &Ctx) -> Outcome {
    let sweeps = if ctx.smoke {
        vec![run_sweep(
            "smoke_layer4_fwdd",
            &[4],
            4,
            &[Direction::Fwd],
            ExecutionMode::TimingOnly,
        )]
    } else {
        vec![
            run_sweep(
                "table3_fwdd_timing",
                &[2, 4, 6, 8, 11, 16],
                16,
                &[Direction::Fwd],
                ExecutionMode::TimingOnly,
            ),
            run_sweep(
                "table3_bwd_timing",
                &[4, 8, 16],
                16,
                &[Direction::BwdData, Direction::BwdWeights],
                ExecutionMode::TimingOnly,
            ),
            run_sweep(
                "layer3_fwdd_functional",
                &[3],
                8,
                &[Direction::Fwd],
                ExecutionMode::Functional,
            ),
        ]
    };

    let mut json = String::from("{\n");
    writeln!(json, "  \"tool\": \"bench-simulator\",")?;
    let mode = if ctx.smoke { "smoke" } else { "full" };
    writeln!(json, "  \"mode\": \"{mode}\",")?;
    writeln!(json, "  \"host_threads\": {},", host_threads())?;
    json.push_str("  \"sweeps\": [\n");
    json.push_str(&sweeps.join(",\n"));
    json.push('\n');
    json.push_str("  ]");

    let logs = &ctx.regen_logs;
    if let (Some(b), Some(a)) = (&logs.before, &logs.after) {
        let b = parse_timings(b)?;
        let a = parse_timings(a)?;
        let total_b: u64 = b.iter().map(|&(_, ms)| ms).sum();
        let total_a: u64 = a.iter().map(|&(_, ms)| ms).sum();
        json.push_str(",\n  \"regen\": {\n");
        writeln!(json, "    \"before_ms\": {},", timings_json(&b))?;
        writeln!(json, "    \"after_ms\": {},", timings_json(&a))?;
        writeln!(json, "    \"total_before_ms\": {total_b},")?;
        writeln!(json, "    \"total_after_ms\": {total_a},")?;
        if let Some(w) = &logs.warm {
            let w = parse_timings(w)?;
            let total_w: u64 = w.iter().map(|&(_, ms)| ms).sum();
            writeln!(json, "    \"warm_ms\": {},", timings_json(&w))?;
            writeln!(json, "    \"total_warm_ms\": {total_w},")?;
        }
        writeln!(
            json,
            "    \"speedup_total\": {:.2}",
            total_b as f64 / (total_a as f64).max(1.0)
        )?;
        json.push_str("  }");
    }
    if let Some(dir) = &logs.store_stats {
        json.push_str(",\n  \"store\": ");
        json.push_str(&store_stats_json(dir));
    }
    json.push_str("\n}\n");
    Ok(vec![json])
}

/// Native-run one Table 3 layer: its `BENCH_native.json` `layers` entry.
fn layer_entry(layer: usize, minibatch: usize, dir: Direction, alg: Algorithm) -> String {
    let p = resnet_layer(layer, minibatch);
    let perf = bench_layer_native(&sx_aurora(), &p, dir, alg);
    format!(
        "    {{\"layer\": {layer}, \"dir\": \"{dir}\", \"alg\": \"{}\", \"minibatch\": {minibatch}, \
         \"problem\": \"{p}\", \"host_ms\": {:.3}, \"native_gflops\": {:.2}, \
         \"fma_elems\": {}}}",
        alg.short_name(),
        perf.host_secs * 1e3,
        perf.host_gflops,
        perf.insts.fma_elems
    )
}

/// Kernel execution seconds for the whole seed corpus on one backend.
/// `FuzzOutcome::exec_secs` times only the property-1 kernel execution
/// (operand import/readback and the naive reference are excluded), so the
/// ratio isolates backend speed on identical work.
fn corpus_exec_secs(kind: BackendKind) -> Result<(usize, f64), String> {
    let out = fuzz::run_corpus_backend(&fuzz::no_lint, None, kind);
    if !out.clean() {
        let failures: Vec<String> = out
            .failures
            .iter()
            .map(|f| format!("{}: {}", f.case, f.why))
            .collect();
        return Err(format!("corpus failures on {kind} backend: {failures:?}"));
    }
    Ok((out.cases_run, out.exec_secs))
}

/// Pure-execution sim-vs-native comparison on one Table 3 layer: the same
/// frozen primitive, the same arena contents, the whole problem as one
/// slice. Operand import/readback (identical host conversions under both
/// backends) are outside the timed region — this is the headline
/// "functional run at host speed" number.
fn layer_speedup(layer: usize, minibatch: usize) -> Result<(String, f64, f64), String> {
    let arch = sx_aurora();
    let p = resnet_layer(layer, minibatch);
    let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Bdc)
        .create(&arch, 1)
        .map_err(|e| format!("layer {layer} primitive: {e}"))?;
    let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
        .map(|i| (i % 509) as f32 * 1e-3)
        .collect();
    let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
        .map(|i| (i % 251) as f32 * 1e-4)
        .collect();
    let time_exec = |backend: &dyn ExecBackend| {
        let mut arena = Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        prim.import_operands(&mut arena, &t, &src, &wei, &[]);
        let t0 = Instant::now();
        backend.execute_slice(&prim, &mut arena, &t, 0..p.n, 0..prim.bwdw_small_blocks());
        t0.elapsed().as_secs_f64()
    };
    let native_s = time_exec(&NativeBackend);
    let sim_s = time_exec(&SimBackend::functional());
    Ok((p.to_string(), sim_s, native_s))
}

/// Host-performance meter for the native execution backend: runs the
/// Table 3 layer shapes through [`lsv_conv::bench_layer_native`] and
/// reports achieved host GFLOP/s, then the wall-time speedup of the native
/// backend over the simulated functional path on the differential-fuzzing
/// seed corpus (the same kernels, the same operands, both backends
/// producing bit-identical outputs) — `BENCH_native.json`. `--smoke`
/// shrinks the layer sweep; the corpus measurement is cheap enough to keep.
pub fn bench_native(ctx: &Ctx) -> Outcome {
    // The timed region is the same kernel plan on the same operands under
    // both backends; the simulator timing is the functional path the native
    // backend replaces in verification workflows. Measured *before* the
    // layer sweep: minutes of sustained load throttle small shared machines
    // and would skew the headline ratio.
    let t0 = Instant::now();
    let (cases, sim_s) = corpus_exec_secs(BackendKind::Sim)?;
    let (_, native_s) = corpus_exec_secs(BackendKind::Native)?;
    let corpus_wall_s = t0.elapsed().as_secs_f64();
    let speedup = sim_s / native_s.max(1e-9);

    let mut layers = Vec::new();
    if ctx.smoke {
        layers.push(layer_entry(4, 4, Direction::Fwd, Algorithm::Bdc));
    } else {
        for id in 0..lsv_models::NUM_LAYERS {
            layers.push(layer_entry(id, 16, Direction::Fwd, Algorithm::Bdc));
        }
        for id in [4, 8, 16] {
            layers.push(layer_entry(id, 16, Direction::BwdData, Algorithm::Bdc));
            layers.push(layer_entry(id, 16, Direction::BwdWeights, Algorithm::Bdc));
            layers.push(layer_entry(id, 16, Direction::Fwd, Algorithm::Mbdc));
        }
    }

    let mut json = String::from("{\n");
    writeln!(json, "  \"tool\": \"bench-native\",")?;
    let mode = if ctx.smoke { "smoke" } else { "full" };
    writeln!(json, "  \"mode\": \"{mode}\",")?;
    writeln!(json, "  \"arch\": \"{}\",", sx_aurora().name)?;
    writeln!(json, "  \"host_threads\": {},", host_threads())?;
    json.push_str("  \"layers\": [\n");
    json.push_str(&layers.join(",\n"));
    json.push('\n');
    json.push_str("  ],\n");
    json.push_str("  \"corpus\": {\n");
    writeln!(json, "    \"cases\": {cases},")?;
    writeln!(json, "    \"sim_functional_exec_s\": {sim_s:.4},")?;
    writeln!(json, "    \"native_exec_s\": {native_s:.6},")?;
    writeln!(json, "    \"native_speedup\": {speedup:.1},")?;
    writeln!(json, "    \"wall_s\": {corpus_wall_s:.3}")?;
    json.push_str("  }");
    if !ctx.smoke {
        // One full layer, pure kernel execution under both backends. The
        // corpus cases are tiny (per-instruction simulator overhead
        // dominates there); a real layer's wide vectors amortize that
        // overhead, so its ratio is the conservative end of the range.
        let (problem, layer_sim_s, layer_native_s) = layer_speedup(8, 2)?;
        let layer_ratio = layer_sim_s / layer_native_s.max(1e-9);
        json.push_str(",\n  \"layer_speedup\": {\n");
        writeln!(json, "    \"layer\": 8, \"minibatch\": 2,")?;
        writeln!(json, "    \"problem\": \"{problem}\",")?;
        writeln!(json, "    \"sim_functional_exec_s\": {layer_sim_s:.3},")?;
        writeln!(json, "    \"native_exec_s\": {layer_native_s:.4},")?;
        writeln!(json, "    \"native_speedup\": {layer_ratio:.1}")?;
        json.push_str("  }");
    }
    json.push_str("\n}\n");
    eprintln!("bench-native: corpus speedup {speedup:.1}x");
    Ok(vec![json])
}
