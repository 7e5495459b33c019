//! Host-performance meter for the native backend (`bench-native`): how
//! fast it executes kernels, and how much faster than the simulator's
//! functional path. How fast the host produces *simulated* results is
//! `lsvbench`'s measurement, plus the harness's per-experiment
//! `logs/regen_times.txt` and `logs/<name>.store.json`.

use super::{Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::fuzz;
use lsv_conv::{
    bench_layer_native, Algorithm, BackendKind, ConvDesc, Direction, ExecBackend, NativeBackend,
    SimBackend,
};
use lsv_models::resnet_layer;
use lsv_vengine::Arena;
use std::fmt::Write as _;
use std::time::Instant;

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
    let out = fuzz::run_corpus_backend(&|_, _, _| Ok(()), None, kind);
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
        backend.execute_slice(&prim, &mut arena, &t, 0..prim.work_items());
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
