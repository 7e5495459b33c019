//! `lsvconv` — the command-line front end a downstream user drives:
//!
//! ```text
//! lsvconv info                                    # machine + model summary
//! lsvconv bench  --layer 8 --dir fwdd --alg BDC [--minibatch 64] [--arch sx-aurora]
//! lsvconv bench  --ic 512 --oc 128 --hw 28 --k 1 --stride 1 --pad 0 ...
//! lsvconv verify --layer 8 --dir fwdd --alg MBDC [--minibatch 2]
//! lsvconv tune   --layer 16 --dir fwdd --alg BDC  # show the generated config
//! lsvconv fuzz   [--cases 500] [--seed 1] [--smoke]  # differential fuzzing
//! lsvconv profile <layer> [--dir fwdd] [--alg BDC] [--out results/profile] [--smoke]
//! lsvconv serve  [--model resnet-50] [--pass infer] [--engine BDC] [--smoke]
//! lsvconv run    <experiment>... | --all [--out results] [--smoke] [--profile]
//! ```
//!
//! Every subcommand parses its flags through one spec-driven parser: a flag
//! the subcommand does not take, or a malformed value, is a usage error
//! (exit 2), never silently ignored.

use lsv_arch::presets::{a64fx_sve, rvv_longvector, skylake_avx512, sx_aurora};
use lsv_arch::ArchParams;
use lsv_bench::artifact::{write_artifacts, Artifact};
use lsv_bench::experiments::{self, Ctx, EXPERIMENTS};
use lsv_bench::profiling::{print_profile_summary, profile_meta, write_profile_artifacts};
use lsv_bench::{bench_engine, Engine};
use lsv_conv::fuzz::{self, FuzzOutcome};
use lsv_conv::{
    bench_layer_profiled, validate_with_backend, Algorithm, BackendKind, ConvDesc, ConvProblem,
    Direction, ExecutionMode, KernelConfig, Pass,
};
use lsv_models::{resnet_layer, ResNetModel};
use lsv_serve::{
    best_by_load, cell_outcome, collect_plans, csv_header, csv_row, perfetto_trace_json,
    reference_capacity_rps, run_sweep, run_timeseries, serving_trace_json, ArrivalShape,
    BatchPolicy, LatencyTable, Reconciliation, ServeEngine, SweepConfig, TraceMeta,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Flag groups shared by several subcommands: `name` is a switch,
/// `name=what` takes a value (`what` names it in errors).
const ARCH: &str = "arch=name";
const BACKEND: &str = "backend=name";
const STORE: &str = "no-store store-dir=path";
const PROBLEM: &str = "layer=number ic=number oc=number hw=number k=number stride=number \
                       pad=number minibatch=number dir=name alg=name";

/// The flags each subcommand takes; anything else is a usage error.
fn spec(cmd: &str) -> Vec<&'static str> {
    match cmd {
        "info" => vec![ARCH],
        "bench" => vec![ARCH, PROBLEM, BACKEND, STORE],
        "verify" => vec![ARCH, PROBLEM, BACKEND],
        "tune" => vec![ARCH, PROBLEM, BACKEND, STORE, "metrics"],
        "fuzz" => vec![BACKEND, "cases=number seed=number smoke"],
        "profile" => vec![ARCH, PROBLEM, BACKEND, STORE, "out=path smoke"],
        "serve" => vec![
            ARCH,
            BACKEND,
            STORE,
            "smoke model=name pass=name engine=name arrival=name max-batch=number \
             requests=number seed=number slo=number trace=path metrics",
        ],
        "run" => vec![STORE, "out=path smoke profile all"],
        _ => usage("missing or unknown command"),
    }
}

/// A subcommand's parsed arguments: leading positionals, then flags.
#[derive(Default)]
struct Flags {
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Flags {
    /// Parse `args` against the subcommand's flag spec. A following
    /// `--flag` is never a value, so `--store-dir --smoke` is a missing path
    /// rather than a directory named `--smoke`.
    fn parse(cmd: &str, args: &[String]) -> Self {
        let spec = spec(cmd);
        let mut flags = Flags::default();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                if !flags.values.is_empty() {
                    usage(&format!("unexpected argument '{a}' after the flags"));
                }
                flags.positional.push(a.clone());
                continue;
            };
            let Some((name, what)) = spec
                .iter()
                .flat_map(|group| group.split_whitespace())
                .map(|f| f.split_once('=').unwrap_or((f, "")))
                .find(|&(name, _)| name == key)
            else {
                usage(&format!("`{cmd}` takes no flag --{key}"));
            };
            let value = match (what, it.next_if(|v| !v.starts_with("--"))) {
                ("", None) => String::new(),
                ("", Some(v)) => usage(&format!("--{key} takes no value (got '{v}')")),
                (what, None) => usage(&format!("--{key} requires a {what}")),
                (_, Some(v)) => v.clone(),
            };
            flags.values.insert(name, value);
        }
        flags
    }

    fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A numeric flag, `default` when absent; a malformed value is a usage
    /// error, never a silent default.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{key}: '{v}' is not a valid number"))),
        }
    }
}

fn arch_by_name(name: &str) -> ArchParams {
    match name {
        "sx-aurora" => sx_aurora(),
        "skylake" | "skylake-avx512" => skylake_avx512(),
        "rvv" | "rvv-4096" => rvv_longvector(),
        "a64fx" | "a64fx-sve" => a64fx_sve(),
        other => {
            if let Some(bits) = other.strip_prefix("aurora-vl") {
                let bits: usize = bits
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad vlen in {other}")));
                if bits == 0 || !bits.is_multiple_of(32) {
                    usage(&format!(
                        "bad vlen in {other}: the vector width must be a positive multiple \
                         of 32 bits"
                    ));
                }
                return lsv_arch::presets::aurora_with_vlen_bits(bits);
            }
            usage(&format!("unknown architecture '{other}'"))
        }
    }
}

/// Parse and validate `--backend` (default: the simulator). Subcommands
/// that report time (`bench`, `tune`, `profile`, `serve`) pass
/// `allow_native = false`: the native backend computes values only, so
/// selecting it there is a user error, not a silent fallback.
fn backend_from_flags(flags: &Flags, cmd: &str, allow_native: bool) -> BackendKind {
    let kind = match flags.str("backend") {
        None => BackendKind::Sim,
        Some(v) => v.parse::<BackendKind>().unwrap_or_else(|e| usage(&e)),
    };
    if !allow_native && kind == BackendKind::Native {
        usage(&format!(
            "--backend native is not valid for `{cmd}`: only the simulator models time \
             (cycles, caches, stalls); use --backend sim or drop the flag"
        ));
    }
    kind
}

/// Apply `--no-store` / `--store-dir <path>` before the first store access.
/// Defaults come from the environment (`LSV_STORE`, `LSV_STORE_DIR`,
/// `LSV_STORE_PARANOID`); the flags override it. A store directory that
/// cannot be created is a usage error naming it.
fn configure_store(flags: &Flags) {
    let mut cfg = lsv_conv::StoreConfig::from_env();
    match (flags.has("no-store"), flags.str("store-dir")) {
        (true, Some(_)) => usage("--no-store and --store-dir are mutually exclusive"),
        (true, None) => {
            cfg.disabled = true;
            cfg.dir = None;
        }
        (false, Some(d)) => {
            cfg.disabled = false;
            cfg.dir = Some(PathBuf::from(d));
        }
        (false, None) => {}
    }
    // This runs before anything touches the store, so only the directory
    // can fail.
    lsv_conv::store::configure(cfg).unwrap_or_else(|e| usage(&e));
}

fn direction_by_name(name: Option<&str>) -> Direction {
    match name {
        None | Some("fwdd" | "fwd") => Direction::Fwd,
        Some("bwdd") => Direction::BwdData,
        Some("bwdw") => Direction::BwdWeights,
        Some(other) => usage(&format!("unknown direction '{other}'")),
    }
}

fn engine_by_name(name: Option<&str>) -> Engine {
    match name.map(str::to_ascii_uppercase).as_deref() {
        Some("DC") => Engine::Direct(Algorithm::Dc),
        None | Some("BDC") => Engine::Direct(Algorithm::Bdc),
        Some("MBDC") => Engine::Direct(Algorithm::Mbdc),
        Some("VEDNN") => Engine::Vednn,
        Some(other) => usage(&format!("unknown algorithm '{other}'")),
    }
}

fn problem_from_flags(flags: &Flags, default_mb: usize) -> ConvProblem {
    let mb = flags.num("minibatch", default_mb);
    // Table 3 layers are square with symmetric stride and padding.
    let (ic, oc, hw, k, stride, pad) = if flags.has("layer") {
        let id: usize = flags.num("layer", 0);
        if id >= lsv_models::NUM_LAYERS {
            usage(&format!(
                "--layer must be 0..{}",
                lsv_models::NUM_LAYERS - 1
            ));
        }
        let l = resnet_layer(id, 1);
        (l.ic, l.oc, l.ih, l.kh, l.stride_h, l.pad_h)
    } else {
        let k = flags.num("k", 3);
        (
            flags.num("ic", 64),
            flags.num("oc", 64),
            flags.num("hw", 28),
            k,
            flags.num("stride", 1),
            flags.num("pad", if k > 1 { 1 } else { 0 }),
        )
    };
    ConvProblem::try_new(mb, ic, oc, hw, hw, k, k, stride, stride, pad, pad)
        .unwrap_or_else(|e| usage(&e))
}

/// The generated kernel configuration, one field per line.
fn print_kernel_config(cfg: &KernelConfig) {
    println!("  vl            = {}", cfg.vl);
    println!(
        "  register blk  = {} x {} (combined {}), rb_c = {}",
        cfg.rb.rb_w,
        cfg.rb.rb_h,
        cfg.rb.combined(),
        cfg.rb_c
    );
    println!(
        "  micro tile    = kh {} x kw {} x c {}",
        cfg.tile.kh_i, cfg.tile.kw_i, cfg.tile.c_i
    );
    println!("  src layout    = C_b {}", cfg.src_layout.cb);
    println!("  dst layout    = C_b {}", cfg.dst_layout.cb);
    println!(
        "  wei layout    = (icb {}, ocb {}){}",
        cfg.wei_layout.icb,
        cfg.wei_layout.ocb,
        if cfg.vec_over_ic {
            " [role-swapped]"
        } else {
            ""
        }
    );
    println!("  weight bufs   = {}", cfg.wbuf);
    println!(
        "  conflicts     = {}",
        if cfg.conflicts_predicted {
            "PREDICTED (Formula 3)"
        } else {
            "not predicted"
        }
    );
}

fn report_fuzz(label: &str, out: &FuzzOutcome) {
    println!(
        "  {label}: {} cases, {} skipped (register pressure), {} failures ({:.3}s kernel exec)",
        out.cases_run,
        out.skipped,
        out.failures.len(),
        out.exec_secs,
    );
    for f in &out.failures {
        println!("    FAIL {}: {}", f.case, f.why);
    }
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("usage: lsvconv <info|bench|verify|tune|fuzz|profile|serve|run> [flags]");
    eprintln!("  common flags: --arch <sx-aurora|skylake|rvv|a64fx|aurora-vl<bits>>");
    eprintln!("                --layer <0..18> | --ic N --oc N --hw N --k N --stride N --pad N");
    eprintln!("                --dir <fwdd|bwdd|bwdw>  --alg <DC|BDC|MBDC|vednn>  --minibatch N");
    eprintln!("                --backend <sim|native> (verify/fuzz; native = host-speed");
    eprintln!("                functional execution, bit-identical output, no timing)");
    eprintln!("  store flags:  --no-store | --store-dir DIR (bench/tune/profile/serve/run;");
    eprintln!("                persistent layer-result store, env default LSV_STORE_DIR)");
    eprintln!("  fuzz flags:   --cases N (default 500)  --seed N  --smoke (corpus + 50 cases)");
    eprintln!("  profile:      profile <layer> [--dir D] [--alg A] [--out DIR] [--smoke]");
    eprintln!("                writes profile.json + trace.json (Perfetto) + profile.folded");
    eprintln!("  serve flags:  --model <resnet-50|resnet-101|resnet-152>  --pass <infer|train>");
    eprintln!("                --engine <DC|BDC|MBDC|vednn|tuned>  --max-batch N  --requests N");
    eprintln!("                --seed N  --slo MS  --arrival <poisson|bursty>  --smoke");
    eprintln!("                --trace DIR (write serving_trace.json + Perfetto timeline +");
    eprintln!("                serving_timeseries.csv + metrics.json for the heaviest-load");
    eprintln!("                cell)  --metrics (print the metrics registry; tune too)");
    eprintln!("  run:          run <experiment>... | --all  [--out DIR (default results)]");
    eprintln!("                [--smoke] [--profile]");
    eprintln!("                experiments: {}", names.join(" "));
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or_default();
    let mut flags = Flags::parse(cmd, argv.get(1..).unwrap_or_default());
    let arch = arch_by_name(flags.str("arch").unwrap_or("sx-aurora"));
    let positional = match (cmd, flags.positional.as_slice()) {
        (_, []) | ("run", _) => None,
        ("profile", [layer]) => Some(layer.clone()),
        (_, [first, ..]) => usage(&format!("unexpected argument '{first}'")),
    };

    match cmd {
        "info" => {
            println!("architecture: {}", arch.name);
            println!(
                "  SIMD: {} bits = {} x f32, {} vregs",
                arch.vlen_bits,
                arch.n_vlen(),
                arch.n_vregs
            );
            println!(
                "  FMA:  {} ports x {} lanes, {}-cycle pipelines",
                arch.n_fma, arch.lanes_per_port, arch.l_fma
            );
            println!(
                "  peak: {:.1} GFLOP/s/core, {:.1} GFLOP/s chip ({} cores)",
                arch.peak_flops_per_core() / 1e9,
                arch.peak_flops() / 1e9,
                arch.cores
            );
            println!(
                "  L1D {} KB {}-way | L2 {} KB | LLC {} MB, {} banks",
                arch.l1d.size / 1024,
                arch.l1d.ways,
                arch.l2.size / 1024,
                arch.llc.size / (1024 * 1024),
                arch.llc_banking.banks
            );
            println!(
                "  E (Formula 1) = {}",
                lsv_arch::formula1_required_independent_elems(&arch)
            );
            println!();
            println!(
                "ResNet models: {} layer shapes (Table 3); see `lsvconv bench --layer N`",
                lsv_models::NUM_LAYERS
            );
        }
        "bench" => {
            backend_from_flags(&flags, "bench", false);
            configure_store(&flags);
            let p = problem_from_flags(&flags, 64);
            let dir = direction_by_name(flags.str("dir"));
            let engine = engine_by_name(flags.str("alg"));
            let perf = bench_engine(&arch, &p, dir, engine, ExecutionMode::TimingOnly);
            let r = &perf.report;
            println!("problem:   {p} ({dir}, {})", engine.name());
            println!(
                "time:      {:.3} ms for the whole minibatch on {} cores",
                perf.time_ms, arch.cores
            );
            println!(
                "rate:      {:.1} GFLOP/s ({:.1}% of chip peak)",
                perf.gflops,
                perf.efficiency * 100.0
            );
            println!(
                "L1 MPKI:   {:.2} (conflict fraction {:.2})",
                perf.mpki_l1, perf.conflict_fraction
            );
            println!(
                "predicted: conflicts {}",
                if perf.conflicts_predicted {
                    "YES (Formula 3)"
                } else {
                    "no"
                }
            );
            let cyc = r.cycles.max(1) as f64;
            let stalls = r
                .stall_breakdown()
                .map(|(label, c)| format!("{label} {:.2}", c as f64 / cyc))
                .join(" ");
            println!("stalls:    {stalls} (fraction of slice cycles)");
            println!(
                "counters:  slice cycles {} | insts {} | L1 hit/miss/conflict {}/{}/{} | \
                 L2 misses {} | LLC misses {}",
                r.cycles,
                r.insts.total(),
                r.cache.l1.hits,
                r.cache.l1.misses,
                r.cache.l1.conflict_misses,
                r.cache.l2.misses,
                r.cache.llc.misses,
            );
            if let Engine::Direct(alg) = engine {
                match ConvDesc::new(p, dir, alg).create(&arch, arch.cores) {
                    Ok(prim) => {
                        println!("kernel:");
                        print_kernel_config(prim.cfg());
                    }
                    Err(e) => println!("kernel:    not creatable ({e})"),
                }
            }
        }
        "verify" => {
            let backend = backend_from_flags(&flags, "verify", true);
            configure_store(&flags);
            let p = problem_from_flags(&flags, 2);
            let dir = direction_by_name(flags.str("dir"));
            match engine_by_name(flags.str("alg")) {
                Engine::Direct(alg) => {
                    let r = validate_with_backend(&arch, &p, dir, alg, backend.create().as_ref());
                    println!(
                        "{p} {dir} {alg} [{backend} backend]: {} (rel err {:.3e})",
                        if r.passed { "PASSED" } else { "FAILED" },
                        r.rel_err
                    );
                    if !r.passed {
                        exit(1);
                    }
                }
                Engine::Vednn => usage("use `lsvconv run validate` for vednn checks"),
            }
        }
        "tune" => {
            backend_from_flags(&flags, "tune", false);
            configure_store(&flags);
            let p = problem_from_flags(&flags, 64);
            let dir = direction_by_name(flags.str("dir"));
            let alg = match engine_by_name(flags.str("alg")) {
                Engine::Direct(a) => a,
                Engine::Vednn => usage("tune applies to the direct algorithms"),
            };
            match ConvDesc::new(p, dir, alg).create(&arch, arch.cores) {
                Ok(prim) => {
                    println!("{p} {dir} {alg} on {}:", arch.name);
                    print_kernel_config(prim.cfg());
                    match lsv_conv::tune_empirical(&arch, &p, dir, alg, ExecutionMode::TimingOnly) {
                        Ok(t) => {
                            println!();
                            println!("empirical register-block search (store-backed):");
                            println!(
                                "  candidates    = {} generated, {} unique after dedupe \
                                 ({} redundant evaluations avoided)",
                                t.generated,
                                t.unique,
                                (t.generated + 1).saturating_sub(t.unique)
                            );
                            println!(
                                "  evaluations   = {} store hits + {} simulated, \
                                 {} settled by instruction bound",
                                t.store_hits, t.simulated, t.bounded
                            );
                            println!("  analytic pick = {} chip cycles", t.analytic_cycles);
                            println!(
                                "  best found    = rb {}x{} rb_c {} wbuf {} @ {} chip cycles{}",
                                t.best_cfg.rb.rb_w,
                                t.best_cfg.rb.rb_h,
                                t.best_cfg.rb_c,
                                t.best_cfg.wbuf,
                                t.best_cycles,
                                if t.best_cycles == t.analytic_cycles {
                                    " (= analytic)"
                                } else {
                                    ""
                                }
                            );
                            if flags.has("metrics") {
                                let reg = lsv_obs::registry();
                                t.publish_metrics(reg);
                                lsv_conv::store::store().stats().publish(reg);
                                println!();
                                println!("metrics:");
                                for line in reg.summary_lines() {
                                    println!("  {line}");
                                }
                            }
                        }
                        Err(e) => eprintln!("empirical sweep skipped: {e}"),
                    }
                }
                Err(e) => {
                    eprintln!("cannot create primitive: {e}");
                    exit(1);
                }
            }
        }
        "fuzz" => {
            let backend = backend_from_flags(&flags, "fuzz", true);
            let smoke = flags.has("smoke");
            let cases: usize = flags.num("cases", if smoke { 50 } else { 500 });
            let seed: u64 = flags.num("seed", 1);
            let validator = lsv_analyze::deny_validator;

            println!(
                "replaying seed corpus ({} cases, {backend} backend)...",
                fuzz::seed_corpus().len()
            );
            let corpus = fuzz::run_corpus_backend(&validator, None, backend);
            report_fuzz("corpus", &corpus);

            println!("fuzzing {cases} randomized cases (seed {seed}, {backend} backend)...");
            let random = fuzz::run_fuzz_backend(cases, seed, &validator, None, backend);
            report_fuzz("random", &random);

            if !corpus.clean() || !random.clean() {
                exit(1);
            }
        }
        "profile" => {
            backend_from_flags(&flags, "profile", false);
            configure_store(&flags);
            let smoke = flags.has("smoke");
            // Positional layer id: `lsvconv profile 8` == `--layer 8`.
            if let Some(layer) = positional {
                flags.values.entry("layer").or_insert(layer);
            }
            if smoke && !flags.has("layer") && !flags.has("hw") {
                // A small fixed problem keeps the CI gate fast.
                flags.values.insert("hw", "14".to_string());
            }
            let p = problem_from_flags(&flags, if smoke { 4 } else { 64 });
            let dir = direction_by_name(flags.str("dir"));
            let alg = match engine_by_name(flags.str("alg")) {
                Engine::Direct(a) => a,
                Engine::Vednn => usage("profile applies to the direct algorithms"),
            };
            let (perf, profile) =
                bench_layer_profiled(&arch, &p, dir, alg, ExecutionMode::TimingOnly);

            // Cross-check the profile against the *independently kept* slice
            // report, not just its own embedded totals.
            let reconciliation = lsv_analyze::check_profile_reconciliation(&profile, &perf.report);
            for d in &reconciliation.diagnostics {
                eprintln!("{d}");
            }
            if reconciliation.has_deny() {
                exit(1);
            }

            let meta = profile_meta(&arch, &p, dir, alg.short_name(), &profile);
            let out_dir = flags.str("out").unwrap_or("results/profile");
            let artifacts =
                match write_profile_artifacts(Path::new(out_dir), "profile", &profile, &meta) {
                    Ok(a) => a,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(1);
                    }
                };

            println!("problem: {p} ({dir}, {})", alg.short_name());
            print_profile_summary(&profile, if smoke { 8 } else { 24 });
            println!();
            println!("report:  {} (schema-valid)", artifacts.report.display());
            println!(
                "trace:   {} (load at https://ui.perfetto.dev)",
                artifacts.trace.display()
            );
            println!(
                "folded:  {} (flamegraph.pl input)",
                artifacts.folded.display()
            );
        }
        "serve" => {
            backend_from_flags(&flags, "serve", false);
            configure_store(&flags);
            let smoke = flags.has("smoke");
            let model = match flags.str("model") {
                None | Some("resnet-50") => ResNetModel::R50,
                Some("resnet-101") => ResNetModel::R101,
                Some("resnet-152") => ResNetModel::R152,
                Some(other) => usage(&format!(
                    "unknown model '{other}' (resnet-50|resnet-101|resnet-152)"
                )),
            };
            let pass = match flags.str("pass") {
                None | Some("infer") => Pass::Inference,
                Some("train") => Pass::TrainingStep,
                Some(other) => usage(&format!("unknown pass '{other}' (infer|train)")),
            };
            let engine = match flags.str("engine") {
                None => ServeEngine::Fixed(Algorithm::Bdc),
                Some(name) => ServeEngine::parse(name)
                    .unwrap_or_else(|| usage(&format!("unknown engine '{name}'"))),
            };
            let shape = match flags.str("arrival") {
                None | Some("poisson") => ArrivalShape::Poisson,
                Some("bursty") => ArrivalShape::Bursty {
                    burst: 4.0,
                    period_ms: 200.0,
                },
                Some(other) => usage(&format!("unknown arrival '{other}' (poisson|bursty)")),
            };
            let max_batch: usize = flags.num("max-batch", if smoke { 4 } else { 8 });
            let requests: usize = flags.num("requests", if smoke { 200 } else { 1000 });
            if max_batch == 0 || requests == 0 {
                usage("--max-batch and --requests must be at least 1");
            }
            let seed: u64 = flags.num("seed", 42);
            let trace_dir = flags.str("trace").map(PathBuf::from);
            let metrics = flags.has("metrics");

            let table = LatencyTable::build(
                &arch,
                model,
                pass,
                &[engine],
                max_batch,
                ExecutionMode::TimingOnly,
            );
            let slo_ms = flags.num("slo", 2.0 * table.best(max_batch).1);
            let cfg = SweepConfig {
                shapes: vec![shape],
                policies: vec![
                    BatchPolicy::Adaptive { max_batch },
                    BatchPolicy::Fixed { batch: max_batch },
                    BatchPolicy::Timeout {
                        max_batch,
                        timeout_ms: slo_ms / 2.0,
                    },
                ],
                utilizations: if smoke {
                    vec![0.3, 0.9]
                } else {
                    vec![0.2, 0.5, 0.8, 1.0]
                },
                requests,
                seed,
                slo_ms,
            };

            println!(
                "serving {} {} with engine {} on {} ({} cores)",
                model.name(),
                pass.name(),
                engine.name(),
                arch.name,
                arch.cores
            );
            for b in 1..=max_batch {
                println!(
                    "  batch {b:>2}: {:.3} ms / dispatch",
                    table.latency_ms(0, b)
                );
            }
            println!(
                "  capacity {:.1} rps (back-to-back batch-{max_batch}), SLO {slo_ms:.2} ms",
                reference_capacity_rps(&table)
            );
            println!();
            let rows = run_sweep(&cfg, &table);
            println!("{}", csv_header());
            for r in &rows {
                println!("{}", csv_row(r, cfg.requests, cfg.slo_ms));
            }
            println!();
            for b in best_by_load(&rows) {
                println!(
                    "best @ {} {:.1} rps: {}",
                    b.arrival, b.offered_rps, b.policy
                );
            }

            // The traced cell's artifacts, written together with metrics.json
            // once the store counters are final.
            let mut trace_artifacts = Vec::new();
            if let Some(dir) = &trace_dir {
                let reg = lsv_obs::registry();
                // The traced cell: the configured arrival shape at the
                // heaviest sampled load under the adaptive policy — the cell
                // where batching decisions actually vary.
                let load_idx = cfg.utilizations.len() - 1;
                let policy = cfg.policies[0];
                let (offered_rps, outcome) = cell_outcome(&cfg, &table, 0, load_idx, policy, 0);
                // Per-(layer, direction) breakdown for every distinct
                // dispatched batch size, recomputed by the exact plan the
                // latency table used — bit-identical by construction,
                // asserted by the reconciliation below.
                let plan_for = |batch: usize| {
                    let specs = lsv_serve::resnet_specs(model, batch);
                    engine.plan(&arch, specs, pass, ExecutionMode::TimingOnly)
                };
                let plans = collect_plans(&outcome, &plan_for);
                for (_, p) in &plans {
                    p.publish_metrics(reg);
                }
                outcome.publish_metrics(reg);
                let recon = Reconciliation::compute(&outcome, &plans);
                let meta = TraceMeta {
                    arch: arch.name.clone(),
                    model: model.name().to_string(),
                    pass: pass.name().to_string(),
                    engine: engine.name().to_string(),
                    arrival: shape.name(),
                    policy: policy.name(),
                    utilization: cfg.utilizations[load_idx],
                    offered_rps,
                    seed,
                    slo_ms,
                    max_batch,
                };

                println!();
                if recon.exact {
                    println!(
                        "trace reconciliation: exact ({} requests, {} batches, \
                         wait {:.3} ms, service {:.3} ms)",
                        recon.requests, recon.batches, recon.wait_sum_ms, recon.service_sum_ms
                    );
                } else {
                    eprintln!(
                        "error: trace reconciliation FAILED (service {:?} ms vs layers {:?} ms)",
                        recon.service_sum_ms, recon.layer_sum_ms
                    );
                    exit(1);
                }
                let (_, ts_csv) = run_timeseries(&cfg, &table, 0);
                trace_artifacts = vec![
                    Artifact::new(
                        dir.join("serving_trace.json"),
                        serving_trace_json(&meta, &outcome, &plans, &recon),
                    ),
                    Artifact::new(
                        dir.join("serving_trace.perfetto.json"),
                        perfetto_trace_json(&meta, &outcome, &plans),
                    ),
                    Artifact::new(dir.join("serving_timeseries.csv"), ts_csv),
                ];
            }

            let st = lsv_conv::store::store().stats();
            eprintln!(
                "store: {} mem hits, {} disk hits, {} misses, {} inserts",
                st.mem_hits, st.disk_hits, st.misses, st.inserts
            );
            if trace_dir.is_some() || metrics {
                // One registry, one publication: everything the run touched
                // (queue + runner via the trace block, the store here).
                let reg = lsv_obs::registry();
                st.publish(reg);
                reg.gauge_set(
                    "store.disk_bytes",
                    lsv_conv::store::store().disk_bytes() as f64,
                );
            }
            if let Some(dir) = &trace_dir {
                trace_artifacts.push(Artifact::new(
                    dir.join("metrics.json"),
                    lsv_obs::registry().to_json("lsvconv serve"),
                ));
                if let Err(e) = write_artifacts(&trace_artifacts) {
                    eprintln!("error: {e}");
                    exit(1);
                }
                for a in &trace_artifacts {
                    let checked = if a.validate.is_some() {
                        " (schema-valid)"
                    } else {
                        ""
                    };
                    println!("wrote {}{checked}", a.path.display());
                }
            }
            if metrics {
                println!();
                println!("metrics:");
                for line in lsv_obs::registry().summary_lines() {
                    println!("  {line}");
                }
            }
        }
        "run" => {
            configure_store(&flags);
            let selected: Vec<&experiments::Experiment> =
                match (flags.has("all"), &flags.positional[..]) {
                    (true, []) => EXPERIMENTS.iter().filter(|e| e.in_all).collect(),
                    (true, _) => usage("--all takes no experiment names"),
                    (false, []) => usage("run needs experiment names or --all"),
                    (false, names) => names
                        .iter()
                        .map(|n| {
                            experiments::find(n)
                                .unwrap_or_else(|| usage(&format!("unknown experiment '{n}'")))
                        })
                        .collect(),
                };
            let ctx = Ctx {
                out_dir: PathBuf::from(flags.str("out").unwrap_or("results")),
                smoke: flags.has("smoke"),
                profile: flags.has("profile"),
            };
            if let Err(e) = experiments::run(&selected, &ctx) {
                eprintln!("error: {e}");
                exit(1);
            }
        }
        _ => usage("missing or unknown command"),
    }
}
