//! `lsvbench` — the repository benchmark.
//!
//! ```text
//! lsvbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|DIR]
//!          [--json PATH] [--smoke]
//! lsvbench run <name>|--all  (same flags)
//! lsvbench repeat --runs N [--workload <name|all>] [--seconds S]
//! lsvbench bless
//! ```
//!
//! A run prints every metric as `workload metric value unit`, then, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! `--trace 1` (or a directory) runs the same workload with spans and
//! reports the per-layer metrics instead, writing
//! `<workload>.perfetto.json` and `<workload>.layers.json` to the trace
//! directory (default `.lsvbench/trace`). The exit status is 1 when any
//! item failed; the metrics are written first. See README.md.

mod golden;
mod report;
mod run;
mod trace;
mod workload;

use report::Metric;
use run::{run_workload, RunOpts, RunResult, TmpDir};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;
use workload::Workload;

/// Scratch and output root, relative to the working directory (the
/// checkout root when run through `BENCHMARK.json`).
const ROOT: &str = ".lsvbench";
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ! {
    eprintln!(
        "usage: lsvbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|DIR] \
         [--json PATH] [--smoke]\n       lsvbench run <name>|--all [same flags]\n       \
         lsvbench repeat --runs N [--workload <name|all>] [--seconds S]\n       \
         lsvbench bless\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    exit(2)
}

/// Parsed flags: `--name value` pairs and bare `--name` switches.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Flags without a value; `--traced` is the worker form of `--trace`.
const SWITCHES: [&str; 3] = ["--smoke", "--all", "--traced"];

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        values: Vec::new(),
        switches: Vec::new(),
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if SWITCHES.contains(&a.as_str()) {
            f.switches.push(a.clone());
        } else if let Some(name) = a.strip_prefix("--") {
            let Some(v) = args.get(i + 1) else {
                eprintln!("error: --{name} needs a value");
                usage()
            };
            f.values.push((a.clone(), v.clone()));
            i += 1;
        } else {
            f.positional.push(a.clone());
        }
        i += 1;
    }
    f
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: bad value {v:?} for {name}");
                usage()
            }),
        }
    }

    fn check_known(&self, allowed: &[&str]) {
        for (k, _) in &self.values {
            if !allowed.contains(&k.as_str()) {
                eprintln!("error: unknown flag {k}");
                usage();
            }
        }
    }
}

fn workloads_from(name: Option<&str>, all: bool) -> Vec<Workload> {
    match name {
        _ if all => Workload::ALL.to_vec(),
        Some("all") => Workload::ALL.to_vec(),
        Some(n) => vec![Workload::parse(n).unwrap_or_else(|| {
            eprintln!("error: unknown workload {n:?}");
            usage()
        })],
        None => usage(),
    }
}

/// Pin this process (and every worker it spawns) to the CPU it runs on, so
/// the library's thread pools size themselves to one worker thread: on a
/// small host, two simulation threads measure the scheduler more than the
/// program.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return;
    }
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    mask[cpu as usize / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized 128-byte buffer whose size is
    // passed alongside it; pid 0 is this thread, and the kernel only reads
    // the buffer. A failure leaves the affinity unchanged, which is safe.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let f = parse_flags(&args);
    let sub = f.positional.first().map(String::as_str);
    match sub {
        Some("worker") => {
            f.check_known(&["--seed", "--store", "--pass", "--round"]);
            let w = workloads_from(f.positional.get(1).map(String::as_str), false)[0];
            let store = PathBuf::from(f.get("--store").unwrap_or_else(|| usage()));
            workload::run_worker(
                &workload::WorkerOpts {
                    workload: w,
                    seed: f.num("--seed", 1),
                    pass: f.num("--pass", 0),
                    round: f.num("--round", 0),
                    store_dir: &store,
                    trace: f.has("--traced"),
                    smoke: f.has("--smoke"),
                },
                t0,
            );
        }
        Some("replay") => {
            f.check_known(&["--seed", "--store"]);
            let store = PathBuf::from(f.get("--store").unwrap_or_else(|| usage()));
            workload::run_replay(
                &store,
                f.num("--seed", 1),
                f.has("--traced"),
                f.has("--smoke"),
                t0,
            );
        }
        Some("bless") => {
            pin_to_one_cpu();
            exit(bless());
        }
        Some("repeat") => {
            pin_to_one_cpu();
            f.check_known(&["--runs", "--workload", "--seconds"]);
            let ws = workloads_from(Some(f.get("--workload").unwrap_or("all")), false);
            exit(repeat(
                &ws,
                f.num("--runs", 5),
                f.num("--seconds", DEFAULT_SECONDS),
            ));
        }
        None | Some("run") => {
            pin_to_one_cpu();
            f.check_known(&["--workload", "--seed", "--seconds", "--trace", "--json"]);
            let name = f
                .get("--workload")
                .or(f.positional.get(1).map(String::as_str));
            let ws = workloads_from(name, f.has("--all"));
            let trace_dir = match f.get("--trace") {
                None | Some("0") => None,
                Some("1") => Some(Path::new(ROOT).join("trace")),
                Some(dir) => Some(PathBuf::from(dir)),
            };
            let seconds: f64 = f.num("--seconds", DEFAULT_SECONDS);
            if seconds.is_nan() || seconds <= 0.0 {
                eprintln!("error: --seconds must be positive");
                usage();
            }
            let opts = RunOpts {
                seed: f.num("--seed", 1),
                seconds,
                trace: trace_dir.is_some(),
                smoke: f.has("--smoke"),
                check_golden: true,
            };
            exit(run_cli(&ws, &opts, trace_dir.as_deref(), f.get("--json")));
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            usage()
        }
    }
}

/// Run one workload, turning a panic in the orchestration itself into a
/// counted failure.
fn run_guarded(w: Workload, opts: &RunOpts, tmp: &Path) -> RunResult {
    catch_unwind(AssertUnwindSafe(|| run_workload(w, opts, tmp))).unwrap_or_else(|p| RunResult {
        failures: vec![format!("benchmark panicked: {}", workload::panic_text(&*p))],
        ..RunResult::default()
    })
}

fn tmp_dir() -> TmpDir {
    TmpDir::create(Path::new(ROOT)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    })
}

fn run_cli(ws: &[Workload], opts: &RunOpts, trace_dir: Option<&Path>, json: Option<&str>) -> i32 {
    let tmp = tmp_dir();
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut docs: Vec<String> = Vec::new();
    let mut combined: Vec<(String, Metric)> = Vec::new();
    for &w in ws {
        let r = run_guarded(w, opts, &tmp.0);
        let metrics = if opts.trace {
            report::per_layer(&r)
        } else {
            let (metrics, tail) = report::end_to_end(&r);
            eprintln!(
                "# {}: {} items in {} pass(es), item_ms_tail = p{tail}",
                w.name(),
                r.items.len(),
                r.passes
            );
            metrics
        };
        for x in &metrics {
            println!(
                "{} {} {} {}",
                w.name(),
                x.name,
                lsv_obs::json_f64(x.value),
                x.unit
            );
        }
        if let Some(dir) = trace_dir {
            if let Err(e) = write_trace(dir, w, &r, &metrics) {
                eprintln!("error: {e}");
                all_ok = false;
            }
        }
        for why in &r.failures {
            eprintln!("FAIL {}: {why}", w.name());
        }
        let doc = report::result_json(&r, &metrics);
        all_ok &= doc.starts_with("{\"correct\": true");
        attempted += r.attempted;
        failed += r.failed();
        docs.push(format!("\"{}\": {doc}", w.name()));
        combined.extend(metrics.into_iter().map(|x| (w.name().to_string(), x)));
    }
    if let Some(path) = json {
        let doc = format!("{{\"workloads\": {{{}}}}}\n", docs.join(", "));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            all_ok = false;
        }
    }
    let metrics: Vec<String> = combined
        .iter()
        .map(|(w, x)| {
            let name = if ws.len() == 1 {
                x.name.to_string()
            } else {
                format!("{w}.{}", x.name)
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                lsv_obs::json_f64(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {all_ok}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if all_ok {
        0
    } else {
        1
    }
}

fn write_trace(dir: &Path, w: Workload, r: &RunResult, metrics: &[Metric]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("{}.perfetto.json", w.name()),
        report::perfetto_json(w.name(), r),
    )?;
    write(
        format!("{}.layers.json", w.name()),
        format!(
            "{{\"workload\": \"{}\", \"metrics\": {}, \"reconciliation\": {}}}\n",
            w.name(),
            report::metrics_json(metrics),
            report::reconciliation(r)
        ),
    )
}

/// `repeat`: run every workload `runs` times, interleaved, with seeds
/// 1..=runs, and print min, median, max and the quartile spread
/// (`(q3 - q1) / median`) of each end-to-end metric.
fn repeat(ws: &[Workload], runs: usize, seconds: f64) -> i32 {
    let tmp = tmp_dir();
    let mut values: Vec<Vec<Vec<f64>>> = vec![Vec::new(); ws.len()];
    let mut names: Vec<Vec<&'static str>> = vec![Vec::new(); ws.len()];
    let mut ok = true;
    for run in 0..runs {
        for (wi, &w) in ws.iter().enumerate() {
            let opts = RunOpts {
                seed: run as u64 + 1,
                seconds,
                trace: false,
                smoke: false,
                check_golden: true,
            };
            let r = run_guarded(w, &opts, &tmp.0);
            ok &= r.failures.is_empty() && r.attempted > 0;
            let (metrics, _) = report::end_to_end(&r);
            names[wi] = metrics.iter().map(|x| x.name).collect();
            values[wi].resize(metrics.len(), Vec::new());
            for (slot, x) in values[wi].iter_mut().zip(&metrics) {
                slot.push(x.value);
            }
            eprintln!("# run {} {}: done", run + 1, w.name());
        }
    }
    println!("workload metric min median max spread");
    for (wi, w) in ws.iter().enumerate() {
        for (name, v) in names[wi].iter().zip(&values[wi]) {
            let med = report::median(v);
            let spread = if v.len() >= 2 {
                let q = report::quartiles(v);
                (q[2] - q[0]) / med
            } else {
                0.0
            };
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            println!("{} {name} {min:.6} {med:.6} {max:.6} {spread:.4}", w.name());
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// `bless`: run one pass of each grid workload and write its golden
/// ledger into the `golden/` directory next to this file. Refuses when any
/// item fails or a row differs from the committed `results/` artifact.
fn bless() -> i32 {
    let tmp = tmp_dir();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/lsvbench/golden");
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        check_golden: false,
    };
    for w in Workload::ALL.into_iter().filter(|w| w.is_grid()) {
        let r = run_guarded(w, &opts, &tmp.0);
        if !r.failures.is_empty() || r.failed() > 0 || r.attempted == 0 {
            for why in &r.failures {
                eprintln!("FAIL {}: {why}", w.name());
            }
            eprintln!("bless refused: {} has failures", w.name());
            return 1;
        }
        let ledger: golden::Ledger = r
            .items
            .iter()
            .map(|i| (i.key.clone(), i.golden.clone()))
            .collect();
        let path = dir.join(format!("{}.tsv", w.name()));
        if let Err(e) = std::fs::write(&path, golden::write_tsv(w, &ledger)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {} ({} rows)", path.display(), ledger.len());
    }
    0
}
