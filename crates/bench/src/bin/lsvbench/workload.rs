//! The five workloads: what one item is, how items are ordered from the
//! seed, and how a worker process executes them.
//!
//! Every item is one timed call into a public function of `lsv-conv`,
//! `lsv-vednn`, `lsv-serve`, `lsv-analyze` or `lsv-models`. A *pass* is the
//! unit of work one worker process runs against its own freshly configured
//! layer store, so every pass of a cold workload is cold.

use crate::trace::{Tracer, CALL, ITEM, PROBE};
use lsv_arch::{presets::sx_aurora, ArchParams};
use lsv_conv::{
    fuzz, naive, store, Algorithm, BackendKind, ConvDesc, ConvProblem, Direction, ExecutionMode,
    KernelConfig, StoreConfig,
};
use lsv_models::{resnet_layers, ResNetModel};
use lsv_serve::{
    run_sweep, ArrivalShape, BatchPolicy, LatencyTable, ServeEngine, SplitMix64, SweepConfig,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

const MODE: ExecutionMode = ExecutionMode::TimingOnly;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4 grid of every third Table 3 layer, N=256, fresh disk
    /// store: cold simulation plus store writes.
    SweepCold,
    /// Empirical tuner over Table 3 layers 11, 13, 15 and 17, N=8,
    /// in-memory store.
    TuneCold,
    /// Functional validation of every third Table 3 layer against the
    /// naive reference, N=1.
    ValidateFunctional,
    /// One seeded fuzz case per item on tiny irregular shapes.
    FuzzSmall,
    /// Warm store replay plus the serving sweep, one process per item.
    ReplayWarm,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::SweepCold,
        Workload::TuneCold,
        Workload::ValidateFunctional,
        Workload::FuzzSmall,
        Workload::ReplayWarm,
    ];

    /// Name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::TuneCold => "tune_cold",
            Workload::ValidateFunctional => "validate_functional",
            Workload::FuzzSmall => "fuzz_small",
            Workload::ReplayWarm => "replay_warm",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds one round of one pass takes on the reference host
    /// (2 vCPUs, one worker thread). A run makes
    /// `max(1, floor(seconds / (ROUNDS * this)))` passes, so the work of a
    /// run is fixed for a given `--seconds` and two commits are always
    /// compared on identical work.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::SweepCold => 3.2,
            Workload::TuneCold => 6.5,
            Workload::ValidateFunctional => 5.4,
            Workload::FuzzSmall => 0.25,
            Workload::ReplayWarm => 0.55,
        }
    }

    /// Items in one pass.
    pub fn pass_items(self, smoke: bool) -> usize {
        match self {
            Workload::SweepCold | Workload::TuneCold | Workload::ValidateFunctional => {
                grid_items(self, smoke).len()
            }
            Workload::FuzzSmall => {
                if smoke {
                    40
                } else {
                    FUZZ_CASES_PER_PASS
                }
            }
            Workload::ReplayWarm => {
                if smoke {
                    4
                } else {
                    REPLAYS_PER_PASS
                }
            }
        }
    }

    /// Whether the items are a fixed grid checked against the golden ledger.
    pub fn is_grid(self) -> bool {
        matches!(
            self,
            Workload::SweepCold | Workload::TuneCold | Workload::ValidateFunctional
        )
    }
}

// Small fuzz passes: each worker's peak RSS depends on its cases, so the
// median over many workers is what repeats.
const FUZZ_CASES_PER_PASS: usize = 250;
const REPLAYS_PER_PASS: usize = 100;

/// Every pass runs in this many rounds, each in its own worker process on
/// its own fresh store, and an item's time is its fastest round. The host's
/// speed drifts by tens of percent within seconds; the fastest of three
/// cold executions repeats far better than any single one.
pub const ROUNDS: usize = 3;

/// `splitmix(seed, i)`: the `i+1`-th output of the SplitMix64 stream seeded
/// with `seed`, i.e. an independent 64-bit value per index.
pub fn splitmix(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).next_u64()
}

/// Engine of a grid item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The vednn-style baseline.
    Vednn,
    /// One of the paper's direct algorithms.
    Direct(Algorithm),
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Vednn => "vednn",
            Engine::Direct(a) => a.short_name(),
        }
    }
}

/// One item of a grid workload: a (Table 3 layer, direction, engine) point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridItem {
    /// Table 3 layer id.
    pub layer: usize,
    /// Pass direction.
    pub dir: Direction,
    /// Engine or algorithm.
    pub engine: Engine,
}

impl GridItem {
    /// Stable key, used by the golden ledger: `layer.dir.engine`.
    pub fn key(&self) -> String {
        format!(
            "{}.{}.{}",
            self.layer,
            self.dir.short_name(),
            self.engine.name()
        )
    }

    fn algorithm(&self) -> Option<Algorithm> {
        match self.engine {
            Engine::Vednn => None,
            Engine::Direct(a) => Some(a),
        }
    }
}

const DIRECT: [Engine; 3] = [
    Engine::Direct(Algorithm::Dc),
    Engine::Direct(Algorithm::Bdc),
    Engine::Direct(Algorithm::Mbdc),
];
const WITH_VEDNN: [Engine; 4] = [
    Engine::Vednn,
    Engine::Direct(Algorithm::Dc),
    Engine::Direct(Algorithm::Bdc),
    Engine::Direct(Algorithm::Mbdc),
];

/// Minibatch of a grid workload's problems.
fn minibatch(w: Workload) -> usize {
    match w {
        Workload::SweepCold => 256,
        Workload::TuneCold => 8,
        _ => 1,
    }
}

/// The canonical (unshuffled) items of a grid workload. Each grid is a
/// strided subset of its full sweep, so every ResNet stage is in it and its
/// mean item cost stays near the full sweep's (README.md has the measured
/// per-layer costs): every third Table 3 layer for the sweep and the
/// validation, layers 11, 13, 15 and 17 of the tuner's serving grid
/// (11-18). `--smoke` keeps one forward group.
pub fn grid_items(w: Workload, smoke: bool) -> Vec<GridItem> {
    let (layers, engines): (std::iter::StepBy<std::ops::Range<usize>>, &[Engine]) = match w {
        Workload::SweepCold => ((0..19).step_by(3), &WITH_VEDNN),
        Workload::TuneCold => ((11..19).step_by(2), &DIRECT),
        Workload::ValidateFunctional => ((0..19).step_by(3), &DIRECT),
        _ => return Vec::new(),
    };
    let smoke_layer = layers.clone().next_back().expect("a grid has layers");
    let mut items = Vec::new();
    for layer in layers {
        for dir in Direction::ALL {
            if smoke && (layer != smoke_layer || dir != Direction::Fwd) {
                continue;
            }
            for &engine in engines {
                items.push(GridItem { layer, dir, engine });
            }
        }
    }
    items
}

/// Item order of one round of one pass. Round 0 keeps the canonical order,
/// so its allocation sequence, and with it its peak RSS, is the same on
/// every run. Later rounds shuffle whole (layer, direction) groups by seed
/// while the engines keep their order inside a group: the validate sweep
/// shares one naive reference per group, so this keeps the multiset of
/// item costs, and with it every per-item statistic, independent of the
/// seed.
pub fn ordered(items: &[GridItem], seed: u64, pass: u64, round: u64) -> Vec<GridItem> {
    if round == 0 {
        return items.to_vec();
    }
    let mut groups: Vec<Vec<GridItem>> = Vec::new();
    for it in items {
        match groups.last_mut() {
            Some(g) if g[0].layer == it.layer && g[0].dir == it.dir => g.push(*it),
            _ => groups.push(vec![*it]),
        }
    }
    let mut rng = SplitMix64::new(splitmix(splitmix(seed, pass), round));
    for i in (1..groups.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        groups.swap(i, j);
    }
    groups.into_iter().flatten().collect()
}

/// What one item's calls produced.
pub struct Outcome {
    /// Whether the calls returned a correct result.
    pub ok: bool,
    /// Values compared against the golden ledger.
    pub golden: Vec<String>,
    /// The item's row formatted like the committed artifact, if any.
    pub xcheck: Option<String>,
    /// Failure reason (empty when `ok`).
    pub note: String,
}

impl Outcome {
    fn pass(golden: Vec<String>, xcheck: Option<String>) -> Self {
        Outcome {
            ok: true,
            golden,
            xcheck,
            note: String::new(),
        }
    }

    fn fail(note: String) -> Self {
        Outcome {
            ok: false,
            golden: Vec::new(),
            xcheck: None,
            note,
        }
    }

    /// One tab-separated `item` line: index, key, ok, host ns without
    /// probes, golden values, artifact row, failure reason.
    pub fn line(&self, idx: usize, key: &str, dur_ns: u64) -> String {
        let or_dash = |s: &str| {
            if s.is_empty() {
                "-".to_string()
            } else {
                s.to_string()
            }
        };
        format!(
            "item\t{idx}\t{key}\t{}\t{dur_ns}\t{}\t{}\t{}",
            self.ok as u8,
            or_dash(&self.golden.join(" ")),
            or_dash(self.xcheck.as_deref().unwrap_or("")),
            or_dash(&self.note)
        )
    }
}

/// Options of one worker process.
pub struct WorkerOpts<'a> {
    /// Workload whose pass to run.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Pass index within the run.
    pub pass: u64,
    /// Round of the pass (reorders a grid pass).
    pub round: u64,
    /// Directory for this worker's disk store (used by `sweep_cold`).
    pub store_dir: &'a Path,
    /// Record spans and run the probes.
    pub trace: bool,
    /// Reduced item lists.
    pub smoke: bool,
}

/// Run one pass in this process, writing the wire protocol to stdout:
/// `ready`, one `item` line per item, `span` lines, then `done`.
pub fn run_worker(o: &WorkerOpts, t0: Instant) {
    // Explicit store setup: an LSV_STORE* variable in the environment can
    // never turn a cold pass warm.
    let dir = (o.workload == Workload::SweepCold).then(|| o.store_dir.to_path_buf());
    store::configure(StoreConfig {
        disabled: false,
        dir,
        paranoid_pct: 0,
    })
    .expect("the store is configured before its first use");
    let st = store::store();
    let arch = sx_aurora();
    let tracer = Tracer::new(o.trace, t0);
    let grid = ordered(&grid_items(o.workload, o.smoke), o.seed, o.pass, o.round);
    let n = if o.workload.is_grid() {
        grid.len()
    } else {
        o.workload.pass_items(o.smoke)
    };
    println!("ready");
    let mut out = String::new();
    for idx in 0..n {
        tracer.set_item(idx);
        // Grid workloads walk their grid; fuzz items are case indices.
        let case = o.pass * n as u64 + idx as u64;
        let key = grid
            .get(idx)
            .map_or_else(|| format!("case{case}"), GridItem::key);
        let probes_before = tracer.probe_ns();
        let start = Instant::now();
        let (res, item_span) = tracer.span(ITEM, &key, || {
            catch_unwind(AssertUnwindSafe(|| match grid.get(idx) {
                Some(it) => grid_item(o.workload, &arch, it, &tracer),
                None => fuzz_item(&tracer, splitmix(o.seed, case)),
            }))
        });
        let outcome = res.unwrap_or_else(|p| Outcome::fail(format!("panic: {}", panic_text(&*p))));
        let dur_ns =
            (start.elapsed().as_nanos() as u64).saturating_sub(tracer.probe_ns() - probes_before);
        tracer.args(item_span, &[("ok", (outcome.ok as u8).to_string())]);
        writeln!(out, "{}", outcome.line(idx, &key, dur_ns)).expect("writing to a String");
    }
    for s in tracer.take() {
        writeln!(out, "{}", s.to_line()).expect("writing to a String");
    }
    print!("{out}");
    print_done(st, t0);
}

/// The closing `done` line: peak RSS (kB), ns since process start, bytes in
/// the on-disk store, then the process's store misses and inserts (a warm
/// replay must show none).
fn print_done(st: &lsv_conv::LayerStore, t0: Instant) {
    let s = st.stats();
    println!(
        "done\t{}\t{}\t{}\t{}\t{}",
        vm_hwm_kb(),
        t0.elapsed().as_nanos(),
        st.disk_bytes(),
        s.misses,
        s.inserts
    );
}

/// Text of a caught panic payload.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
        .replace(['\t', '\n'], " ")
}

/// Peak resident set of this process (`VmHWM`), in kB.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Traced-run probe: time `ConvDesc::create` on the item's problem.
fn primitive_probe(
    tracer: &Tracer,
    arch: &ArchParams,
    p: ConvProblem,
    cfg: (Direction, Algorithm),
    threads: usize,
) {
    if tracer.on() {
        tracer.span(PROBE, "primitive.ConvDesc::create", || {
            std::hint::black_box(ConvDesc::new(p, cfg.0, cfg.1).create(arch, threads).is_ok())
        });
    }
}

/// Store traffic of one call as span arguments.
fn store_args(d: &lsv_conv::StoreStats) -> [(&'static str, String); 4] {
    [
        ("lookups", (d.hits() + d.misses).to_string()),
        ("hits", d.hits().to_string()),
        ("misses", d.misses.to_string()),
        ("inserts", d.inserts.to_string()),
    ]
}

fn grid_item(w: Workload, arch: &ArchParams, it: &GridItem, tracer: &Tracer) -> Outcome {
    let p = resnet_layers(minibatch(w))[it.layer];
    let st = store::store();
    let before = st.stats();
    match w {
        Workload::SweepCold => {
            let perf = perf_call(arch, &p, it.dir, it.engine, tracer);
            Outcome::pass(
                vec![
                    perf.cycles.to_string(),
                    perf.report.insts.total().to_string(),
                ],
                Some(format!(
                    "{},{},{},{},{:.1},{:.3},{:.3},{:.3},{:.3},{}",
                    it.layer,
                    it.dir.short_name(),
                    it.engine.name(),
                    p.n,
                    perf.gflops,
                    perf.time_ms,
                    perf.efficiency,
                    perf.mpki_l1,
                    perf.conflict_fraction,
                    perf.conflicts_predicted
                )),
            )
        }
        Workload::TuneCold => {
            let a = it.algorithm().expect("tune items are direct algorithms");
            let (res, id) = tracer.span(CALL, "tuner.tune_empirical", || {
                lsv_conv::tune_empirical(arch, &p, it.dir, a, MODE)
            });
            let d = st.stats().delta(&before);
            tracer.args(id, &store_args(&d));
            primitive_probe(tracer, arch, p, (it.dir, a), arch.cores.max(1));
            match res {
                Ok(r) => {
                    tracer.args(
                        id,
                        &[
                            ("generated", r.generated.to_string()),
                            ("unique", r.unique.to_string()),
                            ("simulated", r.simulated.to_string()),
                            (
                                "improved",
                                ((r.best_cycles < r.analytic_cycles) as u8).to_string(),
                            ),
                            ("cycles", r.best_cycles.to_string()),
                        ],
                    );
                    Outcome::pass(
                        vec![
                            r.best_cycles.to_string(),
                            r.analytic_cycles.to_string(),
                            r.generated.to_string(),
                            r.unique.to_string(),
                        ],
                        None,
                    )
                }
                Err(e) => Outcome::fail(format!("unsupported: {e}")),
            }
        }
        Workload::ValidateFunctional => {
            let a = it
                .algorithm()
                .expect("validate items are direct algorithms");
            let (r, id) = tracer.span(CALL, "verify.validate", || {
                lsv_conv::validate(arch, &p, it.dir, a)
            });
            let d = st.stats().delta(&before);
            tracer.args(id, &store_args(&d));
            tracer.args(id, &[("passed", (r.passed as u8).to_string())]);
            primitive_probe(tracer, arch, p, (it.dir, a), 1);
            // `validate` computes one naive reference per (layer, direction)
            // group, so the probe times one per group too.
            if tracer.on() && it.engine == DIRECT[0] {
                tracer.span(PROBE, "naive.probe", || naive_probe(tracer, &p, it.dir));
            }
            Outcome {
                ok: r.passed,
                golden: vec![
                    format!("{:08x}", r.rel_err.to_bits()),
                    (r.passed as u8).to_string(),
                ],
                xcheck: Some(format!(
                    "{},{},{},{},{:.2e},{}",
                    it.layer,
                    it.dir.short_name(),
                    a.short_name(),
                    p.n,
                    r.rel_err,
                    if r.passed { "passed" } else { "failed" }
                )),
                note: if r.passed {
                    String::new()
                } else {
                    format!("validation failed: rel_err {:e}", r.rel_err)
                },
            }
        }
        _ => unreachable!("not a grid workload"),
    }
}

fn perf_args(perf: &lsv_conv::LayerPerf, simulated: bool) -> [(&'static str, String); 6] {
    [
        ("sim", (simulated as u8).to_string()),
        ("cycles", perf.cycles.to_string()),
        ("slice_cycles", perf.report.cycles.to_string()),
        ("insts", perf.report.insts.total().to_string()),
        ("l1_mpki", lsv_obs::json_f64(perf.mpki_l1)),
        ("conflict_frac", lsv_obs::json_f64(perf.conflict_fraction)),
    ]
}

/// `bench_layer` or `bench_layer_vednn` in a `perf` span that carries the
/// call's store traffic and simulated counts, then the primitive probe.
fn perf_call(
    arch: &ArchParams,
    p: &ConvProblem,
    dir: Direction,
    engine: Engine,
    tracer: &Tracer,
) -> lsv_conv::LayerPerf {
    let st = store::store();
    let before = st.stats();
    let (perf, id) = match engine {
        Engine::Vednn => tracer.span(CALL, "perf.bench_layer_vednn", || {
            lsv_vednn::bench_layer_vednn(arch, p, dir, MODE)
        }),
        Engine::Direct(a) => tracer.span(CALL, "perf.bench_layer", || {
            lsv_conv::bench_layer(arch, p, dir, a, MODE)
        }),
    };
    let d = st.stats().delta(&before);
    tracer.args(id, &store_args(&d));
    tracer.args(id, &perf_args(&perf, d.misses > 0));
    if let Engine::Direct(a) = engine {
        primitive_probe(tracer, arch, *p, (dir, a), arch.cores.max(1));
    }
    perf
}

/// Traced-run probe: time the naive reference of the item's problem on
/// seeded operands (the generation is outside the `naive.*` span).
fn naive_probe(tracer: &Tracer, p: &ConvProblem, dir: Direction) {
    let mut rng = SplitMix64::new(p.macs());
    let mut gen =
        |n: usize| -> Vec<f32> { (0..n).map(|_| rng.unit_f64() as f32 * 2.0 - 1.0).collect() };
    let src = gen(p.n * p.ic * p.ih * p.iw);
    let wei = gen(p.oc * p.ic * p.kh * p.kw);
    let dst = gen(p.n * p.oc * p.oh() * p.ow());
    let (out, _) = match dir {
        Direction::Fwd => tracer.span(CALL, "naive.forward", || naive::forward(p, &src, &wei)),
        Direction::BwdData => tracer.span(CALL, "naive.backward_data", || {
            naive::backward_data(p, &dst, &wei)
        }),
        Direction::BwdWeights => tracer.span(CALL, "naive.backward_weights", || {
            naive::backward_weights(p, &src, &dst)
        }),
    };
    std::hint::black_box(out);
}

fn fuzz_item(tracer: &Tracer, case_seed: u64) -> Outcome {
    // The lint hook `run_fuzz_backend` takes, wrapped so the traced run sees
    // each `deny_validator` call (and probes primitive creation on the
    // case's problem, which only the hook gets to see).
    let lint = |arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig| -> Result<(), String> {
        primitive_probe(tracer, arch, *p, (cfg.direction, cfg.algorithm), 1);
        tracer
            .span(CALL, "analyze.deny_validator", || {
                lsv_analyze::deny_validator(arch, p, cfg)
            })
            .0
    };
    let (out, id) = tracer.span(CALL, "fuzz.run_fuzz_backend", || {
        fuzz::run_fuzz_backend(1, case_seed, &lint, None, BackendKind::Sim)
    });
    tracer.args(
        id,
        &[
            ("cases", out.cases_run.to_string()),
            ("skipped", out.skipped.to_string()),
            ("failures", out.failures.len().to_string()),
            ("exec_ns", ((out.exec_secs * 1e9) as u64).to_string()),
        ],
    );
    match out.failures.first() {
        Some(f) => Outcome::fail(format!("{}: {}", f.case, f.why).replace(['\t', '\n'], " ")),
        None if out.cases_run != 1 => Outcome::fail(format!("{} cases ran", out.cases_run)),
        None => Outcome::pass(Vec::new(), None),
    }
}

/// Minibatch of the replayed grid and largest batch of the latency table:
/// the serving batch size. Up to 8 images the 8-core model simulates one
/// image per core, so one set of slices serves every batch size.
const REPLAY_MINIBATCH: usize = 8;

/// What `replay_warm` replays: a Figure-4-style forward grid at the serving
/// batch size plus the ResNet-50 inference latency table, then the seeded
/// serving sweep over that table.
struct ReplaySpec {
    layers: std::ops::RangeInclusive<usize>,
    dirs: &'static [Direction],
    max_batch: usize,
    requests: usize,
}

impl ReplaySpec {
    /// The full spec, or the `--smoke` one.
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                layers: 18..=18,
                dirs: &[Direction::Fwd],
                max_batch: 2,
                requests: 100,
            }
        } else {
            // Forward only: serving runs inference, and the backward
            // directions would triple the cold fill that `setup_s` repeats.
            Self {
                layers: 11..=18,
                dirs: &[Direction::Fwd],
                max_batch: REPLAY_MINIBATCH,
                requests: 1000,
            }
        }
    }
}

/// Replay (or, against an empty store, cold-fill) the serving data: the
/// grid through `bench_layer`/`bench_layer_vednn`, the latency table, then
/// `run_sweep` with arrival streams seeded by `seed`. Prints `ready`,
/// one `item` line whose golden value is a checksum over every simulated
/// number and sweep statistic, the spans, and `done`.
pub fn run_replay(store_dir: &Path, seed: u64, trace: bool, smoke: bool, t0: Instant) {
    store::configure(StoreConfig {
        disabled: false,
        dir: Some(store_dir.to_path_buf()),
        paranoid_pct: 0,
    })
    .expect("the store is configured before its first use");
    let st = store::store();
    let spec = ReplaySpec::new(smoke);
    let arch = sx_aurora();
    let tracer = Tracer::new(trace, t0);
    println!("ready");
    let start = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        replay_body(&arch, &spec, seed, &tracer, st)
    }));
    let dur_ns = (start.elapsed().as_nanos() as u64).saturating_sub(tracer.probe_ns());
    let outcome = match res {
        Ok(sum) => Outcome::pass(vec![format!("{sum:016x}")], None),
        Err(p) => Outcome::fail(format!("panic: {}", panic_text(&*p))),
    };
    let mut out = outcome.line(0, "replay", dur_ns);
    out.push('\n');
    for s in tracer.take() {
        writeln!(out, "{}", s.to_line()).expect("writing to a String");
    }
    print!("{out}");
    print_done(st, t0);
}

/// FNV-1a over 64-bit words.
fn mix(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn replay_body(
    arch: &ArchParams,
    spec: &ReplaySpec,
    seed: u64,
    tracer: &Tracer,
    st: &lsv_conv::LayerStore,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    // The table first: the grid's BDC and vednn points at the serving batch
    // are among its entries, so a cold fill simulates them once.
    let engines = [ServeEngine::Fixed(Algorithm::Bdc), ServeEngine::Vednn];
    let before = st.stats();
    let (table, id) = tracer.span(CALL, "serve.LatencyTable::build", || {
        LatencyTable::build(
            arch,
            ResNetModel::R50,
            lsv_conv::Pass::Inference,
            &engines,
            spec.max_batch,
            MODE,
        )
    });
    tracer.args(id, &store_args(&st.stats().delta(&before)));
    for col in &table.ms {
        for ms in col {
            mix(&mut h, ms.to_bits());
        }
    }
    let layers = resnet_layers(REPLAY_MINIBATCH);
    for layer in spec.layers.clone() {
        for &dir in spec.dirs {
            for engine in WITH_VEDNN {
                let perf = perf_call(arch, &layers[layer], dir, engine, tracer);
                mix(&mut h, perf.cycles);
                mix(&mut h, perf.report.insts.total());
            }
        }
    }
    // The bench-serving sweep shape: SLO twice the fastest full batch.
    let slo_ms = 2.0 * table.best(spec.max_batch).1;
    let cfg = SweepConfig {
        shapes: vec![
            ArrivalShape::Poisson,
            ArrivalShape::Bursty {
                burst: 4.0,
                period_ms: 8.0 * slo_ms,
            },
        ],
        policies: vec![
            BatchPolicy::Adaptive {
                max_batch: spec.max_batch,
            },
            BatchPolicy::Fixed {
                batch: spec.max_batch,
            },
            BatchPolicy::Timeout {
                max_batch: spec.max_batch,
                timeout_ms: slo_ms / 4.0,
            },
        ],
        utilizations: vec![0.15, 0.4, 0.7, 0.9, 1.1],
        requests: spec.requests,
        seed,
        slo_ms,
    };
    let (rows, id) = tracer.span(CALL, "serve.run_sweep", || run_sweep(&cfg, &table));
    tracer.args(
        id,
        &[("requests", (rows.len() * spec.requests).to_string())],
    );
    for r in &rows {
        let s = &r.stats;
        for w in [s.completed as u64, s.dispatches as u64] {
            mix(&mut h, w);
        }
        for x in [
            s.mean_batch,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.mean_ms,
            s.throughput_rps,
        ] {
            mix(&mut h, x.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes_match_the_workload_table() {
        assert_eq!(grid_items(Workload::SweepCold, false).len(), 84);
        assert_eq!(grid_items(Workload::TuneCold, false).len(), 36);
        assert_eq!(grid_items(Workload::ValidateFunctional, false).len(), 63);
        assert_eq!(grid_items(Workload::TuneCold, true).len(), 3);
        let layers = |w| {
            let mut l: Vec<usize> = grid_items(w, false).iter().map(|i| i.layer).collect();
            l.dedup();
            l
        };
        assert_eq!(layers(Workload::TuneCold), [11, 13, 15, 17]);
        assert_eq!(
            layers(Workload::ValidateFunctional),
            [0, 3, 6, 9, 12, 15, 18]
        );
    }

    #[test]
    fn item_order_is_deterministic_per_seed_and_a_permutation() {
        let items = grid_items(Workload::SweepCold, false);
        assert_eq!(ordered(&items, 7, 0, 0), items, "round 0 is canonical");
        let a = ordered(&items, 7, 0, 1);
        assert_eq!(a, ordered(&items, 7, 0, 1), "same seed, same order");
        assert_ne!(a, ordered(&items, 8, 0, 1), "another seed reorders");
        assert_ne!(a, ordered(&items, 7, 1, 1), "another pass reorders");
        assert_ne!(a, ordered(&items, 7, 0, 2), "another round reorders");
        let mut keys: Vec<String> = a.iter().map(GridItem::key).collect();
        let mut want: Vec<String> = items.iter().map(GridItem::key).collect();
        keys.sort();
        want.sort();
        assert_eq!(keys, want, "a permutation of the grid");
        // Engines keep their order inside each (layer, direction) group.
        for g in a.chunks(4) {
            let names: Vec<&str> = g.iter().map(|i| i.engine.name()).collect();
            assert_eq!(names, ["vednn", "DC", "BDC", "MBDC"]);
        }
    }

    #[test]
    fn splitmix_values_are_distinct_per_index() {
        let v: Vec<u64> = (0..64).map(|i| splitmix(1, i)).collect();
        let mut s = v.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), v.len());
        assert_ne!(splitmix(1, 0), splitmix(2, 0));
    }
}
