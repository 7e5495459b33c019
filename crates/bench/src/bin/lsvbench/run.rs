//! Parent-side orchestration of one workload run.
//!
//! The parent never calls the library itself: it spawns one worker process
//! per round of a pass (one per item for `replay_warm`), one at a time, so
//! the load always comes from a single single-threaded process. It collects the
//! workers' item, span and resource lines, measures set-up, checks every
//! output (golden ledger, committed artifacts, replay checksums and store
//! misses, exit statuses) and counts each failure without aborting the run.

use crate::golden;
use crate::trace::{Span, ITEM};
use crate::workload::{Workload, ROUNDS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cold fills `replay_warm` performs per run for its `setup_s` median.
const FILL_REPS: usize = 3;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Benchmark seed.
    pub seed: u64,
    /// Measurement budget; sets the fixed number of passes.
    pub seconds: f64,
    /// Record spans and run probes (plus an untraced reference round).
    pub trace: bool,
    /// A handful of items per workload.
    pub smoke: bool,
    /// Compare grid items against the golden ledger (off while blessing).
    pub check_golden: bool,
}

/// One measured item as the parent sees it.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item key.
    pub key: String,
    /// Passed every check.
    pub ok: bool,
    /// Host milliseconds (probes excluded).
    pub ms: f64,
    /// Values the golden ledger pins.
    pub golden: Vec<String>,
    /// The item's row as the committed artifact prints it, if it has one.
    pub row: Option<String>,
    /// Failure reason.
    pub note: String,
}

/// Parse the fields of an `item` line (see `Outcome::line`).
fn parse_item(f: &[&str]) -> Result<Item, String> {
    let dash = |s: &str| (s != "-").then(|| s.to_string());
    Ok(Item {
        key: f[2].to_string(),
        ok: f[3] == "1",
        ms: f[4]
            .parse::<u64>()
            .map_err(|e| format!("item time {:?}: {e}", f[4]))? as f64
            / 1e6,
        golden: dash(f[5]).map_or_else(Vec::new, |g| g.split(' ').map(str::to_string).collect()),
        row: dash(f[6]),
        note: dash(f[7]).unwrap_or_default(),
    })
}

/// Resource record of one worker process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildStat {
    /// Spawn to exit, seen by the parent (ns).
    pub wall_ns: u64,
    /// Process start to its `done` line, seen by the worker (ns).
    pub internal_ns: u64,
    /// Peak resident set, `VmHWM` (kB).
    pub rss_kb: u64,
    /// Bytes in the worker's on-disk store at exit.
    pub disk_bytes: u64,
    /// Store lookups the worker missed.
    pub store_misses: u64,
    /// Store records the worker inserted.
    pub store_inserts: u64,
}

/// A span placed on the run's timeline.
#[derive(Debug, Clone)]
pub struct RunSpan {
    /// Perfetto process id: the worker's number within the run.
    pub pid: u32,
    /// The span (its `parent` re-indexed into [`RunResult::spans`]).
    pub span: Span,
    /// Start on the run's clock (ns since the run began).
    pub ts_ns: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Measured items, each with its fastest round's time (a traced run:
    /// the traced round's items).
    pub items: Vec<Item>,
    /// A traced run's untraced reference round.
    pub reference: Vec<Item>,
    /// Set-up samples in seconds.
    pub setup_s: Vec<f64>,
    /// Peak-RSS samples in kB: canonical-order grid rounds, every fuzz
    /// worker, every replay child.
    pub rss_kb: Vec<u64>,
    /// Measured worker processes.
    pub children: Vec<ChildStat>,
    /// Spans of the traced rounds.
    pub spans: Vec<RunSpan>,
    /// Items attempted, including those a crashed worker never reported.
    pub attempted: usize,
    /// Failures with their reasons (item keys, or run-level problems).
    pub failures: Vec<String>,
    /// Passes run.
    pub passes: usize,
}

impl RunResult {
    /// Items that failed (reported failures plus items never reported).
    pub fn failed(&self) -> usize {
        self.attempted
            .saturating_sub(self.items.iter().filter(|i| i.ok).count())
    }
}

/// Output of one worker process.
struct Worker {
    ready_after: Option<Duration>,
    spawned: Instant,
    exit_ok: bool,
    items: Vec<Item>,
    spans: Vec<Span>,
    stat: ChildStat,
}

/// Kills and reaps a child if the parent leaves early.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn run_worker_process(args: &[String]) -> Result<Worker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned = Instant::now();
    let mut child = Reap(
        Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?,
    );
    let stdout = child.0.stdout.take().expect("stdout is piped");
    let mut w = Worker {
        ready_after: None,
        spawned,
        exit_ok: false,
        items: Vec::new(),
        spans: Vec::new(),
        stat: ChildStat::default(),
    };
    let mut parse_errors = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read worker output: {e}"))?;
        let f: Vec<&str> = line.split('\t').collect();
        match f[0] {
            "ready" => w.ready_after = Some(spawned.elapsed()),
            "item" if f.len() == 8 => match parse_item(&f) {
                Ok(it) => w.items.push(it),
                Err(e) => parse_errors.push(e),
            },
            "span" => match Span::parse(&line) {
                Ok(s) => w.spans.push(s),
                Err(e) => parse_errors.push(e),
            },
            "done" if f.len() == 6 => {
                let n = |i: usize| f[i].parse::<u64>().unwrap_or(0);
                w.stat.rss_kb = n(1);
                w.stat.internal_ns = n(2);
                w.stat.disk_bytes = n(3);
                w.stat.store_misses = n(4);
                w.stat.store_inserts = n(5);
            }
            _ => parse_errors.push(format!("unexpected worker line {line:?}")),
        }
    }
    let status = child.0.wait().map_err(|e| format!("wait worker: {e}"))?;
    w.stat.wall_ns = spawned.elapsed().as_nanos() as u64;
    w.exit_ok = status.success() && parse_errors.is_empty();
    if let Some(e) = parse_errors.first() {
        eprintln!("lsvbench: {e}");
    }
    Ok(w)
}

/// Apply the parent-side checks to a worker's items: the artifact row
/// against the committed artifact, `golden` against the ledger. Every
/// failure reason lands in `note`.
fn check_items(w: Workload, items: &mut [Item], ledger: Option<&golden::Ledger>) {
    for it in items {
        let mut why: Vec<String> = Vec::new();
        if !it.note.is_empty() {
            why.push(it.note.clone());
        }
        if let Some(row) = it.row.as_deref().filter(|r| !golden::in_artifact(w, r)) {
            why.push(format!("row differs from the committed artifact: {row}"));
        }
        if let Some(ledger) = ledger {
            match ledger.get(&it.key) {
                None => why.push("no golden row (run `lsvbench bless`)".to_string()),
                Some(g) if *g != it.golden => why.push(format!(
                    "golden mismatch: got {} want {}",
                    it.golden.join(" "),
                    g.join(" ")
                )),
                Some(_) => {}
            }
        }
        if !why.is_empty() {
            it.ok = false;
        }
        it.note = why.join("; ");
    }
}

/// Scratch space of one process tree, removed when dropped (also when the
/// run fails).
pub struct TmpDir(pub PathBuf);

impl TmpDir {
    /// `<root>/tmp-<pid>`, created.
    pub fn create(root: &Path) -> Result<TmpDir, String> {
        let dir = root.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Number of passes a run makes: fixed for a given budget.
fn passes_for(w: Workload, opts: &RunOpts) -> usize {
    if opts.smoke {
        1
    } else {
        ((opts.seconds / (ROUNDS as f64 * w.nominal_round_s())).floor() as usize).max(1)
    }
}

/// Rounds per pass: a traced run makes one untraced reference round and
/// one traced round; `--smoke` and blessing (which needs the values, not
/// the times) make one; every other run makes [`ROUNDS`].
fn rounds(opts: &RunOpts) -> usize {
    if opts.trace {
        2
    } else if opts.smoke || !opts.check_golden {
        1
    } else {
        ROUNDS
    }
}

/// Run one workload end to end.
pub fn run_workload(w: Workload, opts: &RunOpts, tmp: &Path) -> RunResult {
    let mut r = RunResult {
        passes: passes_for(w, opts),
        ..RunResult::default()
    };
    let ledger = if opts.check_golden && w.is_grid() {
        match golden::committed(w) {
            Ok(l) => Some(l),
            Err(e) => {
                r.failures.push(e);
                Some(golden::Ledger::new())
            }
        }
    } else {
        None
    };
    let t0 = Instant::now();
    let mut fill = None;
    if w == Workload::ReplayWarm {
        match cold_fills(opts, tmp, &mut r) {
            Some(f) => fill = Some(f),
            None => return r,
        }
    }
    let per_pass = w.pass_items(opts.smoke);
    let n_rounds = rounds(opts);
    // Rounds outermost: an item's rounds lie a whole sweep of the passes
    // apart, so a slow spell of the host rarely covers all of them.
    let mut merged: BTreeMap<String, (Item, usize)> = BTreeMap::new();
    for round in 0..n_rounds {
        let traced = opts.trace && round + 1 == n_rounds;
        for pass in 0..r.passes {
            let items = match &fill {
                Some((store, checksum)) => (0..per_pass)
                    .filter_map(|j| {
                        let key = format!("replay{}", pass * per_pass + j);
                        replay_item(opts, store, checksum, key, traced, &mut r, t0)
                    })
                    .collect(),
                None => grid_or_fuzz_round(
                    w,
                    opts,
                    tmp,
                    pass,
                    round,
                    traced,
                    &mut r,
                    ledger.as_ref(),
                    t0,
                ),
            };
            if opts.trace {
                if traced {
                    r.items.extend(items);
                } else {
                    r.reference.extend(items);
                }
                continue;
            }
            for it in items {
                match merged.get_mut(&it.key) {
                    None => {
                        merged.insert(it.key.clone(), (it, 1));
                    }
                    Some((best, seen)) => {
                        *seen += 1;
                        best.ms = best.ms.min(it.ms);
                        best.ok &= it.ok;
                    }
                }
            }
        }
    }
    r.attempted = r.passes * per_pass;
    r.items.extend(merged.into_values().map(|(mut it, seen)| {
        if seen < n_rounds {
            it.ok = false;
        }
        it
    }));
    if let Some((store, _)) = fill {
        let _ = std::fs::remove_dir_all(store);
    }
    r
}

fn base_args(cmd: &str, opts: &RunOpts, store: &Path, traced: bool) -> Vec<String> {
    let mut a = vec![
        cmd.to_string(),
        "--seed".into(),
        opts.seed.to_string(),
        "--store".into(),
        store.display().to_string(),
    ];
    if opts.smoke {
        a.push("--smoke".into());
    }
    if traced {
        a.push("--traced".into());
    }
    a
}

/// Check one worker's exit and items, recording every failure. `None` when
/// the worker could not be run.
fn check_worker(
    w: Workload,
    r: &mut RunResult,
    worker: Result<Worker, String>,
    expected: usize,
    ledger: Option<&golden::Ledger>,
    what: &str,
) -> Option<Worker> {
    let mut worker = match worker {
        Ok(wk) => wk,
        Err(e) => {
            r.failures.push(format!("{what}: {e}"));
            return None;
        }
    };
    check_items(w, &mut worker.items, ledger);
    if !worker.exit_ok {
        r.failures
            .push(format!("{what}: worker exited with failure"));
    }
    if worker.items.len() != expected {
        r.failures.push(format!(
            "{what}: {} of {expected} items reported",
            worker.items.len()
        ));
        worker.items.truncate(expected);
    }
    for it in worker.items.iter().filter(|i| !i.ok) {
        r.failures.push(format!("{what}: {}: {}", it.key, it.note));
    }
    Some(worker)
}

/// Record a measured worker's resources and spans on the run's timeline.
fn record_worker(r: &mut RunResult, worker: &mut Worker, t0: Instant) {
    let pid = r.children.len() as u32 + 1;
    let offset = r.spans.len();
    let base = worker.spawned.duration_since(t0).as_nanos() as u64;
    for mut span in worker.spans.drain(..) {
        span.parent = span.parent.map(|p| p + offset);
        r.spans.push(RunSpan {
            pid,
            ts_ns: base + span.start_ns,
            span,
        });
    }
    r.children.push(worker.stat);
}

/// One round of one pass of a grid or fuzz workload, in a worker process
/// with its own fresh store.
#[allow(clippy::too_many_arguments)]
fn grid_or_fuzz_round(
    w: Workload,
    opts: &RunOpts,
    tmp: &Path,
    pass: usize,
    round: usize,
    traced: bool,
    r: &mut RunResult,
    ledger: Option<&golden::Ledger>,
    t0: Instant,
) -> Vec<Item> {
    let store = tmp.join(format!("{}-{pass}-{round}", w.name()));
    let mut args = base_args("worker", opts, &store, traced);
    args.insert(1, w.name().to_string());
    args.extend([
        "--pass".into(),
        pass.to_string(),
        "--round".into(),
        round.to_string(),
    ]);
    let got = run_worker_process(&args);
    let what = format!("pass {pass} round {round}");
    let items = match check_worker(w, r, got, w.pass_items(opts.smoke), ledger, &what) {
        Some(mut wk) => {
            record_worker(r, &mut wk, t0);
            // A grid's peak RSS depends on the allocation order, so only the
            // canonical-order round samples it.
            if !w.is_grid() || round == 0 {
                r.rss_kb.push(wk.stat.rss_kb);
            }
            if let Some(ready) = wk.ready_after {
                r.setup_s.push(ready.as_secs_f64());
            }
            wk.items
        }
        None => Vec::new(),
    };
    let _ = std::fs::remove_dir_all(store);
    items
}

/// `replay_warm`'s set-up: cold fills of fresh stores, each one a set-up
/// sample. Returns the last store (the one replayed) and the fills' common
/// checksum.
fn cold_fills(opts: &RunOpts, tmp: &Path, r: &mut RunResult) -> Option<(PathBuf, String)> {
    let reps = if opts.smoke { 1 } else { FILL_REPS };
    let mut checksum: Option<String> = None;
    let mut store = PathBuf::new();
    for rep in 0..reps {
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&store);
        }
        store = tmp.join(format!("fill-{rep}"));
        let got = run_worker_process(&base_args("replay", opts, &store, false));
        let what = format!("cold fill {rep}");
        let Some(wk) = check_worker(Workload::ReplayWarm, r, got, 1, None, &what) else {
            continue;
        };
        r.setup_s.push(wk.stat.wall_ns as f64 / 1e9);
        match (&checksum, wk.items.first().and_then(|i| i.golden.first())) {
            (None, Some(s)) => checksum = Some(s.clone()),
            (Some(a), Some(b)) if a != b => {
                r.failures.push(format!("cold fills disagree: {a} vs {b}"))
            }
            _ => {}
        }
    }
    match checksum {
        Some(c) => Some((store, c)),
        None => {
            r.failures.push("no cold fill produced a checksum".into());
            None
        }
    }
}

/// One `replay_warm` item: a child process replaying the filled store. Its
/// time is the child's wall time seen from here, without the probes a
/// traced child runs; its checksum must equal the fill's, and it must not
/// miss the store once.
fn replay_item(
    opts: &RunOpts,
    store: &Path,
    checksum: &str,
    key: String,
    traced: bool,
    r: &mut RunResult,
    t0: Instant,
) -> Option<Item> {
    let got = run_worker_process(&base_args("replay", opts, store, traced));
    let probe_ns: u64 = got.as_ref().map_or(0, |wk| {
        wk.spans
            .iter()
            .filter(|s| s.cat == crate::trace::PROBE)
            .map(|s| s.dur_ns)
            .sum()
    });
    // The item span is the whole child process as the parent saw it; the
    // worker's own spans nest inside it.
    let item_span = r.spans.len();
    if traced {
        r.spans.push(RunSpan {
            pid: r.children.len() as u32 + 1,
            ts_ns: 0,
            span: Span {
                item: 0,
                parent: None,
                cat: ITEM.to_string(),
                name: key.clone(),
                start_ns: 0,
                dur_ns: 0,
                args: Vec::new(),
            },
        });
    }
    let Some(mut wk) = check_worker(Workload::ReplayWarm, r, got, 1, None, "replay") else {
        r.spans.truncate(item_span);
        return None;
    };
    record_worker(r, &mut wk, t0);
    r.rss_kb.push(wk.stat.rss_kb);
    let mut item = wk.items.pop()?;
    item.key = key;
    item.ms = wk.stat.wall_ns.saturating_sub(probe_ns) as f64 / 1e6;
    let mut why = Vec::new();
    if item.golden.first().map(String::as_str) != Some(checksum) {
        why.push(format!(
            "replay checksum {:?} != fill {checksum}",
            item.golden
        ));
    }
    // A replay reads only: a miss means it simulated (and wrote) something
    // the fill did not persist, and the item no longer measures a warm read.
    if wk.stat.store_misses > 0 || wk.stat.store_inserts > 0 {
        why.push(format!(
            "warm replay missed the store {} times ({} inserts)",
            wk.stat.store_misses, wk.stat.store_inserts
        ));
    }
    if !why.is_empty() {
        item.ok = false;
        item.note = why.join("; ");
        r.failures.push(format!("replay: {}", item.note));
    }
    if traced {
        let head = &mut r.spans[item_span];
        head.ts_ns = wk.spawned.duration_since(t0).as_nanos() as u64;
        head.span.dur_ns = wk.stat.wall_ns;
        head.span.args = vec![("ok".into(), (item.ok as u8).to_string())];
        for s in &mut r.spans[item_span + 1..] {
            s.span.parent.get_or_insert(item_span);
        }
    }
    Some(item)
}
