//! The experiment harness: every table, figure and study of the
//! reproduction as one function over a shared [`Ctx`], registered in one
//! table ([`EXPERIMENTS`]) and driven by `lsvconv-cli run <name>... | --all`.
//!
//! [`run`] executes experiments in order in one process, so the layer
//! store dedups work across them (an early experiment's slices are store
//! hits for every later one that sweeps the same layers). Per experiment it
//! times the run, records the store traffic the run caused, and writes
//! every artifact through the one atomic validate-then-rename writer
//! ([`crate::artifact`]); a failing experiment writes nothing and stops the
//! run. Alongside the artifacts it writes `<out>/logs/<name>.store.json`
//! (the experiment's `StoreStats::delta` in the metrics wire format) and
//! `<out>/logs/regen_times.txt` (one `<name> <ms>ms` line per experiment).

use crate::artifact::{write_artifacts, Artifact};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

mod figures;
mod host;
mod lint;
mod report;
mod serving;
mod studies;
mod tables;
mod validate;

/// What an experiment body returns: one artifact body per declared file
/// name, in declaration order.
pub type Outcome = Result<Vec<String>, Box<dyn std::error::Error>>;

/// The settings every experiment sees.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    /// Artifact directory (`results` for the committed set).
    pub out_dir: PathBuf,
    /// Shrink the experiments that have a CI-sized variant
    /// (`bench-serving`, `bench-native`).
    pub smoke: bool,
    /// Also write region-profile artifacts under `<out>/profile/<name>/`
    /// (`table3`, `performance`).
    pub profile: bool,
}

/// One registered experiment.
pub struct Experiment {
    /// CLI name.
    pub name: &'static str,
    /// Artifact file names under `Ctx::out_dir`, in the order `run` returns
    /// their bodies.
    pub artifacts: &'static [&'static str],
    /// Whether `run --all` (the full regeneration) includes it.
    pub in_all: bool,
    /// The experiment body.
    pub run: fn(&Ctx) -> Outcome,
}

/// Every experiment, in `--all` order: the broad sweeps first so the later
/// ones start warm, the claim check over the finished artifacts last.
pub static EXPERIMENTS: &[Experiment] = &[
    exp("table1", &["table1.csv"], true, tables::table1),
    exp("table2", &["table2.csv"], true, tables::table2),
    exp("table3", &["table3.csv"], true, tables::table3),
    exp("figure2", &["figure2.csv"], true, figures::figure2),
    exp("figure4", &["figure4.csv"], true, figures::figure4),
    exp("figure5", &["figure5.csv"], true, figures::figure5),
    exp("figure6", &["figure6.csv"], true, figures::figure6),
    exp("mpki", &["mpki.csv"], true, studies::mpki),
    exp("ablation", &["ablation.csv"], true, studies::ablation),
    exp(
        "performance",
        &["performance.csv"],
        true,
        studies::performance,
    ),
    exp("figure3", &["figure3.txt"], true, figures::figure3),
    exp("crossisa", &["crossisa.csv"], true, studies::crossisa),
    exp("validate", &["validate.csv"], true, validate::validate),
    exp(
        "bench-serving",
        &[
            "serving.csv",
            "BENCH_serving.json",
            "serving_timeseries.csv",
        ],
        true,
        serving::bench_serving,
    ),
    exp("report", &["report.txt"], true, report::report),
    exp("lint-kernels", &["lint.json"], false, lint::lint_kernels),
    exp(
        "bench-native",
        &["BENCH_native.json"],
        false,
        host::bench_native,
    ),
];

const fn exp(
    name: &'static str,
    artifacts: &'static [&'static str],
    in_all: bool,
    run: fn(&Ctx) -> Outcome,
) -> Experiment {
    Experiment {
        name,
        artifacts,
        in_all,
        run,
    }
}

/// Look an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Run one experiment and return its artifacts (paths under `ctx.out_dir`)
/// without writing them. A panic inside the body is an error like any other.
pub fn execute(exp: &Experiment, ctx: &Ctx) -> Result<Vec<Artifact>, String> {
    let bodies = match catch_unwind(AssertUnwindSafe(|| (exp.run)(ctx))) {
        Ok(Ok(bodies)) => bodies,
        Ok(Err(e)) => return Err(format!("{}: {e}", exp.name)),
        Err(_) => return Err(format!("{}: panicked (message above)", exp.name)),
    };
    assert_eq!(
        bodies.len(),
        exp.artifacts.len(),
        "{}: artifact count",
        exp.name
    );
    Ok(exp
        .artifacts
        .iter()
        .zip(bodies)
        .map(|(name, body)| Artifact::new(ctx.out_dir.join(name), body))
        .collect())
}

/// Run `experiments` in order, writing each one's artifacts and logs as it
/// finishes. Stops at the first failure.
pub fn run(experiments: &[&Experiment], ctx: &Ctx) -> Result<(), String> {
    let store = lsv_conv::store::store();
    let logs = ctx.out_dir.join("logs");
    let mut times = String::new();
    for exp in experiments {
        let before = store.stats();
        let t0 = Instant::now();
        let mut artifacts = execute(exp, ctx)?;
        let ms = t0.elapsed().as_millis();
        let delta = store.stats().delta(&before);
        let _ = writeln!(times, "{} {ms}ms", exp.name);
        let written: Vec<String> = artifacts
            .iter()
            .map(|a| a.path.display().to_string())
            .collect();
        artifacts.push(Artifact::new(
            logs.join(format!("{}.store.json", exp.name)),
            lsv_conv::stats_metrics_json(&delta, store.disk_bytes()),
        ));
        artifacts.push(Artifact::new(logs.join("regen_times.txt"), times.clone()));
        write_artifacts(&artifacts).map_err(|e| format!("{}: {e}", exp.name))?;
        println!(
            "{} {ms}ms: {} store hits, {} simulated; wrote {}",
            exp.name,
            delta.hits(),
            delta.inserts,
            written.join(", ")
        );
    }
    Ok(())
}
