//! # lsv-bench — the benchmark harness
//!
//! Every table, figure and study of the paper is one function in
//! [`experiments`], registered in [`experiments::EXPERIMENTS`] and run by
//! `lsvconv-cli run <name>... | --all` (see DESIGN.md's per-experiment
//! index). Every artifact goes through the one atomic writer in
//! [`artifact`]. The rest of this library is their shared plumbing: the
//! engine abstraction (direct algorithms vs. the vednn baseline), parallel
//! suite runners, CSV formatting matching the artifact's `performance.sh`
//! schema, and model-level aggregation for the ResNet experiments.

use lsv_arch::ArchParams;
use lsv_conv::perf::LayerPerf;
use lsv_conv::{bench_layer, Algorithm, ConvProblem, Direction, ExecutionMode};
use lsv_models::{resnet_layers, ResNetModel};
use lsv_vednn::bench_layer_vednn;

pub mod artifact;
pub mod experiments;
pub mod par;
pub mod profiling;

/// A convolution engine under test: one of the paper's direct algorithms or
/// the baseline library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// DC / BDC / MBDC from `lsv-conv`.
    Direct(Algorithm),
    /// The vednn-style baseline from `lsv-vednn`.
    Vednn,
}

impl Engine {
    /// The four engines in the paper's Figure 4 order
    /// (vednn, DC, BDC, MBDC).
    pub const ALL: [Engine; 4] = [
        Engine::Vednn,
        Engine::Direct(Algorithm::Dc),
        Engine::Direct(Algorithm::Bdc),
        Engine::Direct(Algorithm::Mbdc),
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Vednn => "vednn",
            Engine::Direct(a) => a.short_name(),
        }
    }
}

/// Run one (layer, direction, engine) configuration under the 8-core model.
pub fn bench_engine(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    engine: Engine,
    mode: ExecutionMode,
) -> LayerPerf {
    match engine {
        Engine::Direct(alg) => bench_layer(arch, problem, direction, alg, mode),
        Engine::Vednn => bench_layer_vednn(arch, problem, direction, mode),
    }
}

/// One measurement row (the artifact CSV schema: problem id, direction,
/// algorithm, minibatch, GFLOP/s, milliseconds).
#[derive(Debug, Clone)]
pub struct Row {
    /// Table 3 layer id.
    pub layer_id: usize,
    /// Pass direction.
    pub direction: Direction,
    /// Engine under test.
    pub engine: Engine,
    /// Minibatch size.
    pub minibatch: usize,
    /// The measurement.
    pub perf: LayerPerf,
}

impl Row {
    /// CSV header matching the artifact's `performance.sh` output, extended
    /// with the efficiency/MPKI columns used by the analysis notebooks.
    pub fn csv_header() -> &'static str {
        "problem_id,direction,algorithm,minibatch,gflops,time_ms,efficiency,mpki_l1,conflict_fraction,conflicts_predicted"
    }

    /// One CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{:.1},{:.3},{:.3},{:.3},{:.3},{}",
            self.layer_id,
            self.direction.short_name(),
            self.engine.name(),
            self.minibatch,
            self.perf.gflops,
            self.perf.time_ms,
            self.perf.efficiency,
            self.perf.mpki_l1,
            self.perf.conflict_fraction,
            self.perf.conflicts_predicted,
        )
    }
}

/// Geometric mean (the aggregation used by Figure 4's rightmost columns).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        if x > 0.0 {
            log_sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Run the full Figure 4 suite: every Table 3 layer x direction x engine at
/// one minibatch size, in parallel on host threads.
pub fn run_suite(
    arch: &ArchParams,
    minibatch: usize,
    engines: &[Engine],
    directions: &[Direction],
    mode: ExecutionMode,
) -> Vec<Row> {
    let layers = resnet_layers(minibatch);
    let mut jobs: Vec<(usize, Direction, Engine)> = Vec::new();
    for (id, _) in layers.iter().enumerate() {
        for &d in directions {
            for &e in engines {
                jobs.push((id, d, e));
            }
        }
    }
    let mut rows: Vec<Row> = par::par_map(jobs, |(id, direction, engine)| {
        let perf = bench_engine(arch, &layers[id], direction, engine, mode);
        Row {
            layer_id: id,
            direction,
            engine,
            minibatch,
            perf,
        }
    });
    rows.sort_by_key(|r| (r.direction.short_name(), r.layer_id, r.engine.name()));
    rows
}

/// Per-layer, per-direction wall-times (milliseconds) for several (arch,
/// minibatch, engine) configurations: `tables[config][layer_id][direction]`.
/// Every configuration's layer x direction jobs go into one flat pool, so a
/// sweep (Figures 5/6) exposes all of its parallelism to the host instead
/// of running configurations back to back, each with a mostly idle pool
/// tail. Returns one table per configuration, in input order.
pub fn layer_time_tables(
    configs: &[(ArchParams, usize, Engine)],
    mode: ExecutionMode,
) -> Vec<Vec<[f64; 3]>> {
    let layer_sets: Vec<Vec<ConvProblem>> = configs
        .iter()
        .map(|&(_, mb, _)| resnet_layers(mb))
        .collect();
    let jobs: Vec<(usize, usize, usize)> = configs
        .iter()
        .enumerate()
        .flat_map(|(c, _)| {
            let n = layer_sets[c].len();
            (0..n).flat_map(move |id| (0..3).map(move |d| (c, id, d)))
        })
        .collect();
    let times: Vec<(usize, usize, usize, f64)> = par::par_map(jobs, |(c, id, d)| {
        let (ref arch, _, engine) = configs[c];
        let perf = bench_engine(arch, &layer_sets[c][id], Direction::ALL[d], engine, mode);
        (c, id, d, perf.time_ms)
    });
    let mut tables: Vec<Vec<[f64; 3]>> = layer_sets
        .iter()
        .map(|ls| vec![[0.0f64; 3]; ls.len()])
        .collect();
    for (c, id, d, t) in times {
        tables[c][id][d] = t;
    }
    tables
}

/// Aggregate one [`layer_time_tables`] table into one training step of a model.
pub fn model_time_from_table(table: &[[f64; 3]], model: ResNetModel) -> f64 {
    let counts = model.layer_counts();
    table
        .iter()
        .zip(counts)
        .map(|(t, c)| (t[0] + t[1] + t[2]) * c as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Vednn.name(), "vednn");
        assert_eq!(Engine::Direct(Algorithm::Bdc).name(), "BDC");
    }

    #[test]
    fn row_csv_schema() {
        assert!(Row::csv_header().starts_with("problem_id,direction,algorithm,minibatch"));
    }
}
