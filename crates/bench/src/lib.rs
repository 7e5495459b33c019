//! # lsv-bench — the benchmark harness
//!
//! Every table, figure and study of the paper is one function in
//! [`experiments`], registered in [`experiments::EXPERIMENTS`] and run by
//! `lsvconv-cli run <name>... | --all` (see DESIGN.md's per-experiment
//! index). Every artifact goes through the one atomic writer in
//! [`artifact`]. The rest of this library is their shared per-layer
//! plumbing: the engine label of a per-layer row (direct algorithms vs. the
//! vednn baseline), the parallel Figure 4 suite runner and CSV formatting
//! matching the artifact's `performance.sh` schema. Whole-network times
//! (Figures 5 and 6) are `lsv_conv::ModelRunner` plans priced by
//! `lsv_serve::ServeEngine`, the same roll-up the serving harness uses.

use lsv_arch::ArchParams;
use lsv_conv::par::par_map;
use lsv_conv::perf::LayerPerf;
use lsv_conv::{bench_layer, Algorithm, ConvProblem, Direction, ExecutionMode};
use lsv_models::resnet_layers;
use lsv_vednn::bench_layer_vednn;

pub mod artifact;
pub mod experiments;
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
    let mut rows: Vec<Row> = par_map(jobs, |(id, direction, engine)| {
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
