//! Whole-network model runner: schedule every convolution of a model
//! (inference = forward; training step = all three directions) on the
//! 8-core shared-LLC execution model and roll the per-layer costs up into
//! one model time.
//!
//! The runner is the one model-level roll-up of the workspace: Figures 5
//! and 6, every serving latency table and the serving traces all price a
//! network through [`ModelRunner::plan`]. What one (layer, direction) costs
//! is the caller's [`CostFn`] — a fixed direct algorithm's
//! [`crate::perf::bench_layer`], the best empirically tuned kernel, or a
//! baseline library's model (`lsv-vednn` depends on this crate, so the
//! hook is how its kernels enter a plan). The runner owns the rest: the
//! parallel planning loop, the single cycles-to-milliseconds conversion
//! ([`crate::perf::chip_ms`]) and the one summation order, so a plan total
//! is bit-identical to its hand-summed parts.
//!
//! Every cost hook in the workspace goes through the content-addressed
//! layer store, so a warm store replays a whole-model plan without
//! re-simulating anything, and the plan records the store traffic it
//! caused. The representative-core model keys slices on
//! `min(images_per_core, 2)` simulated images, which makes batch-size
//! sweeps (the serving harness's latency tables) nearly free: all
//! minibatches with two or more images per core share one store entry per
//! (layer, direction, kernel config).
//!
//! The runner is model-agnostic: it consumes a list of [`LayerSpec`]s
//! (problem + occurrence count), so `lsv-models` stays a dependency of the
//! callers (`lsv-serve`, the experiments), not of this crate.
//!
//! Fidelity: the plan's per-entry times come from the representative-core
//! model; [`ModelRunner::execute_entry_detailed`] runs a direct entry
//! through the detailed all-cores simulation ([`execute_multicore`], shared
//! LLC) for cross-checks.

use crate::multicore::{execute_multicore, MulticoreReport};
use crate::par::par_map;
use crate::perf::{chip_ms, LayerPerf};
use crate::primitive::ConvDesc;
use crate::problem::{Algorithm, ConvProblem, Direction};
use crate::store;
use lsv_arch::ArchParams;
use lsv_vengine::{Arena, ExecutionMode};
use std::fmt;

/// One distinct convolution shape of a model and how often it occurs per
/// pass (e.g. a Table 3 layer and its ResNet frequency).
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// The convolution (its `n` is the minibatch the model runs at).
    pub problem: ConvProblem,
    /// Occurrences of this shape in one pass over the model.
    pub count: usize,
}

impl LayerSpec {
    /// A layer occurring `count` times per pass.
    pub fn new(problem: ConvProblem, count: usize) -> Self {
        Self { problem, count }
    }
}

/// What one request to the model executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Forward only.
    Inference,
    /// Forward + backward-data + backward-weights (one training step).
    TrainingStep,
}

impl Pass {
    /// The directions this pass executes, in schedule order.
    pub fn directions(self) -> &'static [Direction] {
        match self {
            Pass::Inference => &[Direction::Fwd],
            Pass::TrainingStep => &Direction::ALL,
        }
    }

    /// Short name used in CSV/JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Inference => "infer",
            Pass::TrainingStep => "train",
        }
    }
}

/// The kernel a plan entry runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One of the paper's direct algorithms.
    Direct(Algorithm),
    /// A baseline library's kernel, by name (e.g. `vednn`).
    Library(&'static str),
}

impl Kernel {
    /// Name used in artifacts (`DC`/`BDC`/`MBDC`, or the library's name).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Direct(a) => a.short_name(),
            Kernel::Library(name) => name,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`CostFn`] reports for one (layer, direction).
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// The kernel that runs the cell.
    pub kernel: Kernel,
    /// Chip wall-clock cycles for one occurrence (whole minibatch).
    pub cycles: u64,
    /// Cycles of the kernel under its *analytic* configuration; equals
    /// `cycles` unless an empirical sweep found a faster kernel.
    pub analytic_cycles: u64,
}

impl LayerCost {
    /// The cost of one measured layer run by `kernel` as configured.
    pub fn measured(kernel: Kernel, perf: &LayerPerf) -> Self {
        Self {
            kernel,
            cycles: perf.cycles,
            analytic_cycles: perf.cycles,
        }
    }
}

/// Prices one (layer, direction) of a plan. Called from the planner's
/// worker threads, one call per cell.
pub type CostFn<'a> = dyn Fn(&ConvProblem, Direction) -> LayerCost + Sync + 'a;

/// The chosen kernel and its cost for one (layer, direction).
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Index into the runner's layer list.
    pub layer: usize,
    /// Pass direction.
    pub direction: Direction,
    /// The kernel that runs this cell.
    pub kernel: Kernel,
    /// Occurrences per pass (copied from the [`LayerSpec`]).
    pub count: usize,
    /// Chip wall-clock cycles for one occurrence (whole minibatch).
    pub cycles: u64,
    /// Wall time of one occurrence in milliseconds ([`chip_ms`] of
    /// `cycles`).
    pub time_ms: f64,
    /// Cycles of the kernel under its *analytic* configuration; equals
    /// `cycles` unless the empirical sweep found a faster kernel.
    pub analytic_cycles: u64,
}

/// A static schedule for one pass over the model: one entry per
/// (layer, direction), plus the store traffic planning generated.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    /// One entry per (layer, direction), layers outer, directions inner.
    pub entries: Vec<PlanEntry>,
    /// Store lookups served from memory or disk while planning.
    pub store_hits: u64,
    /// Slices actually simulated while planning (0 on a warm replay).
    pub simulated: u64,
}

impl ModelPlan {
    /// Chip cycles of one pass: sum of `cycles x count` over all entries.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.cycles * e.count as u64).sum()
    }

    /// Wall milliseconds of one pass: sum of `time_ms x count` in entry
    /// order. Every model time in the workspace is this sum.
    pub fn total_time_ms(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.time_ms * e.count as f64)
            .sum()
    }

    /// The entry for one (layer, direction), if planned.
    pub fn entry(&self, layer: usize, direction: Direction) -> Option<&PlanEntry> {
        self.entries
            .iter()
            .find(|e| e.layer == layer && e.direction == direction)
    }

    /// Publish this plan's provenance into a metrics registry under the
    /// `runner.` namespace.
    pub fn publish_metrics(&self, reg: &lsv_obs::MetricsRegistry) {
        reg.counter_add("runner.plans", 1);
        reg.counter_add("runner.store_hits", self.store_hits);
        reg.counter_add("runner.simulated", self.simulated);
        reg.observe("runner.plan_total_ms", self.total_time_ms());
    }
}

/// Executes a whole model (a list of [`LayerSpec`]s) for one [`Pass`] on
/// the 8-core execution model.
#[derive(Debug, Clone)]
pub struct ModelRunner {
    arch: ArchParams,
    layers: Vec<LayerSpec>,
    pass: Pass,
}

impl ModelRunner {
    /// A runner for `layers` executing `pass` on `arch`.
    pub fn new(arch: &ArchParams, layers: Vec<LayerSpec>, pass: Pass) -> Self {
        Self {
            arch: arch.clone(),
            layers,
            pass,
        }
    }

    /// The runner's layer list.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// The pass this runner executes.
    pub fn pass(&self) -> Pass {
        self.pass
    }

    /// Plan one pass: price every (layer, direction) with `cost`, in
    /// parallel, and record the store traffic planning caused.
    pub fn plan(&self, cost: &CostFn) -> ModelPlan {
        let before = store::store().stats();
        let jobs: Vec<(usize, Direction)> = (0..self.layers.len())
            .flat_map(|l| self.pass.directions().iter().map(move |&d| (l, d)))
            .collect();
        let entries = par_map(jobs, |(layer, direction)| {
            let spec = &self.layers[layer];
            let c = cost(&spec.problem, direction);
            PlanEntry {
                layer,
                direction,
                kernel: c.kernel,
                count: spec.count,
                cycles: c.cycles,
                time_ms: chip_ms(&self.arch, c.cycles),
                analytic_cycles: c.analytic_cycles,
            }
        });
        let delta = store::store().stats().delta(&before);
        ModelPlan {
            entries,
            store_hits: delta.hits(),
            simulated: delta.misses,
        }
    }

    /// Run one direct-kernel plan entry through the detailed all-cores
    /// simulation (every core's slice against the shared LLC) instead of
    /// the representative-core extrapolation. Used to cross-check the
    /// static schedule; the entry executes under its algorithm's *analytic*
    /// configuration, timing-only (cycles do not depend on the mode).
    ///
    /// # Panics
    /// If the entry's kernel is not a direct algorithm.
    pub fn execute_entry_detailed(&self, entry: &PlanEntry) -> MulticoreReport {
        let Kernel::Direct(algorithm) = entry.kernel else {
            panic!(
                "detailed execution runs direct kernels only, not {}",
                entry.kernel
            )
        };
        let spec = &self.layers[entry.layer];
        let prim = ConvDesc::new(spec.problem, entry.direction, algorithm)
            .create(&self.arch, self.arch.cores)
            .expect("planned entry must be creatable");
        let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
        let tensors = prim.alloc_tensors(&mut arena);
        execute_multicore(&prim, &mut arena, &tensors, ExecutionMode::TimingOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::bench_layer;
    use crate::tuning::tune_empirical;
    use lsv_arch::presets::sx_aurora;

    const MODE: ExecutionMode = ExecutionMode::TimingOnly;

    fn two_layer_model(n: usize) -> Vec<LayerSpec> {
        vec![
            LayerSpec::new(ConvProblem::new(n, 32, 32, 10, 10, 3, 3, 1, 1), 2),
            LayerSpec::new(ConvProblem::new(n, 64, 16, 8, 8, 1, 1, 1, 0), 1),
        ]
    }

    /// One direct algorithm, analytic configuration.
    fn fixed(arch: &ArchParams, alg: Algorithm, p: &ConvProblem, d: Direction) -> LayerCost {
        LayerCost::measured(Kernel::Direct(alg), &bench_layer(arch, p, d, alg, MODE))
    }

    /// The fastest creatable direct algorithm per cell, analytically
    /// configured or empirically tuned.
    fn best(arch: &ArchParams, p: &ConvProblem, d: Direction, tuned: bool) -> LayerCost {
        Algorithm::ALL
            .into_iter()
            .filter_map(|alg| {
                if !tuned {
                    ConvDesc::new(*p, d, alg).create(arch, arch.cores).ok()?;
                    return Some(fixed(arch, alg, p, d));
                }
                let t = tune_empirical(arch, p, d, alg, MODE).ok()?;
                Some(LayerCost {
                    kernel: Kernel::Direct(alg),
                    cycles: t.best_cycles,
                    analytic_cycles: t.analytic_cycles,
                })
            })
            .min_by_key(|c| c.cycles)
            .expect("some direct algorithm fits")
    }

    #[test]
    fn inference_plan_covers_every_layer_once() {
        let arch = sx_aurora();
        let runner = ModelRunner::new(&arch, two_layer_model(8), Pass::Inference);
        let plan = runner.plan(&|p, d| best(&arch, p, d, false));
        assert_eq!(plan.entries.len(), 2);
        assert!(plan.entries.iter().all(|e| e.direction == Direction::Fwd));
        assert!(plan.total_cycles() > 0);
        // Totals are the weighted per-entry sums (the conservation law the
        // serving harness relies on).
        let hand: f64 = plan
            .entries
            .iter()
            .map(|e| e.time_ms * e.count as f64)
            .sum();
        assert_eq!(plan.total_time_ms().to_bits(), hand.to_bits());
    }

    #[test]
    fn training_plan_covers_all_three_directions() {
        let arch = sx_aurora();
        let runner = ModelRunner::new(&arch, two_layer_model(8), Pass::TrainingStep);
        let plan = runner.plan(&|p, d| best(&arch, p, d, false));
        assert_eq!(plan.entries.len(), 6);
        for d in Direction::ALL {
            assert!(plan.entries.iter().filter(|e| e.direction == d).count() == 2);
        }
    }

    #[test]
    fn fixed_plan_never_beats_the_picked_plan() {
        let arch = sx_aurora();
        let runner = ModelRunner::new(&arch, two_layer_model(8), Pass::Inference);
        let picked = runner.plan(&|p, d| best(&arch, p, d, false));
        for alg in Algorithm::ALL {
            let fixed = runner.plan(&|p, d| fixed(&arch, alg, p, d));
            assert!(
                picked.total_cycles() <= fixed.total_cycles(),
                "the per-cell pick must be at least as fast as fixed {alg}"
            );
        }
    }

    #[test]
    fn warm_replay_simulates_nothing() {
        let arch = sx_aurora();
        let runner = ModelRunner::new(&arch, two_layer_model(8), Pass::Inference);
        let cost = |p: &ConvProblem, d| best(&arch, p, d, false);
        let cold = runner.plan(&cost);
        let warm = runner.plan(&cost);
        assert_eq!(warm.simulated, 0, "second plan must be store-served");
        assert_eq!(cold.total_cycles(), warm.total_cycles());
    }

    #[test]
    fn empirical_plan_is_no_slower_than_analytic() {
        let arch = sx_aurora();
        let layers = vec![LayerSpec::new(
            ConvProblem::new(8, 32, 32, 10, 10, 3, 3, 1, 1),
            1,
        )];
        let runner = ModelRunner::new(&arch, layers, Pass::Inference);
        let analytic = runner.plan(&|p, d| best(&arch, p, d, false));
        let tuned = runner.plan(&|p, d| best(&arch, p, d, true));
        assert!(tuned.total_cycles() <= analytic.total_cycles());
        for e in &tuned.entries {
            assert!(e.cycles <= e.analytic_cycles);
        }
    }

    #[test]
    fn a_panicking_cost_names_its_plan_job() {
        let arch = sx_aurora();
        let runner = ModelRunner::new(&arch, two_layer_model(8), Pass::Inference);
        let caught = std::panic::catch_unwind(|| {
            runner.plan(&|p, _| {
                assert_ne!(p.oc, 16, "no cost for this layer");
                LayerCost {
                    kernel: Kernel::Library("unit"),
                    cycles: 1,
                    analytic_cycles: 1,
                }
            })
        })
        .expect_err("the failing cell fails the plan");
        let msg = caught.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("job 1 panicked"), "{msg}");
    }

    #[test]
    fn detailed_execution_agrees_with_the_static_schedule() {
        // The representative-core extrapolation and the all-cores detailed
        // simulation must agree within a modest band on a uniform workload.
        let arch = sx_aurora();
        let layers = vec![LayerSpec::new(
            ConvProblem::new(16, 32, 32, 10, 10, 3, 3, 1, 1),
            1,
        )];
        let runner = ModelRunner::new(&arch, layers, Pass::Inference);
        let plan = runner.plan(&|p, d| best(&arch, p, d, false));
        let entry = &plan.entries[0];
        let detailed = runner.execute_entry_detailed(entry);
        let ratio = detailed.wall_cycles as f64 / entry.cycles as f64;
        assert!(
            (0.7..1.3).contains(&ratio),
            "detailed/static cycle ratio {ratio:.3} out of band"
        );
    }
}
