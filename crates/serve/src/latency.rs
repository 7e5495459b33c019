//! Engine latency tables: whole-model service time as a function of batch
//! size, for every serving engine.
//!
//! A dispatch of `k` queued requests runs the whole network at minibatch
//! `k`, so the queue simulator needs `latency(engine, k)` for every
//! `k <= max_batch`. Each cell is the total of one [`ModelRunner`] plan,
//! priced by the engine's [`ServeEngine::layer_cost`] hook (a fixed direct
//! algorithm, the empirically tuned best, or the vednn baseline) — always
//! through the layer store. The representative-core model keys slices on
//! `min(images_per_core, 2)` simulated images, so the whole
//! `1..=max_batch` column costs only a couple of distinct simulations per
//! (layer, direction, kernel).

use lsv_arch::ArchParams;
use lsv_conv::{
    bench_layer, tune_empirical, Algorithm, ConvProblem, Direction, ExecutionMode, Kernel,
    LayerCost, LayerSpec, ModelPlan, ModelRunner, Pass,
};
use lsv_models::{resnet_layers, ResNetModel};
use lsv_vednn::bench_layer_vednn;

/// A model-serving engine: which kernels execute every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngine {
    /// Per-(layer, direction) best direct algorithm, empirically tuned
    /// ([`tune_empirical`]).
    Tuned,
    /// One direct algorithm everywhere, analytic configuration.
    Fixed(Algorithm),
    /// The vednn-style baseline library.
    Vednn,
}

impl ServeEngine {
    /// Name used in CSV/JSON artifacts and `--engines` flags.
    pub fn name(&self) -> &'static str {
        match self {
            ServeEngine::Tuned => "tuned",
            ServeEngine::Fixed(a) => a.short_name(),
            ServeEngine::Vednn => "vednn",
        }
    }

    /// Parse an `--engines` item (case-insensitive).
    pub fn parse(s: &str) -> Option<ServeEngine> {
        match s.to_ascii_uppercase().as_str() {
            "TUNED" => Some(ServeEngine::Tuned),
            "DC" => Some(ServeEngine::Fixed(Algorithm::Dc)),
            "BDC" => Some(ServeEngine::Fixed(Algorithm::Bdc)),
            "MBDC" => Some(ServeEngine::Fixed(Algorithm::Mbdc)),
            "VEDNN" => Some(ServeEngine::Vednn),
            _ => None,
        }
    }

    /// What one (layer, direction) costs on this engine: the hook every
    /// plan of the engine prices its cells with. `Tuned` keeps the fastest
    /// empirically tuned direct algorithm, skipping algorithms the register
    /// file cannot host for the shape (ties keep the first of DC, BDC,
    /// MBDC).
    pub fn layer_cost(
        self,
        arch: &ArchParams,
        problem: &ConvProblem,
        direction: Direction,
        mode: ExecutionMode,
    ) -> LayerCost {
        match self {
            ServeEngine::Fixed(alg) => LayerCost::measured(
                Kernel::Direct(alg),
                &bench_layer(arch, problem, direction, alg, mode),
            ),
            ServeEngine::Vednn => LayerCost::measured(
                Kernel::Library("vednn"),
                &bench_layer_vednn(arch, problem, direction, mode),
            ),
            ServeEngine::Tuned => Algorithm::ALL
                .into_iter()
                .filter_map(|alg| {
                    let t = tune_empirical(arch, problem, direction, alg, mode).ok()?;
                    Some(LayerCost {
                        kernel: Kernel::Direct(alg),
                        cycles: t.best_cycles,
                        analytic_cycles: t.analytic_cycles,
                    })
                })
                .min_by_key(|c| c.cycles)
                .unwrap_or_else(|| panic!("no direct algorithm supports {problem} {direction}")),
        }
    }

    /// Plan one pass over `layers` on this engine.
    pub fn plan(
        self,
        arch: &ArchParams,
        layers: Vec<LayerSpec>,
        pass: Pass,
        mode: ExecutionMode,
    ) -> ModelPlan {
        ModelRunner::new(arch, layers, pass).plan(&|p, d| self.layer_cost(arch, p, d, mode))
    }
}

/// A [`ResNetModel`]'s layers as runner specs at one minibatch.
pub fn resnet_specs(model: ResNetModel, minibatch: usize) -> Vec<LayerSpec> {
    let counts = model.layer_counts();
    resnet_layers(minibatch)
        .into_iter()
        .zip(counts)
        .map(|(p, c)| LayerSpec::new(p, c))
        .collect()
}

/// Whole-model service time (ms) per engine per batch size.
#[derive(Debug, Clone)]
pub struct LatencyTable {
    /// The engines, in column order.
    pub engines: Vec<ServeEngine>,
    /// Largest batch size tabulated.
    pub max_batch: usize,
    /// `ms[engine][batch - 1]`: service time of a batch.
    pub ms: Vec<Vec<f64>>,
}

impl LatencyTable {
    /// Build the table for `model`/`pass` over batch sizes `1..=max_batch`.
    pub fn build(
        arch: &ArchParams,
        model: ResNetModel,
        pass: Pass,
        engines: &[ServeEngine],
        max_batch: usize,
        mode: ExecutionMode,
    ) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let mut ms = vec![Vec::with_capacity(max_batch); engines.len()];
        for b in 1..=max_batch {
            let specs = resnet_specs(model, b);
            for (ei, &e) in engines.iter().enumerate() {
                ms[ei].push(e.plan(arch, specs.clone(), pass, mode).total_time_ms());
            }
        }
        Self {
            engines: engines.to_vec(),
            max_batch,
            ms,
        }
    }

    /// Service time of one batch on one engine.
    pub fn latency_ms(&self, engine: usize, batch: usize) -> f64 {
        assert!(
            (1..=self.max_batch).contains(&batch),
            "batch {batch} outside 1..={}",
            self.max_batch
        );
        self.ms[engine][batch - 1]
    }

    /// The fastest engine for one batch size (ties keep the first listed).
    pub fn best(&self, batch: usize) -> (usize, f64) {
        (0..self.engines.len())
            .map(|ei| (ei, self.latency_ms(ei, batch)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("table has at least one engine")
    }
}
