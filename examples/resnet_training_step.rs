//! Model-level scenario: estimate one full ResNet training step (forward +
//! backward-data + backward-weights over every convolution) on the simulated
//! SX-Aurora for each convolution engine — a miniature of the paper's
//! Figures 5/6 methodology. Every engine, the vednn baseline included,
//! prices the network through one [`ModelRunner`] plan.
//!
//! Every slice result flows through the layer store, so a second run with
//! `LSV_STORE_DIR` set replays from disk in seconds without re-simulating.
//!
//! Run with: `cargo run --release --example resnet_training_step [minibatch]`
//!
//! [`ModelRunner`]: lsvconv::conv::ModelRunner

use lsvconv::conv::{Algorithm, ExecutionMode, Pass};
use lsvconv::models::ResNetModel;
use lsvconv::prelude::sx_aurora;
use lsvconv::serve::{resnet_specs, ServeEngine};

fn main() {
    let minibatch: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);
    let arch = sx_aurora();
    let model = ResNetModel::R101;
    let flops = model.training_flops(minibatch) as f64;
    println!(
        "{} training step, minibatch {minibatch}: {:.1} GFLOP over {} conv layers x {} passes",
        model.name(),
        flops / 1e9,
        model.total_conv_layers(),
        ResNetModel::TRAINING_PASSES,
    );
    println!("engine,step_ms,gflops,images/s");

    // The tuned engine empirically sweeps register blockings per (layer,
    // direction) and picks the best algorithm for each.
    for engine in [
        ServeEngine::Vednn,
        ServeEngine::Fixed(Algorithm::Dc),
        ServeEngine::Fixed(Algorithm::Bdc),
        ServeEngine::Fixed(Algorithm::Mbdc),
        ServeEngine::Tuned,
    ] {
        let plan = engine.plan(
            &arch,
            resnet_specs(model, minibatch),
            Pass::TrainingStep,
            ExecutionMode::TimingOnly,
        );
        let ms = plan.total_time_ms();
        println!(
            "{},{:.1},{:.0},{:.1}",
            engine.name(),
            ms,
            flops / (ms / 1e3) / 1e9,
            minibatch as f64 / (ms / 1e3)
        );
        eprintln!(
            "{} plan: {} store hits, {} slices simulated",
            engine.name(),
            plan.store_hits,
            plan.simulated
        );
    }
}
