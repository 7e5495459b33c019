//! Integration tests of the benchmark harness plumbing and model-level
//! aggregation (the machinery behind Figures 4-6).

use lsv_bench::{bench_engine, geomean, Engine, Row};
use lsvconv::conv::{
    Algorithm, ConvProblem, Direction, ExecutionMode, Kernel, LayerCost, ModelRunner, Pass,
};
use lsvconv::models::ResNetModel;
use lsvconv::prelude::sx_aurora;
use lsvconv::serve::{resnet_specs, ServeEngine};

#[test]
fn csv_rows_have_the_artifact_schema() {
    let arch = sx_aurora();
    let p = ConvProblem::new(8, 32, 32, 14, 14, 1, 1, 1, 0);
    let perf = bench_engine(
        &arch,
        &p,
        Direction::Fwd,
        Engine::Direct(Algorithm::Bdc),
        ExecutionMode::TimingOnly,
    );
    let row = Row {
        layer_id: 3,
        direction: Direction::Fwd,
        engine: Engine::Direct(Algorithm::Bdc),
        minibatch: 8,
        perf,
    };
    let line = row.to_csv();
    let fields: Vec<&str> = line.split(',').collect();
    assert_eq!(fields.len(), Row::csv_header().split(',').count());
    assert_eq!(fields[0], "3");
    assert_eq!(fields[1], "fwdd");
    assert_eq!(fields[2], "BDC");
    assert_eq!(fields[3], "8");
    assert!(fields[4].parse::<f64>().unwrap() > 0.0);
}

#[test]
fn geomean_is_scale_invariant() {
    let a = geomean([1.0, 4.0, 16.0]);
    let b = geomean([2.0, 8.0, 32.0]);
    assert!((b / a - 2.0).abs() < 1e-12);
}

#[test]
fn model_aggregation_weights_layer_frequencies() {
    // A synthetic cost hook where every layer-direction costs 1 ms: one
    // training step must take 3 x total conv layers.
    let arch = sx_aurora();
    let one_ms = LayerCost {
        kernel: Kernel::Library("unit"),
        cycles: (arch.freq_ghz * 1e6).round() as u64,
        analytic_cycles: 0,
    };
    for m in ResNetModel::ALL {
        let plan =
            ModelRunner::new(&arch, resnet_specs(m, 8), Pass::TrainingStep).plan(&|_, _| one_ms);
        let t = plan.total_time_ms();
        assert!((t - 3.0 * m.total_conv_layers() as f64).abs() < 1e-9);
    }
}

#[test]
fn vednn_engine_runs_through_the_harness() {
    let arch = sx_aurora();
    let p = ConvProblem::new(8, 16, 16, 14, 14, 3, 3, 1, 1);
    for dir in Direction::ALL {
        let perf = bench_engine(&arch, &p, dir, Engine::Vednn, ExecutionMode::TimingOnly);
        assert!(perf.gflops > 0.0, "{dir}");
    }
}

#[test]
#[ignore = "simulates every full-size layer; run with --ignored in release builds"]
fn training_plan_is_dense_and_positive() {
    let arch = sx_aurora().with_max_vlen_bits(2048);
    let plan = ServeEngine::Fixed(Algorithm::Bdc).plan(
        &arch,
        resnet_specs(ResNetModel::R50, 8),
        Pass::TrainingStep,
        ExecutionMode::TimingOnly,
    );
    assert_eq!(plan.entries.len(), 19 * 3);
    for e in &plan.entries {
        assert!(
            e.time_ms > 0.0,
            "layer {} direction {}",
            e.layer,
            e.direction
        );
    }
}
