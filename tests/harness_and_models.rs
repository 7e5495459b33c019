//! Integration tests of the benchmark harness plumbing and model-level
//! aggregation (the machinery behind Figures 4-6).

use lsv_bench::{bench_engine, geomean, layer_time_tables, model_time_from_table, Engine, Row};
use lsvconv::conv::{Algorithm, ConvProblem, Direction, ExecutionMode};
use lsvconv::models::{resnet_layers, ResNetModel};
use lsvconv::prelude::sx_aurora;

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
    // A synthetic table where every layer-direction costs 1 ms: the model
    // time must equal 3 x total conv layers.
    let table = vec![[1.0f64; 3]; resnet_layers(8).len()];
    for m in ResNetModel::ALL {
        let t = model_time_from_table(&table, m);
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
fn layer_time_table_is_dense_and_positive() {
    let arch = sx_aurora().with_max_vlen_bits(2048);
    let tables = layer_time_tables(
        &[(arch, 8, Engine::Direct(Algorithm::Bdc))],
        ExecutionMode::TimingOnly,
    );
    let table = &tables[0];
    assert_eq!(table.len(), 19);
    for (id, t) in table.iter().enumerate() {
        for (d, &ms) in t.iter().enumerate() {
            assert!(ms > 0.0, "layer {id} direction {d}");
        }
    }
}
